#!/usr/bin/env bash
# The "alternated pairs" protocol every perf PR reports: N pairs of one
# benchmark workload, parent first in odd pairs and change first in even ones,
# each side through its own checkout's benchmark/run.sh. Prints every pair,
# then per side the median and quartiles, and the pairs it won (ties to
# neither), for the three end-to-end metrics (all lower-is-better). A verdict
# line per metric then reads off the claim: whether the change's gain holds
# by the choosing-metrics rule (it wins at least 9 of every 10 pairs and its
# median beats the parent's by more than the parent's q3 - q1), and whether
# its median stays within the metric's bound in CHANGE_DIR/BENCHMARK.json.
# The benchmark sets the run length. Needs jq.
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N
set -euo pipefail
[ $# -eq 5 ] || { echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED N" >&2; exit 2; }
parent=$1 change=$2 workload=$3 seed=$4 n=$5
run() { # DIR -> "setup_s wall_s peak_rss_mb"
    (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0) |
        tail -n 1 | jq -r '.metrics | [.setup_s, .wall_s, .peak_rss_mb]
            | map(.value | if . == floor then "\(.).0" else tostring end) | join(" ")'
}
bounds=$(jq -c '[.end_to_end[] | {(.name): .bound}] | add' "$change/BENCHMARK.json")
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then p=$(run "$parent"); c=$(run "$change"); else c=$(run "$change"); p=$(run "$parent"); fi
    echo "pair $i: P $p / C $c"
    echo "$p $c" >>"$rows"
done
# jq does the statistics, in the same floating-point operations as Python's
# statistics.quantiles (method "inclusive") and statistics.median, and prints
# each result exactly; awk's printf rounds the doubles as Python's format().
jq -R -s -r --argjson bounds "$bounds" '
def quartiles:
    sort as $v | ($v | length - 1) as $m
    | if $m == 0 then [$v[0], $v[0], $v[0]]
      else [1, 2, 3] | map((. * $m) as $im | ($im / 4 | floor) as $j | ($im - 4 * $j) as $r
          | ($v[$j] * (4 - $r) + $v[$j + 1] * $r) / 4)
      end;
def median: sort as $v | ($v | length) as $n
    | if $n % 2 == 1 then $v[($n - 1) / 2] else ($v[$n / 2 - 1] + $v[$n / 2]) / 2 end;
[split("\n")[] | select(length > 0) | split(" ") | map(tonumber)] as $rows
| ["setup_s", "wall_s", "peak_rss_mb"] | to_entries[] | .key as $j | .value as $metric
| ($rows | map(.[$j])) as $p | ($rows | map(.[3 + $j])) as $c
| ($p | quartiles) as $pq | ($c | median) as $cm
| ([$rows[] | select(.[$j] > .[3 + $j])] | length) as $wins
| ($rows | length) as $pairs
| [$metric, $pq[1], $pq[0], $pq[2], ($c | quartiles[1, 0, 2]),
   ($cm / $pq[1] - 1) * 100, $wins,
   ([$rows[] | select(.[$j] < .[3 + $j])] | length), $pairs,
   ($wins * 10 >= $pairs * 9 and $pq[1] - $cm > $pq[2] - $pq[0]),
   $pq[1] - $cm, $pq[2] - $pq[0], $bounds[$metric] * 100,
   $cm <= $pq[1] * (1 + $bounds[$metric])]
| map(tostring) | join(" ")
' "$rows" | awk '{
    printf "%s: parent median %.4f (q1 %.4f, q3 %.4f) | change median %.4f (q1 %.4f, q3 %.4f)", $1, $2, $3, $4, $5, $6, $7
    printf " | %+.1f%% | change wins %d/%d, parent wins %d/%d\n", $8, $9, $11, $10, $11
    printf "%s verdict: gain %s (change wins %d/%d, needs 9 in 10; median gap %.4f vs parent q3-q1 %.4f)", $1, $12 == "true" ? "HOLDS" : "not shown", $9, $11, $13, $14
    printf " | change median %s the %+g%% bound\n", $16 == "true" ? "within" : "OUTSIDE", $15
}'
