#!/usr/bin/env bash
# The "alternated pairs" protocol every perf PR reports: N pairs of one
# benchmark workload, parent first in odd pairs and change first in even ones,
# each side through its own checkout's benchmark/run.sh. Prints every pair,
# then per side the median and quartiles, and the pairs it won (ties to
# neither), for the three end-to-end metrics (all lower-is-better).
# The benchmark sets the run length.
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N
set -euo pipefail
[ $# -eq 5 ] || { echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED N" >&2; exit 2; }
parent=$1 change=$2 workload=$3 seed=$4 n=$5
run() { # DIR -> "setup_s wall_s peak_rss_mb"
    (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0) |
        tail -n 1 | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
print(*(m[k]["value"] for k in ("setup_s", "wall_s", "peak_rss_mb")))'
}
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then p=$(run "$parent"); c=$(run "$change"); else c=$(run "$change"); p=$(run "$parent"); fi
    echo "pair $i: P $p / C $c"
    echo "$p $c" >>"$rows"
done
python3 - "$rows" <<'EOF'
import statistics, sys
rows = [[float(x) for x in line.split()] for line in open(sys.argv[1])]
def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
    return f"median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f})"
for j, name in enumerate(("setup_s", "wall_s", "peak_rss_mb")):
    p, c = [r[j] for r in rows], [r[3 + j] for r in rows]
    wins = sum(x > y for x, y in zip(p, c)), sum(x < y for x, y in zip(p, c))
    delta = (statistics.median(c) / statistics.median(p) - 1) * 100
    print(f"{name}: parent {quartiles(p)} | change {quartiles(c)} | "
          f"{delta:+.1f}% | change wins {wins[0]}/{len(rows)}, parent wins {wins[1]}/{len(rows)}")
EOF
