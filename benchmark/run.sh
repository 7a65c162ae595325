#!/usr/bin/env bash
# The one entry point of the benchmark. Run it from the repository root.
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One workload in the shape BENCHMARK.json's contract asks for (this is
#       its "command"): builds, then prints one JSON object as the last line.
#
#   bash benchmark/run.sh [--seed S] [--out-dir DIR] [--seconds T] [--tiny]
#       The full recording: builds offline, runs `run` then `trace`, checks
#       both result files against BENCHMARK.json, and records nproc,
#       /proc/loadavg before and after, rustc and the git commit in them.
#       Exits 3 without measuring when the 1-minute load average is above
#       nproc: numbers taken on a busy host are not worth recording.
set -euo pipefail

manifest=benchmark/Cargo.toml
[ -f "$manifest" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }

# The simulator crates are path dependencies outside benchmark/; without them
# this fails here, before anything is printed.
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/padc-benchmark"

case " $* " in
*" --workload "*) exec "$bin" driver "$@" ;;
esac

seed=1
out_dir=benchmark/out
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed=$2; shift 2 ;;
    --out-dir) out_dir=$2; shift 2 ;;
    --seconds) pass+=(--seconds "$2"); shift 2 ;;
    --tiny) pass+=(--tiny); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cpus=$(nproc)
read -r load1 _ </proc/loadavg
if awk -v l="$load1" -v n="$cpus" 'BEGIN { exit !(l > n) }'; then
    echo "run.sh: 1-minute load average $load1 exceeds nproc $cpus; not measuring" >&2
    exit 3
fi

mkdir -p "$out_dir"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
meta=(--meta "rustc=$(rustc --version)" --meta "git_commit=$commit")
run_file="$out_dir/run-seed$seed.json"
trace_file="$out_dir/trace-seed$seed.json"

"$bin" run --seed "$seed" --out "$run_file" "${meta[@]}" ${pass[@]+"${pass[@]}"}
"$bin" trace --seed "$seed" --out "$trace_file" "${meta[@]}" ${pass[@]+"${pass[@]}"}
"$bin" validate --spec BENCHMARK.json "$run_file" "$trace_file"
