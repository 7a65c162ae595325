#!/usr/bin/env bash
# Determinism gate: the suite's JSONL artifact must be byte-identical
# across worker counts (the unified scheduler emits rows in registry
# order with no timing data) and between the two fast-forward modes
# (off / event — skipped cycles must be invisible in results,
# DESIGN.md §11); `--resume` on a settled artifact must execute zero
# experiments while reproducing it byte for byte, even when the artifact
# was produced under a different fast-forward mode.
#
# Runs a smoke-scale subset so the gate stays under a minute; any byte
# difference is a hard failure. No run uses --profile: profiled
# payloads carry wall times and are legitimately nondeterministic.
#
# Set DET_GATE_OUT to keep the produced artifacts in a known directory
# (CI uploads it on failure); otherwise a temp dir is used and cleaned.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "determinism gate"

SUBSET=(fig1 fig2 tab5 tab6 tab7 cost)
# The --jobs comparison is also the inline-vs-pool check, so it adds one
# experiment per remaining family: multi-core aggregate (fig9), parameter
# sweep (fig23), mechanism sensitivity with a shared alone-unit plan
# (fig28).
JOBS_SUBSET=("${SUBSET[@]}" fig9 fig23 fig28)
if [ -n "${DET_GATE_OUT:-}" ]; then
    OUT="$DET_GATE_OUT"
    mkdir -p "$OUT"
else
    OUT="$(mktemp -d)"
    GATE_CLEANUP='rm -rf "$OUT"'
fi

gate_section "build"
cargo build --release --workspace --quiet
REPRO=target/release/repro

gate_section "jobs 1 vs jobs 8"
echo "== determinism: --jobs 1 vs --jobs 8 on ${JOBS_SUBSET[*]} (smoke scale)"
"$REPRO" --smoke --jobs 1 --no-progress --jsonl "$OUT/j1.jsonl" "${JOBS_SUBSET[@]}" >/dev/null
"$REPRO" --smoke --jobs 8 --no-progress --jsonl "$OUT/j8.jsonl" "${JOBS_SUBSET[@]}" >/dev/null
if ! cmp "$OUT/j1.jsonl" "$OUT/j8.jsonl"; then
    echo "FAIL: JSONL differs between --jobs 1 and --jobs 8" >&2
    diff "$OUT/j1.jsonl" "$OUT/j8.jsonl" >&2 || true
    exit 1
fi
echo "   byte-identical ($(wc -c <"$OUT/j1.jsonl") bytes, $(wc -l <"$OUT/j1.jsonl") rows)"

gate_section "resume on settled artifact"
echo "== resume: settled artifact must execute zero experiments"
"$REPRO" --smoke --jobs 8 --no-progress --jsonl "$OUT/full.jsonl" >/dev/null
cp "$OUT/full.jsonl" "$OUT/orig.jsonl"
"$REPRO" --smoke --jobs 8 --no-progress --resume "$OUT/full.jsonl" \
    --summary "$OUT/summary.json" >/dev/null
if ! cmp "$OUT/full.jsonl" "$OUT/orig.jsonl"; then
    echo "FAIL: resumed artifact differs from the original" >&2
    exit 1
fi
if ! grep -q '"ok": 0,' "$OUT/summary.json"; then
    echo "FAIL: resume executed experiments on a settled artifact:" >&2
    cat "$OUT/summary.json" >&2
    exit 1
fi
echo "   zero executions, artifact byte-identical"

gate_section "fast-forward off vs event"
echo "== fast-forward: off vs event on ${SUBSET[*]} (smoke scale)"
for mode in off event; do
    "$REPRO" --smoke --jobs 8 --no-progress --fast-forward "$mode" \
        --jsonl "$OUT/ff-$mode.jsonl" "${SUBSET[@]}" >/dev/null
done
if ! cmp "$OUT/ff-off.jsonl" "$OUT/ff-event.jsonl"; then
    echo "FAIL: JSONL differs between --fast-forward off and event" >&2
    diff "$OUT/ff-off.jsonl" "$OUT/ff-event.jsonl" >&2 || true
    exit 1
fi
echo "   byte-identical ($(wc -c <"$OUT/ff-off.jsonl") bytes)"

gate_section "cross-mode resume"
# cross_resume NAME ARTIFACT [FLAG...]: resuming ARTIFACT (settled under
# the other mode) with FLAGs must re-emit it verbatim and run nothing.
cross_resume() {
    local name=$1 artifact=$2
    shift 2
    "$REPRO" --smoke --jobs 8 --no-progress "$@" \
        --resume "$artifact" --jsonl "$OUT/cross-$name.jsonl" \
        --summary "$OUT/cross-$name-summary.json" "${SUBSET[@]}" >/dev/null
    if ! cmp "$OUT/cross-$name.jsonl" "$OUT/ff-off.jsonl"; then
        echo "FAIL: cross-mode resume ($name) did not re-emit settled rows verbatim" >&2
        exit 1
    fi
    if ! grep -q '"ok": 0,' "$OUT/cross-$name-summary.json"; then
        echo "FAIL: cross-mode resume ($name) executed experiments on a settled artifact:" >&2
        cat "$OUT/cross-$name-summary.json" >&2
        exit 1
    fi
}
echo "== resume across modes: off-mode artifact resumed under event"
cross_resume event "$OUT/ff-off.jsonl" --fast-forward event
echo "== resume across modes: event-mode artifact resumed under the default mode"
cross_resume back "$OUT/ff-event.jsonl"
echo "   zero executions, artifacts byte-identical in both directions"

gate_section "store cold vs warm vs none"
echo "== store: cold vs warm vs no-store byte identity on the grid subset"
# The persistent unit store (DESIGN.md §12) must be invisible in results:
# a cold-store run (every unit computed and written back), a warm-store
# rerun (every unit loaded, zero computed), and a storeless run must
# produce byte-identical JSONL. The warm run must also report misses=0 on
# the stderr telemetry line and execute zero simulation units.
STORE_SUBSET=(fig6 tab5 tab7 fig8)
STORE_DIR="$OUT/store"
rm -rf "$STORE_DIR"
"$REPRO" --smoke --jobs 8 --no-progress --store "$STORE_DIR" \
    --jsonl "$OUT/store-cold.jsonl" "${STORE_SUBSET[@]}" >/dev/null
"$REPRO" --smoke --jobs 8 --no-progress --store "$STORE_DIR" \
    --jsonl "$OUT/store-warm.jsonl" --summary "$OUT/store-warm-summary.json" \
    "${STORE_SUBSET[@]}" >/dev/null 2>"$OUT/store-warm-stderr.txt"
"$REPRO" --smoke --jobs 8 --no-progress \
    --jsonl "$OUT/store-none.jsonl" "${STORE_SUBSET[@]}" >/dev/null
for variant in warm none; do
    if ! cmp "$OUT/store-cold.jsonl" "$OUT/store-$variant.jsonl"; then
        echo "FAIL: store-$variant.jsonl differs from the cold-store artifact" >&2
        diff "$OUT/store-cold.jsonl" "$OUT/store-$variant.jsonl" >&2 || true
        exit 1
    fi
done
if ! grep -q '^store: hits=[0-9]* misses=0 ' "$OUT/store-warm-stderr.txt"; then
    echo "FAIL: warm-store run reported misses:" >&2
    grep '^store:' "$OUT/store-warm-stderr.txt" >&2 || true
    exit 1
fi
if ! grep -q '"subjobs_executed": 0,' "$OUT/store-warm-summary.json"; then
    echo "FAIL: warm-store run executed simulation units:" >&2
    cat "$OUT/store-warm-summary.json" >&2
    exit 1
fi
echo "   cold == warm == no-store; warm run: misses=0, zero units executed"

echo "== determinism_gate.sh: all green"
