#!/usr/bin/env bash
# Store/serve gate: CLI-level robustness of the persistent unit store and
# the `padcsim serve` request server.
#
# 1. Poisoned store: truncated and garbage entry files must be treated as
#    misses — the warm rerun recomputes exactly those units, produces
#    byte-identical JSONL, and heals the store (a further rerun is all
#    hits again). Disk contents are never trusted.
# 2. gc: `padcsim store gc --max-bytes N` must evict down to the bound
#    (oldest entries first) and report consistent stats.
# 3. serve: a stdio serve session fed two overlapping requests plus a
#    malformed one must answer every request (two complete done events,
#    one error event) without crashing, with zero failed jobs.
#
# Set STORE_GATE_OUT to keep the produced artifacts in a known directory
# (CI uploads it on failure); otherwise a temp dir is used and cleaned.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "store/serve gate"

if [ -n "${STORE_GATE_OUT:-}" ]; then
    OUT="$STORE_GATE_OUT"
    mkdir -p "$OUT"
else
    OUT="$(mktemp -d)"
    GATE_CLEANUP='rm -rf "$OUT"'
fi

gate_section "build"
cargo build --release --workspace --quiet
SIM=target/release/padcsim

SUBSET=(fig6 tab5)
STORE="$OUT/store"
rm -rf "$STORE"

gate_section "cold populate"
echo "== store: cold populate on ${SUBSET[*]} (smoke scale)"
"$SIM" --suite --smoke --jobs 2 --store "$STORE" \
    --jsonl "$OUT/cold.jsonl" "${SUBSET[@]}" >/dev/null 2>"$OUT/cold-stderr.txt"
grep '^store:' "$OUT/cold-stderr.txt"
"$SIM" store stats --store "$STORE"

gate_section "poisoned entries recompute and heal"
echo "== store: poisoned entries must be recomputed, not trusted"
mapfile -t ENTRIES < <(find "$STORE/objects" -type f | sort)
if [ "${#ENTRIES[@]}" -lt 3 ]; then
    echo "FAIL: expected at least 3 store entries, found ${#ENTRIES[@]}" >&2
    exit 1
fi
truncate -s 10 "${ENTRIES[0]}"
echo "not a store entry" >"${ENTRIES[1]}"
"$SIM" --suite --smoke --jobs 2 --store "$STORE" \
    --jsonl "$OUT/healed.jsonl" "${SUBSET[@]}" >/dev/null 2>"$OUT/healed-stderr.txt"
if ! cmp "$OUT/cold.jsonl" "$OUT/healed.jsonl"; then
    echo "FAIL: poisoned store changed the artifact" >&2
    diff "$OUT/cold.jsonl" "$OUT/healed.jsonl" >&2 || true
    exit 1
fi
if ! grep -q '^store: hits=[0-9]* misses=2 ' "$OUT/healed-stderr.txt"; then
    echo "FAIL: expected exactly the 2 poisoned entries to miss:" >&2
    grep '^store:' "$OUT/healed-stderr.txt" >&2 || true
    exit 1
fi
"$SIM" --suite --smoke --jobs 2 --store "$STORE" \
    --jsonl "$OUT/rewarm.jsonl" "${SUBSET[@]}" >/dev/null 2>"$OUT/rewarm-stderr.txt"
if ! grep -q '^store: hits=[0-9]* misses=0 ' "$OUT/rewarm-stderr.txt"; then
    echo "FAIL: recomputation did not heal the store:" >&2
    grep '^store:' "$OUT/rewarm-stderr.txt" >&2 || true
    exit 1
fi
echo "   byte-identical, 2 recomputed, store healed"

gate_section "gc eviction bound"
echo "== store: gc --max-bytes evicts down to the bound"
BOUND=20000
"$SIM" store gc --max-bytes "$BOUND" --store "$STORE" | tee "$OUT/gc.txt"
remaining=$("$SIM" store stats --store "$STORE" | grep -o 'bytes=[0-9]*' | cut -d= -f2)
if [ "$remaining" -gt "$BOUND" ]; then
    echo "FAIL: $remaining bytes remain after gc --max-bytes $BOUND" >&2
    exit 1
fi
echo "   $remaining bytes <= $BOUND"

gate_section "serve stdio requests"
echo "== serve: overlapping requests plus a malformed one over stdio"
printf '%s\n' \
    '{"id":"r1","experiments":["fig6","tab5"],"scale":"smoke"}' \
    'this is not json' \
    '{"id":"r2","experiments":["fig6","tab7"],"scale":"smoke"}' |
    "$SIM" serve --stdio --jobs 2 --smoke --store "$STORE" \
        >"$OUT/serve.out" 2>"$OUT/serve-stderr.txt"
grep '^serve: requests=' "$OUT/serve-stderr.txt"
done_count=$(grep -c '"event":"done"' "$OUT/serve.out" || true)
error_count=$(grep -c '"event":"error"' "$OUT/serve.out" || true)
if [ "$done_count" -ne 2 ] || [ "$error_count" -ne 1 ]; then
    echo "FAIL: expected 2 done + 1 error events, got $done_count + $error_count:" >&2
    cat "$OUT/serve.out" >&2
    exit 1
fi
if grep '"event":"done"' "$OUT/serve.out" | grep -qv '"failed":0'; then
    echo "FAIL: a serve request reported failed jobs:" >&2
    grep '"event":"done"' "$OUT/serve.out" >&2
    exit 1
fi
echo "   2 requests served, malformed line answered with an error event"

echo "== store_gate.sh: all green"
