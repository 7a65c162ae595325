#!/usr/bin/env bash
# Mechanisms gate: the mechanism-arm experiment families added on top
# of the paper grid — `ext-dspatch` (DSPatch dual-pattern prefetcher under
# PADC), `ext-happy` (HAPPY hybrid page policy crossed with APS/APD), and
# `ext-refresh` (per-bank refresh and DARP refresh-access parallelism) —
# must satisfy the same determinism contract as the rest of the suite:
# byte-identical JSONL across --jobs 1 / --jobs 8 and between the two
# --fast-forward modes. A profiled run must additionally show a nonzero
# DSPatch modulator flip count ("dspatch_flips" in the profile object),
# proving the Coverage<->Accuracy modulator actually engages at smoke
# scale rather than sitting in one mode; the ext-happy table must carry
# rows for all three row policies; the ext-refresh family must emit one
# table per refresh policy, report nonzero DARP refresh pulls, and an
# all-bank refresh run must stay byte-identical to the legacy
# extended-timing model (RefreshPolicy::AllBank is a pure rename of the
# pre-RefreshPolicy behavior, never a semantic change).
#
# No determinism comparison uses --profile: profiled payloads carry wall
# times and are legitimately nondeterministic. The profiled run is only
# mined for the (deterministic) flip counter.
#
# Set MECH_GATE_OUT to keep the produced artifacts in a known directory
# (CI uploads it on failure); otherwise a temp dir is used and cleaned.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "mechanisms gate"

FAMILIES=(ext-dspatch ext-happy ext-refresh)
if [ -n "${MECH_GATE_OUT:-}" ]; then
    OUT="$MECH_GATE_OUT"
    mkdir -p "$OUT"
else
    OUT="$(mktemp -d)"
    GATE_CLEANUP='rm -rf "$OUT"'
fi

gate_section "build"
cargo build --release --workspace --quiet
REPRO=target/release/repro
SIM=target/release/padcsim

gate_section "jobs 1 vs jobs 8"
echo "== mechanisms: --jobs 1 vs --jobs 8 on ${FAMILIES[*]} (smoke scale)"
"$REPRO" --smoke --jobs 1 --no-progress --jsonl "$OUT/j1.jsonl" "${FAMILIES[@]}" >/dev/null
"$REPRO" --smoke --jobs 8 --no-progress --jsonl "$OUT/j8.jsonl" "${FAMILIES[@]}" >/dev/null
if ! cmp "$OUT/j1.jsonl" "$OUT/j8.jsonl"; then
    echo "FAIL: JSONL differs between --jobs 1 and --jobs 8" >&2
    diff "$OUT/j1.jsonl" "$OUT/j8.jsonl" >&2 || true
    exit 1
fi
echo "   byte-identical ($(wc -c <"$OUT/j1.jsonl") bytes, $(wc -l <"$OUT/j1.jsonl") rows)"

gate_section "fast-forward off vs event"
echo "== mechanisms: off vs event on ${FAMILIES[*]}"
for mode in off event; do
    "$REPRO" --smoke --jobs 8 --no-progress --fast-forward "$mode" \
        --jsonl "$OUT/ff-$mode.jsonl" "${FAMILIES[@]}" >/dev/null
done
if ! cmp "$OUT/ff-off.jsonl" "$OUT/ff-event.jsonl"; then
    echo "FAIL: JSONL differs between --fast-forward off and event" >&2
    diff "$OUT/ff-off.jsonl" "$OUT/ff-event.jsonl" >&2 || true
    exit 1
fi
echo "   byte-identical ($(wc -c <"$OUT/ff-off.jsonl") bytes)"

gate_section "table shape"
echo "== mechanisms: ext-dspatch emits both prefetcher sets, ext-happy all three policies,"
echo "   ext-refresh all three refresh policies"
for table in ext-dspatch-stream ext-dspatch-dspatch; do
    if ! grep -q "\"id\":\"$table\"" "$OUT/j1.jsonl"; then
        echo "FAIL: ext-dspatch artifact misses table $table" >&2
        exit 1
    fi
done
for variant in open-row closed-row happy; do
    if ! grep -q "($variant)" "$OUT/j1.jsonl"; then
        echo "FAIL: ext-happy artifact misses the $variant rows" >&2
        exit 1
    fi
done
for table in ext-refresh-all-bank ext-refresh-per-bank ext-refresh-darp; do
    if ! grep -q "\"id\":\"$table\"" "$OUT/j1.jsonl"; then
        echo "FAIL: ext-refresh artifact misses table $table" >&2
        exit 1
    fi
done
echo "   both ext-dspatch tables present; ext-happy covers open/closed/happy;"
echo "   ext-refresh covers all-bank/per-bank/darp"

gate_section "dspatch modulator engages"
echo "== mechanisms: profiled ext-dspatch run must report nonzero dspatch_flips"
"$REPRO" --smoke --jobs 8 --no-progress --profile \
    --jsonl "$OUT/profiled.jsonl" "${FAMILIES[@]}" >/dev/null
FLIPS=$(grep '"id":"ext-dspatch-' "$OUT/profiled.jsonl" \
    | grep -o '"dspatch_flips":[0-9]*' | head -n1 | cut -d: -f2)
if [ -z "$FLIPS" ]; then
    echo "FAIL: profiled ext-dspatch payload carries no dspatch_flips counter" >&2
    exit 1
fi
if [ "$FLIPS" -eq 0 ]; then
    echo "FAIL: DSPatch modulator never flipped modes at smoke scale (dspatch_flips=0)" >&2
    exit 1
fi
echo "   dspatch_flips=$FLIPS (nonzero; modulator exercised both modes)"

gate_section "refresh: all-bank == legacy, darp pulls engage"
echo "== mechanisms: RefreshPolicy::AllBank must be byte-identical to the legacy"
echo "   extended-timing model, and the profiled ext-refresh run must pull refreshes"
REFRESH_MIX=(--bench mcf_06 --bench libquantum_06 --bench lbm_06 --bench milc_06)
"$SIM" "${REFRESH_MIX[@]}" --policy padc --instructions 30000 \
    --extended-timing --json >"$OUT/refresh-legacy.json"
"$SIM" "${REFRESH_MIX[@]}" --policy padc --instructions 30000 \
    --extended-timing --refresh-policy all-bank --json >"$OUT/refresh-allbank.json"
if ! cmp "$OUT/refresh-legacy.json" "$OUT/refresh-allbank.json"; then
    echo "FAIL: --refresh-policy all-bank diverged from the legacy extended-timing" >&2
    echo "      model — AllBank must stay a pure rename of the pre-RefreshPolicy" >&2
    echo "      behavior (DESIGN.md §15)" >&2
    exit 1
fi
PULLS=$(grep '"id":"ext-refresh-' "$OUT/profiled.jsonl" \
    | grep -o '"refresh_pulls":[0-9]*' | head -n1 | cut -d: -f2)
if [ -z "$PULLS" ]; then
    echo "FAIL: profiled ext-refresh payload carries no refresh_pulls counter" >&2
    exit 1
fi
if [ "$PULLS" -eq 0 ]; then
    echo "FAIL: DARP never pulled a refresh into an idle bank at smoke scale (refresh_pulls=0)" >&2
    exit 1
fi
echo "   all-bank byte-identical to legacy ($(wc -c <"$OUT/refresh-legacy.json") bytes);" \
     "refresh_pulls=$PULLS"

echo "== mech_gate.sh: all green"
