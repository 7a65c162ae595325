#!/usr/bin/env bash
# CI perf gate, four sections:
#
# 1. The event kernel's core-cycle skip ratio on a smoke-scale 8-core
#    memory-hog mix must not regress below the floor recorded in
#    BENCH_fastforward.json (minus tolerance). This catches changes that
#    silently break per-core idle classification (e.g. a core that always
#    reports busy): results would stay byte-identical — so the determinism
#    gate would pass — while the multi-core speedup quietly evaporates.
#
# 1b. The controller skip ratio on the same run and on the mcf single must not regress below the floors recorded in
#    BENCH_event.json (minus tolerance). Same rationale one layer down:
#    a change that stops proving controller idleness keeps results
#    byte-identical while the O(events) controller loop silently
#    degrades back to O(cycles).
#
# 1c. The request buffer's owner cache must stay effective (floors from
#    BENCH_buffer.json, counters from the same mix run):
#    owner_recomputes must not exceed owner_invalidations (structural
#    dirty-bit invariant) and the owner reuse rate must not fall below
#    the recorded floor. Deterministic counts, not timings.
#
# 2. The plan/reduce sub-job machinery must keep doing its job
#    structurally (floors from BENCH_subjob.json): without a store,
#    experiments must decompose into at least the recorded number of
#    sub-jobs (one per distinct unit), peak sub-job concurrency must
#    never exceed --jobs, and the unit cache must still deduplicate
#    shared grid cells (single-core units computed stays at the recorded
#    unique-unit count while requested exceeds it). All three are
#    deterministic counts, not timings, so the gate is immune to machine
#    noise and meaningful even on a 1-CPU container.
#
# 3. The persistent unit store must keep warm runs free (floors from
#    BENCH_store.json): a warm rerun against a just-populated store must
#    hit at least min_warm_hits units, miss at most max_warm_misses, and
#    execute zero simulation units. This catches fingerprint instability,
#    where warm runs silently recompute everything while results stay
#    byte-identical.
#
# 4. The mechanism-arm families (ext-dspatch, ext-happy, ext-refresh)
#    must keep their structural shape (floors from BENCH_mech.json): the
#    cold run must decompose into at least min_subjobs_executed units
#    under the --jobs bound with the cache deduplicating alone references,
#    and a warm rerun must resolve entirely from the store. This catches
#    the new arms' configs (DsPatchConfig, RowPolicy::Happy,
#    RefreshPolicy) going fingerprint-unstable while results stay
#    byte-identical.
#
# 5. The DARP refresh-pull pass must keep firing (floors from
#    BENCH_refresh.json): a --refresh-policy darp run on the 8-core mix
#    must pull at least min_refresh_pulls refreshes into idle banks and
#    charge nonzero refresh_stall_cycles, while an all-bank run reports
#    zero pulls (pulls exist only under DARP). Deterministic counts, not
#    timings. This catches the idle-bank eligibility test silently going
#    always-false: results would drift only at the IPC level while the
#    mechanism the ext-refresh family measures quietly turns into plain
#    per-bank refresh.
#
# Set PERF_GATE_OUT to keep the report and profile output in a known
# directory (CI uploads it on failure); otherwise a temp dir is used.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "perf gate"

if [ -n "${PERF_GATE_OUT:-}" ]; then
    OUT="$PERF_GATE_OUT"
    mkdir -p "$OUT"
else
    OUT="$(mktemp -d)"
    GATE_CLEANUP='rm -rf "$OUT"'
fi

gate_section "build"
cargo build --release --workspace --quiet
SIM=target/release/padcsim

# The 8-core memory-hog mix from BENCH_fastforward.json, smoke-scaled.
MIX=(--bench mcf_06 --bench libquantum_06 --bench swim_00 --bench GemsFDTD_06
     --bench lbm_06 --bench milc_06 --bench leslie3d_06 --bench soplex_06)

# One profiled mix run feeds sections 1, 1b and 1c: the core floor
# (BENCH_fastforward.json) and the controller floors (BENCH_event.json)
# were recorded at the same instruction count.
GATE=$(python3 - <<'PYEOF'
import json
core = json.load(open("BENCH_fastforward.json"))["ci_gate"]
gate = json.load(open("BENCH_event.json"))["ci_gate"]
tol = gate["tolerance_pct"]
print(core["min_core_skip_pct"] - core["tolerance_pct"],
      gate["mix_instructions"], gate["mix_min_ctrl_skip_pct"] - tol,
      gate["mcf_instructions"], gate["mcf_min_ctrl_skip_pct"] - tol)
PYEOF
)
read -r floor CTRL_MIX_INSTR CTRL_MIX_FLOOR CTRL_MCF_INSTR CTRL_MCF_FLOOR <<<"$GATE"

gate_section "core skip floor (event, 8-core mix)"
echo "== perf: 8-core memory-hog mix, --fast-forward event, core floor ${floor}%"
"$SIM" "${MIX[@]}" --policy padc --instructions "$CTRL_MIX_INSTR" \
    --fast-forward event --profile \
    >"$OUT/event-mix-report.txt" 2>"$OUT/event-mix-profile.txt"
grep '^profile:' "$OUT/event-mix-profile.txt"

skip=$(grep -o '"core_skip_pct":[0-9.]*' "$OUT/event-mix-profile.txt" | head -n1 | cut -d: -f2)
if [ -z "$skip" ]; then
    echo "FAIL: no core_skip_pct in --profile output" >&2
    exit 1
fi
if ! awk -v s="$skip" -v f="$floor" 'BEGIN { exit !(s >= f) }'; then
    echo "FAIL: core skip ratio ${skip}% fell below the ${floor}% floor" >&2
    echo "      (floor = ci_gate.min_core_skip_pct - ci_gate.tolerance_pct" >&2
    echo "       from BENCH_fastforward.json; re-measure and update it only" >&2
    echo "       if the regression is understood and intended)" >&2
    exit 1
fi
echo "   core skip ratio ${skip}% >= floor ${floor}%"

gate_section "ctrl skip floor (event, 8-core mix)"
echo "== perf: controller phase on the same mix run, ctrl floor ${CTRL_MIX_FLOOR}%"
ctrl_skip=$(grep -o '"ctrl_skip_pct":[0-9.]*' "$OUT/event-mix-profile.txt" | head -n1 | cut -d: -f2)
if [ -z "$ctrl_skip" ]; then
    echo "FAIL: no ctrl_skip_pct in --profile output" >&2
    exit 1
fi
if ! awk -v s="$ctrl_skip" -v f="$CTRL_MIX_FLOOR" 'BEGIN { exit !(s >= f) }'; then
    echo "FAIL: controller skip ratio ${ctrl_skip}% fell below the ${CTRL_MIX_FLOOR}% floor" >&2
    echo "      (floor = ci_gate.mix_min_ctrl_skip_pct - ci_gate.tolerance_pct" >&2
    echo "       from BENCH_event.json; re-measure and update it only if the" >&2
    echo "       regression is understood and intended)" >&2
    exit 1
fi
echo "   ctrl skip ratio ${ctrl_skip}% >= floor ${CTRL_MIX_FLOOR}%"

# -- 1c: request-buffer owner-cache floors (BENCH_buffer.json) ---------
# Reuses the mix profile captured above. Two checks: the
# structural invariant owner_recomputes <= owner_invalidations (each
# recompute consumes one clean->dirty transition; a violation means the
# owner cache is being bypassed), and a reuse-rate floor (catches
# over-invalidation: results stay byte-identical while every mutation
# dirties every bank and the O(entries) scans quietly return).
BUF_FLOOR=$(python3 - <<'PYEOF'
import json
gate = json.load(open("BENCH_buffer.json"))["ci_gate"]
print(gate["mix_min_reuse_pct"] - gate["tolerance_pct"])
PYEOF
)

gate_section "owner-cache floors (event, 8-core mix)"
echo "== perf: owner cache on the same mix run, reuse floor ${BUF_FLOOR}%"
owner_line=$(grep '^profile: ' "$OUT/event-mix-profile.txt" || true)
recomputes=$(echo "$owner_line" | grep -o '"owner_recomputes":[0-9]*' | cut -d: -f2)
invalidations=$(echo "$owner_line" | grep -o '"owner_invalidations":[0-9]*' | cut -d: -f2)
reuses=$(echo "$owner_line" | grep -o '"owner_reuses":[0-9]*' | cut -d: -f2)
if [ -z "$recomputes" ] || [ -z "$invalidations" ] || [ -z "$reuses" ]; then
    echo "FAIL: no owner_* counters in --profile output" >&2
    exit 1
fi
if [ "$recomputes" -gt "$invalidations" ]; then
    echo "FAIL: owner_recomputes=$recomputes > owner_invalidations=$invalidations" >&2
    echo "      — each recompute must consume one clean->dirty transition;" >&2
    echo "      the owner cache's dirty-bit protocol is being bypassed" >&2
    exit 1
fi
reuse_pct=$(awk -v r="$reuses" -v c="$recomputes" \
    'BEGIN { printf "%.1f", 100 * r / (r + c) }')
if ! awk -v s="$reuse_pct" -v f="$BUF_FLOOR" 'BEGIN { exit !(s >= f) }'; then
    echo "FAIL: owner reuse rate ${reuse_pct}% fell below the ${BUF_FLOOR}% floor" >&2
    echo "      (floor = ci_gate.mix_min_reuse_pct - ci_gate.tolerance_pct" >&2
    echo "       from BENCH_buffer.json; re-measure and update it only if" >&2
    echo "       the extra invalidation is understood and intended)" >&2
    exit 1
fi
echo "   owner reuse ${reuse_pct}% >= floor ${BUF_FLOOR}%," \
     "recomputes $recomputes <= invalidations $invalidations"

gate_section "ctrl skip floor (event, mcf single)"
echo "== perf: mcf single, --fast-forward event, ctrl floor ${CTRL_MCF_FLOOR}%"
"$SIM" --bench mcf_06 --policy padc --instructions "$CTRL_MCF_INSTR" \
    --fast-forward event --profile \
    >"$OUT/event-mcf-report.txt" 2>"$OUT/event-mcf-profile.txt"
grep '^profile:' "$OUT/event-mcf-profile.txt"
ctrl_skip=$(grep -o '"ctrl_skip_pct":[0-9.]*' "$OUT/event-mcf-profile.txt" | head -n1 | cut -d: -f2)
if [ -z "$ctrl_skip" ]; then
    echo "FAIL: no ctrl_skip_pct in --profile output" >&2
    exit 1
fi
if ! awk -v s="$ctrl_skip" -v f="$CTRL_MCF_FLOOR" 'BEGIN { exit !(s >= f) }'; then
    echo "FAIL: controller skip ratio ${ctrl_skip}% fell below the ${CTRL_MCF_FLOOR}% floor" >&2
    echo "      (floor = ci_gate.mcf_min_ctrl_skip_pct - ci_gate.tolerance_pct" >&2
    echo "       from BENCH_event.json)" >&2
    exit 1
fi
echo "   ctrl skip ratio ${ctrl_skip}% >= floor ${CTRL_MCF_FLOOR}%"

REPRO=target/release/repro

SUBJOB_GATE=$(python3 - <<'PYEOF'
import json
gate = json.load(open("BENCH_subjob.json"))["ci_gate"]
print(gate["jobs"], gate["min_subjobs_executed"],
      gate["max_singles_computed"], " ".join(gate["subset"]))
PYEOF
)
read -r SUBJOB_JOBS MIN_SUBJOBS MAX_SINGLES SUBJOB_SUBSET <<<"$SUBJOB_GATE"

gate_section "sub-job decomposition floors"
echo "== subjobs: ${SUBJOB_SUBSET} at smoke scale, --jobs ${SUBJOB_JOBS}"
# shellcheck disable=SC2086
"$REPRO" --smoke --jobs "$SUBJOB_JOBS" --no-progress \
    --jsonl "$OUT/subjob.jsonl" --summary "$OUT/subjob-summary.json" \
    $SUBJOB_SUBSET >/dev/null 2>"$OUT/subjob-stderr.txt"

executed=$(grep -o '"subjobs_executed": [0-9]*' "$OUT/subjob-summary.json" | grep -o '[0-9]*$')
peak=$(grep -o '"subjobs_peak_concurrent": [0-9]*' "$OUT/subjob-summary.json" | grep -o '[0-9]*$')
memo=$(grep '^single_run_memo:' "$OUT/subjob-stderr.txt" || true)
requested=$(echo "$memo" | grep -o 'requested=[0-9]*' | cut -d= -f2)
computed=$(echo "$memo" | grep -o 'computed=[0-9]*' | cut -d= -f2)

if [ -z "$executed" ] || [ -z "$peak" ]; then
    echo "FAIL: summary JSON carries no sub-job stats:" >&2
    cat "$OUT/subjob-summary.json" >&2
    exit 1
fi
if [ "$executed" -lt "$MIN_SUBJOBS" ]; then
    echo "FAIL: only $executed sub-jobs executed (floor $MIN_SUBJOBS):" >&2
    echo "      experiments are no longer decomposing into units" >&2
    exit 1
fi
if [ "$peak" -gt "$SUBJOB_JOBS" ]; then
    echo "FAIL: peak sub-job concurrency $peak exceeds --jobs $SUBJOB_JOBS" >&2
    exit 1
fi
if [ -z "$requested" ] || [ -z "$computed" ]; then
    echo "FAIL: no single_run_memo line on stderr — unit-cache accounting is gone" >&2
    exit 1
fi
if [ "$computed" -gt "$MAX_SINGLES" ]; then
    echo "FAIL: $computed single-core runs computed (ceiling $MAX_SINGLES):" >&2
    echo "      the unit cache stopped deduplicating shared grid cells" >&2
    exit 1
fi
if [ "$requested" -le "$computed" ]; then
    echo "FAIL: requested=$requested computed=$computed — no dedup observed" >&2
    exit 1
fi
echo "   $executed sub-jobs (floor $MIN_SUBJOBS), peak concurrency $peak <= $SUBJOB_JOBS"
echo "   memo: $requested requested -> $computed computed (ceiling $MAX_SINGLES)"

STORE_GATE=$(python3 - <<'PYEOF'
import json
gate = json.load(open("BENCH_store.json"))["ci_gate"]
print(gate["jobs"], gate["min_warm_hits"], gate["max_warm_misses"],
      " ".join(gate["subset"]))
PYEOF
)
read -r STORE_JOBS MIN_WARM_HITS MAX_WARM_MISSES STORE_SUBSET <<<"$STORE_GATE"

gate_section "store warm-hit floors"
echo "== store: ${STORE_SUBSET} at smoke scale, cold then warm, --jobs ${STORE_JOBS}"
# Floors from BENCH_store.json: a warm rerun against the store the cold
# run just populated must resolve every unit from disk (hits >= floor,
# misses <= ceiling) and execute zero simulation units. This catches
# fingerprint instability (e.g. a nondeterministic field leaking into the
# store meta): results would stay byte-identical — so the determinism
# gate would pass — while every "warm" run quietly recomputes everything.
STORE_DIR="$OUT/store"
rm -rf "$STORE_DIR"
# shellcheck disable=SC2086
"$REPRO" --smoke --jobs "$STORE_JOBS" --no-progress \
    --store "$STORE_DIR" --jsonl "$OUT/store-cold.jsonl" \
    $STORE_SUBSET >/dev/null 2>"$OUT/store-cold-stderr.txt"
# shellcheck disable=SC2086
"$REPRO" --smoke --jobs "$STORE_JOBS" --no-progress \
    --store "$STORE_DIR" --jsonl "$OUT/store-warm.jsonl" \
    --summary "$OUT/store-summary.json" \
    $STORE_SUBSET >/dev/null 2>"$OUT/store-warm-stderr.txt"

store_line=$(grep '^store:' "$OUT/store-warm-stderr.txt" || true)
hits=$(echo "$store_line" | grep -o 'hits=[0-9]*' | cut -d= -f2)
misses=$(echo "$store_line" | grep -o 'misses=[0-9]*' | cut -d= -f2)
warm_exec=$(grep -o '"subjobs_executed": [0-9]*' "$OUT/store-summary.json" | grep -o '[0-9]*$')
if [ -z "$hits" ] || [ -z "$misses" ] || [ -z "$warm_exec" ]; then
    echo "FAIL: store telemetry missing (stderr line or summary stats):" >&2
    cat "$OUT/store-warm-stderr.txt" >&2
    exit 1
fi
if [ "$hits" -lt "$MIN_WARM_HITS" ]; then
    echo "FAIL: warm run hit only $hits units (floor $MIN_WARM_HITS):" >&2
    echo "      units stopped resolving through the store" >&2
    exit 1
fi
if [ "$misses" -gt "$MAX_WARM_MISSES" ]; then
    echo "FAIL: warm run missed $misses units (ceiling $MAX_WARM_MISSES):" >&2
    echo "      the unit fingerprint is no longer stable across runs" >&2
    exit 1
fi
if [ "$warm_exec" -ne 0 ]; then
    echo "FAIL: warm run executed $warm_exec simulation units (expected 0)" >&2
    exit 1
fi
echo "   warm: $hits hits (floor $MIN_WARM_HITS), $misses misses" \
     "(ceiling $MAX_WARM_MISSES), 0 units executed"

MECH_GATE=$(python3 - <<'PYEOF'
import json
gate = json.load(open("BENCH_mech.json"))["ci_gate"]
print(gate["jobs"], gate["min_subjobs_executed"], gate["max_singles_computed"],
      gate["min_warm_hits"], gate["max_warm_misses"], " ".join(gate["subset"]))
PYEOF
)
read -r MECH_JOBS MECH_MIN_SUBJOBS MECH_MAX_SINGLES MECH_MIN_HITS MECH_MAX_MISSES MECH_SUBSET <<<"$MECH_GATE"

gate_section "mechanism-family floors"
echo "== mech: ${MECH_SUBSET} at smoke scale, cold then warm, --jobs ${MECH_JOBS}"
MECH_STORE="$OUT/mech-store"
rm -rf "$MECH_STORE"
# shellcheck disable=SC2086
"$REPRO" --smoke --jobs "$MECH_JOBS" --no-progress \
    --store "$MECH_STORE" --jsonl "$OUT/mech-cold.jsonl" \
    --summary "$OUT/mech-cold-summary.json" \
    $MECH_SUBSET >/dev/null 2>"$OUT/mech-cold-stderr.txt"
# shellcheck disable=SC2086
"$REPRO" --smoke --jobs "$MECH_JOBS" --no-progress \
    --store "$MECH_STORE" --jsonl "$OUT/mech-warm.jsonl" \
    --summary "$OUT/mech-warm-summary.json" \
    $MECH_SUBSET >/dev/null 2>"$OUT/mech-warm-stderr.txt"

mech_exec=$(grep -o '"subjobs_executed": [0-9]*' "$OUT/mech-cold-summary.json" | grep -o '[0-9]*$')
mech_peak=$(grep -o '"subjobs_peak_concurrent": [0-9]*' "$OUT/mech-cold-summary.json" | grep -o '[0-9]*$')
mech_memo=$(grep '^single_run_memo:' "$OUT/mech-cold-stderr.txt" || true)
mech_computed=$(echo "$mech_memo" | grep -o 'computed=[0-9]*' | cut -d= -f2)
mech_store_line=$(grep '^store:' "$OUT/mech-warm-stderr.txt" || true)
mech_hits=$(echo "$mech_store_line" | grep -o 'hits=[0-9]*' | cut -d= -f2)
mech_misses=$(echo "$mech_store_line" | grep -o 'misses=[0-9]*' | cut -d= -f2)
mech_warm_exec=$(grep -o '"subjobs_executed": [0-9]*' "$OUT/mech-warm-summary.json" | grep -o '[0-9]*$')
if [ -z "$mech_exec" ] || [ -z "$mech_peak" ] || [ -z "$mech_computed" ] ||
    [ -z "$mech_hits" ] || [ -z "$mech_misses" ] || [ -z "$mech_warm_exec" ]; then
    echo "FAIL: mechanism-family telemetry missing (summary, memo, or store line)" >&2
    exit 1
fi
if [ "$mech_exec" -lt "$MECH_MIN_SUBJOBS" ]; then
    echo "FAIL: only $mech_exec mechanism units executed (floor $MECH_MIN_SUBJOBS):" >&2
    echo "      ext-dspatch/ext-happy/ext-refresh stopped decomposing into their arm grids" >&2
    exit 1
fi
if [ "$mech_peak" -gt "$MECH_JOBS" ]; then
    echo "FAIL: peak mechanism sub-job concurrency $mech_peak exceeds --jobs $MECH_JOBS" >&2
    exit 1
fi
if [ "$mech_computed" -gt "$MECH_MAX_SINGLES" ]; then
    echo "FAIL: $mech_computed single-core runs computed (ceiling $MECH_MAX_SINGLES):" >&2
    echo "      the families stopped sharing IPC_alone references" >&2
    exit 1
fi
if [ "$mech_hits" -lt "$MECH_MIN_HITS" ] || [ "$mech_misses" -gt "$MECH_MAX_MISSES" ]; then
    echo "FAIL: warm mechanism run: hits=$mech_hits (floor $MECH_MIN_HITS)," >&2
    echo "      misses=$mech_misses (ceiling $MECH_MAX_MISSES) — the new arms'" >&2
    echo "      configs are no longer fingerprinting stably (BENCH_mech.json)" >&2
    exit 1
fi
if [ "$mech_warm_exec" -ne 0 ]; then
    echo "FAIL: warm mechanism run executed $mech_warm_exec units (expected 0)" >&2
    exit 1
fi
echo "   cold: $mech_exec units (floor $MECH_MIN_SUBJOBS), peak $mech_peak <= $MECH_JOBS," \
     "memo computed $mech_computed <= $MECH_MAX_SINGLES"
echo "   warm: $mech_hits hits (floor $MECH_MIN_HITS), $mech_misses misses" \
     "(ceiling $MECH_MAX_MISSES), 0 units executed"

# -- 5: DARP refresh-pull floors (BENCH_refresh.json) ------------------
REFRESH_GATE=$(python3 - <<'PYEOF'
import json
gate = json.load(open("BENCH_refresh.json"))["ci_gate"]
print(gate["mix_instructions"], gate["min_refresh_pulls"])
PYEOF
)
read -r REFRESH_INSTR MIN_REFRESH_PULLS <<<"$REFRESH_GATE"

gate_section "refresh-pull floors (darp, 8-core mix)"
echo "== refresh: 8-core mix, --refresh-policy darp, pulls floor ${MIN_REFRESH_PULLS}"
"$SIM" "${MIX[@]}" --policy padc --instructions "$REFRESH_INSTR" \
    --refresh-policy darp --fast-forward event --profile \
    >"$OUT/refresh-darp-report.txt" 2>"$OUT/refresh-darp-profile.txt"
grep '^profile:' "$OUT/refresh-darp-profile.txt"
pulls=$(grep -o '"refresh_pulls":[0-9]*' "$OUT/refresh-darp-profile.txt" | cut -d: -f2)
stalls=$(grep -o '"refresh_stall_cycles":[0-9]*' "$OUT/refresh-darp-profile.txt" | cut -d: -f2)
if [ -z "$pulls" ] || [ -z "$stalls" ]; then
    echo "FAIL: no refresh_pulls/refresh_stall_cycles in --profile output" >&2
    exit 1
fi
if [ "$pulls" -lt "$MIN_REFRESH_PULLS" ]; then
    echo "FAIL: only $pulls DARP refresh pulls (floor $MIN_REFRESH_PULLS):" >&2
    echo "      the idle-bank refresh-pull pass stopped firing — DARP has" >&2
    echo "      silently degraded to plain per-bank refresh (BENCH_refresh.json)" >&2
    exit 1
fi
if [ "$stalls" -eq 0 ]; then
    echo "FAIL: refresh_stall_cycles is 0 with $pulls pulls — pull accounting broke" >&2
    exit 1
fi
"$SIM" "${MIX[@]}" --policy padc --instructions "$REFRESH_INSTR" \
    --refresh-policy all-bank --extended-timing --fast-forward event --profile \
    >"$OUT/refresh-allbank-report.txt" 2>"$OUT/refresh-allbank-profile.txt"
ab_pulls=$(grep -o '"refresh_pulls":[0-9]*' "$OUT/refresh-allbank-profile.txt" | cut -d: -f2)
if [ "$ab_pulls" != "0" ]; then
    echo "FAIL: all-bank run reports refresh_pulls=$ab_pulls (pulls are DARP-only)" >&2
    exit 1
fi
echo "   darp: $pulls pulls (floor $MIN_REFRESH_PULLS), $stalls stall cycles;" \
     "all-bank: 0 pulls"
echo "== perf_gate.sh: all green"
