#!/usr/bin/env python3
"""Assembles EXPERIMENTS.md from the harness JSONL artifact plus
per-experiment paper-vs-measured commentary.

Usage:
  python3 scripts/make_experiments_md.py repro_full.jsonl > EXPERIMENTS.md
  python3 scripts/make_experiments_md.py --check repro_full.jsonl

`--check` is the CI drift gate: instead of printing, it regenerates the
document in memory and compares it against the committed EXPERIMENTS.md,
exiting 1 (with a unified diff on stderr) when the committed file is
stale relative to the artifact.

The input is the `--jsonl` output of `repro` / `padcsim --suite`: one
object per experiment, `{"id", "status", "result": {"paper_ref",
"tables": [...]}}`, with failed experiments carrying `"error"` instead of
`"result"`. The tables are re-rendered in the same aligned-text format as
the binaries' stdout. A legacy `repro_full.txt` capture still works (the
format is auto-detected).
"""
import difflib
import json
import os
import sys

COMMENTARY = {
    "fig1": """**Paper**: with a stream prefetcher, neither rigid policy wins everywhere:
demand-first is better for the five prefetch-unfriendly benchmarks (for
art/milc it is what keeps prefetching from hurting), demand-prefetch-equal is
better for the five friendly ones (libquantum +169% vs +60%).
**Measured**: four of the five unfriendly benchmarks favor demand-first as
in the paper (galgel flips to equal), but the friendly five also favor
demand-first in our substrate, so the paper's crossover collapses to one
side — the same demand-first bias behind the fig6/fig16 divergence
(DESIGN.md §7). ❌""",
    "fig2": """**Paper**: the worked example — with useful prefetches, servicing the
row-hit prefetches X/Z first finishes everything in 575 cycles vs 725 under
demand-first.
**Measured**: same structure at our timing: demand-first services Y first
(Y at 349, all done at 599) while equal services the row hits first (X at
149, all done at 399). The demand-first/equal contrast and ordering match
exactly. ✅""",
    "fig4": """**Paper**: (a) 56% of milc's prefetches take >1600 cycles of memory
service and 86% of those are useless; useful prefetches are serviced faster
on average. (b) milc's accuracy has strong phases (near 0% for a long
stretch).
**Measured**: (a) the useless histogram is bottom-heavy toward the 1601+
bucket while useful prefetches concentrate at shorter service times; (b) the
sampled PAR series swings across phases exactly as designed into the milc
profile. ✅""",
    "fig6": """**Paper**: single-core over 55 benchmarks — demand-pref-equal ≈
demand-first on gmean (+0.5%), APS +3.6%, PADC +4.3%.
**Measured**: class-2 rows reproduce (PADC recovers ammp/omnetpp/xalancbmk
via dropping), but the accurate streaming rows favor demand-first (only
galgel/mcf tip to equal), so the PADC gmean lands ~3% *below* demand-first
instead of above. This is the reproduction's main divergence; see
DESIGN.md §7 for the analysis. ❌""",
    "fig7": """**Paper**: PADC reduces stall-time-per-load by 5% vs demand-first.
**Measured**: SPL orderings per class match (prefetching halves SPL for
friendly apps; PADC ≈ best rigid per benchmark); the 55-benchmark mean SPL
of PADC is within a few percent of demand-first. ⚠️""",
    "fig8": """**Paper**: PADC cuts bus traffic 10.4% over the suite, almost entirely
useless-prefetch lines (APD).
**Measured**: PADC has the lowest traffic of all prefetching arms; the cut
comes from the useless column as in the paper. ✅""",
    "tab5": """**Paper**: benchmark characteristics (IPC, MPKI, RBH, ACC, COV, class).
**Measured**: our synthetic stand-ins land in the intended classes: the
class-1 streaming set measures ACC ≥ ~0.8 and high COV, the class-2 set
ACC ≤ ~0.4, the class-0 set near-zero MPKI. Absolute IPC/MPKI values are
substitution artifacts. ✅ (by construction; asserted in
tests/table5_classes.rs)""",
    "tab7": """**Paper**: RBHU — demand-pref-equal has the highest row-buffer hit rate
for useful requests; APS tracks it closely; demand-first is clearly lower.
**Measured**: same ordering: equal ≥ APS/PADC > demand-first > no-pref on
the mean, and per-benchmark for the streaming set. ✅""",
    "fig9": """**Paper**: 2-core — PADC +8.4% WS, +6.4% HS, −10% traffic vs
demand-first.
**Measured**: PADC trails demand-first by ~5% on WS/HS but carries the
lowest traffic of the prefetching arms; equal trails further. ⚠️""",
    "case1": """**Paper**: all-friendly 4-core mix — equal +28% WS over demand-first;
PADC +31%; small (−0.9%) traffic saving.
**Measured**: every prefetch-aggressive arm beats demand-first (equal
1.637, APS 1.615, PADC 1.607 vs 1.599 WS); traffic roughly flat. The
coverage mechanism is clearly visible in the traffic mix (equal/APS
convert demand lines into useful-prefetch lines: 46K useful under equal
vs 30K under demand-first). Direction ✓, factor compressed. ⚠️""",
    "case2": """**Paper**: all-unfriendly mix — PADC +17.7% WS / +21.5% HS over
demand-first, −9.1% traffic, within 2% of no-prefetching.
**Measured**: PADC is the best arm on WS (2.159 vs 2.136 demand-first,
+1.1%; HS a wash) with −5.9% traffic, and lands *above* no-pref (2.159 vs
2.101); equal is the clear loser exactly as in the paper. ✅ (smaller
factor)""",
    "case3": """**Paper**: mixed mix — equal helps the friendly cores but starves the
unfriendly ones; APD frees resources, PADC best, traffic −14.5%.
**Measured**: textbook reproduction — equal gives libquantum IS 0.79 while
starving omnetpp/galgel to 0.20/0.19 (UF 4.2); PADC balances best (UF
1.36), wins HS, sits within 2% of APS's best WS, and cuts traffic 18.6%
vs demand-first. ✅""",
    "tab8": """**Paper**: urgency markedly improves fairness and HS at tiny WS cost
(aps-no-urgent UF 2.57 vs aps 1.73; PADC-no-urgent 4.55 vs PADC 1.84).
**Measured**: same pattern — no-urgent variants starve the unfriendly cores
(UF 3.0 for aps-apd-no-urgent vs 1.36 with urgency; HS 0.349 vs 0.440) and
urgency also helps WS here. ✅""",
    "tab9": """**Paper**: 4× libquantum — equal/APS/PADC all reach the same WS
(+18.2% over demand-first) with even per-instance speedups.
**Measured**: equal/APS/PADC converge near the same WS (1.00–1.01, up to
+3.9% over demand-first) — the table's key point that the aggressive arms
all feed identical friendly instances equally well; per-instance evenness
is noisier here (UF 1.32 for the adaptive arms vs 1.08 demand-first). ⚠️""",
    "tab10": """**Paper**: 4× milc — demand-first/APS beat equal; adding APD makes PADC
best and recovers the prefetching loss.
**Measured**: equal is the worst prefetching arm on WS/HS as in the paper,
and adding APD makes PADC clearly best (WS 2.549 vs 2.398 demand-first,
+6.3%) — dropping recovers the prefetching loss, the table's main point.
✅""",
    "fig16": """**Paper**: 4-core, 32 workloads — PADC +8.2% WS, +4.1% HS, −10.1%
traffic vs demand-first.
**Measured**: PADC has the lowest traffic of the prefetching arms (−6.8%)
and beats equal and APS, but lands ~8% below demand-first on WS — the
single-core equal-mode divergence aggregated (DESIGN.md §7). Traffic and
adaptivity shapes ✓, headline WS ordering ✗. ❌""",
    "fig17": """**Paper**: 8-core — rigid policies make prefetching *hurt* (demand-first
−1.2%, equal −3.0% vs no-pref); PADC +9.9% WS, −9.4% traffic.
**Measured**: the rigid-policy collapse reproduces dramatically for equal
(2.07 vs 3.16 no-pref) while demand-first still gains (+7.6%); PADC cuts
traffic −7.6% but sits below demand-first on WS as at 4 cores. ⚠️""",
    "fig19": """**Paper**: ranking on 4-core: ≈WS, +0.9% HS, UF 1.63→1.53.
**Measured**: at 4 cores ranking is performance-neutral in our substrate —
WS/HS/UF all move under 1%; the mechanism's value only shows at 8 cores
(fig20). ⚠️""",
    "fig20": """**Paper**: ranking on 8-core: +2.0% WS, +5.4% HS, −10.4% UF — more
valuable as contention grows.
**Measured**: at 8 cores ranking improves UF clearly (2.72 vs 2.94, −7.6%)
and nudges HS up for a −1.3% WS give-back; the paper's larger 8-core
*gain* (driven by deeper starvation in its more saturated system) appears
here only as the UF improvement. ⚠️""",
    "fig21": """**Paper**: dual controllers, 4-core — baseline jumps; PADC still +5.9%
WS and −12.9% traffic.
**Measured**: doubling channels lifts every arm strongly; PADC keeps the
lowest traffic and tracks the best arm. ⚠️""",
    "fig22": """**Paper**: dual controllers, 8-core — prefetching helps again even for
rigid policies once bandwidth doubles; PADC +5.5% WS, −13.2% traffic.
**Measured**: same reversal — with two channels the prefetching arms all
beat no-pref at 8 cores, and PADC has the lowest traffic. ✅""",
    "fig23": """**Paper**: row-buffer sweep — demand-first *degrades below no-pref* at
≥64KB rows; PADC wins at every size (+8.8% vs no-pref at 64KB).
**Measured**: the mid-size crossover reproduces: demand-first's advantage
shrinks as rows grow and APS/PADC overtake it at 16–64KB (2.63 vs 2.60 at
64KB) because only the adaptive policies exploit the larger open rows for
useful requests; at 128KB demand-first recovers, so the paper's full
inversion is only partial here. ⚠️""",
    "fig24": """**Paper**: closed-row policy — PADC still works (+7.6% over
demand-first-closed); open-row PADC best overall by 1.1%.
**Measured**: PADC-closed beats equal-closed and tracks demand-first; our
substrate slightly favors closed-row overall (the paper's slightly favors
open-row). ⚠️""",
    "fig25": """**Paper**: L2 sweep 512KB–8MB — PADC wins at every size; equal starts
beating demand-first beyond 1MB; dropping matters less as caches grow.
**Measured**: every arm's WS saturates beyond ~2MB per core (working sets
fit), the equal arm stays depressed at every size, and the arm ordering
is size-stable — the paper's "interference persists at large caches"
point holds, its exact crossovers do not. ⚠️""",
    "fig26": """**Paper**: shared L2, 4-core — PADC +8.0%; equal degrades (−2.4%) due
to cross-core pollution (traffic +22.3%).
**Measured**: equal's pollution blow-up reproduces (highest traffic, worst
UF of the prefetching arms); PADC beats equal/APS with the lowest traffic.
⚠️""",
    "fig27": """**Paper**: shared L2, 8-core — equal −10.4% WS with +46.3% traffic.
**Measured**: equal craters (WS 2.16 vs 3.45 demand-first, traffic +28%,
UF 7.9) — the paper's starkest anti-equal result, clearly reproduced.
PADC saves 8.2% traffic vs demand-first. ✅""",
    "fig28": """**Paper**: PADC helps under stride, C/DC, and Markov prefetchers too;
Markov benefits least (inaccurate for SPEC) but PADC still +2.2% WS /
−10.3% traffic via dropping.
**Measured**: stride mirrors the 4-core stream pattern (demand-first leads
in our substrate, PADC beats equal with the lowest traffic); under C/DC
the aggressive arms win outright (PADC ties equal, +7.5% over
demand-first); Markov is the weakest performer as in the paper, pinned
near no-pref. ⚠️""",
    "fig29": """**Paper**: DDPF (+1.5%) and FDP (+1.7%) help demand-first less than APD
(+2.6%); combined with APS they reach +6.3/+7.4% but PADC (+8.2%) wins
because APD keeps useful prefetches that DDPF/FDP filter away.
**Measured**: demand-first-apd is the best demand-first variant (the
paper's ordering APD > DDPF > FDP broadly holds) and FDP cuts traffic the
most at a WS cost — the paper's performance-vs-traffic trade-off. The
aps-* combinations inherit the equal-mode divergence. ⚠️""",
    "fig30": """**Paper**: DDPF/FDP under demand-pref-equal recover little (+2.3/+2.7%)
because they remove useful prefetches; PADC +8.2%.
**Measured**: DDPF/FDP recover little over plain equal (FDP +2.7% — the
paper's own number — DDPF a wash) and both stay well below APS/PADC,
exactly the paper's point that filtering cannot rescue the rigid equal
mode. ✅""",
    "fig31": """**Paper**: permutation interleaving +3.8% on its own; PADC is
complementary (+5.4% over demand-first-perm, −11.3% traffic).
**Measured**: permutation helps every arm (fewer row conflicts; no-pref
+2.7%, PADC +2.1%) and composes with PADC, but the perm arms' traffic
spread is under 2%, so the paper's −11.3% saving does not appear at this
scale. ⚠️""",
    "fig32": """**Paper**: runahead +3.7% on demand-first; PADC remains effective on a
runahead CMP (+6.7% over demand-first-ra, −10.2% traffic).
**Measured**: runahead helps the baseline strongly (+10.1% WS on
demand-first — accurate demand-like requests during stalls) and composes
with PADC (+8.9% over plain PADC); the ra arms' traffic sits within ~2%,
with demand-first-ra lowest rather than PADC-ra. ⚠️""",
    "ext-batch": """**Extension** (not in the paper): PAR-BS batch formation layered on
PADC. Measured: batching trades a little throughput for bounded
starvation, consistent with the PAR-BS paper's design goal.""",
    "ext-timing": """**Extension** (not in the paper): full DDR3 constraints (tRAS/tWR/tRTP/
tFAW/refresh). Measured: every arm slows by a similar factor and the
policy ordering is unchanged — supporting the paper's choice of the
simpler three-latency model.""",
    "ext-wdrain": """**Extension** (not in the paper): watermark write-drain. Measured: at
these scales writeback pressure is modest, so effects are small; the
mechanism is exercised by unit tests.""",
    "ext-dspatch": """**Extension** (not in the paper): the DSPatch dual-spatial-pattern
prefetcher (Bera et al., MICRO 2019) swapped in for the stream
prefetcher, same four arms per table. Measured: the modal
coverage/accuracy modulator makes DSPatch far less accurate than stream
on these generated workloads (demand-first WS 2.23 vs 2.84), and under
it the arm ordering *inverts*: PADC becomes the best arm (WS 2.34,
+4.6% over demand-first) where under stream demand-first wins — PADC's
adaptive dropping matters most exactly when prefetch accuracy is low
and shifting, the paper's core claim (§6.4).""",
    "ext-happy": """**Extension** (not in the paper): the HAPPY hybrid page policy
(Ghasempour et al. 2015) as a third row policy beside static open-/
closed-row, crossed with the APS/APD arms. Measured: closed-row wins on
these workloads (demand-first WS 2.93 vs 2.84 open) and HAPPY's per-row
2-bit reuse counters land between the statics, recovering ~52% of the
closed-row gain (WS 2.89) with no oracle knowledge — and the ordering
is stable across all three arms. Orthogonal to PADC: policy choice
moves WS by ~3% while arm choice moves it by ~10%.""",
    "ext-refresh": """**Extension** (not in the paper): refresh-access parallelism after
Chang et al.'s DARP (DESIGN.md §15) — all-bank (channel-wide tRFC
stall), per-bank (staggered windows, tRFCpb = tRFC/2, only the owning
bank stalls), and darp (per-bank plus out-of-order refresh pulled into
idle banks and write drains), each crossed with demand-first and PADC.
Measured: per-bank refresh recovers ~1.1% WS over all-bank for both
arms (demand-first 2.144 → 2.167, PADC 2.174 → 2.199) — parallelism
across banks hides most of the refresh penalty by itself. DARP's pulls
add another +1.8% for demand-first (2.206, the largest arm total) but
are neutral for PADC (2.192): prefetch-aware scheduling keeps banks
busy with useful prefetches, so the idle windows DARP exploits are
scarcer — the two mechanisms compete for the same slack. PADC stays
the better arm under all-bank and per-bank; under darp the baseline
catches up.""",
    "cost": """**Paper**: Tables 1–2 — 34,720 bits (~4.25KB) on the 4-core system, 0.2%
of L2 capacity; 1,824 bits if prefetch bits already exist.
**Measured**: the cost model reproduces the paper's table *exactly* (the
arithmetic is deterministic): 34,720 bits, 0.207% of L2. ✅ (bit-exact)""",
    "tab6": """**Paper**: Table 6 — drop thresholds 100 / 1,500 / 50,000 / 100,000
cycles for accuracy bands 0–10 / 10–30 / 30–70 / 70–100%.
**Measured**: identical by construction. ✅ (bit-exact)""",
}

HEADER = """# EXPERIMENTS — paper vs. measured

For every table and figure in the paper's evaluation (§6): what the paper
reports, what this reproduction measures, and a verdict on the *shape*
(✅ reproduced · ⚠️ partially · ❌ diverges, with the analysis referenced).

Measured numbers come from one full-scale harness run (the committed
`repro_full.jsonl`, regenerated via the parallel `padc-harness` suite
runner — the JSONL bytes are identical for any `--jobs` value):

```bash
cargo run --release -p padc-sim --bin repro -- --jsonl repro_full.jsonl
```

Scale: 800K instructions single-core, 400K/core multi-core; 32/24/12
workloads for 2/4/8-core aggregates; 8 workloads for sweeps; seed 1.
Absolute values are not comparable to the paper (its substrate was a
proprietary x86 simulator running SPEC traces; ours is a from-scratch
simulator on synthetic traces — DESIGN.md §2); shapes are the target.

**Summary.** Of the 33 paper artifacts, 14 reproduce cleanly (✅), 16
partially (⚠️), and 3 diverge (❌: fig1's rigid-policy crossover, fig6's
single-core gmean ordering, and fig16's headline 4-core WS ordering).
All three divergences trace to one substrate difference analysed in
DESIGN.md §7: in our model the rigid demand-first policy is stronger for
accurate-prefetch streaming apps than in the paper's system, so APS's
equal-like mode gives back a few percent exactly where the paper gains
it. The bandwidth (APD traffic savings), fairness (urgency, ranking at
8 cores), adaptivity (per-class policy selection, phase tracking), and
sensitivity results (row size, cache size, channels, shared caches,
other prefetchers, DDPF/FDP, permutation, runahead) reproduce at least
in shape.

---
"""


def render_table(table):
    """Mirrors ExpTable's Display impl (aligned text) for JSONL tables."""
    lines = [f"== {table['id']} — {table['title']}"]
    label_w = max([4] + [len(label) for label, _ in table["rows"]])
    lines.append(" " * label_w + "".join(f" {c:>14}" for c in table["columns"]))
    for label, vals in table["rows"]:
        cells = "".join(
            f" {v:>14.0f}" if abs(v) >= 1000.0 else f" {v:>14.3f}" for v in vals
        )
        lines.append(f"{label:<{label_w}}" + cells)
    return "\n".join(lines)


def blocks_from_jsonl(text):
    """One rendered block per JSONL row, keyed by experiment id."""
    blocks = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        exp_id, status = row["id"], row["status"]
        if status == "ok" or "result" in row:
            ref = row["result"]["paper_ref"]
            parts = [f"# {exp_id} — {ref}"]
            for table in row["result"]["tables"]:
                parts.append(render_table(table) + "\n")
            if status != "ok":
                parts.append(f"_(status: {status})_")
            blocks[exp_id] = "\n".join(parts).strip()
        else:
            blocks[exp_id] = (
                f"# {exp_id} — FAILED ({status}): {row.get('error', 'no detail')}"
            )
    return blocks


def blocks_from_text(text):
    """Legacy format: split a stdout capture on '# id — ref' headers."""
    blocks = {}
    cur_id, cur_lines = None, []
    for line in text.splitlines():
        if line.startswith("# ") and " — " in line:
            if cur_id:
                blocks.setdefault(cur_id, "\n".join(cur_lines).strip())
            cur_id = line[2:].split(" — ")[0].strip()
            cur_lines = [line]
        elif line.startswith("EXIT="):
            continue
        else:
            cur_lines.append(line)
    if cur_id:
        blocks.setdefault(cur_id, "\n".join(cur_lines).strip())
    return blocks


def render_document(path):
    """The full EXPERIMENTS.md text for the artifact at `path`."""
    text = open(path).read()
    if text.lstrip().startswith("{"):
        blocks = blocks_from_jsonl(text)
    else:
        blocks = blocks_from_text(text)

    out = [HEADER]
    for exp_id, commentary in COMMENTARY.items():
        out.append(f"## {exp_id}\n")
        out.append(commentary.strip() + "\n")
        if exp_id in blocks:
            out.append("```text\n" + blocks[exp_id] + "\n```\n")
        else:
            out.append("_(not present in this run; regenerate with "
                       f"`repro {exp_id}`)_\n")
    return "\n".join(out) + "\n"


def check(path):
    """Exit 1 when the committed EXPERIMENTS.md is stale vs `path`."""
    committed_path = os.path.join(os.path.dirname(path) or ".",
                                  "EXPERIMENTS.md")
    expected = render_document(path)
    try:
        committed = open(committed_path).read()
    except FileNotFoundError:
        print(f"drift: {committed_path} does not exist; regenerate with\n"
              f"  python3 scripts/make_experiments_md.py {path} "
              f"> {committed_path}", file=sys.stderr)
        return 1
    if committed == expected:
        print(f"EXPERIMENTS.md is in sync with {path}")
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True),
        expected.splitlines(keepends=True),
        fromfile=committed_path, tofile=f"regenerated from {path}")
    sys.stderr.writelines(diff)
    print(f"drift: {committed_path} is stale relative to {path}; "
          f"regenerate with\n  python3 scripts/make_experiments_md.py "
          f"{path} > {committed_path}", file=sys.stderr)
    return 1


def main(argv):
    if argv and argv[0] == "--check":
        if len(argv) != 2:
            print("usage: make_experiments_md.py --check ARTIFACT",
                  file=sys.stderr)
            return 2
        return check(argv[1])
    if len(argv) != 1:
        print("usage: make_experiments_md.py [--check] ARTIFACT",
              file=sys.stderr)
        return 2
    sys.stdout.write(render_document(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
