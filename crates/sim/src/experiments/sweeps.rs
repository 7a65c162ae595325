//! Parameter sweeps: row-buffer size (Fig. 23), closed-row policy
//! (Fig. 24), last-level cache size (Fig. 25), and the HAPPY hybrid
//! page-policy extension (`ext-happy`).
//!
//! Sweeps are the densest grids in the suite: every sweep point re-runs
//! the standard arms over the 4-core workload set. Each point's arms are
//! built with [`PolicyArm::mutated`] closures capturing the swept
//! parameter, and the point's units carry the row label as their
//! [`UnitKey::variant`] so the reduce phase can address them. The
//! `IPC_alone` normalization units are planned once for the whole sweep
//! (they do not depend on the swept parameter).

use padc_dram::RowPolicy;
use padc_workloads::{random_workloads, Workload};

use crate::metrics;

use super::infra::{
    plan_alone_units, standard_arms, ExpConfig, ExpKind, ExpTable, SimUnit, UnitKey, UnitResult,
    UnitResults,
};

/// The sweep workload set: 4-core mixes shared by all sweep points.
fn sweep_workloads(exp: &ExpConfig) -> Vec<Workload> {
    random_workloads(exp.workloads_sweep, 4, exp.seed)
}

/// Mean (WS, traffic) over the sweep workloads for one (arm, variant).
fn sweep_point_means(
    idx: &UnitResults<'_>,
    workloads: &[Workload],
    alone: &[Vec<f64>],
    arm_label: &str,
    variant: &str,
    exp: &ExpConfig,
) -> (f64, f64) {
    let results: Vec<(f64, f64)> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let r = idx.get(&UnitKey::workload(arm_label, variant, w, exp));
            let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
            (
                metrics::weighted_speedup(&ipcs, &alone[i]),
                r.traffic().total() as f64,
            )
        })
        .collect();
    let n = results.len().max(1) as f64;
    (
        results.iter().map(|r| r.0).sum::<f64>() / n,
        results.iter().map(|r| r.1).sum::<f64>() / n,
    )
}

const FIG23_SIZES: [u64; 7] = [
    2 * 1024,
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
    128 * 1024,
];

fn fig23_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = sweep_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for size in FIG23_SIZES {
        let variant = format!("{}KB", size / 1024);
        for arm in standard_arms() {
            let arm = arm.mutated(move |cfg| cfg.dram.row_bytes = size);
            for w in &workloads {
                units.push(SimUnit::workload(&arm, &variant, w, exp));
            }
        }
    }
    units
}

fn fig23_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let workloads = sweep_workloads(exp);
    let idx = UnitResults::new(results);
    let alone: Vec<Vec<f64>> = workloads.iter().map(|w| idx.alone_ipcs(w, exp)).collect();
    let mut t = ExpTable::new(
        "fig23",
        "Average 4-core WS vs DRAM row-buffer size",
        &[
            "no-pref",
            "demand-first",
            "demand-pref-equal",
            "aps-only",
            "aps-apd (PADC)",
        ],
    );
    for size in FIG23_SIZES {
        let variant = format!("{}KB", size / 1024);
        let row: Vec<f64> = standard_arms()
            .iter()
            .map(|arm| sweep_point_means(&idx, &workloads, &alone, arm.label, &variant, exp).0)
            .collect();
        t.push(variant, row);
    }
    t
}

/// Fig. 23: weighted speedup across DRAM row-buffer sizes (2KB–128KB) on
/// the 4-core system. Columns are the arms, rows the row sizes.
pub fn fig23_row_buffer_sweep(exp: &ExpConfig) -> ExpTable {
    fig23_kind().tables(exp).remove(0)
}

pub(crate) fn fig23_kind() -> ExpKind {
    ExpKind::new(fig23_plan, |exp, results| vec![fig23_reduce(exp, results)])
}

/// The arms Fig. 24 reports for the open-row baseline.
const FIG24_OPEN_ARMS: [&str; 2] = ["demand-first", "aps-apd (PADC)"];

fn fig24_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = sweep_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for arm in standard_arms() {
        if !FIG24_OPEN_ARMS.contains(&arm.label) {
            continue; // the open-row baseline only reports these two
        }
        for w in &workloads {
            units.push(SimUnit::workload(&arm, "open-row", w, exp));
        }
    }
    for arm in standard_arms() {
        let arm = arm.mutated(|cfg| *cfg = cfg.clone().with_row_policy(RowPolicy::Closed));
        for w in &workloads {
            units.push(SimUnit::workload(&arm, "closed-row", w, exp));
        }
    }
    units
}

fn fig24_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let workloads = sweep_workloads(exp);
    let idx = UnitResults::new(results);
    let alone: Vec<Vec<f64>> = workloads.iter().map(|w| idx.alone_ipcs(w, exp)).collect();
    let mut t = ExpTable::new(
        "fig24",
        "Average 4-core WS and traffic under open- vs closed-row policies",
        &["WS", "traffic(lines)"],
    );
    for arm in standard_arms() {
        if !FIG24_OPEN_ARMS.contains(&arm.label) {
            continue;
        }
        let (ws, tr) = sweep_point_means(&idx, &workloads, &alone, arm.label, "open-row", exp);
        t.push(format!("{} (open-row)", arm.label), vec![ws, tr]);
    }
    for arm in standard_arms() {
        let (ws, tr) = sweep_point_means(&idx, &workloads, &alone, arm.label, "closed-row", exp);
        t.push(format!("{} (closed-row)", arm.label), vec![ws, tr]);
    }
    t
}

/// Fig. 24: the closed-row policy vs the open-row baseline.
pub fn fig24_closed_row(exp: &ExpConfig) -> ExpTable {
    fig24_kind().tables(exp).remove(0)
}

pub(crate) fn fig24_kind() -> ExpKind {
    ExpKind::new(fig24_plan, |exp, results| vec![fig24_reduce(exp, results)])
}

/// The arms the HAPPY extension reports: the demand-first baseline (APS
/// and APD both off) against APS alone and the full PADC (APS + APD).
const EXT_HAPPY_ARMS: [&str; 3] = ["demand-first", "aps-only", "aps-apd (PADC)"];

/// The row policies the HAPPY extension compares, keyed by unit variant.
const EXT_HAPPY_POLICIES: [(&str, RowPolicy); 3] = [
    ("open-row", RowPolicy::Open),
    ("closed-row", RowPolicy::Closed),
    ("happy", RowPolicy::Happy),
];

fn ext_happy_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = sweep_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for (variant, policy) in EXT_HAPPY_POLICIES {
        for arm in standard_arms() {
            if !EXT_HAPPY_ARMS.contains(&arm.label) {
                continue;
            }
            let arm = arm.mutated(move |cfg| *cfg = cfg.clone().with_row_policy(policy));
            for w in &workloads {
                units.push(SimUnit::workload(&arm, variant, w, exp));
            }
        }
    }
    units
}

fn ext_happy_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let workloads = sweep_workloads(exp);
    let idx = UnitResults::new(results);
    let alone: Vec<Vec<f64>> = workloads.iter().map(|w| idx.alone_ipcs(w, exp)).collect();
    let mut t = ExpTable::new(
        "ext-happy",
        "Extension: HAPPY hybrid page policy vs static open-/closed-row, 4-core",
        &["WS", "traffic(lines)"],
    );
    for (variant, _) in EXT_HAPPY_POLICIES {
        for arm in standard_arms() {
            if !EXT_HAPPY_ARMS.contains(&arm.label) {
                continue;
            }
            let (ws, tr) = sweep_point_means(&idx, &workloads, &alone, arm.label, variant, exp);
            t.push(format!("{} ({variant})", arm.label), vec![ws, tr]);
        }
    }
    t
}

/// Extension (beyond the paper): the HAPPY-style per-row hybrid page
/// policy (Ghasempour et al.; see PAPERS.md) against the paper's static
/// open-row baseline and the Fig. 24 closed-row policy, crossed with
/// PADC's APS/APD mechanisms off (`demand-first`) and on (`aps-only`,
/// `aps-apd`). Prefetch-aware scheduling changes which rows look reusable
/// at precharge time, so the predictor's training feeds back into the
/// schedule this table probes.
pub fn ext_happy(exp: &ExpConfig) -> ExpTable {
    ext_happy_kind().tables(exp).remove(0)
}

pub(crate) fn ext_happy_kind() -> ExpKind {
    ExpKind::new(ext_happy_plan, |exp, results| {
        vec![ext_happy_reduce(exp, results)]
    })
}

const FIG25_SIZES_KB: [u64; 5] = [512, 1024, 2048, 4096, 8192];

fn fig25_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let workloads = sweep_workloads(exp);
    let mut units = plan_alone_units(&workloads, exp);
    for kb in FIG25_SIZES_KB {
        let variant = format!("{kb}KB");
        for arm in standard_arms() {
            let arm = arm.mutated(move |cfg| cfg.l2.size_bytes = kb * 1024);
            for w in &workloads {
                units.push(SimUnit::workload(&arm, &variant, w, exp));
            }
        }
    }
    units
}

fn fig25_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let workloads = sweep_workloads(exp);
    let idx = UnitResults::new(results);
    let alone: Vec<Vec<f64>> = workloads.iter().map(|w| idx.alone_ipcs(w, exp)).collect();
    let mut t = ExpTable::new(
        "fig25",
        "Average 4-core WS vs per-core L2 capacity",
        &[
            "no-pref",
            "demand-first",
            "demand-pref-equal",
            "aps-only",
            "aps-apd (PADC)",
        ],
    );
    for kb in FIG25_SIZES_KB {
        let variant = format!("{kb}KB");
        let row: Vec<f64> = standard_arms()
            .iter()
            .map(|arm| sweep_point_means(&idx, &workloads, &alone, arm.label, &variant, exp).0)
            .collect();
        t.push(variant, row);
    }
    t
}

/// Fig. 25: weighted speedup across per-core L2 sizes (512KB–8MB) on the
/// 4-core system.
pub fn fig25_cache_sweep(exp: &ExpConfig) -> ExpTable {
    fig25_kind().tables(exp).remove(0)
}

pub(crate) fn fig25_kind() -> ExpKind {
    ExpKind::new(fig25_plan, |exp, results| vec![fig25_reduce(exp, results)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn closed_row_table_has_both_policies() {
        let t = fig24_closed_row(&ExpConfig::at(Scale::Smoke));
        assert!(t.rows.len() >= 7);
        assert!(t
            .rows
            .iter()
            .any(|(l, _)| l.contains("closed-row") && l.contains("PADC")));
    }

    #[test]
    fn ext_happy_plan_crosses_every_policy_with_every_reported_arm() {
        let exp = ExpConfig::at(Scale::Smoke);
        let units = ext_happy_plan(&exp);
        let workloads = sweep_workloads(&exp).len();
        let grid = units.iter().filter(|u| u.key.variant != "alone").count();
        assert_eq!(
            grid,
            EXT_HAPPY_POLICIES.len() * EXT_HAPPY_ARMS.len() * workloads,
            "ext-happy grid is not the full policy x arm x workload cross"
        );
        let keys: std::collections::HashSet<_> = units.iter().map(|u| u.key.clone()).collect();
        assert_eq!(
            keys.len(),
            units.len(),
            "duplicate unit keys in ext-happy plan"
        );
    }

    #[test]
    fn ext_happy_arms_capture_their_row_policy() {
        let arm = standard_arms().remove(1); // demand-first
        let happy = arm.mutated(|cfg| *cfg = cfg.clone().with_row_policy(RowPolicy::Happy));
        assert_eq!(happy.build(4).dram.row_policy, RowPolicy::Happy);
        assert_eq!(arm.build(4).dram.row_policy, RowPolicy::Open);
    }

    #[test]
    fn sweep_plans_cover_every_point_arm_workload_triple() {
        let exp = ExpConfig::at(Scale::Smoke);
        let units = fig23_plan(&exp);
        let arms = standard_arms().len();
        let workloads = sweep_workloads(&exp).len();
        let points = FIG23_SIZES.len();
        assert!(
            units.len() >= arms * workloads * points,
            "{} units < {} points x {} arms x {} workloads",
            units.len(),
            points,
            arms,
            workloads
        );
        // Sweep points must be distinguishable by variant.
        let variants: std::collections::HashSet<_> =
            units.iter().map(|u| u.key.variant.clone()).collect();
        assert!(variants.len() > points, "variants: {variants:?}");
        // And keys must be unique for the reduce index.
        let keys: std::collections::HashSet<_> = units.iter().map(|u| u.key.clone()).collect();
        assert_eq!(keys.len(), units.len());
    }

    #[test]
    fn sweep_arms_capture_their_point() {
        // Two points of the fig23 sweep must build different configs from
        // the *same* arm list — the closure captures the size.
        let arm = standard_arms().remove(1);
        let small = arm.mutated(|cfg| cfg.dram.row_bytes = 2 * 1024);
        let large = arm.mutated(|cfg| cfg.dram.row_bytes = 128 * 1024);
        assert_eq!(small.build(4).dram.row_bytes, 2 * 1024);
        assert_eq!(large.build(4).dram.row_bytes, 128 * 1024);
    }
}
