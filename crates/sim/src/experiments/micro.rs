//! The four experiments that are not arms over workloads or benchmarks and
//! so build their tables by hand, planning no units: the Fig. 2 scheduling
//! example, the Fig. 4 service-time/phase-behaviour measurements, and the
//! hardware-cost and drop-threshold tables (1, 2, 6).

use padc_core::{
    cost, AccuracyTracker, ControllerConfig, DropThresholds, MemoryController, SchedulingPolicy,
};
use padc_dram::{DramConfig, MappingScheme};
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, RequestKind};
use padc_workloads::profiles;

use crate::{SimConfig, System};

use super::infra::{ExpConfig, ExpTable};

/// Fig. 2: the paper's three-request example. Two prefetches (X, Z) target
/// the currently open row; one demand (Y) conflicts. Under demand-first the
/// demand's precharge destroys the open row; under demand-prefetch-equal
/// the two row-hit prefetches are serviced first. The table reports the
/// completion time of each request and the final completion time under both
/// policies — reproducing the 725- vs 575-cycle contrast at our timing
/// parameters.
pub(super) fn fig2(_exp: &ExpConfig) -> Vec<ExpTable> {
    let mut t = ExpTable::new(
        "fig2",
        "Rigid-policy example: completion cycles of X/Z (row-hit prefetches) and Y (row-conflict demand)",
        &["X (pref, row A)", "Y (dem, row B)", "Z (pref, row A)", "all done"],
    );
    for policy in [
        SchedulingPolicy::DemandFirst,
        SchedulingPolicy::DemandPrefetchEqual,
    ] {
        let dram = DramConfig::default();
        let lpr = dram.lines_per_row();
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(policy, 1),
            dram.clone(),
            MappingScheme::Linear,
        );
        let tracker = AccuracyTracker::new(1, 100_000);
        let core = CoreId::new(0);
        // Open row A (row 0 of bank 0) by servicing a dummy demand first.
        mc.enqueue(
            core,
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .expect("space");
        let mut now: Cycle = 0;
        while !mc.is_idle() {
            mc.tick(now, &tracker);
            now += 1;
        }
        let start = now;
        // X and Z: prefetches to row A. Y: demand to row B (same bank).
        let x = mc
            .enqueue(
                core,
                LineAddr::new(1),
                AccessKind::Load,
                RequestKind::Prefetch,
                start,
            )
            .expect("space");
        let y = mc
            .enqueue(
                core,
                LineAddr::new(lpr * 8), // same bank, different row
                AccessKind::Load,
                RequestKind::Demand,
                start,
            )
            .expect("space");
        let z = mc
            .enqueue(
                core,
                LineAddr::new(2),
                AccessKind::Load,
                RequestKind::Prefetch,
                start,
            )
            .expect("space");
        let (mut tx, mut ty, mut tz) = (0u64, 0u64, 0u64);
        while !mc.is_idle() {
            for c in mc.tick(now, &tracker).completions {
                let done = now - start;
                if c.request.id == x {
                    tx = done;
                } else if c.request.id == y {
                    ty = done;
                } else if c.request.id == z {
                    tz = done;
                }
            }
            now += 1;
        }
        t.push(
            policy.label(),
            vec![tx as f64, ty as f64, tz as f64, tx.max(ty).max(tz) as f64],
        );
    }
    vec![t]
}

/// Fig. 4: (a) the service-time histogram of useful vs useless prefetches
/// for milc under demand-first, and (b) milc's prefetch-accuracy phase
/// behaviour sampled at every measurement interval.
pub(super) fn fig4(exp: &ExpConfig) -> Vec<ExpTable> {
    let mut cfg = SimConfig::single_core(SchedulingPolicy::DemandFirst);
    // Long enough to cross a full phase cycle of the milc profile (1M
    // instructions), so the accuracy collapse AND recovery both show.
    cfg.max_instructions = (exp.instructions_single * 2).max(1_600_000);
    cfg.seed = exp.seed;
    let mut sys = System::new(cfg, vec![profiles::milc()]);

    let mut phases = ExpTable::new(
        "fig4b",
        "milc prefetch accuracy (PAR) over time (sampled every 500K cycles)",
        &["accuracy"],
    );
    let mut next_sample = 500_000;
    while !sys.finished() && sys.now() < 100_000_000 {
        sys.step();
        if sys.now() >= next_sample {
            phases.push(
                format!("{}K cycles", next_sample / 1000),
                vec![sys.accuracy(0)],
            );
            next_sample += 500_000;
        }
    }
    let report = sys.report();

    let mut hist = ExpTable::new(
        "fig4a",
        "milc prefetch memory-service-time histogram (counts)",
        &["useful", "useless"],
    );
    let labels = [
        "0-200",
        "201-400",
        "401-600",
        "601-800",
        "801-1000",
        "1001-1200",
        "1201-1400",
        "1401-1600",
        "1601+",
    ];
    for (i, label) in labels.iter().enumerate() {
        hist.push(
            *label,
            vec![
                report.pf_service_hist_useful[i] as f64,
                report.pf_service_hist_useless[i] as f64,
            ],
        );
    }
    vec![hist, phases]
}

/// Tables 1 and 2: the hardware-cost model, evaluated for the paper's
/// 1/2/4/8-core systems.
pub(super) fn storage_cost(_exp: &ExpConfig) -> Vec<ExpTable> {
    let mut t = ExpTable::new(
        "cost",
        "PADC storage cost in bits (Tables 1-2); last column = % of L2 capacity",
        &["P", "PSC+PUC+PAR", "U", "ID", "AGE", "total", "%L2"],
    );
    for (cores, lines_per_core, req) in [
        (1u64, 16_384u64, 64u64), // 1MB single-core L2
        (2, 8_192, 64),
        (4, 8_192, 128),
        (8, 8_192, 256),
    ] {
        let c = cost::padc_storage(cores, lines_per_core, req);
        let l2_bytes = lines_per_core * cores * 64;
        t.push(
            format!("{cores}-core"),
            vec![
                c.p_bits as f64,
                (c.psc_bits + c.puc_bits + c.par_bits) as f64,
                c.urgent_bits as f64,
                c.id_bits as f64,
                c.age_bits as f64,
                c.total_bits() as f64,
                cost::fraction_of_l2(&c, l2_bytes) * 100.0,
            ],
        );
    }
    vec![t]
}

/// Table 6: the dynamic drop-threshold schedule.
pub(super) fn tab6(_exp: &ExpConfig) -> Vec<ExpTable> {
    let d = DropThresholds::default();
    let mut t = ExpTable::new(
        "tab6",
        "Dynamic APD drop thresholds (cycles) by measured prefetch accuracy",
        &["drop_threshold"],
    );
    for (label, acc) in [
        ("0-10%", 0.05),
        ("10-30%", 0.20),
        ("30-70%", 0.50),
        ("70-100%", 0.85),
    ] {
        t.push(label, vec![d.threshold_for(acc) as f64]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn fig2_reproduces_the_policy_contrast() {
        let t = fig2(&ExpConfig::at(Scale::Smoke)).remove(0);
        // Under demand-first, the conflicting demand finishes first...
        let df_y = t.get("demand-first", "Y (dem, row B)").unwrap();
        let df_x = t.get("demand-first", "X (pref, row A)").unwrap();
        assert!(df_y < df_x, "demand-first must service Y before X");
        // ...under equal treatment, the row-hit prefetches go first and the
        // *total* service time shrinks (the paper's 725 vs 575 contrast).
        let eq_y = t.get("demand-pref-equal", "Y (dem, row B)").unwrap();
        let eq_x = t.get("demand-pref-equal", "X (pref, row A)").unwrap();
        assert!(eq_x < eq_y, "equal must service the row-hit prefetch first");
        let df_total = t.get("demand-first", "all done").unwrap();
        let eq_total = t.get("demand-pref-equal", "all done").unwrap();
        assert!(
            eq_total < df_total,
            "equal finishes all three sooner ({eq_total} vs {df_total})"
        );
    }

    #[test]
    fn cost_table_matches_paper_totals() {
        let t = storage_cost(&ExpConfig::at(Scale::Smoke)).remove(0);
        assert_eq!(t.get("4-core", "total"), Some(34_720.0));
        let pct = t.get("4-core", "%L2").unwrap();
        assert!((pct - 0.2).abs() < 0.05, "{pct}");
    }

    #[test]
    fn threshold_table_matches_table6() {
        let t = tab6(&ExpConfig::at(Scale::Smoke)).remove(0);
        assert_eq!(t.get("0-10%", "drop_threshold"), Some(100.0));
        assert_eq!(t.get("70-100%", "drop_threshold"), Some(100_000.0));
    }
}
