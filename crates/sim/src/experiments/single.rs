//! Single-core experiments: Figs. 1, 6, 7, 8 and Tables 5, 7.
//!
//! These are (benchmark, arm) grids. A [`Grid`] plans one single-core unit
//! per cell, benchmark-major, and hands the reports, in that order, to its
//! table builder as [`Cells`]. The unit cache keys a unit by the digest of
//! its full inputs, so the six grids share their cells with each other and
//! with every `IPC_alone` normalization run in the multi-core experiments.

use padc_workloads::{profiles, BenchProfile};

use crate::metrics::gmean;
use crate::Report;

use super::infra::{ExpConfig, ExpTable, SimUnit};
use super::spec::{Arm, DEMAND_FIRST, EQUAL, NO_PREF};

/// A single-core experiment: benchmarks × arms, one table.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    /// The benchmarks, in row order.
    pub benchmarks: fn() -> Vec<BenchProfile>,
    /// The arms, in column order.
    pub arms: &'static [Arm],
    /// Builds the experiment's table from the grid's reports.
    pub table: fn(&Cells<'_>) -> ExpTable,
}

impl Grid {
    /// One single-core unit per cell, benchmark-major.
    pub fn plan(&self, exp: &ExpConfig) -> Vec<SimUnit> {
        let mut units = Vec::new();
        for bench in (self.benchmarks)() {
            for arm in self.arms {
                units.push(SimUnit::single(arm.config(1, &[]), &bench, exp));
            }
        }
        units
    }

    /// Builds the table from the reports of [`plan`](Self::plan)'s units,
    /// in plan order.
    ///
    /// # Panics
    ///
    /// If `reports` is not exactly one report per cell.
    pub fn reduce(&self, reports: &[&Report]) -> ExpTable {
        let benches = (self.benchmarks)();
        let cells = benches.len() * self.arms.len();
        assert_eq!(
            reports.len(),
            cells,
            "the grid reduce got {} reports for {cells} cells",
            reports.len()
        );
        (self.table)(&Cells {
            benches,
            arms: self.arms,
            reports,
        })
    }
}

/// The reports of one [`Grid`], one row of them per benchmark.
pub struct Cells<'a> {
    benches: Vec<BenchProfile>,
    arms: &'static [Arm],
    reports: &'a [&'a Report],
}

/// One benchmark's reports, one per arm of its grid, in arm order.
struct Row<'a> {
    bench: &'a BenchProfile,
    arms: &'static [Arm],
    reports: &'a [&'a Report],
}

impl<'a> Row<'a> {
    /// The report of `arm`, found by its label among the grid's arms.
    fn report(&self, arm: &Arm) -> &'a Report {
        let i = self.arms.iter().position(|a| a.label == arm.label);
        self.reports[i.unwrap_or_else(|| panic!("the grid has no {} arm", arm.label))]
    }

    fn ipc(&self, arm: &Arm) -> f64 {
        self.report(arm).per_core[0].ipc()
    }
}

impl Cells<'_> {
    /// The rows, in benchmark order.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let chunks = self.reports.chunks(self.arms.len());
        (self.benches.iter().zip(chunks)).map(|(bench, reports)| Row {
            bench,
            arms: self.arms,
            reports,
        })
    }

    /// A table with a column per arm: one row of `value` per `shown`
    /// benchmark (in suite order), then `summary` of each column over the
    /// whole suite — the shape Figs. 6, 7 and Table 7 share.
    fn shown_rows_and_summary(
        &self,
        id: &str,
        title: &str,
        shown: &[&str],
        value: impl Fn(&Row<'_>, &Arm) -> f64,
        (label, summary): (&str, fn(&[f64]) -> f64),
    ) -> ExpTable {
        let labels: Vec<&str> = self.arms.iter().map(|a| a.label).collect();
        let mut t = ExpTable::new(id, title, &labels);
        let mut columns = vec![Vec::new(); self.arms.len()];
        for row in self.rows() {
            let values: Vec<f64> = self.arms.iter().map(|a| value(&row, a)).collect();
            for (column, v) in columns.iter_mut().zip(&values) {
                column.push(*v);
            }
            if shown.contains(&row.bench.name.as_str()) {
                t.push(row.bench.name.clone(), values);
            }
        }
        t.push(label, columns.iter().map(|c| summary(c)).collect());
        t
    }
}

fn amean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The ten benchmarks of Fig. 1 (five prefetch-unfriendly, five friendly).
pub(super) fn fig1_benchmarks() -> Vec<BenchProfile> {
    [
        "galgel_00",
        "ammp_00",
        "xalancbmk_06",
        "art_00",
        "milc_06",
        "libquantum_06",
        "swim_00",
        "bwaves_06",
        "leslie3d_06",
        "lbm_06",
    ]
    .iter()
    .map(|n| profiles::by_name(n).expect("catalog benchmark"))
    .collect()
}

/// The fifteen benchmarks Figs. 6 and 7 show individually.
const FIG6_SHOWN: [&str; 15] = [
    "swim_00",
    "galgel_00",
    "art_00",
    "ammp_00",
    "gcc_06",
    "mcf_06",
    "libquantum_06",
    "omnetpp_06",
    "xalancbmk_06",
    "bwaves_06",
    "milc_06",
    "cactusADM_06",
    "leslie3d_06",
    "soplex_06",
    "lbm_06",
];

/// Fig. 1: IPC of the stream prefetcher under demand-first and
/// demand-prefetch-equal, normalized to no prefetching, for ten benchmarks.
pub(super) fn fig1(cells: &Cells<'_>) -> ExpTable {
    let mut t = ExpTable::new(
        "fig1",
        "Normalized IPC of a stream prefetcher under two rigid policies (vs no-pref)",
        &["demand-first", "demand-pref-equal"],
    );
    for row in cells.rows() {
        let base = row.ipc(&NO_PREF);
        t.push(
            row.bench.name.clone(),
            vec![row.ipc(&DEMAND_FIRST) / base, row.ipc(&EQUAL) / base],
        );
    }
    t
}

/// Fig. 6: single-core IPC for all five arms, normalized to demand-first,
/// for 15 benchmarks plus the gmean over the whole 55-benchmark suite.
pub(super) fn fig6(cells: &Cells<'_>) -> ExpTable {
    cells.shown_rows_and_summary(
        "fig6",
        "Single-core normalized IPC (vs demand-first); last row = gmean over 55 benchmarks",
        &FIG6_SHOWN,
        |row, arm| row.ipc(arm) / row.ipc(&DEMAND_FIRST),
        ("gmean55", gmean),
    )
}

/// Fig. 7: stall-time per load (SPL) for the 15 shown benchmarks plus the
/// arithmetic mean over all 55.
pub(super) fn fig7(cells: &Cells<'_>) -> ExpTable {
    cells.shown_rows_and_summary(
        "fig7",
        "Stall cycles per load (SPL), single core; last row = mean over 55 benchmarks",
        &FIG6_SHOWN,
        |row, arm| row.report(arm).per_core[0].spl(),
        ("amean55", amean),
    )
}

/// Fig. 8: bus traffic split into demand / useful-prefetch / useless-
/// prefetch lines, per arm: the mean per benchmark over all 55 (the
/// paper's `amean55` bars).
pub(super) fn fig8(cells: &Cells<'_>) -> ExpTable {
    let mut t = ExpTable::new(
        "fig8",
        "Bus traffic in cache lines (mean per benchmark over the 55-benchmark suite)",
        &["demand", "pref-useful", "pref-useless", "total"],
    );
    let n = cells.benches.len() as f64;
    for arm in cells.arms {
        let (mut demand, mut useful, mut useless) = (0.0, 0.0, 0.0);
        for row in cells.rows() {
            let tr = row.report(arm).traffic();
            demand += tr.demand as f64;
            useful += tr.pref_useful as f64;
            useless += tr.pref_useless as f64;
        }
        let total = demand + useful + useless;
        t.push(
            arm.label,
            vec![demand / n, useful / n, useless / n, total / n],
        );
    }
    t
}

/// Table 5: benchmark characteristics with and without the stream
/// prefetcher (IPC, MPKI, RBH, ACC, COV, class) under demand-first.
pub(super) fn tab5(cells: &Cells<'_>) -> ExpTable {
    let mut t = ExpTable::new(
        "tab5",
        "Benchmark characteristics (no-pref IPC/MPKI; demand-first IPC/MPKI/RBH/ACC/COV; class)",
        &[
            "IPC(np)", "MPKI(np)", "IPC(df)", "MPKI(df)", "RBH", "ACC", "COV", "class",
        ],
    );
    for row in cells.rows() {
        let np = &row.report(&NO_PREF).per_core[0];
        let df_report = row.report(&DEMAND_FIRST);
        let df = &df_report.per_core[0];
        t.push(
            row.bench.name.clone(),
            vec![
                np.ipc(),
                np.mpki(),
                df.ipc(),
                df.mpki(),
                df_report.channels[0].row_hit_rate(),
                df.acc(),
                df.cov(),
                row.bench.class.code() as f64,
            ],
        );
    }
    t
}

/// Table 7: row-buffer hit rate for useful requests (RBHU) under each arm,
/// for the paper's 13 benchmarks plus the mean over the suite.
pub(super) fn tab7(cells: &Cells<'_>) -> ExpTable {
    cells.shown_rows_and_summary(
        "tab7",
        "Row-buffer hit rate for useful (demand + useful prefetch) requests",
        &[
            "swim_00",
            "galgel_00",
            "art_00",
            "ammp_00",
            "mcf_06",
            "libquantum_06",
            "omnetpp_06",
            "xalancbmk_06",
            "bwaves_06",
            "milc_06",
            "leslie3d_06",
            "soplex_06",
            "lbm_06",
        ],
        |row, arm| row.report(arm).per_core[0].rbhu(),
        ("amean55", amean),
    )
}

#[cfg(test)]
mod tests {
    use crate::experiments::{find, ExpConfig, Scale};

    fn smoke(id: &str) -> crate::experiments::ExpTable {
        let e = find(id).expect("registered");
        e.run(&ExpConfig::at(Scale::Smoke)).remove(0)
    }

    #[test]
    fn fig1_produces_ten_rows() {
        let t = smoke("fig1");
        assert_eq!(t.rows.len(), 10);
        assert!(t.get("libquantum_06", "demand-first").unwrap() > 0.0);
    }

    #[test]
    fn fig6_has_gmean_row() {
        let t = smoke("fig6");
        assert_eq!(t.rows.len(), 16);
        assert!((t.get("gmean55", "demand-first").unwrap() - 1.0).abs() < 1e-9);
        // Prefetching must help on average even at smoke scale.
        assert!(t.get("gmean55", "no-pref").unwrap() < 1.0);
    }

    #[test]
    fn tab5_reports_every_benchmark() {
        let t = smoke("tab5");
        assert_eq!(t.rows.len(), 55);
        let milc_class = t.get("milc_06", "class").unwrap();
        assert_eq!(milc_class, 2.0);
    }

    #[test]
    fn grid_plans_one_unit_per_cell() {
        let exp = ExpConfig::at(Scale::Smoke);
        let units = find("fig6").expect("registered").plan(&exp);
        assert_eq!(units.len(), 55 * 5);
        // Every unit is single-core at the single-core budget.
        assert!(units
            .iter()
            .all(|u| u.is_single_core() && u.config().max_instructions == exp.instructions_single));
    }
}
