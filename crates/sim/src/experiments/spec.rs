//! The data a multi-core experiment is written in, and the one plan and
//! one reduce that run it.
//!
//! Outside the single-core grids and the four hand-built tables, the
//! paper's evaluation is one measurement repeated: a list of controller
//! variants ([`Arm`]s) run over a workload set ([`Mixes`]) and normalized
//! by `IPC_alone` (§5.2) into WS / HS / UF / traffic. An arm is a
//! scheduling policy plus the [`Delta`]s that take the Table 3/4 baseline
//! to its system; a [`Group`] is a list of arms sharing further deltas (one
//! sweep point, one prefetcher, one refresh organization); a [`Compare`]
//! is a workload set, its groups and a [`Layout`]. [`Compare::plan`]
//! enumerates the `IPC_alone` units once and one unit per (group, arm,
//! workload); [`Compare::reduce`] reads the reports back in that order,
//! averages each [`Col`] over the workload set and lays the means out.

use padc_core::SchedulingPolicy::{self, ApsOnly, DemandFirst, DemandPrefetchEqual, Padc};
use padc_dram::{ExtendedTiming, MappingScheme, RefreshPolicy, RowPolicy};
use padc_prefetch::PrefetcherKind;
use padc_workloads::{random_workloads, BenchProfile, Workload};

use crate::{metrics, Report, SimConfig};

use super::infra::{ExpConfig, ExpTable, SimUnit};

/// One departure from the paper's baseline system (Tables 3 and 4): the
/// closed set the suite's arms, sweep points and extensions are built from.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Delta {
    /// No hardware prefetcher (the `no-pref` bars).
    NoPrefetch,
    /// A different prefetcher wherever one is present (Fig. 28, DSPatch).
    Prefetcher(PrefetcherKind),
    /// This many DRAM channels, one controller each (Figs. 21, 22).
    Channels(usize),
    /// One shared last-level cache instead of private L2s (Figs. 26, 27).
    SharedL2,
    /// DRAM row-buffer size in bytes (Fig. 23).
    RowBytes(u64),
    /// Per-core L2 capacity in bytes (Fig. 25).
    L2Bytes(u64),
    /// Row-buffer management policy (Fig. 24, HAPPY).
    Row(RowPolicy),
    /// Refresh organization; a per-bank one turns extended timing on.
    Refresh(RefreshPolicy),
    /// The full DDR3 constraint set (tRAS/tWR/tRTP/tFAW and refresh).
    ExtendedTiming,
    /// Dynamic Data Prefetch Filtering (Figs. 29, 30).
    Ddpf,
    /// Feedback-Directed Prefetching (Figs. 29, 30).
    Fdp,
    /// Adaptive Prefetch Dropping under a policy that lacks it (Fig. 29).
    Apd,
    /// No prioritization of urgent requests (Table 8).
    NoUrgency,
    /// Permutation-based page interleaving (Fig. 31).
    Permutation,
    /// Runahead execution (Fig. 32).
    Runahead,
    /// PAR-BS-style request batching.
    Batching,
    /// Watermark-based write draining.
    WriteDrain,
}

impl Delta {
    /// Applies the departure to `cfg`.
    pub fn apply(self, cfg: &mut SimConfig) {
        match self {
            Delta::NoPrefetch => cfg.prefetcher = None,
            Delta::Prefetcher(kind) => cfg.prefetcher = cfg.prefetcher.map(|_| kind),
            Delta::Channels(n) => cfg.dram.channels = n,
            Delta::SharedL2 => cfg.shared_l2 = true,
            Delta::RowBytes(bytes) => cfg.dram.row_bytes = bytes,
            Delta::L2Bytes(bytes) => cfg.l2.size_bytes = bytes,
            Delta::Row(policy) => cfg.dram.row_policy = policy,
            Delta::Refresh(policy) => *cfg = cfg.clone().with_refresh_policy(policy),
            Delta::ExtendedTiming => cfg.dram.extended = Some(ExtendedTiming::default()),
            Delta::Ddpf => cfg.ddpf = true,
            Delta::Fdp => cfg.fdp = true,
            Delta::Apd => cfg.controller.apd = true,
            Delta::NoUrgency => cfg.controller.urgency = false,
            Delta::Permutation => cfg.mapping = MappingScheme::Permutation,
            Delta::Runahead => cfg.core.runahead = true,
            Delta::Batching => cfg.controller.batching = true,
            Delta::WriteDrain => cfg.controller.write_drain = true,
        }
    }
}

/// A named system variant evaluated in a figure.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    /// Bar label, matching the paper's legends.
    pub label: &'static str,
    /// DRAM scheduling policy.
    pub policy: SchedulingPolicy,
    /// Departures from the baseline system.
    pub deltas: &'static [Delta],
}

impl Arm {
    /// An arm from its three parts (registry rows are written with this).
    pub const fn new(
        label: &'static str,
        policy: SchedulingPolicy,
        deltas: &'static [Delta],
    ) -> Self {
        Arm {
            label,
            policy,
            deltas,
        }
    }

    /// The system this arm simulates on `cores` cores: the baseline under
    /// the arm's policy, the arm's deltas, then its group's `shared` ones.
    pub fn config(&self, cores: usize, shared: &[Delta]) -> SimConfig {
        let mut cfg = SimConfig::new(cores, self.policy);
        for delta in self.deltas.iter().chain(shared) {
            delta.apply(&mut cfg);
        }
        cfg
    }
}

pub(super) const NO_PREF: Arm = Arm::new("no-pref", DemandFirst, &[Delta::NoPrefetch]);
pub(super) const DEMAND_FIRST: Arm = Arm::new("demand-first", DemandFirst, &[]);
pub(super) const EQUAL: Arm = Arm::new("demand-pref-equal", DemandPrefetchEqual, &[]);
pub(super) const APS_ONLY: Arm = Arm::new("aps-only", ApsOnly, &[]);
pub(super) const APS_APD: Arm = Arm::new("aps-apd (PADC)", Padc, &[]);
/// The same system as [`APS_APD`] under the label the later figures use.
pub(super) const PADC: Arm = Arm::new("PADC", Padc, &[]);

/// The paper's standard five-arm comparison (Figs. 6–17).
pub(super) const STANDARD: &[Arm] = &[NO_PREF, DEMAND_FIRST, EQUAL, APS_ONLY, APS_APD];

/// Arms compared under the same further deltas.
#[derive(Clone, Copy, Debug)]
pub struct Group {
    /// The group's row or table label, and the `{}` of a table title
    /// (`""` for a lone group).
    pub name: &'static str,
    /// Departures every arm of the group shares.
    pub deltas: &'static [Delta],
    /// The arms, in legend order.
    pub arms: &'static [Arm],
}

impl Group {
    /// A group from its three parts (registry rows are written with this).
    pub const fn new(name: &'static str, deltas: &'static [Delta], arms: &'static [Arm]) -> Self {
        Group { name, deltas, arms }
    }

    /// The lone, unnamed group of an experiment that is one arm list.
    pub const fn only(arms: &'static [Arm]) -> Self {
        Group::new("", &[], arms)
    }
}

/// The multiprogrammed workload set an experiment averages over.
#[derive(Clone, Copy, Debug)]
pub enum Mixes {
    /// [`ExpConfig::workloads_2core`] random 2-core mixes.
    Cores2,
    /// [`ExpConfig::workloads_4core`] random 4-core mixes.
    Cores4,
    /// [`ExpConfig::workloads_8core`] random 8-core mixes.
    Cores8,
    /// [`ExpConfig::workloads_sweep`] random 4-core mixes: the smaller
    /// sample the sweeps and mechanism comparisons re-run at every group.
    Sweep,
    /// One named 4-core mix (case studies, Tables 8–10).
    Named([&'static str; 4]),
}

impl Mixes {
    /// The workloads at `exp`'s scale and seed.
    pub fn workloads(&self, exp: &ExpConfig) -> Vec<Workload> {
        let (count, cores) = match self {
            Mixes::Cores2 => (exp.workloads_2core, 2),
            Mixes::Cores4 => (exp.workloads_4core, 4),
            Mixes::Cores8 => (exp.workloads_8core, 8),
            Mixes::Sweep => (exp.workloads_sweep, 4),
            Mixes::Named(names) => return vec![Workload::from_names(names)],
        };
        random_workloads(count, cores, exp.seed)
    }
}

/// What a table column reports for one workload under one arm.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Col {
    /// Individual speedup of core `i` over running alone.
    Is(usize),
    /// Weighted speedup.
    Ws,
    /// Harmonic speedup.
    Hs,
    /// Unfairness, clamped at 100 (it is infinite if a core starves).
    Uf,
    /// Total bus traffic in cache lines.
    Traffic,
    /// Demand lines.
    Demand,
    /// Useful prefetch lines.
    Useful,
    /// Useless prefetch lines.
    Useless,
}

impl Col {
    fn of(self, report: &Report, alone: &[f64]) -> f64 {
        let ipcs: Vec<f64> = report.per_core.iter().map(|c| c.ipc()).collect();
        match self {
            Col::Is(i) => metrics::individual_speedups(&ipcs, alone)[i],
            Col::Ws => metrics::weighted_speedup(&ipcs, alone),
            Col::Hs => metrics::harmonic_speedup(&ipcs, alone),
            Col::Uf => metrics::unfairness(&ipcs, alone).min(100.0),
            Col::Traffic => report.traffic().total() as f64,
            Col::Demand => report.traffic().demand as f64,
            Col::Useful => report.traffic().pref_useful as f64,
            Col::Useless => report.traffic().pref_useless as f64,
        }
    }
}

/// A column header and what the column reports.
pub type Column = (&'static str, Col);

/// The system-performance columns most figures report.
pub(super) const SYSTEM: &[Column] = &[
    ("WS", Col::Ws),
    ("HS", Col::Hs),
    ("UF", Col::Uf),
    ("traffic(lines)", Col::Traffic),
];

/// One table of a [`Layout::PerGroup`] experiment.
#[derive(Clone, Copy, Debug)]
pub struct Table {
    /// Appended to the table id (`"-sys"`; `""` for an only table).
    pub suffix: &'static str,
    /// Title; a `{}` stands for the group name.
    pub title: &'static str,
    /// The columns.
    pub columns: &'static [Column],
}

impl Table {
    /// An only table of the WS / HS / UF / traffic columns.
    pub const fn system(title: &'static str) -> Self {
        Table {
            suffix: "",
            title,
            columns: SYSTEM,
        }
    }
}

/// How a [`Compare`]'s means are laid out as tables.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// For each group, each of these tables, with a row per arm. A named
    /// group's tables are `<id>-<group>`.
    PerGroup(&'static [Table]),
    /// One table with this title: a row per group, a column per arm holding
    /// its mean WS (the parameter sweeps, Figs. 23 and 25).
    WsByGroup(&'static str),
    /// One table with this title and these columns: a row per
    /// `"<arm> (<group>)"`.
    ArmByGroup(&'static str, &'static [Column]),
}

/// A multi-core experiment: arms × workloads, normalized by `IPC_alone`.
#[derive(Clone, Copy, Debug)]
pub struct Compare {
    /// The workload set.
    pub mixes: Mixes,
    /// The arm groups, in table (or row) order.
    pub groups: &'static [Group],
    /// How the means become tables.
    pub layout: Layout,
}

/// The set's benchmarks, each once, in first-appearance order: the
/// `IPC_alone` units a [`Compare`] plans first and its reduce reads first.
fn distinct_benchmarks(workloads: &[Workload]) -> Vec<&BenchProfile> {
    let mut distinct: Vec<&BenchProfile> = Vec::new();
    for b in workloads.iter().flat_map(|w| &w.benchmarks) {
        if !distinct.iter().any(|d| d.name == b.name) {
            distinct.push(b);
        }
    }
    distinct
}

/// The mean of `col` over the workload set, from one (group, arm)'s
/// reports in workload order and `IPC_alone` per workload, per core. Each
/// term is divided before it is added: the committed artifacts were
/// produced in that order, and dividing the sum instead rounds differently
/// whenever the workload count is not a power of two.
fn mean(run: &[&Report], alone: &[Vec<f64>], col: Col) -> f64 {
    let n = alone.len() as f64;
    (run.iter().zip(alone)).fold(0.0, |acc, (report, alone)| acc + col.of(report, alone) / n)
}

fn row(run: &[&Report], alone: &[Vec<f64>], columns: &[Column]) -> Vec<f64> {
    columns
        .iter()
        .map(|&(_, col)| mean(run, alone, col))
        .collect()
}

fn headers(columns: &[Column]) -> Vec<&'static str> {
    columns.iter().map(|&(name, _)| name).collect()
}

impl Compare {
    /// The `IPC_alone` units of the set's distinct benchmarks, then one
    /// unit per (group, arm, workload), in that nesting.
    pub fn plan(&self, exp: &ExpConfig) -> Vec<SimUnit> {
        let workloads = self.mixes.workloads(exp);
        let alone = distinct_benchmarks(&workloads).into_iter();
        let mut units: Vec<SimUnit> = alone.map(|b| SimUnit::alone(b, exp)).collect();
        for group in self.groups {
            for arm in group.arms {
                for w in &workloads {
                    let config = arm.config(w.cores(), group.deltas);
                    units.push(SimUnit::workload(config, w, exp));
                }
            }
        }
        units
    }

    /// Folds the reports of [`plan`](Self::plan)'s units, in plan order,
    /// into the tables of experiment `id`.
    ///
    /// # Panics
    ///
    /// If `reports` is not exactly one report per planned unit.
    pub fn reduce(&self, id: &str, exp: &ExpConfig, reports: &[&Report]) -> Vec<ExpTable> {
        let workloads = self.mixes.workloads(exp);
        let distinct = distinct_benchmarks(&workloads);
        let arms: usize = self.groups.iter().map(|g| g.arms.len()).sum();
        let planned = distinct.len() + arms * workloads.len();
        assert_eq!(
            reports.len(),
            planned,
            "{id}: the reduce got {} reports for {planned} planned units",
            reports.len()
        );
        let (alone_runs, mut rest) = reports.split_at(distinct.len());
        let ipc_alone = |b: &BenchProfile| {
            let i = distinct.iter().position(|d| d.name == b.name);
            alone_runs[i.expect("a planned benchmark")].per_core[0].ipc()
        };
        let alone: Vec<Vec<f64>> = (workloads.iter())
            .map(|w| w.benchmarks.iter().map(&ipc_alone).collect())
            .collect();
        // One run per (group, arm): its reports over the workload set.
        let runs: Vec<Vec<&[&Report]>> = (self.groups.iter())
            .map(|group| {
                (group.arms.iter())
                    .map(|_| {
                        let (run, tail) = rest.split_at(workloads.len());
                        rest = tail;
                        run
                    })
                    .collect()
            })
            .collect();
        let groups = || self.groups.iter().zip(&runs);
        match self.layout {
            Layout::PerGroup(tables) => {
                let mut out = Vec::new();
                for (group, runs) in groups() {
                    let dash = if group.name.is_empty() { "" } else { "-" };
                    for table in tables {
                        let mut t = ExpTable::new(
                            &format!("{id}{dash}{}{}", group.name, table.suffix),
                            &table.title.replace("{}", group.name),
                            &headers(table.columns),
                        );
                        for (arm, run) in group.arms.iter().zip(runs) {
                            t.push(arm.label, row(run, &alone, table.columns));
                        }
                        out.push(t);
                    }
                }
                out
            }
            Layout::WsByGroup(title) => {
                let labels: Vec<&str> = self.groups[0].arms.iter().map(|a| a.label).collect();
                let mut t = ExpTable::new(id, title, &labels);
                for (group, runs) in groups() {
                    let ws = runs.iter().map(|run| mean(run, &alone, Col::Ws));
                    t.push(group.name, ws.collect());
                }
                vec![t]
            }
            Layout::ArmByGroup(title, columns) => {
                let mut t = ExpTable::new(id, title, &headers(columns));
                for (group, runs) in groups() {
                    for (arm, run) in group.arms.iter().zip(runs) {
                        let label = format!("{} ({})", arm.label, group.name);
                        t.push(label, row(run, &alone, columns));
                    }
                }
                vec![t]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::experiments::{find, Scale, Shape, REGISTRY};
    use crate::System;

    #[test]
    fn standard_arms_match_paper_legend() {
        let labels: Vec<_> = STANDARD.iter().map(|a| a.label).collect();
        assert_eq!(
            labels,
            vec![
                "no-pref",
                "demand-first",
                "demand-pref-equal",
                "aps-only",
                "aps-apd (PADC)"
            ]
        );
    }

    #[test]
    fn every_compare_plans_alone_units_once_and_one_unit_per_group_arm_workload() {
        let exp = ExpConfig::at(Scale::Smoke);
        for e in REGISTRY {
            let Shape::Compare(compare) = &e.shape else {
                continue;
            };
            let units = e.plan(&exp);
            let workloads = compare.mixes.workloads(&exp);
            let distinct: HashSet<&str> = workloads
                .iter()
                .flat_map(|w| w.benchmarks.iter().map(|b| b.name.as_str()))
                .collect();
            let alone = units.iter().filter(|u| u.is_single_core()).count();
            assert_eq!(
                alone,
                distinct.len(),
                "{}: one alone unit per distinct benchmark, not per table",
                e.id
            );
            let arms: usize = compare.groups.iter().map(|g| g.arms.len()).sum();
            assert_eq!(
                units.len() - alone,
                arms * workloads.len(),
                "{}: one unit per (group, arm, workload)",
                e.id
            );
        }
    }

    #[test]
    fn distinct_benchmarks_dedupes_across_workloads() {
        let workloads = [
            Workload::from_names(&["milc_06", "swim_00"]),
            Workload::from_names(&["swim_00", "lbm_06"]),
        ];
        let distinct = distinct_benchmarks(&workloads);
        let names: Vec<&str> = distinct.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["milc_06", "swim_00", "lbm_06"]);
    }

    #[test]
    #[should_panic(expected = "case1: the reduce got 10 reports for 9 planned units")]
    fn compare_reduce_refuses_a_report_its_plan_did_not_make() {
        let exp = ExpConfig::at(Scale::Smoke);
        let e = find("case1").expect("registered");
        let Shape::Compare(compare) = &e.shape else {
            panic!("case1 is a Compare");
        };
        let report = Report::default();
        let reports = vec![&report; e.plan(&exp).len() + 1];
        compare.reduce(e.id, &exp, &reports);
    }

    /// Reference path: one workload straight through [`System::new`],
    /// sharing nothing with plan, reduce or the unit cache.
    fn run_workload(mut cfg: SimConfig, w: &Workload, exp: &ExpConfig) -> Report {
        cfg.max_instructions = exp.instructions;
        cfg.seed = exp.seed;
        System::new(cfg, w.benchmarks.clone()).run()
    }

    /// Reference path: `IPC_alone` of each benchmark of `w`, measured on a
    /// single-core demand-first system as §5.2 specifies.
    fn alone_ipcs(w: &Workload, exp: &ExpConfig) -> Vec<f64> {
        w.benchmarks
            .iter()
            .map(|b| {
                let mut cfg = SimConfig::single_core(DemandFirst);
                cfg.max_instructions = exp.instructions_single;
                cfg.seed = exp.seed;
                System::new(cfg, vec![b.clone()]).run().per_core[0].ipc()
            })
            .collect()
    }

    #[test]
    fn fig16_matches_a_direct_sequential_computation() {
        let exp = ExpConfig::at(Scale::Smoke);
        let workloads = random_workloads(exp.workloads_4core, 4, exp.seed);
        let alone: Vec<Vec<f64>> = workloads.iter().map(|w| alone_ipcs(w, &exp)).collect();
        let arms = [
            ("no-pref", DemandFirst, false),
            ("demand-first", DemandFirst, true),
            ("demand-pref-equal", DemandPrefetchEqual, true),
            ("aps-only", ApsOnly, true),
            ("aps-apd (PADC)", Padc, true),
        ];
        let mut reference = ExpTable::new(
            "fig16",
            "4-core average system performance and traffic",
            &["WS", "HS", "UF", "traffic(lines)"],
        );
        let n = workloads.len() as f64;
        for (label, policy, prefetch) in arms {
            let mut cfg = SimConfig::new(4, policy);
            if !prefetch {
                cfg = cfg.without_prefetching();
            }
            let mut row = vec![0.0; 4];
            for (w, alone) in workloads.iter().zip(&alone) {
                let r = run_workload(cfg.clone(), w, &exp);
                let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
                row[0] += metrics::weighted_speedup(&ipcs, alone) / n;
                row[1] += metrics::harmonic_speedup(&ipcs, alone) / n;
                row[2] += metrics::unfairness(&ipcs, alone).min(100.0) / n;
                row[3] += r.traffic().total() as f64 / n;
            }
            reference.push(label, row);
        }
        let planned = find("fig16").expect("registered").run(&exp).remove(0);
        assert_eq!(
            serde_json::to_string(&planned).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "plan/execute/reduce must reproduce the direct tables byte-for-byte"
        );
    }
}
