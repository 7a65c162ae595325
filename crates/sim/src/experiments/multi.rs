//! Multi-core experiments: case studies (§6.3.1–6.3.5), system-size
//! aggregates (Figs. 9, 16, 17), ranking (Figs. 19, 20), dual controllers
//! (Figs. 21, 22), and shared last-level caches (Figs. 26, 27).
//!
//! Every experiment here is a grid of independent simulations, so all of
//! them use the plan/execute/reduce contract: `plan` enumerates one
//! [`SimUnit`] per (workload, policy-arm) pair plus the deduplicated
//! `IPC_alone` normalization units, and `reduce` folds the reports into
//! the paper's tables. The public per-figure functions run the same
//! plan/execute/reduce (inline, or on the shared pool under the harness).

use padc_core::SchedulingPolicy;
use padc_workloads::{random_workloads, Workload};

use crate::{metrics, SimConfig};

use super::infra::{
    average_outcomes, plan_alone_units, standard_arms, ExpConfig, ExpKind, ExpTable, PolicyArm,
    SimUnit, UnitKey, UnitResult, UnitResults, WorkloadOutcome,
};

/// The paper's three 4-core case studies (§6.3.1–6.3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CaseStudy {
    /// Case I: four prefetch-friendly applications.
    AllFriendly,
    /// Case II: four prefetch-unfriendly applications.
    AllUnfriendly,
    /// Case III: two friendly + two unfriendly.
    Mixed,
}

impl CaseStudy {
    /// The benchmark mix (matching the paper's figures).
    pub fn benchmarks(self) -> [&'static str; 4] {
        match self {
            CaseStudy::AllFriendly => ["swim_00", "bwaves_06", "leslie3d_06", "soplex_06"],
            CaseStudy::AllUnfriendly => ["art_00", "galgel_00", "ammp_00", "milc_06"],
            CaseStudy::Mixed => ["omnetpp_06", "libquantum_06", "galgel_00", "GemsFDTD_06"],
        }
    }

    /// Experiment id used by the repro harness.
    pub fn id(self) -> &'static str {
        match self {
            CaseStudy::AllFriendly => "case1",
            CaseStudy::AllUnfriendly => "case2",
            CaseStudy::Mixed => "case3",
        }
    }
}

/// Plans one workload under each arm, after its alone-normalization units.
fn single_workload_plan(w: &Workload, arms: &[PolicyArm], exp: &ExpConfig) -> Vec<SimUnit> {
    let mut units = plan_alone_units(std::slice::from_ref(w), exp);
    for arm in arms {
        units.push(SimUnit::workload(arm, "", w, exp));
    }
    units
}

fn case_plan(case: CaseStudy, exp: &ExpConfig) -> Vec<SimUnit> {
    let w = Workload::from_names(&case.benchmarks());
    single_workload_plan(&w, &standard_arms(), exp)
}

fn case_reduce(case: CaseStudy, exp: &ExpConfig, results: &[UnitResult]) -> Vec<ExpTable> {
    let w = Workload::from_names(&case.benchmarks());
    let idx = UnitResults::new(results);
    let alone = idx.alone_ipcs(&w, exp);
    let arms = standard_arms();

    let mut speedups = ExpTable::new(
        &format!("{}-is", case.id()),
        "Individual speedup over running alone",
        &case.benchmarks(),
    );
    let mut system = ExpTable::new(
        &format!("{}-sys", case.id()),
        "System performance and total traffic",
        &["WS", "HS", "UF", "traffic(lines)"],
    );
    let mut traffic = ExpTable::new(
        &format!("{}-traffic", case.id()),
        "Per-arm traffic breakdown (lines)",
        &["demand", "pref-useful", "pref-useless"],
    );
    for arm in &arms {
        let r = idx.get(&UnitKey::workload(arm.label, "", &w, exp));
        let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
        let is = metrics::individual_speedups(&ipcs, &alone);
        speedups.push(arm.label, is);
        system.push(
            arm.label,
            vec![
                metrics::weighted_speedup(&ipcs, &alone),
                metrics::harmonic_speedup(&ipcs, &alone),
                metrics::unfairness(&ipcs, &alone),
                r.traffic().total() as f64,
            ],
        );
        let tr = r.traffic();
        traffic.push(
            arm.label,
            vec![
                tr.demand as f64,
                tr.pref_useful as f64,
                tr.pref_useless as f64,
            ],
        );
    }
    vec![speedups, system, traffic]
}

/// Runs one case study: returns (individual speedups, system metrics,
/// per-application traffic breakdown) — the paper's paired figures (10–15).
pub fn case_study(case: CaseStudy, exp: &ExpConfig) -> Vec<ExpTable> {
    case_kind(case).tables(exp)
}

/// Plan/reduce kind for one case study.
pub(crate) fn case_kind(case: CaseStudy) -> ExpKind {
    ExpKind::new(
        move |exp| case_plan(case, exp),
        move |exp, results| case_reduce(case, exp, results),
    )
}

/// Shared shape of the N-core aggregate figures: a workload-count knob, a
/// core count, and an arm list, reduced to per-arm WS/HS/UF/traffic means.
#[derive(Clone, Copy)]
struct AggSpec {
    id: &'static str,
    title: &'static str,
    cores: usize,
    count: fn(&ExpConfig) -> usize,
    arms: fn() -> Vec<PolicyArm>,
}

impl AggSpec {
    fn workloads(&self, exp: &ExpConfig) -> Vec<Workload> {
        random_workloads((self.count)(exp), self.cores, exp.seed)
    }

    fn plan(&self, exp: &ExpConfig) -> Vec<SimUnit> {
        let workloads = self.workloads(exp);
        let mut units = plan_alone_units(&workloads, exp);
        for arm in (self.arms)() {
            for w in &workloads {
                units.push(SimUnit::workload(&arm, "", w, exp));
            }
        }
        units
    }

    fn reduce(&self, exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
        let workloads = self.workloads(exp);
        let idx = UnitResults::new(results);
        let alone: Vec<Vec<f64>> = workloads.iter().map(|w| idx.alone_ipcs(w, exp)).collect();
        let mut t = ExpTable::new(self.id, self.title, &["WS", "HS", "UF", "traffic(lines)"]);
        for arm in (self.arms)() {
            let outcomes: Vec<WorkloadOutcome> = workloads
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let r = idx.get(&UnitKey::workload(arm.label, "", w, exp));
                    WorkloadOutcome::from_report(r, &alone[i])
                })
                .collect();
            let o = average_outcomes(&outcomes);
            t.push(arm.label, vec![o.ws, o.hs, o.uf, o.traffic_total]);
        }
        t
    }

    fn kind(self) -> ExpKind {
        ExpKind::new(
            move |exp| self.plan(exp),
            move |exp, results| vec![self.reduce(exp, results)],
        )
    }

    fn table(self, exp: &ExpConfig) -> ExpTable {
        self.kind().tables(exp).remove(0)
    }
}

fn fig9_spec() -> AggSpec {
    AggSpec {
        id: "fig9",
        title: "2-core average system performance and traffic",
        cores: 2,
        count: |e| e.workloads_2core,
        arms: standard_arms,
    }
}

/// Fig. 9: 2-core averages over the workload set.
pub fn fig9_2core(exp: &ExpConfig) -> ExpTable {
    fig9_spec().table(exp)
}

pub(crate) fn fig9_kind() -> ExpKind {
    fig9_spec().kind()
}

fn fig16_spec() -> AggSpec {
    AggSpec {
        id: "fig16",
        title: "4-core average system performance and traffic",
        cores: 4,
        count: |e| e.workloads_4core,
        arms: standard_arms,
    }
}

/// Fig. 16: 4-core averages.
pub fn fig16_4core(exp: &ExpConfig) -> ExpTable {
    fig16_spec().table(exp)
}

pub(crate) fn fig16_kind() -> ExpKind {
    fig16_spec().kind()
}

fn fig17_spec() -> AggSpec {
    AggSpec {
        id: "fig17",
        title: "8-core average system performance and traffic",
        cores: 8,
        count: |e| e.workloads_8core,
        arms: standard_arms,
    }
}

/// Fig. 17: 8-core averages.
pub fn fig17_8core(exp: &ExpConfig) -> ExpTable {
    fig17_spec().table(exp)
}

pub(crate) fn fig17_kind() -> ExpKind {
    fig17_spec().kind()
}

fn ranking_arms() -> Vec<PolicyArm> {
    vec![
        PolicyArm::new("demand-first", |n| {
            SimConfig::new(n, SchedulingPolicy::DemandFirst)
        }),
        PolicyArm::new("PADC", |n| SimConfig::new(n, SchedulingPolicy::Padc)),
        PolicyArm::new("PADC-rank", |n| {
            SimConfig::new(n, SchedulingPolicy::PadcRank)
        }),
    ]
}

fn fig19_spec() -> AggSpec {
    AggSpec {
        id: "fig19",
        title: "PADC with request ranking, 4-core (WS/HS/UF/traffic)",
        cores: 4,
        count: |e| e.workloads_4core,
        arms: ranking_arms,
    }
}

/// Fig. 19: PADC with shortest-job-first ranking, 4-core.
pub fn fig19_ranking_4core(exp: &ExpConfig) -> ExpTable {
    fig19_spec().table(exp)
}

pub(crate) fn fig19_kind() -> ExpKind {
    fig19_spec().kind()
}

fn fig20_spec() -> AggSpec {
    AggSpec {
        id: "fig20",
        title: "PADC with request ranking, 8-core (WS/HS/UF/traffic)",
        cores: 8,
        count: |e| e.workloads_8core,
        arms: ranking_arms,
    }
}

/// Fig. 20: PADC with ranking, 8-core.
pub fn fig20_ranking_8core(exp: &ExpConfig) -> ExpTable {
    fig20_spec().table(exp)
}

pub(crate) fn fig20_kind() -> ExpKind {
    fig20_spec().kind()
}

fn dual_controller_arms() -> Vec<PolicyArm> {
    standard_arms()
        .into_iter()
        .map(|arm| arm.mutated(|cfg| cfg.dram.channels = 2))
        .collect()
}

fn fig21_spec() -> AggSpec {
    AggSpec {
        id: "fig21",
        title: "Dual memory controllers, 4-core",
        cores: 4,
        count: |e| e.workloads_4core,
        arms: dual_controller_arms,
    }
}

/// Fig. 21: dual memory controllers, 4-core.
pub fn fig21_dual_controller_4core(exp: &ExpConfig) -> ExpTable {
    fig21_spec().table(exp)
}

pub(crate) fn fig21_kind() -> ExpKind {
    fig21_spec().kind()
}

fn fig22_spec() -> AggSpec {
    AggSpec {
        id: "fig22",
        title: "Dual memory controllers, 8-core",
        cores: 8,
        count: |e| e.workloads_8core,
        arms: dual_controller_arms,
    }
}

/// Fig. 22: dual memory controllers, 8-core.
pub fn fig22_dual_controller_8core(exp: &ExpConfig) -> ExpTable {
    fig22_spec().table(exp)
}

pub(crate) fn fig22_kind() -> ExpKind {
    fig22_spec().kind()
}

fn shared_l2_arms() -> Vec<PolicyArm> {
    standard_arms()
        .into_iter()
        .map(|arm| arm.mutated(|cfg| cfg.shared_l2 = true))
        .collect()
}

fn fig26_spec() -> AggSpec {
    AggSpec {
        id: "fig26",
        title: "Shared L2 (2MB/16-way), 4-core",
        cores: 4,
        count: |e| e.workloads_4core,
        arms: shared_l2_arms,
    }
}

/// Fig. 26: shared last-level cache, 4-core.
pub fn fig26_shared_l2_4core(exp: &ExpConfig) -> ExpTable {
    fig26_spec().table(exp)
}

pub(crate) fn fig26_kind() -> ExpKind {
    fig26_spec().kind()
}

fn fig27_spec() -> AggSpec {
    AggSpec {
        id: "fig27",
        title: "Shared L2 (4MB/32-way), 8-core",
        cores: 8,
        count: |e| e.workloads_8core,
        arms: shared_l2_arms,
    }
}

/// Fig. 27: shared last-level cache, 8-core.
pub fn fig27_shared_l2_8core(exp: &ExpConfig) -> ExpTable {
    fig27_spec().table(exp)
}

pub(crate) fn fig27_kind() -> ExpKind {
    fig27_spec().kind()
}

fn tab8_arms() -> Vec<PolicyArm> {
    fn no_urgency(mut cfg: SimConfig) -> SimConfig {
        cfg.controller.urgency = false;
        cfg
    }
    vec![
        PolicyArm::new("demand-first", |n| {
            SimConfig::new(n, SchedulingPolicy::DemandFirst)
        }),
        PolicyArm::new("aps-no-urgent", |n| {
            no_urgency(SimConfig::new(n, SchedulingPolicy::ApsOnly))
        }),
        PolicyArm::new("aps", |n| SimConfig::new(n, SchedulingPolicy::ApsOnly)),
        PolicyArm::new("aps-apd-no-urgent", |n| {
            no_urgency(SimConfig::new(n, SchedulingPolicy::Padc))
        }),
        PolicyArm::new("aps-apd (PADC)", |n| {
            SimConfig::new(n, SchedulingPolicy::Padc)
        }),
    ]
}

fn tab8_plan(exp: &ExpConfig) -> Vec<SimUnit> {
    let w = Workload::from_names(&CaseStudy::Mixed.benchmarks());
    single_workload_plan(&w, &tab8_arms(), exp)
}

fn tab8_reduce(exp: &ExpConfig, results: &[UnitResult]) -> ExpTable {
    let w = Workload::from_names(&CaseStudy::Mixed.benchmarks());
    let idx = UnitResults::new(results);
    let alone = idx.alone_ipcs(&w, exp);
    let mut t = ExpTable::new(
        "tab8",
        "Effect of prioritizing urgent requests (mixed 4-core workload)",
        &[
            "IS(omnetpp)",
            "IS(libquantum)",
            "IS(galgel)",
            "IS(GemsFDTD)",
            "UF",
            "WS",
            "HS",
        ],
    );
    for arm in &tab8_arms() {
        let r = idx.get(&UnitKey::workload(arm.label, "", &w, exp));
        let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
        let mut row = metrics::individual_speedups(&ipcs, &alone);
        row.push(metrics::unfairness(&ipcs, &alone));
        row.push(metrics::weighted_speedup(&ipcs, &alone));
        row.push(metrics::harmonic_speedup(&ipcs, &alone));
        t.push(arm.label, row);
    }
    t
}

/// Table 8: effect of urgent-request prioritization on the mixed case
/// study — individual speedups, UF, WS, HS for APS/PADC with and without
/// urgency.
pub fn tab8_urgency(exp: &ExpConfig) -> ExpTable {
    tab8_kind().tables(exp).remove(0)
}

pub(crate) fn tab8_kind() -> ExpKind {
    ExpKind::new(tab8_plan, |exp, results| vec![tab8_reduce(exp, results)])
}

fn identical_plan(bench: &str, exp: &ExpConfig) -> Vec<SimUnit> {
    let w = Workload::from_names(&[bench; 4]);
    single_workload_plan(&w, &standard_arms(), exp)
}

fn identical_reduce(
    id: &str,
    title: &str,
    bench: &str,
    exp: &ExpConfig,
    results: &[UnitResult],
) -> ExpTable {
    let w = Workload::from_names(&[bench; 4]);
    let idx = UnitResults::new(results);
    let alone = idx.alone_ipcs(&w, exp);
    let mut t = ExpTable::new(id, title, &["IS0", "IS1", "IS2", "IS3", "WS", "HS", "UF"]);
    for arm in &standard_arms() {
        let r = idx.get(&UnitKey::workload(arm.label, "", &w, exp));
        let ipcs: Vec<f64> = r.per_core.iter().map(|c| c.ipc()).collect();
        let mut row = metrics::individual_speedups(&ipcs, &alone);
        row.push(metrics::weighted_speedup(&ipcs, &alone));
        row.push(metrics::harmonic_speedup(&ipcs, &alone));
        row.push(metrics::unfairness(&ipcs, &alone));
        t.push(arm.label, row);
    }
    t
}

fn identical_kind(id: &'static str, title: &'static str, bench: &'static str) -> ExpKind {
    ExpKind::new(
        move |exp| identical_plan(bench, exp),
        move |exp, results| vec![identical_reduce(id, title, bench, exp, results)],
    )
}

/// Table 9: four copies of libquantum on the 4-core system.
pub fn tab9_identical_libquantum(exp: &ExpConfig) -> ExpTable {
    tab9_kind().tables(exp).remove(0)
}

pub(crate) fn tab9_kind() -> ExpKind {
    identical_kind(
        "tab9",
        "Four identical prefetch-friendly applications (libquantum x4)",
        "libquantum_06",
    )
}

/// Table 10: four copies of milc on the 4-core system.
pub fn tab10_identical_milc(exp: &ExpConfig) -> ExpTable {
    tab10_kind().tables(exp).remove(0)
}

pub(crate) fn tab10_kind() -> ExpKind {
    identical_kind(
        "tab10",
        "Four identical prefetch-unfriendly applications (milc x4)",
        "milc_06",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn case_study_produces_three_tables() {
        let tables = case_study(CaseStudy::Mixed, &ExpConfig::at(Scale::Smoke));
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 5);
        assert!(tables[1].get("aps-apd (PADC)", "WS").unwrap() > 0.0);
    }

    #[test]
    fn identical_apps_have_similar_speedups_under_padc() {
        let t = tab9_identical_libquantum(&ExpConfig::at(Scale::Smoke));
        let padc: Vec<f64> = (0..4)
            .map(|i| t.get("aps-apd (PADC)", &format!("IS{i}")).unwrap())
            .collect();
        let max = padc.iter().cloned().fold(f64::MIN, f64::max);
        let min = padc.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.6, "identical apps should progress evenly");
    }

    #[test]
    fn two_core_aggregate_runs_at_smoke_scale() {
        let t = fig9_2core(&ExpConfig::at(Scale::Smoke));
        assert_eq!(t.rows.len(), 5);
        assert!(t.get("demand-first", "WS").unwrap() > 0.0);
    }

    #[test]
    fn aggregate_plans_one_unit_per_workload_arm_pair_plus_alone() {
        let exp = ExpConfig::at(Scale::Smoke);
        let spec = fig16_spec();
        let units = spec.plan(&exp);
        let workloads = spec.workloads(&exp);
        let arm_count = (spec.arms)().len();
        let distinct: std::collections::HashSet<String> = workloads
            .iter()
            .flat_map(|w| w.benchmarks.iter().map(|b| b.name.clone()))
            .collect();
        assert_eq!(
            units.len(),
            distinct.len() + arm_count * workloads.len(),
            "plan = dedup'd alone units + one unit per (workload, arm)"
        );
        // Keys are unique — the reduce index must be able to address every
        // unit unambiguously.
        let keys: std::collections::HashSet<_> = units.iter().map(|u| u.key.clone()).collect();
        assert_eq!(keys.len(), units.len());
    }

    #[test]
    fn fig16_matches_legacy_sequential_computation() {
        use super::super::infra::{alone_ipcs, run_workload};
        let exp = ExpConfig::at(Scale::Smoke);
        let spec = fig16_spec();
        // Transcription of the pre-redesign single-closure `aggregate`
        // body: sequential alone normalization, then per-arm workload runs.
        let workloads = spec.workloads(&exp);
        let alone: Vec<Vec<f64>> = workloads.iter().map(|w| alone_ipcs(w, &exp)).collect();
        let mut legacy = ExpTable::new(spec.id, spec.title, &["WS", "HS", "UF", "traffic(lines)"]);
        for arm in (spec.arms)() {
            let outcomes: Vec<WorkloadOutcome> = workloads
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let r = run_workload(&arm, w, &exp);
                    WorkloadOutcome::from_report(&r, &alone[i])
                })
                .collect();
            let o = average_outcomes(&outcomes);
            legacy.push(arm.label, vec![o.ws, o.hs, o.uf, o.traffic_total]);
        }
        let planned = fig16_kind().tables(&exp).remove(0);
        assert_eq!(
            serde_json::to_string(&planned).unwrap(),
            serde_json::to_string(&legacy).unwrap(),
            "plan/execute/reduce must reproduce the legacy tables byte-for-byte"
        );
    }
}
