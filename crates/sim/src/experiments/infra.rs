use std::collections::{HashMap, HashSet};
use std::fmt;

use padc_core::SchedulingPolicy;
use padc_workloads::{BenchProfile, Workload};
use serde::{Deserialize, Serialize};

use crate::profile::SimProfile;
use crate::{Report, SimConfig, System};

/// Preset experiment scales, from paper-scale runs down to test smoke.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Scale {
    /// Paper-scale workload counts at a laptop-friendly instruction budget.
    Full,
    /// Reduced scale for quick looks.
    Quick,
    /// Tiny scale for the test suite.
    Smoke,
}

/// Scale knobs shared by all experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ExpConfig {
    /// Instructions each core retires before its stats freeze
    /// (multi-core runs).
    pub instructions: u64,
    /// Instructions for single-core runs (cheaper, so they run longer —
    /// long enough for the larger single-core L2 to wrap and exercise
    /// pollution/writeback effects).
    pub instructions_single: u64,
    /// Multiprogrammed workloads per multi-core aggregate (the paper uses
    /// 54 / 32 / 21 for 2 / 4 / 8 cores).
    pub workloads_2core: usize,
    /// 4-core workload count.
    pub workloads_4core: usize,
    /// 8-core workload count.
    pub workloads_8core: usize,
    /// Workload count for parameter sweeps (each sweep point re-runs the
    /// whole set, so sweeps use a smaller sample).
    pub workloads_sweep: usize,
    /// Workload-selection and trace seed.
    pub seed: u64,
}

impl ExpConfig {
    /// The configuration for a preset [`Scale`].
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => ExpConfig {
                instructions: 400_000,
                instructions_single: 800_000,
                workloads_2core: 32,
                workloads_4core: 24,
                workloads_8core: 12,
                workloads_sweep: 8,
                seed: 1,
            },
            Scale::Quick => ExpConfig {
                instructions: 120_000,
                instructions_single: 250_000,
                workloads_2core: 10,
                workloads_4core: 8,
                workloads_8core: 5,
                workloads_sweep: 4,
                seed: 1,
            },
            Scale::Smoke => ExpConfig {
                instructions: 25_000,
                instructions_single: 30_000,
                workloads_2core: 2,
                workloads_4core: 2,
                workloads_8core: 1,
                workloads_sweep: 1,
                seed: 1,
            },
        }
    }

    /// Returns the config with a different workload/trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self::at(Scale::Full)
    }
}

/// One result table: the rows/series of one paper figure or table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpTable {
    /// Experiment id (e.g. `"fig6"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers (after the row label).
    pub columns: Vec<String>,
    /// Rows: label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl ExpTable {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        ExpTable {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Looks up a cell by row label and column name.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|(label, _)| label == row)
            .map(|(_, vals)| vals[col])
    }
}

impl fmt::Display for ExpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4)
            .max(4);
        write!(f, "{:<label_w$}", "")?;
        for c in &self.columns {
            write!(f, " {:>14}", c)?;
        }
        writeln!(f)?;
        for (label, vals) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for v in vals {
                if v.abs() >= 1000.0 {
                    write!(f, " {:>14.0}", v)?;
                } else {
                    write!(f, " {:>14.3}", v)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Arm label of the canonical `IPC_alone` run (§5.2): single-core,
/// demand-first — the same configuration, hence the same cache digest, as
/// the demand-first arm of the single-core grids.
const ALONE_LABEL: &str = "demand-first";

/// Deterministic identity of one planned simulation.
///
/// Within one experiment's plan, two units with equal keys are the same
/// simulation: the arm label names a system, `variant` disambiguates
/// systems that reuse a label (sweep points, open vs closed row), and
/// benchmarks/instructions/seed pin the inputs. The key is how `reduce`
/// addresses a result; what is *cached* is keyed by the digest of the full
/// inputs ([`SimUnit::store_meta`]), never by the key.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// Policy-arm label (the paper legend).
    pub arm: String,
    /// Config variant within the experiment: the arm's group name (`""`
    /// when the arm label already determines the config; e.g. `"2KB"` for
    /// a sweep point), or `"alone"` for single-core runs.
    pub variant: String,
    /// Benchmark names in core order (one entry for alone runs).
    pub benchmarks: Vec<String>,
    /// Instruction budget per core.
    pub instructions: u64,
    /// Workload/trace seed.
    pub seed: u64,
}

impl UnitKey {
    /// Key of a multiprogrammed run of `w` under `arm`.
    pub fn workload(arm: &str, variant: &str, w: &Workload, exp: &ExpConfig) -> Self {
        UnitKey {
            arm: arm.to_string(),
            variant: variant.to_string(),
            benchmarks: w.benchmarks.iter().map(|b| b.name.clone()).collect(),
            instructions: exp.instructions,
            seed: exp.seed,
        }
    }

    /// Key of a single-core run of `bench` under `arm` (grid cells and
    /// `IPC_alone` normalization runs; note the single-core instruction
    /// budget).
    pub fn single(arm: &str, bench: &BenchProfile, exp: &ExpConfig) -> Self {
        UnitKey {
            arm: arm.to_string(),
            variant: "alone".to_string(),
            benchmarks: vec![bench.name.clone()],
            instructions: exp.instructions_single,
            seed: exp.seed,
        }
    }

    /// Key of the canonical §5.2 `IPC_alone` run of `bench`.
    pub fn alone(bench: &BenchProfile, exp: &ExpConfig) -> Self {
        Self::single(ALONE_LABEL, bench, exp)
    }
}

/// One planned simulation: a deterministic key plus the exact system and
/// benchmarks (one per core) it runs.
#[derive(Clone, Debug)]
pub struct SimUnit {
    /// The unit's deterministic identity.
    pub key: UnitKey,
    config: SimConfig,
    benchmarks: Vec<BenchProfile>,
}

impl SimUnit {
    /// Plans `config` over `benchmarks` under `key`; the config takes the
    /// key's instruction budget and seed.
    pub fn new(key: UnitKey, mut config: SimConfig, benchmarks: Vec<BenchProfile>) -> Self {
        config.max_instructions = key.instructions;
        config.seed = key.seed;
        SimUnit {
            key,
            config,
            benchmarks,
        }
    }

    /// Plans the canonical §5.2 `IPC_alone` run of `bench` (single-core,
    /// demand-first) used to normalize every multi-core metric.
    pub fn alone(bench: &BenchProfile, exp: &ExpConfig) -> Self {
        Self::new(
            UnitKey::alone(bench, exp),
            SimConfig::single_core(SchedulingPolicy::DemandFirst),
            vec![bench.clone()],
        )
    }

    /// Whether this is a single-core run (a grid cell or an `IPC_alone`
    /// reference) — the units [`single_run_stats`](super::single_run_stats)
    /// counts.
    pub(crate) fn is_single_core(&self) -> bool {
        self.benchmarks.len() == 1
    }

    /// The exact configuration this unit simulates.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation this unit names, returning its report and the
    /// run's hot-path profile. The report is deterministic: it depends only
    /// on the unit's config and benchmarks.
    pub fn execute(&self) -> (Report, SimProfile) {
        let mut sys = System::new(self.config.clone(), self.benchmarks.clone());
        (sys.run(), *sys.profile())
    }

    /// The unit's content-address document: the simulator fingerprint plus
    /// the **full** result-shaping inputs — the exact [`SimConfig`]
    /// [`execute`](Self::execute) runs and the benchmark profiles it runs
    /// it over, serialized to canonical JSON. Its SHA-256 digest keys both
    /// a suite's dedupe and the persistent store.
    ///
    /// Labels and variants are deliberately excluded: two arms that build
    /// identical configs (the `IPC_alone` arm and the grids' demand-first
    /// arm, the same arm in two experiments) share one entry. Knobs proven
    /// observationally equivalent (the fast-forward mode) are also
    /// excluded — DESIGN.md §12 states the soundness rule and when
    /// [`RESULT_SCHEMA_VERSION`](super::RESULT_SCHEMA_VERSION) must be
    /// bumped instead.
    pub fn store_meta(&self) -> String {
        // One buffer, each part streamed into it: this runs once per
        // requested unit, warm store hits included.
        let mut meta = String::with_capacity(2048);
        meta.push_str("{\"fingerprint\":");
        serde_json::write_json(&mut meta, super::unit_cache::fingerprint());
        meta.push_str(",\"config\":");
        serde_json::write_json(&mut meta, &self.config);
        meta.push_str(",\"benchmarks\":");
        serde_json::write_json(&mut meta, &self.benchmarks);
        meta.push('}');
        meta
    }
}

/// The report of one executed [`SimUnit`].
#[derive(Clone, Debug)]
pub struct UnitResult {
    /// The unit's identity.
    pub key: UnitKey,
    /// The simulation report.
    pub report: Report,
}

/// Key-indexed view over a slice of unit results, for `reduce` phases.
pub struct UnitResults<'a> {
    by_key: HashMap<&'a UnitKey, &'a Report>,
}

impl<'a> UnitResults<'a> {
    /// Indexes `results` by key.
    pub fn new(results: &'a [UnitResult]) -> Self {
        UnitResults {
            by_key: results.iter().map(|r| (&r.key, &r.report)).collect(),
        }
    }

    /// The report for `key`.
    ///
    /// # Panics
    ///
    /// Panics if the plan did not produce a unit with this key — a bug in
    /// the experiment's plan/reduce pairing, not a runtime condition.
    pub fn get(&self, key: &UnitKey) -> &'a Report {
        self.by_key
            .get(key)
            .unwrap_or_else(|| panic!("reduce requested unplanned unit {key:?}"))
    }

    /// `IPC_alone` for each benchmark of a workload (canonical §5.2 runs).
    pub fn alone_ipcs(&self, w: &Workload, exp: &ExpConfig) -> Vec<f64> {
        w.benchmarks
            .iter()
            .map(|b| self.get(&UnitKey::alone(b, exp)).per_core[0].ipc())
            .collect()
    }
}

/// Plans the deduplicated set of `IPC_alone` units for a workload set:
/// one unit per *distinct* benchmark, in first-appearance order. A suite
/// dedupes further across experiments, so each normalization run is
/// computed once per suite.
pub fn plan_alone_units(workloads: &[Workload], exp: &ExpConfig) -> Vec<SimUnit> {
    let mut seen = HashSet::new();
    let mut units = Vec::new();
    for w in workloads {
        for b in &w.benchmarks {
            if seen.insert(b.name.clone()) {
                units.push(SimUnit::alone(b, exp));
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_prints() {
        let mut t = ExpTable::new("figX", "demo", &["WS", "HS"]);
        t.push("demand-first", vec![1.0, 0.5]);
        t.push("PADC", vec![1.1, 0.6]);
        assert_eq!(t.get("PADC", "WS"), Some(1.1));
        assert_eq!(t.get("PADC", "missing"), None);
        assert_eq!(t.get("missing", "WS"), None);
        let s = t.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("demand-first"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = ExpTable::new("x", "x", &["a", "b"]);
        t.push("r", vec![1.0]);
    }

    #[test]
    fn exp_config_scales_are_ordered() {
        let smoke = ExpConfig::at(Scale::Smoke);
        let quick = ExpConfig::at(Scale::Quick);
        let full = ExpConfig::at(Scale::Full);
        assert!(smoke.instructions < quick.instructions);
        assert!(quick.instructions <= full.instructions);
        assert!(full.workloads_4core >= 24);
        assert!(full.instructions_single >= full.instructions);
    }

    #[test]
    fn default_config_is_full_scale() {
        assert_eq!(ExpConfig::default(), ExpConfig::at(Scale::Full));
    }

    #[test]
    fn unit_keys_identify_simulations() {
        let exp = ExpConfig::at(Scale::Smoke);
        let w = Workload::from_names(&["milc_06", "swim_00"]);
        let k1 = UnitKey::workload("aps-only", "", &w, &exp);
        let k2 = UnitKey::workload("aps-only", "", &w, &exp);
        assert_eq!(k1, k2);
        assert_ne!(k1, UnitKey::workload("aps-only", "row=2KB", &w, &exp));
        assert_ne!(k1, UnitKey::workload("aps-only", "", &w, &exp.with_seed(2)));
        let b = &w.benchmarks[0];
        assert_eq!(UnitKey::alone(b, &exp).arm, "demand-first");
        assert_eq!(
            UnitKey::alone(b, &exp).instructions,
            exp.instructions_single
        );
    }

    #[test]
    fn plan_alone_units_dedupes_across_workloads() {
        let exp = ExpConfig::at(Scale::Smoke);
        let workloads = vec![
            Workload::from_names(&["milc_06", "swim_00"]),
            Workload::from_names(&["swim_00", "lbm_06"]),
        ];
        let units = plan_alone_units(&workloads, &exp);
        let names: Vec<_> = units.iter().map(|u| u.key.benchmarks[0].clone()).collect();
        assert_eq!(names, vec!["milc_06", "swim_00", "lbm_06"]);
    }

    /// SHA-256 of every distinct store meta the registry plans at smoke
    /// scale, in plan order, each followed by `\n`. A meta's digest is its
    /// store key, so moving a byte of any meta orphans every store entry:
    /// re-record this only beside a deliberate store-format change.
    const SMOKE_METAS: (usize, &str) = (
        455,
        "95d3554b4de0c477b541163df32541a6aa4388066f97aaf6a2899c4701107d7d",
    );

    #[test]
    fn planned_metas_match_their_recorded_digest() {
        let exp = ExpConfig::at(Scale::Smoke);
        let mut seen = HashSet::new();
        let mut metas = String::new();
        for e in crate::experiments::REGISTRY {
            for unit in e.plan(&exp) {
                let meta = unit.store_meta();
                if seen.insert(meta.clone()) {
                    metas.push_str(&meta);
                    metas.push('\n');
                }
            }
        }
        let digest = padc_store::digest_hex(metas.as_bytes());
        assert_eq!((seen.len(), digest.as_str()), SMOKE_METAS);
    }

    /// A unit's digest leaves the stepping mode out because the mode is
    /// invisible in results: every distinct unit that one experiment per
    /// family plans at smoke scale reports the same bytes stepped cycle by
    /// cycle as [`SimUnit::execute`] does.
    #[test]
    fn every_planned_unit_reports_the_same_bytes_cycle_by_cycle() {
        const IDS: [&str; 12] = [
            "fig1",
            "fig2",
            "tab5",
            "tab6",
            "tab7",
            "cost",
            "fig9",
            "fig23",
            "fig28",
            "ext-dspatch",
            "ext-happy",
            "ext-refresh",
        ];
        let exp = ExpConfig::at(Scale::Smoke);
        let mut seen = HashSet::new();
        for id in IDS {
            for unit in crate::experiments::find(id).expect("registered").plan(&exp) {
                if !seen.insert(unit.store_meta()) {
                    continue;
                }
                let mut off = System::new(unit.config.clone(), unit.benchmarks.clone());
                off.set_fast_forward_mode(crate::FastForwardMode::Off);
                let json = |r: &Report| serde_json::to_string(r).expect("report serializes");
                assert_eq!(
                    json(&off.run()),
                    json(&unit.execute().0),
                    "{id}: {:?}",
                    unit.key
                );
            }
        }
        assert!(!seen.is_empty(), "the experiments planned no units");
    }
}
