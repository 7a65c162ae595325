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

/// One planned simulation: the exact system and the benchmarks (one per
/// core) it runs. Its identity is its [`store_meta`](Self::store_meta)
/// digest; a reduce reads its report by its position in the plan.
#[derive(Clone, Debug)]
pub struct SimUnit {
    config: SimConfig,
    benchmarks: Vec<BenchProfile>,
}

impl SimUnit {
    /// Plans `config` over the multiprogrammed workload `w` at `exp`'s
    /// multi-core instruction budget and seed.
    pub fn workload(mut config: SimConfig, w: &Workload, exp: &ExpConfig) -> Self {
        config.max_instructions = exp.instructions;
        config.seed = exp.seed;
        let benchmarks = w.benchmarks.clone();
        SimUnit { config, benchmarks }
    }

    /// Plans `config` as a single-core run of `bench` (a grid cell or an
    /// `IPC_alone` reference) at `exp`'s single-core budget and seed.
    pub fn single(mut config: SimConfig, bench: &BenchProfile, exp: &ExpConfig) -> Self {
        config.max_instructions = exp.instructions_single;
        config.seed = exp.seed;
        let benchmarks = vec![bench.clone()];
        SimUnit { config, benchmarks }
    }

    /// Plans the canonical §5.2 `IPC_alone` run of `bench` (single-core,
    /// demand-first) used to normalize every multi-core metric: the same
    /// config, hence the same digest, as the grids' demand-first cells.
    pub fn alone(bench: &BenchProfile, exp: &ExpConfig) -> Self {
        let config = SimConfig::single_core(SchedulingPolicy::DemandFirst);
        Self::single(config, bench, exp)
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
    /// Arm labels and group names never enter it: two arms that build
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

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

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
            let plan = crate::experiments::find(id).expect("registered").plan(&exp);
            for (i, unit) in plan.iter().enumerate() {
                if !seen.insert(unit.store_meta()) {
                    continue;
                }
                let mut off = System::new(unit.config.clone(), unit.benchmarks.clone());
                off.set_fast_forward_mode(crate::FastForwardMode::Off);
                let json = |r: &Report| serde_json::to_string(r).expect("report serializes");
                assert_eq!(json(&off.run()), json(&unit.execute().0), "{id}: unit {i}");
            }
        }
        assert!(!seen.is_empty(), "the experiments planned no units");
    }
}
