//! The result file `run` and `trace` write, and `compare` over two of them.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::spec::{self, Better};
use crate::stats::Summary;

/// Schema tag of the result file.
pub const SCHEMA: &str = "padc-benchmark/1";

/// One reported metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The reported number: the median for a sampled metric.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Shape of the samples behind `value`; absent for a counter.
    pub samples: Option<Summary>,
}

impl Metric {
    /// A metric read once (a counter, a ratio of counters).
    pub fn single(value: f64, unit: &str) -> Self {
        Metric {
            value,
            unit: unit.to_string(),
            samples: None,
        }
    }

    /// The median of `samples`, with their shape recorded beside it.
    pub fn sampled(samples: &[f64], unit: &str) -> Self {
        let s = Summary::of(samples);
        Metric {
            value: s.median,
            unit: unit.to_string(),
            samples: Some(s),
        }
    }

    /// The spread this value inherits from its samples (none for a counter).
    fn median_spread(&self) -> f64 {
        self.samples.as_ref().map_or(0.0, Summary::spread_of_median)
    }
}

/// One correctness check, counted over everything it was applied to.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Times it was evaluated.
    pub attempted: u64,
    /// Times it did not hold.
    pub failed: u64,
}

/// Checks by name, in first-use order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    /// Counts one evaluation of check `name`.
    pub fn record(&mut self, name: &str, holds: bool) {
        self.merge(&[Check {
            name: name.to_string(),
            attempted: 1,
            failed: u64::from(!holds),
        }]);
    }

    /// Adds counts taken elsewhere (another process).
    pub fn merge(&mut self, checks: &[Check]) {
        for c in checks {
            match self.0.iter_mut().find(|m| m.name == c.name) {
                Some(m) => {
                    m.attempted += c.attempted;
                    m.failed += c.failed;
                }
                None => self.0.push(c.clone()),
            }
        }
    }

    /// `(attempted, failed)` over all checks.
    pub fn totals(&self) -> (u64, u64) {
        self.0
            .iter()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }
}

/// A span recorded individually.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Name of the span that caused it (empty for a root).
    pub parent: String,
    /// Workload the span belongs to: the identifier its spans share.
    pub workload: String,
    /// Start, ns since the recording process started.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Per-call spans, aggregated per (name, parent).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanTotal {
    /// Span name.
    pub name: String,
    /// Name of the enclosing span.
    pub parent: String,
    /// Sum of the calls' durations.
    pub total_ns: u64,
    /// Number of calls.
    pub count: u64,
}

/// Everything measured on one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Every check held.
    pub correct: bool,
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The checks, by name.
    pub checks: Vec<Check>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Iteration-level spans (traced runs only).
    pub spans: Vec<Span>,
    /// Aggregated per-call spans (traced runs only).
    pub span_totals: Vec<SpanTotal>,
}

/// A whole `run` or `trace`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// [`SCHEMA`].
    pub schema: String,
    /// `run` (tracing off, end-to-end metrics) or `trace` (per-layer).
    pub mode: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: f64,
    /// The `--tiny` size preset was used.
    pub tiny: bool,
    /// `available_parallelism` of the host: the suite workloads' worker count.
    pub nproc: u64,
    /// `/proc/loadavg` when the run started.
    pub loadavg_before: String,
    /// `/proc/loadavg` when it ended.
    pub loadavg_after: String,
    /// `key=value` pairs the caller passed (`run.sh`: rustc, git commit).
    pub meta: BTreeMap<String, String>,
    /// Per-workload results, in run order.
    pub workloads: Vec<WorkloadResult>,
}

/// How `compare` reads a difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareMode {
    /// B is a change measured against parent A: only worsening counts.
    Regression,
    /// A and B are the same commit: a difference either way counts.
    Agreement,
}

/// Verdict on one workload x metric pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Outside the bound.
    OutOfBound,
    /// The quartile spread a side's median inherits from its samples is wider
    /// than the bound, so the bound cannot be resolved from these runs.
    Unresolved,
}

/// One line of `compare` output.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every workload x end-to-end metric present in both files.
pub fn compare(a: &ResultFile, b: &ResultFile, mode: CompareMode) -> Vec<Comparison> {
    let mut out = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for m in &spec::END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metrics.get(m.name), wb.metrics.get(m.name)) else {
                continue;
            };
            let worse_by = worse_by(ma.value, mb.value, m.better);
            let distance = match mode {
                CompareMode::Regression => worse_by,
                CompareMode::Agreement => worse_by.abs(),
            };
            let verdict = if ma.median_spread() > m.bound || mb.median_spread() > m.bound {
                if mode == CompareMode::Regression && strictly_better(ma, mb, m.better) {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                }
            } else if distance > m.bound {
                Verdict::OutOfBound
            } else {
                Verdict::Ok
            };
            out.push(Comparison {
                workload: wa.name.clone(),
                metric: m.name,
                a: ma.value,
                b: mb.value,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
    }
    out
}

/// Share of `a` by which `b` is worse. With a zero baseline any worsening is
/// infinite and equality is zero.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// Every sample of `b` reads better than every sample of `a`.
fn strictly_better(a: &Metric, b: &Metric, better: Better) -> bool {
    let range = |m: &Metric| {
        m.samples
            .as_ref()
            .map_or((m.value, m.value), |s| (s.min, s.max))
    };
    let ((a_min, a_max), (b_min, b_max)) = (range(a), range(b));
    match better {
        Better::Lower => b_max < a_min,
        Better::Higher => b_min > a_max,
    }
}

/// Renders comparisons as an aligned table.
pub fn render(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<11} {:<21} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::OutOfBound => "OUT OF BOUND",
            Verdict::Unresolved => "unresolved",
        };
        out.push_str(&format!(
            "{:<11} {:<21} {:>14.6} {:>14.6} {:>8.2}% {:>5.0}%  {verdict}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(wall: &[f64], gap: f64) -> ResultFile {
        let mut metrics = BTreeMap::new();
        metrics.insert("wall_s".to_string(), Metric::sampled(wall, "s"));
        metrics.insert("paper_ipc_gap_pp".to_string(), Metric::single(gap, "pp"));
        ResultFile {
            schema: SCHEMA.to_string(),
            mode: "run".to_string(),
            seed: 1,
            seconds: 1.0,
            tiny: true,
            nproc: 2,
            loadavg_before: String::new(),
            loadavg_after: String::new(),
            meta: BTreeMap::new(),
            workloads: vec![WorkloadResult {
                name: "suite-cold".to_string(),
                correct: true,
                attempted: 1,
                failed: 0,
                checks: Vec::new(),
                metrics,
                spans: Vec::new(),
                span_totals: Vec::new(),
            }],
        }
    }

    fn verdicts(a: &ResultFile, b: &ResultFile, mode: CompareMode) -> Vec<Verdict> {
        compare(a, b, mode).iter().map(|c| c.verdict).collect()
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_out() {
        let a = file(&[1.0, 1.0, 1.0], 7.7);
        let same = file(&[1.01, 1.01, 1.01], 7.7);
        assert_eq!(
            verdicts(&a, &same, CompareMode::Regression),
            [Verdict::Ok, Verdict::Ok]
        );
        let slow = file(&[1.5, 1.5, 1.5], 7.7);
        assert_eq!(
            verdicts(&a, &slow, CompareMode::Regression)[0],
            Verdict::OutOfBound
        );
        // A faster B is no regression, but two sets of one commit disagree.
        assert_eq!(verdicts(&slow, &a, CompareMode::Regression)[0], Verdict::Ok);
        assert_eq!(
            verdicts(&slow, &a, CompareMode::Agreement)[0],
            Verdict::OutOfBound
        );
    }

    #[test]
    fn a_zero_bound_metric_must_repeat_exactly() {
        let a = file(&[1.0], 7.7);
        let moved = file(&[1.0], 7.8);
        assert_eq!(
            verdicts(&a, &moved, CompareMode::Regression)[1],
            Verdict::OutOfBound
        );
        assert_eq!(
            verdicts(&moved, &a, CompareMode::Regression)[1],
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_sample_is_better() {
        let noisy = file(&[1.0, 1.5, 2.5, 3.0], 7.7);
        let a = file(&[1.8, 1.8, 1.8], 7.7);
        assert_eq!(
            verdicts(&a, &noisy, CompareMode::Regression)[0],
            Verdict::Unresolved
        );
        let fast = file(&[0.1, 0.2, 0.3, 0.4], 7.7);
        assert_eq!(verdicts(&a, &fast, CompareMode::Regression)[0], Verdict::Ok);
    }

    #[test]
    fn checks_accumulate_by_name() {
        let mut c = Checks::default();
        c.record("a", true);
        c.record("b", false);
        c.record("a", false);
        let mut all = Checks::default();
        all.merge(&c.0);
        all.merge(&c.0);
        assert_eq!(all.totals(), (6, 4));
        assert_eq!(all.0[0].name, "a");
        assert_eq!((all.0[0].attempted, all.0[0].failed), (4, 2));
    }

    #[test]
    fn result_files_round_trip_through_json() {
        let a = file(&[1.0, 2.0, 3.0], 7.7);
        let text = serde_json::to_string_pretty(&a).unwrap();
        assert_eq!(serde_json::from_str::<ResultFile>(&text).unwrap(), a);
    }
}
