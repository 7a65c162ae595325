//! `padc-harness` — the experiment scheduler: parallel, fault-isolated
//! execution with one global thread bound.
//!
//! The experiment grid (30+ tables and figures, each internally a batch of
//! simulations) runs through this crate from every entry point — `repro`,
//! `padcsim --suite` and `padcsim serve`:
//!
//! - **Jobs**: each experiment becomes a self-describing [`JobSpec`] whose
//!   closure returns its result as a compact JSON payload string.
//! - **One worker pool**: a [`SuiteService`] owns N persistent workers
//!   (default `available_parallelism()`, overridable — the `--jobs N`
//!   flag) and runs every submitted batch on them. [`run_suite`] is its
//!   batch client: start a service, submit one job list, collect the rows
//!   in order, shut down. See [`service`].
//! - **Sub-jobs**: a running job fans out per-workload units via
//!   [`subjob_map`] onto the *same* pool (the submitting worker helps
//!   execute while it waits), so `--jobs N` bounds **total** simulation
//!   threads — not experiments × workloads. See [`subjob`].
//! - **Fault isolation**: every job runs under `catch_unwind`; a panicking
//!   job (or any of its sub-jobs) becomes a structured failure row and the
//!   suite keeps going.
//! - **Determinism**: results are emitted **in job order, keyed by id**,
//!   and rows contain no timing data, so `--jobs 1` and `--jobs 8` produce
//!   byte-identical JSONL. Timings go to the stderr progress line and the
//!   summary instead.
//! - **Resume**: a job carrying a settled row from a prior artifact
//!   ([`JobSpec::cached_row`], chosen by the caller — `padc_sim::resume`)
//!   is skipped — its original bytes are re-emitted verbatim in place,
//!   which keeps a resumed run byte-identical to a from-scratch one.
//! - **Accounting**: per-job wall-clock is measured; jobs exceeding an
//!   optional budget are recorded as structured failures (they are not
//!   killed — Rust threads cannot be — but the suite reports them).
//!
//! The crate writes one JSON shape, the JSONL row, with a hand-rolled
//! string escaper, and parses none: it has zero dependencies, so adding it
//! to a package (the `benchmark/` one) adds nothing to that lockfile.
//!
//! # JSONL schema
//!
//! One object per line, in job order:
//!
//! ```json
//! {"id":"fig6","status":"ok","result":<payload>}
//! {"id":"boom","status":"panicked","error":"<panic message>"}
//! {"id":"slow","status":"over_budget","budget_seconds":60,"result":<payload>}
//! ```
//!
//! `result` is the job's payload verbatim (already-serialized JSON). A
//! resumed row keeps whatever status its original run recorded (always
//! `ok` — only `ok` rows are trusted); the skip is visible in the summary,
//! never in the artifact.

#![warn(missing_docs)]

pub mod service;
pub mod subjob;

use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use service::{BatchHandle, CompletedJob, SuiteService};
pub use subjob::{subjob_map, under_harness};

/// One schedulable unit of work. Cloning is cheap (`run` is shared), so a
/// job list can be submitted to a service and kept by the caller.
#[derive(Clone)]
pub struct JobSpec {
    /// Stable identifier; keys the output row (e.g. `"fig6"`).
    pub id: String,
    /// Human-readable description for progress lines (e.g. the paper ref).
    pub description: String,
    /// Executes the job, returning its result as compact JSON. Must be
    /// deterministic for the suite's output to be deterministic.
    pub run: Arc<dyn Fn() -> String + Send + Sync>,
    /// Settled JSONL row (no trailing newline) from a prior artifact. When
    /// set, the scheduler skips `run` entirely and emits these bytes
    /// verbatim — the `--resume` path.
    pub cached_row: Option<String>,
}

impl JobSpec {
    /// Builds a job from any JSON-producing closure.
    pub fn new(
        id: impl Into<String>,
        description: impl Into<String>,
        run: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            id: id.into(),
            description: description.into(),
            run: Arc::new(run),
            cached_row: None,
        }
    }
}

/// Pool and accounting knobs of [`run_suite`].
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Worker threads; `0` means `available_parallelism()`.
    pub workers: usize,
    /// Optional per-job wall-clock budget; jobs that finish over it are
    /// recorded as failures.
    pub budget: Option<Duration>,
    /// Emit done/total + ETA progress lines.
    pub progress: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            workers: 0,
            budget: None,
            progress: true,
        }
    }
}

/// How one job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed normally.
    Ok,
    /// Panicked; the panic message is in [`CompletedJob::error`].
    Panicked,
    /// Completed but exceeded the configured wall-clock budget.
    OverBudget,
    /// Not executed: a settled row from a prior artifact was re-emitted
    /// verbatim (`--resume`). Never appears in JSONL rows — the cached
    /// bytes keep their original status.
    Skipped,
}

impl JobStatus {
    /// The status string used in JSONL rows (and summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Panicked => "panicked",
            JobStatus::OverBudget => "over_budget",
            JobStatus::Skipped => "skipped",
        }
    }
}

/// Suite-level accounting returned by [`run_suite`].
#[derive(Clone, Debug)]
pub struct Summary {
    /// Per-job completions, in job order.
    pub outcomes: Vec<CompletedJob>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Sub-job units executed through the shared pool (planned experiment
    /// units and per-workload fan-out; inline executions don't count).
    pub subjobs_executed: u64,
    /// Peak number of sub-job units in flight simultaneously. Cannot
    /// exceed `workers` — units only run on suite worker threads — which
    /// `crates/sim/tests/floors.rs` asserts.
    pub subjobs_peak_concurrent: u64,
}

impl Summary {
    /// Jobs that completed normally (executed this run).
    pub fn ok(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Ok)
            .count()
    }

    /// Jobs skipped because a settled row was resumed from a prior
    /// artifact.
    pub fn skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Skipped)
            .count()
    }

    /// Jobs recorded as failures (panicked or over budget).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, JobStatus::Panicked | JobStatus::OverBudget))
            .count()
    }
}

/// Appends `s` as a quoted JSON string (the crate's hand-rolled writer).
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one JSONL row. Public so tests can assert the exact bytes.
pub fn render_row(id: &str, status: JobStatus, detail: &RowDetail) -> String {
    let mut row = String::new();
    row.push_str("{\"id\":");
    write_json_string(&mut row, id);
    row.push_str(",\"status\":\"");
    row.push_str(status.as_str());
    row.push('"');
    match detail {
        RowDetail::Result(payload) => {
            row.push_str(",\"result\":");
            row.push_str(payload);
        }
        RowDetail::OverBudget {
            payload,
            budget_seconds,
        } => {
            row.push_str(&format!(",\"budget_seconds\":{budget_seconds}"));
            row.push_str(",\"result\":");
            row.push_str(payload);
        }
        RowDetail::Error(msg) => {
            row.push_str(",\"error\":");
            write_json_string(&mut row, msg);
        }
    }
    row.push_str("}\n");
    row
}

/// Status-specific part of a row.
pub enum RowDetail {
    /// Normal completion: the job's JSON payload.
    Result(String),
    /// Over-budget completion: payload plus the configured budget.
    OverBudget {
        /// The job's JSON payload (it did complete).
        payload: String,
        /// The configured budget, seconds.
        budget_seconds: u64,
    },
    /// Panic message.
    Error(String),
}

/// Runs `jobs` as one batch on a fresh [`SuiteService`], streaming JSONL
/// rows (in job order) to `jsonl` and one progress line per completion to
/// `progress`, then shuts the service down.
///
/// The service's pool is the *only* source of simulation threads: jobs run
/// on the N workers, and their [`subjob_map`] fan-outs are scheduled back
/// onto the same N workers. The worker count is therefore a true global
/// thread bound.
///
/// Jobs carrying a [`JobSpec::cached_row`] are not executed at all: the
/// settled row is re-emitted verbatim at its in-order position and the
/// outcome is reported as [`JobStatus::Skipped`].
///
/// The JSONL bytes depend only on the jobs' ids and payloads (or cached
/// rows) — not on the worker count or completion order — so runs with
/// different `--jobs` values are byte-identical.
///
/// # Errors
///
/// Returns the first I/O error from either sink; the jobs no worker has
/// started by then are dropped unexecuted. Job panics never abort the
/// suite.
pub fn run_suite(
    jobs: &[JobSpec],
    cfg: &HarnessConfig,
    mut jsonl: Option<&mut dyn Write>,
    progress: &mut dyn Write,
) -> io::Result<Summary> {
    let started = Instant::now();
    let service = SuiteService::new(cfg.workers, cfg.budget);
    let total = jobs.len();
    let mut done = 0usize;
    let completed = service.submit(jobs.to_vec()).collect_ordered(
        |c| {
            done += 1;
            if !cfg.progress {
                return Ok(());
            }
            let elapsed = started.elapsed().as_secs_f64();
            let eta = elapsed / done as f64 * (total - done) as f64;
            writeln!(
                progress,
                "[{done:>3}/{total}] {id:<10} {status:<11} {secs:>7.1}s | elapsed {elapsed:>7.1}s eta {eta:>7.1}s",
                id = c.id,
                status = c.status.as_str(),
                secs = c.seconds,
            )
        },
        |c| match jsonl.as_deref_mut() {
            Some(sink) => sink.write_all(c.row.as_bytes()),
            None => Ok(()),
        },
    )?;
    if let Some(sink) = jsonl {
        sink.flush()?;
    }
    Ok(Summary {
        outcomes: completed,
        workers: service.workers(),
        wall_seconds: started.elapsed().as_secs_f64(),
        subjobs_executed: service.subjobs_executed(),
        subjobs_peak_concurrent: service.subjobs_peak_concurrent(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_jsonl(jobs: &[JobSpec], cfg: &HarnessConfig) -> (String, Summary) {
        let mut jsonl = Vec::new();
        let mut progress = Vec::new();
        let summary = run_suite(jobs, cfg, Some(&mut jsonl), &mut progress).expect("io ok");
        (String::from_utf8(jsonl).expect("utf8"), summary)
    }

    fn quiet(workers: usize) -> HarnessConfig {
        HarnessConfig {
            workers,
            budget: None,
            progress: false,
        }
    }

    fn sleepy_jobs() -> Vec<JobSpec> {
        // Later jobs finish first under parallelism, exercising the
        // in-order flush.
        (0..6)
            .map(|i| {
                JobSpec::new(format!("job{i}"), "test", move || {
                    std::thread::sleep(Duration::from_millis(5 * (6 - i)));
                    format!("{{\"v\":{i}}}")
                })
            })
            .collect()
    }

    #[test]
    fn output_is_in_job_order_and_worker_count_independent() {
        let (seq, _) = collect_jsonl(&sleepy_jobs(), &quiet(1));
        let (par, summary) = collect_jsonl(&sleepy_jobs(), &quiet(4));
        assert_eq!(seq, par, "JSONL must be byte-identical across -j");
        assert_eq!(summary.workers, 4);
        let expect: String = (0..6)
            .map(|i| format!("{{\"id\":\"job{i}\",\"status\":\"ok\",\"result\":{{\"v\":{i}}}}}\n"))
            .collect();
        assert_eq!(seq, expect);
    }

    #[test]
    fn over_budget_jobs_are_recorded_but_not_dropped() {
        let jobs = vec![JobSpec::new("slow", "t", || {
            std::thread::sleep(Duration::from_millis(20));
            "{}".to_string()
        })];
        let cfg = HarnessConfig {
            workers: 1,
            budget: Some(Duration::from_millis(1)),
            progress: false,
        };
        let (jsonl, summary) = collect_jsonl(&jobs, &cfg);
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.outcomes[0].status, JobStatus::OverBudget);
        assert_eq!(
            jsonl,
            "{\"id\":\"slow\",\"status\":\"over_budget\",\"budget_seconds\":0,\"result\":{}}\n"
        );
    }

    #[test]
    fn summary_json_shape() {
        let jobs = vec![
            JobSpec::new("a", "t", || "1".to_string()),
            JobSpec::new("b", "t", || panic!("x")),
        ];
        let (_, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!((summary.ok(), summary.failed()), (1, 1));
        assert_eq!(summary.outcomes[1].error.as_deref(), Some("x"));
    }

    #[test]
    fn worker_resolution_clamps() {
        // Not clamped to the job count: sub-job fan-out can use every
        // worker even when there are fewer top-level jobs than workers.
        assert_eq!(collect_jsonl(&[], &quiet(8)).1.workers, 8);
        assert!(collect_jsonl(&[], &quiet(0)).1.workers >= 1);
    }

    /// A sink I/O error tears the batch down: `run_suite` returns the
    /// error and the jobs still queued are dropped, not run before the
    /// workers are joined. Every job but the first waits until the sink
    /// has failed, so none can finish before the error exists; running
    /// all of them would take the collector stalling for 15 x 20 ms.
    #[test]
    fn failing_jsonl_sink_returns_err_without_running_the_queued_jobs() {
        /// Fails every write; the first failure drops the sender, which
        /// releases every job waiting on the receiver.
        struct FailingSink(Option<std::sync::mpsc::Sender<()>>);
        impl Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0.take();
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        const TOTAL: usize = 16;
        let (failed_tx, failed_rx) = std::sync::mpsc::channel();
        let failed_rx = Arc::new(std::sync::Mutex::new(failed_rx));
        let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let jobs: Vec<JobSpec> = (0..TOTAL)
            .map(|i| {
                let (ran, failed_rx) = (Arc::clone(&ran), Arc::clone(&failed_rx));
                JobSpec::new(format!("job{i}"), "t", move || {
                    ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if i > 0 {
                        let _ = failed_rx.lock().expect("gate").recv();
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    "1".to_string()
                })
            })
            .collect();
        let mut sink = FailingSink(Some(failed_tx));
        let err = run_suite(&jobs, &quiet(1), Some(&mut sink), &mut io::sink())
            .expect_err("the sink error must surface");
        assert_eq!(err.to_string(), "disk full");
        let ran = ran.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            (1..TOTAL).contains(&ran),
            "{ran} of {TOTAL} jobs ran although the sink failed on the first row"
        );
    }

    #[test]
    fn cached_rows_skip_execution_and_are_emitted_verbatim() {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let jobs: Vec<JobSpec> = vec![
            JobSpec {
                cached_row: Some("{\"id\":\"a\",\"status\":\"ok\",\"result\":99}".into()),
                ..JobSpec::new("a", "t", {
                    let c = counter.clone();
                    move || {
                        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        "1".to_string()
                    }
                })
            },
            JobSpec::new("b", "t", {
                let c = counter.clone();
                move || {
                    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    "2".to_string()
                }
            }),
        ];
        let (jsonl, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!(
            jsonl,
            "{\"id\":\"a\",\"status\":\"ok\",\"result\":99}\n\
             {\"id\":\"b\",\"status\":\"ok\",\"result\":2}\n"
        );
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(summary.skipped(), 1);
        assert_eq!(summary.ok(), 1);
        assert_eq!(summary.failed(), 0);
        assert_eq!(summary.outcomes[0].status, JobStatus::Skipped);
        assert_eq!(summary.outcomes[0].seconds, 0.0);
    }

    #[test]
    fn empty_job_list_completes() {
        let (jsonl, summary) = collect_jsonl(&[], &quiet(2));
        assert!(jsonl.is_empty());
        assert!(summary.outcomes.is_empty());
    }

    #[test]
    fn subjobs_run_on_the_suite_pool_and_preserve_order() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|j| {
                JobSpec::new(format!("job{j}"), "t", move || {
                    let parts = subjob_map(8, |i| {
                        assert!(under_harness(), "sub-jobs must see the pool");
                        i * 10 + j
                    });
                    format!("{:?}", parts.iter().sum::<usize>())
                })
            })
            .collect();
        let (seq, _) = collect_jsonl(&jobs, &quiet(1));
        let (par, _) = collect_jsonl(&jobs, &quiet(4));
        assert_eq!(seq, par, "fan-out must not perturb JSONL bytes");
        for (j, line) in seq.lines().enumerate() {
            let expected: usize = (0..8).map(|i| i * 10 + j).sum();
            assert_eq!(
                line,
                format!("{{\"id\":\"job{j}\",\"status\":\"ok\",\"result\":{expected}}}")
            );
        }
    }

    #[test]
    fn subjob_panic_surfaces_as_the_parent_jobs_failure_row() {
        let jobs = vec![
            JobSpec::new("fanout", "t", || {
                let _ = subjob_map(4, |i| {
                    if i == 2 {
                        panic!("sub-unit {i} exploded");
                    }
                    i
                });
                "unreachable".to_string()
            }),
            JobSpec::new("after", "t", || "1".to_string()),
        ];
        let (jsonl, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.outcomes[0].status, JobStatus::Panicked);
        assert!(summary.outcomes[0]
            .error
            .as_deref()
            .unwrap()
            .contains("sub-unit 2 exploded"));
        assert!(jsonl
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("{\"id\":\"after\",\"status\":\"ok\""));
    }

    #[test]
    fn subjob_concurrency_never_exceeds_the_worker_count() {
        // Three jobs each fanning 8 units through a 2-worker pool: every
        // unit runs on a suite worker, so at most 2 are ever in flight,
        // and all 24 are accounted as executed.
        let jobs: Vec<JobSpec> = (0..3)
            .map(|j| {
                JobSpec::new(format!("job{j}"), "t", move || {
                    let parts = subjob_map(8, |i| {
                        std::thread::sleep(Duration::from_millis(1));
                        i + j
                    });
                    format!("{}", parts.len())
                })
            })
            .collect();
        let (_, summary) = collect_jsonl(&jobs, &quiet(2));
        assert_eq!(summary.subjobs_executed, 3 * 8);
        assert!(
            summary.subjobs_peak_concurrent <= 2,
            "peak {} exceeds the 2-worker bound",
            summary.subjobs_peak_concurrent
        );
        assert!(summary.subjobs_peak_concurrent >= 1);
    }

    #[test]
    fn subjob_map_runs_inline_without_a_pool() {
        assert!(!under_harness());
        let out = subjob_map(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        assert!(subjob_map(0, |i| i).is_empty());
    }

    #[test]
    fn progress_lines_report_done_total_and_eta() {
        let jobs = vec![
            JobSpec::new("a", "t", || "1".to_string()),
            JobSpec::new("b", "t", || "2".to_string()),
        ];
        let mut progress = Vec::new();
        let cfg = HarnessConfig {
            workers: 1,
            budget: None,
            progress: true,
        };
        run_suite(&jobs, &cfg, None, &mut progress).expect("io ok");
        let text = String::from_utf8(progress).expect("utf8");
        assert!(text.contains("[  1/2]"), "got: {text}");
        assert!(text.contains("[  2/2]"), "got: {text}");
        assert!(text.contains("eta"), "got: {text}");
    }
}
