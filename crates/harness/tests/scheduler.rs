//! Integration tests for the unified scheduler and `--resume`:
//! `--jobs N` as a *total* thread bound (jobs plus their per-workload
//! sub-job fan-out share one pool), and resume-artifact trust semantics
//! (settled rows skipped verbatim, everything else re-run).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use padc_harness::{run_suite, subjob_map, HarnessConfig, JobSpec, JobStatus};
use padc_sim::resume::ResumeArtifact;

fn quiet(workers: usize) -> HarnessConfig {
    HarnessConfig {
        workers,
        budget: None,
        progress: false,
    }
}

fn run_to_string(jobs: &[JobSpec], workers: usize) -> String {
    let mut jsonl = Vec::new();
    let mut progress = Vec::new();
    run_suite(jobs, &quiet(workers), Some(&mut jsonl), &mut progress).expect("suite I/O");
    String::from_utf8(jsonl).expect("utf8")
}

/// Tracks how many instrumented sections run concurrently and the high
/// water mark ever observed.
#[derive(Default)]
struct Gauge {
    current: AtomicUsize,
    max: AtomicUsize,
}

impl Gauge {
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
    }
    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }
    fn high_water(&self) -> usize {
        self.max.load(Ordering::SeqCst)
    }
}

/// The acceptance criterion for the unified scheduler: with `--jobs N`,
/// the number of simultaneously executing simulation units — counting the
/// per-workload fan-out *inside* jobs, not just top-level jobs — never
/// exceeds N. Units sleep so that overlap (the bug this guards against:
/// nested pools multiplying threads) would be observed even on a single
/// CPU; on a 1-CPU host the bound holds trivially, on multi-core CI this
/// is the regression contract.
#[test]
fn jobs_flag_bounds_total_simulation_threads_including_fanout() {
    for workers in [1usize, 2, 4] {
        let gauge = Arc::new(Gauge::default());
        let jobs: Vec<JobSpec> = (0..3)
            .map(|j| {
                let gauge = Arc::clone(&gauge);
                JobSpec::new(format!("fanout{j}"), "t", move || {
                    let units = subjob_map(6, |i| {
                        gauge.enter();
                        std::thread::sleep(Duration::from_millis(10));
                        gauge.exit();
                        i
                    });
                    assert_eq!(units, (0..6).collect::<Vec<_>>());
                    "{}".to_string()
                })
            })
            .collect();
        let mut progress = Vec::new();
        let summary = run_suite(&jobs, &quiet(workers), None, &mut progress).expect("suite I/O");
        assert_eq!(summary.ok(), 3);
        assert!(
            gauge.high_water() <= workers,
            "{} units ran concurrently under --jobs {workers}",
            gauge.high_water()
        );
        assert!(gauge.high_water() >= 1);
    }
}

/// Fan-out work is actually overlapped: one job fanning out 8 sleep units
/// on 4 workers must beat the sequential wall-clock by at least 2x.
#[test]
fn fanout_units_overlap_across_suite_workers() {
    let time = |workers: usize| {
        let jobs = vec![JobSpec::new("fanout", "t", || {
            subjob_map(8, |_| std::thread::sleep(Duration::from_millis(40)));
            "{}".to_string()
        })];
        let start = std::time::Instant::now();
        let mut progress = Vec::new();
        run_suite(&jobs, &quiet(workers), None, &mut progress).expect("suite I/O");
        start.elapsed()
    };
    let seq = time(1);
    let par = time(4);
    assert!(
        seq.as_secs_f64() >= 2.0 * par.as_secs_f64(),
        "expected >=2x speedup fanning out on 4 workers: sequential {seq:?}, parallel {par:?}"
    );
}

/// Builds a 3-job suite whose executions are counted, with rows of
/// `artifact` attached as cached rows exactly as the CLIs do.
fn counted_jobs(artifact: &ResumeArtifact, runs: &Arc<AtomicUsize>) -> Vec<JobSpec> {
    (0..3)
        .map(|j| {
            let runs = Arc::clone(runs);
            let mut job = JobSpec::new(format!("job{j}"), "t", move || {
                runs.fetch_add(1, Ordering::SeqCst);
                format!("{{\"value\":{j}}}")
            });
            if let Some(row) = artifact.row(&format!("job{j}")) {
                job.cached_row = Some(row.to_string());
            }
            job
        })
        .collect()
}

/// A fully settled artifact resumes with zero executions and byte-identical
/// output — the `--resume` acceptance criterion.
#[test]
fn complete_artifact_resumes_with_zero_executions_and_identical_bytes() {
    let runs = Arc::new(AtomicUsize::new(0));
    let first = run_to_string(&counted_jobs(&ResumeArtifact::default(), &runs), 2);
    assert_eq!(runs.load(Ordering::SeqCst), 3);

    let artifact = ResumeArtifact::parse(&first);
    assert_eq!(artifact.len(), 3);
    let resumed = run_to_string(&counted_jobs(&artifact, &runs), 2);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        3,
        "resume must execute nothing"
    );
    assert_eq!(resumed, first, "resumed artifact must be byte-identical");
}

/// A truncated final row (torn write from a crashed run) is distrusted and
/// re-run; the repaired artifact matches the pristine one byte for byte.
#[test]
fn truncated_rows_are_rerun_and_repaired() {
    let runs = Arc::new(AtomicUsize::new(0));
    let first = run_to_string(&counted_jobs(&ResumeArtifact::default(), &runs), 2);
    let torn = &first[..first.len() - 5];

    let artifact = ResumeArtifact::parse(torn);
    assert_eq!(artifact.len(), 2);
    assert_eq!(artifact.lines_rejected, 1);
    runs.store(0, Ordering::SeqCst);
    let repaired = run_to_string(&counted_jobs(&artifact, &runs), 2);
    assert_eq!(runs.load(Ordering::SeqCst), 1, "only the torn row re-runs");
    assert_eq!(repaired, first);
}

/// Failure rows (panicked / over-budget) are never trusted: resuming an
/// artifact with a failure row retries that experiment.
#[test]
fn failure_rows_are_retried_on_resume() {
    let with_failure = concat!(
        "{\"id\":\"job0\",\"status\":\"ok\",\"result\":{\"value\":0}}\n",
        "{\"id\":\"job1\",\"status\":\"panicked\",\"error\":\"boom\"}\n",
        "{\"id\":\"job2\",\"status\":\"over_budget\",\"error\":\"90s\"}\n",
    );
    let artifact = ResumeArtifact::parse(with_failure);
    assert_eq!(artifact.len(), 1, "only the ok row is settled");

    let runs = Arc::new(AtomicUsize::new(0));
    let text = run_to_string(&counted_jobs(&artifact, &runs), 2);
    assert_eq!(runs.load(Ordering::SeqCst), 2, "both failure rows retry");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "{\"id\":\"job0\",\"status\":\"ok\",\"result\":{\"value\":0}}"
    );
    assert_eq!(
        lines[1],
        "{\"id\":\"job1\",\"status\":\"ok\",\"result\":{\"value\":1}}"
    );
    assert_eq!(
        lines[2],
        "{\"id\":\"job2\",\"status\":\"ok\",\"result\":{\"value\":2}}"
    );
}

/// Skipped jobs surface in the summary as `Skipped`, keep their original
/// row bytes, and don't count as ok or failed.
#[test]
fn skipped_outcomes_are_reported_distinctly() {
    let artifact =
        ResumeArtifact::parse("{\"id\":\"job1\",\"status\":\"ok\",\"result\":{\"value\":1}}\n");
    let runs = Arc::new(AtomicUsize::new(0));
    let jobs = counted_jobs(&artifact, &runs);
    let mut jsonl = Vec::new();
    let mut progress = Vec::new();
    let summary = run_suite(&jobs, &quiet(1), Some(&mut jsonl), &mut progress).expect("suite I/O");
    assert_eq!(summary.ok(), 2);
    assert_eq!(summary.skipped(), 1);
    assert_eq!(summary.failed(), 0);
    assert_eq!(summary.outcomes[1].status, JobStatus::Skipped);
    assert_eq!(summary.outcomes[1].seconds, 0.0);
}
