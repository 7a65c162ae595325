//! Integration tests for the unified scheduler: `--jobs N` as a *total*
//! thread bound (jobs plus their per-workload sub-job fan-out share one
//! pool).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use padc_harness::{run_suite, subjob_map, HarnessConfig, JobSpec};

fn quiet(workers: usize) -> HarnessConfig {
    HarnessConfig {
        workers,
        budget: None,
        progress: false,
    }
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
