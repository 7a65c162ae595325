//! Integration tests: the harness engine driving the real experiment
//! registry from `padc-sim` (a dev-dependency — at build time the sim
//! depends on the harness, not vice versa).

// One definition of the byte-comparison helper for both packages' tests.
#[path = "../../sim/tests/common/mod.rs"]
mod common;

use std::collections::HashSet;
use std::sync::Mutex;

use padc_harness::{run_suite, HarnessConfig, JobSpec, JobStatus};
use padc_sim::experiments::{
    find, reset_memory_cells, select, single_run_stats, suite_jobs, suite_jobs_profiled, ExpConfig,
    Scale, REGISTRY,
};

fn quiet(workers: usize) -> HarnessConfig {
    HarnessConfig {
        workers,
        budget: None,
        progress: false,
    }
}

/// Registry → jobs is a bijection: every experiment entry point appears as
/// exactly one job, in registry order.
#[test]
fn registry_enumerates_every_entry_point_exactly_once() {
    let expected: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(
        expected.iter().collect::<HashSet<_>>().len(),
        expected.len(),
        "registry ids must be unique"
    );

    let all = select(&[]).expect("no ids selects the registry");
    let jobs = suite_jobs(all, ExpConfig::at(Scale::Smoke), None);
    let job_ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(
        job_ids, expected,
        "jobs must mirror the registry 1:1 in order"
    );
    for job in &jobs {
        assert!(
            !job.description.is_empty(),
            "{} lacks a description",
            job.id
        );
    }
}

/// Serializes the tests that run real experiments: they share the
/// process-wide claim map and simulated-unit counter.
static CLAIM_MAP: Mutex<()> = Mutex::new(());

/// The determinism contract on one experiment per family (single-core
/// grids, micro-benchmarks, multi-core aggregate, parameter sweep, shared
/// alone-unit plan, and the three mechanism-arm families): the JSONL is
/// byte-identical on 1 and 8 workers (inline vs pool). Each run starts
/// from an empty claim map and must schedule the same sub-jobs again —
/// otherwise the second run is served from memory and compares nothing.
#[test]
fn jsonl_is_byte_identical_across_worker_counts() {
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
    let _serial = CLAIM_MAP.lock().unwrap_or_else(|e| e.into_inner());
    let run = |workers: usize| {
        reset_memory_cells();
        let selected = IDS
            .iter()
            .map(|id| find(id).expect("registered experiment id"))
            .collect();
        let jobs = suite_jobs(selected, ExpConfig::at(Scale::Smoke), None);
        let mut jsonl = Vec::new();
        let summary = run_suite(&jobs, &quiet(workers), Some(&mut jsonl), &mut Vec::new())
            .expect("suite I/O");
        (jsonl, summary.subjobs_executed)
    };
    let (seq, seq_subjobs) = run(1);
    assert!(seq_subjobs > 0, "the reference run simulated nothing");
    let (par, par_subjobs) = run(8);
    assert_eq!(par_subjobs, seq_subjobs, "the pool run simulated less");
    common::assert_same_bytes(
        "suite-determinism",
        ("jobs1.jsonl", &seq),
        ("jobs8.jsonl", &par),
    );

    let rows: Vec<_> = std::str::from_utf8(&seq)
        .expect("utf8")
        .lines()
        .map(|line| serde_json::parse(line).expect("row is valid JSON"))
        .collect();
    let row_ids: Vec<_> = rows
        .iter()
        .map(|row| row.get("id").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(row_ids, IDS.map(Some), "one row per job, in job order");
    // (table id, row label) of every table row in the artifact.
    let mut labels: Vec<(&str, &str)> = Vec::new();
    for row in &rows {
        assert_eq!(row.get("status").and_then(|s| s.as_str()), Some("ok"));
        let tables = row.get("result").and_then(|r| r.get("tables"));
        for table in tables.and_then(|t| t.as_array()).expect("result.tables") {
            let id = table.get("id").and_then(|v| v.as_str()).expect("table id");
            let table_rows = table.get("rows").and_then(|r| r.as_array());
            for table_row in table_rows.expect("table rows") {
                let label = table_row.as_array().and_then(|r| r[0].as_str());
                labels.push((id, label.expect("row label")));
            }
        }
    }
    // The mechanism families keep their shape: one table per prefetcher
    // set, all three row policies, one table per refresh policy.
    for table in [
        "ext-dspatch-stream",
        "ext-dspatch-dspatch",
        "ext-refresh-all-bank",
        "ext-refresh-per-bank",
        "ext-refresh-darp",
    ] {
        assert!(
            labels.iter().any(|(id, _)| *id == table),
            "no {table} table"
        );
    }
    for policy in ["(open-row)", "(closed-row)", "(happy)"] {
        assert!(
            labels
                .iter()
                .any(|(id, label)| *id == "ext-happy" && label.ends_with(policy)),
            "ext-happy has no {policy} rows"
        );
    }
}

/// A profiled row counts what its experiment simulated, wherever on the
/// pool each unit ran: fig1's and tab5's `runs` sum to exactly the
/// single-core units the suite simulated on two workers, and a second
/// run, which the claim map serves, simulates nothing and counts nothing.
#[test]
fn profiled_rows_count_exactly_the_units_simulated_on_the_pool() {
    let _serial = CLAIM_MAP.lock().unwrap_or_else(|e| e.into_inner());
    reset_memory_cells();
    let runs = || -> Vec<u64> {
        let selected = select(&["fig1", "tab5"]).expect("registered ids");
        let jobs = suite_jobs_profiled(selected, ExpConfig::at(Scale::Smoke), None, true);
        let mut jsonl = Vec::new();
        run_suite(&jobs, &quiet(2), Some(&mut jsonl), &mut Vec::new()).expect("suite I/O");
        let text = String::from_utf8(jsonl).expect("utf8");
        text.lines()
            .map(|line| {
                let row = serde_json::parse(line).expect("row is valid JSON");
                let profile = row.get("result").and_then(|r| r.get("profile"));
                let runs = profile.and_then(|p| p.get("runs")).and_then(|v| v.as_f64());
                runs.expect("profiled row carries runs") as u64
            })
            .collect()
    };
    let before = single_run_stats().1;
    let first = runs();
    let simulated = single_run_stats().1 - before;
    assert!(simulated > 0, "the first run simulated nothing");
    assert_eq!(first.iter().sum::<u64>(), simulated, "rows {first:?}");
    assert_eq!(runs(), [0, 0], "the second run simulated or counted units");
}

/// Fault isolation: an injected panicking job becomes a structured failure
/// row while the real experiments around it still complete.
#[test]
fn injected_panicking_job_does_not_abort_the_suite() {
    let _serial = CLAIM_MAP.lock().unwrap_or_else(|e| e.into_inner());
    let mut jobs = suite_jobs(
        select(&["fig2", "cost"]).expect("registered ids"),
        ExpConfig::at(Scale::Smoke),
        None,
    );
    jobs.insert(
        1,
        JobSpec::new("injected-panic", "deliberate failure", || {
            panic!("boom from injected job")
        }),
    );

    let mut jsonl = Vec::new();
    let mut progress = Vec::new();
    let summary = run_suite(&jobs, &quiet(2), Some(&mut jsonl), &mut progress).expect("suite I/O");

    assert_eq!(summary.outcomes.len(), 3, "suite must run to completion");
    assert_eq!(summary.ok(), 2);
    assert_eq!(summary.failed(), 1);
    assert_eq!(summary.outcomes[1].id, "injected-panic");
    assert_eq!(summary.outcomes[1].status, JobStatus::Panicked);

    let text = String::from_utf8(jsonl).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    let failure = serde_json::parse(lines[1]).expect("failure row is valid JSON");
    assert_eq!(
        failure.get("id").and_then(|v| v.as_str()),
        Some("injected-panic")
    );
    assert_eq!(
        failure.get("status").and_then(|v| v.as_str()),
        Some("panicked")
    );
    assert_eq!(
        failure.get("error").and_then(|v| v.as_str()),
        Some("boom from injected job")
    );
    assert!(lines[0].starts_with("{\"id\":\"fig2\",\"status\":\"ok\""));
    assert!(lines[2].starts_with("{\"id\":\"cost\",\"status\":\"ok\""));
}

/// Parallel speedup sanity: with sleep-backed jobs (so the 1-CPU container
/// can still overlap them), 4 workers must finish the suite at least 2x
/// faster than 1 worker. Real experiments are CPU-bound, so wall-clock
/// speedup on multi-core machines tracks `available_parallelism`; this
/// checks the engine actually overlaps job execution.
#[test]
fn four_workers_overlap_jobs_for_at_least_2x_speedup() {
    let sleepy = || {
        (0..8)
            .map(|i| {
                JobSpec::new(format!("sleep{i}"), "t", || {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                    "{}".to_string()
                })
            })
            .collect::<Vec<_>>()
    };
    let time = |jobs: Vec<JobSpec>, workers| {
        let start = std::time::Instant::now();
        let mut progress = Vec::new();
        run_suite(&jobs, &quiet(workers), None, &mut progress).expect("suite I/O");
        start.elapsed()
    };
    let seq = time(sleepy(), 1);
    let par = time(sleepy(), 4);
    assert!(
        seq.as_secs_f64() >= 2.0 * par.as_secs_f64(),
        "expected >=2x speedup with 4 workers: sequential {seq:?}, parallel {par:?}"
    );
}
