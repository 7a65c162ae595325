//! Resume × fast-forward-mode coverage: `--resume` must re-emit settled
//! rows byte-identically even when the resumed artifact was produced
//! under a *different* `--fast-forward` mode, and freshly re-run rows
//! must match the original bytes too (fast-forwarding is invisible in
//! results, so mode changes between runs cannot poison an artifact).
//!
//! Single `#[test]` on purpose: the suite runs below flip the
//! process-wide fast-forward default and diff the process-wide
//! simulated-unit counter, both of which would race against parallel
//! tests in the same binary.
//!
//! The unit cache's digest deliberately excludes the fast-forward mode, so
//! every phase that is meant to *re-simulate* under the other mode first
//! calls `reset_memory_cells()` and then checks the counter moved —
//! otherwise the cache would hand back the first phase's reports and the
//! comparison would be vacuous.

mod common;

use padc_harness::HarnessConfig;
use padc_sim::experiments::{
    registry::find, reset_memory_cells, single_run_stats, suite_jobs, ExpConfig, Scale,
};
use padc_sim::resume::ResumeArtifact;
use padc_sim::FastForwardMode;

const IDS: [&str; 2] = ["fig1", "tab5"];

/// Single-core units simulated so far (fig1 and tab5 plan nothing else).
fn simulated() -> u64 {
    single_run_stats().1
}

/// Runs the two-experiment suite at smoke scale from an empty in-memory
/// cache, optionally resuming from `artifact`, and returns (jsonl bytes,
/// ok count, skipped count).
fn suite_bytes(artifact: Option<&ResumeArtifact>) -> (Vec<u8>, usize, usize) {
    reset_memory_cells();
    let selected = IDS
        .iter()
        .map(|id| find(id).expect("registered experiment id"))
        .collect();
    let mut jobs = suite_jobs(selected, ExpConfig::at(Scale::Smoke), None);
    if let Some(artifact) = artifact {
        for job in &mut jobs {
            if let Some(row) = artifact.row(&job.id) {
                job.cached_row = Some(row.to_string());
            }
        }
    }
    let cfg = HarnessConfig {
        workers: 2,
        budget: None,
        progress: false,
    };
    let mut jsonl = Vec::new();
    let mut progress = Vec::new();
    let summary =
        padc_harness::run_suite(&jobs, &cfg, Some(&mut jsonl), &mut progress).expect("suite I/O");
    (jsonl, summary.ok(), summary.skipped())
}

#[test]
fn resume_across_fast_forward_modes_is_byte_identical() {
    // Reference artifact: produced cycle-by-cycle.
    padc_sim::set_fast_forward_mode_default(FastForwardMode::Off);
    let (reference, ok, _) = suite_bytes(None);
    assert_eq!(ok, IDS.len());
    // Every later artifact must reproduce the off-mode bytes.
    let same = |name: &str, jsonl: &[u8]| {
        common::assert_same_bytes("resume_ff", ("ff-off.jsonl", &reference), (name, jsonl));
    };

    // A fully settled off-mode artifact resumed under the event kernel:
    // zero executions, bytes re-emitted verbatim.
    padc_sim::set_fast_forward_mode_default(FastForwardMode::Event);
    let artifact = ResumeArtifact::parse(std::str::from_utf8(&reference).expect("utf8"));
    assert_eq!(artifact.len(), IDS.len());
    let (resumed, ok, skipped) = suite_bytes(Some(&artifact));
    same("off-resumed-under-event.jsonl", &resumed);
    assert_eq!((ok, skipped), (0, IDS.len()));

    // A partial artifact (first row only): the missing experiment re-runs
    // under the event kernel, yet the full artifact still matches the
    // off-mode bytes — fast-forwarding is invisible in results.
    let first_line_end = reference.iter().position(|&b| b == b'\n').expect("row") + 1;
    let partial =
        ResumeArtifact::parse(std::str::from_utf8(&reference[..first_line_end]).expect("utf8"));
    assert_eq!(partial.len(), 1);
    let before = simulated();
    let (mixed, ok, skipped) = suite_bytes(Some(&partial));
    assert!(
        simulated() > before,
        "the missing experiment was not re-simulated under the event kernel"
    );
    same("partial-resumed-under-event.jsonl", &mixed);
    assert_eq!((ok, skipped), (1, 1));

    // And the reverse direction: an artifact *produced* under the event
    // kernel matches the off-mode bytes and resumes byte-identically when
    // the consumer steps cycle-by-cycle.
    let before = simulated();
    let (ev_reference, ok, _) = suite_bytes(None);
    assert_eq!(ok, IDS.len());
    assert!(
        simulated() > before,
        "the event-mode artifact was served from the off-mode run's cache"
    );
    same("ff-event.jsonl", &ev_reference);
    padc_sim::set_fast_forward_mode_default(FastForwardMode::Off);
    let ev_artifact = ResumeArtifact::parse(std::str::from_utf8(&ev_reference).expect("utf8"));
    let (resumed, ok, skipped) = suite_bytes(Some(&ev_artifact));
    same("event-resumed-under-off.jsonl", &resumed);
    assert_eq!((ok, skipped), (0, IDS.len()));
}
