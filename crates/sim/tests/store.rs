//! End-to-end tests of unit resolution and the persistent content-addressed
//! store behind it (DESIGN.md §12): no-store and cold-store runs compute
//! the same units; cold, warm, and no-store suite runs produce
//! byte-identical JSONL; a run whose units are all on disk executes zero
//! simulation units; and poisoned entries (truncation, fingerprint drift,
//! garbage) are recomputed — never trusted — while the store self-heals.
//!
//! The store slot and the counters are process-wide, so the whole scenario
//! lives in **one** `#[test]`, phased in order. Nothing but the store
//! carries results from one run to the next, so each phase's run is a
//! fresh process as far as unit resolution can tell; it goes all the way
//! through `run_suite`, the same path the CLIs use.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use padc_harness::{run_suite, HarnessConfig, Summary};
use padc_sim::experiments::{self, ExpConfig, Scale};
use padc_store::Store;

const SUBSET: [&str; 2] = ["fig6", "tab5"];

/// Runs the smoke-scale subset through the suite, returning the JSONL
/// bytes and the summary.
fn run_subset() -> (String, Summary) {
    let selected: Vec<_> = SUBSET
        .iter()
        .map(|id| experiments::find(id).expect("known id"))
        .collect();
    let jobs = experiments::suite_jobs(selected, ExpConfig::at(Scale::Smoke), None);
    let cfg = HarnessConfig {
        workers: 2,
        budget: None,
        progress: false,
    };
    let mut jsonl = Vec::new();
    let mut progress = std::io::sink();
    let summary = run_suite(&jobs, &cfg, Some(&mut jsonl), &mut progress).expect("suite runs");
    assert_eq!(summary.failed(), 0, "subset must succeed");
    (String::from_utf8(jsonl).expect("JSONL is UTF-8"), summary)
}

/// All entry files under `<dir>/objects/<shard>/`, sorted for determinism.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in fs::read_dir(dir.join("objects")).expect("objects dir") {
        let shard = shard.expect("shard entry").path();
        if shard.is_dir() {
            for f in fs::read_dir(&shard).expect("shard dir") {
                out.push(f.expect("entry file").path());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn store_runs_are_byte_identical_and_strictly_validated() {
    let dir = std::env::temp_dir().join(format!("padc-store-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Phase 0 — no store: the reference bytes. tab5's cells are a subset
    // of fig6's, so the suite computes each distinct unit once (this is
    // the process's first run, so the counters read from zero)…
    let (baseline, plain_summary) = run_subset();
    assert!(!baseline.is_empty());
    // Every later artifact must reproduce these bytes.
    let same = |name: &str, jsonl: &str| {
        common::assert_same_bytes(
            "store",
            ("baseline.jsonl", baseline.as_bytes()),
            (name, jsonl.as_bytes()),
        );
    };
    let (requested, computed) = experiments::single_run_stats();
    assert!(
        requested > computed,
        "shared grid cells must be deduplicated (requested={requested} computed={computed})"
    );
    assert_eq!(
        plain_summary.subjobs_executed, computed,
        "exactly the distinct units are scheduled"
    );
    assert_eq!(
        experiments::unit_cache_stats(),
        experiments::UnitCacheStats {
            units_coalesced: requested - computed,
            ..Default::default()
        },
        "without a store nothing probes the disk"
    );
    // …and a second run in the same process simulates them all again:
    // without a store nothing carries results between runs.
    let (again, again_summary) = run_subset();
    same("again.jsonl", &again);
    assert_eq!(
        again_summary.subjobs_executed,
        plain_summary.subjobs_executed
    );

    // Phase 1 — cold store: every unit misses, is computed, and is written
    // back; the artifact and the scheduled sub-jobs must not change.
    experiments::install_unit_store(&dir).expect("store opens");
    let before = experiments::unit_cache_stats();
    let (cold, cold_summary) = run_subset();
    same("cold.jsonl", &cold);
    assert_eq!(
        cold_summary.subjobs_executed, plain_summary.subjobs_executed,
        "no-store and cold-store runs must schedule the same sub-jobs"
    );
    let after_cold = experiments::unit_cache_stats();
    let cold_misses = after_cold.store_misses - before.store_misses;
    assert_eq!(
        cold_misses, cold_summary.subjobs_executed,
        "cold run must miss"
    );
    assert_eq!(
        after_cold.store_hits - before.store_hits,
        0,
        "cold run cannot hit"
    );
    let entries = entry_files(&dir);
    assert_eq!(
        entries.len() as u64,
        cold_misses,
        "every miss writes exactly one entry"
    );

    // Phase 2 — warm store in a "fresh process": every unit resolves from
    // disk, zero simulation units execute, bytes identical.
    let (warm, warm_summary) = run_subset();
    same("warm.jsonl", &warm);
    let after_warm = experiments::unit_cache_stats();
    assert_eq!(
        after_warm.store_misses - after_cold.store_misses,
        0,
        "warm run must not miss"
    );
    assert_eq!(
        after_warm.store_hits - after_cold.store_hits,
        cold_misses,
        "warm run resolves every unit from disk"
    );
    assert_eq!(
        warm_summary.subjobs_executed, 0,
        "a fully warm run must execute zero simulation units"
    );

    // Phase 3 — poisoned store: a truncated entry, a garbage entry, and an
    // entry whose fingerprint drifted (same lengths, different meta bytes)
    // must all be treated as misses and recomputed; the artifact stays
    // byte-identical and the rewrite heals the store.
    let truncated = &entries[0];
    let bytes = fs::read(truncated).expect("entry readable");
    fs::write(truncated, &bytes[..bytes.len() / 2]).expect("truncate entry");
    let garbage = &entries[1];
    fs::write(garbage, b"not a store entry").expect("garbage entry");
    let drifted = &entries[2];
    let text = fs::read_to_string(drifted).expect("entry is UTF-8");
    assert!(text.contains("result-v1"), "meta carries the fingerprint");
    fs::write(drifted, text.replace("result-v1", "result-v9")).expect("drift fingerprint");

    let (healed, _) = run_subset();
    same("healed.jsonl", &healed);
    let after_heal = experiments::unit_cache_stats();
    assert_eq!(
        after_heal.store_misses - after_warm.store_misses,
        3,
        "exactly the three poisoned entries must recompute"
    );
    assert_eq!(
        after_heal.store_hits - after_warm.store_hits,
        cold_misses - 3,
        "intact entries still hit"
    );

    // Phase 4 — the recomputation healed the store: a further fresh run is
    // all hits again.
    let (rewarm, rewarm_summary) = run_subset();
    same("rewarm.jsonl", &rewarm);
    let after_rewarm = experiments::unit_cache_stats();
    assert_eq!(after_rewarm.store_misses - after_heal.store_misses, 0);
    assert_eq!(rewarm_summary.subjobs_executed, 0);

    // Phase 5 — gc keeps the newest entries and the stats add up.
    let store = Store::open(&dir).expect("store reopens");
    let stats = store.stats().expect("stats");
    assert_eq!(stats.entries, cold_misses);
    let outcome = store.gc(stats.bytes / 2).expect("gc runs");
    assert!(outcome.evicted > 0);
    assert!(outcome.remaining_bytes <= stats.bytes / 2);
    assert_eq!(outcome.remaining_entries + outcome.evicted, stats.entries);

    // Phase 6 — uninstalling the store changes nothing but where misses
    // come from: same bytes.
    experiments::uninstall_unit_store();
    let (plain, _) = run_subset();
    same("no-store.jsonl", &plain);

    let _ = fs::remove_dir_all(&dir);
}
