//! Floors under the mechanisms whose loss no byte comparison can see.
//!
//! Every result is byte-identical whether or not the event kernel skips
//! anything, the owner cache or the ready lane reuses anything, the unit
//! cache deduplicates anything, a warm store hits anything, or DARP pulls
//! anything — so each of those can silently stop working while every
//! determinism test stays green. [`FLOORS`] records, per mechanism, the value measured when the
//! floor was set, the bound a run must stay within, and the regression
//! the row exists to catch. All values are deterministic simulation or
//! plan counts (never wall time), identical in debug and release builds;
//! the slack under a percentage floor absorbs intended model changes that
//! shift idle patterns, not machine noise. Re-measure and move a row only
//! when the shift is understood and intended.

mod common;

use padc_core::{ControllerConfig, SchedulingPolicy};
use padc_dram::{ExtendedTiming, RefreshPolicy};
use padc_harness::{run_suite, HarnessConfig, Summary};
use padc_sim::experiments::{self, ExpConfig, Scale};
use padc_sim::profile::SimProfile;
use padc_sim::{FastForwardMode, SimConfig, System};
use padc_workloads::profiles;

#[derive(Debug)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

struct Floor {
    /// The value measured when the row was recorded.
    measured: f64,
    bound: Bound,
    /// The silent regression this row catches.
    catches: &'static str,
}

impl Floor {
    #[track_caller]
    fn hold(&self, what: &str, value: f64) {
        println!(
            "{what}: {value:.1} (recorded {}, {:?})",
            self.measured, self.bound
        );
        let holds = match self.bound {
            Bound::AtLeast(min) => value >= min,
            Bound::AtMost(max) => value <= max,
        };
        assert!(
            holds,
            "{what} = {value:.1} is outside {:?} (recorded {}): {}",
            self.bound, self.measured, self.catches
        );
    }
}

const fn at_least(measured: f64, min: f64, catches: &'static str) -> Floor {
    Floor {
        measured,
        bound: Bound::AtLeast(min),
        catches,
    }
}

const fn at_most(measured: f64, max: f64, catches: &'static str) -> Floor {
    Floor {
        measured,
        bound: Bound::AtMost(max),
        catches,
    }
}

/// The floors of one suite subset run cold and then warm against a store.
struct SuiteFloors {
    subjobs_executed: Floor,
    singles_computed: Floor,
    warm_hits: Floor,
    warm_misses: Floor,
    warm_subjobs_executed: Floor,
}

struct Floors {
    mix_core_skip_pct: Floor,
    mix_ctrl_skip_pct: Floor,
    mcf_ctrl_skip_pct: Floor,
    mix_owner_reuse_pct: Floor,
    mix_owner_recomputes: Floor,
    mix_owner_scan_entries: Floor,
    mix_lane_refreshes_per_100_events: Floor,
    rank_owner_scan_entries: Floor,
    darp_refresh_pulls: Floor,
    darp_refresh_stall_cycles: Floor,
    all_bank_refresh_pulls: Floor,
    grid: SuiteFloors,
    mech: SuiteFloors,
    dspatch_flips: Floor,
    ext_refresh_pulls: Floor,
}

const FLOORS: Floors = Floors {
    // The 8-core memory-hog mix and the mcf single, event kernel.
    mix_core_skip_pct: at_least(
        96.4,
        96.4 - 3.0,
        "per-core idle classification broke (e.g. a core that always reports busy): \
         the multi-core speedup evaporates",
    ),
    mix_ctrl_skip_pct: at_least(
        92.1,
        92.1 - 3.0,
        "the controller stopped proving its own idleness: the O(events) controller loop \
         degrades back to O(cycles)",
    ),
    mcf_ctrl_skip_pct: at_least(
        96.5,
        96.5 - 3.0,
        "as the mix row, on the single pointer-chasing core whose stalls jump farthest",
    ),
    mix_owner_reuse_pct: at_least(
        98.1,
        98.1 - 2.0,
        "over-invalidation (e.g. every mutation dirties every bank): the request buffer's \
         O(entries) owner rescans quietly return",
    ),
    mix_owner_recomputes: at_most(
        51_634.0,
        65_000.0,
        "the per-event bank rescan quietly came back (an insert or the owner's own ACT/PRE \
         dirties its bank again)",
    ),
    mix_owner_scan_entries: at_most(
        1_819_065.0,
        2_275_000.0,
        "as the row above, in entries examined: rescans that each walk a fuller bank",
    ),
    mix_lane_refreshes_per_100_events: at_most(
        99.0,
        125.0,
        "the ready lane went stale everywhere (e.g. every pass marks every bank): each \
         controller event re-derives 8 banks twice over instead of the one it commanded, \
         and the per-bank owner and DRAM probes are back in all but name",
    ),
    // The 4-core ranking mix, event kernel.
    rank_owner_scan_entries: at_most(
        1_085_059.0,
        1_356_000.0,
        "a rank-count change dirties every bank again, not only a change of the cores' \
         order (2.47M entries when it did): ranking's whole-buffer rescans quietly return",
    ),
    darp_refresh_pulls: at_least(
        78.0,
        20.0,
        "the idle-bank eligibility test went always-false: DARP degrades to plain \
         per-bank refresh and ext-refresh measures nothing",
    ),
    darp_refresh_stall_cycles: at_least(
        110_745.0,
        1.0,
        "refreshes are pulled but never charged: pull accounting broke",
    ),
    all_bank_refresh_pulls: at_most(0.0, 0.0, "pulls leaked out of RefreshPolicy::Darp"),
    // `fig6 tab5 tab7 fig8` at smoke scale: the four grids share one
    // 55-benchmark x 5-arm grid of 275 distinct units.
    grid: SuiteFloors {
        subjobs_executed: at_least(
            275.0,
            275.0,
            "experiments stopped decomposing into one sub-job per distinct unit",
        ),
        singles_computed: at_most(
            275.0,
            275.0,
            "the claim map stopped deduplicating the cells the four grids share",
        ),
        warm_hits: at_least(275.0, 275.0, "units stopped resolving through the store"),
        warm_misses: at_most(
            0.0,
            0.0,
            "the unit fingerprint is unstable (e.g. a nondeterministic field in the store \
             meta): every warm run quietly recomputes everything",
        ),
        warm_subjobs_executed: at_most(0.0, 0.0, "a fully warm run stopped being free"),
    },
    // `ext-dspatch ext-happy ext-refresh` at smoke scale: 35 planned units
    // over 24 distinct configs, sharing 4 IPC_alone references.
    mech: SuiteFloors {
        subjobs_executed: at_least(
            24.0,
            24.0,
            "the mechanism families stopped decomposing into their arm grids",
        ),
        singles_computed: at_most(
            4.0,
            4.0,
            "the mechanism families stopped sharing their IPC_alone references",
        ),
        warm_hits: at_least(
            24.0,
            24.0,
            "the mechanism arms stopped resolving through the store",
        ),
        warm_misses: at_most(
            0.0,
            0.0,
            "DsPatchConfig, RowPolicy::Happy or RefreshPolicy no longer fingerprints stably",
        ),
        warm_subjobs_executed: at_most(0.0, 0.0, "a warm mechanism run stopped being free"),
    },
    dspatch_flips: at_least(
        31.0,
        1.0,
        "the DSPatch Coverage<->Accuracy modulator sits in one mode: its \
         accuracy/bandwidth feedback path no longer runs end to end",
    ),
    ext_refresh_pulls: at_least(
        57.0,
        1.0,
        "the ext-refresh family's darp arms never pull a refresh at smoke scale",
    ),
};

/// Holds `value` against the [`FLOORS`] row at `path`, naming the row in
/// the failure.
macro_rules! hold {
    ($($path:ident).+, $value:expr) => {
        FLOORS.$($path).+.hold(stringify!($($path).+), $value as f64)
    };
}

/// The 8-core memory-hog mix the skip-ratio and refresh floors were
/// recorded on.
const MIX: [&str; 8] = [
    "mcf_06",
    "libquantum_06",
    "swim_00",
    "GemsFDTD_06",
    "lbm_06",
    "milc_06",
    "leslie3d_06",
    "soplex_06",
];

/// What `padcsim --bench ... --policy padc --instructions N` simulates,
/// plus `tweak`, under the event kernel.
fn event_profile(
    benches: &[&str],
    instructions: u64,
    tweak: impl FnOnce(SimConfig) -> SimConfig,
) -> SimProfile {
    let mut cfg = SimConfig::new(benches.len(), SchedulingPolicy::Padc);
    cfg.max_instructions = instructions;
    let benches = benches
        .iter()
        .map(|name| profiles::by_name(name).expect("known benchmark"))
        .collect();
    let mut sys = System::new(tweak(cfg), benches);
    sys.set_fast_forward_mode(FastForwardMode::Event);
    sys.run();
    *sys.profile()
}

#[test]
fn event_kernel_skips_and_owner_cache_reuses_on_the_mix() {
    let p = event_profile(&MIX, 60_000, |cfg| cfg);
    hold!(mix_core_skip_pct, 100.0 * p.core_skip_ratio());
    hold!(mix_ctrl_skip_pct, 100.0 * p.ctrl_skip_ratio());
    // Each recompute consumes one clean-to-dirty transition; more
    // recomputes than invalidations means the owner cache is bypassed.
    assert!(
        p.owner_recomputes <= p.owner_invalidations,
        "owner_recomputes={} > owner_invalidations={}",
        p.owner_recomputes,
        p.owner_invalidations
    );
    let owner_reads = (p.owner_reuses + p.owner_recomputes) as f64;
    hold!(
        mix_owner_reuse_pct,
        100.0 * p.owner_reuses as f64 / owner_reads
    );
    hold!(mix_owner_recomputes, p.owner_recomputes);
    hold!(mix_owner_scan_entries, p.owner_scan_entries);
    hold!(
        mix_lane_refreshes_per_100_events,
        100.0 * p.lane_refreshes as f64 / p.ctrl_events_fired as f64
    );
}

/// The 4-core mix the ranking floor was recorded on.
const RANK_MIX: [&str; 4] = ["lbm_06", "milc_06", "omnetpp_06", "soplex_06"];

#[test]
fn ranking_rescans_owners_only_when_the_rank_order_moves() {
    let p = event_profile(&RANK_MIX, 60_000, |cfg| SimConfig {
        controller: ControllerConfig::from_policy(SchedulingPolicy::PadcRank, RANK_MIX.len()),
        ..cfg
    });
    hold!(rank_owner_scan_entries, p.owner_scan_entries);
}

#[test]
fn event_kernel_skips_controller_cycles_on_mcf() {
    let p = event_profile(&["mcf_06"], 1_000_000, |cfg| cfg);
    hold!(mcf_ctrl_skip_pct, 100.0 * p.ctrl_skip_ratio());
}

#[test]
fn darp_pulls_refreshes_and_all_bank_never_does() {
    let darp = event_profile(&MIX, 60_000, |cfg| {
        cfg.with_refresh_policy(RefreshPolicy::Darp)
    });
    hold!(darp_refresh_pulls, darp.refresh_pulls);
    hold!(darp_refresh_stall_cycles, darp.refresh_stall_cycles);
    let all_bank = event_profile(&MIX, 60_000, |cfg| {
        cfg.with_extended_timing(ExtendedTiming::default())
            .with_refresh_policy(RefreshPolicy::AllBank)
    });
    hold!(all_bank_refresh_pulls, all_bank.refresh_pulls);
}

const WORKERS: usize = 2;

/// Runs `ids` at smoke scale through the suite from an empty in-memory
/// claim map (a fresh process, as far as unit resolution can tell).
fn suite(ids: &[&str], profile: bool) -> (Vec<u8>, Summary) {
    experiments::reset_memory_cells();
    let selected = ids
        .iter()
        .map(|id| experiments::find(id).expect("registered experiment id"))
        .collect();
    let jobs =
        experiments::suite_jobs_profiled(selected, ExpConfig::at(Scale::Smoke), None, profile);
    let cfg = HarnessConfig {
        workers: WORKERS,
        budget: None,
        progress: false,
    };
    let mut jsonl = Vec::new();
    let summary =
        run_suite(&jobs, &cfg, Some(&mut jsonl), &mut std::io::sink()).expect("suite I/O");
    assert_eq!(summary.failed(), 0);
    assert!(
        summary.subjobs_peak_concurrent <= WORKERS as u64,
        "peak sub-job concurrency {} exceeds the {WORKERS} workers",
        summary.subjobs_peak_concurrent
    );
    (jsonl, summary)
}

/// Runs `ids` cold and then warm against one fresh store and holds the
/// pair against `floors`; returns both artifacts (the cold one profiled
/// if `profile_cold`).
fn cold_then_warm(
    name: &str,
    floors: &SuiteFloors,
    ids: &[&str],
    profile_cold: bool,
) -> (Vec<u8>, Vec<u8>) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("floors-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    experiments::install_unit_store(&dir).expect("store opens");
    let singles = experiments::single_run_stats().1;
    let (cold_jsonl, cold) = suite(ids, profile_cold);
    let singles = experiments::single_run_stats().1 - singles;
    let before = experiments::unit_cache_stats();
    let (warm_jsonl, warm) = suite(ids, false);
    let after = experiments::unit_cache_stats();
    experiments::uninstall_unit_store();
    std::fs::remove_dir_all(&dir).expect("store removed");

    let row = |what: &str| format!("{name}.{what}");
    floors
        .subjobs_executed
        .hold(&row("subjobs_executed"), cold.subjobs_executed as f64);
    floors
        .singles_computed
        .hold(&row("singles_computed"), singles as f64);
    let (hits, misses) = (
        after.store_hits - before.store_hits,
        after.store_misses - before.store_misses,
    );
    floors.warm_hits.hold(&row("warm_hits"), hits as f64);
    floors.warm_misses.hold(&row("warm_misses"), misses as f64);
    floors
        .warm_subjobs_executed
        .hold(&row("warm_subjobs_executed"), warm.subjobs_executed as f64);
    (cold_jsonl, warm_jsonl)
}

/// A `profile` counter of experiment `id`'s row in a profiled artifact.
fn profiled(jsonl: &[u8], id: &str, counter: &str) -> f64 {
    let text = std::str::from_utf8(jsonl).expect("JSONL is UTF-8");
    let row = text
        .lines()
        .map(|line| serde_json::parse(line).expect("row is JSON"))
        .find(|row| row.get("id").and_then(|v| v.as_str()) == Some(id))
        .expect("experiment row present");
    row.get("result")
        .and_then(|r| r.get("profile"))
        .and_then(|p| p.get(counter))
        .and_then(|v| v.as_f64())
        .expect("profiled row carries the counter")
}

/// One `#[test]`, phased: the claim map, the store slot and the counters
/// it diffs are process-wide.
#[test]
fn suites_decompose_deduplicate_and_rerun_warm_for_free() {
    // The grid family without a store: the shared cells are requested
    // many times and simulated once…
    let grid = ["fig6", "tab5", "tab7", "fig8"];
    let before = experiments::single_run_stats();
    let (plain_jsonl, plain) = suite(&grid, false);
    let after = experiments::single_run_stats();
    let (requested, computed) = (after.0 - before.0, after.1 - before.1);
    assert!(
        requested > computed,
        "requested={requested} computed={computed}: no deduplication observed"
    );
    hold!(grid.subjobs_executed, plain.subjobs_executed);
    // …then cold and warm against a store: same bytes, and the warm run
    // is free.
    let (cold_jsonl, warm_jsonl) = cold_then_warm("grid", &FLOORS.grid, &grid, false);
    for (name, stored) in [("cold.jsonl", &cold_jsonl), ("warm.jsonl", &warm_jsonl)] {
        common::assert_same_bytes(
            "floors-grid",
            ("no-store.jsonl", &plain_jsonl),
            (name, stored),
        );
    }

    // The mechanism families, cold (profiled, for the engagement
    // counters) then warm.
    let mech = ["ext-dspatch", "ext-happy", "ext-refresh"];
    let (profiled_jsonl, _) = cold_then_warm("mech", &FLOORS.mech, &mech, true);
    hold!(
        dspatch_flips,
        profiled(&profiled_jsonl, "ext-dspatch", "dspatch_flips")
    );
    hold!(
        ext_refresh_pulls,
        profiled(&profiled_jsonl, "ext-refresh", "refresh_pulls")
    );
}
