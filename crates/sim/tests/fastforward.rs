//! Equivalence tests for the discrete-event kernel (DESIGN.md §11).
//!
//! Event stepping must be invisible in the results: a [`System`] run under
//! [`FastForwardMode::Event`] produces a byte-identical [`Report`] to the
//! same system stepped cycle by cycle (`Off`). These tests exercise that
//! contract over randomized multi-core configurations, check the
//! core-cycle and controller-cycle accounting invariants, and pin down the
//! one event source that bounds every skipped window: the accuracy
//! tracker's interval rollover.

use padc_core::SchedulingPolicy;
use padc_dram::RefreshPolicy;
use padc_sim::{FastForwardMode, SimConfig, System};
use padc_workloads::{profiles, BenchProfile};
use proptest::prelude::*;

const POLICIES: [SchedulingPolicy; 5] = [
    SchedulingPolicy::DemandPrefetchEqual,
    SchedulingPolicy::DemandFirst,
    SchedulingPolicy::PrefetchFirst,
    SchedulingPolicy::ApsOnly,
    SchedulingPolicy::Padc,
];

/// Refresh configurations the equivalence matrix ranges over: the legacy
/// no-refresh default, and the three [`RefreshPolicy`] variants with
/// extended timing on (per-bank/DARP enable it implicitly). The two
/// modes must stay byte-identical under each of them — in particular the
/// DARP refresh-pull pass, which fires at controller boundaries, must be
/// invisible to event-driven stepping (DESIGN.md §15).
const REFRESH_CONFIGS: [Option<RefreshPolicy>; 4] = [
    None,
    Some(RefreshPolicy::AllBank),
    Some(RefreshPolicy::PerBank),
    Some(RefreshPolicy::Darp),
];

/// A small mix of benchmarks with distinct memory behavior: streaming
/// (libquantum), pointer-chasing / low-MLP (mcf), and mostly-compute
/// (gcc).
fn bench(i: usize) -> BenchProfile {
    match i % 3 {
        0 => profiles::libquantum(),
        1 => profiles::mcf(),
        _ => profiles::gcc(),
    }
}

fn small_config(seed: u64, cores: usize, policy_idx: usize, instructions: u64) -> SimConfig {
    let mut cfg = SimConfig::new(cores, POLICIES[policy_idx % POLICIES.len()]);
    cfg.seed = seed;
    cfg.max_instructions = instructions;
    cfg.max_cycles = 40_000_000;
    cfg
}

fn refresh_config(cfg: SimConfig, refresh_idx: usize) -> SimConfig {
    match REFRESH_CONFIGS[refresh_idx % REFRESH_CONFIGS.len()] {
        None => cfg,
        Some(policy) => cfg
            .with_extended_timing(padc_dram::ExtendedTiming::default())
            .with_refresh_policy(policy),
    }
}

fn workloads(cores: usize, first: usize) -> Vec<BenchProfile> {
    (0..cores).map(|i| bench(first + i)).collect()
}

/// Runs one configuration in `mode`, returning the serialized report,
/// the profile, and the termination cycle.
fn run_mode(
    cfg: &SimConfig,
    cores: usize,
    first_bench: usize,
    mode: FastForwardMode,
) -> (String, padc_sim::profile::SimProfile, u64) {
    let mut sys = System::new(cfg.clone(), workloads(cores, first_bench));
    sys.set_fast_forward_mode(mode);
    let report = sys.run();
    let json = serde_json::to_string(&report).expect("serialize");
    (json, *sys.profile(), sys.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full report — every stat the suite serializes — is
    /// byte-identical between `Off` and `Event`, and the
    /// cycle-accounting invariants hold in both:
    /// `core_cycles_ticked + core_cycles_skipped == cores × total_cycles`
    /// and `ctrl_cycles_stepped + ctrl_cycles_skipped == total_cycles`.
    #[test]
    fn reports_are_byte_identical(seed in 1u64..1_000,
                                  cores in 1usize..4,
                                  policy_idx in 0usize..5,
                                  first_bench in 0usize..3,
                                  refresh_idx in 0usize..4,
                                  instructions in 2_000u64..10_000) {
        let cfg = refresh_config(
            small_config(seed, cores, policy_idx, instructions),
            refresh_idx,
        );

        let (off_json, off_p, off_now) =
            run_mode(&cfg, cores, first_bench, FastForwardMode::Off);
        let (ev_json, ev_p, ev_now) =
            run_mode(&cfg, cores, first_bench, FastForwardMode::Event);

        prop_assert_eq!(&off_json, &ev_json, "event mode diverged");
        // Both paths must agree on termination time as well.
        prop_assert_eq!(off_now, ev_now);
        // Sanity: the kernel actually jumped over something, otherwise
        // this test exercises nothing (idle cycles exist in any
        // DRAM-bound run).
        prop_assert!(ev_p.ff_cycles_skipped > 0, "jumps never fired");
        prop_assert_eq!(ev_p.cycles_stepped,
                        off_p.cycles_stepped - ev_p.ff_cycles_skipped);
        // Cycle accounting: every (core, cycle) pair was either ticked for
        // real or replayed as a stall bump, exactly once — and every global
        // cycle either executed the controller phase or was covered by a
        // proven-idle bound.
        for (name, p) in [("off", &off_p), ("event", &ev_p)] {
            prop_assert_eq!(
                p.core_cycles_ticked + p.core_cycles_skipped,
                cores as u64 * off_now,
                "core-cycle accounting broken in {} mode", name
            );
            prop_assert_eq!(
                p.ctrl_cycles_stepped + p.ctrl_cycles_skipped,
                off_now,
                "controller-cycle accounting broken in {} mode", name
            );
        }
        // Every jumped-over cycle is inside every core's lag window.
        prop_assert!(ev_p.core_cycles_skipped >= cores as u64 * ev_p.ff_cycles_skipped,
                     "lag windows do not cover the jumped spans");
        // Event mode executes the controller only at proven event times,
        // so it never steps the controller more than `Off` does — and
        // every executed controller cycle is an event it fired.
        prop_assert!(ev_p.ctrl_cycles_stepped <= off_p.ctrl_cycles_stepped,
                     "event mode stepped the controller more than off");
        prop_assert_eq!(ev_p.ctrl_events_fired, ev_p.ctrl_cycles_stepped);
        prop_assert_eq!(off_p.ctrl_events_fired, 0);
    }
}

/// An 8-core memory-hog mix (the shape `floors.rs` holds skip-ratio floors
/// on):
/// the two modes agree byte-for-byte, per-core lag windows skip most
/// core-cycles even though the cores are rarely all idle at once, and the
/// controller phase executes strictly less often than every cycle — only
/// at fired events.
#[test]
fn eight_core_memory_hog_mix_agrees_across_modes() {
    let mut cfg = SimConfig::new(8, SchedulingPolicy::Padc);
    cfg.seed = 3;
    cfg.max_instructions = 5_000;
    cfg.max_cycles = 40_000_000;
    let benches = [
        profiles::mcf(),
        profiles::libquantum(),
        profiles::lbm(),
        profiles::milc(),
        profiles::mcf(),
        profiles::libquantum(),
        profiles::lbm(),
        profiles::milc(),
    ];
    let run = |mode: FastForwardMode| {
        let mut sys = System::new(cfg.clone(), benches.to_vec());
        sys.set_fast_forward_mode(mode);
        let report = sys.run();
        (
            serde_json::to_string(&report).expect("serialize"),
            *sys.profile(),
        )
    };
    let (off_json, off_p) = run(FastForwardMode::Off);
    let (ev_json, ev_p) = run(FastForwardMode::Event);
    assert_eq!(off_json, ev_json);
    assert_eq!(off_p.core_cycles_skipped, 0);
    assert_eq!(off_p.ctrl_cycles_skipped, 0);
    // Per-core lag: far more core-cycles are skipped than the whole-system
    // jumps alone account for.
    assert!(ev_p.lag_resyncs > 0, "no core ever lagged");
    assert!(
        ev_p.core_cycles_skipped > 8 * ev_p.ff_cycles_skipped,
        "per-core lag ({}) should beat whole-system jumps ({} x 8 cores)",
        ev_p.core_cycles_skipped,
        ev_p.ff_cycles_skipped
    );
    // The controller phase runs only at fired events, which is a real
    // fraction of the cycles `Off` executes it on, and more is elided than
    // the jumps alone cover.
    assert!(
        ev_p.ctrl_cycles_stepped < off_p.ctrl_cycles_stepped,
        "event mode should elide controller cycles on a memory-hog mix \
         (event {} vs off {})",
        ev_p.ctrl_cycles_stepped,
        off_p.ctrl_cycles_stepped
    );
    assert!(ev_p.ctrl_events_fired > 0, "no controller events fired");
    assert_eq!(ev_p.ctrl_events_fired, ev_p.ctrl_cycles_stepped);
    assert!(
        ev_p.ctrl_cycles_skipped > ev_p.ff_cycles_skipped,
        "no stepped cycle skipped its controller phase"
    );
}

/// Deterministic sweep of the refresh axis: each refresh policy (and the
/// no-refresh legacy default) agrees byte-for-byte between the two modes,
/// and the per-bank policies actually refresh. The proptest above samples
/// this space; this pins every cell.
#[test]
fn refresh_policies_agree_across_modes() {
    for (refresh_idx, refresh) in REFRESH_CONFIGS.iter().enumerate() {
        let cfg = refresh_config(small_config(5, 2, 4, 6_000), refresh_idx);
        let mut off = System::new(cfg.clone(), workloads(2, 0));
        off.set_fast_forward_mode(FastForwardMode::Off);
        let off_report = off.run();
        let off_json = serde_json::to_string(&off_report).expect("serialize");
        let (json, _, now) = run_mode(&cfg, 2, 0, FastForwardMode::Event);
        assert_eq!(
            off_json, json,
            "event mode diverged under refresh config {refresh_idx}"
        );
        assert_eq!(off.now(), now);
        let refreshes: u64 = off_report.channels.iter().map(|c| c.refreshes).sum();
        match refresh {
            None => assert_eq!(refreshes, 0, "refresh without extended timing"),
            Some(_) => assert!(
                refreshes > 0,
                "refresh config {refresh_idx} never refreshed"
            ),
        }
    }
}

/// Runs `cfg` in event mode up to `max_cycles` and returns the stop
/// cycle, the pending rollover, and each core's `PAR`.
fn event_state_at(
    cfg: &SimConfig,
    benches: &[BenchProfile],
    max_cycles: u64,
) -> (u64, u64, Vec<f64>) {
    let mut cfg = cfg.clone();
    cfg.max_cycles = max_cycles;
    let cores = benches.len();
    let mut sys = System::new(cfg, benches.to_vec());
    sys.set_fast_forward_mode(FastForwardMode::Event);
    sys.run();
    let par = (0..cores).map(|c| sys.accuracy(c)).collect();
    (sys.now(), sys.next_accuracy_rollover(), par)
}

/// PAR interval rollovers are an explicit event source: the kernel must
/// consume every 100K-cycle accuracy-tracker rollover at the same cycle as
/// cycle-exact stepping, with the same resulting `PAR` — otherwise APD
/// thresholds and APS prioritization would diverge.
#[test]
fn par_rollovers_land_on_the_same_cycles() {
    let cfg = small_config(7, 2, 4, 4_000); // Padc: APD + APS exercised
    let mut slow = System::new(cfg.clone(), workloads(2, 0));
    slow.set_fast_forward_mode(FastForwardMode::Off);

    // Step cycle by cycle; the value of `next_accuracy_rollover` changes
    // exactly when a rollover is consumed. Record the scheduled cycle, the
    // follow-up rollover, and the PAR each core acts on afterwards.
    let mut rollovers = Vec::new();
    while !slow.finished() {
        let before = slow.next_accuracy_rollover();
        slow.step();
        let after = slow.next_accuracy_rollover();
        if after != before {
            // The tick that consumes rollover `r` is cycle `r` itself.
            assert_eq!(slow.now(), before + 1, "slow path serviced a rollover late");
            let par: Vec<f64> = (0..2).map(|c| slow.accuracy(c)).collect();
            rollovers.push((before, after, par));
        }
    }
    assert!(!rollovers.is_empty(), "run too short to roll over");

    for (r, next, par) in rollovers {
        // Stopped at cycle `r` (tick `r` not yet executed) the rollover is
        // still pending: nothing consumed it early or jumped across it.
        let (now, pending, _) = event_state_at(&cfg, &workloads(2, 0), r);
        assert_eq!((now, pending), (r, r), "rollover {r} consumed early");
        // One cycle later it has fired, with the same PAR as the slow path.
        let (now, pending, ev_par) = event_state_at(&cfg, &workloads(2, 0), r + 1);
        assert_eq!(
            (now, pending),
            (r + 1, next),
            "rollover {r} not consumed at {r}"
        );
        assert_eq!(ev_par, par, "PAR after rollover {r} diverged");
    }
}

/// Jumps never cross a pending rollover. The kernel `debug_assert`s that
/// on every jump; independently of it, a single pointer-chasing core —
/// whose stalls jump far — capped one cycle past each boundary must have
/// executed the boundary tick rather than landed beyond it.
#[test]
fn jumps_stop_at_rollover_boundaries() {
    let cfg = small_config(11, 1, 1, 30_000);
    let interval = cfg.controller.accuracy_interval;
    let mcf = [profiles::mcf()];
    let mut sys = System::new(cfg.clone(), mcf.to_vec());
    sys.set_fast_forward_mode(FastForwardMode::Event);
    sys.run();
    assert!(sys.profile().ff_jumps > 0, "run never jumped");
    assert!(sys.now() > interval, "run too short to roll over");
    for r in (interval..sys.now()).step_by(interval as usize) {
        let (now, pending, _) = event_state_at(&cfg, &mcf, r + 1);
        assert_eq!(
            (now, pending),
            (r + 1, r + interval),
            "a jump crossed the rollover pending at {r}"
        );
    }
}

/// The retired mode spellings are parse errors, not aliases.
#[test]
fn only_off_and_event_parse() {
    assert_eq!("off".parse(), Ok(FastForwardMode::Off));
    assert_eq!("event".parse(), Ok(FastForwardMode::Event));
    for gone in ["global", "horizon", "on", "1", "true", "0", "false", ""] {
        let err = gone.parse::<FastForwardMode>().unwrap_err();
        assert!(err.contains("off|event"), "{gone:?}: {err}");
    }
    assert_eq!(FastForwardMode::default(), FastForwardMode::Event);
}
