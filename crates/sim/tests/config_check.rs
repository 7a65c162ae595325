//! `SimConfig::check` is the one gate in front of every layer's asserts:
//! over the fields a config file can break, it returns `Ok` exactly when
//! `System::new` does not panic, and a refusal on a lower layer's field is
//! one that layer would have enforced itself — so the gate neither misses
//! a panic nor refuses a config the model can run. A config sized past a
//! bound is only checked to be refused: building it would attempt the
//! allocation that aborts.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use padc_core::{AccuracyTracker, SchedulingPolicy};
use padc_dram::{AddressMapper, Channel, ExtendedTiming, RefreshPolicy};
use padc_sim::{SimConfig, System};
use padc_workloads::profiles;
use proptest::prelude::*;

thread_local! {
    /// Set while a panic is expected, to keep its message off stderr.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, catching its panic without printing it.
fn quietly<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    outcome.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// One of `values`; repeating a value weights it.
fn pick<T: Clone + 'static>(values: &'static [T]) -> impl Strategy<Value = T> {
    (0..values.len()).prop_map(move |i| values[i].clone())
}

/// Configs varying the fields a config file can break — with zeros,
/// non-powers of two, sizes that split into no whole number of sets, sizes
/// past a bound and DRAM timings whose CPU-cycle value overflows — around
/// the single-core baseline, mostly valid so that a rule late in `check`
/// is reached with every earlier one passing.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    let system = (
        pick(&[1usize, 1, 2]),
        pick(&[false, false, false, false, false, false, false, true]),
        pick(&[false, false, false, true]),
        pick(&[0u64, 5, 100_000, 100_000, 100_000, 100_000, 100_000]),
        pick(&[0usize, 3, 64, 64, 64, 64, 64, 4_000_000_000]),
        pick(&[0u64, 1, 200_000, 200_000, 200_000, 200_000, 200_000]),
        pick(&[256usize, 256, 256, 256, 256, 256, 256, 4_294_967_295]),
    );
    let caches = (
        pick(&[
            0u64,
            24_576,
            32_768,
            32_768,
            32_768,
            32_768,
            32_768,
            65_536,
            1 << 40,
        ]),
        pick(&[0usize, 3, 4, 4, 4, 4, 4, 8]),
        pick(&[
            0u64,
            1000,
            786_432,
            1 << 20,
            1 << 20,
            1 << 20,
            1 << 20,
            1 << 19,
            1 << 40,
        ]),
        pick(&[0usize, 3, 12, 8, 8, 8, 8, 16]),
    );
    let dram = (
        pick(&[0usize, 3, 1, 1, 1, 1, 1, 2, 4]),
        pick(&[0usize, 3, 8, 8, 8, 8, 8, 1, 16]),
        pick(&[0u64, 32, 100, 4096, 4096, 4096, 4096, 8192]),
        pick(&[10u64, 10, 10, 10, 10, 10, 1 << 62]),
    );
    let timing = (
        pick(&[false, true]),
        pick(&[0u64, 20, 20, 20, 20, 20, 1 << 62]),
        pick(&[0u64, 100, 5200, 5200, 5200, 5200, 1 << 62]),
        pick(&[0u64, 107, 128]),
        pick(&[
            RefreshPolicy::AllBank,
            RefreshPolicy::PerBank,
            RefreshPolicy::Darp,
        ]),
    );
    (system, caches, dram, timing).prop_map(
        |(
            (
                cores,
                mismatch,
                shared_l2,
                accuracy_interval,
                mshr_entries,
                max_instructions,
                window_entries,
            ),
            (l1_size, l1_ways, l2_size, l2_ways),
            (channels, banks, row_bytes, t_rp),
            (extended, t_faw, t_refi, t_rfc, refresh_policy),
        )| {
            let mut c = SimConfig::new(cores, SchedulingPolicy::Padc);
            if mismatch {
                c.controller.cores = 3 - cores;
            }
            c.shared_l2 = shared_l2;
            c.controller.accuracy_interval = accuracy_interval;
            c.mshr_entries = mshr_entries;
            c.core.window_entries = window_entries;
            c.max_instructions = max_instructions;
            (c.l1.size_bytes, c.l1.ways) = (l1_size, l1_ways);
            (c.l2.size_bytes, c.l2.ways) = (l2_size, l2_ways);
            (c.dram.channels, c.dram.banks, c.dram.row_bytes) = (channels, banks, row_bytes);
            c.dram.t_rp = t_rp;
            c.dram.refresh_policy = refresh_policy;
            c.dram.extended = extended.then_some(ExtendedTiming {
                t_faw,
                t_refi,
                t_rfc,
                ..ExtendedTiming::default()
            });
            c
        },
    )
}

/// The asserts of the layers below the simulator that a config reaches:
/// whether any of them panics on `cfg`.
fn a_lower_layer_refuses(cfg: &SimConfig) -> bool {
    quietly(|| {
        AddressMapper::new(&cfg.dram, cfg.mapping);
        cfg.l1.sets();
        cfg.l2_per_cache().sets();
        AccuracyTracker::new(cfg.cores, cfg.controller.accuracy_interval);
        let dram = &cfg.dram;
        Channel::new(dram);
        (
            dram.t_rp_cpu(),
            dram.t_rcd_cpu(),
            dram.cl_cpu(),
            dram.burst_cpu(),
        )
    })
    .is_err()
}

/// Whether `cfg` sizes a window, MSHR table or cache past its bound:
/// building it would attempt the allocation the bound is there to refuse.
fn over_a_bound(cfg: &SimConfig) -> bool {
    cfg.core.window_entries > SimConfig::MAX_TABLE_ENTRIES
        || cfg.mshr_entries > SimConfig::MAX_TABLE_ENTRIES
        || cfg.l1.size_bytes > SimConfig::MAX_CACHE_BYTES
        || cfg.l2_per_cache().size_bytes > SimConfig::MAX_CACHE_BYTES
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn check_passes_exactly_the_configs_system_new_builds(cfg in arb_config()) {
        let verdict = cfg.check();
        if over_a_bound(&cfg) {
            // Refused, and never built.
            prop_assert!(verdict.is_err(), "check passed an oversized {:?}", cfg);
            return;
        }
        let benches = vec![profiles::by_name("milc_06").expect("a catalog profile"); cfg.cores];
        let built = quietly(|| drop(System::new(cfg.clone(), benches)));
        match (&verdict, &built) {
            (Ok(()), Ok(())) => {}
            // `System::new` refuses through the gate, not through an
            // assert further down.
            (Err(rule), Err(panic)) => {
                prop_assert_eq!(panic, &format!("invalid config: {rule}"));
                let lower = ["dram.", "l1.", "l2.", "controller.accuracy_interval"];
                if lower.iter().any(|field| rule.starts_with(field)) {
                    prop_assert!(a_lower_layer_refuses(&cfg), "{} refused a buildable {:?}", rule, cfg);
                }
            }
            _ => prop_assert!(false, "check {:?} but System::new {:?} on {:?}", verdict, built, cfg),
        }
    }
}

/// The generator reaches every rule a `padcsim --config` input used to
/// panic on — each row of `cli_usage`'s `config_sizes_must_be_ones_the_
/// model_can_run` from `dram.banks` on — with every earlier rule passing.
#[test]
fn the_generator_reaches_every_rule() {
    let strategy = arb_config();
    let mut rng = <proptest::TestRng as rand::SeedableRng>::seed_from_u64(32);
    let refusals: Vec<String> = (0..20_000)
        .filter_map(|_| strategy.gen_value(&mut rng).check().err())
        .collect();
    for rule in [
        "dram.banks is 0,",
        "dram.banks is 3,",
        "dram.channels is 0,",
        "dram.channels is 3,",
        "dram.row_bytes is 0,",
        "l1.size_bytes is 0 ",
        "with l1.ways 0,",
        "with l1.ways 3,",
        "l2.size_bytes is 1000 ",
        "mshr_entries is 0,",
        "mshr_entries is 4000000000, must be at most 65536",
        "core.window_entries is 4294967295, must be at most 65536",
        "l1.size_bytes is 1099511627776, must be at most 268435456",
        "l2.size_bytes is 1099511627776, must be at most 268435456",
        "max_instructions is 0,",
        "controller.cores is 2, must equal cores (1)",
        "controller.accuracy_interval is 0,",
        "dram.extended.t_refi is 100 with t_rfc 128,",
        "dram.t_rp is 4611686018427387904, must be at most 4294967296",
        "dram.extended.t_refi is 4611686018427387904, must be at most 4294967296",
    ] {
        assert!(
            refusals.iter().any(|r| r.contains(rule)),
            "no generated config breaks `{rule}`"
        );
    }
}
