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

/// A field a config file can break: how to set it, values the model runs
/// in any combination with the other fields' (repeating a value weights
/// it), and edge values that may break a rule.
struct Field {
    set: fn(&mut SimConfig, u64),
    valid: &'static [u64],
    edge: &'static [u64],
}

const FIELDS: [Field; 16] = [
    Field {
        // 1 makes `controller.cores` differ from `cores`.
        set: |c, mismatch| {
            if mismatch == 1 {
                c.controller.cores = 3 - c.cores;
            }
        },
        valid: &[0],
        edge: &[1],
    },
    Field {
        set: |c, v| c.controller.accuracy_interval = v,
        valid: &[5, 100_000],
        edge: &[0],
    },
    Field {
        set: |c, v| c.mshr_entries = v as usize,
        valid: &[3, 64],
        edge: &[0, 4_000_000_000],
    },
    Field {
        set: |c, v| c.max_instructions = v,
        valid: &[1, 200_000],
        edge: &[0],
    },
    Field {
        set: |c, v| c.core.window_entries = v as usize,
        valid: &[256],
        edge: &[4_294_967_295],
    },
    Field {
        set: |c, v| c.l1.size_bytes = v,
        valid: &[32_768, 65_536],
        edge: &[0, 24_576, 1 << 40],
    },
    Field {
        set: |c, v| c.l1.ways = v as usize,
        valid: &[4, 8],
        edge: &[0, 3],
    },
    Field {
        set: |c, v| c.l2.size_bytes = v,
        valid: &[1 << 19, 1 << 20],
        edge: &[0, 1000, 786_432, 1 << 40],
    },
    Field {
        set: |c, v| c.l2.ways = v as usize,
        valid: &[8, 16],
        edge: &[0, 3, 12],
    },
    Field {
        set: |c, v| c.dram.channels = v as usize,
        valid: &[1, 2, 4],
        edge: &[0, 3],
    },
    Field {
        set: |c, v| c.dram.banks = v as usize,
        valid: &[1, 8, 16],
        edge: &[0, 3],
    },
    Field {
        set: |c, v| c.dram.row_bytes = v,
        valid: &[4096, 8192],
        edge: &[0, 32, 100],
    },
    Field {
        set: |c, v| c.dram.t_rp = v,
        valid: &[10],
        edge: &[1 << 62],
    },
    Field {
        set: |c, v| c.dram.extended.iter_mut().for_each(|e| e.t_faw = v),
        valid: &[20],
        edge: &[0, 1 << 62],
    },
    Field {
        // 0 disables refresh.
        set: |c, v| c.dram.extended.iter_mut().for_each(|e| e.t_refi = v),
        valid: &[0, 5200, 5200, 5200],
        edge: &[100, 1 << 62],
    },
    Field {
        set: |c, v| c.dram.extended.iter_mut().for_each(|e| e.t_rfc = v),
        valid: &[107, 128],
        edge: &[0],
    },
];

/// Configs around the baseline that break at most one field: every field
/// takes one of its valid values, and in half the cases one field then
/// takes an edge value — a zero, a non-power of two, a size that splits
/// into no whole number of sets, a size past a bound, a DRAM timing whose
/// CPU-cycle value overflows — so a rule late in `check` is reached with
/// every earlier one passing.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        pick(&[1usize, 1, 2]),
        pick(&[false, false, false, true]),
        pick(&[false, true]),
        pick(&[
            RefreshPolicy::AllBank,
            RefreshPolicy::PerBank,
            RefreshPolicy::Darp,
        ]),
        prop::collection::vec(any::<usize>(), FIELDS.len()),
        0..2 * FIELDS.len(),
        any::<usize>(),
    )
        .prop_map(
            |(cores, shared_l2, extended, refresh_policy, draws, broken, edge)| {
                let mut c = SimConfig::new(cores, SchedulingPolicy::Padc);
                c.shared_l2 = shared_l2;
                c.dram.refresh_policy = refresh_policy;
                c.dram.extended = extended.then(ExtendedTiming::default);
                for (field, draw) in FIELDS.iter().zip(draws) {
                    (field.set)(&mut c, field.valid[draw % field.valid.len()]);
                }
                if let Some(field) = FIELDS.get(broken) {
                    (field.set)(&mut c, field.edge[edge % field.edge.len()]);
                }
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
/// model_can_run` from `dram.banks` on — with every earlier rule passing,
/// and at least a quarter of what it generates passes every rule.
#[test]
fn the_generator_reaches_every_rule() {
    const CASES: usize = 20_000;
    let strategy = arb_config();
    let mut rng = <proptest::TestRng as rand::SeedableRng>::seed_from_u64(32);
    let refusals: Vec<String> = (0..CASES)
        .filter_map(|_| strategy.gen_value(&mut rng).check().err())
        .collect();
    let passing = CASES - refusals.len();
    assert!(
        4 * passing >= CASES,
        "only {passing} of {CASES} generated configs pass `check`"
    );
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

/// Rules no lower layer asserts, because a config that breaks them runs: a
/// write drain that starts at or below where it stops, APD accuracy bands
/// out of order, and an APS promotion threshold outside [0, 1]. Each is
/// refused naming its field, and `System::new` refuses it through the gate;
/// each edit leaves the default passing.
#[test]
fn drain_watermarks_and_drop_bands_must_be_ordered() {
    type Edit = fn(&mut SimConfig);
    let cases: [(Edit, &str); 6] = [
        (
            |c| {
                c.controller.write_drain = true;
                c.controller.write_drain_high = 3;
                c.controller.write_drain_low = 40;
            },
            "controller.write_drain_high is 3, must exceed controller.write_drain_low (40)",
        ),
        (
            |c| c.controller.drop_thresholds.breakpoints = [0.7, 0.3, 0.1],
            "controller.drop_thresholds.breakpoints is [0.7, 0.3, 0.1], \
             must be strictly ascending within [0, 1]",
        ),
        (
            |c| c.controller.drop_thresholds.breakpoints = [0.1, 0.3, 1.5],
            "controller.drop_thresholds.breakpoints is [0.1, 0.3, 1.5], \
             must be strictly ascending within [0, 1]",
        ),
        (
            |c| c.controller.drop_thresholds.thresholds = [100_000, 50_000, 1_500, 100],
            "controller.drop_thresholds.thresholds is [100000, 50000, 1500, 100], \
             must be non-decreasing",
        ),
        (
            |c| c.controller.promotion_threshold = 1.5,
            "controller.promotion_threshold is 1.5, must be within [0, 1]",
        ),
        (
            |c| c.controller.promotion_threshold = -3.0,
            "controller.promotion_threshold is -3, must be within [0, 1]",
        ),
    ];
    let milc = profiles::by_name("milc_06").expect("a catalog profile");
    for (edit, rule) in cases {
        let mut cfg = SimConfig::new(1, SchedulingPolicy::Padc);
        assert_eq!(cfg.check(), Ok(()));
        edit(&mut cfg);
        assert_eq!(cfg.check(), Err(rule.to_string()));
        let built = quietly(|| drop(System::new(cfg, vec![milc.clone()])));
        assert_eq!(built, Err(format!("invalid config: {rule}")));
    }
    // The watermarks matter only with the drain on.
    let mut off = SimConfig::new(1, SchedulingPolicy::Padc);
    off.controller.write_drain_high = 3;
    off.controller.write_drain_low = 40;
    assert_eq!(off.check(), Ok(()));
}
