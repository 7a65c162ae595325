//! Property test for the request buffer's incremental bookkeeping: after
//! arbitrary enqueue / writeback / promote / tick sequences, the slab's
//! member rows, counts, APD heaps, rank table, every non-dirty bank's
//! maintained owner, and every non-stale bank's ready-lane entry must equal
//! a from-scratch recompute (`MemoryController::audit_buffer` panics on
//! divergence — invariants B1–B5 in DESIGN.md §13). Every case runs its op sequence under the
//! whole configuration matrix, so no combination goes undrawn.

use padc_core::{AccuracyTracker, ControllerConfig, MemoryController, SchedulingPolicy};
use padc_dram::{DramConfig, ExtendedTiming, MappingScheme, RefreshPolicy, RowPolicy};
use padc_types::{AccessKind, CoreId, LineAddr, RequestKind};
use proptest::prelude::*;

/// One step of the driving sequence.
#[derive(Clone, Debug)]
enum Op {
    /// Enqueue a read request (demand or prefetch) if the buffer has space.
    Enqueue {
        line: u64,
        core: usize,
        prefetch: bool,
    },
    /// Enqueue a dirty-line writeback (forced, like the cache does).
    Writeback { line: u64, core: usize },
    /// Promote any buffered prefetch of this line to demand priority.
    Promote { line: u64 },
    /// Advance time and run the controller for a few cycles.
    Tick { cycles: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest shim has no weighted `prop_oneof!`; weight the
    // common arms (enqueue, tick) by choosing a selector range instead.
    (0u32..10, 0u64..2048, 0usize..4, any::<bool>(), 1u32..24).prop_map(
        |(sel, line, core, prefetch, cycles)| match sel {
            0..=3 => Op::Enqueue {
                line,
                core,
                prefetch,
            },
            4 => Op::Writeback { line, core },
            5 => Op::Promote { line },
            _ => Op::Tick { cycles },
        },
    )
}

fn all_policies() -> [SchedulingPolicy; 6] {
    [
        SchedulingPolicy::DemandPrefetchEqual,
        SchedulingPolicy::DemandFirst,
        SchedulingPolicy::PrefetchFirst,
        SchedulingPolicy::ApsOnly,
        SchedulingPolicy::Padc,
        SchedulingPolicy::PadcRank,
    ]
}

/// Every row-buffer management policy, so B1–B5 cover the closed-row *and*
/// HAPPY policy-precharge invalidation rules automatically.
const ROW_POLICIES: [RowPolicy; 3] = [RowPolicy::Open, RowPolicy::Closed, RowPolicy::Happy];

/// Every refresh policy (with extended timing enabled). Short sequences
/// never reach a forced t_REFI boundary, but DARP's idle-bank pulls fire
/// from cycle 0 — each one a bank-state-changing command whose owner
/// invalidation (the §13 dirty-owner rule) the audit must confirm.
const REFRESH_POLICIES: [RefreshPolicy; 3] = [
    RefreshPolicy::AllBank,
    RefreshPolicy::PerBank,
    RefreshPolicy::Darp,
];

/// Runs the op sequence, auditing the buffer after every mutation point.
/// `accuracy_interval` is deliberately short so PAR rollovers (a cached-key
/// input change) happen mid-sequence.
fn drive_and_audit(ops: &[Op], mut cfg: ControllerConfig, dram: DramConfig) {
    cfg.buffer_entries = 16; // small slab: force free-list reuse and overflow
    let mut mc = MemoryController::new(cfg, dram, MappingScheme::Linear);
    let mut tracker = AccuracyTracker::new(4, 512);
    let mut now = 0u64;
    for op in ops {
        match *op {
            Op::Enqueue {
                line,
                core,
                prefetch,
            } => {
                if mc.has_space() {
                    let kind = if prefetch {
                        RequestKind::Prefetch
                    } else {
                        RequestKind::Demand
                    };
                    mc.enqueue(
                        CoreId::new(core),
                        LineAddr::new(line),
                        AccessKind::Load,
                        kind,
                        now,
                    );
                }
            }
            Op::Writeback { line, core } => {
                mc.enqueue_writeback(CoreId::new(core), LineAddr::new(line), now);
            }
            Op::Promote { line } => {
                mc.promote_prefetch(LineAddr::new(line));
            }
            Op::Tick { cycles } => {
                for _ in 0..cycles {
                    mc.tick(now, &tracker);
                    tracker.tick(now);
                    now += 1;
                }
            }
        }
        mc.audit_buffer(now, &tracker);
    }
    // Drain so completions/removals past the driven window get audited too.
    let deadline = now + 2_000_000;
    while !mc.is_idle() {
        mc.tick(now, &tracker);
        tracker.tick(now);
        now += 1;
        mc.audit_buffer(now, &tracker);
        assert!(now < deadline, "controller wedged during drain");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Maintained owners, the lane, member rows, counts, and APD heaps match a
    /// from-scratch recompute under every scheduling policy.
    #[test]
    fn incremental_state_matches_recompute(ops in prop::collection::vec(arb_op(), 1..60)) {
        for policy in all_policies() {
            let cfg = ControllerConfig::from_policy(policy, 4);
            drive_and_audit(&ops, cfg, DramConfig::default());
        }
    }

    /// Same property with the key inputs the owners are most sensitive
    /// to turned on explicitly: urgency, batching, write drain, every row
    /// policy (closed-row and HAPPY add policy precharges, which still
    /// dirty their bank — §13), and every refresh policy (DARP adds refresh
    /// pulls → the same rule again): all 3 × 3 × 3 combinations per case.
    #[test]
    fn incremental_state_matches_recompute_extended(ops in prop::collection::vec(arb_op(), 1..60)) {
        for policy in &all_policies()[3..] {
            for row_policy in ROW_POLICIES {
                for refresh_policy in REFRESH_POLICIES {
                    let mut cfg = ControllerConfig::from_policy(*policy, 4);
                    cfg.urgency = true;
                    cfg.batching = true;
                    cfg.batch_cap = 3;
                    cfg.write_drain = true;
                    cfg.write_drain_high = 6;
                    cfg.write_drain_low = 2;
                    let dram = DramConfig {
                        row_policy,
                        extended: Some(ExtendedTiming::default()),
                        refresh_policy,
                        ..DramConfig::default()
                    };
                    drive_and_audit(&ops, cfg, dram);
                }
            }
        }
    }
}
