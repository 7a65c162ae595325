//! Soundness of [`MemoryController::next_event`], independent of the
//! full-system byte-identity tests: whenever the controller claims it is
//! idle until cycle `ev`, stepping a clone cycle-by-cycle from `now`
//! toward `ev` must observe *no* state change at all — no completions,
//! no drops, no command issues, not a single mutated field. This is the
//! oracle-vs-stepped equivalence event-driven fast-forwarding rests on
//! (DESIGN.md §11, invariant E1): bounds may be early (the tick at `ev`
//! does nothing and stepping resumes) but never late.
//!
//! The claim is conditional on two things the caller must guarantee, and
//! the test mirrors both: no external mutation (the clone receives no
//! enqueues — invariant E2, policed by the mutation epoch, which the
//! test also pins), and a stable accuracy interval (the window is capped
//! at [`AccuracyTracker::next_rollover`] — invariant E3).
//!
//! The probe also audits the request buffer at every cycle of a claimed
//! window and the controller after every proof (`audit_buffer`, invariant
//! B5 of DESIGN.md §13): the ready lane `next_event` folds must equal a
//! fresh derivation from the channel wherever it is not marked stale.
//!
//! Every case runs its request mix under the whole 6 × 3 × 4 (scheduling ×
//! row × refresh) matrix. The closed-row and HAPPY policies add
//! spontaneous precharges that `next_event` must bound, and the HAPPY
//! predictor must never mutate inside a proven-idle window (the Debug
//! oracle would catch it — predictor state is part of the string).

use padc_core::{AccuracyTracker, ControllerConfig, MemoryController, SchedulingPolicy};
use padc_dram::{DramConfig, ExtendedTiming, MappingScheme, RefreshPolicy, RowPolicy};
use padc_types::{AccessKind, CoreId, LineAddr, RequestKind, CPU_CYCLES_PER_DRAM_CYCLE};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct ReqSpec {
    line: u64,
    core: usize,
    prefetch: bool,
    write: bool,
    gap: u64,
}

fn arb_req() -> impl Strategy<Value = ReqSpec> {
    (
        0u64..4096,
        0usize..4,
        any::<bool>(),
        any::<bool>(),
        0u64..40,
    )
        .prop_map(|(line, core, prefetch, write, gap)| ReqSpec {
            line,
            core,
            // Writebacks are demands in this model.
            prefetch: prefetch && !write,
            write,
            gap,
        })
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

/// Extended-timing / refresh-policy combinations: `None` disables extended
/// timing entirely; the per-bank policies add staggered forced refreshes
/// (and, for DARP, spontaneous refresh pulls) that `next_event` must bound.
const REFRESH_MODES: [Option<RefreshPolicy>; 4] = [
    None,
    Some(RefreshPolicy::AllBank),
    Some(RefreshPolicy::PerBank),
    Some(RefreshPolicy::Darp),
];

/// Cycles a claimed window is stepped from its start: the whole window of
/// most claims.
const HEAD: u64 = 1_500;
/// Cycles stepped just before the claimed event, where a late bound would
/// do its work.
const TAIL: u64 = 64;

/// Steps a clone of `mc` from `now` up to (not including) the claimed
/// event cycle, asserting every tick is a proven no-op. A window longer
/// than `head` + [`TAIL`] is stepped for its first `head` cycles and,
/// jumping as event mode does (the claim says nothing changes in between),
/// its last `TAIL`; the middle is skipped to keep the test fast.
fn assert_claim_holds(
    mc: &MemoryController,
    tracker: &AccuracyTracker,
    now: u64,
    claimed: u64,
    head: u64,
) {
    let end = claimed.min(tracker.next_rollover());
    let head = now..end.min(now + head);
    let tail = head.end.max(end.saturating_sub(TAIL))..end;
    let mut probe = mc.clone();
    let before = format!("{probe:?}");
    for m in head.chain(tail) {
        let out = probe.tick(m, tracker);
        prop_assert!(
            out.completions.is_empty() && out.dropped.is_empty(),
            "tick({m}) did work inside a window proven idle until {claimed} \
             ({} completions, {} drops)",
            out.completions.len(),
            out.dropped.len()
        );
        let after = format!("{probe:?}");
        prop_assert_eq!(
            &after,
            &before,
            "tick({}) mutated controller state inside a window proven idle \
             until {}",
            m,
            claimed
        );
        // B5 at every cycle of the window: no command issued, so each bank's
        // ready-lane entry must still equal a fresh derivation (DESIGN.md
        // §13) — the time-invariance the cached readiness rests on.
        probe.audit_buffer(m + 1, tracker);
    }
}

/// Services `reqs` under one point of the configuration matrix,
/// verifying every `next_event` claim taken along the way against
/// cycle-by-cycle stepping.
fn check_claims(
    reqs: &[ReqSpec],
    policy: SchedulingPolicy,
    row_policy: RowPolicy,
    refresh: Option<RefreshPolicy>,
) {
    let mut cfg = ControllerConfig::from_policy(policy, 4);
    cfg.buffer_entries = 24;
    let mut dram = DramConfig {
        row_policy,
        ..DramConfig::default()
    };
    if let Some(refresh_policy) = refresh {
        dram.extended = Some(ExtendedTiming::default());
        dram.refresh_policy = refresh_policy;
    }
    let mut mc = MemoryController::new(cfg, dram, MappingScheme::Linear);
    // An accuracy interval longer than any run, idle tail included.
    let tracker = AccuracyTracker::new(4, 1_000_000);

    let mut now = 0u64;
    for r in reqs {
        if mc.has_space() {
            let kind = if r.prefetch {
                RequestKind::Prefetch
            } else {
                RequestKind::Demand
            };
            let access = if r.write {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let epoch = mc.mutation_epoch();
            let accepted = mc
                .enqueue(
                    CoreId::new(r.core),
                    LineAddr::new(r.line),
                    access,
                    kind,
                    now,
                )
                .is_some();
            // E2: every accepted enqueue must invalidate cached bounds.
            prop_assert_eq!(
                mc.mutation_epoch(),
                epoch + u64::from(accepted),
                "enqueue did not bump the mutation epoch"
            );
        }
        // Verify the claim as seen right after the external mutation. The
        // proof has just re-derived every stale ready-lane entry, so the
        // audit checks all of them (B5).
        let claim = mc.next_event(now, &tracker);
        mc.audit_buffer(now, &tracker);
        match claim {
            Some(ev) => assert_claim_holds(&mc, &tracker, now, ev, HEAD),
            None => prop_assert!(
                mc.is_idle(),
                "next_event claimed quiescence on a non-idle controller"
            ),
        }
        // Advance for real: the claim must also hold from mid-service
        // cycles, not just from enqueue points.
        for _ in 0..=r.gap {
            mc.tick(now, &tracker);
            now += 1;
        }
    }
    // Drain, re-checking the claim after every executed tick exactly
    // the way event mode re-proves after firing an event.
    let deadline = now + 2_000_000;
    while !mc.is_idle() {
        match mc.next_event(now, &tracker) {
            Some(ev) => {
                assert_claim_holds(&mc, &tracker, now, ev, HEAD);
                // Jump straight to the claimed cycle (capped at the
                // rollover, as the system loop does) and tick there.
                now = now.max(ev.min(tracker.next_rollover()));
            }
            None => prop_assert!(mc.is_idle(), "no claim on a non-idle controller"),
        }
        mc.tick(now, &tracker);
        now += 1;
        prop_assert!(now < deadline, "controller wedged under {policy:?}");
    }
    // Under DARP, then an idle tail of two refresh intervals, proved and
    // jumped through alike: with nothing queued DARP pulls each bank's
    // refresh as its window opens, so a pull is the only next event and a
    // late pull bound is caught here. Nothing is queued, so a short head
    // suffices.
    let tail_end = now + 2 * ExtendedTiming::default().t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
    while refresh == Some(RefreshPolicy::Darp) && now < tail_end {
        let Some(ev) = mc.next_event(now, &tracker) else {
            break;
        };
        assert_claim_holds(&mc, &tracker, now, ev, TAIL);
        now = now.max(ev.min(tracker.next_rollover()));
        mc.tick(now, &tracker);
        now += 1;
    }
}

/// Runs `reqs` under every (scheduling policy, refresh mode) for one row
/// policy — a third of the 6 × 3 × 4 matrix, one `#[test]` per third so
/// the thirds run on parallel test threads.
fn check_claims_for_row_policy(reqs: &[ReqSpec], row_policy: RowPolicy) {
    for policy in all_policies() {
        for refresh in REFRESH_MODES {
            check_claims(reqs, policy, row_policy, refresh);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every `next_event` claim taken while servicing an arbitrary
    /// request mix is verified against cycle-by-cycle stepping, across
    /// all six policies and every extended-timing / refresh-policy mode
    /// (off, all-bank, per-bank, DARP) — here under the open-row policy,
    /// below under the other two.
    #[test]
    fn next_event_never_claims_past_real_work_open_row(
        reqs in prop::collection::vec(arb_req(), 1..40),
    ) {
        check_claims_for_row_policy(&reqs, RowPolicy::Open);
    }

    #[test]
    fn next_event_never_claims_past_real_work_closed_row(
        reqs in prop::collection::vec(arb_req(), 1..40),
    ) {
        check_claims_for_row_policy(&reqs, RowPolicy::Closed);
    }

    #[test]
    fn next_event_never_claims_past_real_work_happy_row(
        reqs in prop::collection::vec(arb_req(), 1..40),
    ) {
        check_claims_for_row_policy(&reqs, RowPolicy::Happy);
    }
}
