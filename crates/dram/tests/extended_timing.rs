//! Behavioural tests for the optional extended DDR3 constraints
//! (tRAS / tWR / tRTP / tFAW / refresh). The default (paper) model must be
//! completely unaffected.

use padc_dram::{Channel, DramConfig, ExtendedTiming, RowBufferOutcome, StepOutcome};
use padc_types::CPU_CYCLES_PER_DRAM_CYCLE;

fn ext_cfg() -> DramConfig {
    DramConfig {
        extended: Some(ExtendedTiming::default()),
        ..DramConfig::default()
    }
}

const K: u64 = CPU_CYCLES_PER_DRAM_CYCLE;

/// Drives `(bank,row)` until the CAS issues, returning (cas_time,
/// completes_at).
fn service(ch: &mut Channel, bank: usize, row: u64, write: bool, mut now: u64) -> (u64, u64) {
    loop {
        match ch.advance(bank, row, write, now) {
            StepOutcome::CasIssued { completes_at } => return (now, completes_at),
            _ => now += K,
        }
        assert!(now < 1_000_000, "wedged");
    }
}

#[test]
fn default_model_has_no_refreshes() {
    let cfg = DramConfig::default();
    let mut ch = Channel::new(&cfg);
    for t in 0..2000u64 {
        ch.sync(t * K);
    }
    assert_eq!(ch.stats().refreshes, 0);
}

#[test]
fn t_ras_delays_early_precharge() {
    let cfg = ext_cfg();
    let mut ch = Channel::new(&cfg);
    // Open row 1 (ACT at t=0); immediately try to conflict with row 2.
    assert_eq!(ch.advance(0, 1, false, 0), StepOutcome::Activated);
    let ready = cfg.t_rcd_cpu();
    // The row is open, so row 2 is a conflict, but tRAS (24 bus cycles =
    // 240 CPU cycles) has not elapsed: the precharge must wait.
    assert_eq!(ch.classify(0, 2, ready), RowBufferOutcome::Conflict);
    assert!(
        !ch.can_advance(0, 2, ready),
        "precharge before tRAS must be illegal"
    );
    let t_ras = ExtendedTiming::default().t_ras * K;
    assert!(ch.can_advance(0, 2, t_ras), "precharge legal after tRAS");
}

#[test]
fn write_recovery_outlasts_read_to_precharge() {
    // After a write CAS, precharging the bank must wait ~tWR; after a read
    // only ~tRTP. Measure the earliest conflict PRE after each.
    let earliest_pre_after = |write: bool| -> u64 {
        let cfg = ext_cfg();
        let mut ch = Channel::new(&cfg);
        ch.advance(0, 1, write, 0);
        let (_, completes) = service(&mut ch, 0, 1, write, cfg.t_rcd_cpu());
        let mut now = completes;
        loop {
            if ch.can_advance(0, 2, now) {
                return now;
            }
            now += K;
            assert!(now < 1_000_000);
        }
    };
    let after_read = earliest_pre_after(false);
    let after_write = earliest_pre_after(true);
    assert!(
        after_write > after_read,
        "write recovery ({after_write}) must exceed read-to-precharge ({after_read})"
    );
}

#[test]
fn t_faw_limits_activation_bursts() {
    let cfg = ext_cfg();
    let mut ch = Channel::new(&cfg);
    // Issue ACTs to four different banks back-to-back (one per DRAM cycle).
    let mut now = 0;
    for bank in 0..4 {
        assert_eq!(
            ch.advance(bank, 1, false, now),
            StepOutcome::Activated,
            "bank {bank}"
        );
        now += K;
    }
    // A fifth ACT within the tFAW window must be blocked...
    assert!(
        !ch.can_advance(4, 1, now),
        "fifth ACT inside tFAW must wait"
    );
    // ...but becomes legal once the window slides past the first ACT.
    let t_faw = ExtendedTiming::default().t_faw * K;
    assert!(ch.can_advance(4, 1, t_faw + K));
}

#[test]
fn refresh_blocks_commands_and_closes_rows() {
    let cfg = ext_cfg();
    let e = ExtendedTiming::default();
    let mut ch = Channel::new(&cfg);
    // Open a row well before the first refresh boundary.
    ch.advance(0, 1, false, 0);
    let refi = e.t_refi * K;
    let rfc = e.t_rfc * K;
    // `sync` at the boundary applies one REF to every bank.
    assert!(ch.sync(refi - K).is_empty());
    assert_eq!(ch.sync(refi), (0..cfg.banks).collect::<Vec<_>>());
    assert_eq!(ch.stats().refreshes, 1);
    // Every bank refuses commands for t_rfc...
    for bank in 0..cfg.banks {
        assert!(!ch.can_advance(bank, 1, refi + rfc - 1), "bank {bank}");
    }
    // ...then comes back closed: the old row is gone.
    let after = refi + rfc;
    for bank in 0..cfg.banks {
        assert_eq!(ch.classify(bank, 1, after), RowBufferOutcome::Closed);
        assert!(ch.can_advance(bank, 1, after), "bank {bank}");
    }
    assert!(ch.sync(after).is_empty());
    assert_eq!(ch.stats().refreshes, 1);
}

#[test]
fn extended_timing_is_off_by_default_and_identical() {
    // A row-conflict sequence under the default config must behave exactly
    // as the paper's three-latency model: PRE legal immediately.
    let cfg = DramConfig::default();
    let mut ch = Channel::new(&cfg);
    ch.advance(0, 1, false, 0);
    let t = cfg.t_rcd_cpu();
    let (_, _) = service(&mut ch, 0, 1, false, t);
    // Immediately precharge for a conflicting row: legal right away.
    let now = t + 2 * K;
    assert_eq!(ch.classify(0, 2, now), RowBufferOutcome::Conflict);
    assert!(ch.can_advance(0, 2, now));
}
