use std::collections::VecDeque;

use padc_types::{Cycle, CPU_CYCLES_PER_DRAM_CYCLE};

use crate::{
    Bank, BankState, ChannelStats, DramConfig, ExtendedTiming, HappyPredictor, RefreshPolicy,
    RowBufferOutcome, RowPolicy,
};

/// Extended timing converted to CPU cycles (see [`ExtendedTiming`]);
/// the refresh pair lives in [`RefreshGrid`].
#[derive(Clone, Copy, Debug)]
struct ExtCpu {
    t_ras: Cycle,
    t_wr: Cycle,
    t_rtp: Cycle,
    t_faw: Cycle,
}

/// Side counters for the refresh model (DESIGN.md §15). Kept out of
/// [`ChannelStats`] — which is serialized into per-run reports — so that
/// result bytes stay identical across refresh-policy-free configs; runs
/// surface these through the profile instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RefreshCounters {
    /// Refreshes pulled early into idle/drain slots ([`RefreshPolicy::Darp`]).
    pub pulls: u64,
    /// Bank-unavailable CPU cycles charged to refresh: `t_rfc` per bank per
    /// all-bank refresh, `t_rfcpb` per per-bank refresh (forced or pulled).
    pub stall_cycles: u64,
}

/// The one refresh state (DESIGN.md §15), present with extended timing
/// and a nonzero `t_refi`. Bank `b`'s k-th window opens at
/// `k·t_refi + b·stride` and its refresh is forced at the window's end.
/// All-bank refresh is the grid with `stride = 0` — every bank on one
/// boundary, one REF covering them all for `t_rfc`; the per-bank policies
/// stagger the banks by `stride = t_refi / nbanks`, so forced refreshes
/// never pile up on one cycle, with one REF per bank for
/// `t_rfcpb = t_rfc / 2` (per-bank REF restores one bank's worth of rows).
#[derive(Clone, Debug)]
struct RefreshGrid {
    /// Refresh windows applied so far, per bank.
    applied: Vec<u64>,
    t_refi: Cycle,
    /// Offset between consecutive banks' windows.
    stride: Cycle,
    /// Banks one REF covers: all of them, or one.
    per_ref: usize,
    /// Bank-busy duration of one REF, CPU cycles.
    t_rfc: Cycle,
    /// DARP out-of-order pulls enabled ([`RefreshPolicy::Darp`]).
    darp: bool,
}

impl RefreshGrid {
    fn new(e: &ExtendedTiming, policy: RefreshPolicy, banks: usize) -> Option<Self> {
        let k = CPU_CYCLES_PER_DRAM_CYCLE;
        let (t_refi, t_rfc) = (e.t_refi * k, e.t_rfc * k);
        if t_refi == 0 {
            return None;
        }
        let (stride, per_ref, t_rfc) = match policy {
            RefreshPolicy::AllBank => (0, banks, t_rfc),
            RefreshPolicy::PerBank | RefreshPolicy::Darp => {
                (t_refi / banks as Cycle, 1, (t_rfc / 2).max(1))
            }
        };
        Some(RefreshGrid {
            applied: vec![0; banks],
            t_refi,
            stride,
            per_ref,
            t_rfc,
            darp: policy == RefreshPolicy::Darp,
        })
    }

    /// Start of bank `b`'s window grid.
    fn offset(&self, bank: usize) -> Cycle {
        self.stride * bank as Cycle
    }

    /// Windows of `bank` whose end boundary `now` has reached.
    fn due(&self, bank: usize, now: Cycle) -> u64 {
        now.saturating_sub(self.offset(bank)) / self.t_refi
    }

    /// Where `bank`'s current window opened: a pull may pay it from here.
    fn window_open(&self, bank: usize) -> Cycle {
        self.applied[bank] * self.t_refi + self.offset(bank)
    }
}

/// The bank-local half of a request's readiness (DESIGN.md §11, the
/// decomposition lemma): which command it needs next and the earliest cycle
/// its bank accepts that command. Both are functions of the bank's *raw*
/// state — an activating row already classifies as its future hit, a
/// precharging bank as closed — so they hold until the next command to the
/// bank or refresh applied to it, whatever `now` does in between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BankReady {
    /// Row-buffer class of the access: the next command is a CAS (hit), an
    /// ACT (closed) or a PRE (conflict).
    pub class: RowBufferOutcome,
    /// Earliest cycle the bank accepts it: an in-flight ACT / PRE's
    /// completion and, for a PRE, tRAS / tWR / tRTP.
    pub local: Cycle,
}

/// The channel-level half: what the shared buses and the tFAW window add to
/// every bank's [`BankReady`]. Constant until the next command issues on the
/// channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelFloors {
    /// Per [`RowBufferOutcome`]: data bus − CL (hit), tFAW (closed), 0
    /// (conflict).
    by_class: [Cycle; 3],
    cmd_bus_free_at: Cycle,
}

impl ChannelFloors {
    /// Earliest cycle `part`'s command can issue.
    #[inline]
    pub fn ready_at(&self, part: BankReady) -> Cycle {
        part.local
            .max(self.by_class[part.class as usize])
            .max(self.cmd_bus_free_at)
    }
}

/// Result of issuing one command toward a request via [`Channel::advance`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// A precharge was issued (row-conflict path).
    Precharged,
    /// An activate was issued; the row is opening.
    Activated,
    /// The final CAS was issued; data (and the request) completes at
    /// `completes_at` CPU cycles.
    CasIssued {
        /// CPU cycle at which the data burst (and the request) finishes.
        completes_at: Cycle,
    },
    /// No command could issue this cycle (bank or data bus busy).
    Blocked,
}

/// One DRAM channel: a set of banks behind shared command and data buses.
///
/// The command bus accepts at most one command per DRAM bus cycle; the data
/// bus carries one burst at a time. Both constraints are enforced here so
/// that schedulers built on top automatically experience realistic
/// contention.
#[derive(Clone, Debug)]
pub struct Channel {
    banks: Vec<Bank>,
    /// CPU cycle at which the data bus becomes free.
    data_bus_free_at: Cycle,
    /// CPU cycle at which the command bus accepts another command.
    cmd_bus_free_at: Cycle,
    t_rp: Cycle,
    t_rcd: Cycle,
    cl: Cycle,
    burst: Cycle,
    stats: ChannelStats,
    /// Extended constraints (None = the paper's three-latency model).
    ext: Option<ExtCpu>,
    /// Per-bank earliest legal precharge time (tRAS / tWR / tRTP).
    min_precharge_at: Vec<Cycle>,
    /// Times of the most recent ACTs (tFAW window).
    act_history: VecDeque<Cycle>,
    /// Refresh state (None = no refresh).
    refresh: Option<RefreshGrid>,
    /// Refresh side counters (see [`RefreshCounters`]).
    refresh_counters: RefreshCounters,
    /// HAPPY per-row open/closed predictor; present only under
    /// [`RowPolicy::Happy`], so the other policies' channel state (and
    /// therefore their result bytes) is untouched by this mechanism.
    happy: Option<HappyPredictor>,
}

impl Channel {
    /// Creates a channel with all banks closed.
    pub fn new(cfg: &DramConfig) -> Self {
        let ext = cfg.extended.map(|e| {
            e.validate();
            let k = CPU_CYCLES_PER_DRAM_CYCLE;
            ExtCpu {
                t_ras: e.t_ras * k,
                t_wr: e.t_wr * k,
                t_rtp: e.t_rtp * k,
                t_faw: e.t_faw * k,
            }
        });
        let refresh = cfg
            .extended
            .and_then(|e| RefreshGrid::new(&e, cfg.refresh_policy, cfg.banks));
        Channel {
            banks: (0..cfg.banks).map(|_| Bank::new()).collect(),
            data_bus_free_at: 0,
            cmd_bus_free_at: 0,
            t_rp: cfg.t_rp_cpu(),
            t_rcd: cfg.t_rcd_cpu(),
            cl: cfg.cl_cpu(),
            burst: cfg.burst_cpu(),
            stats: ChannelStats::default(),
            ext,
            min_precharge_at: vec![0; cfg.banks],
            act_history: VecDeque::with_capacity(4),
            refresh,
            refresh_counters: RefreshCounters::default(),
            happy: (cfg.row_policy == RowPolicy::Happy).then(HappyPredictor::new),
        }
    }

    /// Applies the refresh boundaries passed since the last call, returning
    /// the banks it refreshed: each bank whose window end `now` has reached
    /// gets its forced refresh — one REF for all of them under all-bank
    /// refresh, one per bank under the per-bank policies. However many of a
    /// bank's boundaries passed, one refresh is applied: fast-forwarding
    /// resumes at every boundary ([`Channel::next_refresh_boundary`]), so
    /// call once per DRAM scheduling cycle (no-op without refresh).
    pub fn sync(&mut self, now: Cycle) -> Vec<usize> {
        let Some(g) = &mut self.refresh else {
            return Vec::new();
        };
        let mut refreshed = Vec::new();
        for bank in 0..g.applied.len() {
            let due = g.due(bank, now);
            if due > g.applied[bank] {
                g.applied[bank] = due;
                refreshed.push(bank);
            }
        }
        let per_ref = g.per_ref;
        for banks in refreshed.chunks(per_ref) {
            self.apply_ref(banks, now);
        }
        refreshed
    }

    /// The one apply path of forced and pulled refreshes: one REF at `now`
    /// occupying each of `banks` for the grid's `t_rfc`. Whatever row was
    /// open (or opening) is lost without a PRE — and without HAPPY
    /// training, since a refresh eviction says nothing about locality.
    fn apply_ref(&mut self, banks: &[usize], now: Cycle) {
        let t_rfc = self.refresh.as_ref().expect("a refresh grid").t_rfc;
        self.stats.refreshes += 1;
        self.refresh_counters.stall_cycles += t_rfc * banks.len() as Cycle;
        for &bank in banks {
            self.banks[bank].refresh(now + t_rfc);
        }
    }

    /// Number of banks on this channel.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Accumulated channel statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Row currently open (or opening) in `bank`, for row-hit prioritization.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn effective_row(&self, bank: usize, now: Cycle) -> Option<u64> {
        self.banks[bank].effective_row(now)
    }

    /// Classifies an access to `(bank, row)` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn classify(&self, bank: usize, row: u64, now: Cycle) -> RowBufferOutcome {
        self.banks[bank].classify(row, now)
    }

    /// True if the command bus is free at `now`.
    pub fn command_bus_free(&self, now: Cycle) -> bool {
        now >= self.cmd_bus_free_at
    }

    /// The bank-local half of `(bank, row)`'s readiness: its class and the
    /// earliest cycle the bank accepts the command that class needs. Holds
    /// until the next command to `bank` or refresh applied to it.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn bank_ready(&self, bank: usize, row: u64) -> BankReady {
        let (class, busy_until) = self.banks[bank].readiness(row);
        let local = match class {
            RowBufferOutcome::Conflict => busy_until.max(self.min_precharge_at[bank]),
            RowBufferOutcome::Hit | RowBufferOutcome::Closed => busy_until,
        };
        BankReady { class, local }
    }

    /// The channel-level half: per-class floors and the command bus. Holds
    /// until the next command issues on the channel.
    #[inline]
    pub fn floors(&self) -> ChannelFloors {
        let faw = match self.ext {
            // ACT times only grow, so the oldest of a full history is the
            // one that ages out of the window first.
            Some(e) if self.act_history.len() == 4 => self.act_history[0] + e.t_faw,
            _ => 0,
        };
        let mut by_class = [0; 3];
        by_class[RowBufferOutcome::Hit as usize] = self.data_bus_free_at.saturating_sub(self.cl);
        by_class[RowBufferOutcome::Closed as usize] = faw;
        ChannelFloors {
            by_class,
            cmd_bus_free_at: self.cmd_bus_free_at,
        }
    }

    /// True if [`Channel::advance`] would issue a command for `(bank, row)`
    /// at `now` — i.e. the command bus is free and the bank (plus, for a
    /// CAS, the data bus; for an ACT, the tFAW window) can accept the next
    /// command the request needs: the two halves of its readiness joined.
    pub fn can_advance(&self, bank: usize, row: u64, now: Cycle) -> bool {
        now >= self.floors().ready_at(self.bank_ready(bank, row))
    }

    /// Issues the next command needed to service `(bank, row)` at `now`.
    ///
    /// Returns [`StepOutcome::Blocked`] when nothing can issue. For the
    /// paper's command latencies, a request is serviced by at most three
    /// successive `advance` calls (PRE, ACT, CAS).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn advance(&mut self, bank: usize, row: u64, is_write: bool, now: Cycle) -> StepOutcome {
        if !self.can_advance(bank, row, now) {
            return StepOutcome::Blocked;
        }
        self.cmd_bus_free_at = now + CPU_CYCLES_PER_DRAM_CYCLE;
        let b = &mut self.banks[bank];
        match b.classify(row, now) {
            RowBufferOutcome::Conflict => {
                if let (Some(h), Some(victim)) = (self.happy.as_mut(), b.open_row(now)) {
                    h.train_from_precharge(bank, victim, b.cas_served());
                }
                b.precharge(now, self.t_rp);
                self.stats.precharges += 1;
                StepOutcome::Precharged
            }
            RowBufferOutcome::Closed => {
                b.activate(row, now, self.t_rcd);
                self.stats.activations += 1;
                if let Some(e) = self.ext {
                    self.min_precharge_at[bank] = now + e.t_ras;
                    if self.act_history.len() == 4 {
                        self.act_history.pop_front();
                    }
                    self.act_history.push_back(now);
                }
                StepOutcome::Activated
            }
            RowBufferOutcome::Hit => {
                let data_start = now + self.cl;
                let completes_at = data_start + self.burst;
                self.data_bus_free_at = completes_at;
                if is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                if let Some(e) = self.ext {
                    let recovery = if is_write { e.t_wr } else { e.t_rtp };
                    let earliest = completes_at + recovery;
                    let slot = &mut self.min_precharge_at[bank];
                    *slot = (*slot).max(earliest);
                }
                self.stats.data_bus_busy_cycles += self.burst;
                b.note_cas();
                StepOutcome::CasIssued { completes_at }
            }
        }
    }

    /// Next refresh boundary not yet applied by [`Channel::sync`] (`None`
    /// without refresh): the earliest unapplied window end across the banks.
    /// May equal `now` when the boundary's scheduling tick has not run yet.
    /// Fast-forwarding must never skip across one: `sync` applies one
    /// refresh per bank however many boundaries have passed, so stat parity
    /// with cycle-by-cycle stepping requires resuming at every boundary.
    pub fn next_refresh_boundary(&self, now: Cycle) -> Option<Cycle> {
        let g = self.refresh.as_ref()?;
        let next = (0..g.applied.len())
            .map(|b| g.window_open(b) + g.t_refi)
            .min()
            .expect("channel has at least one bank");
        Some(next.max(now))
    }

    /// Lower bound on the first cycle `m >= now` at which
    /// [`Channel::pull_refresh`]`(bank, m)` can succeed, assuming no command
    /// issues on the channel in between; `None` when pulls can never happen
    /// (not [`RefreshPolicy::Darp`]). The bound includes the opening of
    /// `bank`'s current refresh window — before it, nothing is pending —
    /// so a pull needs no separate pending test. Early-never-late, like
    /// [`Channel::earliest_precharge_at`]: this is the DARP contribution to
    /// the controller's `next_event` fold (DESIGN.md §15).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn earliest_refresh_pull_at(&self, bank: usize, now: Cycle) -> Option<Cycle> {
        let window_open = match &self.refresh {
            Some(g) if g.darp => g.window_open(bank),
            _ => return None,
        };
        // A pull needs the bank command-ready: closed, or open with its row
        // legally precharge-able (the REF implicitly closes it).
        let bank_ready = match self.banks[bank].state_at(now) {
            BankState::Closed => now,
            BankState::Open { .. } => now.max(self.min_precharge_at[bank]),
            BankState::Activating { ready_at, .. } => ready_at.max(self.min_precharge_at[bank]),
            BankState::Precharging { ready_at } => ready_at,
        };
        Some(
            window_open
                .max(bank_ready)
                .max(self.cmd_bus_free_at)
                .max(now),
        )
    }

    /// DARP out-of-order refresh: issues `bank`'s pending refresh *now*,
    /// ahead of its deadline, through the same apply path as a forced one,
    /// and occupies the command bus for one DRAM cycle. At most one refresh
    /// is pulled per window (the window's forced refresh is then already
    /// paid).
    ///
    /// Returns false when ineligible: not [`RefreshPolicy::Darp`], window
    /// not yet open (or already refreshed), bank mid-ACT/PRE or its open
    /// row not yet precharge-able, or command bus busy.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn pull_refresh(&mut self, bank: usize, now: Cycle) -> bool {
        match self.earliest_refresh_pull_at(bank, now) {
            Some(t) if t <= now => {}
            _ => return false,
        }
        self.refresh
            .as_mut()
            .expect("pull bound implies a grid")
            .applied[bank] += 1;
        self.cmd_bus_free_at = now + CPU_CYCLES_PER_DRAM_CYCLE;
        self.refresh_counters.pulls += 1;
        self.apply_ref(&[bank], now);
        true
    }

    /// Refresh side counters (profile surface, not part of the serialized
    /// [`ChannelStats`]).
    pub fn refresh_counters(&self) -> RefreshCounters {
        self.refresh_counters
    }

    /// Lower bound on the first cycle at which [`Channel::precharge_bank`]
    /// could issue for `bank` (closed-row policy); `None` when the bank has
    /// no open or opening row, so no explicit precharge is ever due.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn earliest_precharge_at(&self, bank: usize, now: Cycle) -> Option<Cycle> {
        let open_at = match self.banks[bank].state_at(now) {
            BankState::Open { .. } => now,
            BankState::Activating { ready_at, .. } => ready_at,
            BankState::Closed | BankState::Precharging { .. } => return None,
        };
        Some(
            open_at
                .max(self.min_precharge_at[bank])
                .max(self.cmd_bus_free_at)
                .max(now),
        )
    }

    /// Issues an explicit precharge of `bank` (closed-row policy support).
    ///
    /// Returns true if the precharge was issued; false before
    /// [`Channel::earliest_precharge_at`] — no open row, the row not yet
    /// precharge-able or the command bus busy.
    pub fn precharge_bank(&mut self, bank: usize, now: Cycle) -> bool {
        match self.earliest_precharge_at(bank, now) {
            Some(t) if t <= now => {}
            _ => return false,
        }
        self.cmd_bus_free_at = now + CPU_CYCLES_PER_DRAM_CYCLE;
        let b = &mut self.banks[bank];
        if let (Some(h), Some(victim)) = (self.happy.as_mut(), b.open_row(now)) {
            h.train_from_precharge(bank, victim, b.cas_served());
        }
        b.precharge(now, self.t_rp);
        self.stats.precharges += 1;
        true
    }

    /// True if the HAPPY predictor recommends precharging `bank`'s open (or
    /// opening) row once it is idle. Always false for the other row
    /// policies (no predictor) and for banks with no effective row.
    ///
    /// This is a pure read: consulting it never mutates predictor state, so
    /// the controller's `next_event` proof may evaluate it freely
    /// (DESIGN.md §11). Training happens only inside [`Channel::advance`]
    /// and [`Channel::precharge_bank`], i.e. only when a command issues.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn happy_votes_close(&self, bank: usize, now: Cycle) -> bool {
        match (&self.happy, self.banks[bank].effective_row(now)) {
            (Some(h), Some(row)) => h.votes_close(bank, row),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ch() -> (DramConfig, Channel) {
        let cfg = DramConfig::default();
        let c = Channel::new(&cfg);
        (cfg, c)
    }

    fn ext_ch(policy: RefreshPolicy) -> (DramConfig, Channel) {
        let cfg = DramConfig {
            extended: Some(ExtendedTiming::default()),
            refresh_policy: policy,
            ..DramConfig::default()
        };
        let c = Channel::new(&cfg);
        (cfg, c)
    }

    #[test]
    fn closed_bank_takes_act_then_cas() {
        let (cfg, mut c) = ch();
        assert_eq!(c.advance(0, 1, false, 0), StepOutcome::Activated);
        // Bank busy during tRCD.
        assert_eq!(c.advance(0, 1, false, 10), StepOutcome::Blocked);
        let t = cfg.t_rcd_cpu();
        match c.advance(0, 1, false, t) {
            StepOutcome::CasIssued { completes_at } => {
                assert_eq!(completes_at, t + cfg.cl_cpu() + cfg.burst_cpu());
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn conflict_takes_pre_act_cas() {
        let (cfg, mut c) = ch();
        c.advance(0, 1, false, 0);
        let t1 = cfg.t_rcd_cpu();
        c.advance(0, 1, false, t1); // CAS row 1; row stays open
        let t2 = t1 + cfg.burst_cpu() + cfg.cl_cpu();
        assert_eq!(c.advance(0, 2, false, t2), StepOutcome::Precharged);
        let t3 = t2 + cfg.t_rp_cpu();
        assert_eq!(c.advance(0, 2, false, t3), StepOutcome::Activated);
        let t4 = t3 + cfg.t_rcd_cpu();
        assert!(matches!(
            c.advance(0, 2, false, t4),
            StepOutcome::CasIssued { .. }
        ));
        assert_eq!(c.stats().precharges, 1);
        assert_eq!(c.stats().activations, 2);
        assert_eq!(c.stats().reads, 2);
    }

    #[test]
    fn command_bus_allows_one_command_per_dram_cycle() {
        let (_, mut c) = ch();
        assert_eq!(c.advance(0, 1, false, 0), StepOutcome::Activated);
        // Same CPU cycle, different bank: command bus busy.
        assert_eq!(c.advance(1, 9, false, 0), StepOutcome::Blocked);
        // Next CPU cycle is still within the same DRAM bus cycle.
        assert_eq!(c.advance(1, 9, false, 1), StepOutcome::Blocked);
        // One DRAM cycle later it goes through.
        assert_eq!(
            c.advance(1, 9, false, CPU_CYCLES_PER_DRAM_CYCLE),
            StepOutcome::Activated
        );
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let (cfg, mut c) = ch();
        // Open two banks.
        c.advance(0, 1, false, 0);
        c.advance(1, 2, false, CPU_CYCLES_PER_DRAM_CYCLE);
        let t = cfg.t_rcd_cpu() + CPU_CYCLES_PER_DRAM_CYCLE;
        let first = match c.advance(0, 1, false, t) {
            StepOutcome::CasIssued { completes_at } => completes_at,
            o => panic!("unexpected {o:?}"),
        };
        // A CAS whose data would start before the first burst ends is blocked.
        let too_early = first - cfg.burst_cpu() - cfg.cl_cpu() + 1;
        // (may also be blocked by the command bus; step past it)
        let too_early = too_early.max(t + CPU_CYCLES_PER_DRAM_CYCLE);
        if too_early + cfg.cl_cpu() < first {
            assert_eq!(c.advance(1, 2, false, too_early), StepOutcome::Blocked);
        }
        // Once the data bus frees, the second CAS issues.
        let ok = first - cfg.cl_cpu();
        assert!(matches!(
            c.advance(1, 2, false, ok.max(t + CPU_CYCLES_PER_DRAM_CYCLE)),
            StepOutcome::CasIssued { .. }
        ));
    }

    #[test]
    fn explicit_precharge_for_closed_row_policy() {
        let (cfg, mut c) = ch();
        c.advance(0, 1, false, 0);
        let t = cfg.t_rcd_cpu();
        c.advance(0, 1, false, t);
        let t2 = t + CPU_CYCLES_PER_DRAM_CYCLE;
        assert!(c.precharge_bank(0, t2));
        // Now the bank is precharging; a new row is row-closed, not conflict.
        assert_eq!(
            c.classify(0, 5, t2 + cfg.t_rp_cpu()),
            RowBufferOutcome::Closed
        );
    }

    #[test]
    fn precharge_bank_refuses_when_closed() {
        let (_, mut c) = ch();
        assert!(!c.precharge_bank(0, 0));
    }

    #[test]
    fn happy_predictor_is_absent_under_other_policies() {
        let (cfg, mut c) = ch();
        c.advance(0, 1, false, 0);
        assert!(
            !c.happy_votes_close(0, cfg.t_rcd_cpu()),
            "open/closed-policy channels must never vote to close"
        );
    }

    #[test]
    fn all_bank_refresh_charges_whole_channel_stall() {
        let (cfg, mut c) = ext_ch(RefreshPolicy::AllBank);
        let e = cfg.extended.unwrap();
        let t_refi = e.t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
        let t_rfc = e.t_rfc * CPU_CYCLES_PER_DRAM_CYCLE;
        // One REF on one boundary refreshes every bank.
        assert_eq!(c.next_refresh_boundary(0), Some(t_refi));
        assert_eq!(c.sync(t_refi), (0..cfg.banks).collect::<Vec<_>>());
        assert_eq!(c.stats().refreshes, 1);
        assert_eq!(
            c.refresh_counters(),
            RefreshCounters {
                pulls: 0,
                stall_cycles: t_rfc * cfg.banks as Cycle,
            }
        );
        // All-bank channels never expose the per-bank surface.
        assert_eq!(c.earliest_refresh_pull_at(0, t_refi), None);
        assert!(!c.pull_refresh(0, t_refi));
    }

    #[test]
    fn per_bank_refresh_staggers_and_isolates_banks() {
        let (cfg, mut c) = ext_ch(RefreshPolicy::PerBank);
        let e = cfg.extended.unwrap();
        let t_refi = e.t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
        let t_rfcpb = (e.t_rfc * CPU_CYCLES_PER_DRAM_CYCLE / 2).max(1);
        // The first boundary is bank 0's own deadline, not a channel window.
        assert_eq!(c.next_refresh_boundary(0), Some(t_refi));
        assert_eq!(c.sync(t_refi), [0]);
        assert_eq!(c.stats().refreshes, 1);
        assert_eq!(c.refresh_counters().stall_cycles, t_rfcpb);
        // Bank 0 is busy refreshing, but bank 1 keeps serving accesses —
        // the refresh-access parallelism all-bank refresh forbids.
        assert!(!c.can_advance(0, 1, t_refi));
        assert_eq!(c.advance(1, 1, false, t_refi), StepOutcome::Activated);
        // Bank 0 re-accepts commands once its t_rfcpb elapses.
        assert!(c.can_advance(0, 1, t_refi + t_rfcpb));
        // Bank 1's own deadline sits one stagger stride later.
        let stride = t_refi / cfg.banks as Cycle;
        assert_eq!(c.sync(t_refi + stride), [1]);
        assert_eq!(c.stats().refreshes, 2);
    }

    #[test]
    fn darp_pull_pays_the_window_early_and_skips_the_forced_refresh() {
        let (cfg, mut c) = ext_ch(RefreshPolicy::Darp);
        let e = cfg.extended.unwrap();
        let t_refi = e.t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
        // Bank 0's first window is open from cycle 0; pull it immediately.
        assert_eq!(c.earliest_refresh_pull_at(0, 0), Some(0));
        assert!(c.pull_refresh(0, 0));
        assert_eq!(c.stats().refreshes, 1);
        assert_eq!(c.refresh_counters().pulls, 1);
        // One pull per window: the next opportunity is the next window.
        let next = c.earliest_refresh_pull_at(0, CPU_CYCLES_PER_DRAM_CYCLE);
        assert_eq!(next, Some(t_refi));
        assert!(!c.pull_refresh(0, t_refi / 2));
        // The deadline-forced refresh at bank 0's boundary is already paid;
        // the earliest unapplied boundary now belongs to bank 1.
        assert!(c.sync(t_refi).is_empty());
        assert_eq!(c.stats().refreshes, 1);
        let stride = t_refi / cfg.banks as Cycle;
        assert_eq!(c.next_refresh_boundary(0), Some(t_refi + stride));
    }

    #[test]
    fn darp_pull_implicitly_closes_an_idle_open_row() {
        let (cfg, mut c) = ext_ch(RefreshPolicy::Darp);
        c.advance(0, 7, false, 0);
        let t = cfg.t_rcd_cpu();
        assert!(matches!(
            c.advance(0, 7, false, t),
            StepOutcome::CasIssued { .. }
        ));
        // tRAS/tRTP gate the implicit precharge exactly like an explicit one.
        let ready = c.earliest_refresh_pull_at(0, t).unwrap();
        assert!(ready > t);
        assert!(!c.pull_refresh(0, ready - 1));
        assert!(c.pull_refresh(0, ready));
        assert_eq!(c.effective_row(0, ready), None);
        assert_eq!(c.classify(0, 7, ready), RowBufferOutcome::Closed);
        // The REF is not a PRE: no precharge is counted (or HAPPY-trained).
        assert_eq!(c.stats().precharges, 0);
    }

    #[test]
    fn pull_refresh_requires_darp() {
        // Bank 0's window is open from cycle 0, but only DARP pulls.
        let (_, mut c) = ext_ch(RefreshPolicy::PerBank);
        assert_eq!(c.earliest_refresh_pull_at(0, 0), None);
        assert!(!c.pull_refresh(0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The deadline-soundness property of DESIGN.md §15: under every
        /// refresh policy — with or without adversarial DARP pulls — no
        /// bank's refresh ever slips past its window's end boundary,
        /// provided `sync` runs each DRAM scheduling cycle (as the
        /// controller guarantees).
        #[test]
        fn refresh_never_misses_its_deadline(
            policy in 0usize..3,
            pulls in prop::collection::vec(0usize..8, 0..96),
        ) {
            let policy = [RefreshPolicy::AllBank, RefreshPolicy::PerBank, RefreshPolicy::Darp][policy];
            let (cfg, mut c) = ext_ch(policy);
            let t_refi = cfg.extended.unwrap().t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
            let mut pulls = pulls.into_iter();
            let mut now = 0;
            while now < 3 * t_refi {
                c.sync(now);
                let g = c.refresh.as_ref().expect("extended timing refreshes");
                for (b, &applied) in g.applied.iter().enumerate() {
                    let off = g.offset(b);
                    let due = if now >= off { (now - off) / t_refi } else { 0 };
                    prop_assert!(
                        applied >= due,
                        "bank {b} missed its deadline at {now}: \
                         applied {applied} < due window {due}"
                    );
                }
                if let Some(bank) = pulls.next() {
                    c.pull_refresh(bank, now);
                }
                now += CPU_CYCLES_PER_DRAM_CYCLE;
            }
            // Bookkeeping sanity: every pull is one of the refreshes.
            prop_assert!(c.refresh_counters().pulls <= c.stats().refreshes);
            prop_assert!(policy == RefreshPolicy::Darp || c.refresh_counters().pulls == 0);
        }
    }

    /// [`Channel::can_advance`] as it read before it was re-expressed through
    /// the decomposition: the bank, resolved at `m`, is in a state where the
    /// command `row` needs next is legal, and the buses and the tFAW window
    /// admit it. Shares nothing with [`Bank::readiness`],
    /// [`Channel::bank_ready`] or [`Channel::floors`].
    fn issues_by_the_book(c: &Channel, bank: usize, row: u64, m: Cycle) -> bool {
        let b = &c.banks[bank];
        let faw_allows = c.ext.is_none_or(|e| {
            let recent = |&&t: &&Cycle| m.saturating_sub(t) < e.t_faw;
            c.act_history.iter().filter(recent).count() < 4
        });
        m >= c.cmd_bus_free_at
            && match b.classify(row, m) {
                RowBufferOutcome::Hit => b.can_cas(row, m) && m + c.cl >= c.data_bus_free_at,
                RowBufferOutcome::Closed => b.can_activate(m) && faw_allows,
                RowBufferOutcome::Conflict => b.can_precharge(m) && m >= c.min_precharge_at[bank],
            }
    }

    /// Whether [`Channel::precharge_bank`] issues at `m`, by the book: the
    /// bank, resolved at `m`, holds an open row past tRAS / tWR / tRTP, and
    /// the command bus admits a command. Calls neither `precharge_bank` nor
    /// [`Channel::earliest_precharge_at`].
    fn precharges_by_the_book(c: &Channel, bank: usize, m: Cycle) -> bool {
        m >= c.cmd_bus_free_at && c.banks[bank].can_precharge(m) && m >= c.min_precharge_at[bank]
    }

    /// Whether [`Channel::pull_refresh`] issues at `m`, by the book: DARP,
    /// the bank's current refresh window has opened, the bank, resolved at
    /// `m`, is closed or holds a row it may precharge, and the command bus
    /// is free. Calls neither `pull_refresh` nor
    /// [`Channel::earliest_refresh_pull_at`].
    fn pulls_by_the_book(c: &Channel, bank: usize, m: Cycle) -> bool {
        let Some(g) = &c.refresh else {
            return false;
        };
        let b = &c.banks[bank];
        g.darp
            && m >= g.applied[bank] * g.t_refi + g.offset(bank)
            && m >= c.cmd_bus_free_at
            && (b.can_activate(m) || (b.can_precharge(m) && m >= c.min_precharge_at[bank]))
    }

    /// The first cycle `m >= now` at which [`Channel::can_advance`] holds,
    /// assuming no command issues in between: the two halves joined.
    fn advance_at(c: &Channel, bank: usize, row: u64, now: Cycle) -> Cycle {
        c.floors().ready_at(c.bank_ready(bank, row)).max(now)
    }

    /// A bank command outside `advance`: the command, its bound and its
    /// by-the-book legality.
    struct BankCommand {
        name: &'static str,
        issue: fn(&mut Channel, usize, Cycle) -> bool,
        earliest: fn(&Channel, usize, Cycle) -> Option<Cycle>,
        by_the_book: fn(&Channel, usize, Cycle) -> bool,
    }

    const BANK_COMMANDS: [BankCommand; 2] = [
        BankCommand {
            name: "precharge",
            issue: Channel::precharge_bank,
            earliest: Channel::earliest_precharge_at,
            by_the_book: precharges_by_the_book,
        },
        BankCommand {
            name: "pull",
            issue: Channel::pull_refresh,
            earliest: Channel::earliest_refresh_pull_at,
            by_the_book: pulls_by_the_book,
        },
    ];

    /// The paper's three-latency channel, then extended timing under each
    /// refresh policy — with tREFI / tRFC cut to 1 200 / 300 CPU cycles so a
    /// sixty-step history crosses several windows.
    fn decomposition_channels() -> Vec<Channel> {
        let ext = ExtendedTiming {
            t_refi: 120,
            t_rfc: 30,
            ..ExtendedTiming::default()
        };
        let with = |extended, refresh_policy| {
            Channel::new(&DramConfig {
                extended,
                refresh_policy,
                ..DramConfig::default()
            })
        };
        vec![
            with(None, RefreshPolicy::AllBank),
            with(Some(ext), RefreshPolicy::AllBank),
            with(Some(ext), RefreshPolicy::PerBank),
            with(Some(ext), RefreshPolicy::Darp),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The decomposition is the definition (DESIGN.md §11). After every
        /// step of a random command / refresh history, for every bank and a
        /// hit-or-conflict pair of rows: (i) the joined bound is exact —
        /// `can_advance` is false at every cycle before it and true at it;
        /// (ii) the parts captured now give `can_advance` (checked against
        /// its by-the-book form) and the bound at every later cycle up to
        /// the next step, while an activating bank resolves to open, a
        /// precharging or refreshing one to closed and a full tFAW history
        /// ages out; (iii) for
        /// every bank, `earliest_precharge_at` and `earliest_refresh_pull_at`
        /// taken now are never later than the first cycle up to the next
        /// step at which `precharge_bank` / `pull_refresh` would issue by the
        /// book, and either bound taken at such a cycle is that cycle
        /// exactly when the command would issue there.
        #[test]
        fn readiness_is_its_decomposition(
            steps in prop::collection::vec(
                (0u32..10, 0usize..8, 0u64..2, any::<bool>(), any::<bool>(), 0u64..80),
                1..60,
            ),
        ) {
            for mut c in decomposition_channels() {
                let mut now = 0;
                for &(op, bank, row, write, wait, gap) in &steps {
                    match op {
                        0..=5 => {
                            if wait {
                                let at = advance_at(&c, bank, row, now);
                                now = at.next_multiple_of(CPU_CYCLES_PER_DRAM_CYCLE);
                            }
                            c.advance(bank, row, write, now);
                        }
                        6 | 7 => {
                            let cmd = &BANK_COMMANDS[op as usize - 6];
                            if let Some(at) = (cmd.earliest)(&c, bank, now).filter(|_| wait) {
                                now = at.next_multiple_of(CPU_CYCLES_PER_DRAM_CYCLE);
                            }
                            (cmd.issue)(&mut c, bank, now);
                        }
                        _ => {
                            c.sync(now);
                        }
                    }
                    for (bank, cmd) in (0..c.bank_count()).flat_map(|b| [(b, 0), (b, 1)]) {
                        let BankCommand { name, earliest, by_the_book, .. } = BANK_COMMANDS[cmd];
                        let bound = earliest(&c, bank, now);
                        for m in now..=now + gap {
                            let legal = by_the_book(&c, bank, m);
                            prop_assert!(
                                !legal || bound.is_some_and(|b| b <= m),
                                "{name} on bank {bank} issues at {m}, before its bound {bound:?} from {now}"
                            );
                            prop_assert_eq!(
                                earliest(&c, bank, m) == Some(m),
                                legal,
                                "{} on bank {} at {}", name, bank, m
                            );
                        }
                    }
                    let floors = c.floors();
                    for (bank, row) in (0..c.bank_count()).flat_map(|b| [(b, 0), (b, 1)]) {
                        let bound = advance_at(&c, bank, row, now);
                        for m in now..bound {
                            prop_assert!(
                                !c.can_advance(bank, row, m),
                                "({bank}, {row}) issues at {m}, before its bound {bound} from {now}"
                            );
                        }
                        prop_assert!(
                            c.can_advance(bank, row, bound),
                            "({bank}, {row}) cannot issue at its bound {bound} from {now}"
                        );
                        let part = c.bank_ready(bank, row);
                        for m in now..=now + gap {
                            let ready_at = floors.ready_at(part);
                            prop_assert_eq!(
                                issues_by_the_book(&c, bank, row, m),
                                m >= ready_at,
                                "({}, {}) at {}: parts {:?} captured at {}", bank, row, m, part, now
                            );
                            prop_assert_eq!(c.can_advance(bank, row, m), m >= ready_at);
                            prop_assert_eq!(advance_at(&c, bank, row, m), ready_at.max(m));
                        }
                    }
                    now += gap;
                }
            }
        }
    }

    #[test]
    fn happy_trains_close_on_single_use_and_open_on_reuse() {
        let cfg = DramConfig {
            row_policy: RowPolicy::Happy,
            ..DramConfig::default()
        };
        let mut c = Channel::new(&cfg);
        // Open row 1, serve a single CAS, then policy-precharge it.
        c.advance(0, 1, false, 0);
        let t = cfg.t_rcd_cpu();
        assert!(!c.happy_votes_close(0, t), "untrained rows default to open");
        c.advance(0, 1, false, t);
        let t = t + cfg.cl_cpu() + cfg.burst_cpu();
        // The policy precharge trains toward closed (1 CAS served).
        assert!(c.precharge_bank(0, t));
        // Reopened, the single-use row now votes close...
        let t = t + cfg.t_rp_cpu();
        c.advance(0, 1, false, t);
        assert!(c.happy_votes_close(0, t));
        // ...but two CAS bursts in the next residency train it back open
        // when the conflict precharge for row 2 retires it.
        let t = t + cfg.t_rcd_cpu();
        c.advance(0, 1, false, t);
        let t = t + cfg.cl_cpu() + cfg.burst_cpu();
        c.advance(0, 1, false, t);
        let t = t + cfg.cl_cpu() + cfg.burst_cpu();
        assert_eq!(c.advance(0, 2, false, t), StepOutcome::Precharged);
        let t = t + cfg.t_rp_cpu();
        c.advance(0, 1, false, t);
        assert!(!c.happy_votes_close(0, t));
    }
}
