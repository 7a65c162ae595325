//! The memory controller: request buffer, DRAM channels, and the
//! scheduling policies.
//!
//! Split into three layers (DESIGN.md §13):
//!
//! - [`buffer`] — the data-oriented request buffer: slab + free list,
//!   per-bank membership bitsets, the split-key lane and the per-bank
//!   owners maintained over it, the per-bank ready lane beside them, APD
//!   deadline heaps, and running counts;
//! - [`arbiter`] — the lexicographic [`PrioKey`](arbiter::PrioKey) (the
//!   specification), its order-preserving [`PackedKey`] (what the buffer
//!   compares), and the [`KeyCtx`] snapshot of their inputs;
//! - this module — [`MemoryController`]: the passes of its tick, each
//!   stating once which entries or banks it may act on and when, and the
//!   `next_event` bound event-mode fast-forwarding folds from those
//!   statements. Arbitration and its bound each cost one walk over a
//!   channel's ready lane against the channel's floors
//!   ([`Channel::floors`]) per event, not a probe per bank.

pub mod arbiter;
pub mod buffer;

use std::collections::VecDeque;

use padc_dram::{
    AddressMapper, Channel, ChannelFloors, DramConfig, MappingScheme, RefreshCounters,
    RefreshPolicy, RowBufferOutcome, RowPolicy, StepOutcome, Target,
};
use padc_types::{
    AccessKind, CoreId, Cycle, LineAddr, MemRequest, RequestId, RequestKind,
    CPU_CYCLES_PER_DRAM_CYCLE,
};

use crate::{AccuracyTracker, ControllerConfig, ControllerStats};

use arbiter::{KeyCtx, PackedKey};
use buffer::{BufferStats, Entry, ReadyOwner, RequestBuffer, Slot};

/// A serviced request handed back to the memory system.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The request, with its final demand/prefetch classification.
    pub request: MemRequest,
    /// True if DRAM serviced it as a row hit (first command was the CAS).
    pub row_hit: bool,
}

/// Everything a [`MemoryController::tick`] produced this cycle.
#[derive(Clone, Debug, Default)]
pub struct TickOutput {
    /// Requests whose data burst finished this cycle.
    pub completions: Vec<Completion>,
    /// Prefetches removed from the buffer by Adaptive Prefetch Dropping.
    /// The caller must invalidate the corresponding MSHR entries.
    pub dropped: Vec<MemRequest>,
}

/// A request whose CAS has issued; completes at `completes_at`.
#[derive(Clone, Debug)]
struct InFlight {
    req: MemRequest,
    target: Target,
    completes_at: Cycle,
    row_hit: bool,
}

/// The two passes that command a bank no request asked for: the controller
/// picks the banks ([`MemoryController::bank_candidate`]), `padc-dram`
/// rules on legality and timing ([`BankPass::issue`], [`BankPass::earliest`]).
#[derive(Clone, Copy)]
enum BankPass {
    /// Closed-row (§6.8) and HAPPY idle precharges.
    Precharge,
    /// DARP out-of-order refresh pulls (DESIGN.md §15).
    RefreshPull,
}

impl BankPass {
    /// In tick order: precharges, then pulls.
    const ALL: [BankPass; 2] = [BankPass::Precharge, BankPass::RefreshPull];

    /// True when `dram`'s row or refresh policy runs this pass.
    fn enabled(self, dram: &DramConfig) -> bool {
        match self {
            BankPass::Precharge => dram.row_policy != RowPolicy::Open,
            BankPass::RefreshPull => dram.refresh_policy == RefreshPolicy::Darp,
        }
    }

    /// Issues the pass's command to `bank` if `ch` accepts it at `now`.
    fn issue(self, ch: &mut Channel, bank: usize, now: Cycle) -> bool {
        match self {
            BankPass::Precharge => ch.precharge_bank(bank, now),
            BankPass::RefreshPull => ch.pull_refresh(bank, now),
        }
    }

    /// `ch`'s early-never-late bound on the first cycle at which
    /// [`BankPass::issue`] can succeed on `bank`.
    fn earliest(self, ch: &Channel, bank: usize, now: Cycle) -> Option<Cycle> {
        match self {
            BankPass::Precharge => ch.earliest_precharge_at(bank, now),
            BankPass::RefreshPull => ch.earliest_refresh_pull_at(bank, now),
        }
    }
}

/// One channel's arbitration candidates ([`MemoryController::ready_owners`]):
/// its ready lane and the channel-level terms of each owner's readiness.
struct ReadyOwners<'a> {
    lane: &'a [Option<ReadyOwner>],
    floors: ChannelFloors,
    release: Cycle,
}

impl ReadyOwners<'_> {
    /// The first cycle `o`'s next command can issue.
    fn ready_at(&self, o: &ReadyOwner) -> Cycle {
        self.floors.ready_at(o.ready).max(self.release)
    }

    /// The best-keyed owner that can issue at `now`: what arbitration issues.
    fn best_at(&self, now: Cycle) -> Option<Slot> {
        let mut best: Option<(PackedKey, Slot)> = None;
        for o in self.lane.iter().flatten() {
            if self.ready_at(o) <= now && best.is_none_or(|(bk, _)| o.key > bk) {
                best = Some((o.key, o.slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// The first cycle any owner can issue: arbitration's bound.
    fn earliest(&self) -> Option<Cycle> {
        self.lane.iter().flatten().map(|o| self.ready_at(o)).min()
    }
}

/// The Prefetch-Aware DRAM Controller (and all baseline controllers).
///
/// Owns the memory request buffer and the DRAM channels. See the crate docs
/// for the scheduling rules; the policy is selected by
/// [`ControllerConfig::policy`] with feature flags for APD, urgency, and
/// ranking.
#[derive(Clone, Debug)]
pub struct MemoryController {
    cfg: ControllerConfig,
    dram: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    buffer: RequestBuffer,
    /// Writebacks that arrived while the buffer was full; drained in order.
    writeback_overflow: VecDeque<MemRequest>,
    inflight: Vec<InFlight>,
    next_id: u64,
    stats: ControllerStats,
    /// Write-drain mode currently active (see `ControllerConfig::write_drain`).
    draining_writes: bool,
    /// External-mutation epoch: bumped by every [`MemoryController::enqueue`],
    /// [`MemoryController::enqueue_writeback`], and successful
    /// [`MemoryController::promote_prefetch`]. A [`MemoryController::next_event`]
    /// bound is only valid while the epoch it was computed under is unchanged;
    /// event-mode fast-forwarding uses this to know when to re-prove.
    mutations: u64,
}

impl MemoryController {
    /// Creates a controller over fresh DRAM channels.
    pub fn new(cfg: ControllerConfig, dram: DramConfig, mapping: MappingScheme) -> Self {
        let mapper = AddressMapper::new(&dram, mapping);
        let channels = (0..dram.channels).map(|_| Channel::new(&dram)).collect();
        let buffer = RequestBuffer::new(
            cfg.buffer_entries,
            dram.channels,
            dram.banks,
            cfg.cores,
            cfg.ranking,
            cfg.apd,
        );
        MemoryController {
            cfg,
            mapper,
            channels,
            dram,
            buffer,
            writeback_overflow: VecDeque::new(),
            inflight: Vec::new(),
            next_id: 0,
            stats: ControllerStats::default(),
            draining_writes: false,
            mutations: 0,
        }
    }

    /// Monotone counter of external mutations (enqueues, writeback
    /// enqueues, prefetch promotions). Any change invalidates previously
    /// computed [`MemoryController::next_event`] bounds; the controller's
    /// own [`MemoryController::tick`] never bumps it.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutations
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Owner-cache telemetry from the request buffer (not serialized into
    /// reports; surfaced through the opt-in simulation profile).
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffer.stats()
    }

    /// Per-channel DRAM statistics.
    pub fn channel_stats(&self) -> Vec<&padc_dram::ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// Refresh side counters summed over channels (not serialized into
    /// reports; surfaced through the opt-in simulation profile).
    pub fn refresh_counters(&self) -> RefreshCounters {
        self.channels.iter().map(|c| c.refresh_counters()).fold(
            RefreshCounters::default(),
            |a, c| RefreshCounters {
                pulls: a.pulls + c.pulls,
                stall_cycles: a.stall_cycles + c.stall_cycles,
            },
        )
    }

    /// Current buffer occupancy.
    pub fn occupancy(&self) -> usize {
        self.buffer.len()
    }

    /// True if a new request can enter the buffer.
    pub fn has_space(&self) -> bool {
        self.buffer.len() < self.cfg.buffer_entries
    }

    /// True when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.inflight.is_empty() && self.writeback_overflow.is_empty()
    }

    /// True when this policy's priority keys read prefetch accuracy
    /// (criticality / urgency / ranking): such keys go stale at accuracy
    /// rollovers, which [`RequestBuffer::sync_rollover`] detects.
    fn adaptive_keys(&self) -> bool {
        self.cfg.policy.is_adaptive()
    }

    /// The key-computation context for one scheduling pass.
    fn key_ctx<'a>(
        &self,
        accuracy: &'a AccuracyTracker,
        rank_counts: Option<&'a [u64]>,
    ) -> KeyCtx<'a> {
        KeyCtx {
            policy: self.cfg.policy,
            write_drain: self.cfg.write_drain,
            draining_writes: self.draining_writes,
            urgency: self.cfg.urgency,
            promotion_threshold: self.cfg.promotion_threshold,
            accuracy,
            rank_counts,
        }
    }

    /// Enqueues a read request (demand fetch or prefetch). Returns the
    /// request id, or `None` if the buffer is full — the caller decides
    /// whether to retry (demands) or give up (prefetches), which is exactly
    /// the coverage-loss mechanism §6.1 describes.
    pub fn enqueue(
        &mut self,
        core: CoreId,
        line: LineAddr,
        access: AccessKind,
        kind: RequestKind,
        now: Cycle,
    ) -> Option<RequestId> {
        if !self.has_space() {
            self.stats.enqueue_rejections += 1;
            return None;
        }
        let id = RequestId::new(self.next_id);
        self.next_id += 1;
        let req = MemRequest::new(id, core, line, access, kind, now);
        let target = self.mapper.map(line);
        self.buffer.insert(Entry::new(req, target));
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.buffer.len());
        self.mutations += 1;
        Some(id)
    }

    /// Enqueues a dirty-line writeback. Never fails: writebacks that find
    /// the buffer full wait in a drain queue (modelling the write buffer in
    /// front of the controller).
    pub fn enqueue_writeback(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.mutations += 1;
        let id = RequestId::new(self.next_id);
        self.next_id += 1;
        let req = MemRequest::new(id, core, line, AccessKind::Store, RequestKind::Demand, now);
        if self.has_space() {
            let target = self.mapper.map(line);
            self.buffer.insert(Entry::new(req, target));
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.buffer.len());
        } else {
            self.writeback_overflow.push_back(req);
        }
    }

    /// A demand access matched an in-flight prefetch to `line` (MSHR hit on
    /// a prefetch entry): promote the request to a demand, resetting its `P`
    /// bit (§4.1). Returns true if a queued or in-flight prefetch was found;
    /// of several queued ones (prefetched by different cores) the oldest is
    /// promoted.
    pub fn promote_prefetch(&mut self, line: LineAddr) -> bool {
        let t = self.mapper.map(line);
        if let Some(slot) = self.buffer.oldest_prefetch(t.channel, t.bank, line) {
            self.buffer.promote(slot);
            self.stats.promotions += 1;
            self.mutations += 1;
            return true;
        }
        for f in &mut self.inflight {
            if f.req.line == line && f.req.kind.is_prefetch() {
                f.req.promote_to_demand();
                self.stats.promotions += 1;
                self.mutations += 1;
                return true;
            }
        }
        false
    }

    /// Advances one CPU cycle through the controller's passes: completions,
    /// APD drops, the writeback drain and, on DRAM bus boundaries, batch
    /// reform, the write-drain flip, refresh sync and arbitration, then the
    /// bank passes (last, so they never displace a request's command).
    pub fn tick(&mut self, now: Cycle, accuracy: &AccuracyTracker) -> TickOutput {
        self.buffer.sync_rollover(accuracy, self.adaptive_keys());
        let mut out = TickOutput::default();
        self.collect_completions(now, &mut out);
        if self.drop_deadline(accuracy).is_some_and(|d| d <= now) {
            self.drop_old_prefetches(now, accuracy, &mut out);
        }
        self.drain_writebacks();
        if now.is_multiple_of(CPU_CYCLES_PER_DRAM_CYCLE) {
            if self.batch_drained() {
                self.reform_batch();
            }
            if self.write_drain_target() != self.draining_writes {
                // A flip changes every entry's write-drain service class —
                // a static key bit — so it starts a new key generation.
                self.draining_writes = !self.draining_writes;
                self.buffer.bump_key_generation();
            }
            self.arbitrate(now, accuracy);
            for pass in BankPass::ALL {
                if pass.enabled(&self.dram) {
                    self.run_bank_pass(pass, now);
                }
            }
        }
        out
    }

    /// Lower bound on the first cycle `m >= now` at which
    /// [`MemoryController::tick`]`(m)` can perform observable work, assuming
    /// no external mutation (enqueue / promote) in between and no accuracy
    /// rollover (the caller caps every skip at
    /// [`AccuracyTracker::next_rollover`]); `None` when only external input
    /// can change the controller's state. The fast-forward event contract's
    /// controller half (DESIGN.md §11): the minimum, in `tick`'s order, of
    /// the bound each pass's own documentation states. Early bounds cost a
    /// no-op tick; late ones would break bit-identity with stepping.
    ///
    /// Takes `&mut self` purely for cache maintenance (lazy heap cleanup,
    /// owner and ready-lane fills); observable controller state is unchanged.
    pub fn next_event(&mut self, now: Cycle, accuracy: &AccuracyTracker) -> Option<Cycle> {
        self.buffer.sync_rollover(accuracy, self.adaptive_keys());
        let boundary = align_up_dram(now);
        let completion = self.inflight.iter().map(|f| f.completes_at).min();
        let drop = self.drop_deadline(accuracy);
        let drain = (!self.writeback_overflow.is_empty() && self.has_space()).then_some(now);
        let reform = self.batch_drained().then_some(boundary);
        let flip = (self.write_drain_target() != self.draining_writes).then_some(boundary);
        let arbitration = self.arbitration_bound(now, accuracy);
        let bank_passes = BankPass::ALL.map(|pass| {
            (pass.enabled(&self.dram))
                .then(|| self.bank_pass_bound(pass, now))
                .flatten()
        });
        let bounds = [completion, drop, drain, reform, flip, arbitration];
        bounds.into_iter().chain(bank_passes).fold(None, earlier)
    }

    /// Completions: hands back each in-flight request at its `completes_at`.
    fn collect_completions(&mut self, now: Cycle, out: &mut TickOutput) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].completes_at <= now {
                let f = self.inflight.swap_remove(i);
                out.completions.push(Completion {
                    request: f.req,
                    row_hit: f.row_hit,
                });
            } else {
                i += 1;
            }
        }
    }

    /// The earliest APD drop deadline (`arrival + threshold + 1`) over the
    /// queued droppable prefetches, `None` without APD. Exact while PAR is
    /// stable; served by the buffer's per-core deadline heaps in O(cores).
    fn drop_deadline(&mut self, accuracy: &AccuracyTracker) -> Option<Cycle> {
        if !self.cfg.apd {
            return None;
        }
        self.buffer
            .earliest_drop_deadline(&self.cfg.drop_thresholds, accuracy)
    }

    /// Adaptive Prefetch Dropping (§4.3), run once the
    /// [`MemoryController::drop_deadline`] is due: remove queued prefetches
    /// older than their core's dynamic drop threshold, in arrival (request
    /// id) order. Requests already being serviced (first command issued) are
    /// left alone, as are promoted prefetches (they are demands now).
    fn drop_old_prefetches(
        &mut self,
        now: Cycle,
        accuracy: &AccuracyTracker,
        out: &mut TickOutput,
    ) {
        let thresholds = self.cfg.drop_thresholds;
        let mut expired: Vec<(RequestId, Slot)> = self
            .buffer
            .iter()
            .filter(|(_, e)| {
                e.req.kind.is_prefetch()
                    && e.first_service.is_none()
                    && e.req.age(now) > thresholds.threshold_for(accuracy.accuracy(e.req.core))
            })
            .map(|(slot, e)| (e.req.id, slot))
            .collect();
        expired.sort_unstable();
        for (_, slot) in expired {
            let e = self.buffer.remove(slot);
            self.stats.prefetches_dropped += 1;
            out.dropped.push(e.req);
        }
    }

    /// Writeback drain: overflowed writebacks enter the buffer in arrival
    /// order, due the cycle both space and an overflowed writeback exist.
    fn drain_writebacks(&mut self) {
        while self.has_space() {
            let Some(req) = self.writeback_overflow.pop_front() else {
                break;
            };
            let target = self.mapper.map(req.line);
            self.buffer.insert(Entry::new(req, target));
        }
    }

    /// True when the PAR-BS batch has drained and requests wait for the
    /// next one: [`MemoryController::reform_batch`] is due at the next DRAM
    /// boundary.
    fn batch_drained(&self) -> bool {
        self.cfg.batching && self.buffer.batched_len() == 0 && !self.buffer.is_empty()
    }

    /// PAR-BS batching, run once [`MemoryController::batch_drained`]: mark
    /// the oldest `batch_cap` requests of each core as the new batch.
    fn reform_batch(&mut self) {
        let mut by_age: Vec<(RequestId, usize, Slot)> = self
            .buffer
            .iter()
            .map(|(s, e)| (e.req.id, e.req.core.index(), s))
            .collect();
        by_age.sort_unstable();
        let mut per_core = vec![0usize; self.cfg.cores.max(1)];
        for (_, core, s) in by_age {
            if let Some(count) = per_core.get_mut(core) {
                if *count < self.cfg.batch_cap {
                    *count += 1;
                    self.buffer.set_batched(s);
                }
            }
        }
    }

    /// The write-drain mode the buffered writeback count calls for: entered
    /// at `write_drain_high` writebacks, left at `write_drain_low`, never
    /// without `ControllerConfig::write_drain`. A mode other than the
    /// current one is a flip due at the next DRAM boundary.
    fn write_drain_target(&self) -> bool {
        if !self.cfg.write_drain {
            return false;
        }
        let writes = self.buffer.writeback_len() + self.writeback_overflow.len();
        if self.draining_writes {
            writes > self.cfg.write_drain_low
        } else {
            writes >= self.cfg.write_drain_high
        }
    }

    /// Per-channel refresh sync and arbitration: applies the refresh
    /// boundaries `now` has reached, then issues, on each channel with a free
    /// command bus, the best owner ready at `now`. Bounded by
    /// [`MemoryController::arbitration_bound`].
    fn arbitrate(&mut self, now: Cycle, accuracy: &AccuracyTracker) {
        for channel in 0..self.channels.len() {
            self.channels[channel].sync(now);
            // A refresh closed every bank, re-keying row hits.
            let refreshes = self.channels[channel].stats().refreshes;
            self.buffer.sync_refresh(channel, refreshes);
            if !self.channels[channel].command_bus_free(now) {
                continue;
            }
            // Per-core critical-request counts for ranking (§6.5), O(cores),
            // per channel: a CAS on an earlier channel moved them.
            let ranks = self
                .buffer
                .rank_counts(accuracy, self.cfg.promotion_threshold);
            let ctx = self.key_ctx(accuracy, ranks.as_deref());
            if let Some(slot) = self.ready_owners(channel, &ctx, now).best_at(now) {
                self.issue(channel, slot, now);
            }
        }
    }

    /// The arbitration pass's bound: per channel, its next refresh boundary
    /// ([`Channel::next_refresh_boundary`], which `sync` must not be skipped
    /// across) and the first DRAM boundary at which any owner can issue
    /// ([`MemoryController::ready_owners`]).
    fn arbitration_bound(&mut self, now: Cycle, accuracy: &AccuracyTracker) -> Option<Cycle> {
        let refresh = self.channels.iter().map(|ch| ch.next_refresh_boundary(now));
        let mut bound = refresh.fold(None, earlier);
        if self.buffer.is_empty() {
            return bound;
        }
        let ranks = self
            .buffer
            .rank_counts(accuracy, self.cfg.promotion_threshold);
        let ctx = self.key_ctx(accuracy, ranks.as_deref());
        for channel in 0..self.channels.len() {
            let ready = self.ready_owners(channel, &ctx, now).earliest();
            bound = earlier(bound, ready.map(align_up_dram));
        }
        bound
    }

    /// The arbitration pass's candidates on `channel`: each bank's owner, its
    /// highest-priority request (two-level FR-FCFS: no lower-priority row
    /// conflict may precharge a row a higher-priority hit still wants), from
    /// the buffer's ready lane, joined with the channel's floors and all-bank
    /// refresh window. Owners and their readiness hold across a proven-idle
    /// window: keys read the row-buffer class (an activating row already
    /// classifies as its future hit, a precharging bank as closed), flags
    /// that flip only at bounded boundaries, and accuracy (DESIGN.md §11, §13).
    fn ready_owners(&mut self, channel: usize, ctx: &KeyCtx<'_>, now: Cycle) -> ReadyOwners<'_> {
        let ch = &self.channels[channel];
        let (floors, release) = (ch.floors(), ch.refresh_release(now));
        let lane = self.buffer.ready_lane(channel, ctx, ch, now);
        ReadyOwners {
            lane,
            floors,
            release,
        }
    }

    /// Issues the next command of the request at `slot`, which
    /// [`MemoryController::ready_owners`] found ready on `channel`,
    /// recording the row-buffer class of its first command; a CAS moves the
    /// request from the buffer to `inflight`.
    fn issue(&mut self, channel: usize, slot: Slot, now: Cycle) {
        let Target { bank, row, .. } = self.buffer.entry(slot).target;
        if self.buffer.entry(slot).first_service.is_none() {
            let class = self.channels[channel].classify(bank, row, now);
            self.buffer.set_first_service(slot, class);
        }
        let is_write = self.buffer.entry(slot).req.access == AccessKind::Store;
        let completes_at = match self.channels[channel].advance(bank, row, is_write, now) {
            StepOutcome::CasIssued { completes_at } => completes_at,
            // The bank's row state changed under its own owner's command,
            // which cannot cost the owner its place (the keep-owner lemma,
            // DESIGN.md §13).
            step @ (StepOutcome::Activated | StepOutcome::Precharged) => {
                let activated = step == StepOutcome::Activated;
                return self
                    .buffer
                    .note_owner_command(channel, bank, slot, activated);
            }
            StepOutcome::Blocked => unreachable!("the ready lane said it could issue"),
        };
        let e = self.buffer.remove(slot);
        let row_hit = e.first_service == Some(RowBufferOutcome::Hit);
        let service = completes_at.saturating_sub(e.req.arrival);
        match e.req.kind {
            RequestKind::Demand => {
                if e.req.access == AccessKind::Load {
                    self.stats.demand_latency_sum += service;
                    self.stats.demand_latency_count += 1;
                } else if !e.req.was_prefetch {
                    self.stats.writebacks_serviced += 1;
                }
                self.stats.demands_serviced += 1;
                self.stats.demand_row_hits += u64::from(row_hit);
            }
            RequestKind::Prefetch => {
                self.stats.prefetch_latency_sum += service;
                self.stats.prefetch_latency_count += 1;
                self.stats.prefetches_serviced += 1;
                self.stats.prefetch_row_hits += u64::from(row_hit);
            }
        }
        self.inflight.push(InFlight {
            req: e.req,
            target: e.target,
            completes_at,
            row_hit,
        });
    }

    /// True if any queued or in-flight request wants row `row` of
    /// `(channel, bank)`.
    fn row_wanted(&self, channel: usize, bank: usize, row: u64) -> bool {
        self.buffer.wants_row(channel, bank, row)
            || self.inflight.iter().any(|f| {
                f.target.channel == channel && f.target.bank == bank && f.target.row == row
            })
    }

    /// The row-policy pass's candidates: a bank whose open (or opening) row
    /// no queued or in-flight request wants and, under HAPPY, the per-row
    /// predictor votes to close. A pure read: the predictor trains only when
    /// commands issue, i.e. only at executed ticks.
    fn precharge_candidate(&self, channel: usize, bank: usize, now: Cycle) -> bool {
        let ch = &self.channels[channel];
        ch.effective_row(bank, now).is_some_and(|open| {
            (self.dram.row_policy != RowPolicy::Happy || ch.happy_votes_close(bank, now))
                && !self.row_wanted(channel, bank, open)
        })
    }

    /// The DARP pass's candidates: a bank with no queued requests, or with
    /// no queued writebacks during a write drain (its reads wait anyway, so
    /// the refresh hides behind the drain). A pure read.
    fn refresh_pull_eligible(&self, channel: usize, bank: usize) -> bool {
        self.buffer.bank_is_empty(channel, bank)
            || (self.draining_writes && !self.buffer.bank_has_writeback(channel, bank))
    }

    /// True when `pass` may act on `(channel, bank)` at `now`.
    fn bank_candidate(&self, pass: BankPass, channel: usize, bank: usize, now: Cycle) -> bool {
        match pass {
            BankPass::Precharge => self.precharge_candidate(channel, bank, now),
            BankPass::RefreshPull => self.refresh_pull_eligible(channel, bank),
        }
    }

    /// Runs an enabled `pass`: on each channel with a free command bus,
    /// issues its command to the first candidate `padc-dram` accepts, which
    /// dirties that bank's owner (DESIGN.md §13, "what still dirties").
    /// Bounded by [`MemoryController::bank_pass_bound`].
    fn run_bank_pass(&mut self, pass: BankPass, now: Cycle) {
        for channel in 0..self.channels.len() {
            if !self.channels[channel].command_bus_free(now) {
                continue;
            }
            for bank in 0..self.channels[channel].bank_count() {
                if self.bank_candidate(pass, channel, bank, now)
                    && pass.issue(&mut self.channels[channel], bank, now)
                {
                    self.buffer.note_bank_command(channel, bank);
                    // One command per DRAM cycle.
                    break;
                }
            }
        }
    }

    /// An enabled `pass`'s bound: the first DRAM boundary at which
    /// `padc-dram` lets it act on a candidate bank ([`BankPass::earliest`]).
    fn bank_pass_bound(&self, pass: BankPass, now: Cycle) -> Option<Cycle> {
        let mut bound = None;
        for (channel, ch) in self.channels.iter().enumerate() {
            for bank in 0..ch.bank_count() {
                if self.bank_candidate(pass, channel, bank, now) {
                    bound = earlier(bound, pass.earliest(ch, bank, now));
                }
            }
        }
        bound.map(align_up_dram)
    }

    /// Audits the buffer's incremental state (bitsets, counts, heaps, the
    /// split-key lane, every non-dirty bank's owner and every non-stale
    /// bank's ready-lane entry) against a from-scratch recompute, panicking
    /// on divergence. Test-only support for the `buffer_consistency` and
    /// `next_event_soundness` proptests.
    #[doc(hidden)]
    pub fn audit_buffer(&mut self, now: Cycle, accuracy: &AccuracyTracker) {
        self.buffer.sync_rollover(accuracy, self.adaptive_keys());
        let rank_counts = self
            .buffer
            .rank_counts(accuracy, self.cfg.promotion_threshold);
        let ctx = self.key_ctx(accuracy, rank_counts.as_deref());
        let (buffer, channels) = (&mut self.buffer, &self.channels);
        buffer.audit(&ctx, &self.cfg.drop_thresholds, channels, now);
    }
}

/// First DRAM command-bus boundary at or after `t` (commands issue only
/// when `now` is a multiple of `CPU_CYCLES_PER_DRAM_CYCLE`).
fn align_up_dram(t: Cycle) -> Cycle {
    t.div_ceil(CPU_CYCLES_PER_DRAM_CYCLE) * CPU_CYCLES_PER_DRAM_CYCLE
}

/// The earlier of two optional event cycles (cheaper than `flatten().min()`).
fn earlier(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulingPolicy;

    fn tracker(cores: usize) -> AccuracyTracker {
        AccuracyTracker::new(cores, 100_000)
    }

    /// Tracker whose PAR has converged to `acc` for every core.
    fn tracker_with_accuracy(cores: usize, acc: f64) -> AccuracyTracker {
        let mut t = AccuracyTracker::new(cores, 100);
        for k in 1..=24u64 {
            for i in 0..cores {
                for _ in 0..100 {
                    t.on_prefetch_sent(CoreId::new(i));
                }
                for _ in 0..(acc * 100.0).round() as usize {
                    t.on_prefetch_used(CoreId::new(i));
                }
            }
            t.tick(k * 100);
        }
        t
    }

    fn controller(policy: SchedulingPolicy) -> MemoryController {
        MemoryController::new(
            ControllerConfig::from_policy(policy, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        )
    }

    /// A single-core demand-first controller over `dram`.
    fn controller_over(dram: DramConfig) -> MemoryController {
        MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1),
            dram,
            MappingScheme::Linear,
        )
    }

    /// Enqueues one demand at `at` and returns its service latency.
    fn service(mc: &mut MemoryController, t: &AccuracyTracker, line: u64, at: Cycle) -> Cycle {
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(line),
            AccessKind::Load,
            RequestKind::Demand,
            at,
        )
        .unwrap();
        let mut now = at;
        loop {
            if !mc.tick(now, t).completions.is_empty() {
                return now - at;
            }
            now += 1;
            assert!(now < at + 100_000, "controller wedged");
        }
    }

    /// Ticks `mc` over `cycles` and returns how many ticks moved `counter`,
    /// asserting that each of them also took some bank's owner from clean
    /// to dirty.
    fn ticks_that_dirtied(
        mc: &mut MemoryController,
        t: &AccuracyTracker,
        cycles: std::ops::Range<Cycle>,
        counter: impl Fn(&MemoryController) -> u64,
    ) -> usize {
        let mut events = 0;
        for now in cycles {
            let (before, dirtied) = (counter(mc), mc.buffer_stats().owner_invalidations);
            mc.tick(now, t);
            if counter(mc) > before {
                events += 1;
                assert!(
                    mc.buffer_stats().owner_invalidations > dirtied,
                    "the command at tick {now} left its bank's owner clean"
                );
            }
        }
        events
    }

    fn run_until_idle(
        mc: &mut MemoryController,
        t: &AccuracyTracker,
        start: Cycle,
    ) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = start;
        while !mc.is_idle() {
            let out = mc.tick(now, t);
            done.extend(out.completions);
            now += 1;
            assert!(now < start + 1_000_000, "controller wedged");
        }
        done
    }

    #[test]
    fn single_demand_completes_with_closed_row_latency() {
        let mut mc = controller(SchedulingPolicy::DemandFirst);
        let t = tracker(1);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 0);
        assert_eq!(done.len(), 1);
        assert!(!done[0].row_hit);
        assert_eq!(mc.stats().demands_serviced, 1);
    }

    #[test]
    fn demand_first_services_demand_before_older_prefetch() {
        // Both target the same bank, different rows; the prefetch is older.
        let mut mc = controller(SchedulingPolicy::DemandFirst);
        let t = tracker(1);
        let lines_per_row = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Prefetch,
            0,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lines_per_row * 8), // same bank, different row
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 0);
        assert!(done[0].request.kind.is_demand(), "demand must finish first");
    }

    #[test]
    fn equal_policy_services_row_hit_prefetch_first() {
        // Open a row via a demand, then queue a row-hit prefetch and a
        // row-conflict demand: FR-FCFS picks the row hit.
        let mut mc = controller(SchedulingPolicy::DemandPrefetchEqual);
        let t = tracker(1);
        let lpr = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 0);
        assert_eq!(done.len(), 1);
        // Row 0 of bank 0 is now open.
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lpr * 8), // same bank, conflicting row — demand
            AccessKind::Load,
            RequestKind::Demand,
            1000,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(1), // row hit — prefetch
            AccessKind::Load,
            RequestKind::Prefetch,
            1001,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 1005);
        assert!(done[0].request.kind.is_prefetch());
        assert!(done[0].row_hit);
    }

    #[test]
    fn demand_first_sacrifices_row_hit_for_demand() {
        let mut mc = controller(SchedulingPolicy::DemandFirst);
        let t = tracker(1);
        let lpr = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        run_until_idle(&mut mc, &t, 0);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(1),
            AccessKind::Load,
            RequestKind::Prefetch,
            1000,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lpr * 8),
            AccessKind::Load,
            RequestKind::Demand,
            1001,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 1005);
        assert!(done[0].request.kind.is_demand());
        assert!(!done[0].row_hit);
    }

    #[test]
    fn aps_with_high_accuracy_behaves_like_equal() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::ApsOnly, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker_with_accuracy(1, 0.95);
        let lpr = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        run_until_idle(&mut mc, &t, 0);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lpr * 8),
            AccessKind::Load,
            RequestKind::Demand,
            1000,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(1),
            AccessKind::Load,
            RequestKind::Prefetch,
            1001,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 1005);
        // Accurate prefetches are critical: the row-hit prefetch goes first.
        assert!(done[0].request.kind.is_prefetch());
    }

    #[test]
    fn aps_with_low_accuracy_behaves_like_demand_first() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::ApsOnly, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker_with_accuracy(1, 0.10);
        let lpr = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        run_until_idle(&mut mc, &t, 0);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(1),
            AccessKind::Load,
            RequestKind::Prefetch,
            1000,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lpr * 8),
            AccessKind::Load,
            RequestKind::Demand,
            1001,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 1005);
        assert!(done[0].request.kind.is_demand());
    }

    #[test]
    fn apd_drops_old_prefetches_with_low_accuracy() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::Padc, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker_with_accuracy(1, 0.05); // threshold: 100 cycles
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(123_456),
            AccessKind::Load,
            RequestKind::Prefetch,
            0,
        )
        .unwrap();
        // Stall scheduling by keeping the request un-advanceable? Simpler:
        // place a stream of demands in front so the prefetch ages out.
        // Actually with an empty system the prefetch is serviced quickly, so
        // drop needs age > 100 before first command; enqueue at time 0 and
        // tick starting from 200 without scheduling in between.
        let out = mc.tick(201, &t); // first tick is already past the limit
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(mc.stats().prefetches_dropped, 1);
        assert!(mc.is_idle());
    }

    #[test]
    fn apd_keeps_prefetches_with_high_accuracy() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::Padc, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker_with_accuracy(1, 0.95); // threshold: 100_000 cycles
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(1),
            AccessKind::Load,
            RequestKind::Prefetch,
            0,
        )
        .unwrap();
        let out = mc.tick(201, &t);
        assert!(out.dropped.is_empty());
    }

    /// Prefetches that expire in the same tick leave in arrival order, even
    /// after a demand queued ahead of them has been serviced (its removal
    /// must not reorder what is left).
    #[test]
    fn apd_drops_in_arrival_order() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::Padc, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker_with_accuracy(1, 0.05); // threshold: 100 cycles
        let lpr = DramConfig::default().lines_per_row();
        // A demand, then prefetches to other rows of the same bank.
        for k in 0..4 {
            let kind = if k == 0 {
                RequestKind::Demand
            } else {
                RequestKind::Prefetch
            };
            mc.enqueue(
                CoreId::new(0),
                LineAddr::new(lpr * 8 * k),
                AccessKind::Load,
                kind,
                0,
            )
            .unwrap();
        }
        let mut dropped = Vec::new();
        let mut now = 0;
        while !mc.is_idle() {
            dropped.extend(mc.tick(now, &t).dropped.into_iter().map(|r| r.id));
            now += 1;
            assert!(now < 100_000, "controller wedged");
        }
        assert!(dropped.len() >= 2, "dropped {dropped:?}");
        assert!(
            dropped.windows(2).all(|w| w[0] < w[1]),
            "drops out of arrival order: {dropped:?}"
        );
    }

    /// Two cores prefetched the same line; a demand for it promotes the
    /// older request, whatever the buffer did in between.
    #[test]
    fn promotion_takes_the_oldest_queued_prefetch_of_the_line() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 2),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker(2);
        let line = LineAddr::new(DramConfig::default().lines_per_row() * 8);
        let (load, prefetch) = (AccessKind::Load, RequestKind::Prefetch);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        let older = mc.enqueue(CoreId::new(0), line, load, prefetch, 0).unwrap();
        mc.enqueue(CoreId::new(1), line, load, prefetch, 0).unwrap();
        // Service the demand, leaving both prefetches queued.
        let mut now = 0;
        while mc.occupancy() == 3 {
            mc.tick(now, &t);
            now += 1;
            assert!(now < 100_000, "controller wedged");
        }
        assert_eq!(mc.occupancy(), 2);
        assert!(mc.promote_prefetch(line));
        let promoted: Vec<RequestId> = mc
            .buffer
            .iter()
            .filter(|(_, e)| e.req.was_prefetch && e.req.kind.is_demand())
            .map(|(_, e)| e.req.id)
            .collect();
        assert_eq!(promoted, [older]);
    }

    #[test]
    fn promoted_prefetch_completes_as_demand() {
        let mut mc = controller(SchedulingPolicy::DemandFirst);
        let t = tracker(1);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(9),
            AccessKind::Load,
            RequestKind::Prefetch,
            0,
        )
        .unwrap();
        assert!(mc.promote_prefetch(LineAddr::new(9)));
        assert!(!mc.promote_prefetch(LineAddr::new(9)), "already promoted");
        let done = run_until_idle(&mut mc, &t, 0);
        assert!(done[0].request.kind.is_demand());
        assert!(done[0].request.was_prefetch);
        assert_eq!(mc.stats().promotions, 1);
    }

    #[test]
    fn promoted_prefetch_is_not_droppable() {
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::Padc, 1),
            DramConfig::default(),
            MappingScheme::Linear,
        );
        let t = tracker_with_accuracy(1, 0.0);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(9),
            AccessKind::Load,
            RequestKind::Prefetch,
            0,
        )
        .unwrap();
        mc.promote_prefetch(LineAddr::new(9));
        let out = mc.tick(100_000, &t);
        assert!(out.dropped.is_empty());
    }

    #[test]
    fn buffer_full_rejects_and_counts() {
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1);
        cfg.buffer_entries = 2;
        let mut mc = MemoryController::new(cfg, DramConfig::default(), MappingScheme::Linear);
        for i in 0..2 {
            assert!(mc
                .enqueue(
                    CoreId::new(0),
                    LineAddr::new(i),
                    AccessKind::Load,
                    RequestKind::Demand,
                    0
                )
                .is_some());
        }
        assert!(mc
            .enqueue(
                CoreId::new(0),
                LineAddr::new(99),
                AccessKind::Load,
                RequestKind::Demand,
                0
            )
            .is_none());
        assert_eq!(mc.stats().enqueue_rejections, 1);
    }

    #[test]
    fn writeback_overflow_drains_in_order() {
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1);
        cfg.buffer_entries = 1;
        let mut mc = MemoryController::new(cfg, DramConfig::default(), MappingScheme::Linear);
        let t = tracker(1);
        mc.enqueue_writeback(CoreId::new(0), LineAddr::new(0), 0);
        mc.enqueue_writeback(CoreId::new(0), LineAddr::new(1), 0);
        mc.enqueue_writeback(CoreId::new(0), LineAddr::new(2), 0);
        assert_eq!(mc.occupancy(), 1);
        let done = run_until_idle(&mut mc, &t, 0);
        assert_eq!(done.len(), 3);
        assert_eq!(mc.stats().writebacks_serviced, 3);
    }

    #[test]
    fn urgency_prefers_low_accuracy_cores_demand() {
        // Two cores; core 0 accurate (its prefetches are critical), core 1
        // inaccurate. Queue a row-hit critical prefetch from core 0 and a
        // row-conflict demand from core 1. Under APS with urgency, critical
        // beats critical on row-hit... so instead compare two *critical*
        // requests where only urgency differs: both row-conflict demands
        // (core 0 demand vs core 1 demand), core 1's should win even though
        // core 0's is older.
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::ApsOnly, 2);
        cfg.buffer_entries = 8;
        let mut mc = MemoryController::new(cfg, DramConfig::default(), MappingScheme::Linear);
        let mut t = AccuracyTracker::new(2, 100);
        // core 0: perfect accuracy; core 1: useless prefetches.
        for _ in 0..10 {
            t.on_prefetch_sent(CoreId::new(0));
            t.on_prefetch_used(CoreId::new(0));
            t.on_prefetch_sent(CoreId::new(1));
        }
        t.tick(100);
        let lpr = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(1),
            LineAddr::new(lpr * 8),
            AccessKind::Load,
            RequestKind::Demand,
            1,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 100);
        assert_eq!(done[0].request.core, CoreId::new(1), "urgent demand first");
    }

    #[test]
    fn ranking_prefers_core_with_fewer_critical_requests() {
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::PadcRank, 2);
        cfg.urgency = false; // isolate the ranking rule
        let mut mc = MemoryController::new(cfg, DramConfig::default(), MappingScheme::Linear);
        let t = tracker(2); // both cores accuracy 0 -> all demands critical
        let lpr = DramConfig::default().lines_per_row();
        // Core 0: three demands (memory-intensive). Core 1: one demand.
        for i in 0..3u64 {
            mc.enqueue(
                CoreId::new(0),
                LineAddr::new(lpr * 8 * (i + 2)), // distinct rows, bank 0... spread
                AccessKind::Load,
                RequestKind::Demand,
                i,
            )
            .unwrap();
        }
        mc.enqueue(
            CoreId::new(1),
            LineAddr::new(lpr * 8 * 40),
            AccessKind::Load,
            RequestKind::Demand,
            3,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 10);
        assert_eq!(
            done[0].request.core,
            CoreId::new(1),
            "shorter job must be serviced first"
        );
    }

    /// Under ranking, a CAS on one channel moves its core's critical count,
    /// and the next channel's arbitration in the same tick ranks by the new
    /// count: core 0's request on channel 1 outranks core 1's older one from
    /// the cycle core 0's channel-0 request leaves the buffer.
    #[test]
    fn ranking_sees_a_cas_on_an_earlier_channel_in_the_same_tick() {
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::PadcRank, 2);
        cfg.urgency = false; // isolate the ranking rule
        let dram = DramConfig {
            channels: 2,
            ..DramConfig::default()
        };
        let mut mc = MemoryController::new(cfg, dram, MappingScheme::Linear);
        let t = tracker(2);
        // Lines at (channel, bank, row): core 0's on channel 0, core 1's two
        // to one bank of channel 1, core 0's to another bank of channel 1.
        let [a0, b0, b1, a1] = [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0)].map(|target| {
            (0..)
                .map(LineAddr::new)
                .find(|&l| {
                    let m = mc.mapper.map(l);
                    (m.channel, m.bank, m.row) == target
                })
                .unwrap()
        });
        let demand = |mc: &mut MemoryController, core: usize, l: LineAddr, at: Cycle| {
            let (access, kind) = (AccessKind::Load, RequestKind::Demand);
            mc.enqueue(CoreId::new(core), l, access, kind, at).unwrap()
        };
        // `a0` activates at 0 and is CAS-ready at tRCD; the other three,
        // enqueued just before, are ACT-ready then. Each core has two
        // critical requests until `a0`'s CAS, core 0 one after it.
        let cas = DramConfig::default().t_rcd_cpu();
        demand(&mut mc, 0, a0, 0);
        for now in 0..cas {
            mc.tick(now, &t);
        }
        let [_, _, core0] =
            [(1, b0), (1, b1), (0, a1)].map(|(c, l)| demand(&mut mc, c, l, cas - 1));
        let done = run_until_idle(&mut mc, &t, cas);
        let first_on_1 = done
            .iter()
            .find(|c| mc.mapper.map(c.request.line).channel == 1)
            .unwrap();
        assert_eq!(first_on_1.request.id, core0, "ranked by stale counts");
    }

    #[test]
    fn write_drain_defers_writebacks_until_the_watermark() {
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1);
        cfg.write_drain = true;
        cfg.write_drain_high = 4;
        cfg.write_drain_low = 1;
        let mut mc = MemoryController::new(cfg, DramConfig::default(), MappingScheme::Linear);
        let t = tracker(1);
        let lpr = DramConfig::default().lines_per_row();
        // Three writebacks (below the watermark) plus a younger read to a
        // different row of the same bank: the read must finish first even
        // though the writebacks are older demands.
        for i in 0..3u64 {
            mc.enqueue_writeback(CoreId::new(0), LineAddr::new(lpr * 8 * (i + 1)), 0);
        }
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            1,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 10);
        assert!(
            done[0].request.access == AccessKind::Load,
            "read must be serviced before sub-watermark writebacks"
        );
        // A fourth writeback crosses the high watermark: drain mode kicks
        // in and services buffered writes ahead of a new read.
        for i in 0..4u64 {
            mc.enqueue_writeback(CoreId::new(0), LineAddr::new(lpr * 8 * (i + 10)), 1000);
        }
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(1),
            AccessKind::Load,
            RequestKind::Demand,
            1001,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 1010);
        assert!(
            done[0].request.access == AccessKind::Store,
            "drain mode must service writes first"
        );
    }

    #[test]
    fn batching_bounds_starvation_of_memory_intensive_cores() {
        // Core 0 floods the buffer with a row-hit river; core 1 has one
        // late, conflicting request. With PAR-BS batching, the first batch
        // caps core 0 at batch_cap entries, so core 1's request is reached
        // within two batches instead of waiting out the whole river.
        let mut cfg = ControllerConfig::from_policy(SchedulingPolicy::DemandPrefetchEqual, 2);
        cfg.batching = true;
        cfg.batch_cap = 2;
        let mut mc = MemoryController::new(cfg, DramConfig::default(), MappingScheme::Linear);
        let t = tracker(2);
        for i in 0..6u64 {
            mc.enqueue(
                CoreId::new(0),
                LineAddr::new(i),
                AccessKind::Load,
                RequestKind::Demand,
                0,
            )
            .unwrap();
        }
        mc.enqueue(
            CoreId::new(1),
            LineAddr::new(DramConfig::default().lines_per_row() * 8),
            AccessKind::Load,
            RequestKind::Demand,
            1,
        )
        .unwrap();
        let done = run_until_idle(&mut mc, &t, 10);
        let pos_core1 = done
            .iter()
            .position(|c| c.request.core == CoreId::new(1))
            .expect("core 1 serviced");
        assert!(
            pos_core1 <= 4,
            "batching must reach core 1 within two batches (finished {} of {})",
            pos_core1 + 1,
            done.len()
        );
    }

    #[test]
    fn closed_row_policy_precharges_idle_banks() {
        let dram = DramConfig {
            row_policy: RowPolicy::Closed,
            ..DramConfig::default()
        };
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1),
            dram,
            MappingScheme::Linear,
        );
        let t = tracker(1);
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        run_until_idle(&mut mc, &t, 0);
        // Let the closed-row policy issue its precharge.
        for now in 1000..1200 {
            mc.tick(now, &t);
        }
        // A new access to a *different* row in the same bank is row-closed
        // (ACT+CAS), not conflict, because the bank was precharged.
        let lpr = DramConfig::default().lines_per_row();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lpr * 8),
            AccessKind::Load,
            RequestKind::Demand,
            1200,
        )
        .unwrap();
        let mut now = 1200;
        let mut completed_at = None;
        while completed_at.is_none() {
            if !mc.tick(now, &t).completions.is_empty() {
                completed_at = Some(now);
            }
            now += 1;
        }
        // Row-closed service: ACT + CAS + burst, plus command alignment.
        let d = DramConfig::default();
        let closed = d.t_rcd_cpu() + d.cl_cpu() + d.burst_cpu();
        let latency = completed_at.unwrap() - 1200;
        assert!(
            latency <= closed + 2 * CPU_CYCLES_PER_DRAM_CYCLE,
            "expected row-closed latency, got {latency} (conflict would add {})",
            d.t_rp_cpu()
        );
    }

    #[test]
    fn happy_policy_keeps_untrained_rows_open_and_precharges_trained_ones() {
        let dram = DramConfig {
            row_policy: RowPolicy::Happy,
            ..DramConfig::default()
        };
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1),
            dram,
            MappingScheme::Linear,
        );
        let t = tracker(1);
        let lpr = DramConfig::default().lines_per_row();
        let d = DramConfig::default();
        let closed = d.t_rcd_cpu() + d.cl_cpu() + d.burst_cpu();
        let slack = 2 * CPU_CYCLES_PER_DRAM_CYCLE;

        // Residency 1: row 0 opens, serves a single CAS, then idles.
        // Untrained rows vote open, so the idle window must not precharge.
        service(&mut mc, &t, 0, 0);
        for now in 1000..1200 {
            mc.tick(now, &t);
        }
        // The conflicting access pays the full conflict penalty — proof the
        // row stayed open — and its precharge trains row 0 toward closed.
        let lat = service(&mut mc, &t, lpr * 8, 1200);
        assert!(
            lat > closed + slack,
            "untrained row must stay open like open-row policy (lat {lat})"
        );
        // Residency 2 of row 0: another single-CAS visit.
        service(&mut mc, &t, 0, 3000);
        // Row 0 now votes close: the HAPPY policy precharges it while idle.
        for now in 4000..4200 {
            mc.tick(now, &t);
        }
        let lat = service(&mut mc, &t, lpr * 16, 4200);
        assert!(
            lat <= closed + slack,
            "trained single-use row must be precharged like closed-row policy (lat {lat})"
        );
    }

    /// The keep-owner lemma covers the owner's own ACT/PRE only (the
    /// buffer's unit tests and the `buffer_consistency` audit hold it).
    /// Its negative twin: a bank-state change the owner did not issue — a
    /// closed-row or HAPPY policy precharge, a DARP pull, a refresh — still
    /// dirties the bank, while the scheduler's own ACT/PRE dirty nothing.
    #[test]
    fn commands_the_owner_did_not_issue_still_dirty_the_bank() {
        let t = tracker(1);
        let lpr = DramConfig::default().lines_per_row();
        let precharges = |mc: &MemoryController| mc.channel_stats()[0].precharges;

        // Enqueues a demand at `at` and ticks until the scheduler has
        // issued its ACT (the `acts`-th overall); returns the next cycle.
        let activate = |mc: &mut MemoryController, line: u64, at: Cycle, acts: u64| {
            mc.enqueue(
                CoreId::new(0),
                LineAddr::new(line),
                AccessKind::Load,
                RequestKind::Demand,
                at,
            )
            .unwrap();
            let mut now = at;
            while mc.channel_stats()[0].activations < acts {
                mc.tick(now, &t);
                now += 1;
                assert!(now < at + 100_000, "controller wedged");
            }
            now
        };

        // The scheduler's own commands: a closed-bank ACT, then a
        // conflict's PRE and ACT. Inserts fold, ACT/PRE keep the owner.
        let mut mc = controller_over(DramConfig::default());
        service(&mut mc, &t, 0, 0);
        let dirtied = mc.buffer_stats().owner_invalidations;
        activate(&mut mc, lpr * 8, 1000, 2);
        assert_eq!(precharges(&mc), 1, "the conflict precharged");
        assert_eq!(
            mc.buffer_stats().owner_invalidations,
            dirtied,
            "the owner's own PRE/ACT dirtied its bank"
        );

        // The policy precharge lands once the only request has completed.
        let mut closed = controller_over(DramConfig {
            row_policy: RowPolicy::Closed,
            ..DramConfig::default()
        });
        let now = activate(&mut closed, 0, 0, 1);
        assert_eq!(
            ticks_that_dirtied(&mut closed, &t, now..now + 1000, precharges),
            1,
            "closed-row precharge"
        );

        // Two single-CAS residencies train row 0 toward "close" (see
        // `happy_policy_keeps_untrained_rows_open_and_precharges_trained_ones`).
        let mut happy = controller_over(DramConfig {
            row_policy: RowPolicy::Happy,
            ..DramConfig::default()
        });
        service(&mut happy, &t, 0, 0);
        service(&mut happy, &t, lpr * 8, 1200);
        let now = activate(&mut happy, 0, 3000, 3);
        assert_eq!(
            ticks_that_dirtied(&mut happy, &t, now..now + 1000, precharges),
            1,
            "HAPPY precharge"
        );

        let ext = padc_dram::ExtendedTiming::default();
        let t_refi = ext.t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
        let mut darp = controller_over(DramConfig {
            extended: Some(ext),
            refresh_policy: RefreshPolicy::Darp,
            ..DramConfig::default()
        });
        let pulls = |mc: &MemoryController| mc.refresh_counters().pulls;
        assert_eq!(
            ticks_that_dirtied(&mut darp, &t, 0..t_refi, pulls),
            8,
            "DARP pulls"
        );

        let mut all_bank = controller_over(DramConfig {
            extended: Some(ext),
            ..DramConfig::default()
        });
        let refreshes = |mc: &MemoryController| mc.channel_stats()[0].refreshes;
        assert_eq!(
            ticks_that_dirtied(&mut all_bank, &t, 0..t_refi + 8, refreshes),
            1,
            "all-bank refresh"
        );
    }

    /// The marks B5 rests on (DESIGN.md §13): whoever issues a command, the
    /// bank it went to is left stale — the owner's own ACT, CAS and PRE, a
    /// closed-row policy precharge, a DARP pull — and an all-bank refresh
    /// stales every bank of the channel.
    #[test]
    fn every_command_leaves_its_bank_stale() {
        let t = tracker(1);
        let lpr = DramConfig::default().lines_per_row();
        // Ticks from `from` until `counter` moves; returns the next cycle
        // and the banks that tick left stale.
        let stale_after =
            |mc: &mut MemoryController, from: Cycle, counter: &dyn Fn(&MemoryController) -> u64| {
                let (before, mut now) = (counter(mc), from);
                while counter(mc) == before {
                    mc.tick(now, &t);
                    now += 1;
                    assert!(now < from + 100_000, "controller wedged");
                }
                let banks = 0..mc.channels[0].bank_count();
                let stale: Vec<usize> = banks.filter(|&b| mc.buffer.lane_stale(0, b)).collect();
                (now, stale)
            };
        let demand = |mc: &mut MemoryController, line: u64, at: Cycle| {
            let (access, kind) = (AccessKind::Load, RequestKind::Demand);
            mc.enqueue(CoreId::new(0), LineAddr::new(line), access, kind, at)
                .unwrap();
        };
        let activations = |mc: &MemoryController| mc.channel_stats()[0].activations;
        let reads = |mc: &MemoryController| mc.channel_stats()[0].reads;
        let precharges = |mc: &MemoryController| mc.channel_stats()[0].precharges;

        // The owner's own commands: ACT and CAS of a closed-bank access,
        // then the PRE of a conflict on the same bank.
        let mut mc = controller_over(DramConfig::default());
        demand(&mut mc, 0, 0);
        let (now, stale) = stale_after(&mut mc, 0, &activations);
        assert_eq!(stale, [0], "the owner's ACT");
        let (now, stale) = stale_after(&mut mc, now, &reads);
        assert_eq!(stale, [0], "the owner's CAS");
        demand(&mut mc, lpr * 8, now);
        let (_, stale) = stale_after(&mut mc, now, &precharges);
        assert_eq!(stale, [0], "the owner's PRE");

        let mut closed = controller_over(DramConfig {
            row_policy: RowPolicy::Closed,
            ..DramConfig::default()
        });
        demand(&mut closed, 0, 0);
        let (_, stale) = stale_after(&mut closed, 0, &precharges);
        assert_eq!(stale, [0], "closed-row policy precharge");

        let ext = padc_dram::ExtendedTiming::default();
        let mut darp = controller_over(DramConfig {
            extended: Some(ext),
            refresh_policy: RefreshPolicy::Darp,
            ..DramConfig::default()
        });
        let pulls = |mc: &MemoryController| mc.refresh_counters().pulls;
        let (_, stale) = stale_after(&mut darp, 0, &pulls);
        assert_eq!(stale, [0], "DARP pull");

        // The refresh tick's own arbitration pass consumes the marks, so
        // they show as that pass re-deriving all eight entries — where the
        // idle passes before it re-derived none.
        let mut all_bank = controller_over(DramConfig {
            extended: Some(ext),
            ..DramConfig::default()
        });
        let refreshes = |mc: &MemoryController| mc.channel_stats()[0].refreshes;
        let (_, stale) = stale_after(&mut all_bank, 0, &refreshes);
        assert_eq!(stale, [], "all-bank refresh, after its pass");
        assert_eq!(
            all_bank.buffer_stats().lane_refreshes,
            8,
            "all-bank refresh"
        );
    }

    #[test]
    fn darp_pulls_refresh_into_idle_banks() {
        let dram = DramConfig {
            extended: Some(padc_dram::ExtendedTiming::default()),
            refresh_policy: RefreshPolicy::Darp,
            ..DramConfig::default()
        };
        let t_refi = dram.extended.unwrap().t_refi * CPU_CYCLES_PER_DRAM_CYCLE;
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1),
            dram,
            MappingScheme::Linear,
        );
        let t = tracker(1);
        // An idle controller pulls each bank's refresh as soon as its
        // staggered window opens; by the first t_REFI boundary every bank
        // has been refreshed early and no forced refresh remains.
        for now in 0..t_refi {
            mc.tick(now, &t);
        }
        let rc = mc.refresh_counters();
        assert_eq!(rc.pulls, 8, "one pull per bank per t_REFI");
        assert_eq!(mc.channel_stats()[0].refreshes, 8, "all early, none forced");
        assert!(rc.stall_cycles > 0);
    }

    /// On an idle DARP controller the pulls are the only events, so each
    /// `next_event` claim rests on the DARP pass's bound alone — which the
    /// request mixes of `next_event_soundness` always tie or undercut. No
    /// pull may land inside a claimed window.
    #[test]
    fn next_event_never_skips_an_idle_darp_pull() {
        let mut mc = controller_over(DramConfig {
            extended: Some(padc_dram::ExtendedTiming::default()),
            refresh_policy: RefreshPolicy::Darp,
            ..DramConfig::default()
        });
        let t = tracker(1);
        let mut now = 0;
        while mc.refresh_counters().pulls < 8 {
            let claim = mc.next_event(now, &t).expect("a pull is pending");
            let pulls = mc.refresh_counters().pulls;
            for m in now..claim {
                mc.tick(m, &t);
                assert_eq!(
                    mc.refresh_counters().pulls,
                    pulls,
                    "pulled at {m} < {claim}"
                );
            }
            mc.tick(claim, &t);
            now = claim + 1;
        }
    }

    #[test]
    fn two_channels_service_in_parallel() {
        let dram = DramConfig {
            channels: 2,
            ..DramConfig::default()
        };
        let mut mc = MemoryController::new(
            ControllerConfig::from_policy(SchedulingPolicy::DemandFirst, 1),
            dram.clone(),
            MappingScheme::Linear,
        );
        let t = tracker(1);
        let lpr = dram.lines_per_row();
        // One request per channel.
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(0),
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        mc.enqueue(
            CoreId::new(0),
            LineAddr::new(lpr), // second channel
            AccessKind::Load,
            RequestKind::Demand,
            0,
        )
        .unwrap();
        let mut now = 0;
        let mut completions = Vec::new();
        while !mc.is_idle() {
            completions.extend(mc.tick(now, &t).completions);
            now += 1;
        }
        assert_eq!(completions.len(), 2);
        // Both complete at the same closed-row latency: full overlap.
        let d = DramConfig::default();
        let expected = d.t_rcd_cpu() + d.cl_cpu() + d.burst_cpu();
        assert!(
            completions.iter().all(|c| {
                // completion observed the tick *after* completes_at
                (c.request.arrival..=expected + 1).contains(&(expected))
            }),
            "parallel service expected"
        );
        assert!(now <= expected + 2, "channels must overlap, took {now}");
    }
}
