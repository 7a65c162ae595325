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
//! - this module — [`MemoryController`]: the tick loop, DRAM command
//!   issue, APD, PAR-BS batching, write drain, and the `next_event` bound
//!   that event-mode fast-forwarding consumes. Arbitration and the bound
//!   each cost one walk over a channel's ready lane against the channel's
//!   floors ([`Channel::floors`]) per event, not a probe per bank.

pub mod arbiter;
pub mod buffer;

use std::collections::VecDeque;

use padc_dram::{
    AddressMapper, Channel, DramConfig, MappingScheme, RefreshCounters, RefreshPolicy,
    RowBufferOutcome, RowPolicy, StepOutcome,
};
use padc_types::{
    AccessKind, CoreId, Cycle, LineAddr, MemRequest, RequestId, RequestKind,
    CPU_CYCLES_PER_DRAM_CYCLE,
};

use crate::{AccuracyTracker, ControllerConfig, ControllerStats};

use arbiter::{KeyCtx, PackedKey};
use buffer::{BufferStats, Entry, RequestBuffer, Slot};

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
    target: padc_dram::Target,
    completes_at: Cycle,
    row_hit: bool,
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

    /// Updates write-drain mode from the buffered writeback count. A flip
    /// changes every entry's write-drain service class — a static key bit —
    /// so it starts a new key generation.
    fn update_write_drain(&mut self) {
        if !self.cfg.write_drain {
            return;
        }
        let writes = self.buffer.writeback_len() + self.writeback_overflow.len();
        let drain = if self.draining_writes {
            writes > self.cfg.write_drain_low
        } else {
            writes >= self.cfg.write_drain_high
        };
        if drain != self.draining_writes {
            self.draining_writes = drain;
            self.buffer.bump_key_generation();
        }
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

    /// Advances one CPU cycle: collects completions, applies Adaptive
    /// Prefetch Dropping, and (on DRAM bus cycle boundaries) issues at most
    /// one DRAM command per channel.
    pub fn tick(&mut self, now: Cycle, accuracy: &AccuracyTracker) -> TickOutput {
        self.buffer.sync_rollover(accuracy, self.adaptive_keys());
        let mut out = TickOutput::default();
        self.collect_completions(now, &mut out);
        if self.cfg.apd {
            self.drop_old_prefetches(now, accuracy, &mut out);
        }
        self.drain_writebacks();
        if now.is_multiple_of(CPU_CYCLES_PER_DRAM_CYCLE) {
            if self.cfg.batching {
                self.reform_batch_if_drained();
            }
            self.update_write_drain();
            for ch in 0..self.channels.len() {
                self.channels[ch].sync(now);
                // A refresh closed every bank, re-keying row hits.
                let refreshes = self.channels[ch].stats().refreshes;
                self.buffer.sync_refresh(ch, refreshes);
                self.schedule_channel(ch, now, accuracy);
            }
            if self.dram.row_policy != RowPolicy::Open {
                self.apply_row_policy_precharges(now, self.dram.row_policy == RowPolicy::Happy);
            }
            if self.dram.refresh_policy == RefreshPolicy::Darp {
                self.apply_darp_refresh_pulls(now);
            }
        }
        out
    }

    /// Lower bound on the first cycle `m >= now` at which
    /// [`MemoryController::tick`]`(m)` can perform observable work, assuming
    /// no external mutation (enqueue / promote) happens in between. `None`
    /// when the controller is fully quiescent and only external input can
    /// change its state.
    ///
    /// This is the controller's contribution to the fast-forward event
    /// contract (DESIGN.md §11). The bound folds together:
    ///
    /// - in-flight CAS completions (`completes_at`, exact);
    /// - APD drop deadlines (`arrival + threshold + 1`, exact while `PAR`
    ///   is stable — the caller separately bounds the skip by
    ///   [`AccuracyTracker::next_rollover`]), served by the buffer's
    ///   per-core deadline heaps in O(cores);
    /// - pending boundary-only recomputations: a drained PAR-BS batch
    ///   waiting to reform, a write-drain watermark crossing waiting to
    ///   flip, both due at the next DRAM bus boundary;
    /// - DRAM readiness of each bank's highest-priority queued request
    ///   (the bank *owner* only — two-level arbitration means no other
    ///   entry can issue on that bank): per channel, the buffer's ready
    ///   lane folded against [`Channel::floors`], which is the minimum of
    ///   the owners' [`Channel::earliest_advance_at`] with one boundary
    ///   alignment per channel instead of a probe per bank;
    /// - pending refresh boundaries ([`Channel::next_refresh_boundary`] —
    ///   per-bank staggered deadlines under the per-bank refresh policies);
    /// - DARP refresh-pull opportunities on pull-eligible banks
    ///   ([`Channel::earliest_refresh_pull_at`]); eligibility is a pure
    ///   read of bank membership and the write-drain flag, both constant
    ///   across a proven-idle window (membership changes only at executed
    ///   ticks or external mutations, drain flips are folded above);
    /// - closed-row-policy precharges of open banks no queued or in-flight
    ///   request wants ([`Channel::earliest_precharge_at`]); under the
    ///   HAPPY policy the same bound applies only to banks whose open row
    ///   the per-row predictor votes to close
    ///   ([`Channel::happy_votes_close`], a pure read — predictor state
    ///   mutates only when commands issue, i.e. only at executed ticks);
    /// - overflowed writebacks that could drain into freed buffer space
    ///   (due immediately, so the caller simply does not skip).
    ///
    /// Bounds may be *early* (the tick at the returned cycle does nothing
    /// and stepping resumes) but are never late — that is what keeps
    /// fast-forwarded runs bit-identical to cycle-by-cycle stepping.
    ///
    /// Takes `&mut self` purely for cache maintenance (lazy heap cleanup,
    /// owner and ready-lane fills); observable controller state is unchanged.
    pub fn next_event(&mut self, now: Cycle, accuracy: &AccuracyTracker) -> Option<Cycle> {
        self.buffer.sync_rollover(accuracy, self.adaptive_keys());
        let mut ev: Option<Cycle> = None;
        let mut fold = |c: Cycle| ev = Some(ev.map_or(c, |e: Cycle| e.min(c)));
        for f in &self.inflight {
            fold(f.completes_at);
        }
        if self.cfg.apd {
            if let Some(d) = self
                .buffer
                .earliest_drop_deadline(&self.cfg.drop_thresholds, accuracy)
            {
                fold(d);
            }
        }
        if !self.writeback_overflow.is_empty() && self.has_space() {
            // A writeback can drain this very cycle; don't skip at all.
            fold(now);
        }
        if self.cfg.batching && !self.buffer.is_empty() && self.buffer.batched_len() == 0 {
            fold(align_up_dram(now));
        }
        if self.cfg.write_drain {
            let writes = self.buffer.writeback_len() + self.writeback_overflow.len();
            let flips = if self.draining_writes {
                writes <= self.cfg.write_drain_low
            } else {
                writes >= self.cfg.write_drain_high
            };
            if flips {
                fold(align_up_dram(now));
            }
        }
        for ch in &self.channels {
            if let Some(r) = ch.next_refresh_boundary(now) {
                fold(r);
            }
        }
        if self.dram.refresh_policy == RefreshPolicy::Darp {
            for (ci, ch) in self.channels.iter().enumerate() {
                for bank in 0..ch.bank_count() {
                    if !self.refresh_pull_eligible(ci, bank) {
                        continue;
                    }
                    if let Some(t) = ch.earliest_refresh_pull_at(bank, now) {
                        fold(align_up_dram(t));
                    }
                }
            }
        }
        // Owner-aware advance bound. [`MemoryController::schedule_channel`]'s
        // two-level selection means only the highest-priority entry per bank
        // (that bank's *owner*) can issue the bank's next command, so
        // non-owner entries cannot tighten the bound. Ownership is stable
        // across a proven-idle window: priority keys depend on the
        // row-buffer class (unchanged by passive ACT/PRE completions — an
        // activating row already classifies as its future hit, a precharging
        // bank as closed), on batch / write-drain flags (tick-mutated, and
        // their boundary flips are folded above), and on accuracy (constant
        // between rollovers; the caller caps every skip at
        // [`AccuracyTracker::next_rollover`]); buffer membership only
        // changes at executed ticks or external mutations, both of which
        // re-prove the bound. The same stability argument is what lets the
        // buffer serve owners — and, commands being the only thing that
        // moves a bank's class or its local ready cycle, their readiness —
        // from its per-bank lane here (DESIGN.md §11, §13).
        if !self.buffer.is_empty() {
            let rank_counts = self
                .buffer
                .rank_counts(accuracy, self.cfg.promotion_threshold);
            let ctx = self.key_ctx(accuracy, rank_counts.as_deref());
            for (ci, ch) in self.channels.iter().enumerate() {
                let floors = ch.floors();
                let lane = self.buffer.ready_lane(ci, &ctx, ch, now);
                let earliest = lane.iter().flatten().map(|o| floors.ready_at(o.ready));
                if let Some(t) = earliest.min() {
                    fold(align_up_dram(t.max(ch.refresh_release(now))));
                }
            }
        }
        if matches!(self.dram.row_policy, RowPolicy::Closed | RowPolicy::Happy) {
            let happy = self.dram.row_policy == RowPolicy::Happy;
            for (ci, ch) in self.channels.iter().enumerate() {
                for bank in 0..ch.bank_count() {
                    let Some(open) = ch.effective_row(bank, now) else {
                        continue;
                    };
                    if happy && !ch.happy_votes_close(bank, now) {
                        continue;
                    }
                    if !self.row_wanted(ci, bank, open) {
                        if let Some(t) = ch.earliest_precharge_at(bank, now) {
                            fold(align_up_dram(t));
                        }
                    }
                }
            }
        }
        ev
    }

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

    /// Adaptive Prefetch Dropping (§4.3): remove queued prefetches older
    /// than their core's dynamic drop threshold. Requests already being
    /// serviced (first command issued) are left alone, as are promoted
    /// prefetches (they are demands now).
    ///
    /// The buffer's deadline heaps answer "is anything due?" in O(cores);
    /// only when a drop is actually due does the scan run, and it emits the
    /// expired prefetches in arrival (request id) order.
    fn drop_old_prefetches(
        &mut self,
        now: Cycle,
        accuracy: &AccuracyTracker,
        out: &mut TickOutput,
    ) {
        match self
            .buffer
            .earliest_drop_deadline(&self.cfg.drop_thresholds, accuracy)
        {
            Some(deadline) if deadline <= now => {}
            _ => return,
        }
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

    fn drain_writebacks(&mut self) {
        while self.has_space() {
            let Some(req) = self.writeback_overflow.pop_front() else {
                break;
            };
            let target = self.mapper.map(req.line);
            self.buffer.insert(Entry::new(req, target));
        }
    }

    /// PAR-BS batching: when no batched request remains, mark the oldest
    /// `batch_cap` requests of each core as the new batch.
    fn reform_batch_if_drained(&mut self) {
        if self.buffer.batched_len() > 0 || self.buffer.is_empty() {
            return;
        }
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

    /// Pick and issue at most one command on `channel`.
    fn schedule_channel(&mut self, channel: usize, now: Cycle, accuracy: &AccuracyTracker) {
        if !self.channels[channel].command_bus_free(now) {
            return;
        }
        // Per-core outstanding critical-request counts for ranking (§6.5),
        // rebuilt O(cores) from the buffer's running kind counts.
        let rank_counts = self
            .buffer
            .rank_counts(accuracy, self.cfg.promotion_threshold);
        let ctx = self.key_ctx(accuracy, rank_counts.as_deref());

        // Two-level selection, as in real FR-FCFS controllers: first pick
        // the highest-priority *request* per bank (that request owns the
        // bank — a lower-priority row-conflict must not precharge a row
        // that a higher-priority row-hit is still waiting to read), then
        // pick the best bank whose owner can issue a command this cycle.
        // The buffer keeps both answers per bank — the owner and the
        // bank-local half of its readiness — and re-derives only the banks
        // something touched since the channel's last pass; what is left per
        // event is one walk over that lane against the channel's floors.
        let ch = &self.channels[channel];
        let lane = self.buffer.ready_lane(channel, &ctx, ch, now);
        if ch.refresh_release(now) > now {
            return;
        }
        let floors = ch.floors();
        let mut best: Option<(PackedKey, Slot)> = None;
        for o in lane.iter().flatten() {
            if now >= floors.ready_at(o.ready) && best.is_none_or(|(bk, _)| o.key > bk) {
                best = Some((o.key, o.slot));
            }
        }
        let Some((_, slot)) = best else { return };
        let (bank, row) = {
            let t = &self.buffer.entry(slot).target;
            (t.bank, t.row)
        };
        // Record the row-buffer classification of the first command.
        if self.buffer.entry(slot).first_service.is_none() {
            let class = self.channels[channel].classify(bank, row, now);
            self.buffer.set_first_service(slot, class);
        }
        let is_write = self.buffer.entry(slot).req.access == AccessKind::Store;
        match self.channels[channel].advance(bank, row, is_write, now) {
            StepOutcome::CasIssued { completes_at } => {
                let e = self.buffer.remove(slot);
                let row_hit = e.first_service == Some(RowBufferOutcome::Hit);
                let service = completes_at.saturating_sub(e.req.arrival);
                match e.req.kind {
                    RequestKind::Demand if e.req.access == AccessKind::Load => {
                        self.stats.demand_latency_sum += service;
                        self.stats.demand_latency_count += 1;
                    }
                    RequestKind::Prefetch => {
                        self.stats.prefetch_latency_sum += service;
                        self.stats.prefetch_latency_count += 1;
                    }
                    RequestKind::Demand => {}
                }
                match e.req.kind {
                    RequestKind::Demand => {
                        if e.req.access == AccessKind::Store && !e.req.was_prefetch {
                            self.stats.writebacks_serviced += 1;
                        }
                        self.stats.demands_serviced += 1;
                        if row_hit {
                            self.stats.demand_row_hits += 1;
                        }
                    }
                    RequestKind::Prefetch => {
                        self.stats.prefetches_serviced += 1;
                        if row_hit {
                            self.stats.prefetch_row_hits += 1;
                        }
                    }
                }
                self.inflight.push(InFlight {
                    req: e.req,
                    target: e.target,
                    completes_at,
                    row_hit,
                });
            }
            // The bank's row state changed under its own owner's command,
            // which cannot cost the owner its place (the keep-owner lemma,
            // DESIGN.md §13).
            StepOutcome::Activated => self.buffer.note_owner_command(channel, bank, slot, true),
            StepOutcome::Precharged => self.buffer.note_owner_command(channel, bank, slot, false),
            StepOutcome::Blocked => unreachable!("the ready lane said it could issue"),
        }
    }

    /// True if any queued or in-flight request wants row `row` of
    /// `(channel, bank)` — the closed-row policy's "is this open row still
    /// useful" test, shared by the scheduler and [`MemoryController::next_event`].
    fn row_wanted(&self, channel: usize, bank: usize, row: u64) -> bool {
        self.buffer.wants_row(channel, bank, row)
            || self.inflight.iter().any(|f| {
                f.target.channel == channel && f.target.bank == bank && f.target.row == row
            })
    }

    /// Closed-row (§6.8) and HAPPY row policies: precharge a bank whose open
    /// row has no queued or in-flight request left — under HAPPY (`happy`)
    /// only when the per-row predictor also votes to close it
    /// ([`Channel::happy_votes_close`]), so rows it deems reusable stay open
    /// as under the open-row policy. Each policy precharge is a
    /// bank-state-changing command the bank's owner did not issue, so it
    /// dirties the bank's owner (DESIGN.md §13, "what still dirties").
    fn apply_row_policy_precharges(&mut self, now: Cycle, happy: bool) {
        for ch_idx in 0..self.channels.len() {
            if !self.channels[ch_idx].command_bus_free(now) {
                continue;
            }
            for bank in 0..self.channels[ch_idx].bank_count() {
                let Some(open) = self.channels[ch_idx].effective_row(bank, now) else {
                    continue;
                };
                if happy && !self.channels[ch_idx].happy_votes_close(bank, now) {
                    continue;
                }
                if !self.row_wanted(ch_idx, bank, open)
                    && self.channels[ch_idx].precharge_bank(bank, now)
                {
                    // The precharged bank's row state changed.
                    self.buffer.note_bank_command(ch_idx, bank);
                    // One command per DRAM cycle: stop after a precharge.
                    break;
                }
            }
        }
    }

    /// True when pulling a refresh into `(channel, bank)` cannot delay work
    /// the scheduler still wants from the bank: the bank has no queued
    /// requests at all, or a write-drain phase is active and the bank has
    /// no queued writebacks (its reads are not being serviced anyway, so
    /// the refresh hides behind the drain — DARP's drain pairing).
    fn refresh_pull_eligible(&self, channel: usize, bank: usize) -> bool {
        self.buffer.bank_is_empty(channel, bank)
            || (self.draining_writes && !self.buffer.bank_has_writeback(channel, bank))
    }

    /// DARP out-of-order refresh pulls (DESIGN.md §15): on each channel
    /// with a free command bus, issue at most one pending per-bank refresh
    /// into a pull-eligible bank ([`MemoryController::refresh_pull_eligible`]),
    /// paying the bank's current refresh window early so its deadline-forced
    /// refresh never lands on top of demand work. Runs after the scheduler
    /// and the row policy, so a pull never displaces a real command. Each
    /// pull changes the bank's row state (the REF implicitly precharges),
    /// so the bank's cached owner is invalidated exactly like a policy
    /// precharge (the dirty-owner rule, DESIGN.md §13).
    fn apply_darp_refresh_pulls(&mut self, now: Cycle) {
        for ch_idx in 0..self.channels.len() {
            if !self.channels[ch_idx].command_bus_free(now) {
                continue;
            }
            for bank in 0..self.channels[ch_idx].bank_count() {
                if !self.channels[ch_idx].refresh_pending(bank, now)
                    || !self.refresh_pull_eligible(ch_idx, bank)
                {
                    continue;
                }
                if self.channels[ch_idx].pull_refresh(bank, now) {
                    self.buffer.note_bank_command(ch_idx, bank);
                    // One command per DRAM cycle: stop after a pull.
                    break;
                }
            }
        }
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
