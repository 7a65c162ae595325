//! Data-oriented memory request buffer: a slab of entries with free-list
//! reuse plus incrementally maintained scheduling state.
//!
//! The legacy controller kept a flat `Vec<Entry>` and rescanned all of it
//! every time it needed anything: the per-bank highest-priority entry (the
//! bank *owner*), the earliest APD drop deadline, the buffered writeback
//! count, the PAR-BS batch population, and the per-core critical-request
//! counts for ranking. [`RequestBuffer`] maintains each of those
//! incrementally, so scheduling is O(ready entries) instead of O(buffer
//! size) per DRAM cycle:
//!
//! - a **slab** (`slots`) addressed by stable [`Slot`] indices with a LIFO
//!   free list — an entry never moves while queued, so member rows and
//!   heaps can hold raw slot indices. Slot order carries no meaning: where
//!   order is observable (APD drops, promotion, batch formation) the
//!   controller goes by request id, i.e. arrival;
//! - per-(channel, bank) dense **member rows**: per queued entry of the
//!   bank, its slot, row, rank-table index and the *static* bits of its
//!   [`PackedKey`] (`class_match`, `batched`, `tier`, `urgent`, `fcfs`),
//!   stamped with the key generation they were computed under. Row-hit is
//!   the only key field that reads DRAM state and rank the only one that
//!   moves with other entries' arrivals, so a rescan ORs those two in —
//!   one `effective_row` per bank, one rank field per core — and is an
//!   integer max over contiguous rows. A line's queued prefetches are
//!   found among its bank's rows ([`RequestBuffer::oldest_prefetch`]);
//! - a **rank table**: each core's position in the order of the per-core
//!   critical-request counts, recomputed only after a count or the
//!   accuracy epoch moved. A key compares ranks only with each other, so a
//!   count change that keeps the order re-keys nothing;
//! - a per-bank **owner** (highest-key member) that is *maintained*: an
//!   insert into a clean bank is folded against it with one compare, the
//!   owner's own ACT/PRE keep it (only its row-hit bit can change), and a
//!   rescan happens only when the bank is marked dirty — the owner left,
//!   the rank order moved, or a key input other than those changed;
//! - a **ready lane**: per (channel, bank), the owner's key and slot with
//!   the *bank-local* half of its DRAM readiness — its next command's
//!   class and the cycle the bank accepts it ([`Channel::bank_ready`]),
//!   which only a command to that bank or a change of its owner can move —
//!   behind a **stale set** marked where the bank is dirtied, where an
//!   insert is left pending and where the owner's own ACT/PRE lands. A
//!   scheduling pass re-derives the stale banks and folds the dense lane
//!   against the channel's floors ([`Channel::floors`]), instead of asking
//!   every bank for its owner and the channel for every owner's readiness;
//! - per-core **min-heaps of APD drop arrivals** behind a cached earliest
//!   deadline, so the per-cycle "is a drop due" test is a field read;
//! - running **writeback / batched / per-core criticality counts** for the
//!   write-drain watermark, batch-reform trigger, and ranking, and a
//!   per-bank writeback count for DARP's drain pairing.
//!
//! Cache state (owners, dirty flags, pending inserts, the rows' key bits,
//! the rank table, the ready lane and the stale set, heaps, the cached
//! deadline, epoch snapshots, stats) is
//! excluded from the `Debug` representation: equality of `Debug` strings is how the `next_event`
//! soundness oracle detects observable mutation, and cache fills during
//! proven-idle windows are not observable.
//!
//! # Worked example
//!
//! ```
//! use padc_core::scheduler::buffer::{Entry, RequestBuffer};
//! use padc_dram::{AddressMapper, DramConfig, MappingScheme};
//! use padc_types::{AccessKind, CoreId, LineAddr, MemRequest, RequestId, RequestKind};
//!
//! let dram = DramConfig::default();
//! let mapper = AddressMapper::new(&dram, MappingScheme::Linear);
//! // 16-entry buffer over the default geometry, 2 cores, no ranking/APD.
//! let mut buf = RequestBuffer::new(16, dram.channels, dram.banks, 2, false, false);
//!
//! // Insert a demand and a prefetch; slots are stable identities.
//! let d = MemRequest::new(RequestId::new(0), CoreId::new(0), LineAddr::new(0),
//!                         AccessKind::Load, RequestKind::Demand, 0);
//! let p = MemRequest::new(RequestId::new(1), CoreId::new(1), LineAddr::new(64),
//!                         AccessKind::Load, RequestKind::Prefetch, 0);
//! let pt = mapper.map(p.line);
//! let s0 = buf.insert(Entry::new(d.clone(), mapper.map(d.line)));
//! let s1 = buf.insert(Entry::new(p, pt));
//! assert_eq!(buf.len(), 2);
//! assert_eq!(buf.demands_of_core(0), 1);
//! assert_eq!(buf.prefetches_of_core(1), 1);
//!
//! // Promotion flips the per-core kind counts and re-keys only s1's row.
//! buf.promote(s1);
//! assert_eq!(buf.demands_of_core(1), 1);
//!
//! // Removal frees the slot for reuse (LIFO).
//! let gone = buf.remove(s0);
//! assert_eq!(gone.req.id, RequestId::new(0));
//! assert_eq!(buf.len(), 1);
//! let s2 = buf.insert(Entry::new(d, mapper.map(LineAddr::new(0))));
//! assert_eq!(s2, s0, "freed slots are reused LIFO");
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;

use padc_dram::{BankReady, Channel, RowBufferOutcome, Target};
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, MemRequest};

use crate::accuracy::AccuracyTracker;
use crate::config::DropThresholds;

use super::arbiter::{KeyCtx, PackedKey, PrioKey};

/// Stable slab index of a queued entry. Valid from [`RequestBuffer::insert`]
/// until the matching [`RequestBuffer::remove`]; never reused in between.
pub type Slot = u32;

/// True for buffered writebacks (store requests that never carried a
/// prefetch bit). Writebacks are demands in this model, but the write-drain
/// watermark and the stats need to tell them apart from demand loads.
pub fn is_writeback(req: &MemRequest) -> bool {
    req.access == AccessKind::Store && !req.was_prefetch
}

/// One queued request with its DRAM coordinates.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The queued request (kind may change via promotion).
    pub req: MemRequest,
    /// Mapped DRAM coordinates of `req.line`.
    pub target: Target,
    /// Row-buffer classification at the time of the request's first DRAM
    /// command (`None` until scheduled at least once).
    pub first_service: Option<RowBufferOutcome>,
    /// Member of the current PAR-BS batch (always false without batching).
    pub batched: bool,
}

impl Entry {
    /// A freshly arrived entry: not yet serviced, not yet batched.
    pub fn new(req: MemRequest, target: Target) -> Self {
        Entry {
            req,
            target,
            first_service: None,
            batched: false,
        }
    }

    /// True for buffered writebacks (see [`is_writeback`]).
    pub fn is_writeback(&self) -> bool {
        is_writeback(&self.req)
    }

    /// True while APD may drop the entry: a prefetch not yet serviced.
    fn droppable(&self) -> bool {
        self.req.kind.is_prefetch() && self.first_service.is_none()
    }
}

/// True while the APD heap item `(_, slot, id)` names a droppable entry.
fn heap_item_valid(slots: &[Option<Entry>], slot: Slot, id: u64) -> bool {
    let e = slots.get(slot as usize).and_then(Option::as_ref);
    e.is_some_and(|e| e.req.id.raw() == id && e.droppable())
}

/// Telemetry for the incremental owner cache. Deliberately *not* part of
/// [`ControllerStats`](crate::ControllerStats): these counters depend on how
/// often the controller is stepped (fast-forward modes legitimately differ),
/// so serializing them would break cross-mode byte-identity of reports. They
/// surface through the opt-in simulation profile instead.
#[derive(Clone, Copy, Default)]
pub struct BufferStats {
    /// Bank-owner rescans performed (each walks one bank's member rows).
    pub owner_recomputes: u64,
    /// Bank-owner cache invalidations (clean-to-dirty transitions). Every
    /// recompute consumes one invalidation, so
    /// `owner_recomputes <= owner_invalidations` always holds.
    pub owner_invalidations: u64,
    /// Scheduling queries answered without a rescan: from the maintained
    /// owner, after folding any pending inserts against it.
    pub owner_reuses: u64,
    /// Member rows examined across all owner rescans (scan volume).
    pub owner_scan_entries: u64,
    /// Ready-lane entries re-derived (one per stale bank per scheduling
    /// pass). A pass over a channel whose banks are all clean adds none.
    pub lane_refreshes: u64,
}

/// One member row of a bank: what an owner rescan reads, so it never
/// touches `slots`. `slot` and `row` are set at insert; the key bits are
/// filled from [`KeyCtx::key`] the first time a scan or fold meets the row
/// with `stamp != key_gen`.
#[derive(Clone, Copy, Default)]
struct Member {
    /// [`PackedKey::static_bits`] of the entry's key.
    static_bits: u64,
    /// `entry.target.row`.
    row: u64,
    /// Key generation `static_bits` / `rank_idx` were computed under; 0
    /// (never a live generation) marks the row stale.
    stamp: u64,
    /// The entry's slab slot.
    slot: Slot,
    /// Index into `rank_fields`: the entry's core if a rank position
    /// applies to it, else the table's last ("unranked") element.
    rank_idx: u16,
}

impl Member {
    /// Stamps the row with the static half of `key`, a fresh
    /// [`KeyCtx::key`] of its entry `e`. `unranked` is the rank table's
    /// last index.
    fn fill(&mut self, e: &Entry, key: PrioKey, unranked: usize, key_gen: u64) {
        self.static_bits = PackedKey::pack(&key).static_bits();
        // A `u64::MAX` rank is no core's position: the key took it from the
        // non-critical or unknown-core arm.
        let ranked = key.rank.0 != u64::MAX;
        self.rank_idx = if ranked {
            e.req.core.index().min(unranked)
        } else {
            unranked
        } as u16;
        self.stamp = key_gen;
    }

    /// The full key of the (stamped) row, given its bank's open-or-opening
    /// row and the per-core rank fields.
    fn key(&self, open_row: Option<u64>, rank_fields: &[u64]) -> PackedKey {
        PackedKey::assemble(
            self.static_bits,
            open_row == Some(self.row),
            rank_fields[self.rank_idx as usize],
        )
    }
}

/// Per-(channel, bank) member rows plus the maintained owner.
#[derive(Clone, Default)]
struct BankSet {
    /// One row per queued entry of the bank, in no meaningful order: a
    /// removal moves the last row into the gap.
    members: Vec<Member>,
    /// Members that are writebacks (the DARP pass's drain-pairing test).
    writebacks: u32,
    /// While `dirty` is false: the highest-key member outside `pending`,
    /// with its current key. Pure cache.
    owner: Option<(PackedKey, Slot)>,
    /// Members inserted since `owner` was last brought up to date; folded
    /// against it at the next [`RequestBuffer::owner`] call. Empty while
    /// `dirty` (the rescan sees every member).
    pending: Vec<Slot>,
    dirty: bool,
}

impl BankSet {
    /// The members' slots in ascending order: the canonical form `Debug`
    /// and the audit read, independent of the rows' order.
    fn sorted_slots(&self) -> Vec<Slot> {
        let mut slots: Vec<Slot> = self.members.iter().map(|m| m.slot).collect();
        slots.sort_unstable();
        slots
    }
}

/// One ready-lane entry: a non-empty bank's owner with the bank-local half
/// of its readiness ([`Channel::bank_ready`]), so a scheduling pass folds
/// `ready` against the channel's floors instead of asking the buffer for the
/// owner and the channel for its bank state (DESIGN.md §13, B5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct ReadyOwner {
    /// The owner's current key.
    pub(super) key: PackedKey,
    /// The owner's slot.
    pub(super) slot: Slot,
    /// Its next command's class and the cycle its bank accepts it.
    pub(super) ready: BankReady,
}

/// A core's min-heap of APD drop candidates, `(arrival, slot, request
/// id)` min-ordered via `Reverse`.
type DeadlineHeap = BinaryHeap<Reverse<(Cycle, Slot, u64)>>;

/// The data-oriented request buffer. See the module docs for the layout and
/// the maintained invariants (DESIGN.md §13, B1–B5).
#[derive(Clone)]
pub struct RequestBuffer {
    cap: usize,
    /// Slab: `slots[s]` is the entry at slot `s`, `None` while free.
    slots: Vec<Option<Entry>>,
    /// LIFO free list of slab slots.
    free: Vec<Slot>,
    /// Banks per channel; bank sets are indexed `channel * stride + bank`.
    stride: usize,
    banks: Vec<BankSet>,
    /// Per slab slot: the index of its row in its bank's `members`
    /// (meaningless while the slot is free).
    member_at: Vec<u32>,
    /// Buffered writeback count (write-drain watermark input).
    writebacks: usize,
    /// Entries in the current PAR-BS batch.
    batched: usize,
    /// Per-core queued demand / prefetch counts (ranking input). Entries
    /// whose core index exceeds the configured core count are not counted.
    demands: Vec<u64>,
    prefetches: Vec<u64>,
    /// Key-input flags frozen at construction from the controller config.
    ranking: bool,
    apd: bool,
    /// APD drop candidates, one heap per core (drop thresholds are
    /// per-core, so the earliest deadline per core is its earliest
    /// *arrival*). Items go stale when the slot is freed, reused, promoted
    /// or serviced; stale heads are popped lazily at the next peek. Pure
    /// cache.
    apd_heaps: Vec<DeadlineHeap>,
    /// Cached [`RequestBuffer::earliest_drop_deadline`]; `None` = stale.
    /// While it is `Some`, every heap head is valid.
    drop_deadline: Option<Option<Cycle>>,
    /// Generation of the per-entry static key inputs that are not per
    /// entry: the write-drain mode and (adaptive policies) the accuracy
    /// epoch. Bumping it stales every member row at once.
    key_gen: u64,
    /// Under ranking, each core's rank position ([`KeyCtx::ranks`]); all
    /// `u64::MAX`, no position, until the first sync fills `rank_fields`.
    ranks: Vec<u64>,
    /// A critical count or the accuracy epoch moved since the last sync.
    ranks_stale: bool,
    /// Sync scratch (the distinct critical counts), kept so as not to
    /// allocate.
    distinct_counts: Vec<u64>,
    /// Packed rank field per core plus the trailing unranked element
    /// ([`KeyCtx::fill_rank_fields`]); refilled when a position moves,
    /// constant without ranking.
    rank_fields: Vec<u64>,
    /// Accuracy epoch (tracker `next_rollover`) the owner caches were
    /// computed under; a change invalidates every adaptive-policy key.
    rollover_seen: Cycle,
    /// Per-channel refresh count the owner caches were computed under; a
    /// refresh resets every bank's row state, re-keying `row_hit`.
    refreshes_seen: Vec<u64>,
    /// The ready lane, indexed like `banks`: each non-empty bank's owner
    /// with the bank-local half of its readiness. An entry whose bank is in
    /// `stale` is out of date; every other one equals a fresh
    /// [`RequestBuffer::owner`] and [`Channel::bank_ready`] (B5).
    ready: Vec<Option<ReadyOwner>>,
    /// Banks whose `ready` entry must be re-derived: bit `bank % 64` of word
    /// `channel * stale_words + bank / 64`. A superset of the dirty banks
    /// and of those with pending inserts.
    stale: Vec<u64>,
    /// Words of `stale` per channel.
    stale_words: usize,
    /// `Some` entries of `ready` per channel: what a pass counts as owner
    /// queries answered, without walking the lane to count them.
    ready_owners: Vec<u64>,
    stats: BufferStats,
}

impl RequestBuffer {
    /// An empty buffer for `cap` entries over `channels * banks_per_channel`
    /// banks. `ranking` keeps the per-core rank table, whose every change
    /// of order re-keys all banks; `apd` enables the drop-deadline heaps.
    ///
    /// # Panics
    ///
    /// Panics if `cap` or `cores` does not fit the [`PackedKey`] rank field
    /// (a rank is a core's position in the order of the per-core counts of
    /// queued critical requests, so it is below `cores` and at most `cap`).
    pub fn new(
        cap: usize,
        channels: usize,
        banks_per_channel: usize,
        cores: usize,
        ranking: bool,
        apd: bool,
    ) -> Self {
        let cores = cores.max(1);
        assert!(
            (cap as u64) < PackedKey::RANK_LIMIT && (cores as u64) < PackedKey::RANK_LIMIT,
            "{cap} entries / {cores} cores exceed the 16-bit rank field"
        );
        RequestBuffer {
            cap,
            slots: Vec::new(),
            free: Vec::new(),
            stride: banks_per_channel,
            banks: vec![BankSet::default(); channels * banks_per_channel],
            member_at: Vec::new(),
            writebacks: 0,
            batched: 0,
            demands: vec![0; cores],
            prefetches: vec![0; cores],
            ranking,
            apd,
            apd_heaps: vec![BinaryHeap::new(); cores],
            drop_deadline: None,
            key_gen: 1,
            ranks: vec![u64::MAX; cores],
            ranks_stale: true,
            distinct_counts: Vec::with_capacity(cores),
            rank_fields: vec![PackedKey::rank_field(0); cores + 1],
            rollover_seen: 0,
            refreshes_seen: vec![0; channels],
            ready: vec![None; channels * banks_per_channel],
            stale: vec![0; channels * banks_per_channel.div_ceil(64)],
            stale_words: banks_per_channel.div_ceil(64),
            ready_owners: vec![0; channels],
            stats: BufferStats::default(),
        }
    }

    /// Queued entry count.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Buffered writeback count (write-drain watermark input).
    pub fn writeback_len(&self) -> usize {
        self.writebacks
    }

    /// Entries in the current PAR-BS batch.
    pub fn batched_len(&self) -> usize {
        self.batched
    }

    /// Queued demand count for `core` (0 for out-of-range cores).
    pub fn demands_of_core(&self, core: usize) -> u64 {
        self.demands.get(core).copied().unwrap_or(0)
    }

    /// Queued prefetch count for `core` (0 for out-of-range cores).
    pub fn prefetches_of_core(&self, core: usize) -> u64 {
        self.prefetches.get(core).copied().unwrap_or(0)
    }

    /// Owner-cache telemetry.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// The entry at `slot`. Panics if the slot is free.
    pub fn entry(&self, slot: Slot) -> &Entry {
        self.slots[slot as usize].as_ref().expect("free slot")
    }

    /// Queued entries with their slots, in slot order — an order that
    /// carries no meaning, so a caller whose result depends on order sorts
    /// by request id.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Entry)> {
        (0..)
            .zip(&self.slots)
            .filter_map(|(s, e)| Some((s, e.as_ref()?)))
    }

    /// The oldest (lowest request id) queued prefetch of `line`, which maps
    /// to `(channel, bank)`: a scan of that bank's members only, since no
    /// entry for the line can be queued anywhere else.
    pub fn oldest_prefetch(&self, channel: usize, bank: usize, line: LineAddr) -> Option<Slot> {
        let members = self.banks[channel * self.stride + bank].members.iter();
        let queued = members.map(|m| (self.entry(m.slot), m.slot));
        let prefetches = queued.filter(|(e, _)| e.req.line == line && e.req.kind.is_prefetch());
        let oldest = prefetches.min_by_key(|(e, _)| e.req.id);
        oldest.map(|(_, slot)| slot)
    }

    fn bank_index(&self, target: &Target) -> usize {
        target.channel * self.stride + target.bank
    }

    /// The member row of the queued entry at `slot`.
    fn member_mut(&mut self, slot: Slot) -> &mut Member {
        let bank_idx = self.bank_index(&self.entry(slot).target);
        &mut self.banks[bank_idx].members[self.member_at[slot as usize] as usize]
    }

    /// Marks one bank's ready-lane entry stale: the next pass over its
    /// channel re-derives it.
    fn mark_stale(&mut self, channel: usize, bank: usize) {
        self.stale[channel * self.stale_words + bank / 64] |= 1 << (bank % 64);
    }

    /// True while `(channel, bank)`'s ready-lane entry awaits re-derivation.
    pub(super) fn lane_stale(&self, channel: usize, bank: usize) -> bool {
        self.stale[channel * self.stale_words + bank / 64] >> (bank % 64) & 1 == 1
    }

    /// Marks one bank's owner dirty: its next query rescans the members.
    fn mark_bank_dirty(&mut self, channel: usize, bank: usize) {
        self.mark_stale(channel, bank);
        let b = &mut self.banks[channel * self.stride + bank];
        if !b.dirty {
            b.dirty = true;
            b.pending.clear();
            self.stats.owner_invalidations += 1;
        }
    }

    /// Marks every bank's owner dirty (a rank position moved; or, via
    /// [`RequestBuffer::bump_key_generation`], a static key input did).
    fn mark_all_dirty(&mut self) {
        for i in 0..self.banks.len() {
            self.mark_bank_dirty(i / self.stride, i % self.stride);
        }
    }

    /// Under ranking, once a critical count or the accuracy epoch moved:
    /// recomputes each core's position (the distinct counts below its own)
    /// and only if one moved refills `rank_fields` and dirties every bank,
    /// as keys compare ranks only with each other.
    fn sync_ranks(&mut self, ctx: &KeyCtx<'_>) {
        if !(self.ranking && std::mem::take(&mut self.ranks_stale)) {
            return;
        }
        // Every demand is critical, and a core's prefetches are iff its
        // accuracy clears the promotion threshold (§6.5).
        let critical = |core: usize| {
            let (d, p) = (self.demands[core], self.prefetches[core]);
            let accurate = || ctx.accuracy.accuracy(CoreId::new(core)) >= ctx.promotion_threshold;
            d + if p > 0 && accurate() { p } else { 0 }
        };
        let distinct = &mut self.distinct_counts;
        distinct.clear();
        distinct.extend((0..self.ranks.len()).map(critical));
        distinct.sort_unstable();
        distinct.dedup();
        let mut moved = false;
        for (core, rank) in self.ranks.iter_mut().enumerate() {
            let position = distinct.binary_search(&critical(core)).expect("listed") as u64;
            moved |= std::mem::replace(rank, position) != position;
        }
        if moved {
            let ctx = KeyCtx {
                ranks: Some(&self.ranks),
                ..*ctx
            };
            ctx.fill_rank_fields(&mut self.rank_fields);
            self.mark_all_dirty();
        }
    }

    /// A static key input shared by every entry changed — the write-drain
    /// mode flipped, or the accuracy epoch rolled over under an adaptive
    /// policy: stales every member row and dirties every bank.
    pub fn bump_key_generation(&mut self) {
        self.key_gen += 1;
        self.mark_all_dirty();
    }

    /// Marks one bank dirty after a DRAM state change the bank's owner did
    /// not cause: a closed-row / HAPPY policy precharge or a DARP refresh
    /// pull re-keys the bank's `row_hit` bits.
    pub fn note_bank_command(&mut self, channel: usize, bank: usize) {
        self.mark_bank_dirty(channel, bank);
    }

    /// The ACT (`activated`) or PRE the controller just issued for `slot`,
    /// the owner [`RequestBuffer::owner`] returned this pass: the owner is
    /// kept, and an ACT sets its `row_hit` bit. Within the owner's
    /// `(class_match, batched, tier)` class — lower classes lose whatever
    /// their row-hit bits do — the ACT (bank closed, so no member was a
    /// hit) raises only the owner's own bit and those of entries it
    /// already beat on `(urgent, rank, fcfs)`; before a PRE the owner was
    /// a row conflict, so no same-class entry was a hit or it would have
    /// been the owner, and closing the row changes no same-class key. The
    /// bank's state did change, so its ready-lane entry goes stale.
    pub fn note_owner_command(&mut self, channel: usize, bank: usize, slot: Slot, activated: bool) {
        let b = &mut self.banks[channel * self.stride + bank];
        debug_assert!(!b.dirty && b.pending.is_empty(), "bank not up to date");
        let (key, owner) = b.owner.as_mut().expect("commanded bank has an owner");
        debug_assert_eq!(*owner, slot, "command issued for a non-owner");
        debug_assert!(!key.row_hit(), "ACT/PRE issued for a row hit");
        if activated {
            *key = key.with_row_hit();
        }
        self.mark_stale(channel, bank);
    }

    /// Reconciles the owner caches with the accuracy epoch: if the tracker
    /// rolled over since the last key computation, adaptive-policy keys
    /// (criticality, urgency, ranking) may all have changed. `adaptive`
    /// is false for policies whose keys never read accuracy.
    pub fn sync_rollover(&mut self, tracker: &AccuracyTracker, adaptive: bool) {
        let epoch = tracker.next_rollover();
        if self.rollover_seen != epoch {
            self.rollover_seen = epoch;
            // Drop thresholds read accuracy under every policy, and so does
            // which prefetches count towards a core's rank.
            self.drop_deadline = None;
            self.ranks_stale = true;
            if adaptive {
                self.bump_key_generation();
            }
        }
    }

    /// Reconciles one channel's owner caches with its refresh count: a
    /// refresh resets every bank's row state, re-keying `row_hit` for all
    /// of the channel's banks.
    pub fn sync_refresh(&mut self, channel: usize, refreshes: u64) {
        if self.refreshes_seen[channel] != refreshes {
            self.refreshes_seen[channel] = refreshes;
            for bank in 0..self.stride {
                self.mark_bank_dirty(channel, bank);
            }
        }
    }

    /// Inserts an entry, returning its slot. Panics when full (the
    /// controller checks `has_space` first).
    pub fn insert(&mut self, e: Entry) -> Slot {
        assert!(self.len() < self.cap, "request buffer overflow");
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.member_at.push(0);
                (self.slots.len() - 1) as Slot
            }
        };
        self.writebacks += usize::from(e.is_writeback());
        self.batched += usize::from(e.batched);
        let core = e.req.core.index();
        if e.req.kind.is_prefetch() {
            if let Some(c) = self.prefetches.get_mut(core) {
                *c += 1;
            }
            if self.apd {
                if let Some(h) = self.apd_heaps.get_mut(core) {
                    h.push(Reverse((e.req.arrival, slot, e.req.id.raw())));
                    self.drop_deadline = None;
                }
            }
        } else if let Some(c) = self.demands.get_mut(core) {
            *c += 1;
        }
        self.ranks_stale = true;
        let (channel, bank) = (e.target.channel, e.target.bank);
        let b = &mut self.banks[channel * self.stride + bank];
        self.member_at[slot as usize] = b.members.len() as u32;
        b.members.push(Member {
            row: e.target.row,
            slot,
            ..Member::default()
        });
        b.writebacks += u32::from(e.is_writeback());
        self.slots[slot as usize] = Some(e);
        // The new entry can only displace the owner, which one compare at
        // the next query settles — under ranking too, unless the rank order
        // moved by then, which dirties every bank (`sync_ranks`).
        if !b.dirty {
            b.pending.push(slot);
            self.mark_stale(channel, bank);
        }
        slot
    }

    /// Removes and returns the entry at `slot`, freeing the slot.
    pub fn remove(&mut self, slot: Slot) -> Entry {
        let e = self.slots[slot as usize].take().expect("free slot");
        self.free.push(slot);
        self.writebacks -= usize::from(e.is_writeback());
        self.batched -= usize::from(e.batched);
        let core = e.req.core.index();
        if e.req.kind.is_prefetch() {
            if let Some(c) = self.prefetches.get_mut(core) {
                *c -= 1;
            }
            self.note_drop_candidate_gone(core, slot, e.req.id.raw());
        } else if let Some(c) = self.demands.get_mut(core) {
            *c -= 1;
        }
        self.ranks_stale = true;
        let bank_idx = self.bank_index(&e.target);
        let b = &mut self.banks[bank_idx];
        let at = self.member_at[slot as usize] as usize;
        b.members.swap_remove(at);
        if let Some(moved) = b.members.get(at) {
            self.member_at[moved.slot as usize] = at as u32;
        }
        b.writebacks -= u32::from(e.is_writeback());
        if b.owner.is_some_and(|(_, s)| s == slot) {
            // Only losing the owner forces a rescan.
            self.mark_bank_dirty(e.target.channel, e.target.bank);
        } else if let Some(i) = b.pending.iter().position(|&p| p == slot) {
            b.pending.swap_remove(i);
        }
        e
    }

    /// Promotes the prefetch at `slot` to a demand (resets its `P` bit).
    /// The caller guarantees the entry is a prefetch.
    pub fn promote(&mut self, slot: Slot) {
        let e = self.slots[slot as usize].as_mut().expect("free slot");
        debug_assert!(e.req.kind.is_prefetch());
        e.req.promote_to_demand();
        let (core, id) = (e.req.core.index(), e.req.id.raw());
        let (channel, bank) = (e.target.channel, e.target.bank);
        if let Some(c) = self.prefetches.get_mut(core) {
            *c -= 1;
        }
        if let Some(c) = self.demands.get_mut(core) {
            *c += 1;
        }
        self.ranks_stale = true;
        // The promoted entry's own key changes (tier / urgency), so its
        // member row goes stale; its APD heap item is popped lazily.
        self.member_mut(slot).stamp = 0;
        self.note_drop_candidate_gone(core, slot, id);
        self.mark_bank_dirty(channel, bank);
    }

    /// Records the row-buffer classification of the entry's first DRAM
    /// command. Not a key input, so no owner invalidation; the entry's APD
    /// heap item (if any) goes permanently stale and is popped lazily.
    pub fn set_first_service(&mut self, slot: Slot, class: RowBufferOutcome) {
        let e = self.slots[slot as usize].as_mut().expect("free slot");
        debug_assert!(e.first_service.is_none());
        e.first_service = Some(class);
        if e.req.kind.is_prefetch() {
            let (core, id) = (e.req.core.index(), e.req.id.raw());
            self.note_drop_candidate_gone(core, slot, id);
        }
    }

    /// A droppable prefetch stopped being one (removed, promoted, or first
    /// serviced). Only a heap head carries its core's earliest deadline, so
    /// only a head's departure can move the cached one.
    fn note_drop_candidate_gone(&mut self, core: usize, slot: Slot, id: u64) {
        let heads = |h: &DeadlineHeap| {
            h.peek()
                .is_some_and(|&Reverse((_, s, i))| s == slot && i == id)
        };
        if self.drop_deadline.is_some() && self.apd_heaps.get(core).is_some_and(heads) {
            self.drop_deadline = None;
        }
    }

    /// Adds the entry at `slot` to the current PAR-BS batch.
    pub fn set_batched(&mut self, slot: Slot) {
        let e = self.slots[slot as usize].as_mut().expect("free slot");
        debug_assert!(!e.batched);
        e.batched = true;
        let (channel, bank) = (e.target.channel, e.target.bank);
        self.batched += 1;
        // `batched` outranks everything below `class_match`, so the bank's
        // owner may change; rank counts (criticality) are unaffected.
        self.member_mut(slot).stamp = 0;
        self.mark_bank_dirty(channel, bank);
    }

    /// Earliest APD drop deadline (`arrival + threshold + 1`) over all
    /// queued, unserviced prefetches, or `None` if there are none. Cached:
    /// only a prefetch insert, the departure of a heap head
    /// (removal / first service / promotion) or an accuracy rollover
    /// ([`RequestBuffer::sync_rollover`], which callers run first) can move
    /// it. A refill is O(cores) amortized: each core's heap head is its
    /// earliest droppable arrival, and per-core thresholds make that head
    /// the core's earliest deadline. Stale heads (freed, reused, promoted,
    /// or serviced slots) are popped there.
    pub fn earliest_drop_deadline(
        &mut self,
        thresholds: &DropThresholds,
        tracker: &AccuracyTracker,
    ) -> Option<Cycle> {
        debug_assert!(self.apd);
        if let Some(cached) = self.drop_deadline {
            return cached;
        }
        let mut best: Option<Cycle> = None;
        for (core, heap) in self.apd_heaps.iter_mut().enumerate() {
            let head = loop {
                let Some(&Reverse((arrival, slot, id))) = heap.peek() else {
                    break None;
                };
                if heap_item_valid(&self.slots, slot, id) {
                    break Some(arrival);
                }
                heap.pop();
            };
            if let Some(arrival) = head {
                let limit = thresholds.threshold_for(tracker.accuracy(CoreId::new(core)));
                let deadline = arrival.saturating_add(limit).saturating_add(1);
                best = Some(best.map_or(deadline, |b: Cycle| b.min(deadline)));
            }
        }
        self.drop_deadline = Some(best);
        best
    }

    /// The bank's owner: its highest-key member under `ctx` (the key a
    /// fresh [`KeyCtx::key`] would give it, packed, with the buffer's rank
    /// positions in place of whatever `ctx` carries), or `None` for an
    /// empty bank. A clean bank answers from the maintained owner after
    /// folding its pending inserts; a dirty one rescans its member rows.
    pub fn owner(
        &mut self,
        channel: usize,
        bank: usize,
        ctx: &KeyCtx<'_>,
        ch: &Channel,
        now: Cycle,
    ) -> Option<(PackedKey, Slot)> {
        self.sync_ranks(ctx);
        self.fold_or_rescan(channel, bank, ctx, ch, now)
    }

    /// [`RequestBuffer::owner`] once the rank table is in sync, so a pass
    /// over many banks syncs it once.
    fn fold_or_rescan(
        &mut self,
        channel: usize,
        bank: usize,
        ctx: &KeyCtx<'_>,
        ch: &Channel,
        now: Cycle,
    ) -> Option<(PackedKey, Slot)> {
        let bank_idx = channel * self.stride + bank;
        let RequestBuffer {
            banks,
            member_at,
            slots,
            ranking,
            ranks,
            rank_fields,
            stats,
            key_gen,
            ..
        } = self;
        let b = &mut banks[bank_idx];
        if b.members.is_empty() {
            b.owner = None;
            b.dirty = false;
            return None;
        }
        if !b.dirty {
            stats.owner_reuses += 1;
            if b.pending.is_empty() {
                return b.owner;
            }
        }
        let ctx = KeyCtx {
            ranks: ranking.then_some(&ranks[..]),
            ..*ctx
        };
        let open_row = ch.effective_row(bank, now);
        let unranked = rank_fields.len() - 1;
        let mut best = b.owner.filter(|_| !b.dirty);
        let mut consider = |m: &mut Member| {
            if m.stamp != *key_gen {
                let e = slots[m.slot as usize]
                    .as_ref()
                    .expect("member of freed slot");
                m.fill(e, ctx.key(e, ch, now), unranked, *key_gen);
            }
            let key = m.key(open_row, rank_fields);
            if best.is_none_or(|(bk, _)| key > bk) {
                best = Some((key, m.slot));
            }
        };
        if b.dirty {
            stats.owner_recomputes += 1;
            stats.owner_scan_entries += b.members.len() as u64;
            b.members.iter_mut().for_each(&mut consider);
            b.dirty = false;
        } else {
            for slot in b.pending.drain(..) {
                consider(&mut b.members[member_at[slot as usize] as usize]);
            }
        }
        b.owner = best;
        best
    }

    /// The ready lane of `channel`, brought up to date: per bank, its owner
    /// with the bank-local half of the owner's readiness, `None` for an
    /// empty bank. Only the banks marked stale since the channel's last pass
    /// (a moved rank order marks every bank) are re-derived, through the
    /// same fold-or-rescan as [`RequestBuffer::owner`]; every other
    /// non-empty bank's entry stands for one owner query answered without a
    /// rescan, and is counted as one.
    pub(super) fn ready_lane(
        &mut self,
        channel: usize,
        ctx: &KeyCtx<'_>,
        ch: &Channel,
        now: Cycle,
    ) -> &[Option<ReadyOwner>] {
        self.sync_ranks(ctx);
        let (first_bank, first_word) = (channel * self.stride, channel * self.stale_words);
        let mut rederived = 0;
        for wi in 0..self.stale_words {
            let mut word = std::mem::take(&mut self.stale[first_word + wi]);
            while word != 0 {
                let bank = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let owner = self.fold_or_rescan(channel, bank, ctx, ch, now);
                let members = &self.banks[first_bank + bank].members;
                let entry = &mut self.ready[first_bank + bank];
                self.ready_owners[channel] -= u64::from(entry.is_some());
                *entry = owner.map(|(key, slot)| ReadyOwner {
                    key,
                    slot,
                    ready: ch.bank_ready(bank, members[self.member_at[slot as usize] as usize].row),
                });
                self.stats.lane_refreshes += 1;
                rederived += u64::from(owner.is_some());
            }
        }
        self.ready_owners[channel] += rederived;
        self.stats.owner_reuses += self.ready_owners[channel] - rederived;
        &self.ready[first_bank..first_bank + self.stride]
    }

    /// True if any queued entry wants row `row` of `(channel, bank)` — the
    /// closed-row policy's "is this open row still useful" test, shared by
    /// the scheduler and `next_event`.
    pub fn wants_row(&self, channel: usize, bank: usize, row: u64) -> bool {
        let members = &self.banks[channel * self.stride + bank].members;
        members.iter().any(|m| m.row == row)
    }

    /// True when no queued entry targets `(channel, bank)` — the DARP
    /// refresh-pull pass's idle-bank test (DESIGN.md §15). Pure read of the
    /// member rows, so `next_event` may consult it freely.
    pub fn bank_is_empty(&self, channel: usize, bank: usize) -> bool {
        self.banks[channel * self.stride + bank].members.is_empty()
    }

    /// True if any queued writeback targets `(channel, bank)`. During
    /// write-drain phases a pending refresh can hide behind the drain on
    /// any bank the drain itself does not need (DESIGN.md §15).
    pub fn bank_has_writeback(&self, channel: usize, bank: usize) -> bool {
        self.banks[channel * self.stride + bank].writebacks > 0
    }

    /// Consistency audit for the incremental state, used by the
    /// `buffer_consistency` proptest: recomputes every derived structure
    /// from the slab and panics on divergence (DESIGN.md §13, B1–B5).
    /// `ctx`, ranked by a recount of the slab, is the specification the
    /// rank table, the member rows and every non-dirty bank's owner are
    /// checked against, `channels` the one every non-stale bank's
    /// ready-lane entry is; the rank table is synced and pending inserts
    /// are folded first, dirty banks are left dirty and stale ones stale.
    #[doc(hidden)]
    pub fn audit(
        &mut self,
        ctx: &KeyCtx<'_>,
        thresholds: &DropThresholds,
        channels: &[Channel],
        now: Cycle,
    ) {
        self.sync_ranks(ctx);
        // Free-list consistency.
        assert_eq!(
            self.iter().count() + self.free.len(),
            self.slots.len(),
            "queued + free must partition the slab"
        );
        for &slot in &self.free {
            assert!(self.slots[slot as usize].is_none(), "free slot occupied");
        }
        // Running counts.
        let live = || self.iter().map(|(_, e)| e);
        assert_eq!(
            self.writebacks,
            live().filter(|e| e.is_writeback()).count(),
            "writeback count drifted"
        );
        assert_eq!(
            self.batched,
            live().filter(|e| e.batched).count(),
            "batched count drifted"
        );
        for core in 0..self.demands.len() {
            let of_core = live().filter(|e| e.req.core.index() == core);
            let (p, d): (Vec<_>, Vec<_>) = of_core.partition(|e| e.req.kind.is_prefetch());
            let counts = (self.demands[core], self.prefetches[core]);
            let recount = (d.len() as u64, p.len() as u64);
            assert_eq!(
                counts, recount,
                "demand/prefetch counts drifted for core {core}"
            );
        }
        // The rank table, once synced: each core's position is the number of
        // distinct values below its own among a recount of the per-core
        // critical requests. The specification keys rank by the recount.
        let spec_ranks: Option<Vec<u64>> = self.ranking.then(|| {
            let critical = |core| live().filter(move |e| e.req.core.index() == core);
            let counts = (0..self.ranks.len())
                .map(|core| critical(core).filter(|e| ctx.is_critical(&e.req)).count());
            let distinct: BTreeSet<usize> = counts.clone().collect();
            counts.map(|c| distinct.range(..c).count() as u64).collect()
        });
        if let Some(spec) = &spec_ranks {
            assert_eq!(&self.ranks, spec, "rank positions drifted");
        }
        let spec = KeyCtx {
            ranks: spec_ranks.as_deref(),
            ..*ctx
        };
        // B4: every live entry's member row holds its slot and row, and one
        // stamped at the current generation reassembles to the entry's
        // fresh key.
        for (slot, e) in self.iter() {
            let bank = &self.banks[self.bank_index(&e.target)];
            let m = &bank.members[self.member_at[slot as usize] as usize];
            assert_eq!((m.slot, m.row), (slot, e.target.row), "row of slot {slot}");
            if m.stamp == self.key_gen {
                let ch = &channels[e.target.channel];
                let open_row = ch.effective_row(e.target.bank, now);
                assert_eq!(
                    m.key(open_row, &self.rank_fields),
                    PackedKey::pack(&spec.key(e, ch, now)),
                    "member key of slot {slot} is stale under its current stamp"
                );
            }
        }
        // Member rows and owners.
        #[allow(clippy::needless_range_loop)] // `ci` indexes two parallel arrays
        for ci in 0..self.refreshes_seen.len() {
            for bank in 0..self.stride {
                let bank_idx = ci * self.stride + bank;
                let members = self.banks[bank_idx].sorted_slots();
                let pending = &self.banks[bank_idx].pending;
                assert!(
                    pending.iter().all(|p| members.contains(p)),
                    "pending insert {pending:?} is not a member of bank ({ci}, {bank})"
                );
                let expect: Vec<Slot> = self
                    .iter()
                    .filter(|(_, e)| e.target.channel == ci && e.target.bank == bank)
                    .map(|(s, _)| s)
                    .collect();
                assert_eq!(members, expect, "rows drifted for bank ({ci}, {bank})");
                let wb = expect.iter().filter(|&&s| self.entry(s).is_writeback());
                let wb_count = self.banks[bank_idx].writebacks as usize;
                assert_eq!(wb_count, wb.count(), "writebacks drifted at ({ci}, {bank})");
                // B5: a bank is stale while it is dirty or pends an insert,
                // and a bank that is not holds exactly its fresh owner with
                // that owner's fresh bank-local readiness (`None` iff empty).
                let stale = self.lane_stale(ci, bank);
                if self.banks[bank_idx].dirty {
                    assert!(pending.is_empty(), "dirty bank ({ci}, {bank}) pends");
                    assert!(stale, "dirty bank ({ci}, {bank}) is not stale");
                } else {
                    assert!(
                        stale || pending.is_empty(),
                        "bank ({ci}, {bank}) pends {pending:?} but is not stale"
                    );
                    let ch = &channels[ci];
                    let fresh = expect
                        .iter()
                        .map(|&s| (spec.key(self.entry(s), ch, now), s))
                        .max_by_key(|&(k, _)| k)
                        .map(|(k, s)| (PackedKey::pack(&k), s));
                    assert_eq!(
                        self.owner(ci, bank, ctx, ch, now),
                        fresh,
                        "maintained owner diverged for bank ({ci}, {bank})"
                    );
                    if !stale {
                        let fresh = fresh.map(|(key, slot)| ReadyOwner {
                            key,
                            slot,
                            ready: ch.bank_ready(bank, self.entry(slot).target.row),
                        });
                        assert_eq!(
                            self.ready[bank_idx], fresh,
                            "ready-lane entry of bank ({ci}, {bank}) is out of date, not stale"
                        );
                    }
                }
            }
            let lane = &self.ready[ci * self.stride..(ci + 1) * self.stride];
            assert_eq!(
                self.ready_owners[ci],
                lane.iter().flatten().count() as u64,
                "ready-lane owner count drifted for channel {ci}"
            );
        }
        // APD heaps: every droppable entry must be covered by a valid heap
        // item, and each heap's valid minimum must be the core's true
        // earliest droppable arrival.
        if self.apd {
            for (core, heap) in self.apd_heaps.iter().enumerate() {
                let valid = heap
                    .iter()
                    .filter(|&&Reverse((_, s, id))| heap_item_valid(&self.slots, s, id));
                let valid_min = valid.map(|&Reverse((arrival, _, _))| arrival).min();
                let of_core = self.iter().map(|(_, e)| e);
                let of_core = of_core.filter(|e| e.req.core.index() == core && e.droppable());
                let true_min = of_core.map(|e| e.req.arrival).min();
                assert_eq!(
                    valid_min, true_min,
                    "APD heap minimum drifted for core {core}"
                );
            }
            if let Some(cached) = self.drop_deadline.take() {
                assert_eq!(
                    cached,
                    self.earliest_drop_deadline(thresholds, ctx.accuracy),
                    "cached drop deadline drifted"
                );
            }
        }
        let stats = self.stats;
        assert!(
            stats.owner_recomputes <= stats.owner_invalidations,
            "owner recomputes ({}) exceeded invalidations ({})",
            stats.owner_recomputes,
            stats.owner_invalidations
        );
    }
}

/// Manual `Debug`: prints only *observable* state (the slab, free list,
/// running counts, bank membership as sorted slots). The owner caches,
/// dirty flags, the rows' key bits and order, the rank table, the ready
/// lane, the stale set, APD heaps, epoch snapshots, and stats counters are
/// pure caches that may legally mutate during proven-idle windows, and the
/// `next_event` soundness oracle detects mutation by comparing `Debug`
/// strings.
impl fmt::Debug for RequestBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let members: Vec<_> = self.banks.iter().map(BankSet::sorted_slots).collect();
        f.debug_struct("RequestBuffer")
            .field("cap", &self.cap)
            .field("slots", &self.slots)
            .field("free", &self.free)
            .field("writebacks", &self.writebacks)
            .field("batched", &self.batched)
            .field("demands", &self.demands)
            .field("prefetches", &self.prefetches)
            .field("bank_members", &members)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, SchedulingPolicy};
    use padc_dram::{DramConfig, StepOutcome};
    use padc_types::{CoreId, LineAddr, RequestId, RequestKind, CPU_CYCLES_PER_DRAM_CYCLE};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const POLICIES: [SchedulingPolicy; 6] = [
        SchedulingPolicy::DemandPrefetchEqual,
        SchedulingPolicy::DemandFirst,
        SchedulingPolicy::PrefetchFirst,
        SchedulingPolicy::ApsOnly,
        SchedulingPolicy::Padc,
        SchedulingPolicy::PadcRank,
    ];

    /// Three cores: core 0's prefetches are accurate (critical), core 1's
    /// useless (its demands are urgent), core 2 sends none.
    fn tracker() -> AccuracyTracker {
        let mut t = AccuracyTracker::new(3, 100);
        for _ in 0..10 {
            t.on_prefetch_sent(CoreId::new(0));
            t.on_prefetch_used(CoreId::new(0));
            t.on_prefetch_sent(CoreId::new(1));
        }
        t.tick(100);
        t
    }

    /// An entry for `(bank 0, row)` of the single channel.
    fn entry(id: u64, core: usize, row: u64, kind: RequestKind, access: AccessKind) -> Entry {
        let req = MemRequest::new(
            RequestId::new(id),
            CoreId::new(core),
            LineAddr::new(id),
            access,
            kind,
            0,
        );
        let target = Target {
            channel: 0,
            bank: 0,
            row,
            column: 0,
        };
        Entry::new(req, target)
    }

    /// One bank under `policy` with write drain and urgency on, driven by
    /// hand: the harness plays the controller's arbitration for bank 0.
    struct Rig {
        buf: RequestBuffer,
        ch: Channel,
        cfg: ControllerConfig,
        tracker: AccuracyTracker,
        draining: bool,
        now: Cycle,
    }

    impl Rig {
        fn new(policy: SchedulingPolicy) -> Self {
            let mut cfg = ControllerConfig::from_policy(policy, 3);
            cfg.write_drain = true;
            cfg.urgency = true;
            let dram = DramConfig::default();
            Rig {
                buf: RequestBuffer::new(32, 1, dram.banks, 3, cfg.ranking, cfg.apd),
                ch: Channel::new(&dram),
                cfg,
                tracker: tracker(),
                draining: false,
                now: 1000,
            }
        }

        /// Runs `f` with the buffer, the channel and this pass's `KeyCtx`
        /// (ranked by the buffer's own table).
        fn with_ctx<R>(
            &mut self,
            f: impl FnOnce(&mut RequestBuffer, &mut Channel, &KeyCtx<'_>, Cycle) -> R,
        ) -> R {
            let ctx = KeyCtx {
                policy: self.cfg.policy,
                write_drain: true,
                draining_writes: self.draining,
                urgency: true,
                promotion_threshold: self.cfg.promotion_threshold,
                accuracy: &self.tracker,
                ranks: None,
            };
            f(&mut self.buf, &mut self.ch, &ctx, self.now)
        }

        fn owner(&mut self) -> Option<(PackedKey, Slot)> {
            self.with_ctx(|buf, ch, ctx, now| buf.owner(0, 0, ctx, ch, now))
        }

        fn audit(&mut self) {
            let thresholds = self.cfg.drop_thresholds;
            self.with_ctx(|buf, ch, ctx, now| {
                buf.audit(ctx, &thresholds, std::slice::from_ref(ch), now)
            });
        }

        /// Issues the owner's next command as arbitration would,
        /// waiting out DRAM timing first.
        fn command_owner(&mut self) -> (Slot, StepOutcome) {
            let (_, slot) = self.owner().expect("bank 0 has an owner");
            let e = self.buf.entry(slot);
            let (row, write) = (e.target.row, e.req.access == AccessKind::Store);
            while !self.ch.can_advance(0, row, self.now) {
                self.now += CPU_CYCLES_PER_DRAM_CYCLE;
            }
            let (_, again) = self.owner().expect("still owned");
            assert_eq!(again, slot, "ownership moved while waiting on DRAM timing");
            (slot, self.ch.advance(0, row, write, self.now))
        }
    }

    /// The keep-owner lemma, on random banks under every policy with
    /// batching marks, write drain (flipping mid-run) and urgency in play:
    /// after the owner's own ACT or PRE the owner is kept without a rescan
    /// — and the audit's fresh argmax (B2) and lane check (B4) agree.
    #[test]
    fn the_owners_own_act_and_pre_keep_it_the_owner() {
        for policy in POLICIES {
            let (mut kept_act, mut kept_pre) = (0, 0);
            for seed in 0..40 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut rig = Rig::new(policy);
                for id in 0..rng.gen_range(2..14u64) {
                    let writeback = rng.gen_bool(0.25);
                    let (kind, access) = if writeback {
                        (RequestKind::Demand, AccessKind::Store)
                    } else if rng.gen_bool(0.5) {
                        (RequestKind::Prefetch, AccessKind::Load)
                    } else {
                        (RequestKind::Demand, AccessKind::Load)
                    };
                    let e = entry(id, rng.gen_range(0..2), rng.gen_range(0..3), kind, access);
                    let slot = rig.buf.insert(e);
                    if rng.gen_bool(0.4) {
                        rig.buf.set_batched(slot);
                    }
                }
                while !rig.buf.is_empty() {
                    if rng.gen_bool(0.15) {
                        rig.draining = !rig.draining;
                        rig.buf.bump_key_generation();
                    }
                    let (slot, outcome) = rig.command_owner();
                    let activated = match outcome {
                        StepOutcome::CasIssued { .. } => {
                            rig.buf.remove(slot);
                            rig.audit();
                            continue;
                        }
                        StepOutcome::Activated => true,
                        StepOutcome::Precharged => false,
                        StepOutcome::Blocked => unreachable!("can_advance was checked"),
                    };
                    rig.buf.note_owner_command(0, 0, slot, activated);
                    rig.audit();
                    let rescans = rig.buf.stats().owner_recomputes;
                    let (key, owner) = rig.owner().expect("kept");
                    assert_eq!(owner, slot, "{policy:?} seed {seed}");
                    assert_eq!(key.row_hit(), activated, "{policy:?} seed {seed}");
                    assert_eq!(rig.buf.stats().owner_recomputes, rescans, "rescanned");
                    if activated {
                        kept_act += 1;
                    } else {
                        kept_pre += 1;
                    }
                }
            }
            assert!(
                kept_act > 40 && kept_pre > 40,
                "{policy:?}: {kept_act} ACT, {kept_pre} PRE"
            );
        }
    }

    /// An insert into a clean bank costs one compare at the next query,
    /// not a rescan — whether or not it displaces the owner — and one that
    /// leaves before the query is forgotten.
    #[test]
    fn an_insert_into_a_clean_bank_is_folded_not_rescanned() {
        let mut rig = Rig::new(SchedulingPolicy::DemandFirst);
        let load = |id, kind| entry(id, 0, 7, kind, AccessKind::Load);
        let first = rig.buf.insert(load(0, RequestKind::Prefetch));
        assert_eq!(rig.owner().map(|(_, s)| s), Some(first));
        let rescans = rig.buf.stats().owner_recomputes;

        let older_class = rig.buf.insert(load(1, RequestKind::Prefetch));
        assert_eq!(
            rig.owner().map(|(_, s)| s),
            Some(first),
            "younger prefetch loses"
        );
        let demand = rig.buf.insert(load(2, RequestKind::Demand));
        let gone = rig.buf.insert(load(3, RequestKind::Demand));
        rig.buf.remove(gone);
        rig.audit();
        assert_eq!(
            rig.owner().map(|(_, s)| s),
            Some(demand),
            "demand displaces the owner"
        );
        assert_eq!(
            rig.buf.stats().owner_recomputes,
            rescans,
            "a fold rescanned"
        );

        // Losing the owner is what does force a rescan.
        rig.buf.remove(demand);
        assert_eq!(rig.owner().map(|(_, s)| s), Some(first));
        assert_eq!(rig.buf.stats().owner_recomputes, rescans + 1);
        assert_eq!(rig.buf.entry(older_class).req.id, RequestId::new(1));
    }

    /// A write-drain flip changes every entry's `class_match` bit, so the
    /// new key generation must reach member rows that were stamped under
    /// the old one.
    #[test]
    fn a_drain_flip_rekeys_slots_stamped_under_the_old_generation() {
        let mut rig = Rig::new(SchedulingPolicy::DemandFirst);
        let read = rig
            .buf
            .insert(entry(0, 0, 1, RequestKind::Demand, AccessKind::Load));
        let write = rig
            .buf
            .insert(entry(1, 0, 2, RequestKind::Demand, AccessKind::Store));
        assert_eq!(
            rig.owner().map(|(_, s)| s),
            Some(read),
            "reads match outside drain"
        );
        rig.draining = true;
        rig.buf.bump_key_generation();
        assert_eq!(
            rig.owner().map(|(_, s)| s),
            Some(write),
            "writebacks match inside it"
        );
        rig.audit();
    }

    /// Under ranking, keys read only the order of the cores' critical
    /// counts: a count change that keeps it re-keys and rescans nothing,
    /// and one that reorders two cores rescans each non-empty bank once.
    #[test]
    fn a_rank_count_change_that_keeps_the_order_rescans_nothing() {
        let mut rig = Rig::new(SchedulingPolicy::PadcRank);
        let mut ids = 0..;
        let mut demand = |rig: &mut Rig, core, bank| {
            let mut e = entry(
                ids.next().unwrap(),
                core,
                1,
                RequestKind::Demand,
                AccessKind::Load,
            );
            e.target.bank = bank;
            rig.buf.insert(e)
        };
        // Queries both banks' owners and audits; returns the rescan count.
        let settle = |rig: &mut Rig| {
            for bank in [0, 1] {
                rig.with_ctx(|buf, ch, ctx, now| buf.owner(0, bank, ctx, ch, now));
            }
            rig.audit();
            rig.buf.stats().owner_recomputes
        };
        // Critical counts 1 < 2 < 3 over cores 0, 1, 2, in banks 0 and 1;
        // core 1's urgent demand owns bank 1.
        for (core, bank) in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)] {
            demand(&mut rig, core, bank);
        }
        let core2 = demand(&mut rig, 2, 1);
        let rescans = settle(&mut rig);
        // 1 < 2 < 4, then 1 < 2 < 3 again: the order holds throughout.
        demand(&mut rig, 2, 1);
        assert_eq!(
            settle(&mut rig),
            rescans,
            "an order-keeping insert rescanned"
        );
        rig.buf.remove(core2);
        assert_eq!(
            settle(&mut rig),
            rescans,
            "an order-keeping removal rescanned"
        );
        // Core 0 overtakes core 1 (3 > 2): each non-empty bank rescans once.
        demand(&mut rig, 0, 0);
        demand(&mut rig, 0, 0);
        assert_eq!(
            settle(&mut rig),
            rescans + 2,
            "a reorder rescans each bank once"
        );
        assert_eq!(settle(&mut rig), rescans + 2);
    }
}
