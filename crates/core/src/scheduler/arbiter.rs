//! Priority arbitration: the lexicographic [`PrioKey`] and the [`KeyCtx`]
//! snapshot of everything a key computation reads.
//!
//! The controller's two-level FR-FCFS selection (pick each bank's
//! highest-priority entry, then the best ready bank) compares entries by
//! [`PrioKey`], built from the scheduling policy (Prefetch-Aware DRAM
//! Controllers, MICRO 2008: Rule 1 / Rule 2 with optional PAR-BS batching,
//! urgency, and shortest-job ranking on top). [`KeyCtx`] bundles the key
//! inputs that live outside the entry itself — policy flags, write-drain
//! state, the accuracy tracker, and the per-core rank positions — so the
//! buffer's owner cache can compute keys without borrowing the whole
//! controller, and so the invalidation rules can name exactly which input
//! changed (DESIGN.md §13).
//!
//! [`PrioKey`] with its derived `Ord` is the *specification*. The request
//! buffer compares [`PackedKey`]s instead — one `u64` per entry whose
//! integer order equals the tuple order — and calls [`KeyCtx::key`] only
//! to (re)fill a member row's static bits, in its audit, and in tests.
//!
//! # Worked example
//!
//! ```
//! use padc_core::scheduler::arbiter::KeyCtx;
//! use padc_core::scheduler::buffer::Entry;
//! use padc_core::{AccuracyTracker, SchedulingPolicy};
//! use padc_dram::{AddressMapper, Channel, DramConfig, MappingScheme};
//! use padc_types::{AccessKind, CoreId, LineAddr, MemRequest, RequestId, RequestKind};
//!
//! let dram = DramConfig::default();
//! let mapper = AddressMapper::new(&dram, MappingScheme::Linear);
//! let ch = Channel::new(&dram);
//! let tracker = AccuracyTracker::new(1, 100_000);
//! let ctx = KeyCtx {
//!     policy: SchedulingPolicy::DemandFirst,
//!     write_drain: false,
//!     draining_writes: false,
//!     urgency: false,
//!     promotion_threshold: 0.85,
//!     accuracy: &tracker,
//!     ranks: None,
//! };
//!
//! // An older prefetch and a younger demand to the same closed bank:
//! // demand-first ranks the demand's key strictly higher.
//! let mk = |id: u64, kind| {
//!     let req = MemRequest::new(RequestId::new(id), CoreId::new(0), LineAddr::new(id * 64),
//!                               AccessKind::Load, kind, 0);
//!     let target = mapper.map(req.line);
//!     Entry::new(req, target)
//! };
//! let prefetch = mk(0, RequestKind::Prefetch);
//! let demand = mk(1, RequestKind::Demand);
//! assert!(ctx.key(&demand, &ch, 0) > ctx.key(&prefetch, &ch, 0));
//! ```

use std::cmp::Reverse;

use padc_dram::{Channel, RowBufferOutcome};
use padc_types::{Cycle, MemRequest, RequestKind};

use crate::accuracy::AccuracyTracker;
use crate::config::SchedulingPolicy;

use super::buffer::{is_writeback, Entry};

/// Priority tuple compared lexicographically; larger wins. Field order
/// implements the paper's Rule 1 / Rule 2 (with optional PAR-BS batching
/// on top): batch > tier (critical / demand-first class) > row-hit >
/// urgent > rank > FCFS. Keys never tie: `fcfs` carries the unique request
/// id, so arbitration is independent of iteration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PrioKey {
    /// Write-drain service class (always true when write drain is off):
    /// reads match outside drain mode, writebacks match inside it.
    pub class_match: bool,
    /// Member of the current PAR-BS batch.
    pub batched: bool,
    /// Policy tier: criticality for the adaptive policies, the demand /
    /// prefetch class for the fixed-priority baselines, 0 when equal.
    pub tier: u8,
    /// Targets the bank's currently open row.
    pub row_hit: bool,
    /// Demand of a core whose prefetches are inaccurate (§6.4).
    pub urgent: bool,
    /// Shortest-job rank (§6.5): the core's position in the order of the
    /// per-core outstanding critical-request counts, 0 for the fewest and
    /// shared by equal counts; lower wins. Keys compare ranks only with
    /// each other, so a position orders them exactly as its count would.
    pub rank: Reverse<u64>,
    /// First-come-first-served tiebreak on the unique request id.
    pub fcfs: Reverse<u64>,
}

/// `mask` if `flag`, else 0.
const fn bit(flag: bool, mask: u64) -> u64 {
    if flag {
        mask
    } else {
        0
    }
}

/// Order-preserving packed form of a [`PrioKey`]: `a.cmp(&b)` on two keys
/// equals `PackedKey::pack(&a).cmp(&PackedKey::pack(&b))`, so the request
/// buffer's owner scan is an integer max. Most-significant bit first:
///
/// | bits   | field         | encoding                                   |
/// |--------|---------------|--------------------------------------------|
/// | 63     | `class_match` | as is                                      |
/// | 62     | `batched`     | as is                                      |
/// | 61..60 | `tier`        | as is, `tier < 4`                          |
/// | 59     | `row_hit`     | as is                                      |
/// | 58     | `urgent`      | as is                                      |
/// | 57..42 | `rank`        | `RANK_LIMIT - rank`; `u64::MAX` packs as 0 |
/// | 41..0  | `fcfs`        | `2^42 - 1 - id`                            |
///
/// The widths are bounds on the model, asserted where values enter: a
/// finite rank is a core's position among the per-core counts, so it is
/// below the core count, which [`RequestBuffer::new`](super::buffer::RequestBuffer::new)
/// requires to be below [`PackedKey::RANK_LIMIT`]; request ids count
/// enqueues, and [`PackedKey::pack`] rejects one at or above
/// `2^`[`PackedKey::ID_BITS`] (4.4e12 requests).
///
/// `row_hit` and `rank` are the two fields that are not fixed per entry
/// (`row_hit` reads DRAM state; rank positions move when other entries'
/// arrivals and departures reorder the per-core counts), so the buffer
/// stores a key's other bits (its *static bits*) and ORs those two in at
/// scan time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PackedKey(u64);

impl PackedKey {
    /// Width of the FCFS (request id) field.
    pub const ID_BITS: u32 = 42;
    /// Width of the rank field.
    pub const RANK_BITS: u32 = 16;
    /// Finite ranks lie in `0..RANK_LIMIT`; the only other rank is
    /// `u64::MAX` (non-critical under ranking), which sorts below them all.
    pub const RANK_LIMIT: u64 = (1 << Self::RANK_BITS) - 1;
    const URGENT: u64 = 1 << (Self::ID_BITS + Self::RANK_BITS);
    pub(super) const ROW_HIT: u64 = Self::URGENT << 1;
    const TIER_SHIFT: u32 = Self::ID_BITS + Self::RANK_BITS + 2;
    const BATCHED: u64 = 1 << 62;
    const CLASS_MATCH: u64 = 1 << 63;
    /// The bits the buffer applies at scan time rather than storing.
    const DYNAMIC: u64 = Self::ROW_HIT | Self::RANK_LIMIT << Self::ID_BITS;

    /// Packs `key`. Panics if a field exceeds its stated width.
    pub fn pack(key: &PrioKey) -> Self {
        let id = key.fcfs.0;
        assert!(id >> Self::ID_BITS == 0, "request id {id} exceeds 42 bits");
        assert!(key.tier < 4, "tier {} exceeds 2 bits", key.tier);
        PackedKey(
            bit(key.class_match, Self::CLASS_MATCH)
                | bit(key.batched, Self::BATCHED)
                | u64::from(key.tier) << Self::TIER_SHIFT
                | bit(key.row_hit, Self::ROW_HIT)
                | bit(key.urgent, Self::URGENT)
                | Self::rank_field(key.rank.0)
                | ((1 << Self::ID_BITS) - 1 - id),
        )
    }

    /// The rank field of a key with rank `rank`, in place.
    pub(super) fn rank_field(rank: u64) -> u64 {
        let inverted = if rank == u64::MAX {
            0
        } else {
            assert!(rank < Self::RANK_LIMIT, "rank {rank} exceeds 16 bits");
            Self::RANK_LIMIT - rank
        };
        inverted << Self::ID_BITS
    }

    /// The key's bits outside the `row_hit` and `rank` fields.
    pub(super) fn static_bits(self) -> u64 {
        self.0 & !Self::DYNAMIC
    }

    /// Reassembles a key from its static bits, row-hit bit and rank field.
    pub(super) fn assemble(static_bits: u64, row_hit: bool, rank_field: u64) -> Self {
        PackedKey(static_bits | bit(row_hit, Self::ROW_HIT) | rank_field)
    }

    /// This key with its `row_hit` bit set.
    pub(super) fn with_row_hit(self) -> Self {
        PackedKey(self.0 | Self::ROW_HIT)
    }

    /// The key's `row_hit` bit.
    pub fn row_hit(self) -> bool {
        self.0 & Self::ROW_HIT != 0
    }
}

/// Everything a [`PrioKey`] computation reads besides the entry and the
/// channel: policy selection, write-drain state, and accuracy inputs.
/// Borrowed immutably for the duration of one scheduling pass; the cached
/// owners remain valid only while every field here is unchanged (the
/// controller invalidates on each mutation — DESIGN.md §13, B4).
#[derive(Clone, Copy)]
pub struct KeyCtx<'a> {
    /// Scheduling policy selecting the key shape.
    pub policy: SchedulingPolicy,
    /// Write-drain feature flag (`ControllerConfig::write_drain`).
    pub write_drain: bool,
    /// Write-drain mode currently active.
    pub draining_writes: bool,
    /// Urgency feature flag (`ControllerConfig::urgency`).
    pub urgency: bool,
    /// Prefetch-accuracy threshold for criticality (`promotion_threshold`).
    pub promotion_threshold: f64,
    /// Per-core prefetch accuracy (constant between rollovers).
    pub accuracy: &'a AccuracyTracker,
    /// Per-core rank positions ([`PrioKey::rank`]) under ranking, else
    /// `None`. The request buffer keeps this table and computes every key
    /// under its own, whatever a context handed to it carries here, so the
    /// controller's contexts leave it `None`.
    pub ranks: Option<&'a [u64]>,
}

impl KeyCtx<'_> {
    /// Criticality (§6.2): demands always, prefetches iff their core's
    /// accuracy clears the promotion threshold.
    pub fn is_critical(&self, req: &MemRequest) -> bool {
        match req.kind {
            RequestKind::Demand => true,
            RequestKind::Prefetch => self.accuracy.accuracy(req.core) >= self.promotion_threshold,
        }
    }

    /// Urgency (§6.4): demands of cores with inaccurate prefetchers.
    pub fn is_urgent(&self, req: &MemRequest) -> bool {
        req.kind.is_demand() && self.accuracy.accuracy(req.core) < self.promotion_threshold
    }

    /// Writes the packed rank field of each core's position into
    /// `fields[core]`, and into the last element the field of an entry no
    /// position applies to (under ranking: non-critical, or a core beyond
    /// the configured count). This is [`KeyCtx::key`]'s `rank` arm as a
    /// table, so a scan applies rank from a table refilled only when a
    /// position moves instead of storing it per entry.
    pub(super) fn fill_rank_fields(&self, fields: &mut [u64]) {
        match self.ranks {
            Some(ranks) if self.policy.is_adaptive() => {
                let (unranked, per_core) = fields.split_last_mut().expect("cores + 1 fields");
                for (core, field) in per_core.iter_mut().enumerate() {
                    *field = PackedKey::rank_field(ranks.get(core).copied().unwrap_or(u64::MAX));
                }
                *unranked = PackedKey::rank_field(u64::MAX);
            }
            _ => fields.fill(PackedKey::rank_field(0)),
        }
    }

    /// The entry's full priority key under this context, with `row_hit`
    /// classified against the channel's current bank state.
    pub fn key(&self, e: &Entry, ch: &Channel, now: Cycle) -> PrioKey {
        let row_hit = ch.classify(e.target.bank, e.target.row, now) == RowBufferOutcome::Hit;
        let fcfs = Reverse(e.req.id.raw());
        // Write-drain service class: when enabled, reads match outside
        // drain mode and writebacks match inside it.
        let class_match = !self.write_drain || (is_writeback(&e.req) == self.draining_writes);
        match self.policy {
            SchedulingPolicy::DemandPrefetchEqual => PrioKey {
                class_match,
                batched: e.batched,
                tier: 0,
                row_hit,
                urgent: false,
                rank: Reverse(0),
                fcfs,
            },
            SchedulingPolicy::DemandFirst => PrioKey {
                class_match,
                batched: e.batched,
                tier: u8::from(e.req.kind.is_demand()),
                row_hit,
                urgent: false,
                rank: Reverse(0),
                fcfs,
            },
            SchedulingPolicy::PrefetchFirst => PrioKey {
                class_match,
                batched: e.batched,
                tier: u8::from(e.req.kind.is_prefetch()),
                row_hit,
                urgent: false,
                rank: Reverse(0),
                fcfs,
            },
            SchedulingPolicy::ApsOnly | SchedulingPolicy::Padc | SchedulingPolicy::PadcRank => {
                let critical = self.is_critical(&e.req);
                let rank = match self.ranks {
                    Some(ranks) if critical => {
                        Reverse(ranks.get(e.req.core.index()).copied().unwrap_or(u64::MAX))
                    }
                    // Non-critical requests take the worst rank (§6.5
                    // footnote 12).
                    Some(_) => Reverse(u64::MAX),
                    None => Reverse(0),
                };
                PrioKey {
                    class_match,
                    batched: e.batched,
                    tier: u8::from(critical),
                    row_hit,
                    urgent: self.urgency && self.is_urgent(&e.req),
                    rank,
                    fcfs,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keys over the whole stated domain: `tier < 4`, rank finite
    /// (`< RANK_LIMIT`, both ends drawn often) or `u64::MAX`, id below
    /// `2^ID_BITS` (both ends drawn often).
    fn arb_key() -> impl Strategy<Value = PrioKey> {
        let rank = (0u32..6, 0..PackedKey::RANK_LIMIT).prop_map(|(sel, r)| match sel {
            0 => 0,
            1 => u64::MAX,
            2 => PackedKey::RANK_LIMIT - 1,
            _ => r,
        });
        let id = (0u32..6, 0u64..1 << PackedKey::ID_BITS).prop_map(|(sel, id)| match sel {
            0 => 0,
            1 => (1 << PackedKey::ID_BITS) - 1,
            2 => id % 4,
            _ => id,
        });
        (
            any::<bool>(),
            any::<bool>(),
            0u32..4,
            any::<bool>(),
            any::<bool>(),
            rank,
            id,
        )
            .prop_map(
                |(class_match, batched, tier, row_hit, urgent, rank, id)| PrioKey {
                    class_match,
                    batched,
                    tier: tier as u8,
                    row_hit,
                    urgent,
                    rank: Reverse(rank),
                    fcfs: Reverse(id),
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The packed order is the derived tuple order, on independent
        /// keys and on keys that agree down to a chosen field (so every
        /// field gets to be the deciding one, `fcfs` included).
        #[test]
        fn packed_order_is_the_tuple_order(a in arb_key(), b in arb_key(), agree in 0usize..8) {
            let mut b = b;
            if agree > 0 { b.class_match = a.class_match; }
            if agree > 1 { b.batched = a.batched; }
            if agree > 2 { b.tier = a.tier; }
            if agree > 3 { b.row_hit = a.row_hit; }
            if agree > 4 { b.urgent = a.urgent; }
            if agree > 5 { b.rank = a.rank; }
            if agree > 6 { b.fcfs = a.fcfs; }
            prop_assert_eq!(PackedKey::pack(&a).cmp(&PackedKey::pack(&b)), a.cmp(&b));
        }

        /// Splitting a key into static bits, row-hit bit and rank field
        /// and reassembling it is the identity — the lane stores the
        /// first and applies the other two at scan time.
        #[test]
        fn a_key_reassembles_from_its_static_bits(k in arb_key()) {
            let packed = PackedKey::pack(&k);
            prop_assert_eq!(
                PackedKey::assemble(packed.static_bits(), k.row_hit, PackedKey::rank_field(k.rank.0)),
                packed
            );
            prop_assert_eq!(packed.row_hit(), k.row_hit);
            let hit = PrioKey { row_hit: true, ..k };
            prop_assert_eq!(packed.with_row_hit(), PackedKey::pack(&hit));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 42 bits")]
    fn an_id_beyond_the_fcfs_field_is_rejected() {
        let key = PrioKey {
            class_match: true,
            batched: false,
            tier: 0,
            row_hit: false,
            urgent: false,
            rank: Reverse(0),
            fcfs: Reverse(1 << PackedKey::ID_BITS),
        };
        PackedKey::pack(&key);
    }

    #[test]
    #[should_panic(expected = "exceeds 16 bits")]
    fn a_finite_rank_beyond_the_rank_field_is_rejected() {
        PackedKey::rank_field(PackedKey::RANK_LIMIT);
    }
}
