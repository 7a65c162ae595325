use padc_types::LineAddr;

use crate::CacheConfig;

/// Per-line metadata. `prefetched` is the paper's `P` bit; `filled_row_hit`
/// remembers whether the fill was serviced as a DRAM row hit so the RBHU
/// metric (§6.1.1) can attribute row-buffer locality to *useful* prefetches
/// when the line is eventually used.
#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    filled_row_hit: bool,
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
    filled_row_hit: false,
    lru: 0,
};

/// Details of a cache hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HitInfo {
    /// True when this is the first demand touch of a prefetched line: the
    /// `P` bit was set and has just been reset. The caller must credit the
    /// prefetcher (increment `PUC`).
    pub first_demand_use_of_prefetch: bool,
    /// Whether the fill that brought this line in was a DRAM row hit. Only
    /// meaningful when `first_demand_use_of_prefetch` is true.
    pub fill_was_row_hit: bool,
}

/// Result of a demand probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeOutcome {
    /// The line is present; LRU updated, `P` bit (if set) consumed.
    Hit(HitInfo),
    /// The line is absent; nothing changed.
    Miss,
}

/// A line evicted by a fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// The evicted line address.
    pub line: LineAddr,
    /// True if the line was dirty and must be written back.
    pub dirty: bool,
    /// True if the line was prefetched and never used by a demand — a
    /// useless prefetch that polluted the cache.
    pub unused_prefetch: bool,
}

/// A set-associative, true-LRU, write-back cache with per-line prefetch
/// bits.
///
/// The model is a tag store only — data values are not simulated, since all
/// results in the paper depend only on hit/miss behaviour and traffic.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every line in one allocation, set-major: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    set_mask: u64,
    set_shift: u32,
    stamp: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is invalid (see
    /// [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            lines: vec![INVALID; sets * cfg.ways],
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            cfg,
            stamp: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The ways of `line`'s set, and the tag `line` has there.
    fn set_of(&self, line: LineAddr) -> (std::ops::Range<usize>, u64) {
        let set = (line.raw() & self.set_mask) as usize;
        let ways = self.cfg.ways;
        (set * ways..(set + 1) * ways, line.raw() >> self.set_shift)
    }

    /// Mutable access to `line`'s entry, if resident.
    fn find_mut(&mut self, line: LineAddr) -> Option<&mut Line> {
        let (set, tag) = self.set_of(line);
        self.lines[set].iter_mut().find(|l| l.valid && l.tag == tag)
    }

    /// Demand access (load or store). A hit updates LRU, consumes the `P`
    /// bit and sets the dirty bit on writes. A miss changes nothing, so a
    /// caller that must still abandon the access (a structural retry leaves
    /// no trace) can probe first and decide afterwards.
    #[inline]
    pub fn probe(&mut self, line: LineAddr, write: bool) -> ProbeOutcome {
        let stamp = self.stamp + 1;
        let Some(l) = self.find_mut(line) else {
            return ProbeOutcome::Miss;
        };
        l.lru = stamp;
        let info = HitInfo {
            first_demand_use_of_prefetch: l.prefetched,
            fill_was_row_hit: l.filled_row_hit,
        };
        l.prefetched = false;
        l.dirty |= write;
        self.stamp = stamp;
        ProbeOutcome::Hit(info)
    }

    /// Checks for presence without updating any state (no LRU movement, no
    /// `P`-bit consumption).
    pub fn peek(&self, line: LineAddr) -> bool {
        let (set, tag) = self.set_of(line);
        self.lines[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Inserts `line`, evicting the LRU victim if the set is full.
    ///
    /// `prefetched` sets the `P` bit; `dirty` marks the line modified on
    /// arrival (write-allocate fills); `row_hit` records how DRAM serviced
    /// the fill. Filling a line that is already present refreshes its
    /// metadata instead of duplicating it.
    pub fn fill(
        &mut self,
        line: LineAddr,
        prefetched: bool,
        dirty: bool,
        row_hit: bool,
    ) -> Option<Eviction> {
        self.stamp += 1;
        let stamp = self.stamp;
        // Refresh in place if already present (e.g. a prefetch landing after
        // a demand fill of the same line).
        if let Some(l) = self.find_mut(line) {
            l.lru = stamp;
            l.dirty |= dirty;
            // A prefetch fill of a line that demand already owns must not
            // re-mark it prefetched; a demand fill of a prefetched line
            // consumes the P bit.
            l.prefetched &= prefetched;
            return None;
        }
        let (set, tag) = self.set_of(line);
        let victim = self.lines[set]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("sets are non-empty");
        let evicted = victim
            .valid
            .then_some((victim.tag, victim.dirty, victim.prefetched));
        *victim = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            filled_row_hit: row_hit,
            lru: stamp,
        };
        evicted.map(|(victim_tag, dirty, unused_prefetch)| Eviction {
            line: LineAddr::new((victim_tag << self.set_shift) | (line.raw() & self.set_mask)),
            dirty,
            unused_prefetch,
        })
    }

    /// Marks `line` dirty if present (L1 writeback landing in L2). Returns
    /// true on success.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        self.find_mut(line).map(|l| l.dirty = true).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheConfig {
            size_bytes: 4 * 2 * 64,
            ways: 2,
            hit_latency: 1,
        })
    }

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(l(1), false), ProbeOutcome::Miss);
        assert_eq!(c.fill(l(1), false, false, false), None);
        assert!(matches!(c.probe(l(1), false), ProbeOutcome::Hit(_)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0, 4, 8, ... (4 sets).
        c.fill(l(0), false, false, false);
        c.fill(l(4), false, false, false);
        c.probe(l(0), false); // 0 is now MRU
        let ev = c.fill(l(8), false, false, false).expect("eviction");
        assert_eq!(ev.line, l(4));
        assert!(c.peek(l(0)));
        assert!(!c.peek(l(4)));
        assert!(c.peek(l(8)));
    }

    #[test]
    fn prefetch_bit_consumed_on_first_demand_hit() {
        let mut c = tiny();
        c.fill(l(3), true, false, true);
        match c.probe(l(3), false) {
            ProbeOutcome::Hit(info) => {
                assert!(info.first_demand_use_of_prefetch);
                assert!(info.fill_was_row_hit);
            }
            ProbeOutcome::Miss => panic!("expected hit"),
        }
        // Second hit no longer reports first use.
        match c.probe(l(3), false) {
            ProbeOutcome::Hit(info) => assert!(!info.first_demand_use_of_prefetch),
            ProbeOutcome::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn eviction_reports_unused_prefetch() {
        let mut c = tiny();
        c.fill(l(0), true, false, false);
        c.fill(l(4), false, false, false);
        let ev = c.fill(l(8), false, false, false).expect("eviction");
        assert_eq!(ev.line, l(0));
        assert!(ev.unused_prefetch);
        assert!(!ev.dirty);
    }

    #[test]
    fn used_prefetch_not_reported_unused_on_eviction() {
        let mut c = tiny();
        c.fill(l(0), true, false, false);
        c.probe(l(0), false); // use it
        c.fill(l(4), false, false, false);
        c.probe(l(4), false); // make 0 the LRU victim
        let ev = c.fill(l(8), false, false, false).expect("eviction");
        assert_eq!(ev.line, l(0));
        assert!(!ev.unused_prefetch);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.fill(l(0), false, false, false);
        c.probe(l(0), true);
        c.fill(l(4), false, false, false);
        c.probe(l(4), false);
        let ev = c.fill(l(8), false, false, false).expect("eviction");
        assert_eq!(ev.line, l(0));
        assert!(ev.dirty);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = tiny();
        c.fill(l(0), false, false, false);
        c.fill(l(4), false, false, false);
        assert_eq!(c.fill(l(0), false, false, false), None);
        assert!(c.peek(l(0)));
        assert!(c.peek(l(4)));
    }

    #[test]
    fn demand_refill_clears_p_bit_but_prefetch_refill_preserves_demand_status() {
        let mut c = tiny();
        c.fill(l(0), true, false, false); // prefetched
        c.fill(l(0), false, false, false); // demand refill clears P
        c.fill(l(4), false, false, false); // demand line
        c.fill(l(4), true, false, false); // late prefetch fill must not set P
        for n in [0, 4] {
            match c.probe(l(n), false) {
                ProbeOutcome::Hit(info) => assert!(!info.first_demand_use_of_prefetch, "line {n}"),
                ProbeOutcome::Miss => panic!("line {n} is resident"),
            }
        }
    }

    #[test]
    fn mark_dirty_only_touches_resident_lines() {
        let mut c = tiny();
        c.fill(l(0), false, false, false);
        assert!(c.mark_dirty(l(0)));
        assert!(!c.mark_dirty(l(9)));
        c.fill(l(4), false, false, false);
        let ev = c.fill(l(8), false, false, false).expect("eviction");
        assert_eq!(ev.line, l(0));
        assert!(ev.dirty);
    }

    /// A retried access must be observed exactly once: a probe that misses
    /// leaves the cache as it found it, and a hit after it evicts what it
    /// would have evicted without the miss.
    #[test]
    fn a_probe_miss_changes_nothing() {
        let state = |c: &Cache| format!("{c:?}");
        let mut c = tiny();
        c.fill(l(0), true, false, true);
        c.fill(l(4), false, false, false);
        let before = state(&c);
        assert_eq!(c.probe(l(8), true), ProbeOutcome::Miss);
        assert_eq!(state(&c), before, "a miss leaves no trace");

        match c.probe(l(0), true) {
            ProbeOutcome::Hit(hit) => {
                assert!(hit.first_demand_use_of_prefetch && hit.fill_was_row_hit)
            }
            ProbeOutcome::Miss => panic!("line 0 is resident"),
        }
        // Line 4 is now the LRU victim.
        let ev = c.fill(l(8), false, false, false).expect("eviction");
        assert_eq!(ev.line, l(4));
        assert!(c.peek(l(0)) && !c.peek(l(4)));
    }

    /// Sets are `ways` apart in the flat store, also when that is not a
    /// power of two.
    #[test]
    fn three_way_sets_do_not_overlap() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 3 * 64,
            ways: 3,
            hit_latency: 1,
        });
        // Fill every set (lines n, n+4, n+8 share set n): nothing evicts.
        for n in 0..12 {
            assert_eq!(c.fill(l(n), false, false, false), None, "line {n}");
        }
        assert!((0..12).all(|n| c.peek(l(n))));
        // A fourth line in set 1 evicts that set's LRU line and no other.
        let ev = c.fill(l(13), false, false, false).expect("set 1 is full");
        assert_eq!(ev.line, l(1));
        assert!((0..12).filter(|&n| n != 1).all(|n| c.peek(l(n))));
    }
}
