//! Model-based property test: the cache must behave exactly like a
//! reference per-set true-LRU model over arbitrary access/fill sequences.

use padc_cache::{Cache, CacheConfig, MshrFile, ProbeOutcome};
use padc_types::{LineAddr, RequestId};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference model: per-set LRU lists of (tag, prefetched, dirty).
struct RefCache {
    sets: Vec<VecDeque<(u64, bool, bool)>>,
    ways: usize,
    set_mask: u64,
    set_shift: u32,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets: vec![VecDeque::new(); sets],
            ways,
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    fn index(&self, line: LineAddr) -> (usize, u64) {
        (
            (line.raw() & self.set_mask) as usize,
            line.raw() >> self.set_shift,
        )
    }

    fn peek(&self, line: LineAddr) -> bool {
        let (s, tag) = self.index(line);
        self.sets[s].iter().any(|e| e.0 == tag)
    }

    fn probe(&mut self, line: LineAddr, write: bool) -> Option<bool> {
        let (s, tag) = self.index(line);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|e| e.0 == tag) {
            let mut e = set.remove(pos).expect("present");
            let was_prefetched = e.1;
            e.1 = false;
            e.2 |= write;
            set.push_back(e); // MRU at back
            Some(was_prefetched)
        } else {
            None
        }
    }

    fn fill(&mut self, line: LineAddr, prefetched: bool, dirty: bool) -> Option<(u64, bool, bool)> {
        let (s, tag) = self.index(line);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|e| e.0 == tag) {
            let mut e = set.remove(pos).expect("present");
            e.1 &= prefetched;
            e.2 |= dirty;
            set.push_back(e);
            return None;
        }
        let victim = if set.len() >= self.ways {
            set.pop_front()
        } else {
            None
        };
        set.push_back((tag, prefetched, dirty));
        victim
    }
}

#[derive(Clone, Debug)]
enum Op {
    Probe {
        line: u64,
        write: bool,
    },
    Fill {
        line: u64,
        prefetched: bool,
        dirty: bool,
    },
}

fn arb_op(lines: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..lines, any::<bool>()).prop_map(|(line, write)| Op::Probe { line, write }),
        (0..lines, any::<bool>(), any::<bool>()).prop_map(|(line, prefetched, dirty)| Op::Fill {
            line,
            prefetched,
            dirty
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_lru(
        ops in prop::collection::vec(arb_op(64), 1..400),
        set_bits in 0u32..4,
        ways in 1usize..8,
    ) {
        // 1-8 sets x 1-7 ways (mostly not powers of two: the flat store
        // indexes `set * ways + way`) over a 64-line footprint: heavy
        // conflict traffic.
        let sets = 1usize << set_bits;
        let cfg = CacheConfig { size_bytes: (sets * ways * 64) as u64, ways, hit_latency: 1 };
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(sets, ways);
        for op in ops {
            match op {
                Op::Probe { line, write } => {
                    let l = LineAddr::new(line);
                    prop_assert_eq!(cache.peek(l), reference.peek(l));
                    let got = cache.probe(l, write);
                    let want = reference.probe(l, write);
                    match (got, want) {
                        (ProbeOutcome::Miss, None) => {}
                        (ProbeOutcome::Hit(info), Some(was_prefetched)) => {
                            prop_assert_eq!(info.first_demand_use_of_prefetch, was_prefetched);
                        }
                        (got, want) => prop_assert!(false, "probe mismatch: {:?} vs {:?}", got, want),
                    }
                }
                Op::Fill { line, prefetched, dirty } => {
                    let l = LineAddr::new(line);
                    let got = cache.fill(l, prefetched, dirty, false);
                    let want = reference.fill(l, prefetched, dirty);
                    match (got, want) {
                        (None, None) => {}
                        (Some(ev), Some((tag, ref_pref, ref_dirty))) => {
                            let (s, _) = reference.index(l);
                            let want_line = (tag << reference.set_shift) | s as u64;
                            prop_assert_eq!(ev.line, LineAddr::new(want_line));
                            prop_assert_eq!(ev.unused_prefetch, ref_pref);
                            prop_assert_eq!(ev.dirty, ref_dirty);
                        }
                        (got, want) => prop_assert!(false, "fill mismatch: {:?} vs {:?}", got, want),
                    }
                }
            }
        }
    }

    /// The MSHR file never exceeds capacity and allocate/remove pair up.
    #[test]
    fn mshr_capacity_is_invariant(ops in prop::collection::vec((0u64..32, any::<bool>()), 1..200),
                                  cap in 1usize..16) {
        let mut m = MshrFile::new(cap);
        let mut live = std::collections::BTreeSet::new();
        for (i, (line, alloc)) in ops.into_iter().enumerate() {
            let l = LineAddr::new(line);
            if alloc {
                let ok = m.allocate(l, false, RequestId::new(i as u64));
                prop_assert_eq!(ok, !live.contains(&line) && live.len() < cap);
                if ok {
                    live.insert(line);
                }
            } else {
                let removed = m.remove(l).is_some();
                prop_assert_eq!(removed, live.remove(&line));
            }
            prop_assert_eq!(m.len(), live.len());
            prop_assert!(m.len() <= cap);
        }
    }
}
