use padc_types::{CoreId, LineAddr, LineMap, RequestId};

/// A core-side consumer blocked on an outstanding fill. The `token` is
/// opaque to the memory system; the CPU model uses it to wake the right
/// instruction-window slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Waiter {
    /// Core that owns the blocked load.
    pub core: CoreId,
    /// Opaque wake-up token.
    pub token: u64,
}

/// One outstanding miss.
#[derive(Clone, Debug)]
pub struct MshrEntry {
    /// Line being fetched.
    pub line: LineAddr,
    /// The `P` bit of the entry: true while the fetch is prefetch-only.
    pub prefetch: bool,
    /// The memory request servicing this miss.
    pub request: RequestId,
    /// Loads blocked on the fill.
    pub waiters: Vec<Waiter>,
    /// True if some merged access was a store (fill arrives dirty).
    pub write: bool,
}

/// The miss-status holding register file of one L2 cache.
///
/// Capacity matches the paper's Table 4 (64/64/128/256 entries for 1/2/4/8
/// cores). Prefetches that cannot get an entry are dropped at issue;
/// demands retry.
///
/// ```
/// use padc_cache::MshrFile;
/// use padc_types::{LineAddr, RequestId};
///
/// let mut mshrs = MshrFile::new(2);
/// let line = LineAddr::new(5);
/// assert!(mshrs.allocate(line, true, RequestId::new(1)));
/// assert!(mshrs.get(line).is_some());
/// let entry = mshrs.remove(line).expect("present");
/// assert!(entry.prefetch);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MshrFile {
    /// Looked up by line only and never iterated, so the non-keyed
    /// [`LineMap`] hasher's bucket order cannot reach a result.
    entries: LineMap<MshrEntry>,
    capacity: usize,
}

impl MshrFile {
    /// Creates a file with space for `capacity` outstanding misses.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            entries: LineMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
        }
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if no more entries can be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Looks up the entry for `line`.
    pub fn get(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.entries.get(&line)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry> {
        self.entries.get_mut(&line)
    }

    /// Allocates an entry for `line`. Returns false (and changes nothing) if
    /// the file is full or the line already has an entry.
    pub fn allocate(&mut self, line: LineAddr, prefetch: bool, request: RequestId) -> bool {
        if self.is_full() || self.entries.contains_key(&line) {
            return false;
        }
        self.entries.insert(
            line,
            MshrEntry {
                line,
                prefetch,
                request,
                waiters: Vec::new(),
                write: false,
            },
        );
        true
    }

    /// Completes the miss for `line`, releasing the entry.
    pub fn remove(&mut self, line: LineAddr) -> Option<MshrEntry> {
        self.entries.remove(&line)
    }

    /// Invalidates the entry for a dropped prefetch (APD, §4.4). The drop is
    /// only legal while the entry is still prefetch-only, which guarantees it
    /// has no waiters.
    ///
    /// # Panics
    ///
    /// Panics if the entry has waiters or has been promoted to a demand —
    /// the controller must never drop such a request.
    pub fn invalidate_prefetch(&mut self, line: LineAddr) -> bool {
        if let Some(e) = self.entries.get(&line) {
            assert!(
                e.prefetch && e.waiters.is_empty(),
                "dropping a prefetch that demands depend on"
            );
            self.entries.remove(&line);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn r(n: u64) -> RequestId {
        RequestId::new(n)
    }

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(l(1), false, r(1)));
        assert!(m.allocate(l(2), false, r(2)));
        assert!(m.is_full());
        assert!(!m.allocate(l(3), false, r(3)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn duplicate_allocation_rejected() {
        let mut m = MshrFile::new(4);
        assert!(m.allocate(l(1), false, r(1)));
        assert!(!m.allocate(l(1), true, r(2)));
    }

    #[test]
    fn remove_frees_space() {
        let mut m = MshrFile::new(1);
        assert!(m.allocate(l(1), true, r(1)));
        assert!(m.remove(l(1)).is_some());
        assert!(m.is_empty());
        assert!(m.allocate(l(2), false, r(2)));
    }

    #[test]
    fn waiters_merge_on_entry() {
        let mut m = MshrFile::new(4);
        m.allocate(l(1), false, r(1));
        m.get_mut(l(1)).unwrap().waiters.push(Waiter {
            core: CoreId::new(0),
            token: 42,
        });
        m.get_mut(l(1)).unwrap().waiters.push(Waiter {
            core: CoreId::new(0),
            token: 43,
        });
        assert_eq!(m.get(l(1)).unwrap().waiters.len(), 2);
    }

    /// The file answers by line alone: the order entries went in (and with
    /// it the map's bucket layout) is invisible through every method.
    #[test]
    fn insertion_order_is_unobservable() {
        let lines: Vec<u64> = (0..48).map(|i| 7 + i * 64).collect();
        let mut fwd = MshrFile::new(64);
        let mut rev = MshrFile::new(64);
        for &n in &lines {
            assert!(fwd.allocate(l(n), n % 3 == 0, r(n)));
        }
        for &n in lines.iter().rev() {
            assert!(rev.allocate(l(n), n % 3 == 0, r(n)));
        }
        assert_eq!(fwd.len(), rev.len());
        for &n in &lines {
            let (a, b) = (fwd.get(l(n)).unwrap(), rev.get(l(n)).unwrap());
            assert_eq!(
                (a.line, a.prefetch, a.request),
                (b.line, b.prefetch, b.request)
            );
        }
        for &n in &lines[..24] {
            assert_eq!(fwd.remove(l(n)).unwrap().request, r(n));
            assert_eq!(rev.remove(l(n)).unwrap().request, r(n));
        }
        assert!(fwd.get(l(lines[0])).is_none() && rev.get(l(lines[0])).is_none());
        assert_eq!(fwd.len(), rev.len());
    }

    #[test]
    fn invalidate_prefetch_only_works_on_prefetches() {
        let mut m = MshrFile::new(4);
        m.allocate(l(1), true, r(1));
        assert!(m.invalidate_prefetch(l(1)));
        assert!(!m.invalidate_prefetch(l(1)));
    }

    #[test]
    #[should_panic(expected = "dropping a prefetch that demands depend on")]
    fn invalidate_with_waiters_panics() {
        let mut m = MshrFile::new(4);
        m.allocate(l(1), true, r(1));
        let e = m.get_mut(l(1)).unwrap();
        e.prefetch = false;
        m.invalidate_prefetch(l(1));
    }
}
