use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a processing core in the simulated CMP.
///
/// ```
/// use padc_types::CoreId;
/// let c = CoreId::new(3);
/// assert_eq!(c.index(), 3);
/// assert_eq!(format!("{c}"), "core3");
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core id from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u16` (the suite supports up to
    /// 65 536 cores, far beyond the paper's 8-core maximum).
    pub fn new(index: usize) -> Self {
        CoreId(u16::try_from(index).expect("core index exceeds u16"))
    }

    /// The core's index, usable for `Vec` indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<CoreId> for usize {
    fn from(id: CoreId) -> usize {
        id.index()
    }
}

/// Unique, monotonically increasing identifier for a memory request.
///
/// Allocation order doubles as arrival order, which the FCFS scheduling rules
/// rely on.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// The raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_round_trips() {
        for i in [0usize, 1, 7, 255] {
            assert_eq!(CoreId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "core index exceeds u16")]
    fn core_id_rejects_huge_index() {
        let _ = CoreId::new(70_000);
    }

    #[test]
    fn request_ids_order_by_allocation() {
        assert!(RequestId::new(1) < RequestId::new(2));
    }

    #[test]
    fn displays() {
        assert_eq!(CoreId::new(0).to_string(), "core0");
        assert_eq!(RequestId::new(9).to_string(), "req9");
    }
}
