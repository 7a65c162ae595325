use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::LineAddr;

/// A non-keyed multiplicative hasher for maps keyed by [`LineAddr`] on the
/// miss path, where `std`'s SipHash costs more than the lookup it guards.
///
/// Not collision-resistant: a crafted trace file can make keys collide.
/// That costs host time only — a map hashed with this must never let its
/// iteration order reach a result, so the `Report` is the same whatever the
/// bucket layout.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

/// 2^64 / golden ratio, odd: consecutive and power-of-two-strided lines
/// spread over the whole product.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(MULTIPLIER);
    }

    /// The product's high bits are its well-mixed ones and `HashMap` picks
    /// the bucket from the low bits: rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` from cache lines hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, BuildHasherDefault};

    use super::*;

    fn hash(line: u64) -> u64 {
        BuildHasherDefault::<LineHasher>::default().hash_one(LineAddr::new(line))
    }

    #[test]
    fn not_keyed() {
        assert_eq!(hash(12345), hash(12345));
        assert_ne!(hash(12345), hash(12346));
    }

    /// What `HashMap` indexes with: the low bits pick the bucket, the top
    /// seven tag it. Sequential lines and page-strided lines (the two
    /// shapes the generators produce) must not pile up in either.
    #[test]
    fn sequential_and_strided_lines_spread() {
        for stride in [1u64, 64, 1 << 20] {
            let base = 7 << 32;
            let buckets: std::collections::BTreeSet<u64> =
                (0..256).map(|i| hash(base + i * stride) & 0x3ff).collect();
            let tags: std::collections::BTreeSet<u64> =
                (0..256).map(|i| hash(base + i * stride) >> 57).collect();
            assert!(buckets.len() > 128, "stride {stride}: {}", buckets.len());
            assert!(tags.len() > 64, "stride {stride}: {}", tags.len());
        }
    }

    #[test]
    fn line_map_behaves_as_a_map() {
        let mut m: LineMap<u8> = LineMap::default();
        for i in 0..1000u64 {
            assert_eq!(m.insert(LineAddr::new(i * 3), (i % 9) as u8), None);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&LineAddr::new(999 * 3)), Some(&0));
        assert_eq!(m.remove(&LineAddr::new(3)), Some(1));
        assert_eq!(m.get(&LineAddr::new(3)), None);
    }
}
