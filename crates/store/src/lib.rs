//! `padc-store` — a persistent, content-addressed cache of simulation
//! results.
//!
//! Entries are keyed by the SHA-256 digest of a caller-supplied **meta**
//! document (for the simulator: a fingerprint of the code version plus the
//! full result-shaping configuration). [`sha256`] runs on the x86 SHA
//! extensions when the CPU has them and on portable code otherwise; the
//! digest bytes, and so every entry's name, are the same on both. Each
//! entry is one file under `<root>/objects/<xy>/<digest>` holding a small
//! self-describing header, the meta bytes, and the payload bytes:
//!
//! ```text
//! padc-store v1 <meta_len> <payload_len>\n
//! <meta bytes>\n
//! <payload bytes>\n
//! ```
//!
//! The design inherits the repo's resume posture: **nothing on disk is
//! trusted**. [`Store::load`] re-derives the expected entry shape and
//! byte-compares the stored meta against the meta the caller would write
//! today; any anomaly — missing file, truncated file, malformed header,
//! length mismatch (declared lengths past the address space included),
//! meta mismatch, non-UTF-8 bytes — is a cache miss, never an error.
//! Writers go through a temp file in the same directory followed by an
//! atomic rename, so concurrent readers (and concurrent writers of the
//! same digest, which by construction carry identical bytes) can share one
//! store directory without locks.
//!
//! The content-addressed path *is* the index: lookup is O(1) in the entry
//! count. [`Store::gc`] walks the object tree and evicts
//! least-recently-used entries (loads touch mtimes, best-effort) until the
//! store fits a byte budget.

#![warn(missing_docs)]

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Format tag written at the front of every entry file.
const MAGIC: &str = "padc-store v1";

/// SHA-256 of `data` (FIPS 180-4), used to content-address entries.
///
/// On an x86-64 CPU with the SHA extensions (and SSSE3 and SSE4.1, which
/// the vector code needs too) the blocks are compressed by those
/// instructions; elsewhere by portable code. Both compute the same
/// digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    #[cfg(target_arch = "x86_64")]
    if let Some(digest) = shani::sha256(data) {
        return digest;
    }
    hash(data, compress_scalar)
}

/// SHA-256's initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256's round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data` with `compress`, which folds a run of whole 64-byte
/// blocks into the hash state: the whole blocks of `data` straight from
/// the input, then the padded tail (the `0x80` byte, zeros, and the
/// message length in bits, big-endian) from one or two blocks on the
/// stack.
fn hash(data: &[u8], mut compress: impl FnMut(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut h = H0;
    let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
    compress(&mut h, blocks);
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut h, &tail[..end]);
    let mut out = [0u8; 32];
    for (chunk, v) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// The portable compression function (FIPS 180-4 §6.2.2) over whole
/// 64-byte `blocks`: the fallback on CPUs without the SHA extensions, and
/// the oracle the vector code is tested against.
fn compress_scalar(h: &mut [u32; 8], blocks: &[u8]) {
    for chunk in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(chunk.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`), after Intel's reference sequence: the
/// state lives in two registers as `ABEF` and `CDGH`, each `rnds2` runs
/// two rounds, and the message schedule advances four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::{hash, K};

    /// SHA-256 of `data` on the SHA extensions, or `None` when this CPU
    /// lacks them.
    pub(super) fn sha256(data: &[u8]) -> Option<[u8; 32]> {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        // SAFETY: `compress` needs sha, ssse3 and sse4.1, which the CPU
        // was just found to have.
        detected.then(|| hash(data, |h, blocks| unsafe { compress(h, blocks) }))
    }

    /// Round constants `K[4i..4i + 4]` as one vector, `K[4i]` in lane 0.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn k4(i: usize) -> __m128i {
        let k = |j: usize| K[4 * i + j] as i32;
        _mm_set_epi32(k(3), k(2), k(1), k(0))
    }

    /// Four rounds: message words plus round constants `i`, two rounds
    /// into `cdgh`, the upper two into `abef`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let wk = _mm_add_epi32(w, k4(i));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four message words from the previous sixteen.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress(h: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let word = |i: usize| h[i] as i32;
        let dcba = _mm_set_epi32(word(3), word(2), word(1), word(0));
        let hgfe = _mm_set_epi32(word(7), word(6), word(5), word(4));
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [_mm_setzero_si128(); 4];
            for (j, words) in block.chunks_exact(16).enumerate() {
                // SAFETY: `words` is 16 readable bytes, and `loadu` has no
                // alignment requirement.
                let raw = unsafe { _mm_loadu_si128(words.as_ptr().cast()) };
                w[j] = _mm_shuffle_epi8(raw, bswap);
                rounds4(&mut abef, &mut cdgh, w[j], j);
            }
            // Rounds 16..64: the four-vector window slides one vector per
            // four rounds, the newest replacing the oldest.
            for i in 4..16 {
                let j = i % 4;
                w[j] = schedule(w[j], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
                rounds4(&mut abef, &mut cdgh, w[j], i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        *h = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgef) as u32,
            _mm_extract_epi32::<1>(hgef) as u32,
            _mm_extract_epi32::<2>(hgef) as u32,
            _mm_extract_epi32::<3>(hgef) as u32,
        ];
    }
}

/// Lowercase-hex SHA-256 of `data` — the entry key format used throughout.
pub fn digest_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// A digest in the entry key format, lowercase hex.
pub fn to_hex(digest: &[u8; 32]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for &b in digest {
        s.push(char::from(HEX[usize::from(b >> 4)]));
        s.push(char::from(HEX[usize::from(b & 0xf)]));
    }
    s
}

/// Size and entry-count summary of a store directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid-looking entry files (content-addressed names only).
    pub entries: u64,
    /// Total bytes those entries occupy.
    pub bytes: u64,
}

/// Result of one [`Store::gc`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries evicted (least-recently-used first).
    pub evicted: u64,
    /// Bytes freed by the eviction.
    pub freed_bytes: u64,
    /// Entries remaining after the pass.
    pub remaining_entries: u64,
    /// Bytes remaining after the pass.
    pub remaining_bytes: u64,
}

/// A content-addressed store rooted at one directory.
///
/// Cheap to clone conceptually (it holds only the root path); open one per
/// process, or several against the same directory — all operations are
/// safe under concurrent multi-process use (see the crate docs).
#[derive(Debug)]
pub struct Store {
    objects: PathBuf,
}

/// Distinguishes concurrently written temp files within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Name prefix of a temp file in a shard directory.
const TMP_PREFIX: &str = ".tmp-";

/// Age past which [`Store::gc`] takes a temp file for a crashed writer's.
/// A live writer holds its temp file for one write and one rename.
pub const STALE_TMP: Duration = Duration::from_secs(60);

/// What [`Store::walk`] finds.
#[derive(Default)]
struct Walk {
    /// `(path, len, mtime)` per entry file.
    entries: Vec<(PathBuf, u64, SystemTime)>,
    /// `(path, mtime)` per temp file.
    temps: Vec<(PathBuf, SystemTime)>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the `objects` directory.
    pub fn open(root: &Path) -> io::Result<Store> {
        let objects = root.join("objects");
        fs::create_dir_all(&objects)?;
        Ok(Store { objects })
    }

    /// The entry file path for a digest: `objects/<first-two>/<digest>`.
    fn entry_path(&self, digest: &str) -> PathBuf {
        let shard = digest.get(..2).unwrap_or("xx");
        self.objects.join(shard).join(digest)
    }

    /// Loads the payload stored under `digest`, validating the entry
    /// against `expected_meta`.
    ///
    /// Returns `None` — a miss, never an error — unless the entry exists,
    /// parses, declares lengths matching its actual bytes, and stores meta
    /// bytes exactly equal to `expected_meta`. A hit touches the entry's
    /// mtime (best-effort) so [`Store::gc`] evicts least-recently-used
    /// entries first.
    pub fn load(&self, digest: &str, expected_meta: &str) -> Option<String> {
        let mut file = fs::File::open(self.entry_path(digest)).ok()?;
        // Exactly the length `fstat` reports, in one read: a file that
        // grows or shrinks meanwhile fails `parse_entry`'s length check.
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        let mut bytes = vec![0; len];
        file.read_exact(&mut bytes).ok()?;
        let payload = parse_entry(bytes, expected_meta)?;
        let _ = file.set_modified(SystemTime::now());
        Some(payload)
    }

    /// Writes `payload` under `digest`, tagged with `meta`, atomically
    /// (temp file in the shard directory + rename). Concurrent writers of
    /// the same digest are safe: by construction they carry identical
    /// bytes, and rename is atomic, so readers see either a complete old
    /// entry, no entry, or a complete new one.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error; the temp file is removed on failure.
    pub fn put(&self, digest: &str, meta: &str, payload: &str) -> io::Result<()> {
        let path = self.entry_path(digest);
        let shard = path.parent().expect("entry path has a shard dir");
        let tmp = shard.join(format!(
            "{TMP_PREFIX}{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut entry = format!("{MAGIC} {} {}\n", meta.len(), payload.len());
        entry.reserve(meta.len() + payload.len() + 2);
        for part in [meta, "\n", payload, "\n"] {
            entry.push_str(part);
        }
        let result = (|| {
            // The shard directory is made only the first time it is missing.
            let mut f = match fs::File::create(&tmp) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    fs::create_dir_all(shard)?;
                    fs::File::create(&tmp)?
                }
                f => f?,
            };
            f.write_all(entry.as_bytes())?;
            drop(f);
            fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Walks the object tree, returning `(path, len, mtime)` per entry and
    /// the temp files (`.tmp-*`, a writer's file before its rename) apart.
    fn walk(&self) -> io::Result<Walk> {
        let mut out = Walk::default();
        for shard in fs::read_dir(&self.objects)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in fs::read_dir(shard.path())? {
                let entry = entry?;
                let temp = entry.file_name().to_string_lossy().starts_with(TMP_PREFIX);
                let md = match entry.metadata() {
                    // A live writer renamed its temp file since the listing.
                    Err(e) if temp && e.kind() == io::ErrorKind::NotFound => continue,
                    md => md?,
                };
                if !md.is_file() {
                    continue;
                }
                let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                if temp {
                    out.temps.push((entry.path(), mtime));
                } else {
                    out.entries.push((entry.path(), md.len(), mtime));
                }
            }
        }
        Ok(out)
    }

    /// Entry count and total size, temp files not counted. Read-only: it
    /// deletes nothing, so it is safe beside a live writer.
    ///
    /// # Errors
    ///
    /// Returns any error from walking the object tree.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let entries = self.walk()?.entries;
        Ok(StoreStats {
            entries: entries.len() as u64,
            bytes: entries.iter().map(|(_, len, _)| len).sum(),
        })
    }

    /// Evicts least-recently-used entries until the store occupies at most
    /// `max_bytes` (mtime order, path as a deterministic tie-break), and
    /// removes the temp files a crashed writer left: those last modified
    /// more than [`STALE_TMP`] ago. A younger one may be a live writer's,
    /// between its create and its rename, and is left alone.
    ///
    /// # Errors
    ///
    /// Returns any error from walking the object tree; individual
    /// removals are best-effort (an entry deleted concurrently is fine).
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcOutcome> {
        let Walk { mut entries, temps } = self.walk()?;
        let now = SystemTime::now();
        for (path, mtime) in temps {
            if now.duration_since(mtime).is_ok_and(|age| age > STALE_TMP) {
                let _ = fs::remove_file(path);
            }
        }
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        let mut outcome = GcOutcome::default();
        let mut kept = entries.len() as u64;
        for (path, len, _) in &entries {
            if total <= max_bytes {
                break;
            }
            if fs::remove_file(path).is_ok() {
                outcome.evicted += 1;
                outcome.freed_bytes += len;
                kept -= 1;
            }
            total -= len;
        }
        outcome.remaining_entries = kept;
        outcome.remaining_bytes = total;
        Ok(outcome)
    }
}

/// Strict entry parse: header magic, declared lengths, exact byte layout,
/// meta equality, UTF-8 payload — or `None`. The payload is `bytes` itself,
/// trimmed to it.
fn parse_entry(mut bytes: Vec<u8>, expected_meta: &str) -> Option<String> {
    let header_end = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..header_end]).ok()?;
    let rest = header.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (meta_len_s, payload_len_s) = rest.split_once(' ')?;
    let meta_len: usize = meta_len_s.parse().ok()?;
    let payload_len: usize = payload_len_s.parse().ok()?;
    // Exact layout: meta, '\n', payload, '\n' — anything shorter is a
    // truncated write, anything longer (or declared lengths past the
    // address space) a corrupt or foreign file.
    let meta_start = header_end + 1;
    let payload_start = meta_start.checked_add(meta_len)?.checked_add(1)?;
    let payload_end = payload_start.checked_add(payload_len)?;
    if payload_end.checked_add(1)? != bytes.len() {
        return None;
    }
    if bytes[payload_start - 1] != b'\n' || bytes[payload_end] != b'\n' {
        return None;
    }
    if &bytes[meta_start..payload_start - 1] != expected_meta.as_bytes() {
        return None;
    }
    bytes.truncate(payload_end);
    bytes.drain(..payload_start);
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "padc-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The digest of `data` on the SHA extensions, or `None` where the CPU
    /// (or the target) has none.
    fn shani(data: &[u8]) -> Option<[u8; 32]> {
        #[cfg(target_arch = "x86_64")]
        return shani::sha256(data);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `len` bytes that are not a repeating pattern of any block length.
    fn bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn both_paths_match_the_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
            // 200 bytes: three whole blocks and a tail that needs no
            // second padding block.
            (
                &million_a[..200],
                "c2a908d98f5df987ade41b5fce213067efbcc21ef2240212a41e54b5e7c28ae5",
            ),
        ];
        for (message, expected) in vectors {
            let len = message.len();
            assert_eq!(
                hex(hash(message, compress_scalar)),
                expected,
                "scalar, {len} bytes"
            );
            assert_eq!(digest_hex(message), expected, "sha256, {len} bytes");
            if let Some(digest) = shani(message) {
                assert_eq!(hex(digest), expected, "SHA-NI, {len} bytes");
            }
        }
    }

    #[test]
    fn the_sha_extensions_agree_with_the_scalar_code() {
        let data = bytes(1 << 20);
        if shani(b"").is_none() {
            eprintln!("no SHA extensions on this CPU: the scalar path alone is tested");
            return;
        }
        // Every tail length and both padding shapes (one or two final
        // blocks), over zero to nine whole blocks, then a long message.
        for len in (0..=600).chain([1 << 20]) {
            let message = &data[..len];
            assert_eq!(
                shani(message),
                Some(hash(message, compress_scalar)),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn header_lengths_past_the_address_space_miss() {
        let dir = temp_dir("overflow");
        let store = Store::open(&dir).expect("open");
        let meta = "ab";
        let digest = digest_hex(meta.as_bytes());
        store.put(&digest, meta, "p").expect("put");
        let path = store.entry_path(&digest);
        let max = usize::MAX;
        for entry in [
            // The declared lengths sum, wrapping, to the body's 3 bytes.
            format!("{MAGIC} 2 {max}\nab\n"),
            format!("{MAGIC} {max} 0\nab\n\n"),
            format!("{MAGIC} {max} 1\nab\np\n"),
            format!("{MAGIC} 2 {max}\nab\np\n"),
            format!("{MAGIC} {max} {max}\nab\np\n"),
            format!("{MAGIC} {} 2\nab\np\n", max - 1),
        ] {
            fs::write(&path, &entry).expect("entry written");
            assert_eq!(store.load(&digest, meta), None, "{entry:?}");
        }
        store.put(&digest, meta, "p").expect("re-put");
        assert_eq!(store.load(&digest, meta).as_deref(), Some("p"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_hits_only_on_matching_meta() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir).expect("open");
        let meta = "{\"fingerprint\":\"v1\"}";
        let digest = digest_hex(meta.as_bytes());
        assert_eq!(store.load(&digest, meta), None, "empty store misses");
        store.put(&digest, meta, "{\"ipc\":1}").expect("put");
        assert_eq!(store.load(&digest, meta).as_deref(), Some("{\"ipc\":1}"));
        assert_eq!(
            store.load(&digest, "{\"fingerprint\":\"v2\"}"),
            None,
            "wrong meta must miss"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_line_payloads_and_metas_round_trip() {
        let dir = temp_dir("newlines");
        let store = Store::open(&dir).expect("open");
        let meta = "line1\nline2";
        let payload = "p1\n\np3\n";
        let digest = digest_hex(meta.as_bytes());
        store.put(&digest, meta, payload).expect("put");
        assert_eq!(store.load(&digest, meta).as_deref(), Some(payload));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupt_entries_miss() {
        let dir = temp_dir("corrupt");
        let store = Store::open(&dir).expect("open");
        let meta = "m";
        let digest = digest_hex(meta.as_bytes());
        store.put(&digest, meta, "payload-bytes").expect("put");
        let path = store.entry_path(&digest);

        // Truncation: drop the final bytes.
        let full = fs::read(&path).expect("read");
        fs::write(&path, &full[..full.len() - 3]).expect("truncate");
        assert_eq!(store.load(&digest, meta), None);

        // Garbage header.
        fs::write(&path, b"not-a-store-entry\nm\npayload-bytes\n").expect("garble");
        assert_eq!(store.load(&digest, meta), None);

        // Length lies: declared payload length shorter than actual.
        fs::write(&path, b"padc-store v1 1 7\nm\npayload-bytes\n").expect("lie");
        assert_eq!(store.load(&digest, meta), None);

        // A rewrite recovers.
        store.put(&digest, meta, "payload-bytes").expect("re-put");
        assert_eq!(store.load(&digest, meta).as_deref(), Some("payload-bytes"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_lru_first_and_reports_stats() {
        let dir = temp_dir("gc");
        let store = Store::open(&dir).expect("open");
        let entries: Vec<(String, String)> = (0..4)
            .map(|i| {
                let meta = format!("meta-{i}");
                let digest = digest_hex(meta.as_bytes());
                store
                    .put(&digest, &meta, &format!("payload-{i}"))
                    .expect("put");
                (digest, meta)
            })
            .collect();
        let stats = store.stats().expect("stats");
        assert_eq!(stats.entries, 4);
        assert!(stats.bytes > 0);

        // Touch entry 0 so it is the most recently used.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(store.load(&entries[0].0, &entries[0].1).is_some());

        // Budget for roughly one entry: the untouched three go first.
        let per_entry = stats.bytes / 4;
        let out = store.gc(per_entry).expect("gc");
        assert_eq!(out.evicted, 3, "{out:?}");
        assert_eq!(out.remaining_entries, 1);
        assert!(
            store.load(&entries[0].0, &entries[0].1).is_some(),
            "recently used entry survives"
        );
        assert_eq!(store.load(&entries[1].0, &entries[1].1), None);

        // gc to zero clears everything.
        let out = store.gc(0).expect("gc all");
        assert_eq!(out.remaining_entries, 0);
        assert_eq!(store.stats().expect("stats").entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_and_readers_never_see_partial_entries() {
        let dir = temp_dir("race");
        let store = std::sync::Arc::new(Store::open(&dir).expect("open"));
        let meta = "shared-meta";
        let digest = digest_hex(meta.as_bytes());
        let payload = "x".repeat(4096);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = std::sync::Arc::clone(&store);
                let (digest, payload) = (digest.clone(), payload.clone());
                scope.spawn(move || {
                    for _ in 0..50 {
                        store.put(&digest, meta, &payload).expect("put");
                    }
                });
            }
            for _ in 0..2 {
                let store = std::sync::Arc::clone(&store);
                let (digest, payload) = (digest.clone(), payload.clone());
                scope.spawn(move || {
                    for _ in 0..200 {
                        if let Some(seen) = store.load(&digest, meta) {
                            assert_eq!(seen, payload, "reader saw a partial entry");
                        }
                    }
                });
            }
        });
        assert_eq!(store.load(&digest, meta).as_deref(), Some(payload.as_str()));
        // No stray temp files survive a clean run.
        let stats = store.stats().expect("stats");
        assert_eq!(stats.entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A temp file in a shard directory, last modified `age` ago.
    fn temp_file(store: &Store, age: Duration) -> PathBuf {
        let shard = store.objects.join("ab");
        fs::create_dir_all(&shard).expect("shard");
        let path = shard.join(format!("{TMP_PREFIX}1-0"));
        let f = fs::File::create(&path).expect("temp file");
        f.set_modified(SystemTime::now() - age).expect("mtime set");
        path
    }

    #[test]
    fn a_live_writers_temp_file_survives_stats_and_gc() {
        let dir = temp_dir("live-tmp");
        let store = Store::open(&dir).expect("open");
        let tmp = temp_file(&store, Duration::ZERO);
        assert_eq!(store.stats().expect("stats"), StoreStats::default());
        assert!(tmp.exists(), "stats deleted a temp file");
        assert_eq!(store.gc(0).expect("gc"), GcOutcome::default());
        assert!(tmp.exists(), "gc deleted a fresh temp file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_a_stale_temp_file() {
        let dir = temp_dir("stale-tmp");
        let store = Store::open(&dir).expect("open");
        let tmp = temp_file(&store, Duration::from_secs(120));
        assert_eq!(store.stats().expect("stats"), StoreStats::default());
        assert!(tmp.exists(), "stats deleted a temp file");
        assert_eq!(store.gc(u64::MAX).expect("gc"), GcOutcome::default());
        assert!(!tmp.exists(), "gc kept a temp file two minutes old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_on_empty_store() {
        let dir = temp_dir("empty");
        let store = Store::open(&dir).expect("open");
        assert_eq!(store.stats().expect("stats"), StoreStats::default());
        assert_eq!(store.gc(0).expect("gc"), GcOutcome::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
