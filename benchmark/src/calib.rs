//! The reference kernel that host-time metrics are normalised by.
//!
//! The hosts this benchmark runs on are shared: their speed drifts by tens
//! of percent over seconds and by a factor of two over minutes, which no
//! amount of repetition inside a ten-second run averages away. Every timed
//! sample is therefore preceded by this fixed, benchmark-owned kernel, and a
//! run reports `sample / median(kernel) * NOMINAL_S`: seconds on a host that
//! runs the kernel in exactly [`NOMINAL_S`]. Measured on the reference box,
//! the run-to-run quartile spread of a median fell from 4-17 % (raw) to 1-3 %
//! (normalised). The kernel shares no code with the simulator, so a change
//! to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the nominal host, seconds.
pub const NOMINAL_S: f64 = 0.010;

/// 1 MiB of words: larger than an L1, within a private L2, like the
/// simulator's hot state.
const WORDS: usize = 1 << 17;
const ROUNDS: usize = 5_000_000;

/// The kernel's working memory, allocated once per process.
pub struct Reference {
    buf: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            buf: vec![1; WORDS],
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its host time, seconds: a xorshift
    /// walk doing a dependent read-multiply-write per step.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[x as usize & (WORDS - 1)];
            *slot = slot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(x);
            acc ^= *slot;
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// `sample_s`, measured while the kernel took `reference_s`, in nominal
/// seconds.
pub fn normalise(sample_s: f64, reference_s: f64) -> f64 {
    sample_s / reference_s * NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_cancels_a_uniform_slowdown() {
        let quiet = normalise(0.200, 0.010);
        let busy = normalise(0.300, 0.015);
        assert!((quiet - busy).abs() < 1e-12);
        assert!((quiet - 0.200).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        assert!(Reference::default().run() > 0.0);
    }
}
