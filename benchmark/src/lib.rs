//! Shared pieces of the outside-in benchmark: what is measured ([`spec`]),
//! order statistics ([`stats`]), the paper-gap formulas ([`gaps`]) and the
//! result file with `compare` ([`result`]). The `padc-benchmark` binary runs
//! the workloads; `padc-probes` drives single layers standalone.
//!
//! Host time and simulated time are different clocks. `setup_s`, `wall_s`,
//! `sim_kips`, `peak_rss_mb` and every `*_ns`/`*_us`/`*_s` per-layer metric
//! are host measurements and carry the host's noise; the first three are
//! normalised by a reference kernel ([`calib`]) to take the host's drift out.
//! Cycle counts, ratios of simulated events, `sim.ipc_sum`, `sim.report_crc`
//! and the `paper_*_gap_pp` metrics are simulated statistics and repeat
//! exactly for a fixed tree and seed.

#![warn(missing_docs)]

pub mod calib;
pub mod gaps;
pub mod result;
pub mod spec;
pub mod stats;

use std::path::PathBuf;

/// CRC-32 (IEEE, reflected) of `bytes`: the identity `sim.report_crc` prints.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// A scratch directory next to the running binary, so everything the
/// benchmark writes stays inside the build directory of its checkout.
///
/// # Errors
///
/// Returns the error from locating the executable or creating the directory.
pub fn work_dir(tag: &str) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join(format!("padc-bench-work-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(super::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(super::crc32(b""), 0);
    }
}
