//! Full-system simulator for the PADC reproduction: wires the trace-driven
//! cores, the L1/L2 caches with MSHRs, the hardware prefetchers (plus DDPF
//! filtering and FDP throttling), and the Prefetch-Aware DRAM Controller
//! over the cycle-level DDR3 model.
//!
//! * [`SimConfig`] describes a system (paper Tables 3 and 4 are the
//!   defaults); [`System`] runs it over a [`padc_workloads::Workload`] and
//!   produces a [`Report`].
//! * [`metrics`] computes the paper's §5.2 metrics: IPC, WS, HS, IS, UF,
//!   SPL, MPKI, ACC, COV, RBHU, and bus traffic split into demand /
//!   useful-prefetch / useless-prefetch lines.
//! * [`experiments`] contains one entry point per paper table and figure;
//!   [`cli::suite_main`] — the `repro` binary, the one suite entry point —
//!   runs and prints them. A rerun skips work through the digest-checked
//!   unit store (`--store DIR`), nothing else. Every command line reads its
//!   flags through [`cli::Flags`].
//!
//! # Example
//!
//! ```
//! use padc_sim::{SimConfig, System};
//! use padc_core::SchedulingPolicy;
//! use padc_workloads::profiles;
//!
//! let mut cfg = SimConfig::single_core(SchedulingPolicy::Padc);
//! cfg.max_instructions = 20_000;
//! let mut sys = System::new(cfg, vec![profiles::libquantum()]);
//! let report = sys.run();
//! assert!(report.per_core[0].ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cli;
mod config;
pub mod experiments;
pub mod metrics;
pub mod profile;
mod system;

pub use config::{MemPolicyConfig, SimConfig};
pub use metrics::{CoreReport, Report, Traffic};
pub use system::{FastForwardMode, System};
