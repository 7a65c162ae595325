//! Cycle-level DDR3 DRAM model for the PADC simulation suite.
//!
//! Models the memory device exactly as the paper's Table 4 describes it:
//! per-channel command/data buses, 8 independent banks per channel, a 4KB row
//! buffer per bank, and uniform 15ns command latencies (precharge `tRP`,
//! activate `tRCD`, read/write `CL`) with a BL=4 data burst over a 16B bus —
//! one 64B cache line per CAS.
//!
//! The controller (in `padc-core`) drives this model through a small command
//! interface: it asks a [`Channel`] whether the *next* command for a given
//! `(bank, row)` target can issue this DRAM cycle ([`Channel::can_advance`]),
//! and then issues it ([`Channel::advance`]). A request reaches completion
//! when its CAS data burst finishes.
//!
//! Readiness is stated once, as a decomposition (DESIGN.md §11): a
//! bank-local part that only a command to that bank can move
//! ([`Channel::bank_ready`]), a channel-level part constant until the next
//! command on the channel ([`Channel::floors`]), and the all-bank refresh
//! window, the one term that reads the clock
//! ([`Channel::refresh_release`]). [`Channel::can_advance`] and
//! [`Channel::earliest_advance_at`] are defined through it, and a scheduler
//! that keeps the bank-local parts answers both for every bank of a channel
//! from one [`ChannelFloors`].
//!
//! # Example
//!
//! ```
//! use padc_dram::{Channel, DramConfig, StepOutcome};
//!
//! let cfg = DramConfig::default();
//! let mut ch = Channel::new(&cfg);
//! // Row 7 of bank 0 is initially closed: first an ACT...
//! assert!(ch.can_advance(0, 7, 0));
//! assert_eq!(ch.advance(0, 7, false, 0), StepOutcome::Activated);
//! // ...then, once tRCD has elapsed, the CAS.
//! let t = cfg.t_rcd_cpu();
//! assert!(ch.can_advance(0, 7, t));
//! match ch.advance(0, 7, false, t) {
//!     StepOutcome::CasIssued { completes_at } => {
//!         assert_eq!(completes_at, t + cfg.cl_cpu() + cfg.burst_cpu());
//!     }
//!     other => panic!("expected CAS, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

mod bank;
mod channel;
mod config;
mod happy;
mod mapping;
mod stats;
mod timing;

pub use bank::{Bank, BankState};
pub use channel::{BankReady, Channel, ChannelFloors, RefreshCounters, StepOutcome};
pub use config::{DramConfig, RefreshPolicy, RowPolicy};
pub use happy::{HappyPredictor, REUSE_THRESHOLD};
pub use mapping::{AddressMapper, MappingScheme, Target};
pub use stats::ChannelStats;
pub use timing::ExtendedTiming;

/// Classification of a DRAM access by row-buffer state, §2.1 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RowBufferOutcome {
    /// The target row is already open: CAS only.
    Hit,
    /// The bank is precharged with no row open: ACT + CAS.
    Closed,
    /// A different row is open: PRE + ACT + CAS.
    Conflict,
}
