//! Shared primitive types for the PADC simulation suite.
//!
//! Every crate in the workspace speaks in terms of the vocabulary defined
//! here: byte/line [`Addr`]esses, [`CoreId`]s, simulation [`Cycle`]s, and the
//! [`MemRequest`] record that travels from a core's cache-miss path through
//! the memory request buffer to DRAM.
//!
//! # Example
//!
//! ```
//! use padc_types::{Addr, LineAddr, CoreId, RequestKind};
//!
//! let a = Addr::new(0x1_0040);
//! let line = a.line();
//! assert_eq!(line.base_addr(), Addr::new(0x1_0040));
//! assert_eq!(LineAddr::from(Addr::new(0x1_007f)), line);
//! assert!(RequestKind::Demand.is_demand());
//! let core = CoreId::new(2);
//! assert_eq!(core.index(), 2);
//! ```

#![warn(missing_docs)]

mod addr;
mod hash;
mod ids;
mod request;

pub use addr::{Addr, LineAddr, LINE_BYTES, LINE_SHIFT};
pub use hash::{LineHasher, LineMap};
pub use ids::{CoreId, RequestId};
pub use request::{AccessKind, MemRequest, RequestKind};

/// A point in simulated time, measured in CPU clock cycles.
pub type Cycle = u64;

/// Number of CPU cycles per DRAM bus cycle.
///
/// The paper's system runs a DDR3-1333 bus (667 MHz bus clock) under an
/// aggressive multi-GHz 4-wide core; a ratio of 10 reproduces both the
/// paper's ~1:3 row-hit:row-conflict latency relationship and its degree of
/// memory-boundedness (memory-intensive SPEC workloads run at IPC well
/// below 1) at CPU-cycle granularity.
pub const CPU_CYCLES_PER_DRAM_CYCLE: Cycle = 10;
