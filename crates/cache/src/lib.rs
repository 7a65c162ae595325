//! Set-associative cache and MSHR models for the PADC simulation suite.
//!
//! The caches carry the paper's *prefetch bit* (`P`) per line (§4.1): a line
//! filled by a prefetch keeps `P` set until the first demand hit, at which
//! point the hit is reported so the prefetch-accuracy machinery can credit
//! the prefetcher (`PUC`), and the bit is reset. Lines evicted with `P` still
//! set were useless prefetches.
//!
//! [`MshrFile`] models the miss-status holding registers that track
//! outstanding fills; the Adaptive Prefetch Dropping unit invalidates an
//! MSHR entry before removing a prefetch from the memory request buffer.
//!
//! # Example
//!
//! ```
//! use padc_cache::{Cache, CacheConfig, ProbeOutcome};
//! use padc_types::LineAddr;
//!
//! let mut l2 = Cache::new(CacheConfig::l2_private());
//! let line = LineAddr::new(0x99);
//! assert_eq!(l2.probe(line, false), ProbeOutcome::Miss);
//! l2.fill(line, true, false, true); // prefetched fill, row-hit service
//! match l2.probe(line, false) {
//!     ProbeOutcome::Hit(info) => assert!(info.first_demand_use_of_prefetch),
//!     ProbeOutcome::Miss => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod mshr;

pub use cache::{Cache, Eviction, HitInfo, ProbeOutcome};
pub use config::CacheConfig;
pub use mshr::{MshrEntry, MshrFile, Waiter};
