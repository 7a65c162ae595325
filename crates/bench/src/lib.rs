//! Reproduction harness support.
//!
//! The experiment registry itself lives in
//! [`padc_sim::experiments::registry`] (so `padcsim --suite` and the
//! benches enumerate the same list); this crate re-exports it for the
//! `repro` binary and for backwards compatibility with existing
//! `padc_bench::{registry, find}` callers.

#![warn(missing_docs)]

pub use padc_sim::experiments::registry::{
    find, registry, suite_jobs, suite_jobs_profiled, table_stash, Experiment, TableStash,
};
