//! Synthetic SPEC-like workloads for the PADC simulation suite.
//!
//! The paper evaluates on SPEC CPU 2000/2006 traces, which are not
//! redistributable. This crate substitutes seeded synthetic trace
//! generators, one named [`BenchProfile`] per paper benchmark, each tuned to
//! reproduce the three characteristics PADC's behaviour actually depends on
//! (paper Table 5):
//!
//! 1. **Memory intensity** (MPKI class) — via the memory-op ratio, the
//!    spatial reuse per line, and the working-set size;
//! 2. **Row-buffer locality** — via streaming/strided vs. random access
//!    patterns;
//! 3. **Prefetch-friendliness** (stream-prefetcher accuracy/coverage and
//!    its phase behaviour) — via the run length of sequential bursts:
//!    long runs are prefetch-friendly, short runs train the stream
//!    prefetcher and then abandon it (useless prefetches), and phase lists
//!    alternate the two (e.g. `milc`'s accuracy phases, Fig. 4(b)).
//!
//! [`TraceGen`] implements `padc_cpu::TraceSource` and is deterministic for
//! a given (profile, seed) pair.
//!
//! # Example
//!
//! ```
//! use padc_workloads::{profiles, TraceGen};
//! use padc_cpu::TraceSource;
//!
//! let mut gen = TraceGen::new(&profiles::libquantum(), 0, 7);
//! let ops: Vec<_> = (0..100).map(|_| gen.next_op()).collect();
//! assert!(ops.iter().any(|op| op.is_memory()));
//! ```

#![warn(missing_docs)]

mod generator;
mod multiprog;
mod profile;
pub mod profiles;
mod tracefile;

pub use generator::TraceGen;
pub use multiprog::{random_workloads, Workload};
pub use profile::{BenchProfile, Pattern, PhaseSpec, PrefetchClass};
pub use tracefile::{format_trace, parse_trace, ParseTraceError, TraceFileSource, MAX_TRACE_OPS};
