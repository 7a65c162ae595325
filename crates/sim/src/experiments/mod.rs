//! The paper's evaluation (§6) as data: one [`REGISTRY`] row per table and
//! figure, run at a scale an [`ExpConfig`] sets and returning
//! [`ExpTable`]s — the same rows/series the paper reports, printable as
//! aligned text. `repro` and `benchmark/` reach a row through [`find`] /
//! [`select`].
//!
//! A multi-core experiment is a [`Compare`]: [`Arm`]s (a scheduling policy
//! plus [`Delta`]s from the Table 3/4 baseline) in [`Group`]s, a workload
//! set and a [`Layout`]. A single-core one is a [`Grid`] of benchmarks ×
//! arms with a table builder. fig2, fig4, cost and tab6 simulate nothing
//! through the unit layer: they are plain functions, which a suite runs as
//! a reduce over zero units.
//!
//! Every row is a pure `plan` of independent [`SimUnit`]s, each identified
//! by the digest of its inputs, and a pure `reduce` that reads their
//! reports in plan order into tables. A suite
//! ([`suite_jobs`]) hands every selected row's plan to `padc_harness` as
//! one flat plan deduplicated by unit digest, so each distinct simulation
//! runs once per suite, on its workers; [`Experiment::run`] is one row run as
//! a suite of one. A unit resolves from the installed store if it can, and
//! result bytes never depend on scheduling.
//!
//! Absolute numbers will not match the paper (its substrate was a
//! proprietary x86 simulator running SPEC traces; ours is a synthetic-trace
//! reproduction — see DESIGN.md), but the *shapes* — which policy wins
//! where, and by roughly what factor — are the reproduction target.

mod infra;
mod micro;
pub mod registry;
mod single;
mod spec;
mod unit_cache;

pub use infra::{ExpConfig, ExpTable, Scale, SimUnit};
pub use registry::{
    find, select, suite_jobs, suite_jobs_profiled, table_stash, Experiment, Shape, TableStash,
    REGISTRY,
};
pub use single::{Cells, Grid};
pub use spec::{Arm, Col, Column, Compare, Delta, Group, Layout, Mixes, Table};
#[doc(hidden)]
pub use unit_cache::uninstall_unit_store;
pub use unit_cache::{
    fingerprint as store_fingerprint, install_unit_store, single_run_stats, unit_cache_stats,
    unit_store_installed, Resolved, SimWork, UnitCacheStats, RESULT_SCHEMA_VERSION,
};
