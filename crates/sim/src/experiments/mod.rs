//! The paper's evaluation (§6) as data: one [`REGISTRY`] row per table and
//! figure, run at a scale an [`ExpConfig`] sets and returning
//! [`ExpTable`]s — the same rows/series the paper reports, printable as
//! aligned text. `repro`, `padcsim --suite`, `padcsim serve` and
//! `benchmark/` reach a row through [`find`] / [`select`].
//!
//! A multi-core experiment is a [`Compare`]: [`Arm`]s (a scheduling policy
//! plus [`Delta`]s from the Table 3/4 baseline) in [`Group`]s, a workload
//! set and a [`Layout`]. A single-core one is a [`Grid`] of benchmarks ×
//! arms with a table builder. fig2, fig4, cost and tab6 simulate nothing
//! through the unit layer and are plain functions.
//!
//! Every row executes one way ([`Experiment::run`]): `plan` enumerates
//! independent, deterministically-keyed [`SimUnit`]s; [`execute_units`]
//! resolves each through the digest-keyed unit cache (memory, then the
//! installed store if any) and fans only the misses out onto the shared
//! worker pool; and `reduce` folds the unit results into tables after a
//! per-experiment barrier — so result bytes never depend on scheduling,
//! and each distinct simulation runs once per process.
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

pub use infra::{
    execute_units, plan_alone_units, ExpConfig, ExpTable, Scale, SimUnit, UnitKey, UnitResult,
    UnitResults,
};
pub use registry::{
    find, select, suite_jobs, suite_jobs_profiled, table_stash, Experiment, Shape, TableStash,
    REGISTRY,
};
pub use single::{Cells, Grid};
pub use spec::{Arm, Col, Column, Compare, Delta, Group, Layout, Mixes, Table};
pub use unit_cache::{
    fingerprint as store_fingerprint, install_unit_store, single_run_stats, unit_cache_stats,
    unit_store_installed, UnitCacheStats, RESULT_SCHEMA_VERSION,
};
#[doc(hidden)]
pub use unit_cache::{reset_memory_cells, uninstall_unit_store};
