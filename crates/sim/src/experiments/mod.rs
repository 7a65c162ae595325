//! One entry point per table and figure in the paper's evaluation (§6).
//!
//! Every experiment takes an [`ExpConfig`] controlling scale (instructions
//! per core, number of multiprogrammed workloads) and returns one or more
//! [`ExpTable`]s — the same rows/series the paper reports, printable as
//! aligned text. The `padc-bench` crate's `repro` binary maps subcommands
//! (`fig6`, `case2`, `tab7`, ...) onto these functions.
//!
//! Every experiment executes one way, through the plan/execute/reduce
//! contract ([`ExpKind`]): `plan` enumerates independent,
//! deterministically-keyed [`SimUnit`]s; [`execute_units`] resolves each
//! through the digest-keyed unit cache (memory, then the installed store
//! if any) and fans only the misses out onto the shared worker pool; and
//! `reduce` folds the unit results into tables after a per-experiment
//! barrier — so result bytes never depend on scheduling, and each distinct
//! simulation runs once per process. The few experiments that are not
//! grids of simulations (fig2, fig4, cost, tab6) plan zero units and build
//! their tables in `reduce`.
//!
//! Absolute numbers will not match the paper (its substrate was a
//! proprietary x86 simulator running SPEC traces; ours is a synthetic-trace
//! reproduction — see DESIGN.md), but the *shapes* — which policy wins
//! where, and by roughly what factor — are the reproduction target.

mod infra;
mod mechanisms;
mod micro;
mod multi;
pub mod registry;
mod single;
mod sweeps;
mod unit_cache;

pub use infra::{
    execute_units, plan_alone_units, ExpConfig, ExpKind, ExpTable, PolicyArm, Scale, SimUnit,
    UnitKey, UnitResult, UnitResults,
};
pub use mechanisms::{
    ext_batching, ext_dspatch, ext_refresh, ext_timing, ext_write_drain, fig28_prefetchers,
    fig29_ddpf_fdp_demand_first, fig30_ddpf_fdp_equal, fig31_permutation, fig32_runahead,
    tab1_2_cost, tab6_thresholds,
};
pub use micro::{fig2_scheduling_example, fig4_service_time_and_phases};
pub use multi::{
    case_study, fig16_4core, fig17_8core, fig19_ranking_4core, fig20_ranking_8core,
    fig21_dual_controller_4core, fig22_dual_controller_8core, fig26_shared_l2_4core,
    fig27_shared_l2_8core, fig9_2core, tab10_identical_milc, tab8_urgency,
    tab9_identical_libquantum, CaseStudy,
};
pub use registry::{
    find, registry as experiment_registry, suite_jobs, suite_jobs_profiled, table_stash,
    Experiment, TableStash,
};
pub use single::{
    fig1_motivation, fig6_single_core_ipc, fig7_spl, fig8_traffic, tab5_characteristics, tab7_rbhu,
};
pub use sweeps::{ext_happy, fig23_row_buffer_sweep, fig24_closed_row, fig25_cache_sweep};
pub use unit_cache::{
    fingerprint as store_fingerprint, install_unit_store, single_run_stats, unit_cache_stats,
    unit_store_installed, UnitCacheStats, RESULT_SCHEMA_VERSION,
};
#[doc(hidden)]
pub use unit_cache::{reset_memory_cells, uninstall_unit_store};
