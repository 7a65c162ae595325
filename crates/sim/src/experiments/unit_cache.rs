//! Content-addressed unit cache: the one layer between [`execute_units`]
//! and the simulator (and, when installed, the disk store).
//!
//! Every planned [`SimUnit`] resolves through a process-wide claim map
//! keyed by the SHA-256 digest of the unit's *store meta* — the simulator
//! fingerprint plus the full result-shaping inputs (see
//! [`SimUnit::store_meta`] and DESIGN.md §12). Resolution happens
//! **before** any fan-out:
//!
//! 1. A digest already `Done` in memory (or `InFlight` on another thread)
//!    is coalesced — it never probes the disk nor schedules a sub-job.
//!    The grids that share cells, every experiment's `IPC_alone`
//!    references, and concurrent identical `padcsim serve` requests
//!    therefore compute each unit once per process.
//! 2. An unclaimed digest probes the installed [`Store`], if there is one,
//!    strictly: the entry must validate byte-for-byte against today's meta
//!    *and* its payload must parse as a [`Report`], or it is treated as a
//!    miss and recomputed (the resume posture — disk is never trusted).
//! 3. Only the remaining misses are scheduled, through
//!    [`padc_harness::subjob_map`], so a fully warm run executes **zero**
//!    simulation units. Completed misses are written back to the store
//!    with an atomic put.
//!
//! A claim that is dropped unsettled (its compute panicked, or the
//! fan-out unwound before reaching it) resets its cell to `Empty` and
//! wakes waiters, the first of which adopts the claim and recomputes
//! inline — a failing unit can never wedge a waiter.
//!
//! No-store, cold-store and serve runs take this same path, so they
//! schedule the same sub-jobs and report the same telemetry. Reports are
//! exact-integer JSON, so a store round trip is byte-lossless and
//! cold/warm/no-store artifacts are byte-identical — `tests/store.rs`
//! enforces this.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use padc_store::{digest_hex, Store};

use super::infra::SimUnit;
use crate::profile::{ProfileTotal, SimProfile};
use crate::Report;

/// Bumped whenever a change alters simulation results without changing
/// `SimConfig` bytes (new mechanism semantics, trace-generation tweaks,
/// metric accounting fixes). Part of every entry's fingerprint, so stale
/// stores invalidate wholesale instead of serving wrong results.
pub const RESULT_SCHEMA_VERSION: u32 = 1;

/// The code fingerprint stamped into every store entry's meta document.
pub fn fingerprint() -> String {
    format!(
        "padc-sim {} result-v{RESULT_SCHEMA_VERSION}",
        env!("CARGO_PKG_VERSION")
    )
}

/// Point-in-time snapshot of the cache counters (monotonic over the
/// process lifetime; diff two snapshots for a per-run view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitCacheStats {
    /// Units resolved from a validated disk entry.
    pub store_hits: u64,
    /// Units that probed the store and had to be computed (counted only
    /// while a store is installed).
    pub store_misses: u64,
    /// Units resolved from (or parked on) an in-memory claim another
    /// request already owned — the cross-experiment dedup win.
    pub units_coalesced: u64,
}

static STORE_HITS: AtomicU64 = AtomicU64::new(0);
static STORE_MISSES: AtomicU64 = AtomicU64::new(0);
static UNITS_COALESCED: AtomicU64 = AtomicU64::new(0);

/// Current counter values.
pub fn unit_cache_stats() -> UnitCacheStats {
    UnitCacheStats {
        store_hits: STORE_HITS.load(Ordering::Relaxed),
        store_misses: STORE_MISSES.load(Ordering::Relaxed),
        units_coalesced: UNITS_COALESCED.load(Ordering::Relaxed),
    }
}

static SINGLE_RUNS_REQUESTED: AtomicU64 = AtomicU64::new(0);
static SINGLE_RUNS_COMPUTED: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(requested, computed)` counters over single-core units
/// (grid cells and `IPC_alone` references): how many were handed to
/// [`execute_units`](super::execute_units) vs. how many were actually
/// simulated. `requested - computed` is the dedup (and warm-store) win.
/// Monotonic over the process lifetime.
pub fn single_run_stats() -> (u64, u64) {
    (
        SINGLE_RUNS_REQUESTED.load(Ordering::Relaxed),
        SINGLE_RUNS_COMPUTED.load(Ordering::Relaxed),
    )
}

fn installed_store() -> Option<Arc<Store>> {
    store_slot().lock().expect("store slot poisoned").clone()
}

fn store_slot() -> &'static Mutex<Option<Arc<Store>>> {
    static STORE: OnceLock<Mutex<Option<Arc<Store>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(None))
}

/// Opens (creating if needed) the store at `dir` and installs it
/// process-wide; subsequent [`crate::experiments::execute_units`] calls resolve units through
/// it. The `--store DIR` / `PADC_STORE` wiring in `repro` and `padcsim`.
///
/// # Errors
///
/// Returns any error from creating the store directory.
pub fn install_unit_store(dir: &Path) -> io::Result<()> {
    let store = Store::open(dir)?;
    *store_slot().lock().expect("store slot poisoned") = Some(Arc::new(store));
    Ok(())
}

/// True when a disk store is installed.
pub fn unit_store_installed() -> bool {
    installed_store().is_some()
}

/// Uninstalls the store (tests switch store directories within one
/// process; production binaries install once and never call this).
#[doc(hidden)]
pub fn uninstall_unit_store() {
    *store_slot().lock().expect("store slot poisoned") = None;
}

/// Forgets every settled in-memory claim, forcing the next resolution of
/// each digest back to the disk store (or, without one, to a fresh
/// simulation). Simulates a fresh process in same-process tests.
#[doc(hidden)]
pub fn reset_memory_cells() {
    cells().lock().expect("cell map poisoned").clear();
}

enum CellState {
    /// No owner; the next requester claims it.
    Empty,
    /// A requester owns the compute; others park on the condvar.
    InFlight,
    /// Settled result, shared by clone (boxed: a `Report` is ~300 bytes
    /// and the other variants are zero-sized).
    Done(Box<Report>),
}

struct Cell {
    state: Mutex<CellState>,
    /// Signalled on `InFlight` → `Done` and on rollback to `Empty`.
    settled: Condvar,
}

fn cells() -> &'static Mutex<HashMap<String, Arc<Cell>>> {
    static CELLS: OnceLock<Mutex<HashMap<String, Arc<Cell>>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cell_for(digest: &str) -> Arc<Cell> {
    let mut map = cells().lock().expect("cell map poisoned");
    Arc::clone(map.entry(digest.to_string()).or_insert_with(|| {
        Arc::new(Cell {
            state: Mutex::new(CellState::Empty),
            settled: Condvar::new(),
        })
    }))
}

/// An owned claim on an `InFlight` cell: this thread must settle it with a
/// report. Dropping it unsettled — the compute panicked, or a fan-out
/// unwound before reaching it — rolls the cell back to `Empty` and wakes a
/// waiter to adopt it, so no failure can leave a cell in flight forever.
struct Claim {
    cell: Arc<Cell>,
    digest: String,
    meta: String,
}

impl Drop for Claim {
    fn drop(&mut self) {
        // No `expect`: this runs during unwinding.
        if let Ok(mut st) = self.cell.state.lock() {
            if matches!(*st, CellState::InFlight) {
                *st = CellState::Empty;
                self.cell.settled.notify_all();
            }
        }
    }
}

/// Computes a claimed unit, writes the result through to the store, and
/// settles the claim; returns the report with the run's profile. A panic
/// propagates — surfacing through the owning job's `catch_unwind` as
/// usual — and the claim rolls back when dropped.
fn compute_owned(unit: &SimUnit, claim: &Claim) -> (Report, SimProfile) {
    if unit.is_single_core() {
        SINGLE_RUNS_COMPUTED.fetch_add(1, Ordering::Relaxed);
    }
    let (report, profile) = unit.execute();
    if let Some(store) = installed_store() {
        if let Ok(json) = serde_json::to_string(&report) {
            // Best-effort: a full disk or unwritable store degrades to
            // recomputation, never to failure.
            let _ = store.put(&claim.digest, &claim.meta, &json);
        }
    }
    let mut st = claim.cell.state.lock().expect("cell poisoned");
    *st = CellState::Done(Box::new(report.clone()));
    claim.cell.settled.notify_all();
    (report, profile)
}

/// Claims `digest`'s cell for this thread, resolving it from the store if
/// possible. Returns the settled report, a [`Claim`] to compute, or `None`
/// when another thread owns the in-flight compute.
fn try_resolve(digest: &str, meta: &str, cell: &Arc<Cell>) -> Resolution {
    let mut st = cell.state.lock().expect("cell poisoned");
    match &*st {
        CellState::Done(report) => {
            UNITS_COALESCED.fetch_add(1, Ordering::Relaxed);
            Resolution::Ready(report.clone())
        }
        CellState::InFlight => {
            UNITS_COALESCED.fetch_add(1, Ordering::Relaxed);
            Resolution::Parked
        }
        CellState::Empty => {
            if let Some(store) = installed_store() {
                let loaded = store
                    .load(digest, meta)
                    .and_then(|payload| serde_json::from_str::<Report>(&payload).ok());
                if let Some(report) = loaded {
                    STORE_HITS.fetch_add(1, Ordering::Relaxed);
                    *st = CellState::Done(Box::new(report.clone()));
                    cell.settled.notify_all();
                    return Resolution::Ready(Box::new(report));
                }
                STORE_MISSES.fetch_add(1, Ordering::Relaxed);
            }
            *st = CellState::InFlight;
            Resolution::Claimed
        }
    }
}

enum Resolution {
    Ready(Box<Report>),
    Claimed,
    Parked,
}

/// Resolves every unit (memory, then store), fans out only the misses,
/// parks on other threads' in-flight computes. Returns reports in plan
/// order, and the summed profile of the units this call simulated — its
/// claims and the claims it adopted from a panicked owner; a coalesced,
/// parked or store-hit unit simulates nothing and adds nothing.
pub(crate) fn execute_cached(units: &[SimUnit]) -> (Vec<Report>, ProfileTotal) {
    let mut out: Vec<Option<Report>> = (0..units.len()).map(|_| None).collect();
    let mut total = ProfileTotal::default();
    let mut computes: Vec<(usize, Claim)> = Vec::new();
    let mut parked: Vec<(usize, Arc<Cell>)> = Vec::new();

    for (i, unit) in units.iter().enumerate() {
        if unit.is_single_core() {
            SINGLE_RUNS_REQUESTED.fetch_add(1, Ordering::Relaxed);
        }
        let meta = unit.store_meta();
        let digest = digest_hex(meta.as_bytes());
        let cell = cell_for(&digest);
        match try_resolve(&digest, &meta, &cell) {
            Resolution::Ready(report) => out[i] = Some(*report),
            Resolution::Claimed => computes.push((i, Claim { cell, digest, meta })),
            Resolution::Parked => parked.push((i, cell)),
        }
    }

    // Only the misses are scheduled: a fully warm run fans out nothing.
    let computed = padc_harness::subjob_map(computes.len(), |j| {
        let (i, claim) = &computes[j];
        compute_owned(&units[*i], claim)
    });
    for ((i, _), (report, profile)) in computes.iter().zip(computed) {
        out[*i] = Some(report);
        total.add(&profile);
    }

    // Park on other owners' cells. If an owner panicked (cell rolled back
    // to Empty), adopt the claim and compute inline.
    for (i, cell) in parked {
        let mut st = cell.state.lock().expect("cell poisoned");
        loop {
            match &*st {
                CellState::Done(report) => {
                    out[i] = Some(report.as_ref().clone());
                    break;
                }
                CellState::InFlight => {
                    st = cell.settled.wait(st).expect("cell poisoned");
                }
                CellState::Empty => {
                    *st = CellState::InFlight;
                    drop(st);
                    let meta = units[i].store_meta();
                    let digest = digest_hex(meta.as_bytes());
                    let claim = Claim {
                        cell: Arc::clone(&cell),
                        digest,
                        meta,
                    };
                    let (report, profile) = compute_owned(&units[i], &claim);
                    out[i] = Some(report);
                    total.add(&profile);
                    break;
                }
            }
        }
    }

    let reports = out.into_iter().map(|r| r.expect("every unit resolved"));
    (reports.collect(), total)
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use padc_core::SchedulingPolicy;

    use super::*;
    use crate::experiments::{ExpConfig, Scale, UnitKey};
    use crate::SimConfig;

    #[test]
    fn a_failing_unit_leaves_no_cell_in_flight() {
        // A seed no other test uses, so these digests are private.
        let exp = ExpConfig::at(Scale::Smoke).with_seed(0xBAD);
        let bench = padc_workloads::profiles::by_name("milc_06").expect("catalog");
        // A two-core config over one benchmark: it digests like any other
        // unit and `System::new` rejects it at execute.
        let failing = SimUnit::new(
            UnitKey::single("failing", &bench, &exp),
            SimConfig::new(2, SchedulingPolicy::Padc),
            vec![bench.clone()],
        );
        let units = [failing, SimUnit::alone(&bench, &exp)];
        let digests = units
            .each_ref()
            .map(|u| digest_hex(u.store_meta().as_bytes()));
        // Inline fan-out: the first unit panics, the second never starts.
        let panic = catch_unwind(AssertUnwindSafe(|| execute_cached(&units)))
            .expect_err("the failing unit panics");
        let message = panic.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("one benchmark per core"), "{message}");
        for digest in &digests {
            let cell = cell_for(digest);
            let state = cell.state.lock().unwrap();
            assert!(
                matches!(*state, CellState::Empty),
                "{digest} not rolled back"
            );
        }
    }
}
