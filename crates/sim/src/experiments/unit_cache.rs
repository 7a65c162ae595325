//! Content-addressed unit resolution: the one layer between a planned
//! [`SimUnit`] and the simulator (and, when installed, the disk store).
//!
//! A unit is keyed by the SHA-256 digest of its *store meta*: the simulator
//! fingerprint plus the full result-shaping inputs (see
//! [`SimUnit::store_meta`] and DESIGN.md §12). A suite hands every planned
//! unit to `padc_harness` as a [`Unit`] keyed by that digest, so a digest
//! planned by several experiments runs once per suite. A suite worker
//! resolves each distinct unit with a strict load/compute pair:
//!
//! 1. `load` probes the installed [`Store`], if any. The entry must
//!    validate byte-for-byte against the meta, rebuilt here, *and* its
//!    payload must parse as a [`Report`], or it is a miss (disk is never
//!    trusted).
//! 2. `compute` simulates the unit and writes the report back to the store
//!    with an atomic put.
//!
//! No-store, cold-store and warm-store runs take this same path, so they
//! compute the same units and report the same telemetry. Reports are
//! exact-integer JSON, so a store round trip is byte-lossless and
//! cold/warm/no-store artifacts are byte-identical — `tests/store.rs`
//! enforces this.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use padc_harness::{Unit, Work};
use padc_store::{sha256, to_hex, Store};

use super::infra::{SimUnit, UnitKey};
use crate::profile::SimProfile;
use crate::Report;

/// Bumped whenever a change alters simulation results without changing
/// `SimConfig` bytes (new mechanism semantics, trace-generation tweaks,
/// metric accounting fixes). Part of every entry's fingerprint, so stale
/// stores invalidate wholesale instead of serving wrong results.
pub const RESULT_SCHEMA_VERSION: u32 = 1;

/// The code fingerprint stamped into every store entry's meta document.
pub fn fingerprint() -> &'static str {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    FINGERPRINT.get_or_init(|| {
        format!(
            "padc-sim {} result-v{RESULT_SCHEMA_VERSION}",
            env!("CARGO_PKG_VERSION")
        )
    })
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
    /// Planned units that shared an earlier planned unit's digest and so
    /// ran nothing: planned minus distinct, the cross-experiment dedup win.
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
/// (grid cells and `IPC_alone` references): how many were planned vs. how
/// many were actually simulated. `requested - computed` is the dedup (and
/// warm-store) win. Monotonic over the process lifetime.
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
/// process-wide; every unit resolved afterwards probes it first. The
/// `--store DIR` / `PADC_STORE` wiring in `repro` and `padcsim`.
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

/// A resolved unit: its report, and the run's profile if this resolution
/// simulated it.
pub struct Resolved {
    pub(crate) report: Report,
    pub(crate) profile: Option<SimProfile>,
}

/// A planned unit as a suite worker runs it.
pub struct SimWork {
    unit: SimUnit,
    digest: [u8; 32],
}

impl Work for SimWork {
    type Output = Resolved;

    /// The strict store probe: a validated, parsing entry or `None`.
    fn load(&self) -> Option<Resolved> {
        let store = installed_store()?;
        let loaded = store
            .load(&to_hex(&self.digest), &self.unit.store_meta())
            .and_then(|payload| serde_json::from_str::<Report>(&payload).ok());
        let counter = if loaded.is_some() {
            &STORE_HITS
        } else {
            &STORE_MISSES
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let profile = None;
        loaded.map(|report| Resolved { report, profile })
    }

    /// Simulates the unit and writes its report through to the store.
    fn compute(&self) -> Resolved {
        if self.unit.is_single_core() {
            SINGLE_RUNS_COMPUTED.fetch_add(1, Ordering::Relaxed);
        }
        let (report, profile) = self.unit.execute();
        if let Some(store) = installed_store() {
            if let Ok(json) = serde_json::to_string(&report) {
                // Best-effort: a full disk or unwritable store degrades to
                // recomputation, never to failure.
                let _ = store.put(&to_hex(&self.digest), &self.unit.store_meta(), &json);
            }
        }
        let profile = Some(profile);
        Resolved { report, profile }
    }
}

/// A planned unit as a suite [`Unit`] keyed by the digest of its store
/// meta, and its key (moved out: the reduce, not the worker, addresses
/// results by it). Counts the request.
pub(crate) fn suite_unit(mut unit: SimUnit) -> (UnitKey, Unit<SimWork>) {
    if unit.is_single_core() {
        SINGLE_RUNS_REQUESTED.fetch_add(1, Ordering::Relaxed);
    }
    let digest = sha256(unit.store_meta().as_bytes());
    let key = std::mem::take(&mut unit.key);
    let work = SimWork { unit, digest };
    (key, Unit { key: digest, work })
}

/// Counts a planned unit that shares an earlier one's digest.
pub(crate) fn note_coalesced() {
    UNITS_COALESCED.fetch_add(1, Ordering::Relaxed);
}
