//! Sub-jobs: the second level of the scheduler.
//!
//! [`SuiteService`](crate::SuiteService) parallelizes *across* jobs;
//! experiments additionally want to fan out *within* a job (per-workload
//! simulation units). Spawning nested thread pools for that would break
//! the `--jobs N` contract — total threads would scale as experiments ×
//! workloads. Instead a job running on a worker thread calls
//! [`subjob_map`] to enqueue indexed units onto the service's own queue
//! (the sub-job queue sits next to the job queue, under the same mutex):
//!
//! - Every unit executes **on one of the N worker threads** — nothing
//!   here spawns; `--jobs N` therefore bounds *total* simulation threads,
//!   not just concurrent experiments.
//! - The submitting worker does not idle while its units are in flight: it
//!   **helps**, popping and executing queued sub-jobs (its own or another
//!   experiment's) until its batch completes. This is what makes the
//!   scheme deadlock-free with a fixed-size pool — a blocked parent is
//!   itself a worker.
//! - Free workers drain sub-jobs *before* claiming new top-level jobs, so
//!   in-flight experiments finish ahead of newly started ones.
//! - A panic inside a unit is caught, recorded on the batch, and re-thrown
//!   from `subjob_map` on the submitting thread — so it surfaces through
//!   the parent job's `catch_unwind` as one structured failure row.
//! - Results land in index order regardless of execution interleaving, so
//!   fan-out does not perturb the suite's deterministic JSONL output.
//!
//! Called outside a suite (unit tests, library consumers), [`subjob_map`]
//! simply runs the units inline on the calling thread.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::service::Pool;

/// Pool-level sub-job accounting: how many units executed, and the peak
/// number in flight at once. The peak can never exceed the suite's worker
/// count (units only run on suite workers) — `crates/sim/tests/floors.rs`
/// asserts exactly that from the suite [`Summary`](crate::Summary).
#[derive(Default)]
pub struct SubJobStats {
    executed: AtomicU64,
    active: AtomicU64,
    peak: AtomicU64,
}

impl SubJobStats {
    /// Marks one unit entering execution.
    fn begin(&self) {
        let active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(active, Ordering::Relaxed);
    }

    /// Marks one unit finished.
    fn end(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total units executed through the pool.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Peak number of units in flight simultaneously.
    pub fn peak_concurrent(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Lifetime-erased view of one batch's unit runner (`|index| ...`).
type BatchRunner = dyn Fn(usize) + Sync;

/// Shared state of one `subjob_map` call: the runner plus completion
/// accounting for its `n` units.
struct Batch {
    /// Pointer to the runner closure on the submitting thread's stack,
    /// with its lifetime erased so units can sit in the `'static` queue.
    ///
    /// SAFETY invariant: [`subjob_map`] does not return (or unwind) until
    /// `remaining == 0`, i.e. until every unit holding this pointer has
    /// finished executing; the closure therefore outlives all dereferences.
    runner: *const BatchRunner,
    state: Mutex<BatchState>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// The owning pool's counters; units report begin/end through these.
    stats: Arc<SubJobStats>,
}

struct BatchState {
    remaining: usize,
    /// First panic payload from any unit; re-thrown by the submitter.
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `runner` points at a `Sync` closure that the submitting thread
// keeps alive until the batch completes (see the invariant on `runner`);
// all mutable state is behind the `Mutex`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

/// One queued unit: batch handle plus the index to run.
pub(crate) struct SubJob {
    batch: Arc<Batch>,
    index: usize,
}

impl SubJob {
    /// Executes the unit, recording completion (and any panic) on its
    /// batch. Never unwinds.
    pub(crate) fn run(self) {
        // SAFETY: the submitter is blocked in `subjob_map` until this
        // batch's `remaining` hits zero, so the runner is still alive.
        let runner = unsafe { &*self.batch.runner };
        let index = self.index;
        self.batch.stats.begin();
        let result = panic::catch_unwind(AssertUnwindSafe(|| runner(index)));
        self.batch.stats.end();
        let mut st = self.batch.state.lock().expect("batch state poisoned");
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.batch.done.notify_all();
        }
    }
}

/// Runs queued sub-jobs (any batch's) until `batch` completes, then sleeps
/// on the batch's condvar while other workers finish its in-flight units.
fn help_until_done(pool: &Pool, batch: &Batch) {
    loop {
        {
            let st = batch.state.lock().expect("batch state poisoned");
            if st.remaining == 0 {
                return;
            }
        }
        if let Some(job) = pool.try_pop_subjob() {
            job.run();
            continue;
        }
        // Queue empty but units of this batch are still in flight on
        // other workers: wait for their completion signal.
        let mut st = batch.state.lock().expect("batch state poisoned");
        while st.remaining != 0 {
            st = batch.done.wait(st).expect("batch state poisoned");
        }
        return;
    }
}

thread_local! {
    /// The pool whose worker this thread is, if any.
    static CURRENT_POOL: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

/// Installs (or clears) the ambient pool for the calling thread.
pub(crate) fn install_pool(pool: Option<Arc<Pool>>) {
    CURRENT_POOL.with(|p| *p.borrow_mut() = pool);
}

fn current_pool() -> Option<Arc<Pool>> {
    CURRENT_POOL.with(|p| p.borrow().clone())
}

/// `true` when the calling thread is a suite worker, i.e. [`subjob_map`]
/// will schedule onto the shared pool rather than run inline.
pub fn under_harness() -> bool {
    current_pool().is_some()
}

/// Runs `f(0..n)` and returns the results in index order.
///
/// On a suite worker thread the units are enqueued onto the service's
/// sub-job queue — bounded by its `--jobs N` workers — and the caller
/// helps execute queued units until its batch completes. Anywhere else
/// the units run inline on the calling thread.
///
/// # Panics
///
/// If any unit panics, the first panic is re-thrown on the calling thread
/// after every unit of the batch has finished (so borrowed data is never
/// left aliased by in-flight units).
pub fn subjob_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let pool = match current_pool() {
        // Scheduling a 0/1-unit batch through the queue is pure overhead.
        Some(pool) if n > 1 => pool,
        _ => return (0..n).map(f).collect(),
    };

    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let runner = |i: usize| {
        let value = f(i);
        *slots[i].lock().expect("slot poisoned") = Some(value);
    };
    // SAFETY: lifetime erasure, upheld by the invariant on `Batch::runner`
    // — `help_until_done` below does not return until every unit has
    // finished, so `runner` (and the `slots`/`f` it borrows) strictly
    // outlives every dereference of this pointer.
    let runner_static: &'static BatchRunner = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&runner)
    };
    let batch = Arc::new(Batch {
        runner: runner_static as *const BatchRunner,
        state: Mutex::new(BatchState {
            remaining: n,
            panic: None,
        }),
        done: Condvar::new(),
        stats: Arc::clone(&pool.stats),
    });
    pool.push_subjobs((0..n).map(|index| SubJob {
        batch: Arc::clone(&batch),
        index,
    }));
    help_until_done(&pool, &batch);

    let panic_payload = batch
        .state
        .lock()
        .expect("batch state poisoned")
        .panic
        .take();
    if let Some(payload) = panic_payload {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("sub-job filled its slot")
        })
        .collect()
}
