//! The worker pool: the one scheduler behind [`run_suite`](crate::run_suite)
//! and `padcsim serve`.
//!
//! A [`SuiteService`] owns N persistent worker threads and two queues under
//! one mutex and one condvar: top-level jobs and the sub-job units running
//! jobs fan out through [`subjob_map`](crate::subjob_map). Each
//! [`SuiteService::submit`] enqueues a batch of [`JobSpec`]s tagged with a
//! private channel; any worker may pick any batch's job, and completions
//! route back to the submitter's [`BatchHandle`]. Workers take queued
//! sub-jobs before new top-level jobs, and a worker blocked on its own
//! fan-out helps execute queued units (the deadlock-freedom argument is in
//! [`crate::subjob`]), so the worker count is a true global thread bound
//! no matter how many batches are in flight.
//!
//! `run_suite` is the batch client (start a service, submit one batch,
//! collect, shut down); `padcsim serve` keeps one service alive and submits
//! a batch per request, so concurrent requests' fan-outs load-balance
//! against each other. The two differ only in who reads the rows.
//!
//! Determinism: [`CompletedJob::row`] carries the exact JSONL bytes, which
//! depend only on the job's id and payload, and
//! [`BatchHandle::collect_ordered`] re-orders completions into submission
//! order — so a batch's rows are byte-identical for any worker count and
//! any mix of concurrent batches.

use std::collections::VecDeque;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::subjob::{self, SubJob, SubJobStats};
use crate::{render_row, JobSpec, JobStatus, RowDetail};

/// One finished job, with its exact JSONL row bytes.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// Job id.
    pub id: String,
    /// Terminal status ([`JobStatus::Skipped`] for cached rows).
    pub status: JobStatus,
    /// The JSONL row, trailing newline included.
    pub row: String,
    /// Panic / over-budget message, when failed.
    pub error: Option<String>,
    /// Wall-clock seconds the job ran.
    pub seconds: f64,
}

/// One queued top-level job plus its result route.
struct QueuedJob {
    spec: JobSpec,
    batch: u64,
    index: usize,
    tx: mpsc::Sender<(usize, CompletedJob)>,
}

struct PoolState {
    jobs: VecDeque<QueuedJob>,
    subjobs: VecDeque<SubJob>,
    next_batch: u64,
    shutdown: bool,
}

/// State shared by the workers, the submitting threads and (through the
/// worker threads' ambient pool) `subjob_map`.
pub(crate) struct Pool {
    state: Mutex<PoolState>,
    /// Signalled on job submission, sub-job enqueue and shutdown.
    work_ready: Condvar,
    /// Executed/peak-concurrency accounting of the sub-job units.
    pub(crate) stats: Arc<SubJobStats>,
    budget: Option<Duration>,
}

/// What a worker found in the queues.
enum Work {
    Sub(SubJob),
    Job(QueuedJob),
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool state poisoned")
    }

    /// Queues one fan-out's units and wakes the idle workers.
    pub(crate) fn push_subjobs(&self, units: impl Iterator<Item = SubJob>) {
        self.lock().subjobs.extend(units);
        self.work_ready.notify_all();
    }

    /// Non-blocking pop, for parents helping while their fan-out runs.
    pub(crate) fn try_pop_subjob(&self) -> Option<SubJob> {
        self.lock().subjobs.pop_front()
    }

    /// Blocks until there is work; `None` once the service is shut down
    /// and both queues are drained. Running jobs' fan-outs go before new
    /// jobs, so in-flight experiments finish ahead of newly started ones.
    fn next_work(&self) -> Option<Work> {
        let mut st = self.lock();
        loop {
            if let Some(sub) = st.subjobs.pop_front() {
                return Some(Work::Sub(sub));
            }
            if let Some(job) = st.jobs.pop_front() {
                return Some(Work::Job(job));
            }
            if st.shutdown {
                return None;
            }
            st = self.work_ready.wait(st).expect("pool state poisoned");
        }
    }
}

/// The one worker loop: every job and every sub-job unit of every batch
/// runs here, on one of the service's N threads.
fn worker_loop(pool: &Arc<Pool>) {
    subjob::install_pool(Some(Arc::clone(pool)));
    while let Some(work) = pool.next_work() {
        match work {
            Work::Sub(sub) => sub.run(),
            Work::Job(job) => {
                // A send error means the client dropped its handle while
                // this job ran; there is nobody left to tell.
                let _ = job
                    .tx
                    .send((job.index, execute_job(&job.spec, pool.budget)));
            }
        }
    }
    subjob::install_pool(None);
}

/// Job panics are caught and reported as rows, so keep the default hook's
/// backtrace off the worker threads. Installed once per process and never
/// taken back: a take/restore pair would race with a concurrently running
/// service, and wrapping per service would nest one closure per service.
fn install_panic_filter() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        #[cfg(test)]
        tests::FILTER_INSTALLS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("padc-job-worker"));
            if !on_worker {
                prev(info);
            }
        }));
    });
}

/// A persistent worker pool executing submitted job batches; see the
/// module docs.
pub struct SuiteService {
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl SuiteService {
    /// Starts `workers` threads (`0` means `available_parallelism()`).
    /// Jobs that finish over the optional per-job wall-clock `budget` are
    /// recorded as failures (they are not killed).
    ///
    /// The count is deliberately not clamped to any batch's job count:
    /// jobs fan sub-jobs back onto the pool, so even a single job can keep
    /// every worker busy.
    pub fn new(workers: usize, budget: Option<Duration>) -> Self {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            n => n,
        };
        install_panic_filter();
        let pool = Arc::new(Pool {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                subjobs: VecDeque::new(),
                next_batch: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            stats: Arc::default(),
            budget,
        });
        let workers = (0..workers)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("padc-job-worker-{w}"))
                    .spawn(move || worker_loop(&pool))
                    .expect("spawn worker")
            })
            .collect();
        SuiteService { pool, workers }
    }

    /// Enqueues a batch of jobs; any idle worker may run any of them.
    /// Jobs carrying a [`JobSpec::cached_row`] are not executed — the row
    /// is re-emitted verbatim as [`JobStatus::Skipped`] (the `--resume`
    /// path).
    pub fn submit(&self, jobs: Vec<JobSpec>) -> BatchHandle {
        let total = jobs.len();
        let (tx, rx) = mpsc::channel();
        let batch = {
            let mut st = self.pool.lock();
            let batch = st.next_batch;
            st.next_batch += 1;
            st.jobs
                .extend(jobs.into_iter().enumerate().map(|(index, spec)| QueuedJob {
                    spec,
                    batch,
                    index,
                    tx: tx.clone(),
                }));
            batch
        };
        self.pool.work_ready.notify_all();
        BatchHandle {
            total,
            rx,
            pool: Arc::clone(&self.pool),
            batch,
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Total sub-job units executed through the pool so far.
    pub fn subjobs_executed(&self) -> u64 {
        self.pool.stats.executed()
    }

    /// Peak sub-job units in flight simultaneously (bounded by the worker
    /// count).
    pub fn subjobs_peak_concurrent(&self) -> u64 {
        self.pool.stats.peak_concurrent()
    }

    /// Drains the queue, stops the workers, and joins them. Called by
    /// `Drop` as well; explicit shutdown just makes the join visible.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Ok(mut st) = self.pool.state.lock() {
            st.shutdown = true;
        }
        self.pool.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SuiteService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Receiving end of one submitted batch. Dropping it abandons the batch:
/// its jobs that no worker has started yet are removed from the queue.
pub struct BatchHandle {
    total: usize,
    rx: mpsc::Receiver<(usize, CompletedJob)>,
    pool: Arc<Pool>,
    batch: u64,
}

impl Drop for BatchHandle {
    fn drop(&mut self) {
        if let Ok(mut st) = self.pool.state.lock() {
            st.jobs.retain(|job| job.batch != self.batch);
        }
    }
}

impl BatchHandle {
    /// The one in-order collector. Waits for every job, invoking
    /// `on_done` for each completion as it arrives (completion order) and
    /// `on_row` **in submission order** as soon as each prefix settles, so
    /// output streams without depending on completion order. Returns all
    /// completions in submission order.
    ///
    /// # Errors
    ///
    /// Propagates the first error from either callback — the batch is
    /// then abandoned, see [`BatchHandle`] — and fails if the service
    /// shuts down before the batch completes.
    pub fn collect_ordered(
        self,
        mut on_done: impl FnMut(&CompletedJob) -> io::Result<()>,
        mut on_row: impl FnMut(&CompletedJob) -> io::Result<()>,
    ) -> io::Result<Vec<CompletedJob>> {
        let mut slots: Vec<Option<CompletedJob>> = (0..self.total).map(|_| None).collect();
        let mut cursor = 0usize;
        for _ in 0..self.total {
            let Ok((index, completed)) = self.rx.recv() else {
                return Err(io::Error::other("suite service shut down mid-batch"));
            };
            on_done(&completed)?;
            slots[index] = Some(completed);
            while let Some(Some(c)) = slots.get(cursor) {
                on_row(c)?;
                cursor += 1;
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all jobs reported"))
            .collect())
    }
}

/// Settles one job: a cached row is re-emitted verbatim, anything else
/// runs under `catch_unwind` and is rendered into its row.
fn execute_job(job: &JobSpec, budget: Option<Duration>) -> CompletedJob {
    let done = |status, row, error, seconds| CompletedJob {
        id: job.id.clone(),
        status,
        row,
        error,
        seconds,
    };
    if let Some(row) = &job.cached_row {
        return done(JobStatus::Skipped, format!("{row}\n"), None, 0.0);
    }
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| (job.run)()));
    let elapsed = start.elapsed();
    let seconds = elapsed.as_secs_f64();
    match (outcome, budget) {
        (Ok(payload), Some(b)) if elapsed > b => {
            let detail = RowDetail::OverBudget {
                payload,
                budget_seconds: b.as_secs(),
            };
            done(
                JobStatus::OverBudget,
                render_row(&job.id, JobStatus::OverBudget, &detail),
                Some(format!("exceeded {}s budget ({seconds:.1}s)", b.as_secs())),
                seconds,
            )
        }
        (Ok(payload), _) => done(
            JobStatus::Ok,
            render_row(&job.id, JobStatus::Ok, &RowDetail::Result(payload)),
            None,
            seconds,
        ),
        (Err(payload), _) => {
            let msg = panic_message(payload.as_ref());
            let row = render_row(&job.id, JobStatus::Panicked, &RowDetail::Error(msg.clone()));
            done(JobStatus::Panicked, row, Some(msg), seconds)
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_suite, subjob_map, HarnessConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// How many times this process wrapped the panic hook.
    pub(super) static FILTER_INSTALLS: AtomicUsize = AtomicUsize::new(0);

    fn svc(workers: usize) -> SuiteService {
        SuiteService::new(workers, None)
    }

    fn settle(handle: BatchHandle) -> Vec<CompletedJob> {
        handle
            .collect_ordered(|_| Ok(()), |_| Ok(()))
            .expect("batch completes")
    }

    #[test]
    fn batches_complete_in_submission_order() {
        let service = svc(2);
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::new(format!("job{i}"), "t", move || {
                    std::thread::sleep(Duration::from_millis(3 * (4 - i) as u64));
                    format!("{{\"v\":{i}}}")
                })
            })
            .collect();
        let mut streamed = Vec::new();
        let completions = service
            .submit(jobs)
            .collect_ordered(
                |_| Ok(()),
                |c| {
                    streamed.push(c.row.clone());
                    Ok(())
                },
            )
            .expect("batch completes");
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.status, JobStatus::Ok);
            assert_eq!(
                c.row,
                format!("{{\"id\":\"job{i}\",\"status\":\"ok\",\"result\":{{\"v\":{i}}}}}\n")
            );
            assert_eq!(streamed[i], c.row, "rows must stream in submission order");
        }
        service.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_pool_and_get_their_own_rows() {
        let service = Arc::new(svc(2));
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|client| {
                    let service = Arc::clone(&service);
                    scope.spawn(move || {
                        let jobs: Vec<JobSpec> = (0..3)
                            .map(|j| {
                                JobSpec::new(format!("c{client}-j{j}"), "t", move || {
                                    let parts = subjob_map(6, |u| u + j);
                                    format!("{}", parts.iter().sum::<usize>())
                                })
                            })
                            .collect();
                        settle(service.submit(jobs))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (client, completions) in results.iter().enumerate() {
            for (j, c) in completions.iter().enumerate() {
                let expected: usize = (0..6).map(|u| u + j).sum();
                assert_eq!(
                    c.row,
                    format!(
                        "{{\"id\":\"c{client}-j{j}\",\"status\":\"ok\",\"result\":{expected}}}\n"
                    )
                );
            }
        }
        assert_eq!(service.subjobs_executed(), 2 * 3 * 6);
        assert!(service.subjobs_peak_concurrent() <= 2);
    }

    #[test]
    fn panics_become_structured_failures_and_do_not_kill_workers() {
        let service = svc(2);
        let first = settle(service.submit(vec![
            JobSpec::new("good1", "t", || "1".to_string()),
            JobSpec::new("boom", "t", || panic!("injected failure {}", 42)),
            JobSpec::new("good2", "t", || "2".to_string()),
        ]));
        let statuses: Vec<_> = first.iter().map(|c| c.status).collect();
        assert_eq!(
            statuses,
            [JobStatus::Ok, JobStatus::Panicked, JobStatus::Ok],
            "the panic stays in its own row"
        );
        assert_eq!(first[1].error.as_deref(), Some("injected failure 42"));
        assert_eq!(
            first[1].row,
            "{\"id\":\"boom\",\"status\":\"panicked\",\"error\":\"injected failure 42\"}\n"
        );
        assert!(first[2].row.starts_with("{\"id\":\"good2\""));
        // The workers survive for the next batch.
        let second = settle(service.submit(vec![JobSpec::new("ok", "t", || "1".to_string())]));
        assert_eq!(second[0].status, JobStatus::Ok);
        service.shutdown();
    }

    /// Two suites overlap (a barrier holds a job of each until both run),
    /// one of them with a panicking job: both settle with structured rows,
    /// and the process-wide hook was wrapped once, not once per service.
    #[test]
    fn overlapping_suites_share_one_panic_filter() {
        let both_running = Arc::new(Barrier::new(2));
        let run = |id: &'static str, panics: bool| {
            let both_running = Arc::clone(&both_running);
            move || {
                let jobs = vec![
                    JobSpec::new(format!("{id}-meet"), "t", move || {
                        both_running.wait();
                        "1".to_string()
                    }),
                    JobSpec::new(format!("{id}-next"), "t", move || {
                        assert!(!panics, "injected");
                        "2".to_string()
                    }),
                ];
                let cfg = HarnessConfig {
                    workers: 1,
                    budget: None,
                    progress: false,
                };
                let mut jsonl = Vec::new();
                let summary =
                    run_suite(&jobs, &cfg, Some(&mut jsonl), &mut io::sink()).expect("suite I/O");
                (String::from_utf8(jsonl).expect("utf8"), summary)
            }
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(run("a", true));
            let b = scope.spawn(run("b", false));
            (a.join().expect("suite a"), b.join().expect("suite b"))
        });
        assert_eq!((a.1.ok(), a.1.failed()), (1, 1));
        assert_eq!(
            a.0.lines().nth(1),
            Some("{\"id\":\"a-next\",\"status\":\"panicked\",\"error\":\"injected\"}")
        );
        assert_eq!((b.1.ok(), b.1.failed()), (2, 0));
        assert_eq!(b.0.lines().count(), 2);
        assert_eq!(FILTER_INSTALLS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_mid_batch_reports_an_error_to_the_client() {
        let service = svc(1);
        let handle = service.submit(vec![
            JobSpec::new("slow", "t", || {
                std::thread::sleep(Duration::from_millis(30));
                "1".to_string()
            }),
            JobSpec::new("never", "t", || "2".to_string()),
        ]);
        // Shut down while the batch may still be queued/running: the
        // client must get either a complete batch or a clean error, never
        // a hang.
        service.shutdown();
        match handle.collect_ordered(|_| Ok(()), |_| Ok(())) {
            Ok(completions) => assert_eq!(completions.len(), 2),
            Err(e) => assert!(e.to_string().contains("shut down"), "{e}"),
        }
    }
}
