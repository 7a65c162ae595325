//! `padc-harness` — the suite scheduler. [`Pool::run`], behind `repro`,
//! `padcsim --suite` and `padcsim serve`, runs every job as one flat plan:
//!
//! 1. the calling thread plans each [`JobSpec`] in job order: a
//!    [`Plan`] is the job's [`Unit`]s plus a reduce to its row payload;
//! 2. one map dedupes units by key, and the first job to plan a unit owns it;
//! 3. each distinct unit is queued, in plan order, for the N workers, which
//!    [`Work::load`] it and [`Work::compute`] it only if that finds nothing;
//! 4. once its units settled and every earlier row is out, a job is reduced
//!    on the calling thread and its row emitted, so rows stream in job order.
//!
//! A panicking unit fails every job that planned it, a panicking plan or
//! reduce only its own, and no caught panic reaches stderr. Rows carry no
//! timing, so any `--jobs` writes the same bytes:
//!
//! ```json
//! {"id":"fig6","status":"ok","result":<payload>}
//! {"id":"boom","status":"panicked","error":"<panic message>"}
//! {"id":"slow","status":"over_budget","budget_seconds":60,"result":<payload>}
//! ```
//!
//! No dependencies: adding the crate to a package adds none to its lockfile.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::HashMap;
use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard, Once, PoisonError};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// A unit's result, shared by every job that planned the unit.
pub type Output = Arc<dyn Any + Send + Sync>;

/// What a unit runs, on a pool worker.
pub trait Work: Send {
    /// Resolves the unit without computing it (a store hit, say).
    fn load(&self) -> Option<Output> {
        None
    }
    /// Computes the unit.
    fn compute(&self) -> Output;
}

/// A closure is a unit that always computes.
impl<F: Fn() -> Output + Send> Work for F {
    fn compute(&self) -> Output {
        self()
    }
}

/// One planned unit of a job.
pub struct Unit {
    /// Units with equal keys, in any jobs of one run, run once.
    pub key: Option<[u8; 32]>,
    /// What the unit runs.
    pub work: Box<dyn Work>,
}

/// One of a job's settled units, as its reduce sees it.
pub struct Settled {
    /// The unit's output.
    pub output: Output,
    /// Whether the pool ran this planned unit, not an earlier duplicate.
    pub owned: bool,
}

/// Folds a job's settled units, in plan order, into its row payload.
pub type Reduce = Box<dyn FnOnce(&[Settled]) -> String>;

/// A job's units, and the reduce that runs on the calling thread.
pub struct Plan {
    /// The units, in plan order.
    pub units: Vec<Unit>,
    /// The reduce.
    pub reduce: Reduce,
}

/// One job of a suite; each [`Pool::run`] plans it afresh.
#[derive(Clone)]
pub struct JobSpec {
    /// Stable identifier; keys the output row (e.g. `"fig6"`).
    pub id: String,
    /// Plans the job; deterministic, as its units and reduce must be.
    pub plan: Arc<dyn Fn() -> Plan + Send + Sync>,
}

impl JobSpec {
    /// A job from its plan.
    pub fn planned(id: impl Into<String>, plan: impl Fn() -> Plan + Send + Sync + 'static) -> Self {
        JobSpec {
            id: id.into(),
            plan: Arc::new(plan),
        }
    }

    /// A job of one unkeyed unit that returns the payload; `run` executes
    /// on a worker like any unit.
    pub fn new(id: impl Into<String>, run: impl Fn() -> String + Send + Sync + 'static) -> Self {
        let run = Arc::new(run);
        JobSpec::planned(id, move || {
            let run = Arc::clone(&run);
            Plan {
                units: vec![Unit {
                    key: None,
                    work: Box::new(move || Arc::new(run()) as Output),
                }],
                reduce: Box::new(|settled| {
                    let payload = settled[0].output.downcast_ref::<String>();
                    payload.expect("the unit returns the payload").clone()
                }),
            }
        })
    }
}

/// Pool and accounting knobs of [`run_suite`]; the default is every core,
/// no budget and no progress lines.
#[derive(Clone, Debug, Default)]
pub struct HarnessConfig {
    /// Worker threads; `0` means `available_parallelism()`.
    pub workers: usize,
    /// Optional budget on each [`CompletedJob::seconds`]; over is failed.
    pub budget: Option<Duration>,
    /// Emit done/total + ETA progress lines.
    pub progress: bool,
}

/// How one job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed normally.
    Ok,
    /// Panicked; the panic message is in [`CompletedJob::error`].
    Panicked,
    /// Completed but exceeded the configured budget.
    OverBudget,
}

impl JobStatus {
    /// The status string used in JSONL rows (and summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Panicked => "panicked",
            JobStatus::OverBudget => "over_budget",
        }
    }
}

/// One finished job, with its exact JSONL row bytes.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// Job id.
    pub id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// The JSONL row, trailing newline included.
    pub row: String,
    /// Panic / over-budget message, when failed.
    pub error: Option<String>,
    /// Wall-clock seconds of the units the job owns plus its reduce.
    pub seconds: f64,
}

/// Run-level accounting returned by [`Pool::run`] and [`run_suite`].
#[derive(Clone, Debug)]
pub struct Summary {
    /// Per-job completions, in job order.
    pub outcomes: Vec<CompletedJob>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Keyed units computed (not loaded) on the pool.
    pub subjobs_executed: u64,
    /// Peak number of keyed units computing at once (at most `workers`).
    pub subjobs_peak_concurrent: u64,
}

impl Summary {
    /// Jobs that completed normally.
    pub fn ok(&self) -> usize {
        let ok = self.outcomes.iter().filter(|o| o.status == JobStatus::Ok);
        ok.count()
    }

    /// Jobs recorded as failures (panicked or over budget).
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.ok()
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The threads inside [`caught`], for which the panic hook stays quiet.
static CATCHING: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

fn catching() -> MutexGuard<'static, Vec<ThreadId>> {
    CATCHING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f`, turning a panic into its message without printing it.
fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        #[cfg(test)]
        tests::HOOK_INSTALLS.fetch_add(1, Relaxed);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !catching().contains(&thread::current().id()) {
                prev(info);
            }
        }));
    });
    let me = thread::current().id();
    catching().push(me);
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let mut threads = catching();
    let i = threads.iter().position(|t| *t == me).expect("pushed above");
    threads.swap_remove(i);
    result.map_err(|p| {
        let text = p.downcast_ref::<String>().map(String::as_str);
        let text = text.or_else(|| p.downcast_ref::<&str>().copied());
        text.unwrap_or("<non-string panic payload>").to_string()
    })
}

/// A queued unit, boxed for the workers.
type Task = Box<dyn FnOnce() + Send>;

/// A settled unit: its output, or its panic message.
type UnitResult = Result<Output, String>;

/// N persistent worker threads fed by one FIFO queue. [`run_suite`] starts
/// one per call; `padcsim serve` keeps one for the process.
pub struct Pool {
    /// The queue's sending end; dropping it stops the workers.
    queue: Option<mpsc::Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Starts `workers` threads (`0` means `available_parallelism()`).
    /// Fails, naming the count, when the OS refuses one; the workers
    /// already started are stopped and joined first.
    pub fn new(workers: usize) -> io::Result<Pool> {
        let count = match workers {
            0 => thread::available_parallelism().map_or(1, |p| p.get()),
            n => n,
        };
        let (queue, tasks) = mpsc::channel::<Task>();
        let tasks = Arc::new(Mutex::new(tasks));
        let mut pool = Pool {
            queue: Some(queue),
            workers: Vec::new(),
        };
        // A thread allocates as it starts (its signal stack, thread-locals),
        // and the runtime cannot report that failing. So each worker is
        // spawned only once 33 MiB of address space proved free (glibc maps
        // a request over 32 MiB, the 64-bit ceiling of `M_MMAP_THRESHOLD` in
        // mallopt(3), afresh unless its heap holds that much free), and
        // finishes starting before the next probe: running out fails a
        // spawn, here.
        let started = Arc::new(Barrier::new(2));
        for w in 0..count {
            let (tasks, ready) = (Arc::clone(&tasks), Arc::clone(&started));
            let room = Vec::<u8>::new().try_reserve_exact(33 << 20); // freed before the spawn
            let spawned = room.map_err(io::Error::other).and_then(|()| {
                let name = format!("padc-job-worker-{w}");
                thread::Builder::new().name(name).spawn(move || {
                    ready.wait();
                    loop {
                        let tasks = tasks.lock().unwrap_or_else(PoisonError::into_inner);
                        let Ok(task) = tasks.recv() else {
                            return; // the pool closed, and nothing is left
                        };
                        drop(tasks);
                        task();
                    }
                })
            });
            // On an error, dropping `pool` stops and joins the `w` running.
            pool.workers.push(spawned.map_err(|e| {
                let msg = format!("cannot start {count} worker threads: worker {w} failed: {e}");
                io::Error::new(e.kind(), msg)
            })?);
            started.wait();
        }
        Ok(pool)
    }

    /// Runs `jobs` as one flat plan (see the crate docs), handing each
    /// completed job to `on_row` in job order as soon as it can. The first
    /// error of `on_row` ends the run: units not started by then never run.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        budget: Option<Duration>,
        mut on_row: impl FnMut(&CompletedJob) -> io::Result<()>,
    ) -> io::Result<Summary> {
        let started = Instant::now();
        let (done_tx, done_rx) = mpsc::channel::<(usize, UnitResult, f64)>();
        let stop = Arc::new(AtomicBool::new(false));
        // Keyed units computing now, their peak, and the total computed.
        let counters: Arc<[AtomicU64; 3]> = Arc::default();
        let mut slot_of: HashMap<[u8; 32], usize> = HashMap::new();
        // Per distinct unit: the job that planned it first, and its result.
        let (mut owner, mut results) = (Vec::new(), Vec::<Option<UnitResult>>::new());
        let mut plans = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            let (units, reduce) = match caught(|| (job.plan)()) {
                Ok(plan) => (plan.units, Ok(plan.reduce)),
                Err(msg) => (Vec::new(), Err(msg)),
            };
            // Each planned unit's slot, and whether this planned unit made it.
            let mut planned = Vec::with_capacity(units.len());
            for unit in units {
                let new = owner.len(); // the slot of a unit not seen before
                let slot = unit.key.map_or(new, |k| *slot_of.entry(k).or_insert(new));
                planned.push((slot, slot == new));
                if slot < new {
                    continue;
                }
                owner.push(j);
                results.push(None);
                let (done_tx, stop, counters) =
                    (done_tx.clone(), Arc::clone(&stop), Arc::clone(&counters));
                let task = move || {
                    if stop.load(Relaxed) {
                        return;
                    }
                    let start = Instant::now();
                    let result = caught(|| unit.work.load()).and_then(|loaded| match loaded {
                        Some(output) => Ok(output),
                        None if unit.key.is_none() => caught(|| unit.work.compute()),
                        None => {
                            let [active, peak, executed] = &*counters;
                            peak.fetch_max(active.fetch_add(1, Relaxed) + 1, Relaxed);
                            let computed = caught(|| unit.work.compute());
                            active.fetch_sub(1, Relaxed);
                            executed.fetch_add(1, Relaxed);
                            computed
                        }
                    });
                    // The run is gone only if `on_row` failed.
                    let _ = done_tx.send((slot, result, start.elapsed().as_secs_f64()));
                };
                let queue = self.queue.as_ref().expect("open until the pool drops");
                queue.send(Box::new(task)).expect("workers run");
            }
            plans.push((planned, reduce));
        }

        let mut seconds = vec![0.0; jobs.len()];
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (j, (planned, reduce)) in plans.into_iter().enumerate() {
            for &(slot, _) in &planned {
                while results[slot].is_none() {
                    let (done, result, secs) = done_rx.recv().expect("queued units settle");
                    seconds[owner[done]] += secs;
                    results[done] = Some(result);
                }
            }
            let start = Instant::now();
            let outcome = reduce.and_then(|reduce| {
                let mut settled = Vec::with_capacity(planned.len());
                for (slot, owned) in planned {
                    match results[slot].as_ref().expect("settled above") {
                        Ok(output) => settled.push(Settled {
                            output: Arc::clone(output),
                            owned,
                        }),
                        Err(msg) => return Err(msg.clone()),
                    }
                }
                caught(|| reduce(&settled))
            });
            let seconds = seconds[j] + start.elapsed().as_secs_f64();
            let completed = complete(&jobs[j].id, outcome, seconds, budget);
            if let Err(e) = on_row(&completed) {
                stop.store(true, Relaxed);
                return Err(e);
            }
            outcomes.push(completed);
        }
        Ok(Summary {
            outcomes,
            workers: self.workers.len(),
            wall_seconds: started.elapsed().as_secs_f64(),
            subjobs_executed: counters[2].load(Relaxed),
            subjobs_peak_concurrent: counters[1].load(Relaxed),
        })
    }
}

/// Closes the queue and joins the workers.
impl Drop for Pool {
    fn drop(&mut self) {
        self.queue = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A job's status, row and error from its payload or panic message.
fn complete(
    id: &str,
    outcome: Result<String, String>,
    seconds: f64,
    budget: Option<Duration>,
) -> CompletedJob {
    let over = budget.filter(|b| seconds > b.as_secs_f64());
    let (status, detail, error) = match (outcome, over) {
        (Err(msg), _) => (
            JobStatus::Panicked,
            format!("\"error\":{}", json_string(&msg)),
            Some(msg),
        ),
        (Ok(payload), None) => (JobStatus::Ok, format!("\"result\":{payload}"), None),
        (Ok(payload), Some(b)) => (
            JobStatus::OverBudget,
            format!("\"budget_seconds\":{},\"result\":{payload}", b.as_secs()),
            Some(format!("exceeded {}s budget ({seconds:.1}s)", b.as_secs())),
        ),
    };
    let row = format!(
        "{{\"id\":{},\"status\":\"{}\",{detail}}}\n",
        json_string(id),
        status.as_str()
    );
    CompletedJob {
        id: id.to_string(),
        status,
        row,
        error,
        seconds,
    }
}

/// Runs `jobs` on a fresh [`Pool`] of `cfg.workers` threads, streaming
/// JSONL rows (in job order) to `jsonl` and one progress line per row to
/// `progress`. Fails as [`Pool::new`] does, or as [`Pool::run`] does with
/// an I/O error of either sink.
pub fn run_suite(
    jobs: &[JobSpec],
    cfg: &HarnessConfig,
    mut jsonl: Option<&mut dyn Write>,
    progress: &mut dyn Write,
) -> io::Result<Summary> {
    let started = Instant::now();
    let pool = Pool::new(cfg.workers)?;
    let total = jobs.len();
    let mut done = 0usize;
    let summary = pool.run(jobs, cfg.budget, |c| {
        done += 1;
        if cfg.progress {
            let (id, status, secs) = (&c.id, c.status.as_str(), c.seconds);
            let elapsed = started.elapsed().as_secs_f64();
            let eta = elapsed / done as f64 * (total - done) as f64;
            writeln!(
                progress,
                "[{done:>3}/{total}] {id:<10} {status:<11} {secs:>7.1}s | elapsed {elapsed:>7.1}s eta {eta:>7.1}s",
            )?;
        }
        let row = c.row.as_bytes();
        jsonl.as_deref_mut().map_or(Ok(()), |sink| sink.write_all(row))
    })?;
    jsonl.map_or(Ok(()), |sink| sink.flush())?;
    Ok(Summary {
        wall_seconds: started.elapsed().as_secs_f64(),
        ..summary
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize) -> HarnessConfig {
        HarnessConfig {
            workers,
            budget: None,
            progress: true,
        }
    }

    /// The JSONL, the progress lines and the summary of a suite.
    fn suite(jobs: &[JobSpec], cfg: &HarnessConfig) -> (String, String, Summary) {
        let (mut jsonl, mut progress) = (Vec::new(), Vec::new());
        let summary = run_suite(jobs, cfg, Some(&mut jsonl), &mut progress).expect("io ok");
        let text = |bytes| String::from_utf8(bytes).expect("utf8");
        (text(jsonl), text(progress), summary)
    }

    /// Later jobs finish first on several workers; the rows still come in
    /// job order, the same bytes as on 1 worker, each with a progress line.
    /// An empty job list is an empty run on as many workers as asked for.
    #[test]
    fn rows_are_in_job_order_on_any_worker_count() {
        let job = |i: u64| {
            JobSpec::new(format!("job{i}"), move || {
                thread::sleep(Duration::from_millis(5 * (6 - i)));
                format!("{{\"v\":{i}}}")
            })
        };
        let jobs: Vec<JobSpec> = (0..6).map(job).collect();
        let (seq, progress, _) = suite(&jobs, &cfg(1));
        let (par, _, _) = suite(&jobs, &cfg(0));
        assert_eq!(seq, par, "JSONL must be byte-identical across -j");
        let row = |i| format!("{{\"id\":\"job{i}\",\"status\":\"ok\",\"result\":{{\"v\":{i}}}}}\n");
        assert_eq!(seq, (0..6).map(row).collect::<String>());
        let (none, _, empty) = suite(&[], &cfg(3));
        assert_eq!((none.len(), empty.outcomes.len(), empty.workers), (0, 0, 3));
        assert!(progress.starts_with("[  1/6] job0 "), "{progress}");
        assert!(progress.contains("[  6/6] job5 ") && progress.contains("eta"));
    }

    /// A sink error ends the run, and the units still queued never run:
    /// running all 16 would take the calling thread stalling for 15 x 20 ms.
    #[test]
    fn failing_jsonl_sink_returns_err_without_running_the_queued_jobs() {
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<JobSpec> = (0..16)
            .map(|i| {
                let ran = Arc::clone(&ran);
                JobSpec::new(format!("job{i}"), move || {
                    ran.fetch_add(1, Relaxed);
                    thread::sleep(Duration::from_millis(if i > 0 { 20 } else { 0 }));
                    "1".to_string()
                })
            })
            .collect();
        // An empty slice fails the first write.
        let mut full: &mut [u8] = &mut [];
        let err = run_suite(&jobs, &cfg(1), Some(&mut full), &mut io::sink())
            .expect_err("the sink error must surface");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let ran = ran.load(Relaxed);
        assert!((1..16).contains(&ran), "{ran} of 16 jobs ran");
    }

    /// How many times this process wrapped the panic hook.
    pub(super) static HOOK_INSTALLS: AtomicU64 = AtomicU64::new(0);

    /// Two suites overlap (a barrier holds a job of each until both run),
    /// one of them with a panicking job: both settle with structured rows,
    /// and the process-wide hook was wrapped once, not once per suite.
    #[test]
    fn overlapping_suites_share_one_panic_filter() {
        let both_running = Arc::new(Barrier::new(2));
        let run = |id: &'static str, panics: bool| {
            let both_running = Arc::clone(&both_running);
            let meet = JobSpec::new(format!("{id}-meet"), move || {
                both_running.wait();
                "1".to_string()
            });
            let next = JobSpec::new(format!("{id}-next"), move || {
                assert!(!panics, "injected");
                "2".to_string()
            });
            move || suite(&[meet, next], &cfg(1))
        };
        let ((a, _, sa), (b, _, sb)) = thread::scope(|s| {
            let (a, b) = (s.spawn(run("a", true)), s.spawn(run("b", false)));
            (a.join().expect("suite a"), b.join().expect("suite b"))
        });
        let ok = |id, v| format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"result\":{v}}}\n");
        let boom = "{\"id\":\"a-next\",\"status\":\"panicked\",\"error\":\"injected\"}\n";
        assert_eq!(a, ok("a-meet", 1) + boom);
        assert_eq!(b, ok("b-meet", 1) + &ok("b-next", 2));
        assert_eq!([sa.ok(), sa.failed(), sb.ok(), sb.failed()], [1, 1, 2, 0]);
        assert_eq!(HOOK_INSTALLS.load(Relaxed), 1);
    }

    /// A keyed fake unit: `+` loads, `!` panics. Its gauge counts computes,
    /// those running, and the most running at once.
    struct Fake(&'static str, Arc<[AtomicU64; 3]>);

    impl Work for Fake {
        fn load(&self) -> Option<Output> {
            self.0.ends_with('+').then(|| Arc::new(self.0) as Output)
        }
        fn compute(&self) -> Output {
            let [computes, now, most] = &*self.1;
            computes.fetch_add(1, Relaxed);
            most.fetch_max(now.fetch_add(1, Relaxed) + 1, Relaxed);
            thread::sleep(Duration::from_millis(20));
            now.fetch_sub(1, Relaxed);
            assert!(!self.0.ends_with('!'), "unit {} exploded", self.0);
            Arc::new(self.0)
        }
    }

    /// Runs jobs of fakes on `workers`, each payload listing its units'
    /// names (`*` marks the owned ones), and reads the gauge.
    fn fakes(workers: usize, jobs: &[&'static [&'static str]]) -> (String, Summary, [u64; 3]) {
        let gauge: Arc<[AtomicU64; 3]> = Arc::default();
        let jobs: Vec<JobSpec> = (0..jobs.len())
            .map(|j| {
                let (units, gauge) = (jobs[j], Arc::clone(&gauge));
                JobSpec::planned(format!("j{j}"), move || Plan {
                    units: (units.iter())
                        .map(|name| Unit {
                            key: Some([name.as_bytes()[0]; 32]),
                            work: Box::new(Fake(name, Arc::clone(&gauge))),
                        })
                        .collect(),
                    reduce: Box::new(|settled| {
                        let names = settled.iter().map(|s| {
                            let name = s.output.downcast_ref::<&str>().expect("a name");
                            format!("\"{}{name}\"", if s.owned { "*" } else { "" })
                        });
                        format!("[{}]", names.collect::<Vec<_>>().join(","))
                    }),
                })
            })
            .collect();
        let (jsonl, _, summary) = suite(&jobs, &cfg(workers));
        let gauge = gauge.each_ref().map(|a| a.load(Relaxed));
        (jsonl, summary, gauge)
    }

    /// `x!`, planned by jobs 0 and 2, panics: it runs once and fails
    /// exactly its two planners with its message. `a`, planned three
    /// times, runs and is owned once; `s+` loads, so it is not computed;
    /// the rows are the same on 1 and on 4 workers, where units overlap
    /// up to the worker bound.
    #[test]
    fn a_shared_failing_unit_fails_exactly_its_planners() {
        let jobs: [&[&str]; 3] = [&["a", "x!"], &["a", "s+", "b", "a"], &["x!", "c", "d"]];
        let (jsonl, summary, [computes, _, most]) = fakes(1, &jobs);
        assert_eq!((computes, summary.subjobs_executed, most), (5, 5, 1));
        assert_eq!(
            jsonl,
            "{\"id\":\"j0\",\"status\":\"panicked\",\"error\":\"unit x! exploded\"}\n\
             {\"id\":\"j1\",\"status\":\"ok\",\"result\":[\"a\",\"*s+\",\"*b\",\"a\"]}\n\
             {\"id\":\"j2\",\"status\":\"panicked\",\"error\":\"unit x! exploded\"}\n"
        );
        let (par, par_summary, [par_computes, _, most]) = fakes(4, &jobs);
        assert_eq!(par, jsonl, "rows differ between 1 and 4 workers");
        assert_eq!((par_computes, par_summary.subjobs_executed), (5, 5));
        assert_eq!(most, par_summary.subjobs_peak_concurrent);
        assert!((2..=4).contains(&most), "{most} units computed at once");
    }

    /// A panicking plan and a panicking reduce each fail only their job,
    /// a job over budget is recorded with its result, and the pool runs
    /// again afterwards.
    #[test]
    fn a_plan_or_reduce_panic_fails_only_its_job() {
        let pool = Pool::new(2).expect("spawn workers");
        let jobs = [
            JobSpec::planned("plan", || panic!("no plan")),
            JobSpec::new("slow", || {
                thread::sleep(Duration::from_millis(20));
                "{}".to_string()
            }),
            JobSpec::planned("reduce", || Plan {
                units: Vec::new(),
                reduce: Box::new(|_| panic!("no reduce")),
            }),
        ];
        for _ in 0..2 {
            let mut rows = String::new();
            let summary = pool.run(&jobs, Some(Duration::from_millis(1)), |c| {
                rows.push_str(&c.row);
                Ok(())
            });
            assert_eq!(summary.expect("no sink").failed(), 3);
            assert_eq!(
                rows,
                "{\"id\":\"plan\",\"status\":\"panicked\",\"error\":\"no plan\"}\n\
                 {\"id\":\"slow\",\"status\":\"over_budget\",\"budget_seconds\":0,\"result\":{}}\n\
                 {\"id\":\"reduce\",\"status\":\"panicked\",\"error\":\"no reduce\"}\n"
            );
        }
    }
}
