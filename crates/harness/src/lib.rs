//! `padc-harness` — the suite scheduler. [`run_suite`], behind `repro`,
//! runs every job as one flat plan on N worker threads that live for the
//! call:
//!
//! 1. the calling thread plans each [`JobSpec`] in job order: a
//!    [`Plan`] is the job's keyed [`Unit`]s plus a reduce to its row payload
//!    (a reduce over zero units builds its payload on the calling thread);
//! 2. one map dedupes units by key, and the first job to plan a unit owns it;
//! 3. each distinct unit is queued, in plan order, for the N workers, which
//!    [`Work::load`] it and [`Work::compute`] it only if that finds nothing;
//! 4. once its units settled and every earlier row is out, a job is reduced
//!    on the calling thread and its row emitted, so rows stream in job order.
//!
//! The suite is typed by its [`Work`]: workers take `(slot, Box<W>)` off the
//! queue, and a reduce borrows each `W::Output` from the run's result table.
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

use std::collections::HashMap;
use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard, Once, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// What a unit runs, on a suite worker.
pub trait Work: Send {
    /// The unit's result, which every job that planned the unit reads.
    type Output: Send;
    /// Resolves the unit without computing it (a store hit, say).
    fn load(&self) -> Option<Self::Output> {
        None
    }
    /// Computes the unit.
    fn compute(&self) -> Self::Output;
}

/// One planned unit of a job.
pub struct Unit<W> {
    /// Units with equal keys, in any jobs of one run, run once.
    pub key: [u8; 32],
    /// What the unit runs.
    pub work: W,
}

/// One of a job's settled units, as its reduce sees it.
pub struct Settled<'a, W: Work> {
    /// The unit's output.
    pub output: &'a W::Output,
    /// Whether the run resolved this planned unit, not an earlier duplicate.
    pub owned: bool,
}

/// Folds a job's settled units, in plan order, into its row payload.
pub type Reduce<W> = Box<dyn FnOnce(&[Settled<'_, W>]) -> String>;

/// A job's units, and the reduce that runs on the calling thread.
pub struct Plan<W: Work> {
    /// The units, in plan order.
    pub units: Vec<Unit<W>>,
    /// The reduce.
    pub reduce: Reduce<W>,
}

/// One job of a suite; each [`run_suite`] call plans it afresh.
pub struct JobSpec<W: Work> {
    /// Stable identifier; keys the output row (e.g. `"fig6"`).
    pub id: String,
    /// Plans the job; deterministic, as its units and reduce must be.
    pub plan: Box<dyn Fn() -> Plan<W> + Send + Sync>,
}

impl<W: Work> JobSpec<W> {
    /// A job from its plan.
    pub fn new(id: impl Into<String>, plan: impl Fn() -> Plan<W> + Send + Sync + 'static) -> Self {
        JobSpec {
            id: id.into(),
            plan: Box::new(plan),
        }
    }
}

/// Worker and accounting knobs of [`run_suite`]; the default is every core,
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

/// One finished job.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// Job id.
    pub id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Panic / over-budget message, when failed.
    pub error: Option<String>,
    /// Wall-clock seconds of the units the job owns plus its reduce.
    pub seconds: f64,
}

/// Run-level accounting returned by [`run_suite`].
#[derive(Clone, Debug)]
pub struct Summary {
    /// Per-job completions, in job order.
    pub outcomes: Vec<CompletedJob>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Units computed (not loaded) on the workers.
    pub subjobs_executed: u64,
    /// Peak number of units computing at once (at most `workers`).
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

/// A settled unit: its output, boxed on the worker, or its panic message.
/// A channel allocates its messages in blocks of 31, so the run's channels
/// carry units and outputs boxed: by value, simulation reports raised a cold
/// suite's peak RSS by 2.5%, and simulation units a warm suite's by 0.1%.
type UnitResult<T> = Result<Box<T>, String>;

/// Runs `jobs` as one flat plan (see the crate docs) on `cfg.workers`
/// threads that live for this call, streaming each JSONL row (in job order,
/// as soon as it can) to `jsonl` and one progress line per row to
/// `progress`. Fails, naming the count, when the OS refuses a worker; the
/// first I/O error of either sink ends the run, and units not started by
/// then never run.
pub fn run_suite<W: Work>(
    jobs: &[JobSpec<W>],
    cfg: &HarnessConfig,
    mut jsonl: Option<&mut dyn Write>,
    progress: &mut dyn Write,
) -> io::Result<Summary> {
    let started = Instant::now();
    let workers = match cfg.workers {
        0 => thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    };
    let (done_tx, done_rx) = mpsc::channel::<(usize, UnitResult<W::Output>, f64)>();
    let stop = AtomicBool::new(false);
    // Units computing now, their peak, and the total computed.
    let counters: [AtomicU64; 3] = Default::default();
    let (queue, units) = mpsc::channel::<(usize, Box<W>)>();
    let units = Mutex::new(units);
    let ready = Barrier::new(2);
    // Returning from the scope drops `queue`: the workers run out of units,
    // stop, and are joined before `run_suite` returns.
    thread::scope(|s| {
        let queue = queue;
        // A thread allocates as it starts (its signal stack, thread-locals),
        // and the runtime cannot report that failing. So each worker is
        // spawned only once 33 MiB of address space proved free (glibc maps
        // a request over 32 MiB, the 64-bit ceiling of `M_MMAP_THRESHOLD` in
        // mallopt(3), afresh unless its heap holds that much free), and
        // finishes starting before the next probe: running out fails a
        // spawn, here.
        for w in 0..workers {
            let room = Vec::<u8>::new().try_reserve_exact(33 << 20); // freed before the spawn
            let spawned = room.map_err(io::Error::other).and_then(|()| {
                let name = format!("padc-job-worker-{w}");
                let (units, done_tx, stop, ready) = (&units, &done_tx, &stop, &ready);
                let [active, peak, executed] = &counters;
                thread::Builder::new().name(name).spawn_scoped(s, move || {
                    ready.wait();
                    loop {
                        let unit = units.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok((slot, work)) = unit else {
                            return; // the run is over, and nothing is left
                        };
                        if stop.load(Relaxed) {
                            continue;
                        }
                        let start = Instant::now();
                        let result = caught(|| work.load()).and_then(|loaded| match loaded {
                            Some(output) => Ok(output),
                            None => {
                                peak.fetch_max(active.fetch_add(1, Relaxed) + 1, Relaxed);
                                let computed = caught(|| work.compute());
                                active.fetch_sub(1, Relaxed);
                                executed.fetch_add(1, Relaxed);
                                computed
                            }
                        });
                        let elapsed = start.elapsed().as_secs_f64();
                        done_tx
                            .send((slot, result.map(Box::new), elapsed))
                            .expect("the run outlives its units");
                    }
                })
            });
            spawned.map_err(|e| {
                let msg = format!("cannot start {workers} worker threads: worker {w} failed: {e}");
                io::Error::new(e.kind(), msg)
            })?;
            ready.wait();
        }

        let mut slot_of: HashMap<[u8; 32], usize> = HashMap::new();
        // Per distinct unit: the job that planned it first, and its result.
        let mut owner = Vec::new();
        let mut results = Vec::<Option<UnitResult<W::Output>>>::new();
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
                let slot = *slot_of.entry(unit.key).or_insert(new);
                planned.push((slot, slot == new));
                if slot == new {
                    owner.push(j);
                    results.push(None);
                    queue
                        .send((slot, Box::new(unit.work)))
                        .expect("the workers outlive the run");
                }
            }
            plans.push((planned, reduce));
        }

        let total = jobs.len();
        let mut emit = |c: &CompletedJob, row: &str, done: usize| -> io::Result<()> {
            if cfg.progress {
                let (id, status, secs) = (&c.id, c.status.as_str(), c.seconds);
                let elapsed = started.elapsed().as_secs_f64();
                let eta = elapsed / done as f64 * (total - done) as f64;
                writeln!(
                    progress,
                    "[{done:>3}/{total}] {id:<10} {status:<11} {secs:>7.1}s | elapsed {elapsed:>7.1}s eta {eta:>7.1}s",
                )?;
            }
            jsonl
                .as_deref_mut()
                .map_or(Ok(()), |sink| sink.write_all(row.as_bytes()))
        };
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
                            output: &**output,
                            owned,
                        }),
                        Err(msg) => return Err(msg.clone()),
                    }
                }
                caught(|| reduce(&settled))
            });
            let seconds = seconds[j] + start.elapsed().as_secs_f64();
            let (completed, row) = complete(&jobs[j].id, outcome, seconds, cfg.budget);
            if let Err(e) = emit(&completed, &row, j + 1) {
                stop.store(true, Relaxed);
                return Err(e);
            }
            outcomes.push(completed);
        }
        jsonl.map_or(Ok(()), |sink| sink.flush())?;
        Ok(Summary {
            outcomes,
            workers,
            wall_seconds: started.elapsed().as_secs_f64(),
            subjobs_executed: counters[2].load(Relaxed),
            subjobs_peak_concurrent: counters[1].load(Relaxed),
        })
    })
}

/// A job's outcome and its JSONL row, from its payload or panic message.
fn complete(
    id: &str,
    outcome: Result<String, String>,
    seconds: f64,
    budget: Option<Duration>,
) -> (CompletedJob, String) {
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
    let completed = CompletedJob {
        id: id.to_string(),
        status,
        error,
        seconds,
    };
    (completed, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg(workers: usize) -> HarnessConfig {
        HarnessConfig {
            workers,
            budget: None,
            progress: true,
        }
    }

    /// The JSONL, the progress lines and the summary of a suite.
    fn suite(jobs: &[JobSpec<Fake>], cfg: &HarnessConfig) -> (String, String, Summary) {
        let (mut jsonl, mut progress) = (Vec::new(), Vec::new());
        let summary = run_suite(jobs, cfg, Some(&mut jsonl), &mut progress).expect("io ok");
        let text = |bytes| String::from_utf8(bytes).expect("utf8");
        (text(jsonl), text(progress), summary)
    }

    /// Computes, units computing now, and the most computing at once.
    type Gauge = Arc<[AtomicU64; 3]>;

    /// A fake unit keyed by its name: `+` loads, `!` panics, and a compute
    /// sleeps `ms` milliseconds and reads on the gauge.
    struct Fake {
        name: &'static str,
        ms: u64,
        gauge: Gauge,
    }

    impl Work for Fake {
        type Output = &'static str;
        fn load(&self) -> Option<&'static str> {
            self.name.ends_with('+').then_some(self.name)
        }
        fn compute(&self) -> &'static str {
            let [computes, now, most] = &*self.gauge;
            computes.fetch_add(1, Relaxed);
            most.fetch_max(now.fetch_add(1, Relaxed) + 1, Relaxed);
            thread::sleep(Duration::from_millis(self.ms));
            now.fetch_sub(1, Relaxed);
            assert!(!self.name.ends_with('!'), "unit {} exploded", self.name);
            self.name
        }
    }

    /// Fake names, for jobs numbered from 0.
    const NAMES: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];

    /// A job `id` of fake units, each `(name, ms)`, whose payload lists its
    /// units' names (`*` marks the owned ones).
    fn job(id: impl Into<String>, units: Vec<(&'static str, u64)>, gauge: &Gauge) -> JobSpec<Fake> {
        let gauge = Arc::clone(gauge);
        JobSpec::new(id, move || Plan {
            units: (units.iter())
                .map(|&(name, ms)| {
                    let mut key = [0; 32];
                    key[..name.len()].copy_from_slice(name.as_bytes());
                    let gauge = Arc::clone(&gauge);
                    let work = Fake { name, ms, gauge };
                    Unit { key, work }
                })
                .collect(),
            reduce: Box::new(|settled| {
                let names = settled
                    .iter()
                    .map(|s| format!("\"{}{}\"", if s.owned { "*" } else { "" }, s.output));
                format!("[{}]", names.collect::<Vec<_>>().join(","))
            }),
        })
    }

    /// Jobs `job0`..: job `i` is one unit, named `i`, that computes for
    /// `ms(i)` milliseconds.
    fn numbered(n: usize, ms: impl Fn(usize) -> u64, gauge: &Gauge) -> Vec<JobSpec<Fake>> {
        let job = |i| job(format!("job{i}"), vec![(NAMES[i], ms(i))], gauge);
        (0..n).map(job).collect()
    }

    /// Later jobs finish first on several workers; the rows still come in
    /// job order, the same bytes as on 1 worker, each with a progress line.
    /// An empty job list is an empty run on as many workers as asked for.
    #[test]
    fn rows_are_in_job_order_on_any_worker_count() {
        let jobs = numbered(6, |i| 5 * (6 - i as u64), &Gauge::default());
        let (seq, progress, _) = suite(&jobs, &cfg(1));
        let (par, _, _) = suite(&jobs, &cfg(0));
        assert_eq!(seq, par, "JSONL must be byte-identical across -j");
        let row = |i| format!("{{\"id\":\"job{i}\",\"status\":\"ok\",\"result\":[\"*{i}\"]}}\n");
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
        let gauge = Gauge::default();
        let jobs = numbered(16, |i| if i > 0 { 20 } else { 0 }, &gauge);
        // An empty slice fails the first write.
        let mut full: &mut [u8] = &mut [];
        let err = run_suite(&jobs, &cfg(1), Some(&mut full), &mut io::sink())
            .expect_err("the sink error must surface");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let ran = gauge[0].load(Relaxed);
        assert!((1..16).contains(&ran), "{ran} of 16 jobs ran");
    }

    /// How many times this process wrapped the panic hook.
    pub(super) static HOOK_INSTALLS: AtomicU64 = AtomicU64::new(0);

    /// Two suites overlap (a barrier holds a reduce of each until both
    /// run), one of them with a panicking unit: both settle with structured
    /// rows, and the process-wide hook was wrapped once, not once per suite.
    #[test]
    fn overlapping_suites_share_one_panic_filter() {
        let both_running = Arc::new(Barrier::new(2));
        let run = |id: &'static str, next: &'static str| {
            let both_running = Arc::clone(&both_running);
            let meet = JobSpec::new(format!("{id}-meet"), move || {
                let both_running = Arc::clone(&both_running);
                Plan {
                    units: Vec::new(),
                    reduce: Box::new(move |_| {
                        both_running.wait();
                        "1".to_string()
                    }),
                }
            });
            let next = job(format!("{id}-next"), vec![(next, 0)], &Gauge::default());
            move || suite(&[meet, next], &cfg(1))
        };
        let ((a, _, sa), (b, _, sb)) = thread::scope(|s| {
            let (a, b) = (s.spawn(run("a", "x!")), s.spawn(run("b", "y")));
            (a.join().expect("suite a"), b.join().expect("suite b"))
        });
        let ok = |id, v| format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"result\":{v}}}\n");
        let boom = "{\"id\":\"a-next\",\"status\":\"panicked\",\"error\":\"unit x! exploded\"}\n";
        assert_eq!(a, ok("a-meet", "1") + boom);
        assert_eq!(b, ok("b-meet", "1") + &ok("b-next", "[\"*y\"]"));
        assert_eq!([sa.ok(), sa.failed(), sb.ok(), sb.failed()], [1, 1, 2, 0]);
        assert_eq!(HOOK_INSTALLS.load(Relaxed), 1);
    }

    /// Runs jobs of 20 ms fakes on `workers` and reads the gauge.
    fn fakes(workers: usize, jobs: &[&[&'static str]]) -> (String, Summary, [u64; 3]) {
        let gauge = Gauge::default();
        let jobs: Vec<_> = (jobs.iter().enumerate())
            .map(|(j, names)| {
                job(
                    format!("j{j}"),
                    names.iter().map(|n| (*n, 20)).collect(),
                    &gauge,
                )
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

    /// Eight jobs of one 40 ms unit each finish at least 2x faster on 4
    /// workers than on 1: the workers overlap units (sleeping ones, so a
    /// 1-CPU host overlaps them too).
    #[test]
    fn four_workers_overlap_jobs_for_at_least_2x_speedup() {
        let jobs = numbered(8, |_| 40, &Gauge::default());
        let time = |workers| {
            let start = Instant::now();
            suite(&jobs, &cfg(workers));
            start.elapsed()
        };
        let (seq, par) = (time(1), time(4));
        assert!(
            seq.as_secs_f64() >= 2.0 * par.as_secs_f64(),
            "expected >=2x speedup with 4 workers: sequential {seq:?}, parallel {par:?}"
        );
    }

    /// A panicking plan and a panicking reduce each fail only their job,
    /// and a job over budget is recorded with its result.
    #[test]
    fn a_plan_or_reduce_panic_fails_only_its_job() {
        let jobs = [
            JobSpec::new("plan", || panic!("no plan")),
            job("slow", vec![("s", 20)], &Gauge::default()),
            JobSpec::new("reduce", || Plan {
                units: Vec::new(),
                reduce: Box::new(|_| panic!("no reduce")),
            }),
        ];
        let cfg = HarnessConfig {
            budget: Some(Duration::from_millis(1)),
            ..cfg(2)
        };
        let (rows, _, summary) = suite(&jobs, &cfg);
        assert_eq!(summary.failed(), 3);
        assert_eq!(
            rows,
            "{\"id\":\"plan\",\"status\":\"panicked\",\"error\":\"no plan\"}\n\
             {\"id\":\"slow\",\"status\":\"over_budget\",\"budget_seconds\":0,\"result\":[\"*s\"]}\n\
             {\"id\":\"reduce\",\"status\":\"panicked\",\"error\":\"no reduce\"}\n"
        );
    }
}
