//! Runs one workload from the outside: spawns the fresh processes, times
//! them, merges their checks and turns their samples into metrics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use padc_benchmark::calib::{self, Reference};
use padc_benchmark::gaps;
use padc_benchmark::result::{Checks, Metric, Span, SpanTotal, WorkloadResult};
use padc_benchmark::spec::{self, Kind, Sizes, Workload};
use padc_benchmark::stats::median;

use crate::child::ChildReport;

/// Fresh processes a sim workload's run is split over: each pays its own
/// set-up, so `setup_s` and `peak_rss_mb` are medians of this many.
const SIM_PROCESSES: usize = 3;
/// Untimed cold suite processes before the timed ones: the warm-up of
/// `suite-cold`, the population of `suite-warm`'s store. Each is a `setup_s`
/// sample.
const SUITE_SETUPS: usize = 3;

/// How one workload is to be run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Size preset.
    pub sizes: Sizes,
    /// Traced run: per-layer metrics, probes, one traced iteration.
    pub trace: bool,
    /// Run the untimed paper-gap pass on `suite-cold`.
    pub paper_gaps: bool,
}

/// Worker threads of the suite workloads: `nproc`, never more.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One finished child process.
struct Finished {
    report: ChildReport,
    /// Spawn to `READY`, host seconds.
    setup_s: f64,
    /// Spawn to exit, host seconds.
    wall_s: f64,
}

/// Arguments that differ between the children of one workload.
#[derive(Default)]
struct ChildSpec<'a> {
    seconds: f64,
    trace: bool,
    store: Option<&'a Path>,
    workers: usize,
    jsonl: Option<&'a Path>,
    paper_gaps: bool,
}

/// One workload being run: what to spawn, and everything collected so far.
/// Times are host seconds as measured; `finish` normalises them.
struct Runner<'a> {
    w: &'a Workload,
    opts: &'a RunOpts,
    reference: Reference,
    checks: Checks,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Instructions one iteration retires (sim workloads).
    instructions: u64,
    rss_mb: Vec<f64>,
    /// Every reference-kernel run that preceded a timed sample.
    ref_s: Vec<f64>,
    counters: BTreeMap<String, f64>,
    spans: Vec<Span>,
    span_totals: Vec<SpanTotal>,
}

/// Runs `w` and reports it.
///
/// # Errors
///
/// Returns a message when a process cannot be run or its output cannot be
/// read. A failed correctness check is part of the result, not an error.
pub fn run_workload(w: &Workload, opts: &RunOpts) -> Result<WorkloadResult, String> {
    let mut r = Runner {
        w,
        opts,
        reference: Reference::default(),
        checks: Checks::default(),
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        instructions: 0,
        rss_mb: Vec::new(),
        ref_s: Vec::new(),
        counters: BTreeMap::new(),
        spans: Vec::new(),
        span_totals: Vec::new(),
    };
    match w.kind {
        Kind::Sim(_) => r.sim()?,
        Kind::SuiteCold | Kind::SuiteWarm => {
            let dir = padc_benchmark::work_dir(w.name)
                .map_err(|e| format!("cannot create a work directory: {e}"))?;
            let done = r.suite(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            done?;
        }
    }
    Ok(r.finish())
}

impl Runner<'_> {
    /// Runs the reference kernel, then one child to completion.
    fn spawn(&mut self, spec: &ChildSpec) -> Result<Finished, String> {
        let name = self.w.name;
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["child", "--workload", name])
            .args(["--seed", &self.opts.seed.to_string()])
            .args(["--seconds", &spec.seconds.to_string()])
            .args(["--workers", &spec.workers.max(1).to_string()]);
        if self.opts.sizes.tiny {
            cmd.arg("--tiny");
        }
        if spec.trace {
            cmd.arg("--traced");
        }
        if spec.paper_gaps {
            cmd.arg("--paper-gaps");
        }
        if let Some(dir) = spec.store {
            cmd.arg("--store").arg(dir);
        }
        if let Some(path) = spec.jsonl {
            cmd.arg("--jsonl").arg(path);
        }
        // The simulator reads these; the benchmark's inputs are its arguments.
        cmd.env_remove("PADC_FAST_FORWARD").env_remove("PADC_STORE");
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());

        self.ref_s.push(self.reference.run());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut ready = None;
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("cannot read child output: {e}"))?;
            if ready.is_none() && line == "READY" {
                ready = Some(spawned.elapsed());
            } else if !line.trim().is_empty() {
                last = line;
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for child: {e}"))?;
        let wall = spawned.elapsed();
        if !status.success() {
            return Err(format!("child of {name} exited with {status}"));
        }
        let ready = ready.ok_or_else(|| format!("child of {name} never got ready"))?;
        Ok(Finished {
            report: serde_json::from_str(&last)
                .map_err(|e| format!("child of {name} printed no report: {e}"))?,
            setup_s: ready.as_secs_f64(),
            wall_s: wall.as_secs_f64(),
        })
    }

    /// Takes a measured child's checks, memory, counters and spans (the
    /// latest child's counters win: they are the same simulated events every
    /// time).
    fn absorb(&mut self, mut f: Finished) {
        self.checks.merge(&f.report.checks);
        self.rss_mb.push(f.report.rss_kb as f64 / 1024.0);
        self.counters.append(&mut f.report.counters);
        self.spans.append(&mut f.report.spans);
        self.span_totals.append(&mut f.report.span_totals);
    }

    fn sim(&mut self) -> Result<(), String> {
        // A traced run is one process: a few untraced iterations (the
        // overhead baseline), the traced one, then the probes.
        let processes = if self.opts.trace { 1 } else { SIM_PROCESSES };
        let mut crc = None;
        for _ in 0..processes {
            let f = self.spawn(&ChildSpec {
                seconds: self.opts.seconds / SIM_PROCESSES as f64,
                trace: self.opts.trace,
                ..ChildSpec::default()
            })?;
            self.setup_s.push(f.setup_s);
            self.wall_s
                .extend(f.report.iter_ns.iter().map(|&ns| ns as f64 / 1e9));
            self.ref_s.extend(&f.report.ref_s);
            self.instructions = f.report.instructions;
            match crc {
                Some(c) => self.checks.record(
                    "report_identical_across_processes",
                    c == f.report.output_crc,
                ),
                None => crc = Some(f.report.output_crc),
            }
            self.absorb(f);
        }
        if self.opts.trace {
            let mut probed = self.probes(None)?;
            self.counters.append(&mut probed);
        }
        Ok(())
    }

    /// One suite process against an emptied store.
    fn cold(&mut self, store: &Path, jsonl: &Path, workers: usize) -> Result<Finished, String> {
        match std::fs::remove_dir_all(store) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("cannot wipe {}: {e}", store.display()));
            }
            _ => {}
        }
        self.spawn(&ChildSpec {
            store: Some(store),
            workers,
            jsonl: Some(jsonl),
            ..ChildSpec::default()
        })
    }

    fn suite(&mut self, dir: &Path) -> Result<(), String> {
        let store = dir.join("store");
        // The rows every later iteration must reproduce byte for byte.
        let reference = dir.join("cold.jsonl");
        let rows = dir.join("rows.jsonl");
        let workers = nproc();
        let warm = self.w.kind == Kind::SuiteWarm;
        let trace = self.opts.trace;
        // A traced run measures for a third of the time and spends the rest
        // on the one-worker iteration, the paper-gap pass and the probes.
        let budget = Duration::from_secs_f64(self.opts.seconds / if trace { 3.0 } else { 1.0 });

        // Set-up is the untimed cold run: it warms the host for `suite-cold`
        // and fills the store `suite-warm` reads from.
        for i in 0..if trace { 1 } else { SUITE_SETUPS } {
            let f = self.cold(&store, if i == 0 { &reference } else { &rows }, workers)?;
            self.setup_s.push(f.wall_s);
            self.checks.merge(&f.report.checks);
            if i > 0 {
                self.check_rows(&reference, &rows);
            }
        }
        let measured = Instant::now();
        while self.wall_s.len() < 2 || measured.elapsed() < budget {
            let f = if warm {
                self.spawn(&ChildSpec {
                    store: Some(&store),
                    workers,
                    jsonl: Some(&rows),
                    ..ChildSpec::default()
                })?
            } else {
                self.cold(&store, &rows, workers)?
            };
            self.wall_s.push(f.wall_s);
            if warm {
                let misses = f.report.counters.get("store.misses").copied();
                self.checks
                    .record("warm_store_misses_zero", misses == Some(0.0));
            }
            self.check_rows(&reference, &rows);
            self.absorb(f);
        }

        if trace {
            let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0.0);
            let (entries, bytes) = (counter("store.entries"), counter("store.bytes"));
            let mean_entry = if entries > 0.0 { bytes / entries } else { 0.0 };
            let mut probed = self.probes(Some(mean_entry as usize))?;
            self.counters.append(&mut probed);
        }
        if !warm && trace {
            let one = self.cold(&store, &rows, 1)?;
            self.checks.merge(&one.report.checks);
            self.check_rows(&reference, &rows);
            // Both host seconds, taken within seconds of each other.
            self.counters
                .insert("harness.jobs1_wall_s".to_string(), one.wall_s);
            self.counters.insert(
                "harness.parallel_efficiency".to_string(),
                one.wall_s / (workers as f64 * median(&self.wall_s)),
            );
        }
        if !warm && self.opts.paper_gaps {
            self.paper_gaps(&rows, workers)?;
        }
        Ok(())
    }

    /// Every suite process, cold or warm, on any worker count, must leave the
    /// first cold one's rows, byte for byte.
    fn check_rows(&mut self, reference: &Path, rows: &Path) {
        let same =
            matches!((std::fs::read(reference), std::fs::read(rows)), (Ok(a), Ok(b)) if a == b);
        self.checks.record("jsonl_identical_to_first_cold", same);
    }

    /// The untimed pass behind the `paper_*_gap_pp` metrics: the suite once
    /// more, at the paper-gap scale and without a store.
    fn paper_gaps(&mut self, rows: &Path, workers: usize) -> Result<(), String> {
        let f = self.spawn(&ChildSpec {
            workers,
            jsonl: Some(rows),
            paper_gaps: true,
            ..ChildSpec::default()
        })?;
        self.checks.merge(&f.report.checks);
        for name in ["experiments.fig6_s", "experiments.fig16_s"] {
            if let Some(&seconds) = f.report.counters.get(name) {
                self.counters.insert(name.to_string(), seconds);
            }
        }
        let text = std::fs::read_to_string(rows)
            .map_err(|e| format!("cannot read {}: {e}", rows.display()))?;
        match gaps::from_jsonl(&text) {
            Ok(g) => {
                self.checks.record("paper_gaps_computable", true);
                for (name, v) in [
                    ("paper_ipc_gap_pp", g.ipc_pp),
                    ("paper_ws_gap_pp", g.ws_pp),
                    ("paper_traffic_gap_pp", g.traffic_pp),
                ] {
                    self.counters.insert(name.to_string(), v);
                }
            }
            Err(e) => {
                eprintln!("padc-benchmark: paper gaps: {e}");
                self.checks.record("paper_gaps_computable", false);
            }
        }
        Ok(())
    }

    /// Runs the standalone layer probes and returns their metrics.
    fn probes(&self, entry_bytes: Option<usize>) -> Result<BTreeMap<String, f64>, String> {
        let exe: PathBuf = std::env::current_exe()
            .map_err(|e| format!("cannot find own executable: {e}"))?
            .with_file_name("padc-probes");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", self.w.name])
            .args(["--seed", &self.opts.seed.to_string()]);
        if self.opts.sizes.tiny {
            cmd.arg("--tiny");
        }
        if let Some(n) = entry_bytes {
            cmd.args(["--entry-bytes", &n.to_string()]);
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("{} exited with {}", exe.display(), out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        serde_json::from_str(text.lines().last().unwrap_or(""))
            .map_err(|e| format!("{} printed no metrics: {e}", exe.display()))
    }

    fn finish(mut self) -> WorkloadResult {
        let (attempted, failed) = self.checks.totals();
        let unit = |name: &str| spec::metric(name).map_or("", |m| m.unit);
        // One scale for the whole run: the median of the kernel runs that
        // were interleaved with the samples. A single 10 ms kernel run is
        // itself noisy, so dividing sample by sample adds noise on a quiet
        // host; the run's median tracks the drift without that.
        let reference_s = median(&self.ref_s);
        let normalised = |samples: &[f64]| -> Vec<f64> {
            samples
                .iter()
                .map(|&s| calib::normalise(s, reference_s))
                .collect()
        };
        let wall_s = normalised(&self.wall_s);
        let kips: Vec<f64> = wall_s
            .iter()
            .filter(|_| self.instructions > 0)
            .map(|w| self.instructions as f64 / (w * 1e3))
            .collect();
        let mut metrics = BTreeMap::new();
        for (name, samples) in [
            ("setup_s", &normalised(&self.setup_s)),
            ("wall_s", &wall_s),
            ("sim_kips", &kips),
            ("peak_rss_mb", &self.rss_mb),
        ] {
            if !samples.is_empty() {
                metrics.insert(name.to_string(), Metric::sampled(samples, unit(name)));
            }
        }
        self.counters
            .insert("host.ref_kernel_ms".to_string(), reference_s * 1e3);
        self.counters.insert(
            "fail_ratio".to_string(),
            failed as f64 / attempted.max(1) as f64,
        );
        for (name, value) in &self.counters {
            if spec::reports(name, self.w.kind) {
                metrics.insert(name.clone(), Metric::single(*value, unit(name)));
            }
        }
        WorkloadResult {
            name: self.w.name.to_string(),
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            checks: self.checks.0,
            metrics,
            spans: self.spans,
            span_totals: self.span_totals,
        }
    }
}
