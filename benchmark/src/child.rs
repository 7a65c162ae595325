//! What runs inside one fresh process: a workload's set-up, its timed
//! iterations, its correctness checks and (with `--trace`) one traced
//! iteration. The process prints `READY` when set-up is done and one JSON
//! [`ChildReport`] as its last line.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use padc_benchmark::calib::Reference;
use padc_benchmark::crc32;
use padc_benchmark::result::{Check, Checks, Span, SpanTotal};
use padc_benchmark::spec::{self, Kind, SimWorkload, Sizes};
use padc_cpu::TraceSource;
use padc_harness::{run_suite, HarnessConfig};
use padc_sim::experiments::{
    find, install_unit_store, single_run_stats, suite_jobs, unit_cache_stats,
};
use padc_sim::{profile, FastForwardMode, Report, SimConfig, System};
use padc_store::Store;
use padc_workloads::{BenchProfile, TraceGen, Workload};
use serde::{Deserialize, Serialize};

use crate::trace::{NextOpSpans, TimedTrace};

/// Arguments of the `child` subcommand.
#[derive(Clone, Debug)]
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed iterations (sim workloads; a suite child runs once).
    pub seconds: f64,
    /// Size preset.
    pub sizes: Sizes,
    /// Add the traced iteration (sim workloads).
    pub trace: bool,
    /// Suite: store directory to install; none runs without a store.
    pub store: Option<PathBuf>,
    /// Suite: worker threads.
    pub workers: usize,
    /// Suite: where to leave the JSONL rows.
    pub jsonl: Option<PathBuf>,
    /// Suite: run at the paper-gap scale, not the timed scale.
    pub paper_gaps: bool,
}

/// What a child process hands back.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Host ns of each timed iteration.
    pub iter_ns: Vec<u64>,
    /// Host seconds of the reference kernel run before each timed iteration
    /// (sim workloads; the parent runs it for a suite child).
    pub ref_s: Vec<f64>,
    /// Instructions all cores retire in one iteration (sim workloads).
    pub instructions: u64,
    /// Peak resident set, kB.
    pub rss_kb: u64,
    /// Correctness checks evaluated in this process.
    pub checks: Vec<Check>,
    /// CRC-32 of the `Report` JSON (sim) or of the JSONL rows (suite).
    pub output_crc: u64,
    /// Per-layer values this process observed, by metric name.
    pub counters: BTreeMap<String, f64>,
    /// Iteration-level spans (traced child only).
    pub spans: Vec<Span>,
    /// Aggregated per-call spans (traced child only).
    pub span_totals: Vec<SpanTotal>,
}

/// Runs the child and prints its report.
///
/// # Errors
///
/// Returns a message when the workload is unknown or an I/O step fails; a
/// failed correctness check is reported, not an error.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let started = Instant::now();
    let w = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let mut report = match w.kind {
        Kind::Sim(i) => sim(&spec::SIM_WORKLOADS[i], w.name, args, started),
        Kind::SuiteCold | Kind::SuiteWarm => suite(args)?,
    };
    report.rss_kb = peak_rss_kb();
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn ready() {
    println!("READY");
    // The parent timestamps this line: it must leave the process now.
    let _ = std::io::stdout().flush();
}

/// One `System::new` + `run`, checked.
struct Iteration {
    json: String,
    ns: u64,
    instructions: u64,
}

fn iteration(
    cfg: &SimConfig,
    benchmarks: &[BenchProfile],
    mode: Option<FastForwardMode>,
    checks: &mut Checks,
) -> Iteration {
    let start = Instant::now();
    let mut sys = System::new(cfg.clone(), benchmarks.to_vec());
    if let Some(mode) = mode {
        sys.set_fast_forward_mode(mode);
    }
    let report = sys.run();
    let ns = start.elapsed().as_nanos() as u64;
    check_run(cfg, &sys, &report, checks);
    Iteration {
        json: serde_json::to_string(&report).expect("a Report serialises"),
        ns,
        instructions: report.per_core.iter().map(|c| c.instructions).sum(),
    }
}

fn check_run(cfg: &SimConfig, sys: &System, report: &Report, checks: &mut Checks) {
    let retired = report
        .per_core
        .iter()
        .all(|c| c.instructions >= cfg.max_instructions);
    checks.record(
        "retired_before_cycle_cap",
        retired && report.total_cycles < cfg.max_cycles,
    );
    let p = sys.profile();
    checks.record(
        "core_cycles_accounted",
        p.core_cycles_ticked + p.core_cycles_skipped == cfg.cores as u64 * report.total_cycles,
    );
    checks.record(
        "ctrl_cycles_accounted",
        p.ctrl_cycles_stepped + p.ctrl_cycles_skipped == report.total_cycles,
    );
}

fn sim(w: &SimWorkload, name: &str, args: &ChildArgs, started: Instant) -> ChildReport {
    let mut checks = Checks::default();
    let cfg = spec::sim_config(w, args.sizes, args.seed);
    let benchmarks = Workload::from_names(w.benchmarks).benchmarks;

    // Set-up ends with a tenth-length run: it pages the code in and fills
    // the allocator's pools, and it is the default-mode side of the
    // cycle-exact comparison below.
    let mut short = cfg.clone();
    short.max_instructions = (cfg.max_instructions / 10).max(1);
    let warm = iteration(&short, &benchmarks, None, &mut checks);
    ready();

    let mut out = ChildReport::default();
    let mut reference = Reference::default();
    let since_start = |t: Instant| t.duration_since(started).as_nanos() as u64;
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let mut first: Option<String> = None;
    while first.is_none() || timed.elapsed() < budget {
        out.ref_s.push(reference.run());
        let begin = Instant::now();
        let it = iteration(&cfg, &benchmarks, None, &mut checks);
        if args.trace {
            out.spans.push(Span {
                name: "iteration".to_string(),
                parent: String::new(),
                workload: name.to_string(),
                start_ns: since_start(begin),
                end_ns: since_start(begin) + it.ns,
            });
        }
        out.iter_ns.push(it.ns);
        out.instructions = it.instructions;
        match &first {
            Some(f) => checks.record("report_identical_across_iterations", *f == it.json),
            None => first = Some(it.json),
        }
    }
    let first = first.expect("at least one timed iteration");
    out.output_crc = u64::from(crc32(first.as_bytes()));

    if args.trace {
        let begin = Instant::now();
        let traced = traced_iteration(&cfg, &benchmarks, name, since_start(begin), &mut out);
        checks.record("report_identical_traced", traced == first);
    }

    let exact = iteration(&short, &benchmarks, Some(FastForwardMode::Off), &mut checks);
    checks.record("cycle_exact_mode_identical", exact.json == warm.json);
    out.checks = checks.0;
    out
}

/// The extra iteration of a traced run: the simulator's phase timers on, the
/// traces wrapped. Fills `out.counters`, spans and span totals; returns the
/// `Report` JSON, which must equal the untraced one.
fn traced_iteration(
    cfg: &SimConfig,
    benchmarks: &[BenchProfile],
    workload: &str,
    start_ns: u64,
    out: &mut ChildReport,
) -> String {
    let next_op = Rc::new(NextOpSpans::default());
    profile::set_timing_enabled(true);
    let new_start = Instant::now();
    let traces = benchmarks
        .iter()
        .enumerate()
        .map(|(core, b)| {
            let gen = Box::new(TraceGen::new(b, core, cfg.seed));
            Box::new(TimedTrace::new(gen, Rc::clone(&next_op))) as Box<dyn TraceSource>
        })
        .collect();
    let names = benchmarks.iter().map(|b| b.name.clone()).collect();
    let mut sys = System::with_traces(cfg.clone(), traces, names);
    let new_ns = new_start.elapsed().as_nanos() as u64;
    let report = sys.run();
    let iter_ns = new_start.elapsed().as_nanos() as u64;
    profile::set_timing_enabled(false);
    let p = *sys.profile();
    let json = serde_json::to_string(&report).expect("a Report serialises");

    let mut span = |name: &str, parent: &str, start: u64, end: u64| {
        out.spans.push(Span {
            name: name.to_string(),
            parent: parent.to_string(),
            workload: workload.to_string(),
            start_ns: start,
            end_ns: end,
        });
    };
    span("traced_iteration", "", start_ns, start_ns + iter_ns);
    span(
        "sim.system_new",
        "traced_iteration",
        start_ns,
        start_ns + new_ns,
    );
    span(
        "sim.run",
        "traced_iteration",
        start_ns + new_ns,
        start_ns + new_ns + p.wall_ns,
    );
    let mut total = |name: &str, parent: &str, total_ns: u64, count: u64| {
        out.span_totals.push(SpanTotal {
            name: name.to_string(),
            parent: parent.to_string(),
            total_ns,
            count,
        });
    };
    total(
        "sim.controller_phase",
        "sim.run",
        p.controller_ns,
        p.ctrl_cycles_stepped,
    );
    total("sim.core_phase", "sim.run", p.cores_ns, p.cycles_stepped);
    total(
        "workloads.next_op",
        "sim.core_phase",
        next_op.total_ns(),
        next_op.calls(),
    );

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let sum = |f: fn(&padc_sim::CoreReport) -> u64| report.per_core.iter().map(f).sum::<u64>();
    let untraced_median_ns =
        padc_benchmark::stats::median(&out.iter_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    let c = &mut out.counters;
    let mut put = |name: &str, v: f64| {
        c.insert(name.to_string(), v);
    };
    put("sim.run_ns", p.wall_ns as f64);
    put("sim.controller_phase_ns", p.controller_ns as f64);
    put("sim.core_phase_ns", p.cores_ns as f64);
    put(
        "sim.loop_self_ns",
        p.wall_ns.saturating_sub(p.controller_ns + p.cores_ns) as f64,
    );
    put("sim.system_new_ns", new_ns as f64);
    put("sim.cycles_total", report.total_cycles as f64);
    put("sim.cycles_stepped", p.cycles_stepped as f64);
    put("sim.ff_jumps", p.ff_jumps as f64);
    put("sim.core_ticks", p.core_cycles_ticked as f64);
    put("sim.core_skip_pct", p.core_skip_ratio() * 100.0);
    put("sim.ctrl_ticks", p.ctrl_cycles_stepped as f64);
    put("sim.ctrl_skip_pct", p.ctrl_skip_ratio() * 100.0);
    put(
        "sim.host_ns_per_cycle",
        ratio(p.wall_ns, report.total_cycles),
    );
    put(
        "sim.host_ns_per_ctrl_tick",
        ratio(p.controller_ns, p.ctrl_cycles_stepped),
    );
    put(
        "sim.host_ns_per_core_tick",
        ratio(p.cores_ns, p.core_cycles_ticked),
    );
    put(
        "sim.ipc_sum",
        report.per_core.iter().map(|c| c.ipc()).sum::<f64>(),
    );
    put("sim.report_crc", f64::from(crc32(json.as_bytes())));
    put(
        "sim.trace_overhead_pct",
        (iter_ns as f64 / untraced_median_ns - 1.0) * 100.0,
    );
    put("workloads.next_op_ns", next_op.total_ns() as f64);
    put("workloads.ops", next_op.calls() as f64);
    put("cache.l2_accesses", sum(|c| c.l2_accesses) as f64);
    put(
        "cache.l2_miss_ratio",
        ratio(sum(|c| c.l2_misses), sum(|c| c.l2_accesses)),
    );
    put("prefetch.sent", sum(|c| c.prefetches_sent) as f64);
    put(
        "prefetch.used_ratio",
        ratio(sum(|c| c.prefetches_used), sum(|c| c.prefetches_sent)),
    );
    put("prefetch.dropped", sum(|c| c.prefetches_dropped) as f64);
    put("prefetch.no_space", sum(|c| c.prefetches_no_space) as f64);
    put("core.owner_recomputes", p.owner_recomputes as f64);
    put("core.owner_reuses", p.owner_reuses as f64);
    put("core.owner_scan_entries", p.owner_scan_entries as f64);
    put(
        "core.owner_reuse_ratio",
        ratio(p.owner_reuses, p.owner_reuses + p.owner_recomputes),
    );
    put("dram.row_hit_ratio", report.controller.row_hit_rate());
    put("dram.refresh_pulls", p.refresh_pulls as f64);
    put("dram.refresh_stall_cycles", p.refresh_stall_cycles as f64);
    json
}

fn suite(args: &ChildArgs) -> Result<ChildReport, String> {
    let mut checks = Checks::default();
    if let Some(dir) = &args.store {
        install_unit_store(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    }
    let (exp_cfg, ids): (_, &[&str]) = if args.paper_gaps {
        (
            args.sizes.paper_gaps(args.seed),
            &spec::PAPER_GAP_EXPERIMENTS,
        )
    } else {
        (args.sizes.suite(args.seed), &spec::SUITE_EXPERIMENTS)
    };
    let experiments = ids
        .iter()
        .map(|id| find(id).ok_or_else(|| format!("no experiment {id}")))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = suite_jobs(experiments, exp_cfg, None);
    let harness = HarnessConfig {
        workers: args.workers,
        budget: None,
        progress: false,
    };
    ready();

    let before = unit_cache_stats();
    let start = Instant::now();
    let mut jsonl = Vec::new();
    let summary = run_suite(&jobs, &harness, Some(&mut jsonl), &mut std::io::sink())
        .map_err(|e| format!("suite I/O: {e}"))?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = unit_cache_stats();

    let jsonl = String::from_utf8(jsonl).map_err(|e| format!("suite rows are not UTF-8: {e}"))?;
    for line in jsonl.lines() {
        let ok = serde_json::parse(line)
            .ok()
            .and_then(|row| Some(row.get("status")?.as_str()? == "ok"))
            .unwrap_or(false);
        checks.record("suite_row_ok", ok);
    }
    checks.record("suite_row_count", jsonl.lines().count() == jobs.len());
    checks.record(
        "threads_within_nproc",
        summary.workers <= args.workers.max(1),
    );
    if let Some(path) = &args.jsonl {
        std::fs::write(path, &jsonl)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let mut out = ChildReport {
        iter_ns: vec![wall_ns],
        output_crc: u64::from(crc32(jsonl.as_bytes())),
        checks: checks.0,
        ..ChildReport::default()
    };
    let hits = after.store_hits - before.store_hits;
    let misses = after.store_misses - before.store_misses;
    let (requested, computed) = single_run_stats();
    let job_seconds = |id: &str| {
        summary
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .map_or(0.0, |o| o.seconds)
    };
    let mut put = |name: &str, v: f64| {
        out.counters.insert(name.to_string(), v);
    };
    put("harness.subjobs_executed", summary.subjobs_executed as f64);
    put(
        "harness.peak_concurrent",
        summary.subjobs_peak_concurrent as f64,
    );
    put(
        "harness.ms_per_subjob",
        if summary.subjobs_executed == 0 {
            0.0
        } else {
            wall_ns as f64 / 1e6 * summary.workers as f64 / summary.subjobs_executed as f64
        },
    );
    put("experiments.units_requested", requested as f64);
    put("experiments.units_computed", computed as f64);
    if args.paper_gaps {
        put("experiments.fig6_s", job_seconds("fig6"));
        put("experiments.fig16_s", job_seconds("fig16"));
    }
    put("store.hits", hits as f64);
    put("store.misses", misses as f64);
    put(
        "store.coalesced",
        (after.units_coalesced - before.units_coalesced) as f64,
    );
    put(
        "store.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    if let Some(dir) = &args.store {
        let stats = Store::open(dir)
            .and_then(|s| s.stats())
            .map_err(|e| format!("cannot walk store {}: {e}", dir.display()))?;
        put("store.entries", stats.entries as f64);
        put("store.bytes", stats.bytes as f64);
    }
    Ok(out)
}

/// `VmHWM` of this process, kB (0 where `/proc` does not say).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
