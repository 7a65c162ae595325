//! The command lines of this crate: the suite driver behind `repro`, and
//! the flag reader every command line (`repro`, a single `padcsim` run,
//! `padcsim store`) parses its arguments with.
//!
//! ```text
//! repro [--quick|--smoke] [--jobs N] [--jsonl PATH]
//!       [--summary PATH] [--store DIR] [--budget-seconds N]
//!       [--no-progress] [--profile] [--list] [all|<experiment-id>...]
//! ```
//!
//! With no ids (or `all` anywhere among them), every registered experiment
//! runs, at `Scale::Full` (the paper's workload counts) unless
//! `--quick`/`--smoke` shrink it; an id named twice runs once
//! ([`experiments::select`]). The selection becomes one job list for
//! [`padc_harness::run_suite`], which plans every experiment, dedupes the
//! simulation units by digest and runs each distinct unit once on
//! `--jobs N` workers (default `available_parallelism()`), each under
//! `catch_unwind`. The JSONL stream (`--jsonl PATH`, `-` for stdout) is
//! in registry order, written as each row is ready, and carries no timing
//! data, so its bytes are identical for any `--jobs` value.
//! Timings go to the stderr progress lines and the `--summary` JSON — or,
//! with `--profile`, into a per-experiment `"profile"` object in each
//! payload (wall times make profiled artifacts non-deterministic, so the
//! determinism tests run without it). Tables render on stdout as text
//! unless the JSONL stream owns it (`--jsonl -`), which carries the same
//! tables as JSON.
//!
//! `--store DIR` (or `PADC_STORE`) is how a rerun skips work: every
//! simulation unit is looked up by the digest of its full configuration
//! (instruction count and seed included), its workloads and the
//! simulator's fingerprint, and stored the moment it finishes
//! (DESIGN.md §12), so an interrupted run keeps every unit it completed
//! and a warm rerun executes zero units while writing the same bytes. fig4
//! is the exception: its reduce steps one milc system cycle by cycle on
//! every run, store or not (about a second in a release build), until the
//! interval timeline makes it a stored unit.
//! `--budget-seconds N` records as a failure every job whose own time —
//! the wall time of the units it planned first, plus its reduce — is over
//! the budget.
//!
//! Exit status: `0` when every experiment succeeds, `1` when any job
//! panics or runs over budget (or the worker pool cannot start, or a sink
//! fails mid-run), `2` on usage errors (unknown flags or ids, unreadable
//! or unwritable paths — both output paths are created before anything
//! runs).

use std::fmt::Display;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use padc_harness::{run_suite, HarnessConfig, JobStatus, Summary};
use serde_json::{Number, Value};

use crate::experiments::{
    self, suite_jobs_profiled, table_stash, ExpConfig, ExpTable, Scale, REGISTRY,
};

/// Prints a one-line error about an input the command line names (an
/// unreadable file, an invalid config) and exits 2.
pub fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The arguments of one command line, read flag by flag: each command
/// line's loop matches what [`Iterator::next`] returns and takes a flag's
/// value with [`Flags::value`] or [`Flags::integer`]. Every usage error it
/// raises is one `error: … (try <program> --help)` line and exit 2.
pub struct Flags<'a> {
    program: &'a str,
    args: std::slice::Iter<'a, String>,
    /// The argument read last: the flag a value is for.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Reads `args` (the process arguments after the program and any
    /// subcommand) for `program`, the name the `--help` hint gives.
    pub fn new(program: &'a str, args: &'a [String]) -> Self {
        Flags {
            program,
            args: args.iter(),
            flag: "",
        }
    }

    /// The value after the current flag; a usage error when there is none.
    pub fn value(&mut self) -> &'a str {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(format_args!("{} expects a value", self.flag)),
        }
    }

    /// The value after the current flag as an integer; a usage error
    /// naming the flag when it is missing or not one.
    pub fn integer<T: std::str::FromStr>(&mut self) -> T {
        let v = self.value();
        v.parse().unwrap_or_else(|_| {
            self.fail(format_args!("{} expects an integer, got {v:?}", self.flag))
        })
    }

    /// Ends the process with a usage error: one line and exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg} (try {} --help)", self.program);
        std::process::exit(2);
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    /// The next flag or positional argument, if any.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }
}

/// Writes one line to stdout — what every CLI in this crate uses in place
/// of `println!`, whose panic on a failed write is a backtrace for
/// `padcsim --list-benchmarks | head -1`.
pub fn say(line: impl Display) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        stdout_failed(e);
    }
}

/// Ends the process after a failed stdout write: a reader that closed the
/// pipe early has what it wanted, so that is a clean exit 0; anything else
/// is one `error:` line and exit 1.
pub fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: cannot write to stdout: {e}");
    std::process::exit(1);
}

/// Resolves the unit-store directory: the `--store DIR` flag beats the
/// `PADC_STORE` environment variable; neither means no store.
pub fn store_dir(flag: Option<String>) -> Option<String> {
    flag.or_else(|| std::env::var("PADC_STORE").ok().filter(|s| !s.is_empty()))
}

/// Installs the process-wide unit store at [`store_dir`]`(flag)`, if any;
/// exits 2 when it cannot be opened.
fn install_store(flag: Option<String>) {
    if let Some(dir) = store_dir(flag) {
        experiments::install_unit_store(Path::new(&dir))
            .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
    }
}

fn print_registry() {
    for e in REGISTRY {
        say(format_args!("{:<10} {}", e.id, e.paper_ref));
    }
}

/// The `--summary` file: the suite counts, then `extras` (the store
/// telemetry, when a store is installed), then one object per job. Seconds
/// are rounded to the millisecond; `error` appears on failures only.
fn summary_json(summary: &Summary, extras: &[(&str, u64)]) -> String {
    fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
    let count = |n: u64| Value::Num(Number::U(n));
    let ms = |s: f64| Value::Num(Number::F((s * 1000.0).round() / 1000.0));
    let jobs = summary.outcomes.iter().map(|o| {
        let mut job = vec![
            ("id", Value::Str(o.id.clone())),
            ("status", Value::Str(o.status.as_str().to_string())),
            ("seconds", ms(o.seconds)),
        ];
        if let Some(e) = &o.error {
            job.push(("error", Value::Str(e.clone())));
        }
        object(job)
    });
    let mut fields = vec![
        ("total", count(summary.outcomes.len() as u64)),
        ("ok", count(summary.ok() as u64)),
        ("failed", count(summary.failed() as u64)),
        ("workers", count(summary.workers as u64)),
        ("wall_seconds", ms(summary.wall_seconds)),
        ("subjobs_executed", count(summary.subjobs_executed)),
        (
            "subjobs_peak_concurrent",
            count(summary.subjobs_peak_concurrent),
        ),
    ];
    fields.extend(extras.iter().map(|&(name, v)| (name, count(v))));
    fields.push(("jobs", Value::Array(jobs.collect())));
    let mut out = String::new();
    serde_json::write_value(&mut out, &object(fields), Some(2), 0);
    out
}

/// Human-readable rendering, in selection order, of the tables the jobs
/// stashed.
fn render_tables(
    selected: &[(&str, &str)],
    summary: &Summary,
    stash: &std::collections::HashMap<String, Vec<ExpTable>>,
) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for ((id, paper_ref), outcome) in selected.iter().zip(&summary.outcomes) {
        writeln!(out, "# {id} — {paper_ref} ({:.1}s)", outcome.seconds)?;
        match stash.get(*id) {
            Some(tables) => {
                for t in tables {
                    writeln!(out, "{t}")?;
                }
            }
            None => writeln!(
                out,
                "  FAILED ({}): {}",
                outcome.status.as_str(),
                outcome.error.as_deref().unwrap_or("no detail")
            )?,
        }
    }
    Ok(())
}

/// Runs the experiment suite selected by `args` and exits: the `repro`
/// binary. See the module docs.
pub fn suite_main(args: &[String]) -> ! {
    let mut cfg = ExpConfig::at(Scale::Full);
    let mut harness = HarnessConfig {
        progress: true,
        ..HarnessConfig::default()
    };
    let mut profile = false;
    let (mut jsonl, mut summary_path, mut store) = (None, None, None);
    let mut ids: Vec<&str> = Vec::new();
    let mut flags = Flags::new("repro", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--quick" => cfg = ExpConfig::at(Scale::Quick),
            "--smoke" => cfg = ExpConfig::at(Scale::Smoke),
            "--jobs" | "-j" => harness.workers = flags.integer(),
            "--budget-seconds" => harness.budget = Some(Duration::from_secs(flags.integer())),
            "--no-progress" => harness.progress = false,
            "--profile" => profile = true,
            "--jsonl" => jsonl = Some(flags.value()),
            "--summary" => summary_path = Some(flags.value()),
            "--store" => store = Some(flags.value().to_string()),
            "--list" => {
                print_registry();
                std::process::exit(0);
            }
            "--help" | "-h" => {
                say("usage: repro [--quick|--smoke] [--jobs N] [--jsonl PATH]\n\
                     \x20      [--summary PATH] [--store DIR] [--budget-seconds N]\n\
                     \x20      [--no-progress] [--profile] [--list] [all|<experiment-id>...]\n\
                     known ids:");
                print_registry();
                std::process::exit(0);
            }
            other if other.starts_with('-') => flags.fail(format_args!("unknown flag {other:?}")),
            other => ids.push(other),
        }
    }

    // Unknown ids are a hard error, not a silent skip.
    let selected = experiments::select(&ids)
        .unwrap_or_else(|e| die(format!("{e} (run `repro --list` for the registered ids)")));
    let labels: Vec<(&str, &str)> = selected.iter().map(|e| (e.id, e.paper_ref)).collect();
    let tables_on_stdout = jsonl != Some("-");

    if profile {
        crate::profile::set_timing_enabled(true);
    }
    install_store(store);
    let stash = tables_on_stdout.then(table_stash);
    let jobs = suite_jobs_profiled(selected, cfg, stash.clone(), profile);

    // Both output files exist before anything runs: a path that cannot be
    // created is a usage error now, not after the whole suite.
    let create = |path: &str| {
        std::fs::File::create(path).unwrap_or_else(|e| die(format!("cannot create {path}: {e}")))
    };
    let mut sink: Option<Box<dyn Write>> = jsonl.map(|path| match path {
        "-" => Box::new(std::io::stdout().lock()) as Box<dyn Write>,
        path => Box::new(create(path)),
    });
    let summary_file = summary_path.map(|path| (path, create(path)));
    let summary = run_suite(
        &jobs,
        &harness,
        sink.as_mut().map(|s| s.as_mut() as &mut dyn Write),
        &mut std::io::stderr().lock(),
    )
    .unwrap_or_else(|e| {
        // A reader that closed the JSONL pipe early has what it wanted.
        if !tables_on_stdout && e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: suite failed: {e}");
        std::process::exit(1);
    });

    let mut extras = Vec::new();
    if experiments::unit_store_installed() {
        let stats = experiments::unit_cache_stats();
        extras = vec![
            ("store_hits", stats.store_hits),
            ("store_misses", stats.store_misses),
            ("units_coalesced", stats.units_coalesced),
        ];
        // Machine-readable store telemetry; keep the key=value form stable.
        eprintln!(
            "store: hits={} misses={} coalesced={}",
            stats.store_hits, stats.store_misses, stats.units_coalesced
        );
    }
    if let Some(stash) = &stash {
        let stash = stash.lock().expect("stash lock");
        if let Err(e) = render_tables(&labels, &summary, &stash) {
            stdout_failed(e);
        }
    }
    if let Some((path, mut file)) = summary_file {
        file.write_all(summary_json(&summary, &extras).as_bytes())
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    }

    eprintln!(
        "suite: {}/{} ok, {} failed, {} workers, {:.1}s wall",
        summary.ok(),
        summary.outcomes.len(),
        summary.failed(),
        summary.workers,
        summary.wall_seconds
    );
    let (requested, computed) = experiments::single_run_stats();
    if requested > 0 {
        // Machine-readable single-core unit telemetry: `requested -
        // computed` is the cross-experiment dedup (and warm-store) win.
        eprintln!("single_run_memo: requested={requested} computed={computed}");
    }
    for o in &summary.outcomes {
        if matches!(o.status, JobStatus::Panicked | JobStatus::OverBudget) {
            eprintln!(
                "  {}: {} — {}",
                o.id,
                o.status.as_str(),
                o.error.as_deref().unwrap_or("no detail")
            );
        }
    }
    std::process::exit(if summary.failed() > 0 { 1 } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use padc_harness::CompletedJob;

    #[test]
    fn summary_json_keys_order_and_rounding() {
        let outcome = |id: &str, status, error: Option<&str>, seconds| CompletedJob {
            id: id.to_string(),
            status,
            error: error.map(str::to_string),
            seconds,
        };
        let summary = Summary {
            outcomes: vec![
                outcome("fig6", JobStatus::Ok, None, 1.23449),
                outcome("b\"oom", JobStatus::Panicked, Some("x"), 0.0126),
            ],
            workers: 2,
            wall_seconds: 2.0004,
            subjobs_executed: 7,
            subjobs_peak_concurrent: 2,
        };
        let json = summary_json(&summary, &[("store_hits", 3), ("store_misses", 4)]);
        // One top-level key per line at two spaces: what `--summary`
        // readers (and `cli_usage`'s `summary_keys`) scan for.
        assert!(
            json.starts_with("{\n  \"total\": 2,\n  \"ok\": 1,\n"),
            "{json}"
        );
        let v = serde_json::parse(&json).expect("the summary is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "total",
                "ok",
                "failed",
                "workers",
                "wall_seconds",
                "subjobs_executed",
                "subjobs_peak_concurrent",
                "store_hits",
                "store_misses",
                "jobs"
            ]
        );
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
        assert_eq!(num(&v, "wall_seconds"), Some(2.0));
        assert_eq!(num(&v, "store_misses"), Some(4.0));
        let jobs = v.get("jobs").and_then(Value::as_array).unwrap();
        let job_keys = |j: &Value| j.as_object().unwrap().len();
        assert_eq!(jobs[0].get("id").and_then(Value::as_str), Some("fig6"));
        assert_eq!(num(&jobs[0], "seconds"), Some(1.234));
        assert_eq!((job_keys(&jobs[0]), jobs[0].get("error")), (3, None));
        assert_eq!(jobs[1].get("id").and_then(Value::as_str), Some("b\"oom"));
        assert_eq!(
            jobs[1].get("status").and_then(Value::as_str),
            Some("panicked")
        );
        assert_eq!(num(&jobs[1], "seconds"), Some(0.013));
        assert_eq!(jobs[1].get("error").and_then(Value::as_str), Some("x"));
    }
}
