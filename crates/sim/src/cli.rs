//! The suite command line: the one driver behind `repro` and
//! `padcsim --suite`.
//!
//! ```text
//! repro | padcsim --suite
//!       [--quick|--smoke] [--jobs N] [--jsonl PATH] [--resume FILE]
//!       [--summary PATH] [--store DIR] [--budget-seconds N]
//!       [--json|--csv|--bars COL] [--no-progress] [--profile]
//!       [--list] [all|<experiment-id>...]
//! ```
//!
//! The two entry points differ in one constant, [`Stdout`]: what stdout
//! carries when no `--jsonl`/`--resume` names a JSONL destination — the
//! rendered tables (`repro`) or the JSONL stream (`padcsim --suite`).
//! Everything else is [`suite_main`].
//!
//! With no ids (or `all` anywhere among them), every registered experiment
//! runs, at `Scale::Full` (the paper's workload counts) unless
//! `--quick`/`--smoke` shrink it; an id named twice runs once
//! ([`experiments::select`]). The selection becomes one job list for
//! [`padc_harness::run_suite`]: experiments run on `--jobs N` workers
//! (default `available_parallelism()`), each under `catch_unwind`, and
//! every experiment's simulation units resolve through one process-wide
//! claim map whose misses are scheduled onto the *same* pool — so
//! `--jobs N` bounds total simulation threads and each distinct
//! simulation runs once. The JSONL stream (`--jsonl PATH`, `-` for
//! stdout) is in registry order and carries no timing data, so its bytes
//! are identical for any `--jobs` value.
//! Timings go to the stderr progress lines and the `--summary` JSON — or,
//! with `--profile`, into a per-experiment `"profile"` object in each
//! payload (wall times make profiled artifacts non-deterministic, so the
//! determinism tests run without it). Tables render on stdout
//! (`--json|--csv|--bars COL` pick the format) unless the JSONL stream
//! owns it.
//!
//! `--resume FILE` re-emits the settled rows (complete JSON,
//! `"status":"ok"`: [`crate::resume`]) of a prior artifact verbatim
//! without executing their experiments and re-runs the rest; with no
//! `--jsonl` the regenerated artifact replaces FILE. `--store DIR` (or
//! `PADC_STORE`) does the same at simulation-unit granularity across
//! invocations (DESIGN.md §12): a warm rerun executes zero units.
//! `--budget-seconds N` records jobs that finish over the budget as
//! failures.
//!
//! Exit status: `0` when every experiment succeeds, `1` when any job
//! panics or runs over budget (or a sink fails mid-run), `2` on usage
//! errors (unknown flags or ids, unreadable or unwritable paths).

use std::fmt::Display;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use padc_harness::{run_suite, HarnessConfig, JobStatus, Summary};
use serde_json::{Number, Value};

use crate::experiments::{
    self, suite_jobs_profiled, table_stash, ExpConfig, ExpTable, Scale, REGISTRY,
};
use crate::resume::ResumeArtifact;

/// What stdout carries when neither `--jsonl` nor `--resume` names a JSONL
/// destination — the one difference between the suite entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stdout {
    /// The rendered tables; no JSONL is written (`repro`).
    Tables,
    /// The JSONL stream, as with `--jsonl -` (`padcsim --suite`).
    Jsonl,
}

/// Table rendering selected by `--json|--csv|--bars COL` (last one wins).
enum Render {
    Text,
    Json,
    Csv,
    Bars(String),
}

/// Prints a one-line usage error and exits 2.
pub fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
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

/// Installs the process-wide unit store at [`store_dir`]`(flag)`, if any,
/// returning the directory; exits 2 when it cannot be opened.
pub fn install_store(flag: Option<String>) -> Option<String> {
    let dir = store_dir(flag)?;
    experiments::install_unit_store(Path::new(&dir))
        .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
    Some(dir)
}

fn print_registry() {
    for e in REGISTRY {
        say(format_args!("{:<10} {}", e.id, e.paper_ref));
    }
}

/// Loads the `--resume` artifact. A selection that would overwrite the
/// resumed file with a subset of its rows is refused; a missing file just
/// means nothing is settled yet.
fn load_resume(path: &str, subset: bool, jsonl: Option<&str>) -> ResumeArtifact {
    if subset && jsonl.is_none_or(|out| out == path) {
        die(format!(
            "--resume with an experiment subset would overwrite {path} with partial \
             results; pass a different --jsonl destination"
        ));
    }
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let artifact = ResumeArtifact::parse(&text);
            eprintln!(
                "resume: {} settled row(s) in {path}, {} line(s) distrusted",
                artifact.len(),
                artifact.lines_rejected
            );
            artifact
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("resume: {path} not found, running everything");
            ResumeArtifact::default()
        }
        Err(e) => die(format!("cannot read {path}: {e}")),
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
        ("skipped", count(summary.skipped() as u64)),
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
    render: &Render,
) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for ((id, paper_ref), outcome) in selected.iter().zip(&summary.outcomes) {
        writeln!(out, "# {id} — {paper_ref} ({:.1}s)", outcome.seconds)?;
        match stash.get(*id) {
            Some(tables) => {
                for t in tables {
                    match render {
                        Render::Json => writeln!(
                            out,
                            "{}",
                            serde_json::to_string_pretty(t).expect("tables serialize")
                        )?,
                        Render::Csv => writeln!(out, "{}", t.to_csv())?,
                        Render::Bars(col) => match t.to_bars(col, 50) {
                            Some(chart) => writeln!(out, "{chart}")?,
                            None => writeln!(out, "{t}")?,
                        },
                        Render::Text => writeln!(out, "{t}")?,
                    }
                }
            }
            None if outcome.status == JobStatus::Skipped => {
                writeln!(out, "  resumed: settled row reused from the prior artifact")?;
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

/// Runs the experiment suite selected by `args` and exits; see the module
/// docs. `program` is the entry point's name in usage and hint text.
pub fn suite_main(program: &str, stdout: Stdout, args: &[String]) -> ! {
    let mut cfg = ExpConfig::at(Scale::Full);
    let mut harness = HarnessConfig::default();
    let mut render = Render::Text;
    let mut profile = false;
    let (mut jsonl, mut resume, mut summary_path, mut store) = (None, None, None, None);
    let mut ids: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format!("{flag} expects a value")))
        };
        let mut integer = || {
            let v = value();
            v.parse::<u64>()
                .unwrap_or_else(|_| die(format!("{flag} expects an integer, got {v:?}")))
        };
        match flag.as_str() {
            "--quick" => cfg = ExpConfig::at(Scale::Quick),
            "--smoke" => cfg = ExpConfig::at(Scale::Smoke),
            "--jobs" | "-j" => harness.workers = integer() as usize,
            "--budget-seconds" => harness.budget = Some(Duration::from_secs(integer())),
            "--no-progress" => harness.progress = false,
            "--profile" => profile = true,
            "--jsonl" => jsonl = Some(value()),
            "--resume" => resume = Some(value()),
            "--summary" => summary_path = Some(value()),
            "--store" => store = Some(value()),
            "--json" => render = Render::Json,
            "--csv" => render = Render::Csv,
            "--bars" => render = Render::Bars(value()),
            "--list" => {
                print_registry();
                std::process::exit(0);
            }
            "--help" | "-h" => {
                say(format_args!(
                    "usage: {program} [--quick|--smoke] [--jobs N] [--jsonl PATH] [--resume FILE]\n\
                     \x20      [--summary PATH] [--store DIR] [--budget-seconds N]\n\
                     \x20      [--json|--csv|--bars COL] [--no-progress] [--profile]\n\
                     \x20      [--list] [all|<experiment-id>...]\n\
                     known ids:"
                ));
                print_registry();
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                die(format!("unknown flag {other:?} (try {program} --help)"))
            }
            other => ids.push(other),
        }
    }

    // Unknown ids are a hard error, not a silent skip.
    let selected = experiments::select(&ids).unwrap_or_else(|e| {
        die(format!(
            "{e} (run `{program} --list` for the registered ids)"
        ))
    });
    let subset = selected.len() < REGISTRY.len();
    let labels: Vec<(&str, &str)> = selected.iter().map(|e| (e.id, e.paper_ref)).collect();

    // The resumed file is fully read before the suite starts, so writing
    // the regenerated artifact back over it is safe, and a crash mid-run
    // leaves a valid shorter artifact to resume from.
    let artifact = resume
        .as_deref()
        .map(|path| load_resume(path, subset, jsonl.as_deref()));
    let jsonl = jsonl
        .or(resume)
        .or((stdout == Stdout::Jsonl).then(|| "-".to_string()));
    let tables_on_stdout = jsonl.as_deref() != Some("-");

    if profile {
        crate::profile::set_timing_enabled(true);
    }
    install_store(store);
    let stash = tables_on_stdout.then(table_stash);
    let mut jobs = suite_jobs_profiled(selected, cfg, stash.clone(), profile);
    if let Some(artifact) = &artifact {
        for job in &mut jobs {
            job.cached_row = artifact.row(&job.id).map(str::to_string);
        }
    }

    let mut sink: Option<Box<dyn Write>> = jsonl.as_deref().map(|path| match path {
        "-" => Box::new(std::io::stdout().lock()) as Box<dyn Write>,
        path => Box::new(
            std::fs::File::create(path)
                .unwrap_or_else(|e| die(format!("cannot create {path}: {e}"))),
        ),
    });
    let summary = run_suite(
        &jobs,
        &harness,
        sink.as_mut().map(|s| s.as_mut() as &mut dyn Write),
        &mut std::io::stderr().lock(),
    )
    .unwrap_or_else(|e| {
        if !tables_on_stdout {
            stdout_failed(e);
        }
        eprintln!("error: suite I/O failed: {e}");
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
        if let Err(e) = render_tables(&labels, &summary, &stash, &render) {
            stdout_failed(e);
        }
    }
    if let Some(path) = &summary_path {
        std::fs::write(path, summary_json(&summary, &extras))
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    }

    eprintln!(
        "suite: {}/{} ok, {} resumed, {} failed, {} workers, {:.1}s wall",
        summary.ok(),
        summary.outcomes.len(),
        summary.skipped(),
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
            row: String::new(),
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
        // readers (and `suite_entry_points`' `summary_keys`) scan for.
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
                "skipped",
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
