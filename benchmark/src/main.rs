//! `padc-benchmark`: the outside-in benchmark of the PADC simulator.
//!
//! ```text
//! padc-benchmark run   [--seed S] [--seconds T] [--only W]... [--out FILE] [--repeat N] [--tiny] [--meta K=V]...
//! padc-benchmark trace [--seed S] [--seconds T] [--only W]... [--out FILE] [--tiny] [--meta K=V]...
//! padc-benchmark driver --workload W --seed S --seconds T --trace 0|1
//! padc-benchmark compare A.json B.json [--agreement]
//! padc-benchmark validate [--spec BENCHMARK.json] FILE...
//! padc-benchmark --list
//! ```
//!
//! `run` measures every workload with tracing off and prints the end-to-end
//! metrics; `trace` is the separate traced run behind the per-layer metrics.
//! `driver` is one workload in the shape `BENCHMARK.json`'s contract asks
//! for: one JSON object on the last line of standard output.

mod child;
mod parent;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use padc_benchmark::result::{self, CompareMode, ResultFile, Verdict, WorkloadResult};
use padc_benchmark::spec::{self, Sizes};
use serde_json::{Number, Value};

use crate::parent::RunOpts;

/// Seconds a workload measures for unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("padc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    match cmd.as_str() {
        "--list" | "list" => {
            print!("{}", spec::list());
            Ok(ExitCode::SUCCESS)
        }
        "run" => run_sets(&Flags::parse(rest)?, false),
        "trace" => run_sets(&Flags::parse(rest)?, true),
        "driver" => driver(&Flags::parse(rest)?),
        "compare" => compare(&Flags::parse(rest)?),
        "validate" => validate(&Flags::parse(rest)?),
        "child" => {
            let f = Flags::parse(rest)?;
            child::run(&child::ChildArgs {
                workload: f.workload.clone().ok_or("child needs --workload")?,
                seed: f.seed,
                seconds: f.seconds,
                sizes: f.sizes(),
                trace: f.traced,
                store: f.store.clone(),
                workers: f.workers,
                jsonl: f.jsonl.clone(),
                paper_gaps: f.paper_gaps,
            })?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: padc-benchmark run|trace [--seed S] [--seconds T] [--only W]... [--out FILE] [--repeat N] [--tiny] [--meta K=V]...\n\
     \x20      padc-benchmark driver --workload W --seed S --seconds T --trace 0|1\n\
     \x20      padc-benchmark compare A.json B.json [--agreement]\n\
     \x20      padc-benchmark validate [--spec BENCHMARK.json] FILE...\n\
     \x20      padc-benchmark --list"
        .to_string()
}

/// Every flag of every subcommand; each subcommand reads the ones it knows.
#[derive(Debug)]
struct Flags {
    seed: u64,
    seconds: f64,
    only: Vec<String>,
    out: Option<PathBuf>,
    repeat: usize,
    tiny: bool,
    meta: BTreeMap<String, String>,
    workload: Option<String>,
    trace: Option<u8>,
    traced: bool,
    store: Option<PathBuf>,
    workers: usize,
    jsonl: Option<PathBuf>,
    paper_gaps: bool,
    agreement: bool,
    spec: PathBuf,
    files: Vec<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            only: Vec::new(),
            out: None,
            repeat: 1,
            tiny: false,
            meta: BTreeMap::new(),
            workload: None,
            trace: None,
            traced: false,
            store: None,
            workers: 1,
            jsonl: None,
            paper_gaps: false,
            agreement: false,
            spec: PathBuf::from("BENCHMARK.json"),
            files: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{a} needs a value"))
            };
            fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
                v.parse()
                    .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
            }
            match a.as_str() {
                "--seed" => f.seed = num(a, value()?)?,
                "--seconds" => f.seconds = num(a, value()?)?,
                "--only" => f.only.push(value()?),
                "--out" => f.out = Some(value()?.into()),
                "--repeat" => f.repeat = num(a, value()?)?,
                "--tiny" => f.tiny = true,
                "--meta" => {
                    let kv = value()?;
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("--meta {kv:?} is not KEY=VALUE"))?;
                    f.meta.insert(k.to_string(), v.to_string());
                }
                "--workload" => f.workload = Some(value()?),
                "--trace" => f.trace = Some(num(a, value()?)?),
                "--traced" => f.traced = true,
                "--store" => f.store = Some(value()?.into()),
                "--workers" => f.workers = num(a, value()?)?,
                "--jsonl" => f.jsonl = Some(value()?.into()),
                "--paper-gaps" => f.paper_gaps = true,
                "--agreement" => f.agreement = true,
                "--spec" => f.spec = value()?.into(),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                file => f.files.push(file.into()),
            }
        }
        // Zero is what a suite child gets: it runs its one iteration.
        if !(f.seconds.is_finite() && f.seconds >= 0.0) {
            return Err("--seconds must not be negative".to_string());
        }
        for name in f.only.iter().chain(&f.workload) {
            if spec::workload(name).is_none() {
                return Err(format!("unknown workload {name:?} (see --list)"));
            }
        }
        Ok(f)
    }

    fn sizes(&self) -> Sizes {
        Sizes { tiny: self.tiny }
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// One full set: every selected workload, in order.
fn run_set(f: &Flags, trace: bool) -> Result<ResultFile, String> {
    let loadavg_before = loadavg();
    let opts = RunOpts {
        seed: f.seed,
        seconds: f.seconds,
        sizes: f.sizes(),
        trace,
        paper_gaps: true,
    };
    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        if !f.only.is_empty() && !f.only.iter().any(|o| o == w.name) {
            continue;
        }
        eprintln!("padc-benchmark: {} ...", w.name);
        let r = parent::run_workload(w, &opts)?;
        print_workload(&r, trace);
        workloads.push(r);
    }
    Ok(ResultFile {
        schema: result::SCHEMA.to_string(),
        mode: if trace { "trace" } else { "run" }.to_string(),
        seed: f.seed,
        seconds: f.seconds,
        tiny: f.tiny,
        nproc: parent::nproc() as u64,
        loadavg_before,
        loadavg_after: loadavg(),
        meta: f.meta.clone(),
        workloads,
    })
}

fn print_workload(r: &WorkloadResult, trace: bool) {
    println!("{}: {} checks, {} failed", r.name, r.attempted, r.failed);
    for c in r.checks.iter().filter(|c| c.failed > 0) {
        println!("  FAILED {} ({} of {})", c.name, c.failed, c.attempted);
    }
    let end_to_end = spec::END_TO_END.iter().map(|m| m.name);
    let per_layer = spec::PER_LAYER.iter().map(|m| m.name);
    let names: Vec<&str> = if trace {
        end_to_end.chain(per_layer).collect()
    } else {
        end_to_end.collect()
    };
    for name in names {
        let Some(m) = r.metrics.get(name) else {
            continue;
        };
        match &m.samples {
            Some(s) => println!(
                "  {name:<29} {:>16.6} {:<8} n={} min={:.6} q1={:.6} q3={:.6} max={:.6}",
                m.value, m.unit, s.n, s.min, s.q1, s.q3, s.max
            ),
            None => println!("  {name:<29} {:>16.6} {}", m.value, m.unit),
        }
    }
}

fn write_result(path: &PathBuf, file: &ResultFile) -> Result<(), String> {
    let text = serde_json::to_string_pretty(file).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run` / `trace`: `--repeat` sets, each written to its own file, then the
/// sets compared with each other (the A/A check).
fn run_sets(f: &Flags, trace: bool) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for i in 0..f.repeat.max(1) {
        let set = run_set(f, trace)?;
        if let Some(out) = &f.out {
            let path = if i == 0 {
                out.clone()
            } else {
                out.with_extension(format!("{}.json", i + 1))
            };
            write_result(&path, &set)?;
            eprintln!("padc-benchmark: wrote {}", path.display());
        }
        sets.push(set);
    }
    let mut ok = sets.iter().all(|s| s.workloads.iter().all(|w| w.correct));
    for pair in sets.windows(2) {
        let rows = result::compare(&pair[0], &pair[1], CompareMode::Agreement);
        print!("{}", result::render(&rows));
        ok &= rows.iter().all(|r| r.verdict == Verdict::Ok);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload in the contract's shape. With `--trace 0` the metrics are the
/// `end_to_end` list of `BENCHMARK.json`, with `--trace 1` its `per_layer`
/// list; a metric the workload does not reach reads 0.
fn driver(f: &Flags) -> Result<ExitCode, String> {
    let w = f
        .workload
        .as_deref()
        .and_then(spec::workload)
        .ok_or("driver needs --workload")?;
    let trace = f.trace.ok_or("driver needs --trace 0|1")? == 1;
    let r = parent::run_workload(
        w,
        &RunOpts {
            seed: f.seed,
            seconds: f.seconds,
            sizes: f.sizes(),
            trace,
            paper_gaps: trace,
        },
    )?;
    let metrics = spec::contract_list(trace)
        .iter()
        .map(|m| {
            let value = r.metrics.get(m.name).map_or(0.0, |v| v.value);
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Num(Number::F(value))),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    for c in r.checks.iter().filter(|c| c.failed > 0) {
        eprintln!(
            "padc-benchmark: {}: check {} failed {} of {}",
            r.name, c.name, c.failed, c.attempted
        );
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.correct)),
        ("attempted".to_string(), Value::Num(Number::U(r.attempted))),
        ("failed".to_string(), Value::Num(Number::U(r.failed))),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    let mut text = String::new();
    serde_json::write_value(&mut text, &line, None, 0);
    println!("{text}");
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_result(path: &PathBuf) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file: ResultFile =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if file.schema != result::SCHEMA {
        return Err(format!(
            "{}: schema {:?}, expected {:?}",
            path.display(),
            file.schema,
            result::SCHEMA
        ));
    }
    Ok(file)
}

fn compare(f: &Flags) -> Result<ExitCode, String> {
    let [a, b] = f.files.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    let (a, b) = (read_result(a)?, read_result(b)?);
    if (a.seed, a.tiny) != (b.seed, b.tiny) {
        eprintln!(
            "padc-benchmark: warning: comparing seed {} tiny={} with seed {} tiny={}",
            a.seed, a.tiny, b.seed, b.tiny
        );
    }
    let mode = if f.agreement {
        CompareMode::Agreement
    } else {
        CompareMode::Regression
    };
    let rows = result::compare(&a, &b, mode);
    print!("{}", result::render(&rows));
    if rows.is_empty() {
        return Err("the two files share no workload x metric pair".to_string());
    }
    Ok(if rows.iter().any(|r| r.verdict == Verdict::OutOfBound) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Checks result files against `BENCHMARK.json`: a `run` file carries every
/// `end_to_end` metric and a `trace` file every `per_layer` metric, with the
/// declared unit, for each workload it ran, and all its checks held.
fn validate(f: &Flags) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(&f.spec)
        .map_err(|e| format!("cannot read {}: {e}", f.spec.display()))?;
    let spec_json = serde_json::parse(&text).map_err(|e| format!("{}: {e}", f.spec.display()))?;
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
    let entries = |key: &str| {
        spec_json
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{}: no {key} list", f.spec.display()))
    };
    let declared = |key: &str| -> Result<Vec<(String, String)>, String> {
        entries(key)?
            .iter()
            .map(|m| {
                field(m, "name")
                    .zip(field(m, "unit"))
                    .ok_or_else(|| format!("{}: malformed {key} entry", f.spec.display()))
            })
            .collect()
    };
    let workloads: Vec<String> = entries("workloads")?
        .iter()
        .filter_map(|w| field(w, "name"))
        .collect();
    let mut problems = 0;
    for path in &f.files {
        let file = read_result(path)?;
        let wanted = declared(if file.mode == "trace" {
            "per_layer"
        } else {
            "end_to_end"
        })?;
        for w in &file.workloads {
            let mut complain = |what: String| {
                eprintln!("{}: {}: {what}", path.display(), w.name);
                problems += 1;
            };
            if !workloads.contains(&w.name) {
                complain("workload is not in the spec".to_string());
            }
            if !w.correct {
                complain(format!("{} of {} checks failed", w.failed, w.attempted));
            }
            let kind = spec::workload(&w.name).map(|s| s.kind);
            for (name, unit) in &wanted {
                match w.metrics.get(name) {
                    Some(m) if &m.unit != unit => {
                        complain(format!("{name}: unit {:?}, spec says {unit:?}", m.unit))
                    }
                    // A file leaves out what its workload does not reach.
                    None if kind.is_some_and(|k| spec::reports(name, k)) => {
                        complain(format!("{name}: missing"))
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(if problems == 0 {
        println!(
            "validate: {} file(s) match {}",
            f.files.len(),
            f.spec.display()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
