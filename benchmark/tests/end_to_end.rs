//! The benchmark checked against its own contract: `BENCHMARK.json` agrees
//! with the tables the binary runs from, and the `--tiny` preset takes every
//! workload through every correctness check and every metric.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use padc_benchmark::result::ResultFile;
use padc_benchmark::spec::{self, Kind};
use serde_json::Value;

const BENCH: &str = env!("CARGO_BIN_EXE_padc-benchmark");
// Named so cargo builds it: the traced run starts it from beside BENCH.
const PROBES: &str = env!("CARGO_BIN_EXE_padc-probes");

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn bench(args: &[&str]) -> Output {
    assert!(Path::new(PROBES).exists());
    Command::new(BENCH)
        .args(args)
        .output()
        .expect("padc-benchmark runs")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {v:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_agrees_with_the_spec_tables_and_list() {
    let text = std::fs::read_to_string(spec_path()).expect("BENCHMARK.json is readable");
    assert!(text.len() <= 64 * 1024);
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| json.get(key).and_then(Value::as_array).expect(key).to_vec();
    let mut names = BTreeSet::new();
    let mut name_of = |m: &Value| {
        let n = field(m, "name").to_string();
        assert!(
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
        assert!(names.insert(n.clone()), "{n} is used twice");
        n
    };

    let workloads = list("workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!(name_of(j), w.name);
        assert_eq!(field(j, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }

    // The contract's end_to_end list is reported by every workload and never
    // reads 0; the spec marks which of the eight metrics can promise that.
    let contract: Vec<_> = spec::END_TO_END.iter().filter(|m| m.in_contract).collect();
    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), contract.len());
    for (j, m) in end_to_end.iter().zip(&contract) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(name_of(j), m.name);
        assert_eq!(field(j, "unit"), m.unit);
        assert_eq!(field(j, "better"), m.better.as_str());
        assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    assert!(contract
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let rest = spec::END_TO_END
        .iter()
        .filter(|m| !m.in_contract)
        .map(|m| (m.name, m.unit, m.better));
    let layers = spec::PER_LAYER.iter().map(|m| (m.name, m.unit, m.better));
    let expected: Vec<_> = rest.chain(layers).collect();
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), expected.len());
    assert!(per_layer.len() <= 128);
    for (j, (name, unit, better)) in per_layer.iter().zip(&expected) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(name_of(j), *name);
        assert_eq!(field(j, "unit"), *unit);
        assert!(unit.len() <= 16);
        assert_eq!(field(j, "better"), better.as_str());
    }

    // --list prints exactly these names: the first word of each indented line.
    let out = bench(&["--list"]);
    assert!(out.status.success());
    let listed: BTreeSet<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert_eq!(listed, names);
}

fn read(path: &Path) -> ResultFile {
    serde_json::from_str(&std::fs::read_to_string(path).expect("result file written"))
        .expect("result file parses")
}

fn value(file: &ResultFile, workload: &str, metric: &str) -> f64 {
    file.workloads
        .iter()
        .find(|w| w.name == workload)
        .unwrap_or_else(|| panic!("no workload {workload}"))
        .metrics
        .get(metric)
        .unwrap_or_else(|| panic!("{workload} reports no {metric}"))
        .value
}

#[test]
fn tiny_preset_runs_every_workload_check_and_metric() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let run_path = tmp.join("tiny-run.json");
    let trace_path = tmp.join("tiny-trace.json");
    let (run_str, trace_str) = (run_path.to_str().unwrap(), trace_path.to_str().unwrap());

    let out = bench(&[
        "run",
        "--tiny",
        "--seconds",
        "0.6",
        "--seed",
        "2",
        "--out",
        run_str,
    ]);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = read(&run_path);
    assert_eq!((run.mode.as_str(), run.seed, run.tiny), ("run", 2, true));
    assert_eq!(run.workloads.len(), spec::WORKLOADS.len());
    let mut checks = BTreeSet::new();
    for (r, w) in run.workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(r.name, w.name);
        assert!(r.correct && r.failed == 0 && r.attempted > 0, "{}", r.name);
        assert_eq!(value(&run, w.name, "fail_ratio"), 0.0);
        checks.extend(r.checks.iter().map(|c| c.name.clone()));
        for m in &spec::END_TO_END {
            assert_eq!(
                r.metrics.contains_key(m.name),
                m.on.covers(w.kind),
                "{} / {}",
                w.name,
                m.name
            );
        }
        for name in ["setup_s", "wall_s", "peak_rss_mb"] {
            assert!(value(&run, w.name, name) > 0.0, "{} / {name}", w.name);
        }
    }
    for expected in [
        "retired_before_cycle_cap",
        "core_cycles_accounted",
        "ctrl_cycles_accounted",
        "report_identical_across_iterations",
        "report_identical_across_processes",
        "cycle_exact_mode_identical",
        "suite_row_ok",
        "suite_row_count",
        "threads_within_nproc",
        "jsonl_identical_to_first_cold",
        "warm_store_misses_zero",
        "paper_gaps_computable",
    ] {
        assert!(checks.contains(expected), "check {expected} never ran");
    }

    let out = bench(&[
        "trace",
        "--tiny",
        "--seconds",
        "0.6",
        "--seed",
        "2",
        "--out",
        trace_str,
    ]);
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = read(&trace_path);
    for (r, w) in trace.workloads.iter().zip(&spec::WORKLOADS) {
        assert!(r.correct, "{}", r.name);
        for m in &spec::PER_LAYER {
            assert_eq!(
                r.metrics.contains_key(m.name),
                m.on.covers(w.kind),
                "{} / {}",
                w.name,
                m.name
            );
        }
        let v = |name: &str| value(&trace, w.name, name);
        if let Kind::Sim(_) = w.kind {
            assert!(r.checks.iter().any(|c| c.name == "report_identical_traced"));
            assert_eq!(
                v("sim.controller_phase_ns") + v("sim.core_phase_ns") + v("sim.loop_self_ns"),
                v("sim.run_ns")
            );
            assert!(v("workloads.next_op_ns") <= v("sim.core_phase_ns"));
            assert!(v("workloads.ops") > 0.0);
            assert_eq!(v("dram.refresh_pulls") > 0.0, w.name == "mix4-mech");
            assert!(r.spans.iter().any(|s| s.name == "sim.run"));
            assert!(r.span_totals.iter().any(|s| s.name == "workloads.next_op"));
            // Tracing changes no simulated statistic.
            assert_eq!(
                r.checks
                    .iter()
                    .find(|c| c.name == "report_identical_traced")
                    .map(|c| c.failed),
                Some(0)
            );
        } else {
            assert_eq!(v("store.misses") == 0.0, w.kind == Kind::SuiteWarm);
            assert!(v("store.entries") > 0.0 && v("store.probe_put_us") > 0.0);
        }
    }

    // The same file agrees with itself; validate accepts both files.
    assert!(bench(&["compare", run_str, run_str, "--agreement"])
        .status
        .success());
    let spec_file = spec_path();
    let out = bench(&[
        "validate",
        "--spec",
        spec_file.to_str().unwrap(),
        run_str,
        trace_str,
    ]);
    assert!(
        out.status.success(),
        "validate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn driver_prints_the_contract_object_on_its_last_line() {
    for (trace, contract) in [("0", true), ("1", false)] {
        let out = bench(&[
            "driver",
            "--workload",
            "compute4",
            "--seed",
            "5",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--tiny",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = serde_json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        let expected: Vec<&str> = spec::contract_list(!contract)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(keys(metrics), expected);
        for (name, m) in metrics.as_object().unwrap() {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        }
    }
}
