//! Binary-level usage contract of `padcsim`: input the CLI cannot run
//! must exit 2 with a one-line message on stderr — never a panic with a
//! backtrace, and never a silently ignored flag — a reader that closes
//! stdout early is a clean exit, and the `store` subcommand and
//! `--refresh-policy all-bank` do what they say.

mod common;

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh scratch directory private to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("padc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn padcsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_padcsim"))
        .env_remove("PADC_STORE")
        .args(args)
        .output()
        .expect("padcsim spawns")
}

/// Runs `padcsim` with `args`, which must succeed, returning its stdout.
fn accepted(args: &[&str]) -> String {
    let out = padcsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Runs `padcsim` with `args` and asserts the usage-error contract,
/// returning the stderr line.
fn rejected(args: &[&str]) -> String {
    let out = padcsim(args);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote results");
    stderr
}

/// `padcsim ... | head -1`: every stdout write fails with EPIPE. The
/// reader is closed before the process starts, so no write can slip
/// through first.
#[test]
fn a_closed_stdout_reader_is_a_clean_exit() {
    for args in [
        &["--list-benchmarks"][..],
        &["--suite", "--list"],
        &["--print-config"],
        &["--bench", "mcf_06", "--instructions", "1000"],
        &["--suite", "--smoke", "--no-progress", "cost"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_padcsim"))
            .env_remove("PADC_STORE")
            .args(args)
            .stdout(writer)
            .output()
            .expect("padcsim spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn unrunnable_input_exits_2_with_one_line() {
    let zero = rejected(&["--bench", "mcf_06", "--instructions", "0"]);
    assert!(zero.contains("--instructions"), "{zero}");

    // The retired execution-mode selector is an unknown flag like any other.
    let exec = rejected(&["--suite", "--smoke", "--exec", "planned", "fig2"]);
    assert!(exec.contains("--exec"), "{exec}");
    // The stepping mode is a single run's: the suite and the server have
    // no `--fast-forward`.
    for args in [
        &["--suite", "--smoke", "--fast-forward", "off", "fig2"][..],
        &["serve", "--fast-forward", "off"],
    ] {
        let ff = rejected(args);
        assert!(ff.contains("--fast-forward"), "{ff}");
    }

    let no_cores = rejected(&["--cores", "0", "--print-config"]);
    assert!(
        no_cores.contains("--cores must be at least 1"),
        "{no_cores}"
    );
    let spare_cores = rejected(&["--cores", "3", "--bench", "mcf_06"]);
    assert!(spare_cores.contains("--cores 3 but 1"), "{spare_cores}");
}

/// `cost cost` used to run the job twice and write two `cost` rows into an
/// artifact whose rows `--resume` keys by id, and `all cost` to run `cost`
/// alone.
#[test]
fn a_selection_runs_each_experiment_once_and_all_anywhere_is_everything() {
    let twice = padcsim(&["--suite", "--smoke", "--no-progress", "cost", "cost"]);
    let stderr = String::from_utf8_lossy(&twice.stderr);
    assert!(stderr.contains("suite: 1/1 ok"), "{stderr}");
    assert_eq!(twice.stdout.iter().filter(|&&b| b == b'\n').count(), 1);

    // Against an artifact that settles every id, `all` has nothing to run.
    let dir = scratch("select");
    let artifact = dir.join("settled.jsonl");
    let settled: Vec<String> = accepted(&["--suite", "--list"])
        .lines()
        .map(|line| line.split_whitespace().next().expect("id column"))
        .map(|id| format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"result\":{{}}}}\n"))
        .collect();
    std::fs::write(&artifact, settled.concat()).expect("artifact written");
    let artifact = artifact.to_str().expect("utf-8 path");
    let all = padcsim(&[
        "--suite",
        "--no-progress",
        "--resume",
        artifact,
        "all",
        "cost",
    ]);
    let stderr = String::from_utf8_lossy(&all.stderr);
    let resumed = format!("suite: 0/{n} ok, {n} resumed", n = settled.len());
    assert!(stderr.contains(&resumed), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// A two-line trace file asking for a 22 TB expansion is a usage error
/// decided by arithmetic — not an allocation abort (SIGABRT, no exit code)
/// after eating the host's memory.
#[test]
fn an_over_long_trace_is_refused_before_it_is_expanded() {
    let dir = scratch("trace");
    let trace = dir.join("huge.trace");
    std::fs::write(&trace, "C 999999999999\nL 0x40 0x400\n").expect("trace written");
    let started = std::time::Instant::now();
    let stderr = rejected(&["--trace", trace.to_str().expect("utf-8 path")]);
    // Milliseconds on an idle host; the bound only has to sit below what
    // expanding 10^12 ops would take.
    assert!(started.elapsed() < std::time::Duration::from_secs(30));
    assert!(stderr.starts_with("error: trace "), "{stderr}");
    assert!(
        stderr.contains("line 1") && stderr.contains("limit"),
        "{stderr}"
    );
    assert!(!stderr.contains("memory allocation"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn config_core_count_must_match_the_sources() {
    let dir = scratch("config");
    let config = dir.join("c2.json");
    std::fs::write(&config, accepted(&["--print-config", "--cores", "2"])).expect("config written");
    let config = config.to_str().expect("utf-8 path");

    let mismatch = rejected(&["--config", config, "--bench", "mcf_06"]);
    assert!(mismatch.contains("2 core(s) but 1"), "{mismatch}");

    // What the file sets, a flag may not set again.
    for flag in [
        &["--instructions", "5000"][..],
        &["--policy", "padc"],
        &["--no-prefetch"],
        &["--cores", "2"],
    ] {
        let mut args = vec!["--config", config, "--bench", "mcf_06", "--bench", "lbm_06"];
        args.extend(flag);
        let conflict = rejected(&args);
        assert!(
            conflict.contains(&format!("{} cannot be combined with --config", flag[0])),
            "{conflict}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// A request buffer the controller cannot be built over is a usage error
/// naming the field and its range: 65 535 entries used to reach
/// `RequestBuffer::new`'s rank-width `assert!` (exit 101 and a backtrace),
/// and 0 entries — nothing ever enqueues — spun to `max_cycles` for the
/// better part of a minute before exiting 0 with an all-zero report.
#[test]
fn config_buffer_size_must_be_one_the_controller_can_hold() {
    let dir = scratch("buffer");
    let printed = accepted(&["--print-config"]);
    assert!(printed.contains("\"buffer_entries\": 64,"), "{printed}");
    for entries in ["0", "65535"] {
        let config = dir.join(format!("b{entries}.json"));
        let sized = printed.replace(
            "\"buffer_entries\": 64,",
            &format!("\"buffer_entries\": {entries},"),
        );
        std::fs::write(&config, sized).expect("config written");
        let started = std::time::Instant::now();
        let stderr = rejected(&[
            "--config",
            config.to_str().expect("utf-8 path"),
            "--bench",
            "mcf_06",
        ]);
        assert!(started.elapsed() < std::time::Duration::from_secs(20));
        assert!(
            stderr.contains(&format!("controller.buffer_entries is {entries}"))
                && stderr.contains("between 1 and 65534"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn store_subcommand_does_not_create_what_it_inspects() {
    let dir = scratch("store");
    let missing = dir.join("typo");
    let path = missing.to_str().expect("utf-8 path");

    let bogus = rejected(&["store", "bogus", "--store", path]);
    assert!(bogus.contains("unknown store action"), "{bogus}");
    for action in [
        &["store", "stats"][..],
        &["store", "gc", "--max-bytes", "1"],
    ] {
        let mut args = action.to_vec();
        args.extend(["--store", path]);
        assert_eq!(rejected(&args), format!("error: no store at {path}\n"));
    }
    assert!(!missing.exists(), "inspecting created {path}");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// The number after `key=` in a `store stats` / `store gc` output line.
fn field(line: &str, key: &str) -> u64 {
    let value = line
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"));
    value.parse().expect("a count")
}

#[test]
fn store_gc_evicts_down_to_the_byte_bound() {
    let dir = scratch("gc");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 path");
    accepted(&[
        "--suite",
        "--smoke",
        "--no-progress",
        "--store",
        store,
        "--jsonl",
        dir.join("out.jsonl").to_str().expect("utf-8 path"),
        "tab5",
    ]);

    let full = accepted(&["store", "stats", "--store", store]);
    let (entries, bytes) = (field(&full, "entries"), field(&full, "bytes"));
    assert!(entries >= 3, "{full}");
    let bound = bytes / 2;
    let gc = accepted(&[
        "store",
        "gc",
        "--max-bytes",
        &bound.to_string(),
        "--store",
        store,
    ]);
    assert!(field(&gc, "evicted") > 0, "{gc}");
    assert!(field(&gc, "remaining_bytes") <= bound, "{gc}");
    assert_eq!(
        field(&gc, "evicted") + field(&gc, "remaining_entries"),
        entries,
        "{gc}"
    );
    let left = accepted(&["store", "stats", "--store", store]);
    assert_eq!(field(&left, "bytes"), field(&gc, "remaining_bytes"));
    assert_eq!(field(&left, "entries"), field(&gc, "remaining_entries"));
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// `RefreshPolicy::AllBank` is the pre-`RefreshPolicy` extended-timing
/// model under its new name, never a semantic change: naming it changes
/// no byte of the report.
#[test]
fn all_bank_refresh_is_the_legacy_extended_timing_model() {
    let run = |extra: &[&str]| {
        let mut args = vec!["--policy", "padc", "--instructions", "30000"];
        for bench in ["mcf_06", "libquantum_06", "lbm_06", "milc_06"] {
            args.extend(["--bench", bench]);
        }
        args.extend(["--extended-timing", "--json"]);
        args.extend(extra);
        accepted(&args)
    };
    let legacy = run(&[]);
    assert!(legacy.contains("\"refreshes\""), "not a report: {legacy}");
    common::assert_same_bytes(
        "cli-all-bank",
        ("legacy.json", legacy.as_bytes()),
        (
            "all-bank.json",
            run(&["--refresh-policy", "all-bank"]).as_bytes(),
        ),
    );
}
