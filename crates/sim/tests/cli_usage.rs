//! Binary-level usage-error contract of `padcsim`: input the CLI cannot
//! run must exit 2 with a one-line message on stderr — never a panic with
//! a backtrace, and never a silently ignored flag.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory private to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("padc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `padcsim` with `args` and asserts the usage-error contract,
/// returning the stderr line.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_padcsim"))
        .args(args)
        .output()
        .expect("padcsim spawns");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote results");
    stderr
}

#[test]
fn unrunnable_input_exits_2_with_one_line() {
    let zero = rejected(&["--bench", "mcf_06", "--instructions", "0"]);
    assert!(zero.contains("--instructions"), "{zero}");

    // The retired execution-mode selector is an unknown flag like any other.
    let exec = rejected(&["--suite", "--smoke", "--exec", "planned", "fig2"]);
    assert!(exec.contains("--exec"), "{exec}");
}

#[test]
fn config_core_count_must_match_the_sources() {
    let dir = scratch("config");
    let config = dir.join("c2.json");
    let printed = Command::new(env!("CARGO_BIN_EXE_padcsim"))
        .args(["--print-config", "--cores", "2"])
        .output()
        .expect("padcsim spawns");
    assert!(printed.status.success());
    std::fs::write(&config, printed.stdout).expect("config written");
    let config = config.to_str().expect("utf-8 path");

    let mismatch = rejected(&["--config", config, "--bench", "mcf_06"]);
    assert!(mismatch.contains("2 core(s) but 1"), "{mismatch}");
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
