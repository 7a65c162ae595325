//! Binary-level usage-error contract of `padcsim`: input the CLI cannot
//! run must exit 2 with a one-line message on stderr — never a panic with
//! a backtrace, and never a silently ignored flag.

use std::process::Command;

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
