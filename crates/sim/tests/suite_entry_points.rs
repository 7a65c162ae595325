//! Binary-level contract of the two suite entry points: `repro` and
//! `padcsim --suite` are one driver (`padc_sim::cli::suite_main`), so they
//! accept the same flags, write the same JSONL bytes and summary keys, and
//! reject the same usage errors — differing only in what stdout carries
//! when no JSONL destination is named.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs one entry point (`repro`, or `padcsim --suite`) with `args`.
fn suite(entry: &str, args: &[&str]) -> Output {
    let mut cmd = match entry {
        "repro" => Command::new(env!("CARGO_BIN_EXE_repro")),
        _ => {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_padcsim"));
            cmd.arg("--suite");
            cmd
        }
    };
    cmd.env_remove("PADC_STORE")
        .args(args)
        .output()
        .expect("entry point spawns")
}

const ENTRIES: [&str; 2] = ["repro", "padcsim"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("padc-entry-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The top-level keys of a `--summary` file, in order.
fn summary_keys(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("summary written");
    text.lines()
        .filter_map(|l| l.strip_prefix("  \""))
        .map(|l| l.split('"').next().expect("key").to_string())
        .collect()
}

#[test]
fn both_entry_points_take_every_suite_flag_and_write_the_same_bytes() {
    let dir = scratch("flags");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let mut artifacts = Vec::new();
    for entry in ENTRIES {
        let (jsonl, summary) = (
            path(&format!("{entry}.jsonl")),
            path(&format!("{entry}.json")),
        );
        let store = path(&format!("{entry}-store"));
        let fresh = suite(
            entry,
            &[
                "--smoke",
                "--jobs",
                "2",
                "--no-progress",
                "--budget-seconds",
                "600",
                "--store",
                &store,
                "--jsonl",
                &jsonl,
                "--summary",
                &summary,
                "fig2",
                "tab5",
            ],
        );
        let stderr = String::from_utf8_lossy(&fresh.stderr).into_owned();
        assert_eq!(fresh.status.code(), Some(0), "{entry}: {stderr}");
        assert!(
            stderr.contains("store: hits=0 misses=110 "),
            "{entry}: {stderr}"
        );
        assert!(
            stderr.contains("suite: 2/2 ok, 0 resumed"),
            "{entry}: {stderr}"
        );
        assert!(
            stderr.contains("single_run_memo: requested=110 computed=110"),
            "{entry}: {stderr}"
        );
        assert!(!stderr.contains("[  1/2]"), "{entry} ignored --no-progress");

        // A settled artifact resumes with zero executions, byte for byte
        // (so `--profile`, which would perturb executed payloads, is safe).
        let resumed_jsonl = path(&format!("{entry}-resumed.jsonl"));
        let resumed = suite(
            entry,
            &[
                "--smoke",
                "--profile",
                "--resume",
                &jsonl,
                "--jsonl",
                &resumed_jsonl,
                "fig2",
                "tab5",
            ],
        );
        let stderr = String::from_utf8_lossy(&resumed.stderr).into_owned();
        assert_eq!(resumed.status.code(), Some(0), "{entry}: {stderr}");
        assert!(
            stderr.contains("suite: 0/2 ok, 2 resumed"),
            "{entry}: {stderr}"
        );
        let bytes = std::fs::read(&jsonl).expect("artifact written");
        assert_eq!(std::fs::read(&resumed_jsonl).expect("resumed"), bytes);
        artifacts.push((bytes, summary_keys(Path::new(&summary))));
    }
    assert!(!artifacts[0].0.is_empty());
    assert_eq!(artifacts[0].0, artifacts[1].0, "JSONL bytes differ");
    assert_eq!(artifacts[0].1, artifacts[1].1, "--summary keys differ");
    assert!(artifacts[0].1.contains(&"subjobs_executed".to_string()));
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn stdout_is_the_one_difference() {
    let tables = suite("repro", &["--smoke", "--no-progress", "fig2"]);
    let jsonl = suite("padcsim", &["--smoke", "--no-progress", "fig2"]);
    assert!(tables.status.success() && jsonl.status.success());
    assert!(tables.stdout.starts_with("# fig2 — ".as_bytes()));
    assert!(jsonl
        .stdout
        .starts_with(b"{\"id\":\"fig2\",\"status\":\"ok\""));
    assert_eq!(jsonl.stdout.iter().filter(|&&b| b == b'\n').count(), 1);
    // `--jsonl -` makes repro the other entry point.
    let repro_jsonl = suite(
        "repro",
        &["--smoke", "--no-progress", "--jsonl", "-", "fig2"],
    );
    assert_eq!(repro_jsonl.stdout, jsonl.stdout);
}

#[test]
fn usage_errors_exit_2_with_one_line_from_both() {
    let dir = scratch("usage");
    let artifact = dir.join("settled.jsonl");
    std::fs::write(&artifact, "").expect("artifact");
    let artifact = artifact.to_str().expect("utf-8 path");
    for entry in ENTRIES {
        for (args, needle) in [
            (&["--smoke", "--exec", "planned", "fig2"][..], "--exec"),
            (&["--smoke", "figx"][..], "figx"),
            (&["--jobs", "many"][..], "--jobs expects an integer"),
            (
                &["--smoke", "--resume", artifact, "fig2"][..],
                "would overwrite",
            ),
        ] {
            let out = suite(entry, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{entry} {args:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{entry} {args:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{entry} {args:?}: {stderr}");
            assert!(stderr.contains(needle), "{entry} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{entry} {args:?} wrote results");
        }
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}
