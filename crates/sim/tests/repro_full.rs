//! The full-scale acceptance step as a command: `repro` at `Scale::Full`
//! must regenerate the committed `repro_full.jsonl` byte for byte. Not
//! part of the default gate (8–10 min on 2 CPUs in release, an hour in a
//! debug build); run it before merging anything that touches the
//! simulator or the experiment layer:
//!
//! ```text
//! cargo test --release -p padc-sim -- --ignored repro_full
//! ```

mod common;

use std::process::{Command, Stdio};

#[test]
#[ignore = "full-scale run, 8-10 min in release: pass `--ignored repro_full`"]
fn repro_full_regenerates_the_committed_artifact() {
    let regenerated =
        std::env::temp_dir().join(format!("padc-repro-full-{}.jsonl", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env_remove("PADC_STORE")
        .args(["--no-progress", "--jsonl"])
        .arg(&regenerated)
        .stdout(Stdio::null())
        .status()
        .expect("repro spawns");
    assert!(status.success(), "repro exited with {status}");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_full.jsonl");
    common::assert_same_bytes(
        "repro_full",
        (
            "committed.jsonl",
            &std::fs::read(committed).expect("committed artifact"),
        ),
        (
            "regenerated.jsonl",
            &std::fs::read(&regenerated).expect("regenerated artifact"),
        ),
    );
    std::fs::remove_file(&regenerated).expect("scratch artifact removed");
}
