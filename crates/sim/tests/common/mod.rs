//! Helpers shared by this package's integration tests.

use std::path::PathBuf;

/// Asserts two artifacts are byte-identical. On a mismatch both are
/// written under `CARGO_TARGET_TMPDIR` (`target/tmp`, which CI uploads
/// when the job fails) so they can be diffed without a local rerun.
#[track_caller]
pub fn assert_same_bytes(test: &str, a: (&str, &[u8]), b: (&str, &[u8])) {
    if a.1 == b.1 {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("mismatch directory");
    for (name, bytes) in [a, b] {
        std::fs::write(dir.join(name), bytes).expect("mismatching artifact written");
    }
    panic!(
        "{} and {} differ; both are under {}",
        a.0,
        b.0,
        dir.display()
    );
}
