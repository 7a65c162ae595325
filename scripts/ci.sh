#!/usr/bin/env bash
# Local CI gate: shellcheck, formatting, lints, release build, docs, every
# workspace crate's unit, integration and doc tests (--workspace: without
# it cargo selects the root package alone), the out-of-workspace benchmark
# package's tests, and the EXPERIMENTS.md drift check. Everything runs offline (external deps
# are vendored; see vendor/README.md). Each step prints its elapsed
# seconds, and the same per-step timings land in the workflow step
# summary ($GITHUB_STEP_SUMMARY) via gate_summary.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/gate_summary.sh
source "$(dirname "$0")/gate_summary.sh"
gate_init "ci gate"

# Runs one gate step and prints its wall time.
step() {
    local name=$1
    shift
    gate_section "$name"
    echo "== $name"
    local t0=$SECONDS
    "$@"
    echo "   -- ${name}: $((SECONDS - t0))s"
}

doc_step() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

if command -v shellcheck >/dev/null 2>&1; then
    step "shellcheck scripts/*.sh" shellcheck scripts/*.sh
else
    # Report the skip explicitly — a missing linter must never read as a
    # silent pass in the summary table.
    gate_skip "shellcheck scripts/*.sh" "shellcheck not installed (offline container)"
    echo "== shellcheck scripts/*.sh: skipped (shellcheck not installed)"
fi
step "cargo fmt --check" cargo fmt --check
step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo build --release --workspace" cargo build --release --workspace
step "cargo doc --no-deps (warnings denied)" doc_step
step "cargo test --workspace" cargo test -q --workspace
step "cargo test --doc --workspace" cargo test --doc -q --workspace
# The benchmark package is outside the workspace and path-depends on it:
# a public-API deletion that breaks it must fail here, not in the driver.
step "benchmark package tests" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
step "EXPERIMENTS.md drift check" \
    python3 scripts/make_experiments_md.py --check repro_full.jsonl

echo "== ci.sh: all green in ${SECONDS}s"
