#!/usr/bin/env bash
# The CI gate, and the same thing locally: shellcheck, formatting, lints,
# release build, docs, every workspace crate's unit, integration and doc
# tests in one `cargo test --workspace` (--workspace: without it cargo
# selects the root package alone; no crate sets `doctest = false`, so that
# one step runs the doc tests too; the EXPERIMENTS.md drift check,
# crates/sim/tests/experiments_md.rs, is one of them), the controller, DRAM,
# core, store, JSON writer and JSON parser crates' tests, the suite pool's
# and the fast-forward equivalence tests again in release, and the
# out-of-workspace benchmark package's tests. Both builds are --locked, so a
# change to the crate graph fails the gate. No step needs Python.
# Everything runs offline (external deps are vendored; see vendor/README.md).
# Each step prints its elapsed seconds; on exit a pass/FAIL/skip table with
# the same timings goes to stderr and, when set, to $GITHUB_STEP_SUMMARY, so a
# red job is readable from the workflow summary page without opening logs.
#
# Not part of this gate (8-10 min on 2 CPUs): the full-scale acceptance step,
# `repro` regenerating the committed repro_full.jsonl byte for byte --
#   cargo test --release -p padc-sim -- --ignored repro_full
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS=() # "name<TAB>result<TAB>seconds<TAB>note", one per step

summary() {
    local code=$? verdict=pass row name result secs note
    [ "$code" -eq 0 ] || verdict=FAIL
    {
        echo "### ci gate: ${verdict} (${SECONDS}s)"
        echo
        echo "| step | result | time | note |"
        echo "| --- | --- | ---: | --- |"
        for row in "${ROWS[@]}"; do
            IFS=$'\t' read -r name result secs note <<<"$row"
            echo "| $name | $result | ${secs}s | $note |"
        done
        echo
    } | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}" >&2
}
trap summary EXIT

# Runs one gate step, prints its wall time and records its row; the first
# failing step ends the gate.
step() {
    local name=$1 t0=$SECONDS code=0 result=pass note=""
    shift
    echo "== $name"
    "$@" || { code=$? result=FAIL note="exit status $code"; }
    echo "   -- ${name}: $((SECONDS - t0))s"
    ROWS+=("$name"$'\t'"$result"$'\t'"$((SECONDS - t0))"$'\t'"$note")
    [ "$code" -eq 0 ] || exit "$code"
}

doc_step() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

if command -v shellcheck >/dev/null 2>&1; then
    step "shellcheck scripts/*.sh" shellcheck scripts/*.sh
else
    # Report the skip explicitly — a missing linter must never read as a
    # silent pass in the summary table.
    ROWS+=("shellcheck scripts/*.sh"$'\t'skip$'\t'0$'\t'"shellcheck not installed")
    echo "== shellcheck scripts/*.sh: skipped (shellcheck not installed)"
fi
step "cargo fmt --check" cargo fmt --check
step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings
# --locked: a change to the crate graph must fail here, not rewrite
# Cargo.lock (or, below, benchmark/Cargo.lock) on the way.
step "cargo build --release --workspace --locked" cargo build --release --workspace --locked
step "cargo doc --no-deps (warnings denied)" doc_step
step "cargo test --workspace" cargo test -q --workspace
# The controller, DRAM and core oracles, the store and the JSON parser once
# more, against the build the benchmark measures: in release `debug_assert!`s
# are compiled out and `Cycle` arithmetic wraps instead of panicking, and the
# ready lane's `local` / floor maxima and the core window ring's
# sequence-number indexing are exactly the arithmetic a debug-only run cannot
# vouch for; the store's concurrent readers and writers race at release
# speed, its header parse meets lengths past the address space where
# arithmetic wraps, and its SHA-256 oracles run in the build that hashes
# every key; the parser's linear-time guard and string oracle, and the
# streaming writer's oracle, run in the build that writes every store entry
# and serves every warm store hit; and the suite pool's queue, in-order
# emitter and peak counter run at the speed every suite runs them.
step "cargo test --release -p padc-core -p padc-dram -p padc-cpu -p padc-store -p padc-harness -p serde -p serde_json" \
    cargo test -q --release -p padc-core -p padc-dram -p padc-cpu -p padc-store -p padc-harness -p serde -p serde_json
# The event kernel's E3/E4 `debug_assert!`s compile out in release too, so
# its `Off` == `Event` equivalence is re-checked in the build that runs it.
step "cargo test --release -p padc-sim --test fastforward" \
    cargo test -q --release -p padc-sim --test fastforward
# The benchmark package is outside the workspace and path-depends on it:
# a public-API deletion that breaks it must fail here, not in the driver.
step "benchmark package tests (--locked)" \
    cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== ci.sh: all green in ${SECONDS}s"
