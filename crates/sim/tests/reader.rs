//! Every single-byte mutation of a written simulation report and of a
//! written simulator configuration, from a handful of JSON-shaped bytes:
//! `serde_json::from_str` returns for each one (it never panics), reads
//! only what the tree reader (`serde_json::parse`) reads, and fails with
//! the tree reader's syntax error wherever that one fails.

use std::fmt::Debug;

use padc_core::SchedulingPolicy;
use padc_sim::{Report, SimConfig, System};
use padc_workloads::profiles;
use serde::Deserialize;

/// The bytes each position is mutated to: every structural character, a
/// digit, a sign, an exponent, the first letters of the literals, an
/// escape, whitespace and a letter no JSON token starts with.
const MUTANTS: &[u8] = b"{}[]\":,0-.e+tfn\\ x";

fn every_mutation_agrees_with_the_tree_reader<T: Deserialize + Debug>(text: &str) {
    let mut bytes = text.as_bytes().to_vec();
    let mut read = 0;
    for at in 0..bytes.len() {
        let was = bytes[at];
        for &b in MUTANTS.iter().filter(|&&b| b != was) {
            bytes[at] = b;
            let mutated = std::str::from_utf8(&bytes).expect("ASCII text stays UTF-8");
            let typed = serde_json::from_str::<T>(mutated);
            match serde_json::parse(mutated) {
                Err(e) => assert_eq!(typed.unwrap_err(), e, "{mutated}"),
                Ok(_) => read += usize::from(typed.is_ok()),
            }
        }
        bytes[at] = was;
    }
    // Some mutations still read (a digit for a digit, a space after a
    // comma): the check above saw both outcomes.
    assert!(read > 0, "no mutation of {text} read");
}

#[test]
fn a_mutated_report_or_config_never_panics() {
    let mut cfg = SimConfig::new(2, SchedulingPolicy::Padc);
    cfg.max_instructions = 2_000;
    let config = serde_json::to_string(&cfg).expect("a config writes");
    let benches = ["milc_06", "libquantum_06"].map(|n| profiles::by_name(n).expect("a profile"));
    let report = System::new(cfg, benches.to_vec()).run();
    let report = serde_json::to_string(&report).expect("a report writes");
    every_mutation_agrees_with_the_tree_reader::<SimConfig>(&config);
    every_mutation_agrees_with_the_tree_reader::<Report>(&report);
}
