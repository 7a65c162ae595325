//! `repro` — regenerates every table and figure of the paper's evaluation,
//! in parallel, with per-experiment fault isolation, and prints the tables.
//!
//! ```text
//! repro --smoke --jobs 4 --jsonl out.jsonl fig6 tab5
//! repro --list
//! ```
//!
//! A thin call into [`padc_sim::cli::suite_main`], which documents the
//! flags, the JSONL/resume/store contracts and the exit codes;
//! `padcsim --suite` is the same driver with the JSONL stream on stdout.

use padc_sim::cli::{suite_main, Stdout};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    suite_main("repro", Stdout::Tables, &args);
}
