//! `repro` — regenerates every table and figure of the paper's evaluation,
//! in parallel, with per-experiment fault isolation, and prints the tables
//! (or, with `--jsonl -`, streams the JSONL rows on stdout).
//!
//! ```text
//! repro --smoke --jobs 4 --jsonl out.jsonl fig6 tab5
//! repro --smoke --jsonl - fig6 > out.jsonl
//! repro --list
//! ```
//!
//! A thin call into [`padc_sim::cli::suite_main`], which documents the
//! flags, the JSONL and store contracts and the exit codes.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    padc_sim::cli::suite_main(&args);
}
