//! EXPERIMENTS.md's measured tables are the committed `repro_full.jsonl`
//! rendered through `ExpTable`'s `Display`, the same text `repro` prints.
//! The document has one `## {id}` section per registry row, in registry
//! order; each holds hand-written paper-vs-measured prose and one
//! ```` ```text ```` fence. This test rebuilds the document with every
//! fence body re-rendered from the artifact and every other byte kept, and
//! compares. On drift it writes the rebuilt document to
//! `target/tmp/experiments_md/EXPERIMENTS.md.expected`; copying that file
//! over EXPERIMENTS.md regenerates it:
//!
//! ```text
//! cargo test -p padc-sim --test experiments_md
//! cp target/tmp/experiments_md/EXPERIMENTS.md.expected EXPERIMENTS.md
//! ```

mod common;

use std::collections::HashMap;

use padc_sim::experiments::{ExpTable, REGISTRY};
use serde::Deserialize;

/// The part of a `repro_full.jsonl` row the document shows.
#[derive(Deserialize)]
struct Row {
    id: String,
    result: Payload,
}

#[derive(Deserialize)]
struct Payload {
    paper_ref: String,
    tables: Vec<ExpTable>,
}

/// One fence body: the experiment's header line, then its tables.
fn render(row: &Row) -> String {
    let mut out = format!("# {} — {}\n", row.id, row.result.paper_ref);
    for table in &row.result.tables {
        out.push_str(&format!("{table}\n"));
    }
    out.trim().to_string()
}

#[test]
fn experiments_md_tables_are_the_artifact_rendered() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let read = |name: &str| std::fs::read_to_string(format!("{root}{name}")).expect(name);
    let blocks: HashMap<String, String> = read("repro_full.jsonl")
        .lines()
        .map(|line| {
            let row: Row = serde_json::from_str(line).expect("a repro_full.jsonl row");
            (row.id.clone(), render(&row))
        })
        .collect();
    let committed = read("EXPERIMENTS.md");

    let mut expected = String::new();
    // Each `## {id}` section with the number of fences it holds.
    let mut sections: Vec<(&str, usize)> = Vec::new();
    let mut lines = committed.split_inclusive('\n');
    while let Some(line) = lines.next() {
        expected.push_str(line);
        if let Some(id) = line.strip_prefix("## ") {
            sections.push((id.trim_end(), 0));
        } else if line == "```text\n" {
            let (id, fences) = sections.last_mut().expect("a fence before any section");
            *fences += 1;
            let block = blocks
                .get(*id)
                .unwrap_or_else(|| panic!("repro_full.jsonl has no row for section {id}"));
            expected.push_str(block);
            expected.push_str("\n```\n");
            lines.by_ref().find(|body| *body == "```\n");
        }
    }

    let ids: Vec<&str> = sections.iter().map(|&(id, _)| id).collect();
    let registry: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(
        ids, registry,
        "sections must be the registry's ids, in order"
    );
    for (id, fences) in sections {
        assert_eq!(fences, 1, "section {id} must hold one ```text fence");
    }
    common::assert_same_bytes(
        "experiments_md",
        ("EXPERIMENTS.md", committed.as_bytes()),
        ("EXPERIMENTS.md.expected", expected.as_bytes()),
    );
}
