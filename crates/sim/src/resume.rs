//! Incremental suite runs: parse a prior JSONL artifact and decide which
//! rows can be trusted.
//!
//! `repro --resume <file>` feeds an existing artifact through
//! [`ResumeArtifact::parse`]; rows that are complete JSON objects with
//! `"status":"ok"` and a `"result"` value are treated as settled — the
//! matching jobs are skipped and their **original line bytes are
//! re-emitted verbatim**, which is what keeps a resumed run byte-identical
//! to a from-scratch one. Everything else is distrusted and re-run:
//!
//! - truncated or otherwise malformed lines (a crashed run's torn tail),
//! - failure rows (`panicked`, `over_budget`) — resume retries them,
//! - rows whose `id` is not in the current job list (stale artifacts).
//!
//! Each line goes through the workspace's one JSON parser (`serde_json`,
//! strict RFC 8259 syntax), so `{"id":"x","status":"ok","result":{` does
//! not pass.

use std::collections::HashMap;

/// Well-formed `ok` rows of a prior artifact, keyed by job id, holding the
/// verbatim line (without the trailing newline).
#[derive(Debug, Default)]
pub struct ResumeArtifact {
    rows: HashMap<String, String>,
    /// Lines rejected (malformed, non-`ok`, or missing `result`).
    pub lines_rejected: usize,
}

impl ResumeArtifact {
    /// Parses a prior JSONL artifact, keeping only trustworthy rows. When
    /// an id recurs (an append-style artifact from an interrupted retry),
    /// the last well-formed occurrence wins.
    pub fn parse(text: &str) -> Self {
        let mut artifact = ResumeArtifact::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match settled_id(line) {
                Some(id) => {
                    artifact.rows.insert(id, line.to_string());
                }
                None => artifact.lines_rejected += 1,
            }
        }
        artifact
    }

    /// The settled row for `id`, verbatim (no trailing newline).
    pub fn row(&self, id: &str) -> Option<&str> {
        self.rows.get(id).map(String::as_str)
    }

    /// Number of settled rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no row was trusted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Returns the row's id iff `line` is a complete JSON object with a string
/// `"id"`, `"status":"ok"`, and a `"result"` member.
fn settled_id(line: &str) -> Option<String> {
    let row = serde_json::parse(line).ok()?;
    if row.get("status")?.as_str()? != "ok" || row.get("result").is_none() {
        return None;
    }
    row.get("id")?.as_str().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_ok_rows_are_trusted() {
        let text = "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":{\"tables\":[1,2.5,-3e2]}}\n\
                    {\"id\":\"tab5\",\"status\":\"ok\",\"result\":[true,false,null,\"s\"]}\n";
        let a = ResumeArtifact::parse(text);
        assert_eq!(a.len(), 2);
        assert!(a.row("fig6").unwrap().starts_with("{\"id\":\"fig6\""));
        assert_eq!(a.lines_rejected, 0);
    }

    #[test]
    fn failure_rows_are_distrusted() {
        let text = "{\"id\":\"boom\",\"status\":\"panicked\",\"error\":\"x\"}\n\
                    {\"id\":\"slow\",\"status\":\"over_budget\",\"budget_seconds\":1,\"result\":{}}\n";
        let a = ResumeArtifact::parse(text);
        assert!(a.is_empty());
        assert_eq!(a.lines_rejected, 2);
    }

    #[test]
    fn truncated_and_malformed_rows_are_distrusted() {
        for bad in [
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":{\"tab", // torn tail
            "{\"id\":\"fig6\",\"status\":\"ok\"}",                  // no result
            "{\"status\":\"ok\",\"result\":{}}",                    // no id
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":{}}}",   // trailing brace
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":{,}}",   // bad object
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":1e}",    // bad number
            "not json at all",
            // RFC 8259: no raw control characters in strings, no empty
            // integer part or fraction.
            "{\"id\":\"fig\u{1}6\",\"status\":\"ok\",\"result\":{}}",
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":-.5}",
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":1.}",
            "{\"id\":\"fig6\",\"status\":\"ok\",\"result\":1.e5}",
        ] {
            let a = ResumeArtifact::parse(bad);
            assert!(a.is_empty(), "should distrust: {bad:?}");
        }
    }

    #[test]
    fn last_occurrence_wins_for_duplicate_ids() {
        let text = "{\"id\":\"a\",\"status\":\"ok\",\"result\":1}\n\
                    {\"id\":\"a\",\"status\":\"ok\",\"result\":2}\n";
        let a = ResumeArtifact::parse(text);
        assert_eq!(
            a.row("a"),
            Some("{\"id\":\"a\",\"status\":\"ok\",\"result\":2}")
        );
    }

    #[test]
    fn escapes_and_unicode_in_ids_round_trip() {
        let text = "{\"id\":\"we\\u0131rd\\n\",\"status\":\"ok\",\"result\":\"caf\u{e9}\"}";
        let a = ResumeArtifact::parse(text);
        assert_eq!(a.len(), 1);
        assert!(a.row("we\u{131}rd\n").is_some());
    }

    /// The harness keeps its own row escaper; every id it writes must come
    /// back under the same id through the shared parser.
    #[test]
    fn harness_rows_are_trusted_under_their_original_id() {
        use padc_harness::{render_row, JobStatus, RowDetail};
        let id = "q\"b\\s\nt\tc\u{1}-caf\u{e9}-\u{3bb}";
        let row = render_row(id, JobStatus::Ok, &RowDetail::Result("{}".to_string()));
        let a = ResumeArtifact::parse(&row);
        assert_eq!(a.row(id), Some(row.trim_end()));
        assert_eq!(a.lines_rejected, 0);
    }

    #[test]
    fn empty_and_blank_input_is_empty() {
        assert!(ResumeArtifact::parse("").is_empty());
        assert!(ResumeArtifact::parse("\n  \n").is_empty());
    }
}
