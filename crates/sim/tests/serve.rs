//! Integration test of `padcsim serve`'s contract: two concurrent clients
//! with overlapping experiment sets must each receive a complete,
//! correctly-ordered event stream whose row bytes match the batch suite,
//! while the shared units behind the overlap are computed **once** (each
//! distinct unit executes exactly one sub-job and writes exactly one store
//! entry, and the later request reads it back) — and of the `padcsim serve
//! --stdio` process around it: every request line is answered, malformed
//! ones with an `error` event.

use std::fs;
use std::io::{self, Write};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

use padc_harness::{run_suite, HarnessConfig};
use padc_sim::experiments::{self, ExpConfig, Scale};
use padc_sim::serve::{shared_writer, ServeState};
use padc_store::Store;

/// A `Write` that appends into a shared buffer the test can read back.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Capture {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Batch-suite JSONL for `ids` at smoke scale: the byte-identity
/// reference for serve `row` events.
fn batch_rows(ids: &[&str]) -> Vec<String> {
    let selected: Vec<_> = ids
        .iter()
        .map(|id| experiments::find(id).expect("known id"))
        .collect();
    let jobs = experiments::suite_jobs(selected, ExpConfig::at(Scale::Smoke), None);
    let cfg = HarnessConfig {
        workers: 1,
        budget: None,
        progress: false,
    };
    let mut jsonl = Vec::new();
    let mut progress = std::io::sink();
    run_suite(&jobs, &cfg, Some(&mut jsonl), &mut progress).expect("suite runs");
    String::from_utf8(jsonl)
        .expect("JSONL is UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The `data` payloads of `req`'s row events, in arrival order, plus a
/// check that the stream is exactly accepted → rows → done.
fn rows_of(output: &str, req: &str, expected_jobs: usize) -> Vec<String> {
    let mine: Vec<&str> = output
        .lines()
        .filter(|l| {
            serde_json::parse(l).expect("event line is JSON").get("req")
                == serde_json::parse(&format!("{{\"req\":\"{req}\"}}"))
                    .unwrap()
                    .get("req")
        })
        .collect();
    assert_eq!(
        mine.len(),
        expected_jobs + 2,
        "{req}: accepted + {expected_jobs} rows + done, got: {mine:#?}"
    );
    let first = serde_json::parse(mine[0]).unwrap();
    assert_eq!(first.get("event").unwrap().as_str(), Some("accepted"));
    assert_eq!(
        first.get("jobs").unwrap().as_f64(),
        Some(expected_jobs as f64)
    );
    let last = serde_json::parse(mine[mine.len() - 1]).unwrap();
    assert_eq!(last.get("event").unwrap().as_str(), Some("done"));
    assert_eq!(last.get("ok").unwrap().as_f64(), Some(expected_jobs as f64));
    assert_eq!(last.get("failed").unwrap().as_f64(), Some(0.0));
    mine[1..mine.len() - 1]
        .iter()
        .map(|l| {
            let ev = serde_json::parse(l).unwrap();
            assert_eq!(ev.get("event").unwrap().as_str(), Some("row"));
            // Recover the verbatim data bytes: strip the event envelope.
            let prefix = format!("{{\"req\":\"{req}\",\"event\":\"row\",\"data\":");
            let line = l.strip_prefix(prefix.as_str()).expect("envelope prefix");
            line.strip_suffix('}').expect("envelope suffix").to_string()
        })
        .collect()
}

#[test]
fn concurrent_overlapping_clients_share_units_and_get_batch_identical_rows() {
    let dir = std::env::temp_dir().join(format!("padc-serve-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    experiments::install_unit_store(&dir).expect("store opens");

    let a_ids = ["fig6", "tab5"];
    let b_ids = ["fig6", "tab7"];
    let state = ServeState::new(2, Scale::Smoke).expect("spawn workers");
    let before = experiments::unit_cache_stats();

    let (a_sink, b_sink) = (Capture::default(), Capture::default());
    std::thread::scope(|scope| {
        for (ids, sink, req) in [(&a_ids, &a_sink, "a"), (&b_ids, &b_sink, "b")] {
            let out = shared_writer(sink.clone());
            let line = format!(
                "{{\"id\":\"{req}\",\"experiments\":[\"{}\",\"{}\"],\"scale\":\"smoke\"}}",
                ids[0], ids[1]
            );
            let state = &state;
            scope.spawn(move || state.handle_line(&line, &out));
        }
    });

    // Read before the batch references below, which hit the store too.
    let after = experiments::unit_cache_stats();

    // Each client gets its complete stream, rows in request order, and the
    // data bytes are exactly the batch suite's JSONL for its selection.
    let (a_out, b_out) = (a_sink.take(), b_sink.take());
    assert_eq!(rows_of(&a_out, "a", 2), batch_rows(&a_ids));
    assert_eq!(rows_of(&b_out, "b", 2), batch_rows(&b_ids));

    // The overlap (the whole fig6 grid, plus the grid cells tab5 and tab7
    // share with it) was computed once: each distinct unit executed exactly
    // one sub-job and wrote exactly one store entry, which the request
    // that ran second read back.
    let executed = state.subjobs_executed();
    let entries = Store::open(&dir)
        .expect("store reopens")
        .stats()
        .expect("stats")
        .entries;
    assert_eq!(
        executed, entries,
        "every distinct unit computed exactly once"
    );
    assert_eq!(
        after.store_hits - before.store_hits,
        entries,
        "the second request resolves the shared units from the store"
    );
    assert_eq!(after.store_misses - before.store_misses, entries);

    drop(state);
    experiments::uninstall_unit_store();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stdio_session_answers_overlapping_and_malformed_requests() {
    let dir = std::env::temp_dir().join(format!("padc-serve-stdio-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_padcsim"))
        .args(["serve", "--stdio", "--jobs", "2", "--smoke", "--store"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("padcsim spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            b"{\"id\":\"r1\",\"experiments\":[\"fig6\",\"tab5\"],\"scale\":\"smoke\"}\n\
              this is not json\n\
              {\"id\":\"r2\",\"experiments\":[\"fig6\",\"tab7\"],\"scale\":\"smoke\"}\n\
              {\"id\":\"r3\",\"experiments\":[\"cost\",\"cost\"]}\n",
        )
        .expect("requests written");
    let out = child.wait_with_output().expect("serve exits at EOF");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("serve: requests=4 "), "{stderr}");

    let stdout = String::from_utf8(out.stdout).expect("events are UTF-8");
    let events: Vec<_> = stdout
        .lines()
        .map(|l| serde_json::parse(l).expect("event line is JSON"))
        .collect();
    let of_kind = |kind: &str| {
        events
            .iter()
            .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some(kind))
            .collect::<Vec<_>>()
    };
    assert_eq!(of_kind("error").len(), 1, "{stdout}");
    let done = of_kind("done");
    assert_eq!(done.len(), 3, "{stdout}");
    for event in done {
        // A repeated id is one job: r3 names `cost` twice.
        let jobs = match event.get("req").and_then(|v| v.as_str()) {
            Some("r3") => 1.0,
            _ => 2.0,
        };
        assert_eq!(event.get("ok").and_then(|v| v.as_f64()), Some(jobs));
        assert_eq!(event.get("failed").and_then(|v| v.as_f64()), Some(0.0));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// One request line of 200 000 `[` used to overflow the JSON parser's
/// stack and kill the server (exit 134) before it read the next line. It
/// is one `error` event now, and the request after it is answered.
#[test]
fn a_deeply_nested_line_is_an_error_event_not_a_crash() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_padcsim"))
        .env_remove("PADC_STORE")
        .args(["serve", "--stdio", "--jobs", "1", "--smoke"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("padcsim spawns");
    let mut requests = "[".repeat(200_000);
    requests.push_str("\n{\"id\":\"after\",\"experiments\":[\"cost\"]}\n");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(requests.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("serve exits at EOF");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let stdout = String::from_utf8(out.stdout).expect("events are UTF-8");
    let events: Vec<_> = stdout
        .lines()
        .map(|l| serde_json::parse(l).expect("event line is JSON"))
        .collect();
    let kind = |e: &serde_json::Value| e.get("event").and_then(|v| v.as_str()).map(str::to_owned);
    let error = events
        .iter()
        .find(|e| kind(e).as_deref() == Some("error"))
        .unwrap_or_else(|| panic!("no error event: {stdout}"));
    assert!(
        error
            .get("message")
            .and_then(|v| v.as_str())
            .is_some_and(|m| m.contains("recursion limit exceeded at byte 128")),
        "{stdout}"
    );
    let done: Vec<_> = events
        .iter()
        .filter(|e| kind(e).as_deref() == Some("done"))
        .collect();
    assert_eq!(done.len(), 1, "{stdout}");
    assert_eq!(done[0].get("req").and_then(|v| v.as_str()), Some("after"));
    assert_eq!(done[0].get("ok").and_then(|v| v.as_f64()), Some(1.0));
}
