//! `padcsim serve`: a long-running experiment request server.
//!
//! The batch CLIs ([`crate::cli`]) start a worker pool per invocation.
//! Serve mode starts one [`Pool`] at startup and keeps it for the process,
//! fed by **line-delimited JSON requests** — over stdio or a Unix socket —
//! each selecting a set of registry experiments and a scale. A request is
//! the batch suite's pipeline, one flat plan deduplicated by unit digest,
//! and its rows stream back as JSONL events as soon as each is ready.
//! Requests run one at a time on the pool, in arrival order: one
//! connection's lines in turn, and connections behind one mutex.
//!
//! Nothing but the store carries results from one request to the next:
//! with `--store` a repeated unit is a store hit, and without it the unit
//! is simulated again.
//!
//! # Protocol
//!
//! One request per line:
//!
//! ```json
//! {"id":"r1","experiments":["fig6","tab5"],"scale":"smoke"}
//! ```
//!
//! `experiments` is an array of registry ids (a repeated id runs once,
//! `"all"` among them selects every one) or `"all"` (default); `scale` is
//! `full|quick|smoke` (default: the server's scale); integer `seed` and
//! `instructions` (at least 1) override the scale preset. The response is
//! a stream of events, each one JSON line tagged with the request id:
//!
//! ```json
//! {"req":"r1","event":"accepted","jobs":2}
//! {"req":"r1","event":"row","data":{"id":"fig6","status":"ok","result":{...}}}
//! {"req":"r1","event":"done","ok":2,"failed":0,"subjobs_executed":64,...}
//! {"req":"bad","event":"error","message":"unknown experiment id \"figx\""}
//! ```
//!
//! `row` events arrive in request order (the pool's in-order emitter, the
//! one `run_suite` uses) and `data` carries the exact row object the batch
//! suite would have written, so a client concatenating `data` lines
//! reproduces the batch JSONL byte-for-byte. Every event is written
//! line-atomically under one lock; the `done` counters are
//! process-cumulative snapshots.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use padc_harness::Pool;
use serde_json::Value;

use crate::experiments::{self, suite_jobs, ExpConfig, Experiment, Scale};

/// Output shared by concurrent request handlers. Every event is written as
/// one whole line under the lock, so interleaved streams never split a
/// line.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wraps a writer for shared, line-atomic use.
pub fn shared_writer(w: impl Write + Send + 'static) -> SharedWriter {
    Arc::new(Mutex::new(Box::new(w)))
}

/// One parsed, admitted request.
struct Request {
    id: String,
    experiments: Vec<&'static Experiment>,
    cfg: ExpConfig,
}

/// The server: a persistent worker pool plus the request protocol.
pub struct ServeState {
    /// Held for a whole request: one request runs at a time.
    pool: Mutex<Pool>,
    default_scale: Scale,
    next_request: AtomicU64,
    subjobs_executed: AtomicU64,
}

impl ServeState {
    /// Starts the worker pool (`workers = 0` means all cores).
    ///
    /// # Errors
    ///
    /// Fails when the pool's threads cannot be spawned (see
    /// [`Pool::new`]).
    pub fn new(workers: usize, default_scale: Scale) -> io::Result<Self> {
        Ok(ServeState {
            pool: Mutex::new(Pool::new(workers)?),
            default_scale,
            next_request: AtomicU64::new(1),
            subjobs_executed: AtomicU64::new(0),
        })
    }

    /// Handles one request line end-to-end: parse, admit, execute, stream.
    /// Blocks until the request's rows are out, waiting first for any
    /// request running on the pool. Empty lines are ignored; malformed
    /// ones produce an `error` event.
    pub fn handle_line(&self, line: &str, out: &SharedWriter) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let seq = self.next_request.fetch_add(1, Ordering::Relaxed);
        let fallback_id = format!("req-{seq}");
        match self.parse_request(line, &fallback_id) {
            Ok(request) => self.run_request(request, out),
            Err((id, message)) => emit_error(out, &id, &message),
        }
    }

    /// Requests received so far, malformed ones included: every non-blank
    /// line is one.
    pub fn requests(&self) -> u64 {
        self.next_request.load(Ordering::Relaxed) - 1
    }

    /// Units computed (not loaded) on the pool so far, over all requests.
    pub fn subjobs_executed(&self) -> u64 {
        self.subjobs_executed.load(Ordering::Relaxed)
    }

    fn parse_request(&self, line: &str, fallback_id: &str) -> Result<Request, (String, String)> {
        let value = serde_json::parse(line)
            .map_err(|e| (fallback_id.to_string(), format!("invalid JSON: {e}")))?;
        let id = value
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or(fallback_id)
            .to_string();
        if value.as_object().is_none() {
            return Err((id, "request must be a JSON object".to_string()));
        }
        let scale = match value.get("scale").and_then(Value::as_str) {
            None => self.default_scale,
            Some("full") => Scale::Full,
            Some("quick") => Scale::Quick,
            Some("smoke") => Scale::Smoke,
            Some(other) => {
                return Err((id, format!("unknown scale {other:?} (full|quick|smoke)")));
            }
        };
        let mut cfg = ExpConfig::at(scale);
        if let Some(v) = value.get("seed") {
            cfg.seed = serde_json::from_value(v).map_err(|e| (id.clone(), format!("seed: {e}")))?;
        }
        if let Some(v) = value.get("instructions") {
            let n: u64 = serde_json::from_value(v)
                .map_err(|e| (id.clone(), format!("instructions: {e}")))?;
            if n == 0 {
                return Err((id, "instructions must be at least 1".to_string()));
            }
            cfg.instructions = n;
            cfg.instructions_single = n;
        }
        let ids = match value.get("experiments") {
            None => Vec::new(),
            Some(Value::Str(s)) if s == "all" => Vec::new(),
            Some(Value::Array(requested)) => {
                match requested
                    .iter()
                    .map(Value::as_str)
                    .collect::<Option<Vec<_>>>()
                {
                    Some(ids) if !ids.is_empty() => ids,
                    Some(_) => return Err((id, "experiments array is empty".to_string())),
                    None => {
                        return Err((id, "experiments must be an array of id strings".to_string()))
                    }
                }
            }
            Some(_) => {
                return Err((
                    id,
                    "experiments must be \"all\" or an array of id strings".to_string(),
                ));
            }
        };
        let selected = experiments::select(&ids).map_err(|e| (id.clone(), e))?;
        Ok(Request {
            id,
            experiments: selected,
            cfg,
        })
    }

    fn run_request(&self, request: Request, out: &SharedWriter) {
        let jobs = suite_jobs(request.experiments, request.cfg, None);
        let id_json = serde_json::to_string(&request.id).expect("string serializes");
        emit(
            out,
            &format!(
                "{{\"req\":{id_json},\"event\":\"accepted\",\"jobs\":{}}}",
                jobs.len()
            ),
        );
        let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        let streamed = pool.run(&jobs, None, |completed| {
            let mut w = out.lock().expect("serve writer poisoned");
            writeln!(
                w,
                "{{\"req\":{id_json},\"event\":\"row\",\"data\":{}}}",
                completed.row.trim_end()
            )?;
            w.flush()
        });
        match streamed {
            Ok(summary) => {
                self.subjobs_executed
                    .fetch_add(summary.subjobs_executed, Ordering::Relaxed);
                let counters = experiments::unit_cache_stats();
                emit(
                    out,
                    &format!(
                        "{{\"req\":{id_json},\"event\":\"done\",\"ok\":{},\"failed\":{},\
                         \"subjobs_executed\":{},\"store_hits\":{},\"store_misses\":{},\
                         \"units_coalesced\":{}}}",
                        summary.ok(),
                        summary.failed(),
                        self.subjobs_executed(),
                        counters.store_hits,
                        counters.store_misses,
                        counters.units_coalesced,
                    ),
                );
            }
            Err(e) => emit_error(out, &request.id, &format!("stream aborted: {e}")),
        }
    }
}

/// Writes one event line under the shared lock. Best-effort: a client that
/// hung up must not take the server down.
fn emit(out: &SharedWriter, line: &str) {
    let mut w = out.lock().expect("serve writer poisoned");
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

fn emit_error(out: &SharedWriter, id: &str, message: &str) {
    let id = serde_json::to_string(&id).expect("string serializes");
    let message = serde_json::to_string(&message).expect("string serializes");
    emit(
        out,
        &format!("{{\"req\":{id},\"event\":\"error\",\"message\":{message}}}"),
    );
}

/// Reads request lines from `input` until EOF and handles each in turn.
///
/// # Errors
///
/// Propagates read errors from `input`; write errors to `out` only abort
/// the affected request.
pub fn serve_lines(state: &ServeState, input: impl BufRead, out: &SharedWriter) -> io::Result<()> {
    for line in input.lines() {
        state.handle_line(&line?, out);
    }
    Ok(())
}

/// Serves stdio: requests from `input`, events to `output`. Returns at
/// EOF. The `padcsim serve --stdio` entry point.
///
/// # Errors
///
/// Propagates read errors from `input`.
pub fn serve_stdio(
    state: &ServeState,
    input: impl BufRead,
    output: impl Write + Send + 'static,
) -> io::Result<()> {
    let out = shared_writer(output);
    serve_lines(state, input, &out)
}

/// Binds `path` (replacing any stale socket file) and serves each
/// connection on its own thread until the process is killed. The
/// `padcsim serve --socket PATH` entry point.
///
/// # Errors
///
/// Fails if the socket cannot be bound; per-connection I/O errors only
/// drop that connection.
pub fn serve_unix(state: &ServeState, path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::thread::scope(|scope| loop {
        match listener.accept() {
            Ok((stream, _)) => {
                scope.spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let out = shared_writer(stream);
                    let _ = serve_lines(state, BufReader::new(read_half), &out);
                });
            }
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn events(output: &str) -> Vec<Value> {
        output
            .lines()
            .map(|l| serde_json::parse(l).expect("every event line is JSON"))
            .collect()
    }

    #[test]
    fn serve_streams_rows_and_reports_errors() {
        let state = ServeState::new(1, Scale::Smoke).expect("spawn workers");
        let sink = Capture::default();
        let out = shared_writer(sink.clone());

        // A valid two-experiment request streams accepted, rows in request
        // order, then done.
        state.handle_line(
            "{\"id\":\"r1\",\"experiments\":[\"cost\",\"tab6\"],\"scale\":\"smoke\"}",
            &out,
        );
        let lines = sink.take();
        let evs = events(&lines);
        assert_eq!(evs.len(), 4, "accepted + 2 rows + done: {lines}");
        assert_eq!(evs[0].get("event").unwrap().as_str(), Some("accepted"));
        assert_eq!(evs[0].get("req").unwrap().as_str(), Some("r1"));
        for (ev, id) in evs[1..3].iter().zip(["cost", "tab6"]) {
            assert_eq!(ev.get("event").unwrap().as_str(), Some("row"));
            let data = ev.get("data").expect("row carries data");
            assert_eq!(data.get("id").unwrap().as_str(), Some(id));
            assert_eq!(data.get("status").unwrap().as_str(), Some("ok"));
        }
        assert_eq!(evs[3].get("event").unwrap().as_str(), Some("done"));
        assert_eq!(evs[3].get("ok").unwrap().as_f64(), Some(2.0));
        assert_eq!(evs[3].get("failed").unwrap().as_f64(), Some(0.0));

        // Malformed requests produce error events, not crashes.
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (
                "{\"id\":\"rc\",\"experiments\":[\"co\u{1}st\"]}",
                "control character",
            ),
            (
                "{\"id\":\"rx\",\"experiments\":[\"nope\"]}",
                "unknown experiment",
            ),
            ("{\"id\":\"ry\",\"scale\":\"huge\"}", "unknown scale"),
            ("{\"id\":\"rz\",\"experiments\":[]}", "empty"),
            ("{\"id\":\"r0\",\"instructions\":0}", "at least 1"),
            ("[1,2]", "JSON object"),
        ] {
            let sink = Capture::default();
            let out = shared_writer(sink.clone());
            state.handle_line(line, &out);
            let evs = events(&sink.take());
            assert_eq!(evs.len(), 1, "one error event for {line:?}");
            assert_eq!(evs[0].get("event").unwrap().as_str(), Some("error"));
            let message = evs[0].get("message").unwrap().as_str().unwrap();
            assert!(message.contains(needle), "{message:?} lacks {needle:?}");
        }

        // Blank lines are ignored.
        let sink = Capture::default();
        let out = shared_writer(sink.clone());
        state.handle_line("   ", &out);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn serve_lines_answers_each_request_in_turn() {
        let state = ServeState::new(2, Scale::Smoke).expect("spawn workers");
        let sink = Capture::default();
        let out = shared_writer(sink.clone());
        let input = "{\"id\":\"a\",\"experiments\":[\"cost\"]}\n\
                     {\"id\":\"b\",\"experiments\":[\"tab6\"]}\n";
        serve_lines(&state, input.as_bytes(), &out).expect("serving stdio input succeeds");
        let lines = sink.take();
        let seen: Vec<_> = events(&lines)
            .iter()
            .map(|e| {
                let field = |k| e.get(k).unwrap().as_str().unwrap().to_string();
                (field("req"), field("event"))
            })
            .collect();
        let expected: Vec<_> = ["a", "b"]
            .iter()
            .flat_map(|id| ["accepted", "row", "done"].map(|ev| (id.to_string(), ev.to_string())))
            .collect();
        assert_eq!(seen, expected, "{lines}");
    }
}
