//! A plain-text trace format, so the simulator can run recorded traces
//! (e.g. converted from Pin/DynamoRIO tools) instead of synthetic
//! profiles.
//!
//! Format: one operation per line, `#` comments and blank lines ignored.
//!
//! ```text
//! # ops:
//! C 3                 # three non-memory instructions
//! L 0x1a2b40 0x400    # load  <byte-addr> <pc>
//! D 0x1a2b80 0x404    # dependent load (waits for outstanding loads)
//! S 0x1a2bc0 0x408    # store <byte-addr> <pc>
//! ```
//!
//! A [`TraceFileSource`] replays the parsed trace cyclically (traces are
//! finite; cores are driven until an instruction budget, so the trace loops
//! like the paper's Pinpoint slices effectively do across intervals). The
//! whole trace is held expanded in memory, one [`TraceOp`] per instruction,
//! so its length is bounded by [`MAX_TRACE_OPS`].

use std::fmt::Write as _;
use std::path::Path;

use padc_cpu::{TraceOp, TraceSource};
use padc_types::Addr;

/// Error produced when a trace file cannot be parsed.
#[derive(Debug)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Most operations one trace may expand to (`C <n>` counts as `n`): 4 Mi
/// ops, 96 MiB expanded. A longer file is refused, not truncated — `C
/// 999999999999` would otherwise be a 22 TB allocation.
pub const MAX_TRACE_OPS: usize = 4 << 20;

fn parse_u64(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

/// Parses the text trace format into operations.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on an unknown opcode, missing operand,
/// malformed number, or a trace expanding past [`MAX_TRACE_OPS`] (checked
/// before anything is allocated for the offending line).
pub fn parse_trace(text: &str) -> Result<Vec<TraceOp>, ParseTraceError> {
    parse_bounded(text, MAX_TRACE_OPS)
}

/// [`parse_trace`] with the bound as a parameter (tests use a small one).
fn parse_bounded(text: &str, max_ops: usize) -> Result<Vec<TraceOp>, ParseTraceError> {
    let mut ops = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut toks = content.split_whitespace();
        let op = toks.next().expect("non-empty after trim");
        let err = |message: &str| ParseTraceError {
            line,
            message: message.to_string(),
        };
        // Ops this line may still add.
        let room = (max_ops - ops.len()) as u64;
        let too_long = || {
            err(&format!(
                "trace expands past the limit of {max_ops} operations"
            ))
        };
        match op {
            "C" => {
                let n = toks
                    .next()
                    .and_then(parse_u64)
                    .ok_or_else(|| err("C needs a count"))?;
                if n > room {
                    return Err(too_long());
                }
                ops.resize(ops.len() + n as usize, TraceOp::Compute);
            }
            "L" | "D" | "S" => {
                if room == 0 {
                    return Err(too_long());
                }
                let addr = toks
                    .next()
                    .and_then(parse_u64)
                    .ok_or_else(|| err("missing/invalid address"))?;
                let pc = toks
                    .next()
                    .and_then(parse_u64)
                    .ok_or_else(|| err("missing/invalid pc"))?;
                ops.push(match op {
                    "L" => TraceOp::Load {
                        addr: Addr::new(addr),
                        pc,
                        dep: false,
                    },
                    "D" => TraceOp::Load {
                        addr: Addr::new(addr),
                        pc,
                        dep: true,
                    },
                    _ => TraceOp::Store {
                        addr: Addr::new(addr),
                        pc,
                    },
                });
            }
            other => return Err(err(&format!("unknown opcode {other:?}"))),
        }
        if toks.next().is_some() {
            return Err(err("trailing tokens"));
        }
    }
    if ops.is_empty() {
        return Err(ParseTraceError {
            line: 0,
            message: "trace contains no operations".to_string(),
        });
    }
    Ok(ops)
}

/// Renders operations back into the text format (inverse of
/// [`parse_trace`]).
pub fn format_trace(ops: &[TraceOp]) -> String {
    let mut out = String::new();
    let mut compute_run = 0u64;
    let flush = |out: &mut String, run: &mut u64| {
        if *run > 0 {
            writeln!(out, "C {run}").expect("string write");
            *run = 0;
        }
    };
    for op in ops {
        match op {
            TraceOp::Compute => compute_run += 1,
            TraceOp::Load { addr, pc, dep } => {
                flush(&mut out, &mut compute_run);
                let k = if *dep { 'D' } else { 'L' };
                writeln!(out, "{k} {:#x} {pc:#x}", addr.raw()).expect("string write");
            }
            TraceOp::Store { addr, pc } => {
                flush(&mut out, &mut compute_run);
                writeln!(out, "S {:#x} {pc:#x}", addr.raw()).expect("string write");
            }
        }
    }
    flush(&mut out, &mut compute_run);
    out
}

/// Replays a parsed trace cyclically as a [`TraceSource`].
///
/// ```
/// use padc_workloads::{parse_trace, TraceFileSource};
/// use padc_cpu::TraceSource;
///
/// let ops = parse_trace("C 2\nL 0x40 0x400\n").expect("valid trace");
/// let mut src = TraceFileSource::new(ops);
/// let first_cycle: Vec<_> = (0..3).map(|_| src.next_op()).collect();
/// let second_cycle: Vec<_> = (0..3).map(|_| src.next_op()).collect();
/// assert_eq!(first_cycle, second_cycle); // cyclic replay
/// ```
#[derive(Clone, Debug)]
pub struct TraceFileSource {
    ops: std::sync::Arc<[TraceOp]>,
    pos: usize,
}

impl TraceFileSource {
    /// Wraps parsed operations.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        assert!(!ops.is_empty(), "trace must be non-empty");
        TraceFileSource {
            ops: ops.into(),
            pos: 0,
        }
    }

    /// Loads a trace from a file.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, boxed.
    pub fn from_path(path: &Path) -> Result<Self, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::new(parse_trace(&text)?))
    }

    /// Length of one replay cycle in operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Never true (construction rejects empty traces); provided for the
    /// conventional `len`/`is_empty` pair.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for TraceFileSource {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let text = "C 3\nL 0x100 0x400\nD 0x140 0x404\nS 0x180 0x408\n";
        let ops = parse_trace(text).expect("valid");
        assert_eq!(ops.len(), 6);
        assert_eq!(format_trace(&ops), text);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let ops = parse_trace("# header\n\nL 64 1024 # trailing comment\n").expect("valid");
        assert_eq!(
            ops,
            vec![TraceOp::Load {
                addr: Addr::new(64),
                pc: 1024,
                dep: false
            }]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_trace("C 1\nX 2 3\n").expect_err("bad opcode");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown opcode"));

        let err = parse_trace("L 0x40\n").expect_err("missing pc");
        assert_eq!(err.line, 1);

        let err = parse_trace("L zz 0\n").expect_err("bad number");
        assert_eq!(err.line, 1);

        let err = parse_trace("# nothing\n").expect_err("empty");
        assert!(err.to_string().contains("no operations"));

        let err = parse_trace("L 0x40 0x400 extra\n").expect_err("trailing");
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn expansion_is_bounded_before_it_allocates() {
        // One line asking for 22 TB: refused by arithmetic, in no time.
        let err = parse_trace("C 999999999999\nL 0x40 0x400\n").expect_err("too long");
        assert_eq!(err.line, 1);
        assert!(
            err.to_string().contains(&MAX_TRACE_OPS.to_string()),
            "{err}"
        );
        let err = parse_trace("C 0xffffffffffffffff\n").expect_err("too long");
        assert_eq!(err.line, 1);

        // The bound is on the whole trace, whatever kind of line crosses it.
        assert_eq!(
            parse_bounded("C 7\nL 0 0\n", 8)
                .expect("at the limit")
                .len(),
            8
        );
        for extra in ["C 1\n", "L 0x40 0x400\n", "S 0x40 0x400\n"] {
            let err = parse_bounded(&format!("C 8\n{extra}"), 8).expect_err("one past the limit");
            assert_eq!(err.line, 2, "{extra}");
            assert!(err.to_string().contains("limit of 8"), "{err}");
        }
        assert!(parse_bounded("C 8\nC 0\n# done\n", 8).is_ok());
    }

    #[test]
    fn source_replays_cyclically_and_forks() {
        let ops = parse_trace("L 0x40 0x1\nS 0x80 0x2\n").expect("valid");
        let mut src = TraceFileSource::new(ops);
        assert_eq!(src.len(), 2);
        assert!(!src.is_empty());
        let a = src.next_op();
        let mut fork = src.fork();
        assert_eq!(fork.next_op(), src.next_op());
        // After a full cycle we are back at the first op.
        assert_eq!(src.next_op(), a);
    }
}
