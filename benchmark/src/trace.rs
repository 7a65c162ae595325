//! Benchmark-owned tracing around the calls into the simulator.
//!
//! Spans are recorded from out here, not inside the program: the traced
//! iteration builds its `System` over [`TimedTrace`] wrappers, which time the
//! `padc-workloads` layer where `padc-cpu` calls into it, and switches on the
//! simulator's existing controller/core phase timers. Everything is kept in
//! memory and leaves the process in its final report.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use padc_cpu::{TraceOp, TraceSource};

/// Time 1 call in `SAMPLE_EVERY` and scale up: two clock reads cost more
/// than the `next_op` they bracket, and timing every call would more than
/// double the core phase it is charged to.
const SAMPLE_EVERY: u64 = 8;

/// Calls and sampled time of every `next_op` on one system's traces.
#[derive(Default)]
pub struct NextOpSpans {
    calls: Cell<u64>,
    sampled_calls: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl NextOpSpans {
    /// Calls seen.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated total time: the sampled calls' time scaled to all calls.
    pub fn total_ns(&self) -> u64 {
        match self.sampled_calls.get() {
            0 => 0,
            n => (self.sampled_ns.get() as u128 * self.calls.get() as u128 / n as u128) as u64,
        }
    }
}

/// A [`TraceSource`] that reports every `next_op` to shared [`NextOpSpans`].
/// The stream it yields is the wrapped source's, unchanged.
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    spans: Rc<NextOpSpans>,
}

impl TimedTrace {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TraceSource>, spans: Rc<NextOpSpans>) -> Self {
        TimedTrace { inner, spans }
    }
}

impl TraceSource for TimedTrace {
    fn next_op(&mut self) -> TraceOp {
        let n = self.spans.calls.get();
        self.spans.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_op();
        }
        let start = Instant::now();
        let op = self.inner.next_op();
        let ns = start.elapsed().as_nanos() as u64;
        self.spans.sampled_ns.set(self.spans.sampled_ns.get() + ns);
        self.spans
            .sampled_calls
            .set(self.spans.sampled_calls.get() + 1);
        op
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(TimedTrace {
            inner: self.inner.fork(),
            spans: Rc::clone(&self.spans),
        })
    }
}
