use padc_types::{AccessKind, Addr, CoreId, Cycle};
use serde::{Deserialize, Serialize};

use crate::{TraceOp, TraceSource};

/// A memory access presented to the memory hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct MemAccess {
    /// Byte address.
    pub addr: Addr,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Token the memory system echoes back through [`Core::complete`] when a
    /// pending load's data arrives. Unused for stores and runahead accesses.
    pub token: u64,
    /// True if issued by runahead pre-execution (no one waits on it).
    pub runahead: bool,
}

/// The memory hierarchy's answer to an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessResponse {
    /// Data available after `latency` cycles (cache hit).
    Hit {
        /// Cycles until the data is usable.
        latency: Cycle,
    },
    /// A miss is outstanding; [`Core::complete`] will be called with the
    /// access token when the fill arrives.
    Pending,
    /// Structural hazard (MSHR or request buffer full): the access did not
    /// enter the memory system and must be retried.
    Retry,
}

/// The memory hierarchy as seen by a core.
pub trait MemorySystem {
    /// Performs one access on behalf of `core`.
    fn access(&mut self, core: CoreId, acc: &MemAccess, now: Cycle) -> AccessResponse;
}

/// Core parameters (paper Table 3 defaults: 256-entry window, 4-wide).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instruction-window (reorder buffer) entries.
    pub window_entries: usize,
    /// Dispatch/retire width per cycle.
    pub width: usize,
    /// Runahead execution enabled (§6.14).
    pub runahead: bool,
    /// Maximum instructions pre-executed per runahead episode.
    pub runahead_max_ops: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            window_entries: 256,
            width: 4,
            runahead: false,
            runahead_max_ops: 512,
        }
    }
}

/// Retirement/stall counters for one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Loads retired.
    pub retired_loads: u64,
    /// Cycles in which retirement was blocked by a load waiting on memory
    /// at the window head (numerator of SPL).
    pub window_stall_cycles: u64,
    /// Cycles in which dispatch made no progress because the window was
    /// full.
    pub dispatch_window_full_cycles: u64,
    /// Cycles in which dispatch was blocked by a structural Retry (MSHR or
    /// request buffer full).
    pub dispatch_retry_cycles: u64,
    /// Cycles in which dispatch was blocked by a dependent load waiting for
    /// in-flight loads.
    pub dispatch_dep_cycles: u64,
    /// Runahead episodes entered.
    pub runahead_episodes: u64,
    /// Memory requests issued from runahead mode.
    pub runahead_requests: u64,
}

impl CoreStats {
    /// Stall cycles per load (§5.2). Zero when no loads retired.
    pub fn spl(&self) -> f64 {
        if self.retired_loads == 0 {
            return 0.0;
        }
        self.window_stall_cycles as f64 / self.retired_loads as f64
    }

    /// Instructions per cycle over `cycles`.
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.retired_instructions as f64 / cycles as f64
    }
}

/// A window word's load bit; the low 63 bits hold the slot's `done_at`.
const LOAD: u64 = 1 << 63;
/// The word of a load still waiting on memory: its `done_at` field is the
/// largest one, above every cycle a run reaches.
const PENDING_LOAD: u64 = u64::MAX;

struct RunaheadState {
    trace: Box<dyn TraceSource>,
    issued_ops: usize,
}

/// Proof that a [`Core::tick`] would be a pure stall cycle, plus the
/// per-cycle stall-counter bumps that tick would have made.
///
/// Returned by [`Core::idle_state`]; consumed by [`Core::skip_idle_cycles`]
/// when the simulator fast-forwards across a run of such cycles.
#[derive(Clone, Copy, Debug)]
pub struct IdleState {
    /// Cycle at which the window head becomes retirable on its own (`None`
    /// when the head is waiting on memory and only [`Core::complete`] can
    /// unblock it).
    pub wake_at: Option<Cycle>,
    /// The tick would count a head-of-window memory stall.
    window_stall: bool,
    /// The tick would count a dispatch cycle lost to a full window.
    dispatch_window_full: bool,
    /// The tick would count a dispatch cycle lost to a dependent load.
    dispatch_dep: bool,
}

/// One simulated processing core.
///
/// Drive it with [`Core::tick`] once per CPU cycle, providing its trace and
/// the memory system; deliver fill wake-ups with [`Core::complete`].
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    /// The instruction window: a power-of-two ring of one word per slot
    /// (see [`LOAD`]), addressed by dispatch sequence number `seq & mask`.
    /// The live slots are the sequence numbers `[head, tail)`; a pending
    /// load's wake-up token is its own sequence number.
    window: Box<[u64]>,
    mask: u64,
    head: u64,
    tail: u64,
    /// An op that got [`AccessResponse::Retry`] (or is a dependent load
    /// waiting for MLP to drain) and must re-issue.
    stalled_op: Option<TraceOp>,
    /// Loads in the window still waiting on memory.
    pending_loads: usize,
    runahead: Option<RunaheadState>,
    stats: CoreStats,
}

impl Core {
    /// Creates an idle core.
    pub fn new(id: CoreId, cfg: CoreConfig) -> Self {
        let capacity = cfg.window_entries.next_power_of_two();
        Core {
            id,
            cfg,
            window: vec![0; capacity].into_boxed_slice(),
            mask: capacity as u64 - 1,
            head: 0,
            tail: 0,
            stalled_op: None,
            pending_loads: 0,
            runahead: None,
            stats: CoreStats::default(),
        }
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Retirement/stall statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// True while the core is pre-executing in runahead mode.
    pub fn in_runahead(&self) -> bool {
        self.runahead.is_some()
    }

    /// Wakes the pending load identified by `token`: its data is usable
    /// from cycle `now`.
    pub fn complete(&mut self, token: u64, now: Cycle) {
        // A token outside the live window (retired, never issued, or
        // runahead's `u64::MAX`) or naming a slot that is no longer pending
        // (a duplicate wake-up) is ignored.
        if (self.head..self.tail).contains(&token) {
            let word = &mut self.window[(token & self.mask) as usize];
            if *word == PENDING_LOAD {
                debug_assert!(now < LOAD, "cycle {now} collides with the load bit");
                *word = LOAD | now;
                self.pending_loads -= 1;
            }
        }
    }

    /// The window head's word, `None` when the window is empty.
    fn head_word(&self) -> Option<u64> {
        (self.head != self.tail).then(|| self.window[(self.head & self.mask) as usize])
    }

    /// True when the window head is a load waiting on memory.
    fn head_blocked(&self) -> bool {
        self.head_word() == Some(PENDING_LOAD)
    }

    /// Appends a slot holding `word` at sequence number `tail`.
    fn push(&mut self, word: u64) {
        self.window[(self.tail & self.mask) as usize] = word;
        self.tail += 1;
    }

    /// Classifies what [`Core::tick`]`(now, ..)` would do *without running
    /// it*: `Some(idle)` when the tick would be a pure stall cycle — no
    /// retirement, no trace consumption, no memory access, only stall
    /// counters — and `None` when it would make progress of any kind.
    ///
    /// This is the core's side of the fast-forward event contract
    /// (DESIGN.md §11): while every core reports `Some`, ticks can be
    /// replaced by [`Core::skip_idle_cycles`] up to the earliest `wake_at`
    /// (or an external wake-up via [`Core::complete`]) with bit-identical
    /// results.
    pub fn idle_state(&self, now: Cycle) -> Option<IdleState> {
        // An empty window means dispatch would fetch from the trace.
        let head = self.head_word()?;
        let done_at = head & !LOAD;
        if done_at <= now {
            // Head retires this tick.
            return None;
        }
        let head_blocked = head == PENDING_LOAD;
        let wake_at = (!head_blocked).then_some(done_at);
        // A lingering runahead state is cleared by the next tick once the
        // head is no longer blocked: a state change, not an idle cycle.
        if !head_blocked && self.runahead.is_some() {
            return None;
        }
        let dep_stalled = self.pending_loads > 0
            && matches!(self.stalled_op, Some(TraceOp::Load { dep: true, .. }));
        let window_full = self.window_full();
        if self.cfg.runahead && head_blocked && (window_full || dep_stalled) {
            // runahead_step would enter an episode or issue pre-execution
            // requests unless the current episode exhausted its op budget.
            let exhausted = self
                .runahead
                .as_ref()
                .is_some_and(|ra| ra.issued_ops >= self.cfg.runahead_max_ops);
            if !exhausted {
                return None;
            }
        }
        let (dispatch_window_full, dispatch_dep) = if window_full {
            (true, false)
        } else if dep_stalled {
            (false, true)
        } else {
            // Dispatch would fetch a new op or re-issue a retried access.
            return None;
        };
        Some(IdleState {
            wake_at,
            window_stall: head_blocked,
            dispatch_window_full,
            dispatch_dep,
        })
    }

    /// Applies `cycles` worth of the stall-counter bumps that `cycles`
    /// consecutive pure-stall ticks (as classified by `idle`) would have
    /// made. The caller guarantees `idle` came from [`Core::idle_state`] at
    /// the first skipped cycle and that no wake-up lands inside the
    /// skipped run.
    ///
    /// The replay may be **deferred**: a classification taken at cycle `t`
    /// stays valid for every cycle in `[t, wake)` as long as the core is
    /// neither ticked nor completed in between, because nothing else
    /// mutates a `Core` and the only time-dependence in
    /// [`Core::idle_state`] is the `done_at <= now` retirement comparison,
    /// which flips exactly at `wake_at` — the first cycle excluded from
    /// the window. The event kernel's per-core lag relies on this: it
    /// classifies once when a core goes idle and replays the whole lag
    /// window in one call when the core is resynced (a wake-up completion,
    /// its own `wake_at`, or a PAR-rollover resync).
    pub fn skip_idle_cycles(&mut self, idle: &IdleState, cycles: u64) {
        if idle.window_stall {
            self.stats.window_stall_cycles += cycles;
        }
        if idle.dispatch_window_full {
            self.stats.dispatch_window_full_cycles += cycles;
        }
        if idle.dispatch_dep {
            self.stats.dispatch_dep_cycles += cycles;
        }
    }

    /// Advances the core by one cycle: retire, (maybe) runahead, dispatch.
    ///
    /// Generic over what it drives, so a caller holding concrete types gets
    /// `next_op` and `access` dispatched statically (and inlined into the
    /// dispatch loop); `&mut dyn TraceSource` / `&mut dyn MemorySystem` and
    /// `&mut Box<dyn TraceSource>` are accepted as before.
    pub fn tick<T, M>(&mut self, now: Cycle, trace: &mut T, mem: &mut M)
    where
        T: TraceSource + ?Sized,
        M: MemorySystem + ?Sized,
    {
        self.retire(now);
        if self.cfg.runahead {
            self.runahead_step(now, trace, mem);
        }
        self.dispatch(now, trace, mem);
    }

    /// Retires up to `width` completed slots from the head in one pass over
    /// their words. A load still waiting on memory at the head counts one
    /// window-stall cycle, also after a partial retire.
    fn retire(&mut self, now: Cycle) {
        let run = (self.tail - self.head).min(self.cfg.width as u64);
        let (mut retired, mut loads) = (0, 0);
        while retired < run {
            let word = self.window[((self.head + retired) & self.mask) as usize];
            if word & !LOAD > now {
                self.stats.window_stall_cycles += u64::from(word == PENDING_LOAD);
                break;
            }
            loads += word >> 63;
            retired += 1;
        }
        self.head += retired;
        self.stats.retired_instructions += retired;
        self.stats.retired_loads += loads;
        // Exiting runahead: the head is no longer a pending load.
        if self.runahead.is_some() && !self.head_blocked() {
            self.runahead = None;
        }
    }

    fn window_full(&self) -> bool {
        self.tail - self.head >= self.cfg.window_entries as u64
    }

    /// Runahead execution: when stalled with a full window behind a pending
    /// head load, pre-execute the future trace, issuing memory requests
    /// without occupying window entries.
    fn runahead_step<T, M>(&mut self, now: Cycle, trace: &T, mem: &mut M)
    where
        T: TraceSource + ?Sized,
        M: MemorySystem + ?Sized,
    {
        let head_blocked = self.head_blocked();
        // The core is fully stalled when the window is full behind the
        // pending head, or when dispatch is blocked by a dependent load
        // waiting on that same outstanding miss traffic.
        let dep_stalled = self.pending_loads > 0
            && matches!(self.stalled_op, Some(TraceOp::Load { dep: true, .. }));
        if !(head_blocked && (self.window_full() || dep_stalled)) {
            return;
        }
        if self.runahead.is_none() {
            self.runahead = Some(RunaheadState {
                trace: trace.fork(),
                issued_ops: 0,
            });
            self.stats.runahead_episodes += 1;
        }
        let ra = self.runahead.as_mut().expect("just ensured");
        for _ in 0..self.cfg.width {
            if ra.issued_ops >= self.cfg.runahead_max_ops {
                return;
            }
            ra.issued_ops += 1;
            let op = ra.trace.next_op();
            let (addr, pc, kind) = match op {
                TraceOp::Compute => continue,
                TraceOp::Load { addr, pc, .. } => (addr, pc, AccessKind::Load),
                TraceOp::Store { addr, pc } => (addr, pc, AccessKind::Store),
            };
            let acc = MemAccess {
                addr,
                pc,
                kind,
                token: u64::MAX,
                runahead: true,
            };
            // Runahead requests that hit a structural hazard are dropped.
            if mem.access(self.id, &acc, now) != AccessResponse::Retry {
                self.stats.runahead_requests += 1;
            }
        }
    }

    fn dispatch<T, M>(&mut self, now: Cycle, trace: &mut T, mem: &mut M)
    where
        T: TraceSource + ?Sized,
        M: MemorySystem + ?Sized,
    {
        let mut dispatched = 0usize;
        for _ in 0..self.cfg.width {
            if self.window_full() {
                if dispatched == 0 {
                    self.stats.dispatch_window_full_cycles += 1;
                }
                return;
            }
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => trace.next_op(),
            };
            dispatched += 1;
            match op {
                TraceOp::Compute => self.push(now + 1),
                TraceOp::Load { addr, pc, dep } => {
                    // A dependent load cannot issue while older loads are
                    // still waiting on memory (bounded MLP).
                    if dep && self.pending_loads > 0 {
                        self.stalled_op = Some(op);
                        if dispatched == 1 {
                            self.stats.dispatch_dep_cycles += 1;
                        }
                        return;
                    }
                    let acc = MemAccess {
                        addr,
                        pc,
                        kind: AccessKind::Load,
                        token: self.tail,
                        runahead: false,
                    };
                    match mem.access(self.id, &acc, now) {
                        AccessResponse::Hit { latency } => self.push(LOAD | (now + latency)),
                        AccessResponse::Pending => {
                            self.pending_loads += 1;
                            self.push(PENDING_LOAD);
                        }
                        AccessResponse::Retry => {
                            self.stalled_op = Some(op);
                            if dispatched == 1 {
                                self.stats.dispatch_retry_cycles += 1;
                            }
                            return;
                        }
                    }
                }
                TraceOp::Store { addr, pc } => {
                    let acc = MemAccess {
                        addr,
                        pc,
                        kind: AccessKind::Store,
                        token: u64::MAX,
                        runahead: false,
                    };
                    match mem.access(self.id, &acc, now) {
                        AccessResponse::Retry => {
                            self.stalled_op = Some(op);
                            if dispatched == 1 {
                                self.stats.dispatch_retry_cycles += 1;
                            }
                            return;
                        }
                        // Stores retire without waiting for memory.
                        AccessResponse::Hit { .. } | AccessResponse::Pending => self.push(now + 1),
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("window_len", &(self.tail - self.head))
            .field("in_runahead", &self.in_runahead())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// Scripted memory system for tests: responds per access in FIFO order.
    struct Script {
        responses: VecDeque<AccessResponse>,
        accesses: Vec<MemAccess>,
    }

    impl Script {
        fn always(resp: AccessResponse) -> Self {
            Script {
                responses: VecDeque::new(),
                accesses: Vec::new(),
            }
            .with_default(resp)
        }

        fn with_default(mut self, resp: AccessResponse) -> Self {
            self.responses.push_back(resp); // sentinel reused forever
            self
        }
    }

    impl MemorySystem for Script {
        fn access(&mut self, _core: CoreId, acc: &MemAccess, _now: Cycle) -> AccessResponse {
            self.accesses.push(*acc);
            if self.responses.len() > 1 {
                self.responses.pop_front().expect("non-empty")
            } else {
                *self.responses.front().expect("sentinel")
            }
        }
    }

    #[derive(Clone)]
    struct Repeat(Vec<TraceOp>, usize);

    impl TraceSource for Repeat {
        fn next_op(&mut self) -> TraceOp {
            let op = self.0[self.1 % self.0.len()];
            self.1 += 1;
            op
        }
        fn fork(&self) -> Box<dyn TraceSource> {
            Box::new(self.clone())
        }
    }

    fn load(addr: u64) -> TraceOp {
        TraceOp::Load {
            addr: Addr::new(addr),
            pc: 0x400,
            dep: false,
        }
    }

    fn dep_load(addr: u64) -> TraceOp {
        TraceOp::Load {
            addr: Addr::new(addr),
            pc: 0x400,
            dep: true,
        }
    }

    fn cfg() -> CoreConfig {
        CoreConfig {
            window_entries: 8,
            width: 2,
            runahead: false,
            runahead_max_ops: 16,
        }
    }

    #[test]
    fn compute_only_retires_at_full_width() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let mut trace = Repeat(vec![TraceOp::Compute], 0);
        let mut mem = Script::always(AccessResponse::Hit { latency: 1 });
        for now in 0..100 {
            core.tick(now, &mut trace, &mut mem);
        }
        // Steady state: 2 per cycle (minus pipeline fill).
        assert!(core.stats().retired_instructions >= 190);
        assert_eq!(core.stats().window_stall_cycles, 0);
    }

    #[test]
    fn pending_load_blocks_retirement_and_counts_spl() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let mut trace = Repeat(vec![load(64), TraceOp::Compute], 0);
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..50 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert_eq!(core.stats().retired_instructions, 0);
        assert!(core.stats().window_stall_cycles > 40);
    }

    #[test]
    fn complete_unblocks_the_head_load() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let mut trace = Repeat(vec![load(64), TraceOp::Compute], 0);
        let mut mem = Script::always(AccessResponse::Pending);
        core.tick(0, &mut trace, &mut mem); // dispatch load (token 0) + compute
        core.tick(1, &mut trace, &mut mem);
        assert_eq!(core.stats().retired_instructions, 0);
        core.complete(0, 2);
        core.tick(3, &mut trace, &mut mem);
        assert!(core.stats().retired_instructions >= 1);
        assert!(core.stats().retired_loads >= 1);
    }

    #[test]
    fn hit_loads_retire_after_latency() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let mut trace = Repeat(vec![load(64)], 0);
        let mut mem = Script::always(AccessResponse::Hit { latency: 3 });
        for now in 0..20 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert!(core.stats().retired_loads > 5);
    }

    #[test]
    fn retry_stalls_dispatch_without_losing_the_op() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let mut trace = Repeat(vec![load(64)], 0);
        // First 3 responses Retry, then always hit.
        let mut mem = Script {
            responses: VecDeque::from(vec![
                AccessResponse::Retry,
                AccessResponse::Retry,
                AccessResponse::Retry,
                AccessResponse::Hit { latency: 1 },
            ]),
            accesses: Vec::new(),
        };
        for now in 0..10 {
            core.tick(now, &mut trace, &mut mem);
        }
        // All accesses target the same address: the op was retried, not
        // skipped.
        assert!(mem.accesses.len() >= 4);
        assert!(mem
            .accesses
            .iter()
            .all(|a| a.addr == Addr::new(64) || a.addr == Addr::new(64)));
        assert!(core.stats().retired_loads > 0);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let mut trace = Repeat(
            vec![TraceOp::Store {
                addr: Addr::new(64),
                pc: 0,
            }],
            0,
        );
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..50 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert!(core.stats().retired_instructions > 80);
        assert_eq!(core.stats().window_stall_cycles, 0);
    }

    #[test]
    fn runahead_issues_future_requests_while_stalled() {
        let mut c = cfg();
        c.runahead = true;
        let mut core = Core::new(CoreId::new(0), c);
        // Head load pends forever; the rest of the trace is loads to
        // distinct addresses.
        let ops: Vec<TraceOp> = (0..64).map(|i| load(64 * (i + 1))).collect();
        let mut trace = Repeat(ops, 0);
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..100 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert!(core.in_runahead());
        assert_eq!(core.stats().runahead_episodes, 1);
        assert!(core.stats().runahead_requests > 0);
        let ra_accesses = mem.accesses.iter().filter(|a| a.runahead).count();
        assert!(ra_accesses > 0);
    }

    #[test]
    fn runahead_exits_when_head_completes() {
        let mut c = cfg();
        c.runahead = true;
        let mut core = Core::new(CoreId::new(0), c);
        let ops: Vec<TraceOp> = (0..64).map(|i| load(64 * (i + 1))).collect();
        let mut trace = Repeat(ops, 0);
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..50 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert!(core.in_runahead());
        // Wake every outstanding load.
        for token in 0..100 {
            core.complete(token, 50);
        }
        core.tick(51, &mut trace, &mut mem);
        assert!(!core.in_runahead());
    }

    #[test]
    fn runahead_respects_op_budget() {
        let mut c = cfg();
        c.runahead = true;
        c.runahead_max_ops = 4;
        let mut core = Core::new(CoreId::new(0), c);
        let ops: Vec<TraceOp> = (0..64).map(|i| load(64 * (i + 1))).collect();
        let mut trace = Repeat(ops, 0);
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..100 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert!(core.stats().runahead_requests <= 4);
    }

    #[test]
    fn dependent_loads_serialize_misses() {
        // All loads dependent and all pending: only one memory access can
        // be outstanding at a time (MLP = 1).
        let mut core = Core::new(CoreId::new(0), cfg());
        let ops: Vec<TraceOp> = (0..32).map(|i| dep_load(64 * (i + 1))).collect();
        let mut trace = Repeat(ops, 0);
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..20 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert_eq!(mem.accesses.len(), 1, "second dep load must wait");
        core.complete(0, 20);
        for now in 21..25 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert_eq!(mem.accesses.len(), 2, "drain allows the next load");
    }

    #[test]
    fn independent_loads_overlap_misses() {
        let mut core = Core::new(CoreId::new(0), cfg());
        let ops: Vec<TraceOp> = (0..32).map(|i| load(64 * (i + 1))).collect();
        let mut trace = Repeat(ops, 0);
        let mut mem = Script::always(AccessResponse::Pending);
        for now in 0..20 {
            core.tick(now, &mut trace, &mut mem);
        }
        assert!(mem.accesses.len() >= 8, "window full of parallel misses");
    }

    #[test]
    fn spl_metric_divides_by_loads() {
        let s = CoreStats {
            retired_loads: 4,
            window_stall_cycles: 100,
            ..CoreStats::default()
        };
        assert!((s.spl() - 25.0).abs() < 1e-12);
        assert_eq!(CoreStats::default().spl(), 0.0);
    }

    #[test]
    fn ipc_metric() {
        let s = CoreStats {
            retired_instructions: 500,
            ..CoreStats::default()
        };
        assert!((s.ipc(1000) - 0.5).abs() < 1e-12);
        assert_eq!(s.ipc(0), 0.0);
    }

    /// The deferred-replay contract the event kernel's per-core lag depends
    /// on: classifying a stall once and replaying the whole window later
    /// with [`Core::skip_idle_cycles`] is indistinguishable from ticking
    /// through it cycle by cycle — both before and after the wake-up.
    #[test]
    fn deferred_skip_replay_matches_ticked_stalls() {
        let drive =
            |core: &mut Core, trace: &mut Repeat, mem: &mut Script, range: std::ops::Range<u64>| {
                for now in range {
                    core.tick(now, trace, mem);
                }
            };
        let mk = || {
            (
                Core::new(CoreId::new(0), cfg()),
                Repeat(vec![load(64), load(128)], 0),
                Script::always(AccessResponse::Pending),
            )
        };
        let (mut ticked, mut trace_a, mut mem_a) = mk();
        let (mut skipped, mut trace_b, mut mem_b) = mk();
        // Identical warm-up until the window is full of pending loads.
        drive(&mut ticked, &mut trace_a, &mut mem_a, 0..6);
        drive(&mut skipped, &mut trace_b, &mut mem_b, 0..6);
        let idle = skipped.idle_state(6).expect("full window of pending loads");
        assert!(idle.wake_at.is_none(), "externally woken only");

        // One core ticks through the stall; the other replays it later in
        // a single deferred call.
        drive(&mut ticked, &mut trace_a, &mut mem_a, 6..60);
        skipped.skip_idle_cycles(&idle, 54);
        assert_eq!(ticked.stats(), skipped.stats());
        assert_eq!(
            mem_a.accesses.len(),
            mem_b.accesses.len(),
            "a pure stall must not touch memory"
        );

        // Both wake identically and keep matching afterwards.
        ticked.complete(0, 60);
        skipped.complete(0, 60);
        drive(&mut ticked, &mut trace_a, &mut mem_a, 61..70);
        drive(&mut skipped, &mut trace_b, &mut mem_b, 61..70);
        assert_eq!(ticked.stats(), skipped.stats());
        assert!(ticked.stats().retired_instructions > 0);
    }
}
