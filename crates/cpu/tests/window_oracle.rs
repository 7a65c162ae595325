//! The core's ring window against the model it replaced, cycle by cycle.
//!
//! [`RefCore`] is the core as first written: a `VecDeque` of slots, each
//! carrying its own completion time and wake-up token, tokens drawn from a
//! counter, `complete` a linear search and `retire` one pop per slot. It
//! shares nothing with [`Core`] but the trace and memory traits. Both are
//! driven by the same random op stream, the same `Hit`/`Pending`/`Retry`
//! answers and the same wake-ups — of loads still pending, loads already
//! woken or retired, tokens never issued (some aliasing a live ring slot)
//! and runahead's `u64::MAX` — over window sizes that are not powers of two
//! and runs that wrap the ring many times. Every cycle the two must agree on
//! [`CoreStats`], the accesses made and [`Core::idle_state`].

use std::collections::VecDeque;

use padc_cpu::{
    AccessResponse, Core, CoreConfig, CoreStats, MemAccess, MemorySystem, TraceOp, TraceSource,
};
use padc_types::{AccessKind, Addr, CoreId, Cycle};
use proptest::prelude::*;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A stateless op stream: op `i` is a function of `(seed, i)`, so a fork is
/// a copy.
#[derive(Clone)]
struct Ops {
    seed: u64,
    next: u64,
    mem_pct: u64,
}

impl TraceSource for Ops {
    fn next_op(&mut self) -> TraceOp {
        let r = mix(self.seed ^ mix(self.next));
        self.next += 1;
        let addr = Addr::new((r >> 16) % 512 * 64);
        let pc = 0x400 + (r >> 48) % 8 * 4;
        match r % 100 {
            p if p >= self.mem_pct => TraceOp::Compute,
            p if p % 4 == 0 => TraceOp::Store { addr, pc },
            p => TraceOp::Load {
                addr,
                pc,
                dep: p % 3 == 0,
            },
        }
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(self.clone())
    }
}

/// Answers access `n` as a function of `(seed, n)` and logs every access;
/// `pending` holds the tokens of demand loads answered `Pending`, in order.
struct Mem {
    seed: u64,
    retry_pct: u64,
    hit_pct: u64,
    log: Vec<(Addr, u64, AccessKind, bool)>,
    pending: Vec<u64>,
    max_token: Option<u64>,
}

impl Mem {
    fn new(seed: u64, retry_pct: u64, hit_pct: u64) -> Self {
        Mem {
            seed,
            retry_pct,
            hit_pct,
            log: Vec::new(),
            pending: Vec::new(),
            max_token: None,
        }
    }

    /// A token above every demand-load token seen so far: never a pending
    /// slot's.
    fn unissued(&self) -> u64 {
        self.max_token.map_or(0, |t| t + 1)
    }
}

impl MemorySystem for Mem {
    fn access(&mut self, _core: CoreId, acc: &MemAccess, _now: Cycle) -> AccessResponse {
        let r = mix(self.seed ^ mix(self.log.len() as u64));
        self.log.push((acc.addr, acc.pc, acc.kind, acc.runahead));
        let demand_load = acc.kind == AccessKind::Load && !acc.runahead;
        if demand_load {
            self.max_token = self.max_token.max(Some(acc.token));
        }
        match r % 100 {
            p if p < self.retry_pct => AccessResponse::Retry,
            p if p < self.retry_pct + self.hit_pct => AccessResponse::Hit {
                latency: (r >> 32) % 24,
            },
            _ => {
                if demand_load {
                    self.pending.push(acc.token);
                }
                AccessResponse::Pending
            }
        }
    }
}

#[derive(Clone, Copy)]
struct Slot {
    is_load: bool,
    done_at: Option<Cycle>,
    token: u64,
}

/// Field for field [`padc_cpu::IdleState`], so the two compare by their
/// `Debug` text.
#[derive(Debug)]
#[allow(dead_code)] // read only through `Debug`
struct IdleState {
    wake_at: Option<Cycle>,
    window_stall: bool,
    dispatch_window_full: bool,
    dispatch_dep: bool,
}

struct RefCore {
    cfg: CoreConfig,
    window: VecDeque<Slot>,
    next_token: u64,
    stalled_op: Option<TraceOp>,
    pending_loads: usize,
    runahead: Option<(Box<dyn TraceSource>, usize)>,
    stats: CoreStats,
}

impl RefCore {
    fn new(cfg: CoreConfig) -> Self {
        RefCore {
            cfg,
            window: VecDeque::new(),
            next_token: 0,
            stalled_op: None,
            pending_loads: 0,
            runahead: None,
            stats: CoreStats::default(),
        }
    }

    fn complete(&mut self, token: u64, now: Cycle) {
        if let Some(slot) = self
            .window
            .iter_mut()
            .find(|s| s.token == token && s.done_at.is_none())
        {
            slot.done_at = Some(now);
            self.pending_loads -= 1;
        }
    }

    fn head_blocked(&self) -> bool {
        self.window
            .front()
            .is_some_and(|s| s.is_load && s.done_at.is_none())
    }

    fn full(&self) -> bool {
        self.window.len() >= self.cfg.window_entries
    }

    fn dep_stalled(&self) -> bool {
        self.pending_loads > 0 && matches!(self.stalled_op, Some(TraceOp::Load { dep: true, .. }))
    }

    fn idle_state(&self, now: Cycle) -> Option<IdleState> {
        let head = self.window.front()?;
        let (window_stall, wake_at) = match head.done_at {
            Some(d) if d <= now => return None,
            Some(d) => (false, Some(d)),
            None => (true, None),
        };
        if !window_stall && self.runahead.is_some() {
            return None;
        }
        let (full, dep) = (self.full(), self.dep_stalled());
        let exhausted = matches!(self.runahead, Some((_, n)) if n >= self.cfg.runahead_max_ops);
        if self.cfg.runahead && window_stall && (full || dep) && !exhausted {
            return None;
        }
        (full || dep).then_some(IdleState {
            wake_at,
            window_stall,
            dispatch_window_full: full,
            dispatch_dep: !full,
        })
    }

    fn tick(&mut self, now: Cycle, trace: &mut Ops, mem: &mut Mem) {
        for _ in 0..self.cfg.width {
            match self.window.front() {
                Some(s) if s.done_at.is_some_and(|t| t <= now) => {
                    let s = self.window.pop_front().unwrap();
                    self.stats.retired_instructions += 1;
                    self.stats.retired_loads += u64::from(s.is_load);
                }
                Some(s) if s.is_load && s.done_at.is_none() => {
                    self.stats.window_stall_cycles += 1;
                    break;
                }
                _ => break,
            }
        }
        if self.runahead.is_some() && !self.head_blocked() {
            self.runahead = None;
        }
        if self.cfg.runahead && self.head_blocked() && (self.full() || self.dep_stalled()) {
            if self.runahead.is_none() {
                self.runahead = Some((trace.fork(), 0));
                self.stats.runahead_episodes += 1;
            }
            let (ra, issued) = self.runahead.as_mut().unwrap();
            for _ in 0..self.cfg.width {
                if *issued >= self.cfg.runahead_max_ops {
                    break;
                }
                *issued += 1;
                let (addr, pc, kind) = match ra.next_op() {
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
                if mem.access(CoreId::new(0), &acc, now) != AccessResponse::Retry {
                    self.stats.runahead_requests += 1;
                }
            }
        }
        for i in 0..self.cfg.width {
            if self.full() {
                self.stats.dispatch_window_full_cycles += u64::from(i == 0);
                return;
            }
            let op = self.stalled_op.take().unwrap_or_else(|| trace.next_op());
            let (addr, pc, kind) = match op {
                TraceOp::Compute => {
                    self.push(false, Some(now + 1), u64::MAX);
                    continue;
                }
                TraceOp::Load { dep: true, .. } if self.pending_loads > 0 => {
                    self.stalled_op = Some(op);
                    self.stats.dispatch_dep_cycles += u64::from(i == 0);
                    return;
                }
                TraceOp::Load { addr, pc, .. } => (addr, pc, AccessKind::Load),
                TraceOp::Store { addr, pc } => (addr, pc, AccessKind::Store),
            };
            let is_load = kind == AccessKind::Load;
            let token = if is_load { self.next_token } else { u64::MAX };
            let acc = MemAccess {
                addr,
                pc,
                kind,
                token,
                runahead: false,
            };
            match mem.access(CoreId::new(0), &acc, now) {
                AccessResponse::Retry => {
                    self.stalled_op = Some(op);
                    self.stats.dispatch_retry_cycles += u64::from(i == 0);
                    return;
                }
                AccessResponse::Pending if is_load => {
                    self.next_token += 1;
                    self.pending_loads += 1;
                    self.push(true, None, token);
                }
                AccessResponse::Hit { latency } if is_load => {
                    self.push(true, Some(now + latency), u64::MAX)
                }
                _ => self.push(false, Some(now + 1), u64::MAX),
            }
        }
    }

    fn push(&mut self, is_load: bool, done_at: Option<Cycle>, token: u64) {
        self.window.push_back(Slot {
            is_load,
            done_at,
            token,
        });
    }
}

/// Mostly not powers of two: the ring rounds its capacity up.
const WINDOW_ENTRIES: [usize; 8] = [1, 2, 3, 6, 8, 13, 100, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_window_matches_the_reference_core(
        seed in any::<u64>(),
        size in 0usize..WINDOW_ENTRIES.len(),
        width in 1usize..7,
        runahead in any::<bool>(),
        runahead_max_ops in 0usize..48,
        mem_pct in 0u64..101,
        answers in (0u64..30, 0u64..70),
        wakes_per_cycle in 0u64..4,
    ) {
        let ((retry_pct, hit_pct), window_entries) = (answers, WINDOW_ENTRIES[size]);
        let cfg = CoreConfig { window_entries, width, runahead, runahead_max_ops };
        let capacity = window_entries.next_power_of_two() as u64;
        let mut core = Core::new(CoreId::new(0), cfg);
        let mut reference = RefCore::new(cfg);
        let ops = Ops { seed, next: 0, mem_pct };
        let (mut trace, mut ref_trace) = (ops.clone(), ops);
        let mut mem = Mem::new(seed, retry_pct, hit_pct);
        let mut ref_mem = Mem::new(seed, retry_pct, hit_pct);
        let mut rng = mix(!seed);
        let mut draw = |n: u64| {
            rng = mix(rng);
            rng % n
        };
        let mut logged = 0;
        for now in 0..4_000 {
            for _ in 0..draw(wakes_per_cycle + 1) {
                let issued = mem.pending.len() as u64;
                let (token, ref_token) = match draw(6) {
                    // Most likely still pending.
                    0..=2 if issued > 0 => {
                        let i = issued - 1 - draw(issued.min(8));
                        (mem.pending[i as usize], ref_mem.pending[i as usize])
                    }
                    // Any load ever pending: woken, retired or still waiting.
                    3 if issued > 0 => {
                        let i = draw(issued) as usize;
                        (mem.pending[i], ref_mem.pending[i])
                    }
                    // Never issued; some of them alias a live ring slot.
                    4 => (
                        mem.unissued() + draw(capacity) + capacity * draw(3),
                        ref_mem.unissued() + draw(capacity),
                    ),
                    _ => (u64::MAX, u64::MAX),
                };
                let at = now + draw(3);
                core.complete(token, at);
                reference.complete(ref_token, at);
            }
            core.tick(now, &mut trace, &mut mem);
            reference.tick(now, &mut ref_trace, &mut ref_mem);
            prop_assert_eq!(core.stats(), &reference.stats, "stats at cycle {}", now);
            prop_assert_eq!(
                &mem.log[logged..],
                &ref_mem.log[logged.min(ref_mem.log.len())..],
                "accesses at cycle {}", now
            );
            logged = mem.log.len();
            prop_assert_eq!(
                format!("{:?}", core.idle_state(now + 1)),
                format!("{:?}", reference.idle_state(now + 1)),
                "idle_state at cycle {}", now + 1
            );
        }
    }
}
