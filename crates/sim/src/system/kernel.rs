//! Stepping modes and the discrete-event kernel behind
//! [`FastForwardMode::Event`].
//!
//! `Off` executes every phase of every cycle ([`System::step`]) and is the
//! reference the kernel is checked against. The kernel advances the same
//! model by events: each component carries the next global cycle at which
//! it can do observable work — `due[c]` per core, `ctrl_next` for the
//! controller phase (controller tick, accuracy-tracker tick, channel
//! syncs) — and [`Kernel::step`] executes only the components due at
//! `now`, while [`Kernel::try_jump`] moves `now` to the minimum bound when
//! nothing is due. The global clock advances monotonically and due
//! components run in the same order as in `Off` (controller phase, then
//! cores by index).
//!
//! # Why reports are byte-identical to `Off` (invariants E1–E7)
//!
//! - **E1 (a skipped controller phase is a proven no-op).** The phase is
//!   skipped at cycle `m` only when `m < ctrl_next`, and `ctrl_next` is a
//!   [`MemoryController::next_event`](padc_core::MemoryController::next_event)
//!   bound proven under the controller's current mutation epoch. By that
//!   contract (DESIGN.md §11) `tick(m)` would collect no completion, drop
//!   no prefetch, drain no writeback, issue no command, flip no
//!   batch/write-drain state and apply no refresh;
//!   [`AccuracyTracker::tick`](padc_core::AccuracyTracker::tick) strictly
//!   before the rollover and [`padc_dram::Channel::sync`] strictly before
//!   the next refresh boundary mutate nothing. Checked cycle by cycle by
//!   the `next_event` soundness proptest in `padc-core`.
//! - **E2 (mutations invalidate the proof).** Cores keep executing while
//!   the controller is skipped. Every controller mutation they can cause —
//!   `enqueue`, `enqueue_writeback`, a successful `promote_prefetch` —
//!   bumps [`MemoryController::mutation_epoch`](padc_core::MemoryController::mutation_epoch);
//!   a bound proven under an older epoch is re-proven from live state
//!   before the next skip or jump decision. Cores run *after* the
//!   controller phase within a cycle, as in `Off`, so the re-proof sees
//!   everything the skipped-over cycle enqueued.
//! - **E3 (rollovers and refreshes execute).** `ctrl_next` and every
//!   `due[c]` are capped at [`AccuracyTracker::next_rollover`](padc_core::AccuracyTracker::next_rollover),
//!   and `next_event` folds every pending refresh boundary, so the ticks
//!   that re-derive `PAR` (drop thresholds, criticality, rank, FDP
//!   feedback) and apply refreshes run at exactly their `Off` cycle, and
//!   PAR-derived quantities are constants inside every skipped window.
//! - **E4 (no missed ticks).** The loop never passes `due[c]` without
//!   ticking core `c`, nor `ctrl_next` without executing the controller
//!   phase (`debug_assert`s in [`Kernel::step`]).
//! - **E5 (lag windows are classified).** Whenever `behind[c] < due[c]`,
//!   `idle[c]` holds the [`IdleState`] taken at `behind[c]` and core `c`
//!   has been neither ticked nor completed since. The only time-dependent
//!   input to [`Core::idle_state`] is the head's `done_at <= now`
//!   comparison, which flips exactly at `wake_at` — the first cycle
//!   excluded from the window — so one [`Core::skip_idle_cycles`] call
//!   equals having ticked every cycle in `[behind[c], due[c])`.
//! - **E6 (isolation).** A pure-stall tick touches only the core's own
//!   stall counters, and no core reads another core's state, so a lagging
//!   core is invisible until it resyncs. Cores reach the controller only
//!   through [`MemorySystem::access`](padc_cpu::MemorySystem::access)
//!   (epoch-guarded, E2); the controller reaches cores only through
//!   completions, which exist only in executed phases (E1) and close the
//!   receiving core's lag window — replayed immediately *before*
//!   [`Core::complete`] mutates it — so its tick at that cycle runs for
//!   real and re-classifies.
//! - **E7 (jumps are bounded).** A jump fires only when every core lags,
//!   to `min(min(due), ctrl_next, max_cycles)` — all early-but-never-late
//!   bounds — and never once the run has finished, so `total_cycles`
//!   agrees. Lag windows span the jump and are replayed at their next
//!   resync (or at run exit), which counts each skipped core-cycle once.

use padc_cpu::{Core, IdleState};
use padc_types::Cycle;

use super::{MemSubsystem, System};
use crate::profile::{self, SimProfile};

/// How [`System::run`] advances simulated time. Both modes produce
/// **bit-identical** reports (DESIGN.md §11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FastForwardMode {
    /// Execute every phase of every cycle: the cycle-exact reference.
    Off,
    /// The discrete-event kernel (default): cores and the controller
    /// phase execute only at cycles where they can do observable work,
    /// and the clock jumps when none can.
    #[default]
    Event,
}

impl std::str::FromStr for FastForwardMode {
    type Err = String;

    /// Parses exactly `off` or `event`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(FastForwardMode::Off),
            "event" => Ok(FastForwardMode::Event),
            other => Err(format!(
                "unknown fast-forward mode '{other}' (expected off|event)"
            )),
        }
    }
}

/// Event schedule for one [`System::run`] (see the module docs).
pub(super) struct Kernel {
    /// `due[c]`: next global cycle at which core `c` must execute a real
    /// tick. `due[c] <= now` means "in lockstep"; `due[c] > now` means the
    /// core lags and `[behind[c], due[c])` is a proven pure-stall window.
    due: Vec<Cycle>,
    /// `behind[c]`: first cycle whose tick has been neither executed nor
    /// replayed for core `c`.
    behind: Vec<Cycle>,
    /// Replay classification covering `[behind[c], due[c])` (E5).
    idle: Vec<Option<IdleState>>,
    /// `min(due)` as the last [`Kernel::step`] left it: the step visits
    /// every core, so it keeps the minimum on the way and
    /// [`Kernel::try_jump`] reads it (E7).
    min_due: Cycle,
    /// First cycle at or after which the controller phase may do
    /// observable work; every cycle before it is a proven no-op under
    /// `epoch` (E1).
    ctrl_next: Cycle,
    /// Controller mutation epoch `ctrl_next` was proven under (E2).
    epoch: u64,
}

// Everything `System::run`'s event loop calls per cycle is `#[inline]`
// (here, and `controller_phase` / `on_dropped` in the parent module): without
// it, whether the loop is one function depends on how rustc happens to split
// this crate into codegen units, so an edit anywhere in `padc-sim` could
// re-shape the simulator's hottest code.
impl Kernel {
    /// A schedule with every core in lockstep at `sys.now` and a fresh
    /// controller proof.
    #[inline]
    pub(super) fn new(sys: &mut System) -> Self {
        let (now, cores) = (sys.now, sys.cfg.cores);
        let mut k = Kernel {
            due: vec![now; cores],
            behind: vec![now; cores],
            idle: vec![None; cores],
            min_due: now,
            ctrl_next: now,
            epoch: 0,
        };
        k.reprove(now, &mut sys.mem);
        k
    }

    /// Re-proves `ctrl_next` from the controller's live state. `from` is
    /// the first cycle whose controller phase has not yet executed, so the
    /// bound is clamped to at least `from`.
    fn reprove(&mut self, from: Cycle, mem: &mut MemSubsystem) {
        let mut bound = mem.tracker.next_rollover();
        if let Some(ev) = mem.controller.next_event(from, &mem.tracker) {
            bound = bound.min(ev);
        }
        self.ctrl_next = bound.max(from);
        self.epoch = mem.controller.mutation_epoch();
    }

    /// Makes `ctrl_next` valid at `now`: re-proves if a core mutated the
    /// controller since the bound was computed (E2).
    fn validate(&mut self, now: Cycle, mem: &mut MemSubsystem) {
        if mem.controller.mutation_epoch() != self.epoch {
            self.reprove(now, mem);
        }
    }

    /// Replays core `c`'s deferred pure-stall ticks up to (not including)
    /// `to` (E5).
    #[inline]
    fn catch_up(&mut self, c: usize, to: Cycle, core: &mut Core, profile: &mut SimProfile) {
        let from = self.behind[c];
        if from >= to {
            return;
        }
        let idle = self.idle[c]
            .as_ref()
            .expect("E5 violated: lagging core carries no idle classification");
        core.skip_idle_cycles(idle, to - from);
        profile.core_cycles_skipped += to - from;
        profile.lag_resyncs += 1;
        self.behind[c] = to;
    }

    /// Re-classifies core `c` right after its real tick at `now`: either
    /// it stays in lockstep (busy) or a lag window opens, bounded by its
    /// own wake-up and the next PAR rollover (E3).
    #[inline]
    fn reclassify(&mut self, c: usize, now: Cycle, core: &Core, par_rollover: Cycle) {
        self.behind[c] = now + 1;
        self.idle[c] = core.idle_state(now + 1);
        self.due[c] = match &self.idle[c] {
            None => now + 1,
            Some(idle) => {
                let wake = idle.wake_at.unwrap_or(Cycle::MAX);
                debug_assert!(wake > now + 1, "wake_at inside the classified window");
                wake.min(par_rollover)
            }
        };
        debug_assert!(self.due[c] > now);
    }

    /// One global-clock step: the controller phase if the proof cannot
    /// rule it out, then every due core in index order.
    #[inline]
    pub(super) fn step(&mut self, sys: &mut System) {
        let now = sys.now;
        sys.profile.cycles_stepped += 1;
        self.validate(now, &mut sys.mem);
        debug_assert!(
            self.ctrl_next >= now,
            "E4 violated: controller missed its event tick"
        );
        if now >= self.ctrl_next {
            let t0 = profile::clock();
            sys.profile.ctrl_events_fired += 1;
            // A completion invalidates the receiving core's idle
            // classification, so its lag window is replayed before the
            // core is mutated and it re-enters lockstep at this cycle (E6).
            sys.controller_phase(now, |c, core, profile| {
                self.catch_up(c, now, core, profile);
                self.due[c] = now;
            });
            // After completion delivery and the tracker tick, so fills'
            // writebacks and the post-rollover PAR are folded in.
            self.reprove(now + 1, &mut sys.mem);
            profile::lap(t0, &mut sys.profile.controller_ns);
        } else {
            sys.profile.ctrl_cycles_skipped += 1;
        }
        let t1 = profile::clock();
        let mut min_due = Cycle::MAX;
        for c in 0..self.due.len() {
            debug_assert!(
                self.due[c] >= now,
                "E4 violated: core {c} missed its due tick"
            );
            if self.due[c] == now {
                self.catch_up(c, now, &mut sys.cores[c], &mut sys.profile);
                sys.tick_core(c, now);
                let rollover = sys.mem.tracker.next_rollover();
                self.reclassify(c, now, &sys.cores[c], rollover);
            }
            min_due = min_due.min(self.due[c]);
        }
        self.min_due = min_due;
        profile::lap(t1, &mut sys.profile.cores_ns);
        sys.now += 1;
    }

    /// Jumps the clock to the earliest bound when nothing is due before it
    /// (E7). Lag windows are not replayed here; they span the jump.
    #[inline]
    pub(super) fn try_jump(&mut self, sys: &mut System) {
        let now = sys.now;
        if now >= sys.cfg.max_cycles || sys.finished() {
            return;
        }
        let min_due = self.min_due;
        debug_assert_eq!(
            min_due,
            self.due.iter().copied().min().unwrap_or(Cycle::MAX),
            "E7 violated: the minimum kept by step is stale"
        );
        if min_due <= now {
            return;
        }
        self.validate(now, &mut sys.mem);
        let target = min_due.min(self.ctrl_next).min(sys.cfg.max_cycles);
        if target <= now {
            return;
        }
        debug_assert!(
            target <= sys.mem.tracker.next_rollover(),
            "E3 violated: jump to {target} crosses the pending PAR rollover"
        );
        let skipped = target - now;
        sys.profile.ff_jumps += 1;
        sys.profile.ff_cycles_skipped += skipped;
        sys.profile.ctrl_cycles_skipped += skipped;
        sys.now = target;
    }

    /// Replays every outstanding lag window up to `sys.now` (run exit:
    /// live stats must match a cycle-exact run stopped at the same cycle).
    #[inline]
    pub(super) fn flush(&mut self, sys: &mut System) {
        for (c, core) in sys.cores.iter_mut().enumerate() {
            self.catch_up(c, sys.now, core, &mut sys.profile);
        }
    }
}
