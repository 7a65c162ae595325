use padc_cache::{Cache, MshrFile, ProbeOutcome, Waiter};
use padc_core::{AccuracyTracker, Completion, MemoryController};
use padc_cpu::TraceSource;
use padc_cpu::{AccessResponse, Core, CoreStats, MemAccess, MemorySystem};
use padc_prefetch::{
    build as build_prefetcher, AccessEvent, Ddpf, DdpfConfig, Fdp, FdpConfig, FdpFeedback,
    PollutionFilter, Prefetcher,
};
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, LineMap, MemRequest, RequestKind};
use padc_workloads::{BenchProfile, TraceGen};

use crate::profile::{self, SimProfile};
use crate::{CoreReport, Report, SimConfig, Traffic};

mod kernel;

pub use kernel::FastForwardMode;
use kernel::Kernel;

/// Per-core accounting kept by the memory subsystem.
#[derive(Clone, Copy, Debug, Default)]
struct PerCore {
    l2_accesses: u64,
    l2_misses: u64,
    demand_traffic: u64,
    /// Prefetch fills (usefulness resolved lazily).
    pref_filled: u64,
    /// P-bit consumptions (useful prefetches discovered in the cache).
    useful_pbit: u64,
    /// In-buffer promotions (useful prefetches discovered in the MRB).
    promotions: u64,
    pf_sent: u64,
    pf_used: u64,
    pf_filtered: u64,
    pf_no_space: u64,
    pf_dropped: u64,
    rbhu_demand_hits: u64,
    rbhu_demand_total: u64,
    rbhu_useful_hits: u64,
    rbhu_useful_total: u64,
}

/// FDP interval counters per core.
#[derive(Clone, Copy, Debug, Default)]
struct FdpAccum {
    sent: u64,
    used: u64,
    late: u64,
    pollution: u64,
    demands: u64,
}

/// Caches, MSHRs, prefetchers, and the DRAM controller — everything below
/// the cores. Implements [`MemorySystem`].
struct MemSubsystem {
    shared_l2: bool,
    l1_latency: Cycle,
    l2_latency: Cycle,
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    mshrs: Vec<MshrFile>,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    ddpf: Option<Vec<Ddpf>>,
    fdp: Option<Vec<Fdp>>,
    pollution: Vec<PollutionFilter>,
    fdp_acc: Vec<FdpAccum>,
    controller: MemoryController,
    tracker: AccuracyTracker,
    pc: Vec<PerCore>,
    scratch: Vec<LineAddr>,
    now: Cycle,
    /// Prefetch memory-service-time histogram (Fig. 4(a)): 9 buckets of 200
    /// cycles, split by eventual usefulness. `hist_pending` holds the bucket
    /// of each prefetched line whose usefulness is not yet known; it is
    /// looked up by line, and iterated only to sum its values into
    /// `hist_useless`, so the non-keyed [`LineMap`] hasher's bucket order
    /// cannot reach a result.
    hist_useful: [u64; 9],
    hist_useless: [u64; 9],
    hist_pending: LineMap<u8>,
}

/// Bucket index for a prefetch service time (200-cycle buckets, Fig. 4(a)).
fn service_bucket(cycles: Cycle) -> u8 {
    ((cycles / 200) as u8).min(8)
}

impl MemSubsystem {
    fn l2_index(&self, core: usize) -> usize {
        if self.shared_l2 {
            0
        } else {
            core
        }
    }

    fn prefetching(&self) -> bool {
        !self.prefetchers.is_empty()
    }

    /// Useful prefetch discovered via its `P` bit in the cache.
    fn credit_pbit_use(&mut self, core: CoreId, line: LineAddr, fill_was_row_hit: bool) {
        let c = core.index();
        if let Some(bucket) = self.hist_pending.remove(&line) {
            self.hist_useful[bucket as usize] += 1;
        }
        self.tracker.on_prefetch_used(core);
        self.pc[c].useful_pbit += 1;
        self.pc[c].pf_used += 1;
        self.pc[c].rbhu_useful_total += 1;
        if fill_was_row_hit {
            self.pc[c].rbhu_useful_hits += 1;
        }
        self.fdp_acc[c].used += 1;
        if let Some(dd) = &mut self.ddpf {
            dd[c].train(line, true);
        }
    }

    /// Useful prefetch discovered by a demand matching it in the MRB/MSHR.
    fn credit_promotion(&mut self, core: CoreId, line: LineAddr) {
        let c = core.index();
        self.tracker.on_prefetch_used(core);
        self.pc[c].promotions += 1;
        self.pc[c].pf_used += 1;
        self.fdp_acc[c].used += 1;
        self.fdp_acc[c].late += 1; // demand arrived before the prefetch: late
        if let Some(dd) = &mut self.ddpf {
            dd[c].train(line, true);
        }
    }

    fn fill_l1(&mut self, core: usize, line: LineAddr, dirty: bool) {
        if let Some(ev) = self.l1s[core].fill(line, false, dirty, false) {
            if ev.dirty {
                let li = self.l2_index(core);
                if !self.l2s[li].mark_dirty(ev.line) {
                    // Line no longer in L2: write back to memory directly.
                    self.controller
                        .enqueue_writeback(CoreId::new(core), ev.line, self.now);
                }
            }
        }
    }

    fn notify_prefetcher(
        &mut self,
        core: CoreId,
        line: LineAddr,
        pc: u64,
        hit: bool,
        runahead: bool,
    ) {
        if !self.prefetching() {
            return;
        }
        let ev = AccessEvent {
            core,
            line,
            pc,
            hit,
            runahead,
        };
        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        self.prefetchers[core.index()].on_access(&ev, &mut cands);
        for cand in &cands {
            self.issue_prefetch(core, *cand);
        }
        self.scratch = cands;
    }

    fn issue_prefetch(&mut self, core: CoreId, line: LineAddr) {
        let c = core.index();
        let li = self.l2_index(c);
        if self.l2s[li].peek(line) || self.mshrs[li].get(line).is_some() {
            return;
        }
        if let Some(dd) = &mut self.ddpf {
            if !dd[c].should_issue(line) {
                self.pc[c].pf_filtered += 1;
                return;
            }
        }
        if self.mshrs[li].is_full() || !self.controller.has_space() {
            self.pc[c].pf_no_space += 1;
            return;
        }
        let id = self
            .controller
            .enqueue(
                core,
                line,
                AccessKind::Load,
                RequestKind::Prefetch,
                self.now,
            )
            .expect("space was checked");
        let ok = self.mshrs[li].allocate(line, true, id);
        debug_assert!(ok, "MSHR space was checked");
        self.tracker.on_prefetch_sent(core);
        self.pc[c].pf_sent += 1;
        self.fdp_acc[c].sent += 1;
    }

    /// APD dropped a prefetch: release its MSHR entry.
    #[inline]
    fn on_dropped(&mut self, req: &MemRequest) {
        let c = req.core.index();
        let li = self.l2_index(c);
        self.mshrs[li].invalidate_prefetch(req.line);
        self.pc[c].pf_dropped += 1;
        if let Some(dd) = &mut self.ddpf {
            dd[c].train(req.line, false);
        }
    }

    /// A DRAM data burst finished: fill caches, classify traffic, return the
    /// waiters to wake.
    fn on_completion(&mut self, comp: &Completion, now: Cycle) -> Vec<Waiter> {
        let req = &comp.request;
        let c = req.core.index();
        // Writebacks carry no MSHR entry and fill nothing.
        if req.access == AccessKind::Store && !req.was_prefetch {
            self.pc[c].demand_traffic += 1;
            return Vec::new();
        }
        let li = self.l2_index(c);
        let entry = self.mshrs[li].remove(req.line);
        let still_prefetch = req.kind.is_prefetch();
        match (req.was_prefetch, still_prefetch) {
            (true, true) => self.pc[c].pref_filled += 1,
            (true, false) => {
                // Promoted in the buffer: useful prefetch traffic.
                self.pc[c].rbhu_useful_total += 1;
                if comp.row_hit {
                    self.pc[c].rbhu_useful_hits += 1;
                }
            }
            (false, _) => {
                self.pc[c].demand_traffic += 1;
                self.pc[c].rbhu_demand_total += 1;
                if comp.row_hit {
                    self.pc[c].rbhu_demand_hits += 1;
                }
            }
        }
        // Fig. 4(a) service-time histogram bookkeeping.
        if req.was_prefetch {
            let bucket = service_bucket(now.saturating_sub(req.arrival));
            if still_prefetch {
                // A re-prefetch of a line whose earlier copy was never
                // used resolves the earlier one as useless.
                if let Some(old) = self.hist_pending.insert(req.line, bucket) {
                    self.hist_useless[old as usize] += 1;
                }
            } else {
                // Promoted in flight: known useful.
                self.hist_useful[bucket as usize] += 1;
            }
        }
        let dirty = entry.as_ref().is_some_and(|e| e.write);
        if let Some(ev) = self.l2s[li].fill(req.line, still_prefetch, dirty, comp.row_hit) {
            if ev.dirty {
                self.controller.enqueue_writeback(req.core, ev.line, now);
            }
            if ev.unused_prefetch {
                if let Some(dd) = &mut self.ddpf {
                    dd[c].train(ev.line, false);
                }
            } else if still_prefetch {
                // A prefetch displaced a demand-owned line: pollution.
                self.pollution[c].record_eviction(ev.line);
            }
        }
        if !still_prefetch {
            self.fill_l1(c, req.line, dirty);
        }
        entry.map(|e| e.waiters).unwrap_or_default()
    }

    /// Accuracy-interval rollover: drive FDP throttling.
    fn on_interval_rollover(&mut self) {
        let Some(fdp) = &mut self.fdp else { return };
        for (c, slot) in self.fdp_acc.iter_mut().enumerate() {
            let acc = std::mem::take(slot);
            let fb = FdpFeedback {
                sent: acc.sent,
                used: acc.used,
                late: acc.late,
                pollution: acc.pollution,
                demands: acc.demands,
            };
            let level = fdp[c].end_interval(fb);
            self.prefetchers[c].set_aggressiveness(level.degree, level.distance);
        }
    }
}

impl MemorySystem for MemSubsystem {
    fn access(&mut self, core: CoreId, acc: &MemAccess, now: Cycle) -> AccessResponse {
        self.now = now;
        let c = core.index();
        let line = acc.addr.line();
        let is_store = acc.kind == AccessKind::Store;
        // One L1 lookup decides: a hit is complete here; a miss touches
        // nothing.
        if let ProbeOutcome::Hit(_) = self.l1s[c].probe(line, is_store) {
            return AccessResponse::Hit {
                latency: self.l1_latency,
            };
        }
        let li = self.l2_index(c);
        // Structural pre-check with no side effects: an access that will
        // need a new MSHR entry but cannot get one (or cannot enter the
        // request buffer) retries WITHOUT touching cache state or the
        // prefetcher — a retried access must be observed exactly once.
        if (self.mshrs[li].is_full() || !self.controller.has_space())
            && !self.l2s[li].peek(line)
            && self.mshrs[li].get(line).is_none()
        {
            return AccessResponse::Retry;
        }
        if !acc.runahead {
            self.pc[c].l2_accesses += 1;
            self.fdp_acc[c].demands += 1;
        }
        match self.l2s[li].probe(line, is_store) {
            ProbeOutcome::Hit(info) => {
                if info.first_demand_use_of_prefetch {
                    self.credit_pbit_use(core, line, info.fill_was_row_hit);
                }
                self.fill_l1(c, line, is_store);
                self.notify_prefetcher(core, line, acc.pc, true, acc.runahead);
                AccessResponse::Hit {
                    latency: self.l1_latency + self.l2_latency,
                }
            }
            ProbeOutcome::Miss => {
                if !acc.runahead && self.pollution[c].check_and_clear(line) {
                    self.fdp_acc[c].pollution += 1;
                }
                if let Some(e) = self.mshrs[li].get_mut(line) {
                    if e.prefetch {
                        e.prefetch = false;
                        self.controller.promote_prefetch(line);
                        self.credit_promotion(core, line);
                        // A demand matching an in-flight prefetch is a
                        // (late-covered) primary miss.
                        if !acc.runahead {
                            self.pc[c].l2_misses += 1;
                        }
                    }
                    if is_store {
                        self.mshrs[li].get_mut(line).expect("just found").write = true;
                    } else if !acc.runahead {
                        self.mshrs[li]
                            .get_mut(line)
                            .expect("just found")
                            .waiters
                            .push(Waiter {
                                core,
                                token: acc.token,
                            });
                    }
                    self.notify_prefetcher(core, line, acc.pc, false, acc.runahead);
                    return AccessResponse::Pending;
                }
                // New miss: the structural pre-check above guaranteed space.
                debug_assert!(!self.mshrs[li].is_full() && self.controller.has_space());
                let id = self
                    .controller
                    .enqueue(core, line, AccessKind::Load, RequestKind::Demand, now)
                    .expect("space was checked");
                let ok = self.mshrs[li].allocate(line, false, id);
                debug_assert!(ok);
                // Primary demand miss (merges into existing entries are
                // secondary and not MPKI-relevant).
                if !acc.runahead {
                    self.pc[c].l2_misses += 1;
                }
                let e = self.mshrs[li].get_mut(line).expect("just allocated");
                if is_store {
                    e.write = true;
                } else if !acc.runahead {
                    e.waiters.push(Waiter {
                        core,
                        token: acc.token,
                    });
                }
                // The prefetcher observes the miss after the demand has
                // claimed its MSHR entry (demands get structural priority).
                self.notify_prefetcher(core, line, acc.pc, false, acc.runahead);
                AccessResponse::Pending
            }
        }
    }
}

/// What drives the cores: [`System::new`]'s own generators, held concretely
/// so [`Core::tick`] reaches `TraceGen::next_op` without a virtual call, or
/// whatever [`System::with_traces`] was handed.
enum Traces {
    Generated(Vec<TraceGen>),
    Supplied(Vec<Box<dyn TraceSource>>),
}

/// The full simulated system: cores + traces + memory subsystem.
///
/// Construct with a [`SimConfig`] and one [`BenchProfile`] per core, then
/// call [`System::run`].
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    traces: Traces,
    mem: MemSubsystem,
    now: Cycle,
    finish_cycle: Vec<Option<Cycle>>,
    /// Cores whose `finish_cycle` is still `None`.
    unfinished: usize,
    core_snapshots: Vec<Option<CoreStats>>,
    mem_snapshots: Vec<Option<PerCore>>,
    benchmark_names: Vec<String>,
    /// How [`System::run`] advances time (both modes are bit-identical;
    /// see DESIGN.md §11 and the `kernel` module).
    ff_mode: FastForwardMode,
    profile: SimProfile,
}

impl System {
    /// Builds a system running `benchmarks` (one per core).
    ///
    /// # Panics
    ///
    /// Panics if the benchmark count does not match `cfg.cores` or the
    /// configuration is inconsistent.
    pub fn new(cfg: SimConfig, benchmarks: Vec<BenchProfile>) -> Self {
        cfg.validate();
        assert_eq!(
            benchmarks.len(),
            cfg.cores,
            "need one benchmark per core ({} cores, {} benchmarks)",
            cfg.cores,
            benchmarks.len()
        );
        let traces = benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| TraceGen::new(b, i, cfg.seed))
            .collect();
        let names = benchmarks.iter().map(|b| b.name.clone()).collect();
        Self::from_parts(cfg, Traces::Generated(traces), names)
    }

    /// Builds a system from arbitrary trace sources (e.g. recorded trace
    /// files loaded via [`padc_workloads::TraceFileSource`]) instead of the
    /// built-in synthetic profiles. `names` label the per-core reports.
    ///
    /// # Panics
    ///
    /// Panics if the trace/name counts do not match `cfg.cores` or the
    /// configuration is inconsistent.
    pub fn with_traces(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        names: Vec<String>,
    ) -> Self {
        cfg.validate();
        assert_eq!(traces.len(), cfg.cores, "one trace per core");
        assert_eq!(names.len(), cfg.cores, "one name per core");
        Self::from_parts(cfg, Traces::Supplied(traces), names)
    }

    fn from_parts(cfg: SimConfig, traces: Traces, benchmark_names: Vec<String>) -> Self {
        let cores: Vec<Core> = (0..cfg.cores)
            .map(|i| Core::new(CoreId::new(i), cfg.core))
            .collect();
        let n_l2 = if cfg.shared_l2 { 1 } else { cfg.cores };
        let l2_cfg = cfg.l2_per_cache();
        let mem = MemSubsystem {
            shared_l2: cfg.shared_l2,
            l1_latency: cfg.l1.hit_latency,
            l2_latency: l2_cfg.hit_latency,
            l1s: (0..cfg.cores).map(|_| Cache::new(cfg.l1.clone())).collect(),
            l2s: (0..n_l2).map(|_| Cache::new(l2_cfg.clone())).collect(),
            mshrs: (0..n_l2)
                .map(|_| MshrFile::new(cfg.mshr_per_cache()))
                .collect(),
            prefetchers: match cfg.prefetcher {
                Some(kind) => (0..cfg.cores).map(|_| build_prefetcher(kind)).collect(),
                None => Vec::new(),
            },
            ddpf: cfg.ddpf.then(|| {
                (0..cfg.cores)
                    .map(|_| Ddpf::new(DdpfConfig::default()))
                    .collect()
            }),
            fdp: cfg.fdp.then(|| {
                (0..cfg.cores)
                    .map(|_| Fdp::new(FdpConfig::default()))
                    .collect()
            }),
            pollution: (0..cfg.cores).map(|_| PollutionFilter::new(4096)).collect(),
            fdp_acc: vec![FdpAccum::default(); cfg.cores],
            controller: MemoryController::new(
                cfg.controller.clone(),
                cfg.dram.clone(),
                cfg.mapping,
            ),
            tracker: AccuracyTracker::new(cfg.cores, cfg.controller.accuracy_interval),
            pc: vec![PerCore::default(); cfg.cores],
            scratch: Vec::with_capacity(16),
            now: 0,
            hist_useful: [0; 9],
            hist_useless: [0; 9],
            hist_pending: LineMap::default(),
        };
        // FDP starts the stream prefetcher at its initial (milder) level.
        let mut sys = System {
            benchmark_names,
            cores,
            traces,
            mem,
            now: 0,
            finish_cycle: vec![None; cfg.cores],
            unfinished: cfg.cores,
            core_snapshots: vec![None; cfg.cores],
            mem_snapshots: vec![None; cfg.cores],
            cfg,
            ff_mode: FastForwardMode::default(),
            profile: SimProfile::default(),
        };
        if sys.cfg.fdp {
            let level = Fdp::new(FdpConfig::default()).level();
            for pf in &mut sys.mem.prefetchers {
                pf.set_aggressiveness(level.degree, level.distance);
            }
        }
        sys
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The prefetch accuracy (`PAR`) the controller currently acts on for
    /// `core` — last interval's measurement (§4.1). Exposed for phase-
    /// behaviour experiments (Fig. 4(b)).
    pub fn accuracy(&self, core: usize) -> f64 {
        self.mem.tracker.accuracy(padc_types::CoreId::new(core))
    }

    /// Advances the whole system by one CPU cycle, executing every phase:
    /// the cycle-exact primitive [`FastForwardMode::Off`] is built from.
    pub fn step(&mut self) {
        let now = self.now;
        self.profile.cycles_stepped += 1;
        let t0 = profile::clock();
        self.controller_phase(now, |_, _, _| {});
        profile::lap(t0, &mut self.profile.controller_ns);
        let t1 = profile::clock();
        for c in 0..self.cfg.cores {
            self.tick_core(c, now);
        }
        profile::lap(t1, &mut self.profile.cores_ns);
        self.now += 1;
    }

    /// The controller phase of cycle `now`: controller tick, drop and
    /// completion delivery, accuracy-tracker tick. `before_complete` runs
    /// on a core just before a completion mutates it (the event kernel
    /// closes the core's lag window there).
    #[inline]
    fn controller_phase(
        &mut self,
        now: Cycle,
        mut before_complete: impl FnMut(usize, &mut Core, &mut SimProfile),
    ) {
        self.profile.ctrl_cycles_stepped += 1;
        let out = self.mem.controller.tick(now, &self.mem.tracker);
        for req in &out.dropped {
            self.mem.on_dropped(req);
        }
        for comp in &out.completions {
            for w in self.mem.on_completion(comp, now) {
                let c = w.core.index();
                before_complete(c, &mut self.cores[c], &mut self.profile);
                self.cores[c].complete(w.token, now + 1);
            }
        }
        if self.mem.tracker.tick(now) {
            self.mem.on_interval_rollover();
        }
    }

    /// Core `c`'s real tick at `now`, snapshotting its stats the cycle it
    /// reaches the instruction target.
    fn tick_core(&mut self, c: usize, now: Cycle) {
        match &mut self.traces {
            Traces::Generated(gens) => self.cores[c].tick(now, &mut gens[c], &mut self.mem),
            Traces::Supplied(traces) => self.cores[c].tick(now, &mut traces[c], &mut self.mem),
        }
        self.profile.core_cycles_ticked += 1;
        if self.finish_cycle[c].is_none()
            && self.cores[c].stats().retired_instructions >= self.cfg.max_instructions
        {
            self.finish_cycle[c] = Some(now + 1);
            self.unfinished -= 1;
            self.core_snapshots[c] = Some(*self.cores[c].stats());
            self.mem_snapshots[c] = Some(self.mem.pc[c]);
        }
    }

    /// True once every core has reached its instruction target.
    pub fn finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Sets this system's fast-forward mode (a new system starts in
    /// [`FastForwardMode::default`]).
    pub fn set_fast_forward_mode(&mut self, mode: FastForwardMode) {
        self.ff_mode = mode;
    }

    /// The hot-path profile accumulated so far (see [`crate::profile`]).
    pub fn profile(&self) -> &SimProfile {
        &self.profile
    }

    /// The next `PAR` interval rollover cycle (an explicit fast-forward
    /// stop event; exposed for the equivalence tests).
    pub fn next_accuracy_rollover(&self) -> Cycle {
        self.mem.tracker.next_rollover()
    }

    /// Runs to completion (every core reaches `max_instructions`, or the
    /// `max_cycles` safety cap triggers) and reports.
    pub fn run(&mut self) -> Report {
        let start = std::time::Instant::now();
        match self.ff_mode {
            FastForwardMode::Off => {
                while !self.finished() && self.now < self.cfg.max_cycles {
                    self.step();
                }
            }
            FastForwardMode::Event => {
                let mut kernel = Kernel::new(self);
                while !self.finished() && self.now < self.cfg.max_cycles {
                    kernel.step(self);
                    kernel.try_jump(self);
                }
                kernel.flush(self);
            }
        }
        self.profile.wall_ns += start.elapsed().as_nanos() as u64;
        let bs = self.mem.controller.buffer_stats();
        self.profile.owner_recomputes = bs.owner_recomputes;
        self.profile.owner_invalidations = bs.owner_invalidations;
        self.profile.owner_reuses = bs.owner_reuses;
        self.profile.owner_scan_entries = bs.owner_scan_entries;
        self.profile.lane_refreshes = bs.lane_refreshes;
        self.profile.dspatch_flips = self.mem.prefetchers.iter().map(|p| p.mode_flips()).sum();
        let rc = self.mem.controller.refresh_counters();
        self.profile.refresh_pulls = rc.pulls;
        self.profile.refresh_stall_cycles = rc.stall_cycles;
        self.report()
    }

    /// Builds the report from current (or snapshotted) state.
    pub fn report(&self) -> Report {
        let per_core = (0..self.cfg.cores)
            .map(|c| {
                let stats = self.core_snapshots[c].unwrap_or(*self.cores[c].stats());
                let pcc = self.mem_snapshots[c].unwrap_or(self.mem.pc[c]);
                let cycles = self.finish_cycle[c].unwrap_or(self.now.max(1));
                CoreReport {
                    benchmark: self.benchmark_names[c].clone(),
                    instructions: stats.retired_instructions,
                    cycles,
                    loads: stats.retired_loads,
                    window_stall_cycles: stats.window_stall_cycles,
                    l2_accesses: pcc.l2_accesses,
                    l2_misses: pcc.l2_misses,
                    prefetches_sent: pcc.pf_sent,
                    prefetches_used: pcc.pf_used,
                    prefetches_dropped: pcc.pf_dropped,
                    prefetches_filtered: pcc.pf_filtered,
                    prefetches_no_space: pcc.pf_no_space,
                    runahead_episodes: stats.runahead_episodes,
                    dispatch_window_full_cycles: stats.dispatch_window_full_cycles,
                    dispatch_retry_cycles: stats.dispatch_retry_cycles,
                    dispatch_dep_cycles: stats.dispatch_dep_cycles,
                    traffic: Traffic {
                        demand: pcc.demand_traffic,
                        pref_useful: pcc.useful_pbit + pcc.promotions,
                        pref_useless: pcc.pref_filled.saturating_sub(pcc.useful_pbit),
                    },
                    rbhu_demand_hits: pcc.rbhu_demand_hits,
                    rbhu_demand_total: pcc.rbhu_demand_total,
                    rbhu_useful_hits: pcc.rbhu_useful_hits,
                    rbhu_useful_total: pcc.rbhu_useful_total,
                }
            })
            .collect();
        // Fold still-unused prefetched lines into the useless histogram.
        let mut hist_useless = self.mem.hist_useless;
        for bucket in self.mem.hist_pending.values() {
            hist_useless[*bucket as usize] += 1;
        }
        Report {
            per_core,
            total_cycles: self.now,
            controller: self.mem.controller.stats().clone(),
            channels: self
                .mem
                .controller
                .channel_stats()
                .into_iter()
                .cloned()
                .collect(),
            pf_service_hist_useful: self.mem.hist_useful,
            pf_service_hist_useless: hist_useless,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use padc_core::SchedulingPolicy;
    use padc_workloads::profiles;

    use super::*;

    fn quick_cfg(policy: SchedulingPolicy) -> SimConfig {
        let mut cfg = SimConfig::single_core(policy);
        cfg.max_instructions = 30_000;
        cfg.max_cycles = 20_000_000;
        cfg
    }

    #[test]
    fn streaming_benchmark_completes_and_prefetches_are_accurate() {
        let mut cfg = quick_cfg(SchedulingPolicy::DemandFirst);
        cfg.max_instructions = 100_000; // long enough to amortize the
                                        // in-flight prefetch tail
        let mut sys = System::new(cfg, vec![profiles::libquantum()]);
        let r = sys.run();
        let c = &r.per_core[0];
        assert!(c.instructions >= 100_000);
        assert!(c.ipc() > 0.0);
        assert!(c.prefetches_sent > 100, "sent {}", c.prefetches_sent);
        assert!(
            c.acc() > 0.8,
            "streaming accuracy should be high: {}",
            c.acc()
        );
    }

    #[test]
    fn unfriendly_benchmark_has_low_accuracy() {
        let mut cfg = quick_cfg(SchedulingPolicy::DemandFirst);
        cfg.max_instructions = 100_000;
        let mut sys = System::new(cfg, vec![profiles::omnetpp()]);
        let r = sys.run();
        let c = &r.per_core[0];
        assert!(c.prefetches_sent > 50, "sent {}", c.prefetches_sent);
        assert!(
            c.acc() < 0.4,
            "short runs should be inaccurate: {}",
            c.acc()
        );
    }

    #[test]
    fn no_prefetch_run_sends_no_prefetches() {
        let cfg = quick_cfg(SchedulingPolicy::DemandFirst).without_prefetching();
        let mut sys = System::new(cfg, vec![profiles::libquantum()]);
        let r = sys.run();
        assert_eq!(r.per_core[0].prefetches_sent, 0);
        assert_eq!(r.traffic().pref_useful + r.traffic().pref_useless, 0);
        assert!(r.traffic().demand > 0);
    }

    #[test]
    fn padc_drops_useless_prefetches() {
        // Long enough for the measured accuracy to converge to omnetpp's
        // genuinely low value, which arms the aggressive drop thresholds.
        let mut cfg = quick_cfg(SchedulingPolicy::Padc);
        cfg.max_instructions = 150_000;
        let mut sys = System::new(cfg, vec![profiles::omnetpp()]);
        let r = sys.run();
        assert!(
            r.per_core[0].prefetches_dropped > 0,
            "APD should fire on omnetpp"
        );
    }

    #[test]
    fn multicore_run_reports_all_cores() {
        let mut cfg = SimConfig::new(2, SchedulingPolicy::Padc);
        cfg.max_instructions = 15_000;
        let mut sys = System::new(cfg, vec![profiles::libquantum(), profiles::milc()]);
        let r = sys.run();
        assert_eq!(r.per_core.len(), 2);
        assert!(r.per_core.iter().all(|c| c.instructions >= 15_000));
        assert!(r.rbhu() > 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sys = System::new(quick_cfg(SchedulingPolicy::Padc), vec![profiles::milc()]);
            sys.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.per_core, b.per_core);
    }

    /// A prefetcher that only counts the accesses it is shown.
    struct Counting(Rc<Cell<u64>>);

    impl Prefetcher for Counting {
        fn on_access(&mut self, _ev: &AccessEvent, _out: &mut Vec<LineAddr>) {
            self.0.set(self.0.get() + 1);
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// A single-core memory subsystem with four MSHR entries, a few lines
    /// already resident, and a [`Counting`] prefetcher.
    fn small_mem() -> (MemSubsystem, Rc<Cell<u64>>) {
        let mut cfg = quick_cfg(SchedulingPolicy::DemandFirst);
        cfg.mshr_entries = 4;
        let mut mem = System::new(cfg, vec![profiles::libquantum()]).mem;
        let seen = Rc::new(Cell::new(0));
        mem.prefetchers[0] = Box::new(Counting(seen.clone()));
        // Lines 0x10 + k * 128 fill L1 set 0x10 (and sit in L2); 0x210, of the
        // same L1 set, and 0x20.. (one of them prefetched) are in L2 only.
        mem.l2s[0].fill(LineAddr::new(0x210), false, false, false);
        for k in 0..4 {
            mem.l2s[0].fill(LineAddr::new(0x10 + k * 128), false, false, false);
            mem.l1s[0].fill(LineAddr::new(0x10 + k * 128), false, false, false);
            mem.l2s[0].fill(LineAddr::new(0x20 + k), k == 0, false, true);
        }
        (mem, seen)
    }

    fn touch(mem: &mut MemSubsystem, line: u64, kind: AccessKind, now: Cycle) -> AccessResponse {
        let acc = MemAccess {
            addr: LineAddr::new(line).base_addr(),
            pc: 0x400,
            kind,
            token: line,
            runahead: false,
        };
        mem.access(CoreId::new(0), &acc, now)
    }

    /// Everything an access can leave behind short of the controller:
    /// tag stores with their LRU stamps and stats, MSHRs, per-core and FDP
    /// counters, the pending histogram, and the prefetcher's call count.
    /// The two line-keyed maps are rendered by key, not in bucket order:
    /// the MSHR file (which cannot be iterated) through the lines in
    /// `MISSED`, which must account for every entry it holds.
    fn traces_left(mem: &MemSubsystem, seen: &Cell<u64>) -> String {
        let mshrs: Vec<_> = MISSED
            .iter()
            .filter_map(|&line| mem.mshrs[0].get(LineAddr::new(line)))
            .collect();
        assert_eq!(mshrs.len(), mem.mshrs[0].len(), "a miss not in MISSED");
        let hist_pending: std::collections::BTreeMap<_, _> = mem.hist_pending.iter().collect();
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} seen={} buffered={}",
            mem.l1s,
            mem.l2s,
            mshrs,
            mem.pc,
            mem.fdp_acc,
            hist_pending,
            seen.get(),
            mem.controller.occupancy(),
        )
    }

    /// Every line `a_retried_access_is_observed_exactly_once` misses on.
    const MISSED: [u64; 6] = [0x1000, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000];

    /// The single-lookup access path keeps the retry contract: an access
    /// that must retry is not observed by anything, and when it is
    /// presented again it behaves — and leaves the hierarchy — exactly as
    /// if it had arrived then for the first time.
    #[test]
    fn a_retried_access_is_observed_exactly_once() {
        use AccessKind::{Load, Store};
        let (mut retried, seen_r) = small_mem();
        let (mut fresh, seen_f) = small_mem();
        // Fill the four MSHR entries; mix in an L1 hit and an L2 hit so the
        // LRU clocks are off zero.
        let warm_up = [
            (0x1000, Load),
            (0x10, Load),
            (0x2000, Store),
            (0x20, Load),
            (0x3000, Load),
            (0x4000, Load),
        ];
        for (now, (line, kind)) in warm_up.into_iter().enumerate() {
            let r = touch(&mut retried, line, kind, now as Cycle);
            assert_eq!(r, touch(&mut fresh, line, kind, now as Cycle));
            assert_ne!(r, AccessResponse::Retry, "line {line:#x}");
        }
        assert!(retried.mshrs[0].is_full());
        assert_eq!(traces_left(&retried, &seen_r), traces_left(&fresh, &seen_f));

        // Only `retried` sees these: new misses with no MSHR entry to take.
        let before = traces_left(&retried, &seen_r);
        for now in 10..14 {
            assert_eq!(
                touch(&mut retried, 0x5000, Load, now),
                AccessResponse::Retry
            );
            assert_eq!(
                touch(&mut retried, 0x6000, Store, now),
                AccessResponse::Retry
            );
        }
        assert_eq!(
            traces_left(&retried, &seen_r),
            before,
            "a retry left a trace"
        );
        // Accesses that need no new entry still go through while it is full:
        // an L1 hit, an L2 hit, a merge into an outstanding miss.
        for (line, kind) in [(0x90, Load), (0x21, Store), (0x1000, Load)] {
            let r = touch(&mut retried, line, kind, 14);
            assert_eq!(r, touch(&mut fresh, line, kind, 14));
            assert_ne!(r, AccessResponse::Retry, "line {line:#x}");
        }

        // An entry frees up; the retried accesses now arrive in both.
        for mem in [&mut retried, &mut fresh] {
            mem.mshrs[0]
                .remove(LineAddr::new(0x3000))
                .expect("outstanding");
        }
        let tail = [
            (0x5000, Load),  // the retried load: a new miss, takes the entry
            (0x6000, Store), // the retried store: full again, retries in both
            (0x5000, Load),  // merge
            (0x22, Load),    // L2 hit, fills L1
            (0x210, Load),   // L2 hit whose L1 fill evicts from the full set 0x10
            (0x110, Store),  // L1 hit
            (0x23, Store),   // L2 hit
        ];
        for (i, (line, kind)) in tail.into_iter().enumerate() {
            let now = 20 + i as Cycle;
            assert_eq!(
                touch(&mut retried, line, kind, now),
                touch(&mut fresh, line, kind, now),
                "tail access {i} (line {line:#x})"
            );
        }
        assert_eq!(traces_left(&retried, &seen_r), traces_left(&fresh, &seen_f));
        assert!(seen_r.get() > 0);
    }

    /// `hist_pending` is hashed without a key and iterated by `report()`:
    /// the report may only sum what it finds, never depend on the order.
    #[test]
    fn report_is_independent_of_hist_pending_insertion_order() {
        let report = |reverse: bool| {
            let mut sys = System::new(
                quick_cfg(SchedulingPolicy::Padc),
                vec![profiles::libquantum()],
            );
            let mut pending: Vec<(u64, u8)> = (0..5000u64)
                .map(|i| (i * 64 + i % 7, (i % 9) as u8))
                .collect();
            if reverse {
                pending.reverse();
            }
            // Interleave removals so the two tables also differ in their
            // tombstones, not only in their growth history.
            for (n, (line, bucket)) in pending.iter().enumerate() {
                sys.mem.hist_pending.insert(LineAddr::new(*line), *bucket);
                if n % 5 == 4 {
                    sys.mem
                        .hist_pending
                        .remove(&LineAddr::new(pending[n - 2].0));
                }
            }
            sys.report()
        };
        let (forward, backward) = (report(false), report(true));
        assert_eq!(forward.pf_service_hist_useless.iter().sum::<u64>(), 4000);
        assert_eq!(forward, backward);
    }
}
