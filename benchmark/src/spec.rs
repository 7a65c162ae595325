//! What the benchmark runs and what it reports: the five workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `--list`, the result validator, `compare` and the
//! `BENCHMARK.json` consistency test all read these tables.

use padc_core::SchedulingPolicy;
use padc_dram::{ExtendedTiming, RefreshPolicy, RowPolicy};
use padc_sim::experiments::{ExpConfig, Scale};
use padc_sim::{MemPolicyConfig, SimConfig};

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a workload is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Index into [`SIM_WORKLOADS`]: repeated `System::new` + `run`.
    Sim(usize),
    /// The suite experiments through the harness into an empty store.
    SuiteCold,
    /// The same suite against an already populated store.
    SuiteWarm,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// How it runs.
    pub kind: Kind,
    /// Why it is in the set (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mix8-hog",
        kind: Kind::Sim(0),
        why: "8 memory-hog cores under PADC: controller arbitration, next_event and DRAM do most of the work, cores are ~98% skipped",
    },
    Workload {
        name: "compute4",
        kind: Kind::Sim(1),
        why: "4 cache-resident cores: core tick, trace generation and L1 probes dominate, the controller is nearly idle - the bypass for controller work",
    },
    Workload {
        name: "mix4-mech",
        kind: Kind::Sim(2),
        why: "4 cores with ranking, write drain, HAPPY rows, DARP refresh and extended timing: controller passes the default path never runs",
    },
    Workload {
        name: "suite-cold",
        kind: Kind::SuiteCold,
        why: "fig6 + the three 4-core case studies through plan/execute/reduce into an empty store on nproc workers: sub-job pool, JSONL, store writes",
    },
    Workload {
        name: "suite-warm",
        kind: Kind::SuiteWarm,
        why: "the same suite against a populated store: process start, digesting and store reads, zero simulations",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A simulated system the three `Kind::Sim` workloads run.
#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    /// One benchmark profile name per core.
    pub benchmarks: &'static [&'static str],
    /// Instructions each core retires at full size.
    pub instructions: u64,
    /// Run the mechanism arms (PADC-rank, write drain, HAPPY, DARP).
    pub mechanisms: bool,
}

/// Definitions behind `Kind::Sim(i)`.
pub const SIM_WORKLOADS: [SimWorkload; 3] = [
    SimWorkload {
        benchmarks: &[
            "mcf_06",
            "libquantum_06",
            "swim_00",
            "GemsFDTD_06",
            "lbm_06",
            "milc_06",
            "leslie3d_06",
            "soplex_06",
        ],
        instructions: 150_000,
        mechanisms: false,
    },
    SimWorkload {
        benchmarks: &["gamess_06", "povray_06", "namd_06", "h264ref_06"],
        instructions: 500_000,
        mechanisms: false,
    },
    SimWorkload {
        benchmarks: &["lbm_06", "milc_06", "omnetpp_06", "soplex_06"],
        instructions: 150_000,
        mechanisms: true,
    },
];

/// Input sizes: the recorded ones, or the `--tiny` preset the tests use to
/// run every workload and every check in a few seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// `--tiny` was given.
    pub tiny: bool,
}

impl Sizes {
    /// Instructions per core for a sim workload.
    pub fn instructions(self, w: &SimWorkload) -> u64 {
        if self.tiny {
            w.instructions / 10
        } else {
            w.instructions
        }
    }

    /// Scale of the timed `suite-cold` / `suite-warm` iterations. Smoke keeps
    /// one iteration near a second, so a run holds several, and makes
    /// orchestration (what these workloads are for) a large share of it.
    pub fn suite(self, seed: u64) -> ExpConfig {
        let mut cfg = ExpConfig::at(Scale::Smoke).with_seed(seed);
        if self.tiny {
            cfg.instructions = 4_000;
            cfg.instructions_single = 4_000;
        }
        cfg
    }

    /// Scale of the untimed pass that yields the `paper_*_gap_pp` metrics.
    pub fn paper_gaps(self, seed: u64) -> ExpConfig {
        if self.tiny {
            self.suite(seed)
        } else {
            ExpConfig::at(Scale::Quick).with_seed(seed)
        }
    }
}

/// Experiments the timed suite iterations run: the 55-benchmark single-core
/// grid and the three fixed 4-core case studies. Their plans do not depend on
/// the seed (only the traces do), so every seed is the same amount of work;
/// `fig16` draws random mixes per seed and one seed's suite costs twice
/// another's.
pub const SUITE_EXPERIMENTS: [&str; 4] = ["fig6", "case1", "case2", "case3"];

/// Experiments of the untimed paper-gap pass.
pub const PAPER_GAP_EXPERIMENTS: [&str; 2] = ["fig6", "fig16"];

/// The full configuration of a sim workload. Built from `SimConfig::new`
/// and the `MemPolicyConfig` builders only.
pub fn sim_config(w: &SimWorkload, sizes: Sizes, seed: u64) -> SimConfig {
    let policy = if w.mechanisms {
        SchedulingPolicy::PadcRank
    } else {
        SchedulingPolicy::Padc
    };
    let mut cfg = SimConfig::new(w.benchmarks.len(), policy);
    cfg.max_instructions = sizes.instructions(w);
    cfg.seed = seed;
    if w.mechanisms {
        cfg.controller.write_drain = true;
        cfg = cfg.with_mem_policy(
            MemPolicyConfig::default()
                .with_row_policy(RowPolicy::Happy)
                .with_extended_timing(ExtendedTiming::default())
                .with_refresh_policy(RefreshPolicy::Darp),
        );
    }
    cfg
}

/// Which workloads report a metric. Everywhere else it reads 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum On {
    /// Every workload.
    All,
    /// The three sim workloads.
    Sim,
    /// Both suite workloads.
    Suites,
    /// `suite-cold` only.
    SuiteCold,
}

impl On {
    /// True when `kind` reports the metric.
    pub fn covers(self, kind: Kind) -> bool {
        matches!(
            (self, kind),
            (On::All, _)
                | (On::Sim, Kind::Sim(_))
                | (On::Suites, Kind::SuiteCold | Kind::SuiteWarm)
                | (On::SuiteCold, Kind::SuiteCold)
        )
    }

    fn as_str(self) -> &'static str {
        match self {
            On::All => "all",
            On::Sim => "sim workloads",
            On::Suites => "suite workloads",
            On::SuiteCold => "suite-cold",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    /// Listed under `end_to_end` in `BENCHMARK.json`. That list is reported
    /// by every workload and may never read 0, so the metrics that exist on
    /// some workloads only, or are 0 when all is well, are listed under
    /// `per_layer` there and gated by `compare` alone.
    pub in_contract: bool,
    /// Workloads that report it.
    pub on: On,
    /// Definition.
    pub what: &'static str,
}

/// The end-to-end metrics `run` prints.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_contract: true,
        on: On::All,
        what: "host seconds from process start to the first timed iteration (median over the run's fresh processes)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_contract: true,
        on: On::All,
        what: "host seconds per timed iteration (median)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
        in_contract: true,
        on: On::All,
        what: "peak resident set (VmHWM) of the process that runs the workload (median over processes)",
    },
    EndToEnd {
        name: "sim_kips",
        unit: "instr/ms",
        better: Better::Higher,
        bound: 0.25,
        in_contract: false,
        on: On::Sim,
        what: "simulated instructions retired on all cores per host millisecond (median over iterations)",
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        in_contract: false,
        on: On::All,
        what: "failed correctness checks / attempted checks",
    },
    EndToEnd {
        name: "paper_ipc_gap_pp",
        unit: "pp",
        better: Better::Lower,
        bound: 0.0,
        in_contract: false,
        on: On::SuiteCold,
        what: "|fig6 gmean55 PADC IPC change vs demand-first - paper's +4.3%|, percentage points, simulated",
    },
    EndToEnd {
        name: "paper_ws_gap_pp",
        unit: "pp",
        better: Better::Lower,
        bound: 0.0,
        in_contract: false,
        on: On::SuiteCold,
        what: "|fig16 PADC weighted-speedup change vs demand-first - paper's +8.2%|, percentage points, simulated",
    },
    EndToEnd {
        name: "paper_traffic_gap_pp",
        unit: "pp",
        better: Better::Lower,
        bound: 0.0,
        in_contract: false,
        on: On::SuiteCold,
        what: "|fig16 PADC bus-traffic change vs demand-first - paper's -10.1%|, percentage points, simulated",
    },
];

/// A per-layer metric (layer = crate name, the part before the dot).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (arbitrary for identities such as `sim.report_crc`).
    pub better: Better,
    /// Workloads that report it.
    pub on: On,
    /// Definition.
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: On,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        what,
    }
}

/// The per-layer metrics `trace` prints.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("host.ref_kernel_ms", "ms", Lower, On::All, "median host time of the reference kernel the timings are normalised by: the host's speed during the run"),
    layer("sim.run_ns", "ns", Lower, On::Sim, "host time of the traced System::run (root span)"),
    layer("sim.controller_phase_ns", "ns", Lower, On::Sim, "host time in the controller phase of step (in-program timer)"),
    layer("sim.core_phase_ns", "ns", Lower, On::Sim, "host time ticking cores, includes trace generation"),
    layer("sim.loop_self_ns", "ns", Lower, On::Sim, "run - controller - core: main-loop and jump bookkeeping"),
    layer("sim.system_new_ns", "ns", Lower, On::Sim, "host time building the System"),
    layer("sim.cycles_total", "count", Lower, On::Sim, "simulated cycles of the run"),
    layer("sim.cycles_stepped", "count", Lower, On::Sim, "cycles executed by a full step"),
    layer("sim.ff_jumps", "count", Lower, On::Sim, "fast-forward jumps taken"),
    layer("sim.core_ticks", "count", Lower, On::Sim, "core ticks executed"),
    layer("sim.core_skip_pct", "%", Higher, On::Sim, "core cycles skipped / core cycles"),
    layer("sim.ctrl_ticks", "count", Lower, On::Sim, "controller ticks executed"),
    layer("sim.ctrl_skip_pct", "%", Higher, On::Sim, "controller cycles skipped / cycles"),
    layer("sim.host_ns_per_cycle", "ns", Lower, On::Sim, "run_ns / cycles_total"),
    layer("sim.host_ns_per_ctrl_tick", "ns", Lower, On::Sim, "controller_phase_ns / ctrl_ticks"),
    layer("sim.host_ns_per_core_tick", "ns", Lower, On::Sim, "core_phase_ns / core_ticks"),
    layer("sim.ipc_sum", "ipc", Higher, On::Sim, "sum of per-core simulated IPC"),
    layer("sim.report_crc", "count", Lower, On::Sim, "CRC-32 of the Report JSON; an identity, a speed-only change leaves it as it is"),
    layer("sim.trace_overhead_pct", "%", Lower, On::Sim, "traced iteration wall / untraced median - 1"),
    layer("workloads.next_op_ns", "ns", Lower, On::Sim, "host time inside TraceSource::next_op during the traced run (1 call in 8 timed, scaled)"),
    layer("workloads.ops", "count", Lower, On::Sim, "next_op calls during the traced run"),
    layer("workloads.probe_ns_per_op", "ns", Lower, On::Sim, "TraceGen::next_op driven standalone"),
    layer("cpu.probe_ns_per_tick", "ns", Lower, On::Sim, "Core::tick against a fixed-latency memory stub"),
    layer("cpu.probe_retired_per_tick", "count", Higher, On::Sim, "instructions retired per probed tick"),
    layer("cache.probe_ns_per_access", "ns", Lower, On::Sim, "Cache::probe/fill + MshrFile::allocate/remove over the trace's lines"),
    layer("cache.l2_accesses", "count", Lower, On::Sim, "demand L2 accesses, all cores"),
    layer("cache.l2_miss_ratio", "ratio", Lower, On::Sim, "demand L2 misses / accesses"),
    layer("prefetch.probe_ns_per_access", "ns", Lower, On::Sim, "Prefetcher::on_access over the trace's L2 stream"),
    layer("prefetch.sent", "count", Lower, On::Sim, "prefetches sent to the request buffer"),
    layer("prefetch.used_ratio", "ratio", Higher, On::Sim, "useful prefetches / sent"),
    layer("prefetch.dropped", "count", Lower, On::Sim, "prefetches dropped by APD"),
    layer("prefetch.no_space", "count", Lower, On::Sim, "prefetch candidates refused at a full MSHR file or buffer"),
    layer("core.probe_enqueue_ns", "ns", Lower, On::Sim, "MemoryController::enqueue in the closed-loop driver"),
    layer("core.probe_tick_ns", "ns", Lower, On::Sim, "MemoryController::tick at a DRAM boundary, same driver"),
    layer("core.probe_next_event_ns", "ns", Lower, On::Sim, "MemoryController::next_event after each tick, same driver"),
    layer("core.owner_recomputes", "count", Lower, On::Sim, "bank-owner cache rebuilds"),
    layer("core.owner_reuses", "count", Higher, On::Sim, "scheduling queries served from a cached owner"),
    layer("core.owner_scan_entries", "count", Lower, On::Sim, "entries examined across owner rebuilds"),
    layer("core.owner_reuse_ratio", "ratio", Higher, On::Sim, "reuses / (reuses + recomputes)"),
    layer("dram.probe_advance_ns", "ns", Lower, On::Sim, "Channel::can_advance + advance per command"),
    layer("dram.probe_sync_ns", "ns", Lower, On::Sim, "Channel::sync per DRAM cycle"),
    layer("dram.row_hit_ratio", "ratio", Higher, On::Sim, "row hits / serviced requests"),
    layer("dram.refresh_pulls", "count", Higher, On::Sim, "DARP refreshes pulled into idle banks"),
    layer("dram.refresh_stall_cycles", "count", Lower, On::Sim, "bank cycles occupied by refresh"),
    layer("harness.subjobs_executed", "count", Lower, On::Suites, "sub-jobs run on the shared pool"),
    layer("harness.peak_concurrent", "count", Higher, On::Suites, "most sub-jobs in flight at once"),
    layer("harness.ms_per_subjob", "ms", Lower, On::Suites, "wall * workers / sub-jobs"),
    layer("harness.jobs1_wall_s", "s", Lower, On::SuiteCold, "one cold iteration with one worker"),
    layer("harness.parallel_efficiency", "ratio", Higher, On::SuiteCold, "jobs1 wall / (workers * wall_s)"),
    layer("experiments.units_requested", "count", Lower, On::Suites, "single-run units the experiments asked for"),
    layer("experiments.units_computed", "count", Lower, On::Suites, "of those, units that were simulated"),
    layer("experiments.fig6_s", "s", Lower, On::SuiteCold, "fig6 job seconds in the paper-gap pass, from the harness Summary"),
    layer("experiments.fig16_s", "s", Lower, On::SuiteCold, "fig16 job seconds in the paper-gap pass, from the harness Summary"),
    layer("store.hits", "count", Higher, On::Suites, "units resolved from the store"),
    layer("store.misses", "count", Lower, On::Suites, "units that had to be simulated"),
    layer("store.coalesced", "count", Higher, On::Suites, "units adopted from an in-memory claim"),
    layer("store.hit_ratio", "ratio", Higher, On::Suites, "hits / (hits + misses)"),
    layer("store.entries", "count", Lower, On::Suites, "entries in the store after the iteration"),
    layer("store.bytes", "bytes", Lower, On::Suites, "bytes in the store after the iteration"),
    layer("store.probe_put_us", "us", Lower, On::Suites, "Store::put of a mean-sized entry"),
    layer("store.probe_load_us", "us", Lower, On::Suites, "Store::load of a mean-sized entry"),
    layer("store.probe_sha256_mb_s", "MB/s", Higher, On::Suites, "sha256 over mean-sized payloads"),
];

impl EndToEnd {
    /// The fields every metric has.
    fn common(&self) -> PerLayer {
        layer(self.name, self.unit, self.better, self.on, self.what)
    }
}

/// The metric called `name`, end-to-end or per-layer.
pub fn metric(name: &str) -> Option<PerLayer> {
    let end_to_end = END_TO_END.iter().map(EndToEnd::common);
    end_to_end
        .chain(PER_LAYER.iter().copied())
        .find(|m| m.name == name)
}

/// True when workloads of `kind` report the metric called `name`.
pub fn reports(name: &str, kind: Kind) -> bool {
    metric(name).is_some_and(|m| m.on.covers(kind))
}

/// One of the two metric lists of `BENCHMARK.json`, in its order: the
/// `end_to_end` list (what `--trace 0` prints), or the `per_layer` list
/// (what `--trace 1` prints: the end-to-end metrics the contract cannot
/// list as such, then the layers).
pub fn contract_list(per_layer: bool) -> Vec<PerLayer> {
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.in_contract != per_layer)
        .map(EndToEnd::common);
    if per_layer {
        end_to_end.chain(PER_LAYER.iter().copied()).collect()
    } else {
        end_to_end.collect()
    }
}

/// The text `--list` prints: every workload, end-to-end metric and per-layer
/// metric with unit and direction.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<11} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (name, unit, better, bound, reported by):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<21} {:<9} {:<7} {:<5} {:<15} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.on.as_str(),
            m.what
        ));
    }
    out.push_str("per-layer metrics (name, unit, better, reported by):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<29} {:<6} {:<7} {:<15} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.on.as_str(),
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
    }

    #[test]
    fn sim_configs_validate_and_use_the_mechanism_arms() {
        for (i, w) in SIM_WORKLOADS.iter().enumerate() {
            let cfg = sim_config(w, Sizes { tiny: false }, 7);
            cfg.validate();
            assert_eq!(cfg.seed, 7);
            assert_eq!(cfg.max_instructions, w.instructions);
            assert_eq!(cfg.dram.refresh_policy == RefreshPolicy::Darp, i == 2);
        }
        let mech = sim_config(&SIM_WORKLOADS[2], Sizes { tiny: true }, 1);
        assert!(mech.controller.write_drain && mech.controller.ranking);
        assert_eq!(mech.dram.row_policy, RowPolicy::Happy);
        assert!(mech.dram.extended.is_some());
    }
}
