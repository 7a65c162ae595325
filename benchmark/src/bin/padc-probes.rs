//! `padc-probes`: drives one layer at a time through its public functions,
//! on inputs generated from a benchmark workload's definition and seed, and
//! prints one JSON object `{"<layer>.probe_*": value, ...}`.
//!
//! ```text
//! padc-probes --workload W --seed S [--tiny] [--entry-bytes N]
//! ```
//!
//! Probe numbers are host time per call of a layer in isolation. They say
//! where a layer's cost moved; they gate nothing, and the end-to-end runner
//! does not depend on anything this file compiles against.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use padc_benchmark::spec::{self, Kind, SimWorkload, Sizes};
use padc_cache::{Cache, MshrFile, ProbeOutcome};
use padc_core::{AccuracyTracker, MemoryController};
use padc_cpu::{AccessResponse, Core, MemAccess, MemorySystem, TraceOp, TraceSource};
use padc_dram::{AddressMapper, Channel, StepOutcome};
use padc_prefetch::{build, AccessEvent};
use padc_sim::SimConfig;
use padc_store::{digest_hex, sha256, Store};
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, RequestId, RequestKind};
use padc_workloads::{TraceGen, Workload};

/// CPU cycles per DRAM bus cycle: the controller issues commands on these
/// boundaries only.
const DRAM_CYCLE: Cycle = 10;

fn main() -> std::process::ExitCode {
    match run() {
        Ok(metrics) => {
            println!(
                "{}",
                serde_json::to_string(&metrics).expect("a map of numbers serialises")
            );
            std::process::ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("padc-probes: {msg}");
            std::process::ExitCode::from(2)
        }
    }
}

fn run() -> Result<BTreeMap<String, f64>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut tiny = false;
    let mut entry_bytes = 4096usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--tiny" => tiny = true,
            "--entry-bytes" => {
                entry_bytes = value()?
                    .parse()
                    .map_err(|_| "--entry-bytes: not a number")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = spec::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    // Probe lengths: enough calls that each probe runs for tenths of a second.
    let scale = if tiny { 50 } else { 1 };
    let mut out = BTreeMap::new();
    match w.kind {
        Kind::Sim(i) => {
            let def = &spec::SIM_WORKLOADS[i];
            let cfg = spec::sim_config(def, Sizes { tiny }, seed);
            probe_workloads(def, &cfg, 4_000_000 / scale, &mut out);
            probe_cpu(def, &cfg, 1_000_000 / scale, &mut out);
            let stream = probe_cache(def, &cfg, 2_000_000 / scale, &mut out);
            probe_prefetch(&cfg, &stream, &mut out);
            let misses: Vec<L2Access> = stream.into_iter().filter(|a| !a.hit).collect();
            probe_core(&cfg, &misses, 300_000 / scale as u64, &mut out);
            probe_dram(&cfg, &misses, 300_000 / scale as u64, &mut out);
        }
        Kind::SuiteCold | Kind::SuiteWarm => {
            probe_store(entry_bytes.max(64), 400 / scale, &mut out)?;
        }
    }
    Ok(out)
}

fn traces(def: &SimWorkload, cfg: &SimConfig) -> Vec<TraceGen> {
    Workload::from_names(def.benchmarks)
        .benchmarks
        .iter()
        .enumerate()
        .map(|(core, b)| TraceGen::new(b, core, cfg.seed))
        .collect()
}

fn ns_per(start: Instant, calls: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `TraceGen::next_op`, round-robin over the workload's cores.
fn probe_workloads(
    def: &SimWorkload,
    cfg: &SimConfig,
    ops: usize,
    out: &mut BTreeMap<String, f64>,
) {
    let mut gens = traces(def, cfg);
    let per_core = ops / gens.len();
    let start = Instant::now();
    for g in &mut gens {
        for _ in 0..per_core {
            black_box(g.next_op());
        }
    }
    out.insert(
        "workloads.probe_ns_per_op".to_string(),
        ns_per(start, (per_core * gens.len()) as u64),
    );
}

/// Every access hits after a fixed latency: the core model alone.
struct FixedLatency;

impl MemorySystem for FixedLatency {
    fn access(&mut self, _core: CoreId, _acc: &MemAccess, _now: Cycle) -> AccessResponse {
        AccessResponse::Hit { latency: 2 }
    }
}

/// `Core::tick` over each core's own trace against [`FixedLatency`].
fn probe_cpu(def: &SimWorkload, cfg: &SimConfig, ticks: usize, out: &mut BTreeMap<String, f64>) {
    let mut gens = traces(def, cfg);
    let per_core = ticks / gens.len();
    let mut mem = FixedLatency;
    let mut retired = 0u64;
    let start = Instant::now();
    for (i, g) in gens.iter_mut().enumerate() {
        let mut core = Core::new(CoreId::new(i), cfg.core);
        for now in 0..per_core as Cycle {
            core.tick(now, g, &mut mem);
        }
        retired += core.stats().retired_instructions;
    }
    let total = (per_core * gens.len()) as u64;
    out.insert("cpu.probe_ns_per_tick".to_string(), ns_per(start, total));
    out.insert(
        "cpu.probe_retired_per_tick".to_string(),
        retired as f64 / total.max(1) as f64,
    );
}

/// One L2 access of the probed stream.
#[derive(Clone, Copy)]
struct L2Access {
    core: usize,
    line: LineAddr,
    pc: u64,
    write: bool,
    hit: bool,
}

/// `Cache::probe`/`fill` + `MshrFile::allocate`/`remove` over the memory
/// operations of the workload's traces: an L1 in front of an L2 per core, a
/// miss held in the MSHR file until `MSHR_DEPTH` younger misses have passed.
/// Returns the L2 access stream for the probes further down.
fn probe_cache(
    def: &SimWorkload,
    cfg: &SimConfig,
    accesses: usize,
    out: &mut BTreeMap<String, f64>,
) -> Vec<L2Access> {
    const MSHR_DEPTH: usize = 16;
    // Generate first, so trace generation is not on this probe's clock.
    let per_core = accesses / def.benchmarks.len();
    let ops: Vec<Vec<(LineAddr, u64, bool)>> = traces(def, cfg)
        .iter_mut()
        .map(|g| {
            std::iter::repeat_with(|| g.next_op())
                .filter_map(|op| match op {
                    TraceOp::Load { addr, pc, .. } => Some((addr.line(), pc, false)),
                    TraceOp::Store { addr, pc } => Some((addr.line(), pc, true)),
                    TraceOp::Compute => None,
                })
                .take(per_core)
                .collect()
        })
        .collect();

    let mut stream = Vec::new();
    let mut calls = 0u64;
    let start = Instant::now();
    for (core, ops) in ops.iter().enumerate() {
        let mut l1 = Cache::new(cfg.l1.clone());
        let mut l2 = Cache::new(cfg.l2_per_cache());
        let mut mshr = MshrFile::new(cfg.mshr_per_cache());
        let mut pending: VecDeque<LineAddr> = VecDeque::new();
        let mut next_id = 0u64;
        for &(line, pc, write) in ops {
            calls += 1;
            if matches!(l1.probe(line, write), ProbeOutcome::Hit(_)) {
                continue;
            }
            calls += 1;
            let hit = matches!(l2.probe(line, write), ProbeOutcome::Hit(_));
            stream.push(L2Access {
                core,
                line,
                pc,
                write,
                hit,
            });
            if hit {
                l1.fill(line, false, write, false);
                calls += 1;
                continue;
            }
            if mshr.get(line).is_none() && mshr.allocate(line, false, RequestId::new(next_id)) {
                next_id += 1;
                pending.push_back(line);
                calls += 1;
            }
            if pending.len() > MSHR_DEPTH {
                let done = pending.pop_front().expect("non-empty");
                black_box(mshr.remove(done));
                black_box(l2.fill(done, false, false, false));
                black_box(l1.fill(done, false, false, false));
                calls += 3;
            }
        }
    }
    out.insert(
        "cache.probe_ns_per_access".to_string(),
        ns_per(start, calls),
    );
    stream
}

/// `Prefetcher::on_access` (the configured prefetcher) over the L2 stream.
fn probe_prefetch(cfg: &SimConfig, stream: &[L2Access], out: &mut BTreeMap<String, f64>) {
    let Some(kind) = cfg.prefetcher else { return };
    let mut prefetchers: Vec<_> = (0..cfg.cores).map(|_| build(kind)).collect();
    let mut candidates = Vec::new();
    let start = Instant::now();
    for a in stream {
        candidates.clear();
        prefetchers[a.core].on_access(
            &AccessEvent {
                core: CoreId::new(a.core),
                line: a.line,
                pc: a.pc,
                hit: a.hit,
                runahead: false,
            },
            &mut candidates,
        );
        black_box(candidates.len());
    }
    out.insert(
        "prefetch.probe_ns_per_access".to_string(),
        ns_per(start, stream.len() as u64),
    );
}

/// Closed loop over the controller: `enqueue` refills the buffer to half its
/// capacity from the miss stream (every fourth request a prefetch), `tick`
/// runs at every DRAM boundary, `next_event` after each tick. Completions
/// are counted and dropped. Each call kind is on its own clock.
fn probe_core(
    cfg: &SimConfig,
    misses: &[L2Access],
    dram_cycles: u64,
    out: &mut BTreeMap<String, f64>,
) {
    if misses.is_empty() {
        return;
    }
    let mut mc = MemoryController::new(cfg.controller.clone(), cfg.dram.clone(), cfg.mapping);
    let tracker = AccuracyTracker::new(cfg.cores, cfg.controller.accuracy_interval);
    let target = cfg.controller.buffer_entries / 2;
    let mut feed = misses.iter().cycle();
    let (mut enq_ns, mut enq_calls) = (0u128, 0u64);
    let (mut tick_ns, mut event_ns) = (0u128, 0u128);
    let mut serviced = 0usize;
    for step in 0..dram_cycles {
        let now = step * DRAM_CYCLE;
        if mc.occupancy() < target {
            let t = Instant::now();
            while mc.occupancy() < target {
                let a = feed.next().expect("cycle never ends");
                let (access, kind) = match (a.write, enq_calls % 4) {
                    (true, _) => (AccessKind::Store, RequestKind::Demand),
                    (false, 3) => (AccessKind::Load, RequestKind::Prefetch),
                    (false, _) => (AccessKind::Load, RequestKind::Demand),
                };
                black_box(mc.enqueue(CoreId::new(a.core), a.line, access, kind, now));
                enq_calls += 1;
            }
            enq_ns += t.elapsed().as_nanos();
        }
        let t = Instant::now();
        let ticked = mc.tick(now, &tracker);
        tick_ns += t.elapsed().as_nanos();
        serviced += ticked.completions.len() + ticked.dropped.len();
        let t = Instant::now();
        black_box(mc.next_event(now + 1, &tracker));
        event_ns += t.elapsed().as_nanos();
    }
    black_box(serviced);
    let per = |ns: u128, calls: u64| ns as f64 / calls.max(1) as f64;
    out.insert("core.probe_enqueue_ns".to_string(), per(enq_ns, enq_calls));
    out.insert("core.probe_tick_ns".to_string(), per(tick_ns, dram_cycles));
    out.insert(
        "core.probe_next_event_ns".to_string(),
        per(event_ns, dram_cycles),
    );
}

/// One channel in isolation: `sync` every DRAM cycle, then the oldest of a
/// small window of mapped misses that `can_advance` is advanced; a request
/// leaves the window when its CAS issues.
fn probe_dram(
    cfg: &SimConfig,
    misses: &[L2Access],
    dram_cycles: u64,
    out: &mut BTreeMap<String, f64>,
) {
    const WINDOW: usize = 16;
    if misses.is_empty() {
        return;
    }
    let mapper = AddressMapper::new(&cfg.dram, cfg.mapping);
    let mut feed = misses
        .iter()
        .map(|a| (mapper.map(a.line), a.write))
        .filter(|(t, _)| t.channel == 0)
        .cycle();
    let mut channel = Channel::new(&cfg.dram);
    let mut window = Vec::with_capacity(WINDOW);
    let (mut sync_ns, mut advance_ns, mut commands) = (0u128, 0u128, 0u64);
    for step in 0..dram_cycles {
        let now = step * DRAM_CYCLE;
        while window.len() < WINDOW {
            match feed.next() {
                Some(req) => window.push(req),
                None => return,
            }
        }
        let t = Instant::now();
        channel.sync(now);
        sync_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let ready = window
            .iter()
            .position(|(tg, _)| channel.can_advance(tg.bank, tg.row, now));
        if let Some(i) = ready {
            let (tg, write) = window[i];
            commands += 1;
            if matches!(
                channel.advance(tg.bank, tg.row, write, now),
                StepOutcome::CasIssued { .. }
            ) {
                window.remove(i);
            }
        }
        advance_ns += t.elapsed().as_nanos();
    }
    out.insert(
        "dram.probe_sync_ns".to_string(),
        sync_ns as f64 / dram_cycles.max(1) as f64,
    );
    out.insert(
        "dram.probe_advance_ns".to_string(),
        advance_ns as f64 / commands.max(1) as f64,
    );
}

/// `Store::put` / `load` / `sha256` on `entries` payloads of `entry_bytes`.
fn probe_store(
    entry_bytes: usize,
    entries: usize,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let dir = padc_benchmark::work_dir("store-probe")
        .map_err(|e| format!("cannot create a work directory: {e}"))?;
    let result = (|| -> std::io::Result<()> {
        let store = Store::open(&dir)?;
        let meta = "padc-probes store probe";
        let payloads: Vec<String> = (0..entries)
            .map(|i| format!("{i:08}").repeat(entry_bytes.div_ceil(8)))
            .collect();

        let start = Instant::now();
        let digests: Vec<String> = payloads.iter().map(|p| digest_hex(p.as_bytes())).collect();
        let hashed = start.elapsed().as_secs_f64();
        black_box(sha256(payloads[0].as_bytes()));
        let bytes: usize = payloads.iter().map(String::len).sum();
        out.insert(
            "store.probe_sha256_mb_s".to_string(),
            bytes as f64 / 1e6 / hashed,
        );

        let start = Instant::now();
        for (d, p) in digests.iter().zip(&payloads) {
            store.put(d, meta, p)?;
        }
        out.insert(
            "store.probe_put_us".to_string(),
            ns_per(start, entries as u64) / 1e3,
        );

        let start = Instant::now();
        for (d, p) in digests.iter().zip(&payloads) {
            let loaded = store.load(d, meta);
            if loaded.as_deref() != Some(p.as_str()) {
                return Err(std::io::Error::other("store returned a different payload"));
            }
        }
        out.insert(
            "store.probe_load_us".to_string(),
            ns_per(start, entries as u64) / 1e3,
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result.map_err(|e| format!("store probe: {e}"))
}
