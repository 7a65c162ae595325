//! `padcsim` — run one simulation from the command line.
//!
//! ```text
//! padcsim --cores 4 --policy padc --instructions 300000 \
//!         --bench omnetpp_06 --bench libquantum_06 --bench galgel_00 --bench GemsFDTD_06
//! padcsim --config system.json --bench milc_06           # full SimConfig from JSON
//! padcsim --print-config --cores 2 --policy demand-first # dump the config as JSON
//! padcsim --trace trace.txt --policy padc                # replay a recorded trace
//! padcsim store stats --store DIR                         # inspect the unit store
//! ```
//!
//! The experiment suite is the `repro` binary. Both command lines here (a
//! single run, `store`) read their flags through [`padc_sim::cli::Flags`].

use padc_core::SchedulingPolicy;
use padc_cpu::TraceSource;
use padc_dram::RefreshPolicy;
use padc_sim::cli::{die, say, store_dir, Flags};
use padc_sim::{FastForwardMode, SimConfig, System};
use padc_workloads::{profiles, TraceFileSource};

/// Parses `--refresh-policy MODE` (`all-bank` | `per-bank` | `darp`).
fn parse_refresh_policy(s: &str) -> Result<RefreshPolicy, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "all-bank" | "allbank" => RefreshPolicy::AllBank,
        "per-bank" | "perbank" => RefreshPolicy::PerBank,
        "darp" => RefreshPolicy::Darp,
        other => return Err(format!("unknown refresh policy {other:?}")),
    })
}

fn parse_policy(s: &str) -> Result<SchedulingPolicy, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "demand-first" | "demandfirst" | "df" => SchedulingPolicy::DemandFirst,
        "demand-pref-equal" | "equal" | "frfcfs" => SchedulingPolicy::DemandPrefetchEqual,
        "prefetch-first" | "pf" => SchedulingPolicy::PrefetchFirst,
        "aps" | "aps-only" => SchedulingPolicy::ApsOnly,
        "padc" | "aps-apd" => SchedulingPolicy::Padc,
        "padc-rank" | "rank" => SchedulingPolicy::PadcRank,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

struct Args {
    /// `--cores N`; without it the core count is the number of sources.
    cores: Option<usize>,
    policy: SchedulingPolicy,
    instructions: u64,
    benches: Vec<String>,
    traces: Vec<String>,
    config_path: Option<String>,
    print_config: bool,
    no_prefetch: bool,
    json: bool,
    profile: bool,
    fast_forward: Option<FastForwardMode>,
    refresh_policy: Option<RefreshPolicy>,
    extended_timing: bool,
}

impl Args {
    /// Workloads named on the command line: `--bench` profiles or `--trace`
    /// files, never both.
    fn sources(&self) -> usize {
        self.benches.len() + self.traces.len()
    }
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        cores: None,
        policy: SchedulingPolicy::Padc,
        instructions: 200_000,
        benches: Vec::new(),
        traces: Vec::new(),
        config_path: None,
        print_config: false,
        no_prefetch: false,
        json: false,
        profile: false,
        fast_forward: None,
        refresh_policy: None,
        extended_timing: false,
    };
    // The first flag seen that sets something `--config FILE` also sets.
    let mut set_by_config: Option<&str> = None;
    let mut flags = Flags::new("padcsim", raw);
    while let Some(flag) = flags.next() {
        if matches!(
            flag,
            "--cores" | "--policy" | "--instructions" | "--no-prefetch"
        ) {
            set_by_config.get_or_insert(flag);
        }
        match flag {
            "--cores" => {
                let cores = flags.integer();
                if cores == 0 {
                    flags.fail("--cores must be at least 1");
                }
                args.cores = Some(cores);
            }
            "--policy" => {
                args.policy = parse_policy(flags.value()).unwrap_or_else(|e| flags.fail(e))
            }
            "--instructions" => {
                args.instructions = flags.integer();
                if args.instructions == 0 {
                    flags.fail("--instructions must be at least 1");
                }
            }
            "--bench" => args.benches.push(flags.value().to_string()),
            "--trace" => args.traces.push(flags.value().to_string()),
            "--config" => args.config_path = Some(flags.value().to_string()),
            "--print-config" => args.print_config = true,
            "--no-prefetch" => args.no_prefetch = true,
            "--json" => args.json = true,
            "--profile" => args.profile = true,
            "--fast-forward" => {
                args.fast_forward = Some(flags.value().parse().unwrap_or_else(|e| flags.fail(e)))
            }
            "--refresh-policy" => {
                args.refresh_policy =
                    Some(parse_refresh_policy(flags.value()).unwrap_or_else(|e| flags.fail(e)))
            }
            "--extended-timing" => args.extended_timing = true,
            "--list-benchmarks" => {
                for p in profiles::all() {
                    say(format_args!("{:<22} class {}", p.name, p.class.code()));
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                say(
                    "usage: padcsim (--config FILE.json | [--cores N] [--policy P] \
                     [--instructions N] [--no-prefetch]) [--json] [--profile] \
                     [--fast-forward off|event] \
                     [--refresh-policy all-bank|per-bank|darp] [--extended-timing] \
                     (--bench NAME ... | --trace FILE ...) | --print-config | --list-benchmarks\n\
                     --cores defaults to, and must equal, the number of --bench/--trace sources\n\
                     padcsim store --help; the experiment suite is `repro`",
                );
                std::process::exit(0);
            }
            other => flags.fail(format_args!("unknown flag {other:?}")),
        }
    }
    if let (Some(_), Some(flag)) = (&args.config_path, set_by_config) {
        flags.fail(format_args!(
            "{flag} cannot be combined with --config: the file sets it"
        ));
    }
    if !args.benches.is_empty() && !args.traces.is_empty() {
        flags.fail("--bench and --trace cannot be combined: give one or the other");
    }
    let sources = args.sources();
    if let Some(cores) = args.cores {
        if sources > 0 && cores != sources {
            flags.fail(format_args!(
                "--cores {cores} but {sources} --bench/--trace source(s) were given"
            ));
        }
    }
    if sources == 0 && !args.print_config {
        flags.fail("provide --bench or --trace");
    }
    args
}

/// `padcsim store <stats|gc>`: inspect and bound the content-addressed
/// unit store without running anything.
fn run_store_mode(args: &[String]) -> ! {
    let mut action: Option<&str> = None;
    let mut store_flag: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut flags = Flags::new("padcsim store", args);
    while let Some(arg) = flags.next() {
        match arg {
            "--store" => store_flag = Some(flags.value().to_string()),
            "--max-bytes" => max_bytes = Some(flags.integer()),
            "--help" | "-h" => {
                say(
                    "usage: padcsim store (stats | gc --max-bytes N) [--store DIR]\n\
                     the store directory falls back to $PADC_STORE",
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => flags.fail(format_args!("unknown flag {other:?}")),
            other if action.is_none() => action = Some(other),
            other => flags.fail(format_args!("unexpected argument {other:?}")),
        }
    }
    // Validate everything before touching the filesystem: `Store::open`
    // creates what it opens, and inspecting must not create.
    let gc = match action {
        None | Some("stats") => None,
        Some("gc") => Some(max_bytes.unwrap_or_else(|| flags.fail("gc requires --max-bytes N"))),
        Some(other) => flags.fail(format_args!("unknown store action {other:?} (stats|gc)")),
    };
    let dir = store_dir(store_flag)
        .unwrap_or_else(|| flags.fail("no store directory: pass --store DIR or set PADC_STORE"));
    if !std::path::Path::new(&dir).join("objects").is_dir() {
        die(format!("no store at {dir}"));
    }
    let store = padc_store::Store::open(std::path::Path::new(&dir))
        .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
    if let Some(max) = gc {
        let o = store
            .gc(max)
            .unwrap_or_else(|e| die(format!("gc failed: {e}")));
        say(format_args!(
            "store gc: evicted={} freed_bytes={} remaining_entries={} remaining_bytes={}",
            o.evicted, o.freed_bytes, o.remaining_entries, o.remaining_bytes
        ));
    } else {
        let s = store
            .stats()
            .unwrap_or_else(|e| die(format!("stats failed: {e}")));
        say(format_args!(
            "store: entries={} bytes={}",
            s.entries, s.bytes
        ));
    }
    std::process::exit(0);
}

/// `--profile`: the hot-path counters as one `profile: {json}` stderr
/// line, so it composes with `--json` on stdout. The object is the
/// serde-serialized [`padc_sim::profile::SimProfile`] — the same shape
/// `repro --profile` embeds in JSONL rows; keep its keys stable.
fn print_profile(p: &padc_sim::profile::SimProfile) {
    eprintln!(
        "profile: {}",
        serde_json::to_string(p).expect("profile serializes")
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("store") {
        run_store_mode(&raw[1..]);
    }
    let args = parse_args(&raw);
    let cores = args.cores.unwrap_or(args.sources().max(1));
    let mut cfg = match &args.config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
            serde_json::from_str::<SimConfig>(&text)
                .unwrap_or_else(|e| die(format!("invalid config {path}: {e}")))
        }
        None => SimConfig::new(cores, args.policy),
    };
    if args.config_path.is_none() {
        cfg.max_instructions = args.instructions;
        if args.no_prefetch {
            cfg = cfg.without_prefetching();
        }
    }
    if args.extended_timing {
        cfg = cfg.with_extended_timing(padc_dram::ExtendedTiming::default());
    }
    if let Some(policy) = args.refresh_policy {
        cfg = cfg.with_refresh_policy(policy);
    }
    if let Err(e) = cfg.check() {
        let from = args
            .config_path
            .as_deref()
            .map_or(String::new(), |p| format!(" {p}"));
        die(format!("invalid config{from}: {e}"));
    }
    if args.print_config {
        say(serde_json::to_string_pretty(&cfg).expect("config serializes"));
        return;
    }
    if cfg.cores != args.sources() {
        die(format!(
            "the config has {} core(s) but {} --bench/--trace source(s) were given",
            cfg.cores,
            args.sources()
        ));
    }

    if args.profile {
        padc_sim::profile::set_timing_enabled(true);
    }
    let mut sys = if args.traces.is_empty() {
        let benches = args.benches.iter().map(|n| {
            profiles::by_name(n)
                .unwrap_or_else(|| die(format!("unknown benchmark {n} (try --list-benchmarks)")))
        });
        System::new(cfg, benches.collect())
    } else {
        let traces = args.traces.iter().map(|t| {
            TraceFileSource::from_path(std::path::Path::new(t))
                .map(|src| Box::new(src) as Box<dyn TraceSource>)
                .unwrap_or_else(|e| die(format!("trace {t}: {e}")))
        });
        System::with_traces(cfg, traces.collect(), args.traces.clone())
    };
    if let Some(mode) = args.fast_forward {
        sys.set_fast_forward_mode(mode);
    }
    let report = sys.run();
    if args.profile {
        print_profile(sys.profile());
    }

    if args.json {
        say(serde_json::to_string_pretty(&report).expect("report serializes"));
        return;
    }
    say(format_args!("cycles: {}", report.total_cycles));
    for c in &report.per_core {
        say(format_args!(
            "{:<22} IPC={:.3} MPKI={:.1} SPL={:.1} ACC={:.0}% COV={:.0}% sent={} dropped={} traffic={}",
            c.benchmark,
            c.ipc(),
            c.mpki(),
            c.spl(),
            c.acc() * 100.0,
            c.cov() * 100.0,
            c.prefetches_sent,
            c.prefetches_dropped,
            c.traffic.total(),
        ));
    }
    let t = report.traffic();
    say(format_args!(
        "traffic: {} lines (demand {}, useful pf {}, useless pf {}); DRAM row-hit {:.0}%",
        t.total(),
        t.demand,
        t.pref_useful,
        t.pref_useless,
        report
            .channels
            .first()
            .map(|c| c.row_hit_rate() * 100.0)
            .unwrap_or(0.0),
    ));
}
