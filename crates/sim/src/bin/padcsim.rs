//! `padcsim` — run one simulation from the command line.
//!
//! ```text
//! padcsim --cores 4 --policy padc --instructions 300000 \
//!         --bench omnetpp_06 --bench libquantum_06 --bench galgel_00 --bench GemsFDTD_06
//! padcsim --config system.json --bench milc_06           # full SimConfig from JSON
//! padcsim --print-config --cores 2 --policy demand-first # dump the config as JSON
//! padcsim --trace trace.txt --policy padc                # replay a recorded trace
//! padcsim --suite --smoke --jobs 4 fig6 > out.jsonl      # experiment suite, JSONL on stdout
//! padcsim serve --stdio --jobs 4 --store DIR              # request server (see padc_sim::serve)
//! padcsim store stats --store DIR                         # inspect the unit store
//! ```
//!
//! `--suite` is the same driver as the `repro` binary
//! ([`padc_sim::cli::suite_main`], same flags, registry and JSONL bytes)
//! with the JSONL stream on stdout by default instead of the tables.

use padc_core::SchedulingPolicy;
use padc_cpu::TraceSource;
use padc_dram::RefreshPolicy;
use padc_sim::cli::{install_store, say, store_dir, suite_main, Stdout};
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
    /// Workloads named on the command line (`--trace` files replace
    /// `--bench` profiles).
    fn sources(&self) -> usize {
        if self.traces.is_empty() {
            self.benches.len()
        } else {
            self.traces.len()
        }
    }
}

fn parse_args() -> Result<Args, String> {
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
    let mut set_by_config: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if matches!(
            flag.as_str(),
            "--cores" | "--policy" | "--instructions" | "--no-prefetch"
        ) {
            set_by_config.get_or_insert(flag.clone());
        }
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--cores" => {
                let cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?;
                if cores == 0 {
                    return Err("--cores must be at least 1".to_string());
                }
                args.cores = Some(cores);
            }
            "--policy" => args.policy = parse_policy(&value("--policy")?)?,
            "--instructions" => {
                args.instructions = value("--instructions")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if args.instructions == 0 {
                    return Err("--instructions must be at least 1".to_string());
                }
            }
            "--bench" => args.benches.push(value("--bench")?),
            "--trace" => args.traces.push(value("--trace")?),
            "--config" => args.config_path = Some(value("--config")?),
            "--print-config" => args.print_config = true,
            "--no-prefetch" => args.no_prefetch = true,
            "--json" => args.json = true,
            "--profile" => args.profile = true,
            "--fast-forward" => args.fast_forward = Some(value("--fast-forward")?.parse()?),
            "--refresh-policy" => {
                args.refresh_policy = Some(parse_refresh_policy(&value("--refresh-policy")?)?)
            }
            "--extended-timing" => args.extended_timing = true,
            "--list-benchmarks" => {
                for p in profiles::all() {
                    say(format_args!("{:<22} class {}", p.name, p.class.code()));
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                say(format_args!(
                    "usage: padcsim (--config FILE.json | [--cores N] [--policy P] \
                     [--instructions N] [--no-prefetch]) [--json] [--profile] \
                     [--fast-forward off|event] \
                     [--refresh-policy all-bank|per-bank|darp] [--extended-timing] \
                     (--bench NAME ... | --trace FILE ...) | --print-config | --list-benchmarks\n\
                     --cores defaults to, and must equal, the number of --bench/--trace sources"
                ));
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let (Some(_), Some(flag)) = (&args.config_path, set_by_config) {
        return Err(format!(
            "{flag} cannot be combined with --config: the file sets it"
        ));
    }
    let sources = args.sources();
    if let Some(cores) = args.cores {
        if sources > 0 && cores != sources {
            return Err(format!(
                "--cores {cores} but {sources} --bench/--trace source(s) were given"
            ));
        }
    }
    Ok(args)
}

/// `padcsim serve`: long-running experiment request server (line-delimited
/// JSON over stdio or a Unix socket); see `padc_sim::serve` for the
/// protocol.
fn run_serve_mode(args: &[String]) -> ! {
    use padc_sim::experiments::Scale;

    let die = |msg: String| -> ! {
        eprintln!("error: {msg} (try padcsim serve --help)");
        std::process::exit(2);
    };
    let mut workers = 0usize;
    let mut scale = Scale::Full;
    let mut store_flag: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format!("{name} expects a value")))
        };
        match flag.as_str() {
            "--quick" => scale = Scale::Quick,
            "--smoke" => scale = Scale::Smoke,
            "--jobs" | "-j" => {
                let v = value("--jobs");
                workers = v
                    .parse()
                    .unwrap_or_else(|_| die(format!("--jobs expects an integer, got {v:?}")));
            }
            "--store" => store_flag = Some(value("--store")),
            "--socket" => socket = Some(value("--socket")),
            "--stdio" => socket = None,
            "--help" | "-h" => {
                say(format_args!(
                    "usage: padcsim serve [--stdio | --socket PATH] [--jobs N] \
                     [--quick|--smoke] [--store DIR]\n\
                     requests: one JSON object per line, e.g. \
                     {{\"id\":\"r1\",\"experiments\":[\"fig6\"],\"scale\":\"smoke\"}}"
                ));
                std::process::exit(0);
            }
            other => die(format!("unknown serve flag {other:?}")),
        }
    }
    if let Some(dir) = install_store(store_flag) {
        eprintln!("serve: unit store at {dir}");
    }
    let state = padc_sim::serve::ServeState::new(workers, scale).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let result = match &socket {
        Some(path) => {
            eprintln!("serve: listening on {path}");
            padc_sim::serve::serve_unix(&state, std::path::Path::new(path))
        }
        None => {
            eprintln!("serve: reading requests from stdin");
            padc_sim::serve::serve_stdio(&state, std::io::stdin().lock(), std::io::stdout())
        }
    };
    let counters = padc_sim::experiments::unit_cache_stats();
    eprintln!(
        "serve: requests={} subjobs_executed={} store: hits={} misses={} coalesced={}",
        state.requests(),
        state.subjobs_executed(),
        counters.store_hits,
        counters.store_misses,
        counters.units_coalesced
    );
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `padcsim store <stats|gc>`: inspect and bound the content-addressed
/// unit store without running anything.
fn run_store_mode(args: &[String]) -> ! {
    let die = |msg: String| -> ! {
        eprintln!("error: {msg} (try padcsim store --help)");
        std::process::exit(2);
    };
    let mut action: Option<String> = None;
    let mut store_flag: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--store" => store_flag = Some(value("--store")),
            "--max-bytes" => {
                let v = value("--max-bytes");
                max_bytes =
                    Some(v.parse().unwrap_or_else(|_| {
                        die(format!("--max-bytes expects an integer, got {v:?}"))
                    }));
            }
            "--help" | "-h" => {
                say(format_args!(
                    "usage: padcsim store (stats | gc --max-bytes N) [--store DIR]\n\
                     the store directory falls back to $PADC_STORE"
                ));
                std::process::exit(0);
            }
            other if other.starts_with('-') => die(format!("unknown store flag {other:?}")),
            other if action.is_none() => action = Some(other.to_string()),
            other => die(format!("unexpected argument {other:?}")),
        }
    }
    // Validate everything before touching the filesystem: `Store::open`
    // creates what it opens, and inspecting must not create.
    let gc = match action.as_deref() {
        None | Some("stats") => false,
        Some("gc") => true,
        Some(other) => die(format!("unknown store action {other:?} (stats|gc)")),
    };
    let dir = store_dir(store_flag)
        .unwrap_or_else(|| die("no store directory: pass --store DIR or set PADC_STORE".into()));
    if !std::path::Path::new(&dir).join("objects").is_dir() {
        padc_sim::cli::die(format!("no store at {dir}"));
    }
    let store = padc_store::Store::open(std::path::Path::new(&dir))
        .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")));
    if gc {
        let max = max_bytes.unwrap_or_else(|| die("gc requires --max-bytes N".into()));
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
/// the suite surfaces (`repro`, `padcsim --suite`, `padcsim serve`) embed
/// in JSONL rows; keep its keys stable.
fn print_profile(p: &padc_sim::profile::SimProfile) {
    eprintln!(
        "profile: {}",
        serde_json::to_string(p).expect("profile serializes")
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--suite") => suite_main("padcsim --suite", Stdout::Jsonl, &raw[1..]),
        Some("serve") => run_serve_mode(&raw[1..]),
        Some("store") => run_store_mode(&raw[1..]),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let sources = args.sources();
    let cores = args.cores.unwrap_or(sources.max(1));
    let mut cfg = match &args.config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            serde_json::from_str::<SimConfig>(&text).unwrap_or_else(|e| {
                eprintln!("error: invalid config {path}: {e}");
                std::process::exit(2);
            })
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
        padc_sim::cli::die(format!("invalid config{from}: {e}"));
    }
    if args.print_config {
        say(serde_json::to_string_pretty(&cfg).expect("config serializes"));
        return;
    }
    if sources > 0 && cfg.cores != sources {
        padc_sim::cli::die(format!(
            "the config has {} core(s) but {sources} --bench/--trace source(s) were given",
            cfg.cores
        ));
    }

    if args.profile {
        padc_sim::profile::set_timing_enabled(true);
    }
    let mut sys = if !args.traces.is_empty() {
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::new();
        for t in &args.traces {
            match TraceFileSource::from_path(std::path::Path::new(t)) {
                Ok(src) => traces.push(Box::new(src)),
                Err(e) => {
                    eprintln!("error: trace {t}: {e}");
                    std::process::exit(2);
                }
            }
        }
        System::with_traces(cfg, traces, args.traces.clone())
    } else {
        if args.benches.is_empty() {
            eprintln!("error: provide --bench or --trace (or --help)");
            std::process::exit(2);
        }
        let benches: Vec<_> = args
            .benches
            .iter()
            .map(|n| {
                profiles::by_name(n).unwrap_or_else(|| {
                    eprintln!("error: unknown benchmark {n} (try --list-benchmarks)");
                    std::process::exit(2);
                })
            })
            .collect();
        System::new(cfg, benches)
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
