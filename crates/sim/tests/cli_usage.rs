//! Binary-level contract of the command lines: `repro`, the one suite
//! entry point, takes every suite flag, writes the same bytes warm from a
//! store as cold, and streams its rows on stdout with `--jsonl -`; input
//! `repro` or `padcsim` cannot run must exit 2 with a one-line message on
//! stderr — never a panic with a backtrace, and never a silently ignored
//! flag — a worker pool the OS refuses is one error line, a reader that
//! closes stdout early is a clean exit, the `store` subcommand does what
//! it says, and the refresh policies' reports hold their recorded bytes.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use padc_dram::ExtendedTiming;
use padc_sim::SimConfig;

/// A fresh scratch directory private to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("padc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The binary a command line's first word names.
fn binary(program: &str) -> &'static str {
    match program {
        "padcsim" => env!("CARGO_BIN_EXE_padcsim"),
        "repro" => env!("CARGO_BIN_EXE_repro"),
        other => panic!("no binary {other}"),
    }
}

/// Runs the command line `argv` (`argv[0]` is `padcsim` or `repro`).
fn run(argv: &[&str]) -> Output {
    Command::new(binary(argv[0]))
        .env_remove("PADC_STORE")
        .args(&argv[1..])
        .output()
        .expect("the binary spawns")
}

/// Runs `argv`, which must succeed, returning its stdout.
fn accepted(argv: &[&str]) -> String {
    let out = run(argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{argv:?}: {stderr}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Runs `argv` and asserts the usage-error contract, returning the stderr
/// line.
fn rejected(argv: &[&str]) -> String {
    let out = run(argv);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{argv:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{argv:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{argv:?} wrote results");
    stderr
}

/// The top-level keys of a `--summary` file, in order.
fn summary_keys(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("summary written");
    text.lines()
        .filter_map(|l| l.strip_prefix("  \""))
        .map(|l| l.split('"').next().expect("key").to_string())
        .collect()
}

#[test]
fn repro_takes_every_suite_flag_and_a_warm_store_writes_the_same_bytes() {
    let dir = scratch("flags");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (jsonl, summary, store) = (path("cold.jsonl"), path("cold.json"), path("store"));
    let fresh = run(&[
        "repro",
        "--smoke",
        "--jobs",
        "2",
        "--no-progress",
        "--budget-seconds",
        "600",
        "--store",
        &store,
        "--jsonl",
        &jsonl,
        "--summary",
        &summary,
        "fig2",
        "tab5",
    ]);
    let stderr = String::from_utf8_lossy(&fresh.stderr).into_owned();
    assert_eq!(fresh.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("store: hits=0 misses=110 "), "{stderr}");
    assert!(stderr.contains("suite: 2/2 ok, 0 failed"), "{stderr}");
    assert!(
        stderr.contains("single_run_memo: requested=110 computed=110"),
        "{stderr}"
    );
    assert!(!stderr.contains("[  1/2]"), "--no-progress was ignored");
    assert_eq!(
        summary_keys(Path::new(&summary)),
        [
            "total",
            "ok",
            "failed",
            "workers",
            "wall_seconds",
            "subjobs_executed",
            "subjobs_peak_concurrent",
            "store_hits",
            "store_misses",
            "units_coalesced",
            "jobs"
        ]
    );

    // A rerun over the same store executes nothing and writes the same
    // bytes (`--profile` stays off: its timings are not stable).
    let (warm_jsonl, warm_summary) = (path("warm.jsonl"), path("warm.json"));
    let warm = run(&[
        "repro",
        "--smoke",
        "--store",
        &store,
        "--jsonl",
        &warm_jsonl,
        "--summary",
        &warm_summary,
        "fig2",
        "tab5",
    ]);
    let stderr = String::from_utf8_lossy(&warm.stderr).into_owned();
    assert_eq!(warm.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("store: hits=110 misses=0 "), "{stderr}");
    let warm_summary = std::fs::read_to_string(&warm_summary).expect("summary written");
    assert!(
        warm_summary.contains("\"subjobs_executed\": 0,"),
        "{warm_summary}"
    );
    let bytes = std::fs::read(&jsonl).expect("artifact written");
    assert!(!bytes.is_empty());
    assert_eq!(std::fs::read(&warm_jsonl).expect("warm artifact"), bytes);
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// Stdout carries the tables, or with `--jsonl -` the JSONL rows instead.
#[test]
fn stdout_carries_the_tables_or_the_rows() {
    let tables = accepted(&["repro", "--smoke", "--no-progress", "fig2"]);
    assert!(tables.starts_with("# fig2 — "), "{tables}");
    let rows = accepted(&["repro", "--smoke", "--no-progress", "--jsonl", "-", "fig2"]);
    assert!(
        rows.starts_with("{\"id\":\"fig2\",\"status\":\"ok\""),
        "{rows}"
    );
    assert_eq!(rows.lines().count(), 1, "{rows}");
}

/// `padcsim ... | head -1`: every stdout write fails with EPIPE. The
/// reader is closed before the process starts, so no write can slip
/// through first.
#[test]
fn a_closed_stdout_reader_is_a_clean_exit() {
    for argv in [
        &["padcsim", "--list-benchmarks"][..],
        &["repro", "--list"],
        &["padcsim", "--print-config"],
        &["padcsim", "--bench", "mcf_06", "--instructions", "1000"],
        &["repro", "--smoke", "--no-progress", "cost"],
        &["repro", "--smoke", "--no-progress", "--jsonl", "-", "cost"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(binary(argv[0]))
            .env_remove("PADC_STORE")
            .args(&argv[1..])
            .stdout(writer)
            .output()
            .expect("the binary spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked at"), "{argv:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {stderr}");
    }
}

#[test]
fn unrunnable_input_exits_2_with_one_line() {
    let dir = scratch("usage");
    let trace = dir.join("small.trace");
    std::fs::write(&trace, "C 3\nL 0x40 0x400\n").expect("trace written");
    let trace = trace.to_str().expect("utf-8 path");
    let artifact = dir.join("settled.jsonl");
    std::fs::write(&artifact, "").expect("artifact");
    let artifact = artifact.to_str().expect("utf-8 path");
    let out = dir.join("out.jsonl");
    let out = out.to_str().expect("utf-8 path");
    let missing = dir.join("typo").join("s.json");
    let missing = missing.to_str().expect("utf-8 path");

    for (argv, needle) in [
        (
            &["padcsim", "--bench", "mcf_06", "--instructions", "0"][..],
            "--instructions",
        ),
        // A number that does not parse names its flag.
        (
            &["padcsim", "--cores", "x", "--bench", "mcf_06"],
            "--cores expects an integer, got \"x\"",
        ),
        (
            &["padcsim", "--bench", "mcf_06", "--instructions", "x"],
            "--instructions expects an integer, got \"x\"",
        ),
        (
            &["padcsim", "--cores", "0", "--print-config"],
            "--cores must be at least 1",
        ),
        (
            &["padcsim", "--cores", "3", "--bench", "mcf_06"],
            "--cores 3 but 1",
        ),
        // `--trace` used to drop the `--bench` profiles beside it unsaid.
        (
            &["padcsim", "--trace", trace, "--bench", "mcf_06"],
            "--bench and --trace cannot be combined",
        ),
        // The suite is `repro`'s alone, and takes its flags.
        (
            &["padcsim", "--suite", "--smoke", "cost"],
            "unknown flag \"--suite\"",
        ),
        // The retired execution-mode selector is an unknown flag like any
        // other.
        (&["repro", "--smoke", "--exec", "planned", "fig2"], "--exec"),
        // The stepping mode is a single run's: the suite and the server
        // have no `--fast-forward`.
        (
            &["repro", "--smoke", "--fast-forward", "off", "fig2"],
            "--fast-forward",
        ),
        (
            &["padcsim", "serve", "--fast-forward", "off"],
            "--fast-forward",
        ),
        // Tables render one way on stdout; `--jsonl` carries them as JSON.
        (
            &["repro", "--smoke", "--csv", "fig2"],
            "unknown flag \"--csv\"",
        ),
        (&["repro", "--smoke", "figx"], "figx"),
        (&["repro", "--jobs", "many"], "--jobs expects an integer"),
        // The store is the one rerun path; `--resume` is gone.
        (
            &[
                "repro", "--smoke", "--resume", artifact, "--jsonl", out, "fig2",
            ],
            "unknown flag \"--resume\"",
        ),
        // An output path that cannot be created is refused before the
        // suite runs, not after it.
        (
            &[
                "repro",
                "--smoke",
                "--no-progress",
                "--summary",
                missing,
                "cost",
            ],
            "cannot create",
        ),
    ] {
        let stderr = rejected(argv);
        assert!(stderr.contains(needle), "{argv:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// `cost cost` used to run the job twice and write two `cost` rows.
#[test]
fn a_selection_runs_each_experiment_once() {
    let twice = run(&[
        "repro",
        "--smoke",
        "--no-progress",
        "--jsonl",
        "-",
        "cost",
        "cost",
    ]);
    let stderr = String::from_utf8_lossy(&twice.stderr);
    assert!(stderr.contains("suite: 1/1 ok"), "{stderr}");
    assert_eq!(twice.stdout.iter().filter(|&&b| b == b'\n').count(), 1);
}

/// More workers than the OS will start is an error line, not an abort:
/// under a 400 MB address-space limit the 2 000 worker stacks cannot all
/// be mapped, and the failed spawn used to panic in the pool's constructor
/// (exit 101) — or, past the thread limit with no `ulimit`, to abort
/// with `failed to initiate panic` (exit 134).
#[test]
fn a_worker_pool_the_os_refuses_is_one_error_line() {
    for argv in [
        &[
            "repro",
            "--smoke",
            "--no-progress",
            "--jobs",
            "2000",
            "cost",
        ][..],
        &["padcsim", "serve", "--stdio", "--jobs", "2000"],
    ] {
        let out = Command::new("sh")
            .arg("-c")
            .arg("ulimit -v 400000; exec \"$0\" \"$@\"")
            .arg(binary(argv[0]))
            .args(&argv[1..])
            .env_remove("PADC_STORE")
            .stdin(std::process::Stdio::null())
            .output()
            .expect("sh spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("2000 worker threads"),
            "{argv:?}: {stderr}"
        );
    }
}

/// A two-line trace file asking for a 22 TB expansion is a usage error
/// decided by arithmetic — not an allocation abort (SIGABRT, no exit code)
/// after eating the host's memory.
#[test]
fn an_over_long_trace_is_refused_before_it_is_expanded() {
    let dir = scratch("trace");
    let trace = dir.join("huge.trace");
    std::fs::write(&trace, "C 999999999999\nL 0x40 0x400\n").expect("trace written");
    let started = std::time::Instant::now();
    let stderr = rejected(&["padcsim", "--trace", trace.to_str().expect("utf-8 path")]);
    // Milliseconds on an idle host; the bound only has to sit below what
    // expanding 10^12 ops would take.
    assert!(started.elapsed() < std::time::Duration::from_secs(30));
    assert!(stderr.starts_with("error: trace "), "{stderr}");
    assert!(
        stderr.contains("line 1") && stderr.contains("limit"),
        "{stderr}"
    );
    assert!(!stderr.contains("memory allocation"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn config_core_count_must_match_the_sources() {
    let dir = scratch("config");
    let config = dir.join("c2.json");
    std::fs::write(
        &config,
        accepted(&["padcsim", "--print-config", "--cores", "2"]),
    )
    .expect("config written");
    let config = config.to_str().expect("utf-8 path");

    let mismatch = rejected(&["padcsim", "--config", config, "--bench", "mcf_06"]);
    assert!(mismatch.contains("2 core(s) but 1"), "{mismatch}");

    // What the file sets, a flag may not set again.
    for flag in [
        &["--instructions", "5000"][..],
        &["--policy", "padc"],
        &["--no-prefetch"],
        &["--cores", "2"],
    ] {
        let mut args = vec![
            "padcsim", "--config", config, "--bench", "mcf_06", "--bench", "lbm_06",
        ];
        args.extend(flag);
        let conflict = rejected(&args);
        assert!(
            conflict.contains(&format!("{} cannot be combined with --config", flag[0])),
            "{conflict}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// A config the model cannot run is a usage error naming the field and
/// the rule (`SimConfig::check`). 65 535 buffer entries used to reach
/// `RequestBuffer::new`'s rank-width `assert!`, and every row from
/// `dram.banks` on some other layer's `assert!` (or, for `l1.ways` 0, a
/// divide by zero): exit 101 and a backtrace. 0 buffer entries, 0 window
/// entries or width 0 — nothing ever enqueues or retires — spun to
/// `max_cycles` for the better part of a minute before exiting 0 with an
/// all-zero report. A window, MSHR table or cache past its bound aborted
/// building the system: `memory allocation of N bytes failed`, exit 134.
#[test]
fn config_sizes_must_be_ones_the_model_can_run() {
    let dir = scratch("sizes");
    let printed = accepted(&["padcsim", "--print-config", "--cores", "1"]);
    let base: SimConfig = serde_json::from_str(&printed).expect("the printed config parses");
    type Edit = fn(&mut SimConfig);
    let cases: [(Edit, &str); 25] = [
        (
            |c| c.controller.buffer_entries = 0,
            "controller.buffer_entries is 0, must be between 1 and 65534",
        ),
        (
            |c| c.controller.buffer_entries = 65535,
            "controller.buffer_entries is 65535, must be between 1 and 65534",
        ),
        (
            |c| c.core.window_entries = 0,
            "core.window_entries is 0, must be at least 1",
        ),
        (|c| c.core.width = 0, "core.width is 0, must be at least 1"),
        (
            |c| c.core.window_entries = 4_294_967_295,
            "core.window_entries is 4294967295, must be at most 65536",
        ),
        (
            |c| c.mshr_entries = 4_000_000_000,
            "mshr_entries is 4000000000, must be at most 65536",
        ),
        (
            |c| c.l1.size_bytes = 1 << 40,
            "l1.size_bytes is 1099511627776, must be at most 268435456",
        ),
        (
            |c| c.l2.size_bytes = 1 << 40,
            "l2.size_bytes is 1099511627776, must be at most 268435456",
        ),
        (
            |c| c.dram.banks = 0,
            "dram.banks is 0, must be a power of two",
        ),
        (
            |c| c.dram.banks = 3,
            "dram.banks is 3, must be a power of two",
        ),
        (
            |c| c.dram.channels = 0,
            "dram.channels is 0, must be a power of two",
        ),
        (
            |c| c.dram.channels = 3,
            "dram.channels is 3, must be a power of two",
        ),
        (
            |c| c.dram.row_bytes = 0,
            "dram.row_bytes is 0, must be at least one 64-byte line",
        ),
        (|c| c.l1.size_bytes = 0, "l1.size_bytes is 0 with l1.ways 4"),
        (|c| c.l1.ways = 0, "l1.size_bytes is 32768 with l1.ways 0"),
        (|c| c.l1.ways = 3, "l1.size_bytes is 32768 with l1.ways 3"),
        (
            |c| c.l2.size_bytes = 1000,
            "l2.size_bytes is 1000 with l2.ways 8",
        ),
        (
            |c| c.mshr_entries = 0,
            "mshr_entries is 0, must be at least 1",
        ),
        (
            |c| c.max_instructions = 0,
            "max_instructions is 0, must be at least 1",
        ),
        (
            |c| c.controller.cores = 2,
            "controller.cores is 2, must equal cores (1)",
        ),
        (
            |c| c.controller.accuracy_interval = 0,
            "controller.accuracy_interval is 0, must be at least 1",
        ),
        (
            |c| {
                c.dram.extended = Some(ExtendedTiming {
                    t_refi: 100,
                    t_rfc: 128,
                    ..ExtendedTiming::default()
                })
            },
            "dram.extended.t_refi is 100 with t_rfc 128, must exceed a nonzero t_rfc",
        ),
        (
            |c| c.dram.t_rp = 1 << 62,
            "dram.t_rp is 4611686018427387904, must be at most 4294967296",
        ),
        (
            |c| {
                c.dram.extended = Some(ExtendedTiming {
                    t_ras: 1 << 62,
                    ..ExtendedTiming::default()
                })
            },
            "dram.extended.t_ras is 4611686018427387904, must be at most 4294967296",
        ),
        (
            |c| {
                c.dram.extended = Some(ExtendedTiming {
                    t_refi: 1 << 62,
                    ..ExtendedTiming::default()
                })
            },
            "dram.extended.t_refi is 4611686018427387904, must be at most 4294967296",
        ),
    ];
    for (edit, error) in cases {
        let mut cfg = base.clone();
        edit(&mut cfg);
        let config = dir.join("sized.json");
        let text = serde_json::to_string_pretty(&cfg).expect("config serializes");
        std::fs::write(&config, text).expect("config written");
        let started = std::time::Instant::now();
        let stderr = rejected(&[
            "padcsim",
            "--config",
            config.to_str().expect("utf-8 path"),
            "--bench",
            "milc_06",
        ]);
        assert!(started.elapsed() < std::time::Duration::from_secs(20));
        assert!(stderr.contains(error), "{error}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// A config of 200 000 `[` used to overflow the JSON parser's stack
/// (`fatal runtime error: stack overflow`, exit 134); nesting past 128
/// levels is a parse error like any other.
#[test]
fn a_deeply_nested_config_is_a_usage_error() {
    let dir = scratch("deep");
    let config = dir.join("deep.json");
    std::fs::write(&config, "[".repeat(200_000)).expect("config written");
    let stderr = rejected(&[
        "padcsim",
        "--config",
        config.to_str().expect("utf-8 path"),
        "--bench",
        "mcf_06",
    ]);
    assert!(
        stderr.contains("recursion limit exceeded at byte 128"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn store_subcommand_does_not_create_what_it_inspects() {
    let dir = scratch("store");
    let missing = dir.join("typo");
    let path = missing.to_str().expect("utf-8 path");

    let bogus = rejected(&["padcsim", "store", "bogus", "--store", path]);
    assert!(bogus.contains("unknown store action"), "{bogus}");
    for action in [
        &["padcsim", "store", "stats"][..],
        &["padcsim", "store", "gc", "--max-bytes", "1"],
    ] {
        let mut args = action.to_vec();
        args.extend(["--store", path]);
        assert_eq!(rejected(&args), format!("error: no store at {path}\n"));
    }
    assert!(!missing.exists(), "inspecting created {path}");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// The number after `key=` in a `store stats` / `store gc` output line.
fn field(line: &str, key: &str) -> u64 {
    let value = line
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"));
    value.parse().expect("a count")
}

#[test]
fn store_gc_evicts_down_to_the_byte_bound() {
    let dir = scratch("gc");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 path");
    accepted(&[
        "repro",
        "--smoke",
        "--no-progress",
        "--store",
        store,
        "--jsonl",
        dir.join("out.jsonl").to_str().expect("utf-8 path"),
        "tab5",
    ]);

    let full = accepted(&["padcsim", "store", "stats", "--store", store]);
    let (entries, bytes) = (field(&full, "entries"), field(&full, "bytes"));
    assert!(entries >= 3, "{full}");
    let bound = bytes / 2;
    let gc = accepted(&[
        "padcsim",
        "store",
        "gc",
        "--max-bytes",
        &bound.to_string(),
        "--store",
        store,
    ]);
    assert!(field(&gc, "evicted") > 0, "{gc}");
    assert!(field(&gc, "remaining_bytes") <= bound, "{gc}");
    assert_eq!(
        field(&gc, "evicted") + field(&gc, "remaining_entries"),
        entries,
        "{gc}"
    );
    let left = accepted(&["padcsim", "store", "stats", "--store", store]);
    assert_eq!(field(&left, "bytes"), field(&gc, "remaining_bytes"));
    assert_eq!(field(&left, "entries"), field(&gc, "remaining_entries"));
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

/// SHA-256 of `padcsim --policy padc --instructions 30000 --extended-timing
/// --refresh-policy P --json` per refresh policy and bench set. Every field
/// of the report is pinned — the `ChannelStats` and controller stats no
/// table shows included — so a change to how any policy refreshes fails
/// here, not only in the full-scale `repro_full` run. A deliberate result
/// change re-records these beside its `RESULT_SCHEMA_VERSION` bump.
#[rustfmt::skip] // one row per line: a re-recorded digest is a one-line diff
const REFRESH_REPORTS: [(&str, &[&str], &str); 6] = [
    ("all-bank", &["mcf_06"], "33576a36adddada3ee3fbd385a513b7bfaf0e0ba1ae73502d8cf488970020489"),
    ("all-bank", &["mcf_06", "libquantum_06", "lbm_06", "milc_06"], "0f919289036d467b68c08dad8c05e4940e1afb95408dc2d11bf61bbcda9d188e"),
    ("per-bank", &["mcf_06"], "a74ac43b85e5451047df726079f35729c3f9ff4ffe8d28b8d0f2a0a2033db107"),
    ("per-bank", &["mcf_06", "libquantum_06", "lbm_06", "milc_06"], "8b32e5cd990cdd03a9c033f50c4af2e3d36a96e19f12a57740b42380419e2d42"),
    ("darp", &["mcf_06"], "b8030178e528fa425e21e904d6fd6527b6c7ec67bf4f5bc0955fd911ac394db1"),
    ("darp", &["mcf_06", "libquantum_06", "lbm_06", "milc_06"], "cfa4fc171602bb893ed442ce273b35b3dddaf223c1805e6d8f2a37a360ab080d"),
];

/// The refresh matrix's reports match their recorded digests, and
/// all-bank, the default, is what plain `--extended-timing` runs.
#[test]
fn refresh_policy_reports_match_their_recorded_digests() {
    let report = |benches: &[&str], extra: &[&str]| {
        let mut args = vec!["padcsim", "--policy", "padc", "--instructions", "30000"];
        for bench in benches {
            args.extend(["--bench", bench]);
        }
        args.extend(["--extended-timing", "--json"]);
        args.extend(extra);
        accepted(&args)
    };
    for (policy, benches, digest) in REFRESH_REPORTS {
        let json = report(benches, &["--refresh-policy", policy]);
        assert!(json.contains("\"refreshes\""), "not a report: {json}");
        assert_eq!(
            padc_store::digest_hex(json.as_bytes()),
            digest,
            "{policy} on {benches:?}: {json}"
        );
        if policy == "all-bank" {
            common::assert_same_bytes(
                "cli-all-bank",
                ("all-bank.json", json.as_bytes()),
                ("default.json", report(benches, &[]).as_bytes()),
            );
        }
    }
}
