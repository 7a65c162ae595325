//! The streaming JSON writer against the tree printer over every
//! experiment at smoke scale: each simulation report and each table
//! serializes (`serde_json::to_string`, which streams) to the bytes
//! `write_value` prints for its `to_value` tree. Store payloads and the
//! JSONL rows are built from exactly these serializations.

use padc_harness::{run_suite, HarnessConfig};
use padc_sim::experiments::{self, suite_jobs, table_stash, ExpConfig, Scale, REGISTRY};
use padc_sim::Report;
use padc_store::{sha256, to_hex, Store};
use serde::Serialize;

/// `x` printed from its `Value` tree, the way `to_string` printed before it
/// streamed.
fn tree<T: Serialize + ?Sized>(x: &T) -> String {
    let mut out = String::new();
    serde_json::write_value(&mut out, &x.to_value(), None, 0);
    out
}

#[test]
fn every_smoke_report_and_table_streams_like_its_value_tree() {
    let exp = ExpConfig::at(Scale::Smoke);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("writer-store");
    let _ = std::fs::remove_dir_all(&dir);
    experiments::install_unit_store(&dir).expect("store opens");
    let stash = table_stash();
    let jobs = suite_jobs(REGISTRY.iter().collect(), exp, Some(stash.clone()));
    let config = HarnessConfig {
        workers: 2,
        budget: None,
        progress: false,
    };
    let summary = run_suite(&jobs, &config, None, &mut Vec::new()).expect("suite I/O");
    assert_eq!(summary.failed(), 0, "an experiment failed");

    let stash = stash.lock().expect("stash");
    let mut tables = 0;
    for e in REGISTRY {
        let stashed = stash
            .get(e.id)
            .expect("every experiment stashes its tables");
        for table in stashed {
            assert_eq!(
                serde_json::to_string(table).ok(),
                Some(tree(table)),
                "{}",
                e.id
            );
            tables += 1;
        }
        assert_eq!(
            serde_json::to_string(stashed).ok(),
            Some(tree(stashed)),
            "{}",
            e.id
        );
    }
    assert!(tables > REGISTRY.len(), "only {tables} tables");

    // The suite stored every unit it simulated: read each one back.
    let store = Store::open(&dir).expect("store opens");
    let mut reports = 0;
    for e in REGISTRY {
        for unit in e.plan(&exp) {
            let meta = unit.store_meta();
            let entry = store.load(&to_hex(&sha256(meta.as_bytes())), &meta);
            let report: Report = serde_json::from_str(&entry.expect("a stored unit"))
                .expect("a stored report parses");
            assert_eq!(
                serde_json::to_string(&report).ok(),
                Some(tree(&report)),
                "{}: {:?}",
                e.id,
                unit.key
            );
            reports += 1;
        }
    }
    assert!(reports > 0, "the registry planned no units");
    experiments::uninstall_unit_store();
    std::fs::remove_dir_all(&dir).expect("store removed");
}
