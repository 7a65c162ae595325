//! The JSON writer over every experiment at smoke scale: each stored
//! simulation report and each table reads back (`serde_json::from_str`)
//! to a value that writes (`serde_json::to_string`) the same bytes again.
//! Store payloads and the JSONL rows are built from exactly these
//! serializations.

use padc_harness::{run_suite, HarnessConfig};
use padc_sim::experiments::{self, suite_jobs, table_stash, ExpConfig, ExpTable, Scale, REGISTRY};
use padc_sim::Report;
use padc_store::{sha256, to_hex, Store};
use serde::{Deserialize, Serialize};

/// `text` read as a `T` and written again.
fn rewritten<T: Serialize + Deserialize>(text: &str) -> String {
    let value: T = serde_json::from_str(text).expect("written JSON reads back");
    serde_json::to_string(&value).expect("a value writes")
}

#[test]
fn every_smoke_report_and_table_round_trips_byte_for_byte() {
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
            let written = serde_json::to_string(table).expect("a table writes");
            assert_eq!(rewritten::<ExpTable>(&written), written, "{}", e.id);
            tables += 1;
        }
    }
    assert!(tables > REGISTRY.len(), "only {tables} tables");

    // The suite stored every unit it simulated: read each one back.
    let store = Store::open(&dir).expect("store opens");
    let mut reports = 0;
    for e in REGISTRY {
        for unit in e.plan(&exp) {
            let meta = unit.store_meta();
            let entry = store
                .load(&to_hex(&sha256(meta.as_bytes())), &meta)
                .expect("a stored unit");
            assert_eq!(rewritten::<Report>(&entry), entry, "{}", e.id);
            reports += 1;
        }
    }
    assert!(reports > 0, "the registry planned no units");
    experiments::uninstall_unit_store();
    std::fs::remove_dir_all(&dir).expect("store removed");
}
