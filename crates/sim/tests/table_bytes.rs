//! Pins the *content* of every experiment's tables. The determinism tests
//! compare a run with itself and `--smoke` has one or two workloads per
//! set, where a sum-then-divide mean and a divide-then-add mean agree bit
//! for bit (division by a power of two is exact); here every system-size
//! set has three workloads, so the order of the mean's arithmetic — and
//! any other change to how a table is built from its reports — moves a
//! digest. The full-scale check against `repro_full.jsonl` is the ignored
//! `repro_full` test beside this one.

use std::path::PathBuf;

use padc_harness::{run_suite, HarnessConfig};
use padc_sim::experiments::{find, suite_jobs, ExpConfig, Scale, REGISTRY};
use padc_store::digest_hex;

/// SHA-256 of each experiment's payload (`{"paper_ref":…,"tables":[…]}`)
/// at the scale below, in registry order. A deliberate result change
/// re-records these beside its `RESULT_SCHEMA_VERSION` bump.
#[rustfmt::skip] // one row per line: a re-recorded digest is a one-line diff
const DIGESTS: [(&str, &str); 39] = [
    ("fig1", "167bf2da089e04e1b5a678f65a8298760ac3986471342dbb70e626ccd6af4b29"),
    ("fig2", "d0238e467d1d987bd6daa95fd54fbe6de5faf1caa98d39e3224c2619ccbac545"),
    ("fig4", "936f8b7c42da38c61e98964019aca5a6f4f21194fa16a7b4770e1c9e9ef96f7a"),
    ("fig6", "998fbc2c335e0f16f671b0b3eb84c59e071d4bb6f19ade1534004c5e7f4e3de0"),
    ("fig7", "9f8204beb4d28db8af40211ff1d767d6434fd0b2f169499b1e1c1c3fa01c13c2"),
    ("fig8", "4195c991b8b9a453c2eb94db64ae3286d78ffcca762f501d2b8a0b70f6627857"),
    ("tab5", "d8f4e7d4827a8ef58ae392aa5c7b1b2bc7f334e6e6aaf6d8973b3102d8dbd05c"),
    ("tab7", "76883579d113d059dda3a12cb67db2b1cb91c7b43e44ca8b88dc0fcb36a4155d"),
    ("fig9", "4054c3352d513511af28492f4ee2c89bdfff4de518b440d348d82b86dcd119f0"),
    ("case1", "9f45449f217fcc2d014c92b50b3c41cea0f6e505915f2ba95a9ce036d72aeabf"),
    ("case2", "ad62c1b18b4cb3e86fe1fa8496fa8d1a5b62bb66e875bc8bbef425fef8b2ea1e"),
    ("case3", "7fec0d752db12c9f2f7d1398c17e4eae090f740d3150baf4f4b01057c85835a0"),
    ("tab8", "e25e355393dd49fdcab2866c4403210e5d8f4cdab66e363e965b1017d6a30774"),
    ("tab9", "db44fe3c5b25d501c4cc05019fa00a8ee8c63420ff8773b132e5c19ac8cdb907"),
    ("tab10", "84b5f136ebf179589161a13e90a45a0f2d7877faf6214c7afb673ee3eedc518f"),
    ("fig16", "0a010399c5683858b0226d1759d8fd7d317c6c485df386eda27d0ce2f4f616a1"),
    ("fig17", "e9401d820c91cea521c20cc7e3605ea1b2f811d6ee215bc6962762ae09deaab5"),
    ("fig19", "09e7853aa914d58dd52a4271dc29de3e77e18aa8c2b849d0612bc4e3048fcbf4"),
    ("fig20", "f145ec1f6d85de5b261107f2f931daa0636c7f56f45206a6f09c468518608bb8"),
    ("fig21", "35e36b761ef3f89ae8445e57592e437bbd6853673fe381bbe35887e96a46c072"),
    ("fig22", "71ee82fc289c519040e37fbd1a253f30919395c325e5de77cb8c7c286055d85a"),
    ("fig23", "75967764ea764da944288111c2c417bccb9245adab5928274e6308811ae99c1c"),
    ("fig24", "170f45d30a4a8189545569f2cc80cb8b9ed742dd01d646a84cfda85d26ae32af"),
    ("fig25", "8fa8ad2b22f340468bb985d2268ba75cdaf9d285c0d7db8c75c275fd194326b5"),
    ("fig26", "5e9b6236824702a652eac9fa691f3d44308feb8e30e0c7499d069be00732ee76"),
    ("fig27", "c6f3ddace9a12cf9d32566a28028266f51f992eaea92671e4b226101f7573b71"),
    ("fig28", "51d1431bed7cdcd3e76e7228b356a56842bc334ccead2f8d6f7b55999a3df5a3"),
    ("fig29", "1d207583d691a4f57e81c2c5bce0a4e176e950953410f3ebb87b6f9955997e87"),
    ("fig30", "e487027b0f5f6c23cd88c485d2ccabe68eaa79663c7b6dcf0a3208bc88493d79"),
    ("fig31", "52641155b54b394cf6569998262e0c409cf51110245699264110c347845161af"),
    ("fig32", "10c724a600797aa8994227be3bd322fe12042dd9685f49b38bbd8a34d765ed44"),
    ("ext-batch", "00b70a753673aa88a7b9ae7dc49a3e6c780572a1740eda58029b7423e8694f40"),
    ("ext-timing", "b6b4dbd11075f24eabfef269fecfcb948b00ab3e631776f753e248dd4b0fe8c9"),
    ("ext-wdrain", "90cb5164446e56e1970871403fc3d0e0f7af6bcd295bae7376a19542601d6d81"),
    ("ext-dspatch", "d7f23669ec4de1f8bfb447f089962e19b0d12723fd7755812b6516b6cd15e697"),
    ("ext-happy", "a7010b5033ae5ae61a5e3aeb8fbc9c255d2bbbb27b9bf7019f1858adc8c7687c"),
    ("ext-refresh", "d2af20b94ad63619e8f5552e5a354c55823a4f85851bfd8bd8d3fd168e6a0e71"),
    ("cost", "7938a8ba57e51b9e0db772aa73e479424d3d5a92c5d1866043fed33299e5e718"),
    ("tab6", "f7adf8685af6f04b466157f7365c69b6b408011e7b97c03358c1e60a4f714553"),
];

#[test]
fn every_experiment_payload_matches_its_recorded_digest() {
    // Smoke budgets, but workload counts that are not powers of two.
    let cfg = ExpConfig {
        workloads_2core: 3,
        workloads_4core: 3,
        workloads_8core: 3,
        workloads_sweep: 2,
        ..ExpConfig::at(Scale::Smoke)
    };
    assert_eq!(
        DIGESTS.len(),
        REGISTRY.len(),
        "a registry row has no digest"
    );
    let selected = DIGESTS
        .iter()
        .map(|(id, _)| find(id).expect("registered experiment id"))
        .collect();
    let jobs = suite_jobs(selected, cfg, None);
    let mut jsonl = Vec::new();
    run_suite(
        &jobs,
        &HarnessConfig::default(),
        Some(&mut jsonl),
        &mut std::io::sink(),
    )
    .expect("suite I/O");
    let rows = String::from_utf8(jsonl).expect("JSONL is UTF-8");
    assert_eq!(rows.lines().count(), DIGESTS.len(), "one row per job");
    let mut moved = Vec::new();
    for (row, (id, recorded)) in rows.lines().zip(DIGESTS) {
        let ok = format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"result\":");
        let payload = row.strip_prefix(&ok).and_then(|r| r.strip_suffix('}'));
        let payload = payload.unwrap_or_else(|| panic!("{id} did not succeed: {row}"));
        let measured = digest_hex(payload.as_bytes());
        if measured != recorded {
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("table_bytes");
            std::fs::create_dir_all(&dir).expect("mismatch directory");
            std::fs::write(dir.join(format!("{id}.json")), payload).expect("payload written");
            moved.push(format!("(\"{id}\", \"{measured}\")"));
        }
    }
    assert!(
        moved.is_empty(),
        "{} payload(s) moved; each is under target/tmp/table_bytes/:\n{}",
        moved.len(),
        moved.join(",\n")
    );
}
