//! Experiment registry: every reproduction entry point as a self-describing
//! record, plus the adapter that turns registry entries into
//! [`padc_harness::JobSpec`]s for parallel, fault-isolated execution.
//!
//! The suite driver ([`crate::cli`], behind `repro` and `padcsim --suite`),
//! `padcsim serve` and the benches enumerate this one list.
//!
//! An entry carries an [`ExpKind`]: its plan of independent
//! [`SimUnit`](super::SimUnit)s, which the suite jobs resolve through the
//! unit cache and fan out onto the shared harness pool, and the reduce
//! that folds the reports into tables. fig2, fig4, cost and tab6 plan no
//! units.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use padc_harness::JobSpec;

use super::{self as exp, CaseStudy, ExpConfig, ExpKind, ExpTable};

/// Every reproducible artifact: id, paper reference, and how it executes.
pub struct Experiment {
    /// Harness id (`fig6`, `case2`, `tab7`, ...).
    pub id: &'static str,
    /// What the paper calls it.
    pub paper_ref: &'static str,
    /// The experiment's plan and reduce phases.
    pub kind: ExpKind,
}

impl Experiment {
    /// Runs the experiment: plan → execute → reduce.
    pub fn tables(&self, cfg: &ExpConfig) -> Vec<ExpTable> {
        self.kind.tables(cfg)
    }
}

/// An experiment that plans zero units and builds its tables in `reduce`:
/// the hand-traced timeline (fig2), the step-sampled fig4, and the pure
/// cost computations (cost, tab6).
fn unit_free(tables: fn(&ExpConfig) -> Vec<ExpTable>) -> ExpKind {
    ExpKind::new(|_| Vec::new(), move |cfg, _| tables(cfg))
}

/// The full experiment registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            paper_ref: "Figure 1 (motivation: rigid policies)",
            kind: exp::single::fig1_kind(),
        },
        Experiment {
            id: "fig2",
            paper_ref: "Figure 2 (scheduling example timelines)",
            kind: unit_free(|c| vec![exp::fig2_scheduling_example(c)]),
        },
        Experiment {
            id: "fig4",
            paper_ref: "Figure 4 (service-time histogram; accuracy phases)",
            kind: unit_free(exp::fig4_service_time_and_phases),
        },
        Experiment {
            id: "fig6",
            paper_ref: "Figure 6 (single-core IPC, 5 policies)",
            kind: exp::single::fig6_kind(),
        },
        Experiment {
            id: "fig7",
            paper_ref: "Figure 7 (stall time per load)",
            kind: exp::single::fig7_kind(),
        },
        Experiment {
            id: "fig8",
            paper_ref: "Figure 8 (bus traffic breakdown)",
            kind: exp::single::fig8_kind(),
        },
        Experiment {
            id: "tab5",
            paper_ref: "Table 5 (benchmark characteristics)",
            kind: exp::single::tab5_kind(),
        },
        Experiment {
            id: "tab7",
            paper_ref: "Table 7 (RBHU)",
            kind: exp::single::tab7_kind(),
        },
        Experiment {
            id: "fig9",
            paper_ref: "Figure 9 (2-core aggregate)",
            kind: exp::multi::fig9_kind(),
        },
        Experiment {
            id: "case1",
            paper_ref: "Figures 10-11 (case study I: all prefetch-friendly)",
            kind: exp::multi::case_kind(CaseStudy::AllFriendly),
        },
        Experiment {
            id: "case2",
            paper_ref: "Figures 12-13 (case study II: all prefetch-unfriendly)",
            kind: exp::multi::case_kind(CaseStudy::AllUnfriendly),
        },
        Experiment {
            id: "case3",
            paper_ref: "Figures 14-15 (case study III: mixed)",
            kind: exp::multi::case_kind(CaseStudy::Mixed),
        },
        Experiment {
            id: "tab8",
            paper_ref: "Table 8 (urgency ablation)",
            kind: exp::multi::tab8_kind(),
        },
        Experiment {
            id: "tab9",
            paper_ref: "Table 9 (4x libquantum)",
            kind: exp::multi::tab9_kind(),
        },
        Experiment {
            id: "tab10",
            paper_ref: "Table 10 (4x milc)",
            kind: exp::multi::tab10_kind(),
        },
        Experiment {
            id: "fig16",
            paper_ref: "Figure 16 (4-core aggregate)",
            kind: exp::multi::fig16_kind(),
        },
        Experiment {
            id: "fig17",
            paper_ref: "Figure 17 (8-core aggregate)",
            kind: exp::multi::fig17_kind(),
        },
        Experiment {
            id: "fig19",
            paper_ref: "Figure 19 (ranking, 4-core)",
            kind: exp::multi::fig19_kind(),
        },
        Experiment {
            id: "fig20",
            paper_ref: "Figure 20 (ranking, 8-core)",
            kind: exp::multi::fig20_kind(),
        },
        Experiment {
            id: "fig21",
            paper_ref: "Figure 21 (dual controllers, 4-core)",
            kind: exp::multi::fig21_kind(),
        },
        Experiment {
            id: "fig22",
            paper_ref: "Figure 22 (dual controllers, 8-core)",
            kind: exp::multi::fig22_kind(),
        },
        Experiment {
            id: "fig23",
            paper_ref: "Figure 23 (row-buffer size sweep)",
            kind: exp::sweeps::fig23_kind(),
        },
        Experiment {
            id: "fig24",
            paper_ref: "Figure 24 (closed-row policy)",
            kind: exp::sweeps::fig24_kind(),
        },
        Experiment {
            id: "fig25",
            paper_ref: "Figure 25 (L2 size sweep)",
            kind: exp::sweeps::fig25_kind(),
        },
        Experiment {
            id: "fig26",
            paper_ref: "Figure 26 (shared L2, 4-core)",
            kind: exp::multi::fig26_kind(),
        },
        Experiment {
            id: "fig27",
            paper_ref: "Figure 27 (shared L2, 8-core)",
            kind: exp::multi::fig27_kind(),
        },
        Experiment {
            id: "fig28",
            paper_ref: "Figure 28 (stride / C/DC / Markov prefetchers)",
            kind: exp::mechanisms::fig28_kind(),
        },
        Experiment {
            id: "fig29",
            paper_ref: "Figure 29 (DDPF/FDP with demand-first and APS)",
            kind: exp::mechanisms::fig29_kind(),
        },
        Experiment {
            id: "fig30",
            paper_ref: "Figure 30 (DDPF/FDP with demand-pref-equal)",
            kind: exp::mechanisms::fig30_kind(),
        },
        Experiment {
            id: "fig31",
            paper_ref: "Figure 31 (permutation-based interleaving)",
            kind: exp::mechanisms::fig31_kind(),
        },
        Experiment {
            id: "fig32",
            paper_ref: "Figure 32 (runahead execution)",
            kind: exp::mechanisms::fig32_kind(),
        },
        Experiment {
            id: "ext-batch",
            paper_ref: "Extension: PAR-BS batching on PADC",
            kind: exp::mechanisms::ext_batch_kind(),
        },
        Experiment {
            id: "ext-timing",
            paper_ref: "Extension: full DDR3 timing constraints",
            kind: exp::mechanisms::ext_timing_kind(),
        },
        Experiment {
            id: "ext-wdrain",
            paper_ref: "Extension: watermark write-drain scheduling",
            kind: exp::mechanisms::ext_wdrain_kind(),
        },
        Experiment {
            id: "ext-dspatch",
            paper_ref: "Extension: DSPatch dual-pattern prefetcher under PADC",
            kind: exp::mechanisms::ext_dspatch_kind(),
        },
        Experiment {
            id: "ext-happy",
            paper_ref: "Extension: HAPPY hybrid page policy",
            kind: exp::sweeps::ext_happy_kind(),
        },
        Experiment {
            id: "ext-refresh",
            paper_ref: "Extension: per-bank refresh and DARP refresh-access parallelism",
            kind: exp::mechanisms::ext_refresh_kind(),
        },
        Experiment {
            id: "cost",
            paper_ref: "Tables 1-2 (hardware cost)",
            kind: unit_free(|c| vec![exp::tab1_2_cost(c)]),
        },
        Experiment {
            id: "tab6",
            paper_ref: "Table 6 (drop thresholds)",
            kind: unit_free(|c| vec![exp::tab6_thresholds(c)]),
        },
    ]
}

/// Finds an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

/// Shared stash the suite jobs fill with their rendered tables, so callers
/// can print human-readable output after the parallel run (JSONL payloads
/// carry the same tables as JSON).
pub type TableStash = Arc<Mutex<HashMap<String, Vec<ExpTable>>>>;

/// Creates an empty [`TableStash`].
pub fn table_stash() -> TableStash {
    Arc::new(Mutex::new(HashMap::new()))
}

/// Adapts registry entries into harness jobs (no profiling).
///
/// Each job runs its experiment at `cfg` scale and returns the payload
/// `{"paper_ref":...,"tables":[...]}` as compact JSON. When `stash` is
/// given, the job also deposits its `Vec<ExpTable>` there (keyed by id)
/// for post-run rendering.
///
/// Each experiment's cache-missing units fan out as first-class sub-jobs
/// on the shared worker pool, so `--jobs N` load-balances across all units
/// of all experiments; the experiment's `reduce` runs after its own unit
/// barrier, so payload bytes never depend on scheduling.
pub fn suite_jobs(
    experiments: Vec<Experiment>,
    cfg: ExpConfig,
    stash: Option<TableStash>,
) -> Vec<JobSpec> {
    suite_jobs_profiled(experiments, cfg, stash, false)
}

/// [`suite_jobs`] with profiling toggled (`--profile` on both CLIs).
///
/// When `profile` is set, every job installs a fresh
/// [`ProfileAccum`](crate::profile::ProfileAccum) as the harness task
/// context for the duration of its experiment, so each `System::run` the
/// experiment performs — including runs fanned out over `subjob_map` —
/// folds its counters into that experiment's accumulator (a unit another
/// experiment already computed runs nothing and adds nothing). Profiled
/// payloads are **not** byte-stable across runs (wall-clock fields), which
/// is why the determinism tests exercise the unprofiled path.
pub fn suite_jobs_profiled(
    experiments: Vec<Experiment>,
    cfg: ExpConfig,
    stash: Option<TableStash>,
    profile: bool,
) -> Vec<JobSpec> {
    experiments
        .into_iter()
        .map(|e| {
            let stash = stash.clone();
            JobSpec::new(e.id, e.paper_ref, move || {
                let (tables, prof) = if profile {
                    let acc = crate::profile::new_accum();
                    let tables = padc_harness::with_task_context(acc.clone(), || e.tables(&cfg));
                    (tables, Some(acc.to_json()))
                } else {
                    (e.tables(&cfg), None)
                };
                let payload = payload_json(e.paper_ref, &tables, prof.as_deref());
                if let Some(s) = &stash {
                    s.lock()
                        .expect("stash lock")
                        .insert(e.id.to_string(), tables);
                }
                payload
            })
        })
        .collect()
}

/// Renders one job payload: paper reference plus the experiment's tables,
/// plus the optional profile object (appended last so payload prefixes
/// stay stable).
fn payload_json(paper_ref: &str, tables: &[ExpTable], profile: Option<&str>) -> String {
    let profile = match profile {
        Some(p) => format!(",\"profile\":{p}"),
        None => String::new(),
    };
    format!(
        "{{\"paper_ref\":{},\"tables\":{}{profile}}}",
        serde_json::to_string(&paper_ref.to_string()).expect("string serializes"),
        serde_json::to_string(&tables.to_vec()).expect("tables serialize"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn registry_covers_all_paper_artifacts() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        for required in [
            "fig1", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig16", "fig17", "fig19",
            "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27", "fig28",
            "fig29", "fig30", "fig31", "fig32", "tab5", "tab6", "tab7", "tab8", "tab9", "tab10",
            "case1", "case2", "case3", "cost",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "duplicate experiment ids in registry");
    }

    #[test]
    fn find_resolves_known_ids() {
        assert!(find("fig6").is_some());
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn tiny_experiments_run_end_to_end() {
        let cfg = ExpConfig::at(Scale::Smoke);
        for id in ["fig2", "cost", "tab6"] {
            let e = find(id).unwrap();
            let tables = e.tables(&cfg);
            assert!(!tables.is_empty(), "{id} produced no tables");
        }
    }

    #[test]
    fn plans_are_pure_and_keys_determine_digests() {
        // Simulation-free: `reduce` addresses results by `UnitKey` while
        // the cache is keyed by the digest of `store_meta` alone, so a
        // plan must be a pure function of its config and, within one plan,
        // equal keys must mean equal metas (otherwise
        // `UnitResults::by_key` would silently pick one of two different
        // simulations).
        let cfg = ExpConfig::at(Scale::Smoke);
        for e in registry() {
            let identities = || -> Vec<(exp::UnitKey, String)> {
                (e.kind.plan)(&cfg)
                    .iter()
                    .map(|u| (u.key.clone(), u.store_meta()))
                    .collect()
            };
            let units = identities();
            assert_eq!(units, identities(), "{}: plan is not pure", e.id);
            let mut meta_of = HashMap::new();
            for (key, meta) in &units {
                assert_eq!(
                    *meta_of.entry(key).or_insert(meta),
                    meta,
                    "{}: key {key:?} names two different simulations",
                    e.id
                );
            }
        }
    }

    #[test]
    fn suite_jobs_mirror_the_registry_and_stash_tables() {
        let stash = table_stash();
        let jobs = suite_jobs(
            vec![find("cost").unwrap()],
            ExpConfig::at(Scale::Smoke),
            Some(stash.clone()),
        );
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "cost");
        let payload = (jobs[0].run)();
        assert!(payload.starts_with("{\"paper_ref\":\"Tables 1-2 (hardware cost)\""));
        let parsed = serde_json::parse(&payload).expect("payload is valid JSON");
        assert!(parsed.get("tables").and_then(|t| t.as_array()).is_some());
        assert!(
            parsed.get("profile").is_none(),
            "unprofiled payloads must not carry a profile object"
        );
        assert!(stash.lock().unwrap().contains_key("cost"));
    }

    #[test]
    fn profiled_jobs_append_a_profile_object() {
        // A seed no other test uses: a unit some other test in this binary
        // had already settled would resolve from the cache and run nothing.
        let jobs = suite_jobs_profiled(
            vec![find("fig1").unwrap()],
            ExpConfig::at(Scale::Smoke).with_seed(0x9F0F),
            None,
            true,
        );
        let payload = (jobs[0].run)();
        assert!(payload.starts_with("{\"paper_ref\":"));
        let parsed = serde_json::parse(&payload).expect("payload is valid JSON");
        let profile = parsed.get("profile").expect("profile object appended");
        let runs = profile
            .get("runs")
            .and_then(|r| r.as_f64())
            .expect("runs counter");
        assert!(runs > 0.0, "no simulation runs folded into the profile");
        for key in ["cycles_stepped", "ff_jumps", "ff_cycles_skipped", "wall_ns"] {
            assert!(profile.get(key).is_some(), "profile misses {key}");
        }
    }
}
