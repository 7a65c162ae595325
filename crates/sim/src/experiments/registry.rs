//! Experiment registry: every reproduction entry point as one row of
//! [`REGISTRY`], plus the adapter that turns rows into
//! [`padc_harness::JobSpec`]s for parallel, fault-isolated execution.
//!
//! The suite driver ([`crate::cli`], behind `repro` and `padcsim --suite`),
//! `padcsim serve` and `benchmark/` all go through [`find`] / [`select`].
//!
//! A row's [`Shape`] is data wherever the experiment is regular: a
//! [`Compare`] (arms × workloads, normalized by `IPC_alone`) for every
//! multi-core experiment and a [`Grid`] (benchmarks × arms) for the six
//! single-core ones. fig2, fig4, cost and tab6 are not grids of
//! simulations and stay plain functions that plan no units.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use padc_core::SchedulingPolicy::{ApsOnly, DemandFirst, DemandPrefetchEqual, Padc, PadcRank};
use padc_dram::RefreshPolicy::{AllBank, Darp, PerBank};
use padc_dram::RowPolicy::{Closed, Happy};
use padc_harness::JobSpec;
use padc_prefetch::PrefetcherKind::{Cdc, DsPatch, Markov, Stride};
use padc_workloads::profiles;

use super::infra::{execute_units, ExpConfig, ExpTable, SimUnit, UnitResult};
use super::micro;
use super::single::{self, Grid};
use super::spec::{
    Arm, Col, Column, Compare, Delta, Group, Layout, Mixes, Table, APS_APD, APS_ONLY, DEMAND_FIRST,
    EQUAL, NO_PREF, PADC, STANDARD, SYSTEM,
};
use crate::profile::ProfileTotal;

/// Every reproducible artifact: id, paper reference, and what it runs.
#[derive(Debug)]
pub struct Experiment {
    /// Harness id (`fig6`, `case2`, `tab7`, ...).
    pub id: &'static str,
    /// What the paper calls it.
    pub paper_ref: &'static str,
    /// The experiment itself.
    pub shape: Shape,
}

/// What an experiment is.
#[derive(Debug)]
pub enum Shape {
    /// Arms over a multiprogrammed workload set.
    Compare(Compare),
    /// Arms over single-core benchmarks.
    Grid(Grid),
    /// Tables built by hand from no planned units (fig2, fig4, cost, tab6).
    Plain(fn(&ExpConfig) -> Vec<ExpTable>),
}

impl Experiment {
    /// Plan phase: the experiment's independent, deterministically keyed
    /// simulation units.
    pub fn plan(&self, cfg: &ExpConfig) -> Vec<SimUnit> {
        match &self.shape {
            Shape::Compare(compare) => compare.plan(cfg),
            Shape::Grid(grid) => grid.plan(cfg),
            Shape::Plain(_) => Vec::new(),
        }
    }

    /// Reduce phase: folds the planned units' results into tables.
    pub fn reduce(&self, cfg: &ExpConfig, results: &[UnitResult]) -> Vec<ExpTable> {
        match &self.shape {
            Shape::Compare(compare) => compare.reduce(self.id, cfg, results),
            Shape::Grid(grid) => vec![grid.reduce(cfg, results)],
            Shape::Plain(tables) => tables(cfg),
        }
    }

    /// Runs the experiment: plan → [`execute_units`] → reduce, returning
    /// its tables and the summed profile of the units it simulated. The
    /// reduce runs after the experiment's own unit barrier, so table bytes
    /// never depend on scheduling.
    pub fn run(&self, cfg: &ExpConfig) -> (Vec<ExpTable>, ProfileTotal) {
        let (results, profile) = execute_units(&self.plan(cfg));
        (self.reduce(cfg, &results), profile)
    }
}

/// The three arms of the ranking figures (19, 20).
const RANKING: &[Arm] = &[DEMAND_FIRST, PADC, Arm::new("PADC-rank", PadcRank, &[])];

/// The four arms run under each prefetcher (Fig. 28, ext-dspatch).
const PER_PREFETCHER: &[Arm] = &[NO_PREF, DEMAND_FIRST, EQUAL, PADC];

/// ext-happy's arms: APS and APD both off, APS alone, and both.
const PER_ROW_POLICY: &[Arm] = &[DEMAND_FIRST, APS_ONLY, APS_APD];

/// ext-refresh's arms.
const PER_REFRESH: &[Arm] = &[DEMAND_FIRST, PADC];

/// The case studies' mixes (§6.3.1–6.3.3); Table 8 reuses the mixed one.
const FRIENDLY: [&str; 4] = ["swim_00", "bwaves_06", "leslie3d_06", "soplex_06"];
const UNFRIENDLY: [&str; 4] = ["art_00", "galgel_00", "ammp_00", "milc_06"];
const MIXED: [&str; 4] = ["omnetpp_06", "libquantum_06", "galgel_00", "GemsFDTD_06"];

/// One individual-speedup column per core, headed by its benchmark.
const fn speedups(mix: [&'static str; 4]) -> [Column; 4] {
    [
        (mix[0], Col::Is(0)),
        (mix[1], Col::Is(1)),
        (mix[2], Col::Is(2)),
        (mix[3], Col::Is(3)),
    ]
}

/// The case studies' three tables; the first takes its mix's [`speedups`].
const fn case_speedups(columns: &'static [Column]) -> Table {
    Table {
        suffix: "-is",
        title: "Individual speedup over running alone",
        columns,
    }
}
const CASE_SYSTEM: Table = Table {
    suffix: "-sys",
    title: "System performance and total traffic",
    columns: SYSTEM,
};
const CASE_TRAFFIC: Table = Table {
    suffix: "-traffic",
    title: "Per-arm traffic breakdown (lines)",
    columns: &[
        ("demand", Col::Demand),
        ("pref-useful", Col::Useful),
        ("pref-useless", Col::Useless),
    ],
};

/// Tables 9 and 10: per-copy speedups, then the system metrics.
const IDENTICAL: &[Column] = &[
    ("IS0", Col::Is(0)),
    ("IS1", Col::Is(1)),
    ("IS2", Col::Is(2)),
    ("IS3", Col::Is(3)),
    ("WS", Col::Ws),
    ("HS", Col::Hs),
    ("UF", Col::Uf),
];

const WS_AND_TRAFFIC: &[Column] = &[("WS", Col::Ws), ("traffic(lines)", Col::Traffic)];

/// The full experiment registry, in paper order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "fig1",
        paper_ref: "Figure 1 (motivation: rigid policies)",
        shape: Shape::Grid(Grid {
            benchmarks: single::fig1_benchmarks,
            arms: &[NO_PREF, DEMAND_FIRST, EQUAL],
            table: single::fig1,
        }),
    },
    Experiment {
        id: "fig2",
        paper_ref: "Figure 2 (scheduling example timelines)",
        shape: Shape::Plain(micro::fig2),
    },
    Experiment {
        id: "fig4",
        paper_ref: "Figure 4 (service-time histogram; accuracy phases)",
        shape: Shape::Plain(micro::fig4),
    },
    Experiment {
        id: "fig6",
        paper_ref: "Figure 6 (single-core IPC, 5 policies)",
        shape: Shape::Grid(Grid {
            benchmarks: profiles::all,
            arms: STANDARD,
            table: single::fig6,
        }),
    },
    Experiment {
        id: "fig7",
        paper_ref: "Figure 7 (stall time per load)",
        shape: Shape::Grid(Grid {
            benchmarks: profiles::all,
            arms: STANDARD,
            table: single::fig7,
        }),
    },
    Experiment {
        id: "fig8",
        paper_ref: "Figure 8 (bus traffic breakdown)",
        shape: Shape::Grid(Grid {
            benchmarks: profiles::all,
            arms: STANDARD,
            table: single::fig8,
        }),
    },
    Experiment {
        id: "tab5",
        paper_ref: "Table 5 (benchmark characteristics)",
        shape: Shape::Grid(Grid {
            benchmarks: profiles::all,
            arms: &[NO_PREF, DEMAND_FIRST],
            table: single::tab5,
        }),
    },
    Experiment {
        id: "tab7",
        paper_ref: "Table 7 (RBHU)",
        shape: Shape::Grid(Grid {
            benchmarks: profiles::all,
            arms: STANDARD,
            table: single::tab7,
        }),
    },
    Experiment {
        id: "fig9",
        paper_ref: "Figure 9 (2-core aggregate)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores2,
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[Table::system(
                "2-core average system performance and traffic",
            )]),
        }),
    },
    Experiment {
        id: "case1",
        paper_ref: "Figures 10-11 (case study I: all prefetch-friendly)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Named(FRIENDLY),
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[
                case_speedups(&speedups(FRIENDLY)),
                CASE_SYSTEM,
                CASE_TRAFFIC,
            ]),
        }),
    },
    Experiment {
        id: "case2",
        paper_ref: "Figures 12-13 (case study II: all prefetch-unfriendly)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Named(UNFRIENDLY),
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[
                case_speedups(&speedups(UNFRIENDLY)),
                CASE_SYSTEM,
                CASE_TRAFFIC,
            ]),
        }),
    },
    Experiment {
        id: "case3",
        paper_ref: "Figures 14-15 (case study III: mixed)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Named(MIXED),
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[case_speedups(&speedups(MIXED)), CASE_SYSTEM, CASE_TRAFFIC]),
        }),
    },
    Experiment {
        id: "tab8",
        paper_ref: "Table 8 (urgency ablation)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Named(MIXED),
            groups: &[Group::only(&[
                DEMAND_FIRST,
                Arm::new("aps-no-urgent", ApsOnly, &[Delta::NoUrgency]),
                Arm::new("aps", ApsOnly, &[]),
                Arm::new("aps-apd-no-urgent", Padc, &[Delta::NoUrgency]),
                APS_APD,
            ])],
            layout: Layout::PerGroup(&[Table {
                suffix: "",
                title: "Effect of prioritizing urgent requests (mixed 4-core workload)",
                columns: &[
                    ("IS(omnetpp)", Col::Is(0)),
                    ("IS(libquantum)", Col::Is(1)),
                    ("IS(galgel)", Col::Is(2)),
                    ("IS(GemsFDTD)", Col::Is(3)),
                    ("UF", Col::Uf),
                    ("WS", Col::Ws),
                    ("HS", Col::Hs),
                ],
            }]),
        }),
    },
    Experiment {
        id: "tab9",
        paper_ref: "Table 9 (4x libquantum)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Named(["libquantum_06"; 4]),
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[Table {
                suffix: "",
                title: "Four identical prefetch-friendly applications (libquantum x4)",
                columns: IDENTICAL,
            }]),
        }),
    },
    Experiment {
        id: "tab10",
        paper_ref: "Table 10 (4x milc)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Named(["milc_06"; 4]),
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[Table {
                suffix: "",
                title: "Four identical prefetch-unfriendly applications (milc x4)",
                columns: IDENTICAL,
            }]),
        }),
    },
    Experiment {
        id: "fig16",
        paper_ref: "Figure 16 (4-core aggregate)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores4,
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[Table::system(
                "4-core average system performance and traffic",
            )]),
        }),
    },
    Experiment {
        id: "fig17",
        paper_ref: "Figure 17 (8-core aggregate)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores8,
            groups: &[Group::only(STANDARD)],
            layout: Layout::PerGroup(&[Table::system(
                "8-core average system performance and traffic",
            )]),
        }),
    },
    Experiment {
        id: "fig19",
        paper_ref: "Figure 19 (ranking, 4-core)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores4,
            groups: &[Group::only(RANKING)],
            layout: Layout::PerGroup(&[Table::system(
                "PADC with request ranking, 4-core (WS/HS/UF/traffic)",
            )]),
        }),
    },
    Experiment {
        id: "fig20",
        paper_ref: "Figure 20 (ranking, 8-core)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores8,
            groups: &[Group::only(RANKING)],
            layout: Layout::PerGroup(&[Table::system(
                "PADC with request ranking, 8-core (WS/HS/UF/traffic)",
            )]),
        }),
    },
    Experiment {
        id: "fig21",
        paper_ref: "Figure 21 (dual controllers, 4-core)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores4,
            groups: &[Group::new("", &[Delta::Channels(2)], STANDARD)],
            layout: Layout::PerGroup(&[Table::system("Dual memory controllers, 4-core")]),
        }),
    },
    Experiment {
        id: "fig22",
        paper_ref: "Figure 22 (dual controllers, 8-core)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores8,
            groups: &[Group::new("", &[Delta::Channels(2)], STANDARD)],
            layout: Layout::PerGroup(&[Table::system("Dual memory controllers, 8-core")]),
        }),
    },
    Experiment {
        id: "fig23",
        paper_ref: "Figure 23 (row-buffer size sweep)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                Group::new("2KB", &[Delta::RowBytes(2 << 10)], STANDARD),
                Group::new("4KB", &[Delta::RowBytes(4 << 10)], STANDARD),
                Group::new("8KB", &[Delta::RowBytes(8 << 10)], STANDARD),
                Group::new("16KB", &[Delta::RowBytes(16 << 10)], STANDARD),
                Group::new("32KB", &[Delta::RowBytes(32 << 10)], STANDARD),
                Group::new("64KB", &[Delta::RowBytes(64 << 10)], STANDARD),
                Group::new("128KB", &[Delta::RowBytes(128 << 10)], STANDARD),
            ],
            layout: Layout::WsByGroup("Average 4-core WS vs DRAM row-buffer size"),
        }),
    },
    Experiment {
        id: "fig24",
        paper_ref: "Figure 24 (closed-row policy)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                // The open-row baseline only reports these two.
                Group::new("open-row", &[], &[DEMAND_FIRST, APS_APD]),
                Group::new("closed-row", &[Delta::Row(Closed)], STANDARD),
            ],
            layout: Layout::ArmByGroup(
                "Average 4-core WS and traffic under open- vs closed-row policies",
                WS_AND_TRAFFIC,
            ),
        }),
    },
    Experiment {
        id: "fig25",
        paper_ref: "Figure 25 (L2 size sweep)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                Group::new("512KB", &[Delta::L2Bytes(512 << 10)], STANDARD),
                Group::new("1024KB", &[Delta::L2Bytes(1024 << 10)], STANDARD),
                Group::new("2048KB", &[Delta::L2Bytes(2048 << 10)], STANDARD),
                Group::new("4096KB", &[Delta::L2Bytes(4096 << 10)], STANDARD),
                Group::new("8192KB", &[Delta::L2Bytes(8192 << 10)], STANDARD),
            ],
            layout: Layout::WsByGroup("Average 4-core WS vs per-core L2 capacity"),
        }),
    },
    Experiment {
        id: "fig26",
        paper_ref: "Figure 26 (shared L2, 4-core)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores4,
            groups: &[Group::new("", &[Delta::SharedL2], STANDARD)],
            layout: Layout::PerGroup(&[Table::system("Shared L2 (2MB/16-way), 4-core")]),
        }),
    },
    Experiment {
        id: "fig27",
        paper_ref: "Figure 27 (shared L2, 8-core)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Cores8,
            groups: &[Group::new("", &[Delta::SharedL2], STANDARD)],
            layout: Layout::PerGroup(&[Table::system("Shared L2 (4MB/32-way), 8-core")]),
        }),
    },
    Experiment {
        id: "fig28",
        paper_ref: "Figure 28 (stride / C/DC / Markov prefetchers)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                Group::new("stride", &[Delta::Prefetcher(Stride)], PER_PREFETCHER),
                Group::new("cdc", &[Delta::Prefetcher(Cdc)], PER_PREFETCHER),
                Group::new("markov", &[Delta::Prefetcher(Markov)], PER_PREFETCHER),
            ],
            layout: Layout::PerGroup(&[Table::system("PADC under the {} prefetcher, 4-core")]),
        }),
    },
    Experiment {
        id: "fig29",
        paper_ref: "Figure 29 (DDPF/FDP with demand-first and APS)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                DEMAND_FIRST,
                Arm::new("demand-first-ddpf", DemandFirst, &[Delta::Ddpf]),
                Arm::new("demand-first-fdp", DemandFirst, &[Delta::Fdp]),
                Arm::new("demand-first-apd", DemandFirst, &[Delta::Apd]),
                Arm::new("aps-ddpf", ApsOnly, &[Delta::Ddpf]),
                Arm::new("aps-fdp", ApsOnly, &[Delta::Fdp]),
                APS_APD,
            ])],
            layout: Layout::PerGroup(&[Table::system(
                "DDPF / FDP / APD with demand-first and APS, 4-core",
            )]),
        }),
    },
    Experiment {
        id: "fig30",
        paper_ref: "Figure 30 (DDPF/FDP with demand-pref-equal)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                DEMAND_FIRST,
                EQUAL,
                Arm::new(
                    "demand-pref-equal-ddpf",
                    DemandPrefetchEqual,
                    &[Delta::Ddpf],
                ),
                Arm::new("demand-pref-equal-fdp", DemandPrefetchEqual, &[Delta::Fdp]),
                Arm::new("aps", ApsOnly, &[]),
                APS_APD,
            ])],
            layout: Layout::PerGroup(&[Table::system(
                "DDPF / FDP with demand-prefetch-equal, 4-core",
            )]),
        }),
    },
    Experiment {
        id: "fig31",
        paper_ref: "Figure 31 (permutation-based interleaving)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                NO_PREF,
                Arm::new(
                    "no-pref-perm",
                    DemandFirst,
                    &[Delta::NoPrefetch, Delta::Permutation],
                ),
                DEMAND_FIRST,
                Arm::new("demand-first-perm", DemandFirst, &[Delta::Permutation]),
                Arm::new("aps-only-perm", ApsOnly, &[Delta::Permutation]),
                PADC,
                Arm::new("PADC-perm", Padc, &[Delta::Permutation]),
            ])],
            layout: Layout::PerGroup(&[Table::system(
                "Permutation-based page interleaving, 4-core",
            )]),
        }),
    },
    Experiment {
        id: "fig32",
        paper_ref: "Figure 32 (runahead execution)",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                NO_PREF,
                Arm::new(
                    "no-pref-ra",
                    DemandFirst,
                    &[Delta::NoPrefetch, Delta::Runahead],
                ),
                DEMAND_FIRST,
                Arm::new("demand-first-ra", DemandFirst, &[Delta::Runahead]),
                Arm::new("aps-only-ra", ApsOnly, &[Delta::Runahead]),
                PADC,
                Arm::new("PADC-ra", Padc, &[Delta::Runahead]),
            ])],
            layout: Layout::PerGroup(&[Table::system("Runahead execution, 4-core")]),
        }),
    },
    Experiment {
        id: "ext-batch",
        paper_ref: "Extension: PAR-BS batching on PADC",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                DEMAND_FIRST,
                PADC,
                Arm::new("PADC-rank", PadcRank, &[]),
                Arm::new("PADC-batch", Padc, &[Delta::Batching]),
                Arm::new("PADC-rank-batch", PadcRank, &[Delta::Batching]),
            ])],
            layout: Layout::PerGroup(&[Table::system(
                "Extension: PAR-BS batching on top of PADC, 4-core",
            )]),
        }),
    },
    Experiment {
        id: "ext-timing",
        paper_ref: "Extension: full DDR3 timing constraints",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                DEMAND_FIRST,
                Arm::new("demand-first-ext", DemandFirst, &[Delta::ExtendedTiming]),
                PADC,
                Arm::new("PADC-ext", Padc, &[Delta::ExtendedTiming]),
            ])],
            layout: Layout::PerGroup(&[Table::system(
                "Extension: full DDR3 timing constraints vs the paper's model, 4-core",
            )]),
        }),
    },
    Experiment {
        id: "ext-wdrain",
        paper_ref: "Extension: watermark write-drain scheduling",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[Group::only(&[
                DEMAND_FIRST,
                Arm::new("demand-first-wdrain", DemandFirst, &[Delta::WriteDrain]),
                PADC,
                Arm::new("PADC-wdrain", Padc, &[Delta::WriteDrain]),
            ])],
            layout: Layout::PerGroup(&[Table::system(
                "Extension: watermark write-drain vs writebacks-as-demands, 4-core",
            )]),
        }),
    },
    // DSPatch's dual-pattern modulator (Bera et al.; PAPERS.md) changes its
    // measured accuracy over time, which is exactly the input APS and APD
    // key on: does PADC's win hold when the prefetcher itself adapts?
    Experiment {
        id: "ext-dspatch",
        paper_ref: "Extension: DSPatch dual-pattern prefetcher under PADC",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                Group::new("stream", &[], PER_PREFETCHER),
                Group::new("dspatch", &[Delta::Prefetcher(DsPatch)], PER_PREFETCHER),
            ],
            layout: Layout::PerGroup(&[Table::system(
                "Extension: PADC under the {} prefetcher, 4-core",
            )]),
        }),
    },
    // The HAPPY-style per-row hybrid page policy (Ghasempour et al.;
    // PAPERS.md) against the static open- and closed-row policies, with
    // APS/APD off, APS alone, and both: prefetch-aware scheduling changes
    // which rows look reusable at precharge time, so the predictor's
    // training feeds back into the schedule.
    Experiment {
        id: "ext-happy",
        paper_ref: "Extension: HAPPY hybrid page policy",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                Group::new("open-row", &[], PER_ROW_POLICY),
                Group::new("closed-row", &[Delta::Row(Closed)], PER_ROW_POLICY),
                Group::new("happy", &[Delta::Row(Happy)], PER_ROW_POLICY),
            ],
            layout: Layout::ArmByGroup(
                "Extension: HAPPY hybrid page policy vs static open-/closed-row, 4-core",
                WS_AND_TRAFFIC,
            ),
        }),
    },
    // All-bank refresh blocks the channel for t_RFC every t_REFI; per-bank
    // staggers the windows so one bank at a time is out; DARP also pulls
    // refreshes early into idle banks (Chang et al.; PAPERS.md). Refresh
    // steals the bank time prefetches would speculate into: does PADC's win
    // survive, or grow with, the reclaimed bandwidth?
    Experiment {
        id: "ext-refresh",
        paper_ref: "Extension: per-bank refresh and DARP refresh-access parallelism",
        shape: Shape::Compare(Compare {
            mixes: Mixes::Sweep,
            groups: &[
                Group::new(
                    "all-bank",
                    &[Delta::ExtendedTiming, Delta::Refresh(AllBank)],
                    PER_REFRESH,
                ),
                Group::new("per-bank", &[Delta::Refresh(PerBank)], PER_REFRESH),
                Group::new("darp", &[Delta::Refresh(Darp)], PER_REFRESH),
            ],
            layout: Layout::PerGroup(&[Table::system("Extension: PADC under {} refresh, 4-core")]),
        }),
    },
    Experiment {
        id: "cost",
        paper_ref: "Tables 1-2 (hardware cost)",
        shape: Shape::Plain(micro::storage_cost),
    },
    Experiment {
        id: "tab6",
        paper_ref: "Table 6 (drop thresholds)",
        shape: Shape::Plain(micro::tab6),
    },
];

/// Finds an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Resolves a selection of ids as every entry point takes one: no ids, or
/// `all` anywhere among them, is the whole registry; otherwise each named
/// experiment once, at its first position.
///
/// # Errors
///
/// Names the first id that is not registered.
pub fn select(ids: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for id in ids.iter().filter(|id| **id != "all") {
        let e = find(id).ok_or_else(|| format!("unknown experiment id {id:?}"))?;
        if !selected.iter().any(|s| s.id == e.id) {
            selected.push(e);
        }
    }
    if ids.is_empty() || ids.contains(&"all") {
        selected = REGISTRY.iter().collect();
    }
    Ok(selected)
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
    experiments: Vec<&'static Experiment>,
    cfg: ExpConfig,
    stash: Option<TableStash>,
) -> Vec<JobSpec> {
    suite_jobs_profiled(experiments, cfg, stash, false)
}

/// [`suite_jobs`] with profiling toggled (`--profile` on both CLIs).
///
/// When `profile` is set, each payload carries the [`ProfileTotal`] its
/// experiment returns: the summed counters of every unit the experiment
/// simulated, wherever on the pool it ran (a unit another experiment
/// already computed runs nothing and adds nothing). Profiled payloads are
/// **not** byte-stable across runs (wall-clock fields), which is why the
/// determinism tests exercise the unprofiled path.
pub fn suite_jobs_profiled(
    experiments: Vec<&'static Experiment>,
    cfg: ExpConfig,
    stash: Option<TableStash>,
    profile: bool,
) -> Vec<JobSpec> {
    experiments
        .into_iter()
        .map(|e| {
            let stash = stash.clone();
            JobSpec::new(e.id, e.paper_ref, move || {
                let (tables, total) = e.run(&cfg);
                let payload = payload_json(e.paper_ref, &tables, profile.then_some(&total));
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
fn payload_json(paper_ref: &str, tables: &[ExpTable], profile: Option<&ProfileTotal>) -> String {
    let profile = match profile {
        Some(p) => format!(
            ",\"profile\":{}",
            serde_json::to_string(p).expect("profile serializes")
        ),
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
    use crate::experiments::{Scale, UnitKey};
    use crate::SimConfig;

    fn smoke() -> ExpConfig {
        ExpConfig::at(Scale::Smoke)
    }

    fn tables(id: &str) -> Vec<ExpTable> {
        find(id).expect("registered").run(&smoke()).0
    }

    /// The config `id` plans for `arm` in `group`.
    fn planned_config(id: &str, arm: &str, group: &str) -> SimConfig {
        let units = find(id).expect("registered").plan(&smoke());
        let unit = units
            .iter()
            .find(|u| u.key.arm == arm && u.key.variant == group)
            .unwrap_or_else(|| panic!("{id} plans no {arm} ({group})"));
        unit.config().clone()
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
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
    fn select_keeps_each_id_once_and_all_anywhere_is_the_registry() {
        let ids = |ids: &[&str]| -> Vec<&str> {
            let selected = select(ids).expect("known ids");
            selected.iter().map(|e| e.id).collect()
        };
        assert_eq!(ids(&["cost", "fig2", "cost"]), ["cost", "fig2"]);
        assert_eq!(ids(&[]).len(), REGISTRY.len());
        assert_eq!(ids(&["all", "cost"]).len(), REGISTRY.len());
        assert_eq!(ids(&["cost", "all"]).len(), REGISTRY.len());
        let unknown = select(&["all", "figx"]).expect_err("figx is not registered");
        assert_eq!(unknown, "unknown experiment id \"figx\"");
    }

    #[test]
    fn design_md_indexes_every_registry_id() {
        let design = include_str!("../../../../DESIGN.md");
        for e in REGISTRY {
            assert!(
                design.contains(&format!("\n| `{}` | ", e.id)),
                "DESIGN.md §4 has no row for {}",
                e.id
            );
        }
    }

    #[test]
    fn case_study_produces_three_tables() {
        let tables = tables("case3");
        let ids: Vec<&str> = tables.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["case3-is", "case3-sys", "case3-traffic"]);
        assert_eq!(tables[0].rows.len(), 5);
        assert!(tables[1].get("aps-apd (PADC)", "WS").unwrap() > 0.0);
    }

    #[test]
    fn identical_apps_have_similar_speedups_under_padc() {
        let t = tables("tab9").remove(0);
        let padc: Vec<f64> = (0..4)
            .map(|i| t.get("aps-apd (PADC)", &format!("IS{i}")).unwrap())
            .collect();
        let max = padc.iter().cloned().fold(f64::MIN, f64::max);
        let min = padc.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.6, "identical apps should progress evenly");
    }

    #[test]
    fn two_core_aggregate_runs_at_smoke_scale() {
        let t = tables("fig9").remove(0);
        assert_eq!(t.rows.len(), 5);
        assert!(t.get("demand-first", "WS").unwrap() > 0.0);
    }

    #[test]
    fn closed_row_table_has_both_policies() {
        let t = tables("fig24").remove(0);
        assert_eq!(t.rows.len(), 7);
        assert!(t.get("aps-apd (PADC) (open-row)", "WS").is_some());
        assert!(t.get("aps-apd (PADC) (closed-row)", "WS").is_some());
    }

    #[test]
    fn group_deltas_reach_the_planned_configs() {
        let row_bytes = |group| {
            planned_config("fig23", "demand-first", group)
                .dram
                .row_bytes
        };
        assert_eq!(row_bytes("2KB"), 2 * 1024);
        assert_eq!(row_bytes("128KB"), 128 * 1024);
        let l2 = planned_config("fig25", "aps-only", "8192KB").l2;
        assert_eq!(l2.size_bytes, 8192 * 1024);
        let row_policy = |group| {
            planned_config("ext-happy", "aps-only", group)
                .dram
                .row_policy
        };
        assert_eq!(row_policy("open-row"), padc_dram::RowPolicy::Open);
        assert_eq!(row_policy("closed-row"), Closed);
        assert_eq!(row_policy("happy"), Happy);
        assert_eq!(planned_config("fig22", "no-pref", "").dram.channels, 2);
        assert!(planned_config("fig27", "aps-only", "").shared_l2);
    }

    #[test]
    fn ext_dspatch_groups_swap_only_the_prefetcher_kind() {
        let stream = planned_config("ext-dspatch", "PADC", "stream");
        let dspatch = planned_config("ext-dspatch", "PADC", "dspatch");
        assert_eq!(
            stream.prefetcher,
            Some(padc_prefetch::PrefetcherKind::Stream)
        );
        assert_eq!(dspatch.prefetcher, Some(DsPatch));
        assert_eq!(
            stream,
            SimConfig {
                prefetcher: stream.prefetcher,
                ..dspatch
            }
        );
        // The no-pref arm stays prefetcher-less under both groups.
        let no_pref = planned_config("ext-dspatch", "no-pref", "dspatch");
        assert_eq!(no_pref.prefetcher, None);
    }

    #[test]
    fn ext_refresh_groups_cover_all_three_policies_with_timing_on() {
        for (group, policy) in [("all-bank", AllBank), ("per-bank", PerBank), ("darp", Darp)] {
            let cfg = planned_config("ext-refresh", "PADC", group);
            assert!(
                cfg.dram.extended.is_some(),
                "{group}: refresh arms need extended timing"
            );
            assert_eq!(cfg.dram.refresh_policy, policy);
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
        let cfg = smoke();
        for e in REGISTRY {
            let identities = || -> Vec<(UnitKey, String)> {
                e.plan(&cfg)
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
        let jobs = suite_jobs(vec![find("cost").unwrap()], smoke(), Some(stash.clone()));
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
            smoke().with_seed(0x9F0F),
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
