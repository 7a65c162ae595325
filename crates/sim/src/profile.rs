//! Self-profiling for the simulation hot path.
//!
//! Every [`System`](crate::System) keeps a [`SimProfile`] of cheap
//! always-on counters: cycles stepped one by one, fast-forward jumps
//! taken, and cycles skipped by them. Wall-time phase breakdowns
//! (controller tick vs core tick) cost two `Instant` reads per cycle, so
//! they are gated behind a process-wide flag set by `--profile` on the
//! `padcsim` and `repro` binaries.
//!
//! For suite runs, every simulated unit returns its profile with its
//! report, and the unit layer sums the profiles of the units a batch
//! actually simulated into a [`ProfileTotal`] — a plain value the
//! experiment returns beside its tables and the suite renders as a
//! `profile` object in the experiment's JSONL row.
//!
//! Note that wall-times are inherently nondeterministic and fast-forward
//! counters differ between fast-forward-on and -off runs, which is why the
//! `profile` JSONL object is strictly opt-in: the determinism tests compare
//! artifacts produced *without* `--profile`.

use serde::{write_escaped, write_number, Number, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide switch for the wall-time phase timers.
static TIMING: AtomicBool = AtomicBool::new(false);

/// Enables or disables the per-phase wall-time timers of a stepped
/// cycle. Counters (steps, jumps) are always on; only the
/// `Instant`-based phase timing is gated.
pub fn set_timing_enabled(enabled: bool) {
    TIMING.store(enabled, Ordering::Relaxed);
}

/// True when the per-phase wall-time timers are enabled.
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Starts a phase timer (`None` while the timers are off).
pub(crate) fn clock() -> Option<std::time::Instant> {
    timing_enabled().then(std::time::Instant::now)
}

/// Adds the wall time since `t0` to `acc_ns`.
pub(crate) fn lap(t0: Option<std::time::Instant>, acc_ns: &mut u64) {
    if let Some(t0) = t0 {
        *acc_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Hot-path counters for one [`System`](crate::System).
///
/// `controller_ns` / `cores_ns` stay zero unless [`set_timing_enabled`]
/// was turned on; `wall_ns` is always measured (one `Instant` per run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Cycles advanced one at a time (every cycle in `off` mode; every
    /// cycle some component was due in `event` mode).
    pub cycles_stepped: u64,
    /// Clock jumps taken over spans in which nothing was due (`event`
    /// mode only).
    pub ff_jumps: u64,
    /// Cycles skipped by those jumps (not stepped).
    pub ff_cycles_skipped: u64,
    /// Core ticks actually executed (every core, every cycle in `off`
    /// mode; only *due* cores under `event`).
    pub core_cycles_ticked: u64,
    /// Per-core cycles elided as replayed stall-counter bumps instead of
    /// real ticks. In both modes `core_cycles_ticked + core_cycles_skipped
    /// == cores × total_cycles`; the skip ratio
    /// ([`SimProfile::core_skip_ratio`]) is floored in `tests/floors.rs`.
    pub core_cycles_skipped: u64,
    /// Lag-window resyncs: deferred stall replays applied when a lagging
    /// core was woken by a completion, became due, or was flushed at run
    /// exit.
    pub lag_resyncs: u64,
    /// Controller ticks actually executed (every cycle in `off` mode;
    /// only *proven-event* cycles under `event`).
    pub ctrl_cycles_stepped: u64,
    /// Controller ticks elided: cycles inside jumps plus stepped cycles
    /// whose tick the event proof showed to be a no-op. In both modes
    /// `ctrl_cycles_stepped + ctrl_cycles_skipped == total_cycles`;
    /// the skip ratio ([`SimProfile::ctrl_skip_ratio`]) is floored in
    /// `tests/floors.rs`.
    pub ctrl_cycles_skipped: u64,
    /// Controller ticks executed because a proven event was due (`event`
    /// mode only; zero elsewhere).
    pub ctrl_events_fired: u64,
    /// Bank-owner cache rebuilds in the controller's request buffer
    /// (copied from [`padc_core::BufferStats`] when the run finishes).
    pub owner_recomputes: u64,
    /// Bank-owner cache invalidations (clean-to-dirty transitions). The
    /// buffer maintains `owner_recomputes <= owner_invalidations`;
    /// `tests/floors.rs` asserts it end-to-end.
    pub owner_invalidations: u64,
    /// Scheduling queries served from a still-valid cached bank owner.
    pub owner_reuses: u64,
    /// Entries examined across all owner rebuilds (member-row scan volume).
    pub owner_scan_entries: u64,
    /// Per-bank ready-lane entries re-derived (one per bank a command or a
    /// buffer mutation touched, per scheduling pass). `tests/floors.rs`
    /// bounds it per executed controller event on the 8-core mix: a lane
    /// that is stale everywhere costs one per bank per pass instead.
    pub lane_refreshes: u64,
    /// DSPatch modulator mode flips (Coverage <-> Accuracy) summed over
    /// every core's prefetcher when the run finishes; zero for all other
    /// prefetchers. `tests/floors.rs` asserts this is nonzero for the
    /// `ext-dspatch` family, proving the dual-pattern modulator actually
    /// exercises both modes at smoke scale.
    pub dspatch_flips: u64,
    /// DARP refresh pulls: per-bank refreshes the controller issued early
    /// into idle banks (or during write drains) instead of paying the
    /// deadline-forced refresh at the t_REFI window boundary (copied from
    /// [`padc_dram::RefreshCounters`] when the run finishes; zero unless
    /// `RefreshPolicy::Darp`). `tests/floors.rs` asserts this is nonzero
    /// for the `ext-refresh` family and floors it on the 8-core mix.
    pub refresh_pulls: u64,
    /// Bank cycles occupied by refresh over the run — every bank's `t_rfc`
    /// per all-bank refresh — the bandwidth the refresh policy is
    /// competing to reclaim.
    pub refresh_stall_cycles: u64,
    /// Wall time spent in the controller phase of `step` (timers on only).
    pub controller_ns: u64,
    /// Wall time spent ticking cores (timers on only).
    pub cores_ns: u64,
    /// Wall time of the whole [`System::run`](crate::System::run) call.
    pub wall_ns: u64,
}

/// Rounds a 0..=1 ratio to a percentage with one decimal, matching the
/// `{:.1}` precision the old hand-formatted profile lines used.
fn pct(ratio: f64) -> f64 {
    (ratio * 1000.0).round() / 10.0
}

/// The `profile` JSON object (one key per [`SimProfile`] counter in
/// declaration order, plus the derived `core_skip_pct` / `ctrl_skip_pct`
/// percentages). This single serde surface is shared by the `padcsim`
/// `--profile` stderr line and the suite JSONL rows `repro --profile`
/// emits (via [`ProfileTotal`]).
impl Serialize for SimProfile {
    fn write_json(&self, out: &mut String) {
        write_object(out, self.entries());
    }
}

/// Appends `entries` as one JSON object.
fn write_object(out: &mut String, entries: impl IntoIterator<Item = (&'static str, Number)>) {
    out.push('{');
    for (i, (key, n)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, key);
        out.push(':');
        write_number(out, n);
    }
    out.push('}');
}

impl SimProfile {
    /// The `profile` object's entries, in order.
    fn entries(&self) -> [(&'static str, Number); 22] {
        let n = Number::U;
        [
            ("cycles_stepped", n(self.cycles_stepped)),
            ("ff_jumps", n(self.ff_jumps)),
            ("ff_cycles_skipped", n(self.ff_cycles_skipped)),
            ("core_cycles_ticked", n(self.core_cycles_ticked)),
            ("core_cycles_skipped", n(self.core_cycles_skipped)),
            ("lag_resyncs", n(self.lag_resyncs)),
            ("ctrl_cycles_stepped", n(self.ctrl_cycles_stepped)),
            ("ctrl_cycles_skipped", n(self.ctrl_cycles_skipped)),
            ("ctrl_events_fired", n(self.ctrl_events_fired)),
            ("owner_recomputes", n(self.owner_recomputes)),
            ("owner_invalidations", n(self.owner_invalidations)),
            ("owner_reuses", n(self.owner_reuses)),
            ("owner_scan_entries", n(self.owner_scan_entries)),
            ("lane_refreshes", n(self.lane_refreshes)),
            ("dspatch_flips", n(self.dspatch_flips)),
            ("refresh_pulls", n(self.refresh_pulls)),
            ("refresh_stall_cycles", n(self.refresh_stall_cycles)),
            ("controller_ns", n(self.controller_ns)),
            ("cores_ns", n(self.cores_ns)),
            ("wall_ns", n(self.wall_ns)),
            ("core_skip_pct", Number::F(pct(self.core_skip_ratio()))),
            ("ctrl_skip_pct", Number::F(pct(self.ctrl_skip_ratio()))),
        ]
    }

    /// Adds every counter of `p` into `self`: the one place profiles are
    /// summed (per-experiment totals in [`ProfileTotal`]).
    pub fn add(&mut self, p: &SimProfile) {
        self.cycles_stepped += p.cycles_stepped;
        self.ff_jumps += p.ff_jumps;
        self.ff_cycles_skipped += p.ff_cycles_skipped;
        self.core_cycles_ticked += p.core_cycles_ticked;
        self.core_cycles_skipped += p.core_cycles_skipped;
        self.lag_resyncs += p.lag_resyncs;
        self.ctrl_cycles_stepped += p.ctrl_cycles_stepped;
        self.ctrl_cycles_skipped += p.ctrl_cycles_skipped;
        self.ctrl_events_fired += p.ctrl_events_fired;
        self.owner_recomputes += p.owner_recomputes;
        self.owner_invalidations += p.owner_invalidations;
        self.owner_reuses += p.owner_reuses;
        self.owner_scan_entries += p.owner_scan_entries;
        self.lane_refreshes += p.lane_refreshes;
        self.dspatch_flips += p.dspatch_flips;
        self.refresh_pulls += p.refresh_pulls;
        self.refresh_stall_cycles += p.refresh_stall_cycles;
        self.controller_ns += p.controller_ns;
        self.cores_ns += p.cores_ns;
        self.wall_ns += p.wall_ns;
    }

    /// Fraction of core-cycles skipped rather than ticked (0 when nothing
    /// ran yet). `tests/floors.rs` holds the 8-core mix above 93.4%
    /// (96.4 measured).
    pub fn core_skip_ratio(&self) -> f64 {
        let total = self.core_cycles_ticked + self.core_cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.core_cycles_skipped as f64 / total as f64
        }
    }

    /// Fraction of controller ticks elided rather than executed (0 when
    /// nothing ran yet). `tests/floors.rs` holds the event kernel above
    /// 89.1% on the 8-core mix (92.1 measured) and 93.5% on the mcf single
    /// (96.5 measured).
    pub fn ctrl_skip_ratio(&self) -> f64 {
        let total = self.ctrl_cycles_stepped + self.ctrl_cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.ctrl_cycles_skipped as f64 / total as f64
        }
    }
}

/// The [`SimProfile`]s of a set of simulation runs, summed, with the number
/// of runs summed: what the unit layer returns for the units it simulated,
/// and so what an experiment returns beside its tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileTotal {
    /// Simulation runs summed.
    pub runs: u64,
    /// Their counters, summed.
    pub sum: SimProfile,
}

impl ProfileTotal {
    /// Adds one run's profile.
    pub fn add(&mut self, p: &SimProfile) {
        self.runs += 1;
        self.sum.add(p);
    }
}

/// The suite JSONL rows' `"profile"` object: a leading `runs` count
/// followed by the serde-serialized [`SimProfile`] fields, so every
/// consumer reads the same object shape `padcsim --profile` prints.
impl Serialize for ProfileTotal {
    fn write_json(&self, out: &mut String) {
        let runs = ("runs", Number::U(self.runs));
        write_object(out, std::iter::once(runs).chain(self.sum.entries()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_and_renders() {
        let mut total = ProfileTotal::default();
        total.add(&SimProfile {
            cycles_stepped: 10,
            ff_jumps: 2,
            ff_cycles_skipped: 90,
            core_cycles_ticked: 10,
            core_cycles_skipped: 90,
            lag_resyncs: 0,
            ctrl_cycles_stepped: 10,
            ctrl_cycles_skipped: 90,
            ctrl_events_fired: 0,
            owner_recomputes: 4,
            owner_invalidations: 6,
            owner_reuses: 20,
            owner_scan_entries: 12,
            lane_refreshes: 9,
            dspatch_flips: 3,
            refresh_pulls: 4,
            refresh_stall_cycles: 40,
            controller_ns: 0,
            cores_ns: 0,
            wall_ns: 5,
        });
        total.add(&SimProfile {
            cycles_stepped: 5,
            ff_jumps: 1,
            ff_cycles_skipped: 10,
            core_cycles_ticked: 8,
            core_cycles_skipped: 22,
            lag_resyncs: 7,
            ctrl_cycles_stepped: 2,
            ctrl_cycles_skipped: 13,
            ctrl_events_fired: 2,
            owner_recomputes: 1,
            owner_invalidations: 2,
            owner_reuses: 5,
            owner_scan_entries: 3,
            lane_refreshes: 2,
            dspatch_flips: 2,
            refresh_pulls: 2,
            refresh_stall_cycles: 17,
            controller_ns: 3,
            cores_ns: 4,
            wall_ns: 5,
        });
        assert_eq!(total.runs, 2);
        assert_eq!(
            serde_json::to_string(&total).unwrap(),
            "{\"runs\":2,\"cycles_stepped\":15,\"ff_jumps\":3,\
             \"ff_cycles_skipped\":100,\"core_cycles_ticked\":18,\
             \"core_cycles_skipped\":112,\"lag_resyncs\":7,\
             \"ctrl_cycles_stepped\":12,\"ctrl_cycles_skipped\":103,\
             \"ctrl_events_fired\":2,\
             \"owner_recomputes\":5,\"owner_invalidations\":8,\
             \"owner_reuses\":25,\"owner_scan_entries\":15,\
             \"lane_refreshes\":11,\
             \"dspatch_flips\":5,\
             \"refresh_pulls\":6,\"refresh_stall_cycles\":57,\
             \"controller_ns\":3,\"cores_ns\":4,\"wall_ns\":10,\
             \"core_skip_pct\":86.2,\"ctrl_skip_pct\":89.6}"
        );
    }

    #[test]
    fn single_run_profile_serializes_to_the_same_shape() {
        // `padcsim --profile` prints exactly this object (minus `runs`).
        let p = SimProfile {
            core_cycles_ticked: 25,
            core_cycles_skipped: 75,
            refresh_pulls: 9,
            ..SimProfile::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.starts_with("{\"cycles_stepped\":0,"), "{json}");
        assert!(json.contains("\"refresh_pulls\":9"), "{json}");
        assert!(json.contains("\"refresh_stall_cycles\":0"), "{json}");
        assert!(
            json.ends_with("\"core_skip_pct\":75,\"ctrl_skip_pct\":0}"),
            "{json}"
        );
    }

    #[test]
    fn core_skip_ratio_handles_empty_and_mixed() {
        assert_eq!(SimProfile::default().core_skip_ratio(), 0.0);
        let p = SimProfile {
            core_cycles_ticked: 25,
            core_cycles_skipped: 75,
            ..SimProfile::default()
        };
        assert!((p.core_skip_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ctrl_skip_ratio_handles_empty_and_mixed() {
        assert_eq!(SimProfile::default().ctrl_skip_ratio(), 0.0);
        let p = SimProfile {
            ctrl_cycles_stepped: 10,
            ctrl_cycles_skipped: 90,
            ..SimProfile::default()
        };
        assert!((p.ctrl_skip_ratio() - 0.90).abs() < 1e-12);
    }
}
