use padc_cache::CacheConfig;
use padc_core::scheduler::arbiter::PackedKey;
use padc_core::{ControllerConfig, DropThresholds, SchedulingPolicy};
use padc_cpu::CoreConfig;
use padc_dram::{DramConfig, ExtendedTiming, MappingScheme, RefreshPolicy, RowPolicy};
use padc_prefetch::PrefetcherKind;
use padc_types::{Cycle, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// The memory-policy surface of a [`SimConfig`], gathered into one typed
/// struct: row-buffer management (including the HAPPY hybrid policy that
/// used to be reachable only through the raw `dram.row_policy` knob),
/// refresh organization, and the optional extended DDR3 timing set the
/// refresh machinery depends on (`t_refi`/`t_rfc` live there).
///
/// This is a *view*: the fields are stored on [`SimConfig::dram`] (whose
/// serialized form — and therefore every store digest — is unchanged),
/// and [`SimConfig::mem_policy`] / [`SimConfig::with_mem_policy`] project
/// it out and back. Builder methods mirror the `SimConfig` ones so policy
/// bundles compose before being applied.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MemPolicyConfig {
    /// Row-buffer management policy (open/closed/HAPPY).
    pub row_policy: RowPolicy,
    /// Refresh organization (all-bank, per-bank, or per-bank + DARP
    /// pulls). Ignored unless `extended` timing is enabled.
    pub refresh_policy: RefreshPolicy,
    /// Extended DDR3 constraints (tRAS/tWR/tRTP/tFAW + `t_refi`/`t_rfc`);
    /// `None` keeps the paper's three-latency model and disables refresh.
    pub extended: Option<ExtendedTiming>,
}

impl MemPolicyConfig {
    /// Returns the bundle with a different row policy.
    #[must_use]
    pub fn with_row_policy(mut self, policy: RowPolicy) -> Self {
        self.row_policy = policy;
        self
    }

    /// Returns the bundle with a different refresh policy. Per-bank
    /// policies only refresh with extended timing enabled, so this turns
    /// it on (at the DDR3 defaults) when it is still off.
    #[must_use]
    pub fn with_refresh_policy(mut self, policy: RefreshPolicy) -> Self {
        self.refresh_policy = policy;
        if policy.per_bank() && self.extended.is_none() {
            self.extended = Some(ExtendedTiming::default());
        }
        self
    }

    /// Returns the bundle with the extended DDR3 timing set enabled.
    #[must_use]
    pub fn with_extended_timing(mut self, timing: ExtendedTiming) -> Self {
        self.extended = Some(timing);
        self
    }
}

/// Complete description of one simulated system. Defaults reproduce the
/// paper's baseline (Tables 3 and 4).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores.
    pub cores: usize,
    /// DRAM controller configuration (policy, buffer size, APD/urgency/
    /// ranking flags, thresholds).
    pub controller: ControllerConfig,
    /// Hardware prefetcher, or `None` for the no-prefetching baseline.
    pub prefetcher: Option<PrefetcherKind>,
    /// Dynamic Data Prefetch Filtering enabled (§6.12).
    pub ddpf: bool,
    /// Feedback-Directed Prefetching enabled (§6.12).
    pub fdp: bool,
    /// L1 data cache geometry (private, per core).
    pub l1: CacheConfig,
    /// L2 geometry: per-core private capacity, or the total when
    /// `shared_l2` is set.
    pub l2: CacheConfig,
    /// Use one shared last-level cache instead of private L2s (§6.10).
    pub shared_l2: bool,
    /// DRAM geometry/timing and row policy.
    pub dram: DramConfig,
    /// Physical address mapping (linear or permutation-based, §6.13).
    pub mapping: MappingScheme,
    /// Total L2 MSHR entries across the chip (Table 4: 64/64/128/256).
    pub mshr_entries: usize,
    /// Core microarchitecture (window size, width, runahead).
    pub core: CoreConfig,
    /// Instructions each core must retire before its stats freeze.
    pub max_instructions: u64,
    /// Hard wall-clock cap in cycles (safety net).
    pub max_cycles: Cycle,
    /// Workload generator seed.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's baseline system for `cores` cores under `policy`:
    /// private 512KB L2s (1MB when single-core), one DDR3 channel, stream
    /// prefetcher, Table 4 buffer/MSHR sizing.
    pub fn new(cores: usize, policy: SchedulingPolicy) -> Self {
        assert!(cores > 0, "need at least one core");
        let l2 = if cores == 1 {
            CacheConfig::l2_single_core()
        } else {
            CacheConfig::l2_private()
        };
        SimConfig {
            cores,
            controller: ControllerConfig::from_policy(policy, cores),
            prefetcher: Some(PrefetcherKind::Stream),
            ddpf: false,
            fdp: false,
            l1: CacheConfig::l1d(),
            l2,
            shared_l2: false,
            dram: DramConfig::default(),
            mapping: MappingScheme::Linear,
            // Each core's MSHR file is sized to the chip-wide request
            // buffer so that the *memory request buffer* is the resource
            // that limits prefetching — the paper's §1/§6.1 coverage
            // mechanism ("a useful prefetch is not issued into the memory
            // system because the memory request buffer is full").
            mshr_entries: ControllerConfig::buffer_entries_for(cores) * cores,
            core: CoreConfig::default(),
            max_instructions: 200_000,
            max_cycles: 2_000_000_000,
            seed: 1,
        }
    }

    /// Single-core baseline under `policy`.
    pub fn single_core(policy: SchedulingPolicy) -> Self {
        Self::new(1, policy)
    }

    /// Disables prefetching (the `no-pref` bars).
    #[must_use]
    pub fn without_prefetching(mut self) -> Self {
        self.prefetcher = None;
        self
    }

    /// The memory-policy bundle currently stored on [`SimConfig::dram`].
    pub fn mem_policy(&self) -> MemPolicyConfig {
        MemPolicyConfig {
            row_policy: self.dram.row_policy,
            refresh_policy: self.dram.refresh_policy,
            extended: self.dram.extended,
        }
    }

    /// Returns the config with the whole memory-policy bundle applied.
    #[must_use]
    pub fn with_mem_policy(mut self, policy: MemPolicyConfig) -> Self {
        self.dram.row_policy = policy.row_policy;
        self.dram.refresh_policy = policy.refresh_policy;
        self.dram.extended = policy.extended;
        self
    }

    /// Returns the config with a different row-buffer policy.
    #[must_use]
    pub fn with_row_policy(self, policy: RowPolicy) -> Self {
        let p = self.mem_policy().with_row_policy(policy);
        self.with_mem_policy(p)
    }

    /// Returns the config with a different refresh policy (enabling
    /// extended timing when a per-bank policy needs it; see
    /// [`MemPolicyConfig::with_refresh_policy`]).
    #[must_use]
    pub fn with_refresh_policy(self, policy: RefreshPolicy) -> Self {
        let p = self.mem_policy().with_refresh_policy(policy);
        self.with_mem_policy(p)
    }

    /// Returns the config with the extended DDR3 timing set enabled.
    #[must_use]
    pub fn with_extended_timing(self, timing: ExtendedTiming) -> Self {
        let p = self.mem_policy().with_extended_timing(timing);
        self.with_mem_policy(p)
    }

    /// MSHR entries available to each private L2 (total split evenly), or
    /// the whole pool for a shared L2.
    pub fn mshr_per_cache(&self) -> usize {
        if self.shared_l2 {
            self.mshr_entries
        } else {
            (self.mshr_entries / self.cores).max(1)
        }
    }

    /// Per-cache L2 geometry: the configured `l2` for private caches, or a
    /// shared cache scaled to the core count.
    pub fn l2_per_cache(&self) -> CacheConfig {
        if self.shared_l2 {
            CacheConfig::l2_shared(self.cores)
        } else {
            self.l2.clone()
        }
    }

    /// Largest `core.window_entries` and `mshr_entries`. Both tables are
    /// allocated whole when the system is built — a window as one 8-byte
    /// ring slot per entry, an MSHR table as a hash map of about 120 bytes
    /// per entry — so this caps them at 512 KiB and about 8 MiB. The
    /// registry's largest is 2048 MSHR entries.
    pub const MAX_TABLE_ENTRIES: usize = 1 << 16;

    /// Largest `l1.size_bytes` and per-cache L2 size. A cache's tag array
    /// is allocated whole, 24 bytes per 64-byte line, so this caps it at
    /// 96 MiB. The registry's largest cache is 8 MiB.
    pub const MAX_CACHE_BYTES: u64 = 1 << 28;

    /// Largest DRAM timing field, in DRAM bus cycles: about 6.4 s at
    /// 667 MHz, where DDR3's longest, `t_refi`, is 5 200. The model
    /// converts each timing to CPU cycles and adds it to the clock —
    /// `t_refi` as refresh windows `k·t_refi + b·stride` — so below this
    /// every such sum of a run shorter than 2^62 cycles stays in range.
    pub const MAX_DRAM_TIMING: Cycle = 1 << 32;

    /// Checks every rule a [`System`](crate::System) needs of its config,
    /// each stated once here, and names the field and the rule the first
    /// time one is broken. The layers below keep their own asserts as
    /// invariants for direct callers; this gate answers before any of them
    /// can fire, so a config file the model cannot run is an error
    /// message, not a panic.
    ///
    /// # Errors
    ///
    /// Returns `"<field> is <value>, <rule>"` for the first broken rule.
    pub fn check(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores is 0, must be at least 1".into());
        }
        if self.controller.cores != self.cores {
            return Err(format!(
                "controller.cores is {}, must equal cores ({})",
                self.controller.cores, self.cores
            ));
        }
        // A rank is a core's position among the per-core counts of queued
        // requests: below the core count and at most the entry count, and
        // both must fit the packed key's rank field. An empty buffer never
        // accepts a request: the run would spin to `max_cycles`.
        let rank_max = PackedKey::RANK_LIMIT as usize - 1;
        if self.cores > rank_max {
            return Err(format!(
                "cores is {}, must be at most {rank_max}",
                self.cores
            ));
        }
        let entries = self.controller.buffer_entries;
        if !(1..=rank_max).contains(&entries) {
            return Err(format!(
                "controller.buffer_entries is {entries}, must be between 1 and {rank_max}"
            ));
        }
        // Rules no lower layer asserts, since a config that breaks them
        // runs: a drain that starts at or below where it stops, and APD
        // accuracy bands out of order.
        let ctl = &self.controller;
        if ctl.write_drain && ctl.write_drain_high <= ctl.write_drain_low {
            return Err(format!(
                "controller.write_drain_high is {}, must exceed controller.write_drain_low ({})",
                ctl.write_drain_high, ctl.write_drain_low
            ));
        }
        let DropThresholds {
            breakpoints,
            thresholds,
        } = ctl.drop_thresholds;
        let in_unit = breakpoints.iter().all(|b| (0.0..=1.0).contains(b));
        if !(in_unit && breakpoints.windows(2).all(|w| w[0] < w[1])) {
            return Err(format!(
                "controller.drop_thresholds.breakpoints is {breakpoints:?}, \
                 must be strictly ascending within [0, 1]"
            ));
        }
        if !thresholds.windows(2).all(|w| w[0] <= w[1]) {
            return Err(format!(
                "controller.drop_thresholds.thresholds is {thresholds:?}, must be non-decreasing"
            ));
        }
        // A core with no window or no width never retires: the same spin.
        for (field, value) in [
            (
                "controller.accuracy_interval",
                self.controller.accuracy_interval,
            ),
            ("core.window_entries", self.core.window_entries as u64),
            ("core.width", self.core.width as u64),
            ("mshr_entries", self.mshr_entries as u64),
            ("max_instructions", self.max_instructions),
        ] {
            if value == 0 {
                return Err(format!("{field} is 0, must be at least 1"));
            }
        }
        // Past a bound the allocation itself could fail, which aborts.
        for (field, value) in [
            ("core.window_entries", self.core.window_entries),
            ("mshr_entries", self.mshr_entries),
        ] {
            if value > Self::MAX_TABLE_ENTRIES {
                return Err(format!(
                    "{field} is {value}, must be at most {}",
                    Self::MAX_TABLE_ENTRIES
                ));
            }
        }
        check_sets("l1", &self.l1)?;
        check_sets("l2", &self.l2_per_cache())?;
        let dram = &self.dram;
        for (field, value) in [("dram.channels", dram.channels), ("dram.banks", dram.banks)] {
            if !value.is_power_of_two() {
                return Err(format!("{field} is {value}, must be a power of two"));
            }
        }
        if dram.row_bytes < LINE_BYTES {
            return Err(format!(
                "dram.row_bytes is {}, must be at least one {LINE_BYTES}-byte line",
                dram.row_bytes
            ));
        }
        let extended = dram.extended.map(|e| {
            [
                ("dram.extended.t_ras", e.t_ras),
                ("dram.extended.t_wr", e.t_wr),
                ("dram.extended.t_rtp", e.t_rtp),
                ("dram.extended.t_faw", e.t_faw),
                ("dram.extended.t_refi", e.t_refi),
                ("dram.extended.t_rfc", e.t_rfc),
            ]
        });
        let timings = [
            ("dram.t_rp", dram.t_rp),
            ("dram.t_rcd", dram.t_rcd),
            ("dram.cl", dram.cl),
            ("dram.burst", dram.burst),
        ];
        for (field, value) in timings.into_iter().chain(extended.into_iter().flatten()) {
            if value > Self::MAX_DRAM_TIMING {
                return Err(format!(
                    "{field} is {value}, must be at most {}",
                    Self::MAX_DRAM_TIMING
                ));
            }
        }
        if let Some(e) = dram.extended {
            if e.t_faw == 0 {
                return Err("dram.extended.t_faw is 0, must be at least 1".into());
            }
            // `t_refi` 0 disables refresh; otherwise a refresh must end
            // before the next is due.
            if e.t_refi > 0 && !(e.t_rfc > 0 && e.t_refi > e.t_rfc) {
                return Err(format!(
                    "dram.extended.t_refi is {} with t_rfc {}, must exceed a nonzero t_rfc \
                     (or be 0: no refresh)",
                    e.t_refi, e.t_rfc
                ));
            }
        }
        Ok(())
    }

    /// Panics with [`SimConfig::check`]'s message on a config no
    /// [`System`](crate::System) can be built from.
    ///
    /// # Panics
    ///
    /// Panics when `check` fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid config: {e}");
        }
    }
}

/// The preconditions of [`CacheConfig::sets`] — `c` divides into a whole
/// power-of-two number of sets of `c.ways` lines — and a size whose tag
/// array can be allocated.
fn check_sets(name: &str, c: &CacheConfig) -> Result<(), String> {
    if c.size_bytes > SimConfig::MAX_CACHE_BYTES {
        return Err(format!(
            "{name}.size_bytes is {}, must be at most {}",
            c.size_bytes,
            SimConfig::MAX_CACHE_BYTES
        ));
    }
    let whole = (c.ways as u64)
        .checked_mul(LINE_BYTES)
        .is_some_and(|set_bytes| {
            let sets = c.size_bytes.checked_div(set_bytes).unwrap_or(0);
            sets.is_power_of_two() && sets * set_bytes == c.size_bytes
        });
    if whole {
        return Ok(());
    }
    Err(format!(
        "{name}.size_bytes is {} with {name}.ways {}, must be a power of two times \
         {name}.ways x {LINE_BYTES} bytes (one set)",
        c.size_bytes, c.ways
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_tables() {
        let c = SimConfig::new(4, SchedulingPolicy::DemandFirst);
        assert_eq!(c.controller.buffer_entries, 128);
        assert_eq!(c.mshr_entries, 512);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.dram.banks, 8);
        c.validate();
    }

    #[test]
    fn single_core_gets_1mb_l2() {
        let c = SimConfig::single_core(SchedulingPolicy::Padc);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert!(c.controller.apd);
    }

    #[test]
    fn shared_l2_scales_with_cores() {
        let mut c = SimConfig::new(8, SchedulingPolicy::DemandFirst);
        c.shared_l2 = true;
        assert_eq!(c.l2_per_cache().size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.mshr_per_cache(), 2048);
        c.validate();
    }

    #[test]
    fn without_prefetching_clears_prefetcher() {
        let c = SimConfig::single_core(SchedulingPolicy::DemandFirst).without_prefetching();
        assert!(c.prefetcher.is_none());
    }

    #[test]
    fn mshr_split_across_private_caches() {
        let c = SimConfig::new(4, SchedulingPolicy::DemandFirst);
        assert_eq!(c.mshr_per_cache(), 128);
    }

    #[test]
    #[should_panic]
    fn mismatched_controller_core_count_rejected() {
        let mut c = SimConfig::new(4, SchedulingPolicy::DemandFirst);
        c.cores = 2;
        c.validate();
    }

    #[test]
    fn mem_policy_round_trips_through_the_dram_fields() {
        let bundle = MemPolicyConfig::default()
            .with_row_policy(RowPolicy::Happy)
            .with_refresh_policy(padc_dram::RefreshPolicy::Darp);
        assert!(bundle.extended.is_some(), "per-bank refresh needs timing");
        let c = SimConfig::new(4, SchedulingPolicy::Padc).with_mem_policy(bundle);
        assert_eq!(c.dram.row_policy, RowPolicy::Happy);
        assert_eq!(c.dram.refresh_policy, padc_dram::RefreshPolicy::Darp);
        assert_eq!(c.dram.extended, Some(ExtendedTiming::default()));
        assert_eq!(c.mem_policy(), bundle);
    }

    #[test]
    fn refresh_policy_builder_keeps_an_explicit_timing_set() {
        let custom = ExtendedTiming {
            t_refi: 1000,
            ..ExtendedTiming::default()
        };
        let c = SimConfig::new(2, SchedulingPolicy::DemandFirst)
            .with_extended_timing(custom)
            .with_refresh_policy(padc_dram::RefreshPolicy::PerBank);
        assert_eq!(c.dram.extended, Some(custom), "builder must not clobber");
    }
}
