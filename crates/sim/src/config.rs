use padc_cache::CacheConfig;
use padc_core::{ControllerConfig, SchedulingPolicy};
use padc_cpu::CoreConfig;
use padc_dram::{DramConfig, ExtendedTiming, MappingScheme, RefreshPolicy, RowPolicy};
use padc_prefetch::PrefetcherKind;
use padc_types::Cycle;
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

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration.
    pub fn validate(&self) {
        assert!(self.cores > 0);
        assert_eq!(
            self.controller.cores, self.cores,
            "controller sized for wrong core count"
        );
        assert!(self.mshr_entries > 0);
        assert!(self.max_instructions > 0);
        let _ = self.l1.sets();
        let _ = self.l2_per_cache().sets();
    }
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
