use padc_types::{Cycle, CPU_CYCLES_PER_DRAM_CYCLE, LINE_BYTES};
use serde::{Deserialize, Serialize};

use crate::ExtendedTiming;

/// What the controller does with a row buffer after servicing an access
/// (§2.1 and §6.8 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum RowPolicy {
    /// Keep the row open after an access (the paper's default).
    #[default]
    Open,
    /// Precharge as soon as no outstanding request targets the open row.
    Closed,
    /// HAPPY-style hybrid address-based policy (Ghasempour et al.; see
    /// PAPERS.md): a per-row predictor votes, from each row's history of
    /// CAS-per-activation, whether to keep it open (like
    /// [`RowPolicy::Open`]) or precharge it once idle (like
    /// [`RowPolicy::Closed`]).
    Happy,
}

/// How periodic refresh is organized across a channel's banks (only
/// meaningful with [`crate::ExtendedTiming`] enabled and `t_refi > 0`;
/// without extended timing no refresh happens under any policy).
///
/// Every policy is one window grid (DESIGN.md §15): bank `b`'s windows open
/// at `k·t_refi + b·stride`. The default [`RefreshPolicy::AllBank`] puts
/// every bank on one boundary (`stride = 0`): every `t_refi` all banks are
/// busy for `t_rfc` and all rows close. The per-bank policies stagger the
/// banks, after Chang et al.'s refresh-access parallelism work (DARP/SARP;
/// see PAPERS.md).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum RefreshPolicy {
    /// All banks refresh together: every bank is busy for `t_rfc` every
    /// `t_refi` (the default).
    #[default]
    AllBank,
    /// Each bank refreshes on its own staggered `t_refi` window, occupying
    /// only that bank for `t_rfcpb` while the rest of the channel keeps
    /// serving requests.
    PerBank,
    /// [`RefreshPolicy::PerBank`] plus DARP-style out-of-order refresh:
    /// the controller may *pull* a bank's pending refresh early while the
    /// bank is idle (or during write drains), instead of always paying the
    /// deadline-forced refresh at the window boundary.
    Darp,
}

impl RefreshPolicy {
    /// True for the default policy (serde skip helper: configs carrying the
    /// default omit the field, keeping pre-existing serializations — and
    /// therefore store digests — byte-identical).
    pub fn is_all_bank(&self) -> bool {
        *self == RefreshPolicy::AllBank
    }

    /// True for the policies that stagger the banks' refresh windows.
    pub fn per_bank(&self) -> bool {
        !self.is_all_bank()
    }
}

/// DRAM geometry and timing, defaulting to the paper's Table 4 system:
/// DDR3-1333, 8 banks, 4KB rows, 15ns per command, BL=4 over a 16B bus.
///
/// Timing fields are expressed in DRAM bus cycles; the `_cpu()` accessors
/// convert to CPU cycles using [`CPU_CYCLES_PER_DRAM_CYCLE`].
///
/// ```
/// use padc_dram::DramConfig;
/// let cfg = DramConfig::default();
/// assert_eq!(cfg.banks, 8);
/// assert_eq!(cfg.lines_per_row(), 64);
/// assert_eq!(cfg.t_rp_cpu(), 100);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DramConfig {
    /// Independent channels, each with its own controller (§6.6 evaluates 2).
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Row buffer size in bytes per bank (§6.7 sweeps 2KB–128KB).
    pub row_bytes: u64,
    /// Precharge latency in DRAM bus cycles (15ns at 667MHz = 10).
    pub t_rp: Cycle,
    /// Activate (row open) latency in DRAM bus cycles.
    pub t_rcd: Cycle,
    /// CAS (read/write) latency in DRAM bus cycles.
    pub cl: Cycle,
    /// Data-bus occupancy of one burst in DRAM bus cycles. The paper's
    /// BL=4 on a 16B bus nominally moves a 64B line in 2 bus clocks; we use
    /// 4 to account for bus turnaround/rank overheads and to reproduce the
    /// paper's degree of bandwidth-boundedness (its 8-core system saturates
    /// the channel).
    pub burst: Cycle,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Optional extended DDR3 constraints (tRAS/tWR/tRTP/tFAW/refresh).
    /// `None` reproduces the paper's three-latency model exactly.
    #[serde(default)]
    pub extended: Option<ExtendedTiming>,
    /// Refresh organization (ignored without [`DramConfig::extended`]).
    /// Skipped when default so legacy serializations stay byte-identical.
    #[serde(default, skip_serializing_if = "RefreshPolicy::is_all_bank")]
    pub refresh_policy: RefreshPolicy,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 1,
            banks: 8,
            row_bytes: 4096,
            t_rp: 10,
            t_rcd: 10,
            cl: 10,
            burst: 4,
            row_policy: RowPolicy::Open,
            extended: None,
            refresh_policy: RefreshPolicy::AllBank,
        }
    }
}

impl DramConfig {
    /// Cache lines per row buffer.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / LINE_BYTES
    }

    /// Precharge latency in CPU cycles.
    pub fn t_rp_cpu(&self) -> Cycle {
        self.t_rp * CPU_CYCLES_PER_DRAM_CYCLE
    }

    /// Activate latency in CPU cycles.
    pub fn t_rcd_cpu(&self) -> Cycle {
        self.t_rcd * CPU_CYCLES_PER_DRAM_CYCLE
    }

    /// CAS latency in CPU cycles.
    pub fn cl_cpu(&self) -> Cycle {
        self.cl * CPU_CYCLES_PER_DRAM_CYCLE
    }

    /// Burst data-bus occupancy in CPU cycles.
    pub fn burst_cpu(&self) -> Cycle {
        self.burst * CPU_CYCLES_PER_DRAM_CYCLE
    }

    /// Unloaded service latency of a row-hit access (CAS + burst), CPU cycles.
    pub fn row_hit_latency(&self) -> Cycle {
        self.cl_cpu() + self.burst_cpu()
    }

    /// Unloaded service latency of a row-closed access, CPU cycles.
    pub fn row_closed_latency(&self) -> Cycle {
        self.t_rcd_cpu() + self.row_hit_latency()
    }

    /// Unloaded service latency of a row-conflict access, CPU cycles.
    pub fn row_conflict_latency(&self) -> Cycle {
        self.t_rp_cpu() + self.row_closed_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table4() {
        let c = DramConfig::default();
        assert_eq!(c.channels, 1);
        assert_eq!(c.banks, 8);
        assert_eq!(c.row_bytes, 4096);
        assert_eq!(c.row_policy, RowPolicy::Open);
        // 15ns per command at a 667MHz bus clock.
        assert_eq!(c.t_rp, c.t_rcd);
        assert_eq!(c.t_rcd, c.cl);
    }

    #[test]
    fn latency_ratio_is_one_to_three() {
        // The paper quotes row-hit 12.5ns vs row-conflict 37.5ns (1:3).
        let c = DramConfig::default();
        let hit = c.cl_cpu();
        let conflict = c.t_rp_cpu() + c.t_rcd_cpu() + c.cl_cpu();
        assert_eq!(conflict, 3 * hit);
    }

    #[test]
    fn loaded_latencies_are_ordered() {
        let c = DramConfig::default();
        assert!(c.row_hit_latency() < c.row_closed_latency());
        assert!(c.row_closed_latency() < c.row_conflict_latency());
    }

    #[test]
    fn default_refresh_policy_is_skipped_in_serialization() {
        // Store digests hash the serialized config: the new field must be
        // invisible for pre-existing (AllBank) configs, and round-trip for
        // the per-bank ones.
        let json = serde_json::to_string(&DramConfig::default()).unwrap();
        assert!(!json.contains("refresh_policy"), "default leaked: {json}");
        let back: DramConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.refresh_policy, RefreshPolicy::AllBank);

        let darp = DramConfig {
            refresh_policy: RefreshPolicy::Darp,
            ..DramConfig::default()
        };
        let json = serde_json::to_string(&darp).unwrap();
        assert!(
            json.contains("\"refresh_policy\":\"Darp\""),
            "missing: {json}"
        );
        let back: DramConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, darp);
    }

    #[test]
    fn lines_per_row_scales_with_row_bytes() {
        let mut c = DramConfig::default();
        assert_eq!(c.lines_per_row(), 64);
        c.row_bytes = 128 * 1024;
        assert_eq!(c.lines_per_row(), 2048);
    }
}
