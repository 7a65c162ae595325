use serde::{Deserialize, Serialize};

/// Counters accumulated by a [`crate::MemoryController`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Demand requests serviced (CAS issued), including promoted prefetches.
    pub demands_serviced: u64,
    /// Prefetch requests serviced while still prefetches.
    pub prefetches_serviced: u64,
    /// Demand requests whose first DRAM command was the CAS (row hit).
    pub demand_row_hits: u64,
    /// Prefetch requests (still prefetches at service) that were row hits.
    pub prefetch_row_hits: u64,
    /// Prefetches dropped by Adaptive Prefetch Dropping.
    pub prefetches_dropped: u64,
    /// Requests rejected at enqueue because the buffer was full.
    pub enqueue_rejections: u64,
    /// In-buffer prefetches promoted to demands by a matching demand access.
    pub promotions: u64,
    /// Writebacks serviced.
    pub writebacks_serviced: u64,
    /// Peak buffer occupancy observed.
    pub peak_occupancy: usize,
    /// Total buffer-entry-to-data cycles over serviced demand reads.
    pub demand_latency_sum: u64,
    /// Demand reads included in [`ControllerStats::demand_latency_sum`].
    pub demand_latency_count: u64,
    /// Total buffer-entry-to-data cycles over serviced prefetches.
    pub prefetch_latency_sum: u64,
    /// Prefetches included in [`ControllerStats::prefetch_latency_sum`].
    pub prefetch_latency_count: u64,
}

impl ControllerStats {
    /// All requests serviced.
    pub fn total_serviced(&self) -> u64 {
        self.demands_serviced + self.prefetches_serviced
    }

    /// Row-buffer hit rate over serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.total_serviced();
        if total == 0 {
            return 0.0;
        }
        (self.demand_row_hits + self.prefetch_row_hits) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_rate_is_zero_without_service() {
        assert_eq!(ControllerStats::default().row_hit_rate(), 0.0);
    }

    #[test]
    fn row_hit_rate_combines_kinds() {
        let s = ControllerStats {
            demands_serviced: 6,
            prefetches_serviced: 4,
            demand_row_hits: 3,
            prefetch_row_hits: 2,
            ..ControllerStats::default()
        };
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
    }
}
