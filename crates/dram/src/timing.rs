//! Optional extended DDR3 timing constraints.
//!
//! The paper's DRAM model (Table 4) uses exactly three latencies — tRP,
//! tRCD, CL — which [`crate::DramConfig`] reproduces by default. Real DDR3
//! devices add several more constraints that matter under heavy bank
//! pressure; enabling [`ExtendedTiming`] layers them onto the bank/channel
//! state machines:
//!
//! * `t_ras` — minimum time a row stays open (ACT → PRE).
//! * `t_wr` — write recovery (last WRITE data → PRE).
//! * `t_rtp` — read-to-precharge.
//! * `t_faw` — at most four ACTs per rolling window (power limit).
//! * `t_refi` / `t_rfc` — periodic refresh: every `t_refi` each bank is
//!   refreshed, closing its row and occupying it for `t_rfc` (all banks on
//!   one boundary under the default all-bank policy; see
//!   [`crate::RefreshPolicy`]).
//!
//! All values are in DRAM bus cycles, like the base config.

use padc_types::Cycle;
use serde::{Deserialize, Serialize};

/// Extended timing constraint set (disabled by default; see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ExtendedTiming {
    /// Minimum ACT→PRE spacing (row must stay open this long).
    pub t_ras: Cycle,
    /// Write recovery: last write CAS → PRE.
    pub t_wr: Cycle,
    /// Read to precharge: last read CAS → PRE.
    pub t_rtp: Cycle,
    /// Four-activate window: at most 4 ACTs per channel within `t_faw`.
    pub t_faw: Cycle,
    /// Average refresh interval (0 disables refresh).
    pub t_refi: Cycle,
    /// Refresh cycle time: an all-bank refresh occupies every bank this long.
    pub t_rfc: Cycle,
}

impl Default for ExtendedTiming {
    /// DDR3-1333 values (in 667MHz bus cycles): tRAS 36ns≈24, tWR 15ns=10,
    /// tRTP 7.5ns=5, tFAW 30ns=20, tREFI 7.8µs≈5200, tRFC 160ns≈107.
    fn default() -> Self {
        ExtendedTiming {
            t_ras: 24,
            t_wr: 10,
            t_rtp: 5,
            t_faw: 20,
            t_refi: 5200,
            t_rfc: 107,
        }
    }
}

impl ExtendedTiming {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if refresh is enabled with a zero `t_rfc` or if `t_faw` is
    /// zero.
    pub fn validate(&self) {
        assert!(self.t_faw > 0, "t_faw must be positive");
        if self.t_refi > 0 {
            assert!(self.t_rfc > 0, "refresh enabled but t_rfc is zero");
            assert!(self.t_refi > self.t_rfc, "t_refi must exceed t_rfc");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_ddr3() {
        let t = ExtendedTiming::default();
        t.validate();
        assert!(t.t_ras > t.t_rtp);
        assert!(t.t_refi > t.t_rfc);
    }

    #[test]
    #[should_panic(expected = "t_refi must exceed t_rfc")]
    fn refresh_shorter_than_rfc_rejected() {
        let t = ExtendedTiming {
            t_refi: 10,
            t_rfc: 20,
            ..ExtendedTiming::default()
        };
        t.validate();
    }
}
