use padc_types::Cycle;

use crate::RowBufferOutcome;

/// State of one DRAM bank's row buffer.
///
/// Transitions are time-driven: an [`BankState::Activating`] bank becomes
/// [`BankState::Open`] once `ready_at` passes, and a
/// [`BankState::Precharging`] bank becomes [`BankState::Closed`]. Callers
/// observe the *resolved* state through [`Bank`]'s methods, which lazily
/// apply these transitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BankState {
    /// Precharged, no row in the sense amplifiers.
    Closed,
    /// An ACT is in flight; `row` becomes readable at `ready_at`.
    Activating {
        /// Row being brought into the sense amplifiers.
        row: u64,
        /// Cycle at which the row becomes readable (ACT issue + tRCD).
        ready_at: Cycle,
    },
    /// `row` is open in the row buffer.
    Open {
        /// Row currently held in the sense amplifiers.
        row: u64,
    },
    /// A PRE is in flight; the bank is closed (ACT-ready) at `ready_at`.
    Precharging {
        /// Cycle at which the bank accepts the next ACT (PRE issue + tRP).
        ready_at: Cycle,
    },
}

/// One DRAM bank: a row-buffer state machine with timing.
///
/// ```
/// use padc_dram::{Bank, RowBufferOutcome};
///
/// let mut bank = Bank::new();
/// assert_eq!(bank.classify(3, 0), RowBufferOutcome::Closed);
/// bank.activate(3, 0, 50);
/// // Row not yet open during tRCD:
/// assert!(!bank.can_cas(3, 20));
/// assert!(bank.can_cas(3, 50));
/// assert_eq!(bank.classify(3, 50), RowBufferOutcome::Hit);
/// assert_eq!(bank.classify(4, 50), RowBufferOutcome::Conflict);
/// ```
#[derive(Clone, Debug)]
pub struct Bank {
    state: BankState,
    /// CAS commands served by the currently/last open row (reset on ACT).
    /// The HAPPY page-policy predictor reads this at precharge time: a row
    /// that served several CAS bursts while open earned its open-row
    /// residency, one that served only its opening access did not.
    cas_served: u32,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// Creates a closed (precharged) bank.
    pub fn new() -> Self {
        Bank {
            state: BankState::Closed,
            cas_served: 0,
        }
    }

    /// The bank state with time-driven transitions applied at `now`.
    pub fn state_at(&self, now: Cycle) -> BankState {
        match self.state {
            BankState::Activating { row, ready_at } if now >= ready_at => BankState::Open { row },
            BankState::Precharging { ready_at } if now >= ready_at => BankState::Closed,
            s => s,
        }
    }

    /// The row currently readable in the row buffer, if any.
    pub fn open_row(&self, now: Cycle) -> Option<u64> {
        match self.state_at(now) {
            BankState::Open { row } => Some(row),
            _ => None,
        }
    }

    /// The row that is open *or opening* — used by row-hit prioritization,
    /// which should treat a request to an in-flight row as a future hit.
    pub fn effective_row(&self, now: Cycle) -> Option<u64> {
        match self.state_at(now) {
            BankState::Open { row } | BankState::Activating { row, .. } => Some(row),
            _ => None,
        }
    }

    /// Classifies an access to `row` (§2.1): hit, closed, or conflict. An
    /// activating row is already its future hit and a precharging bank
    /// already closed, so the class does not move with `now`.
    pub fn classify(&self, row: u64, _now: Cycle) -> RowBufferOutcome {
        self.readiness(row).0
    }

    /// What [`Bank::classify`] reads off the stored state, with no clock:
    /// `row`'s access class, and the cycle the in-flight ACT or PRE
    /// completes (0 when the bank is stable) — from which on the bank
    /// accepts the command that class needs. Unchanged until the next
    /// command or refresh, which is what lets a caller keep it.
    #[inline]
    pub(crate) fn readiness(&self, row: u64) -> (RowBufferOutcome, Cycle) {
        let class = |open: u64| {
            if open == row {
                RowBufferOutcome::Hit
            } else {
                RowBufferOutcome::Conflict
            }
        };
        match self.state {
            BankState::Open { row: open } => (class(open), 0),
            BankState::Activating {
                row: open,
                ready_at,
            } => (class(open), ready_at),
            BankState::Closed => (RowBufferOutcome::Closed, 0),
            BankState::Precharging { ready_at } => (RowBufferOutcome::Closed, ready_at),
        }
    }

    /// True if a PRE command may issue at `now` (the bank is quiescent with a
    /// row open or already closed — re-precharging a closed bank is a no-op
    /// the model forbids).
    pub fn can_precharge(&self, now: Cycle) -> bool {
        matches!(self.state_at(now), BankState::Open { .. })
    }

    /// Issues a PRE; the bank accepts an ACT at `now + t_rp`.
    ///
    /// # Panics
    ///
    /// Panics if the bank cannot accept a precharge (see
    /// [`Bank::can_precharge`]).
    pub fn precharge(&mut self, now: Cycle, t_rp: Cycle) {
        assert!(self.can_precharge(now), "precharge on non-open bank");
        self.state = BankState::Precharging {
            ready_at: now + t_rp,
        };
    }

    /// True if an ACT command may issue at `now` (the bank is closed).
    pub fn can_activate(&self, now: Cycle) -> bool {
        matches!(self.state_at(now), BankState::Closed)
    }

    /// Issues an ACT for `row`; CAS commands for it are accepted from
    /// `now + t_rcd`.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not closed (see [`Bank::can_activate`]).
    pub fn activate(&mut self, row: u64, now: Cycle, t_rcd: Cycle) {
        assert!(self.can_activate(now), "activate on non-closed bank");
        self.state = BankState::Activating {
            row,
            ready_at: now + t_rcd,
        };
        self.cas_served = 0;
    }

    /// Applies a refresh (an all-bank REF or a per-bank REF_pb): whatever
    /// row was open (or opening) is lost without a PRE, and the bank
    /// re-accepts commands — closed — at `ready_at`. Modeled as a precharge-like occupancy so
    /// `state_at` and `classify` cover the busy window for free.
    pub fn refresh(&mut self, ready_at: Cycle) {
        self.state = BankState::Precharging { ready_at };
        self.cas_served = 0;
    }

    /// True if a CAS (read/write) to `row` may issue at `now`.
    pub fn can_cas(&self, row: u64, now: Cycle) -> bool {
        self.open_row(now) == Some(row)
    }

    /// Records a CAS issued to the open row (called by the channel).
    pub fn note_cas(&mut self) {
        self.cas_served = self.cas_served.saturating_add(1);
    }

    /// CAS commands served since the row currently open (or last open) was
    /// activated. See the field docs: this is the HAPPY training signal.
    pub fn cas_served(&self) -> u32 {
        self.cas_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_closed() {
        let b = Bank::new();
        assert_eq!(b.state_at(0), BankState::Closed);
        assert!(b.can_activate(0));
        assert!(!b.can_precharge(0));
        assert!(!b.can_cas(0, 0));
    }

    #[test]
    fn activation_opens_row_after_trcd() {
        let mut b = Bank::new();
        b.activate(5, 100, 50);
        assert_eq!(b.open_row(149), None);
        assert_eq!(b.open_row(150), Some(5));
        // The in-flight row is already the effective row for prioritization.
        assert_eq!(b.effective_row(120), Some(5));
    }

    #[test]
    fn precharge_closes_after_trp() {
        let mut b = Bank::new();
        b.activate(5, 0, 50);
        b.precharge(60, 50);
        assert!(!b.can_activate(109));
        assert!(b.can_activate(110));
        assert_eq!(b.classify(5, 110), RowBufferOutcome::Closed);
    }

    #[test]
    fn classify_distinguishes_hit_and_conflict() {
        let mut b = Bank::new();
        b.activate(5, 0, 50);
        assert_eq!(b.classify(5, 50), RowBufferOutcome::Hit);
        assert_eq!(b.classify(6, 50), RowBufferOutcome::Conflict);
    }

    #[test]
    fn cas_count_resets_on_activate() {
        let mut b = Bank::new();
        assert_eq!(b.cas_served(), 0);
        b.activate(5, 0, 50);
        b.note_cas();
        b.note_cas();
        assert_eq!(b.cas_served(), 2);
        // The count survives the precharge (it is read at precharge time)...
        b.precharge(60, 50);
        assert_eq!(b.cas_served(), 2);
        // ...and resets when the next row opens.
        b.activate(6, 200, 50);
        assert_eq!(b.cas_served(), 0);
    }

    #[test]
    fn refresh_closes_any_state_and_occupies_until_ready() {
        let mut b = Bank::new();
        b.activate(5, 0, 50);
        b.note_cas();
        b.refresh(200);
        // Busy (neither ACT nor PRE accepted) until ready_at...
        assert!(!b.can_activate(199));
        // ...then closed, with the row and its CAS history gone.
        assert!(b.can_activate(200));
        assert_eq!(b.open_row(200), None);
        assert_eq!(b.cas_served(), 0);
        assert_eq!(b.classify(5, 200), RowBufferOutcome::Closed);
    }

    #[test]
    #[should_panic(expected = "activate on non-closed bank")]
    fn double_activate_panics() {
        let mut b = Bank::new();
        b.activate(1, 0, 50);
        b.activate(2, 10, 50);
    }

    #[test]
    #[should_panic(expected = "precharge on non-open bank")]
    fn precharge_during_activation_panics() {
        let mut b = Bank::new();
        b.activate(1, 0, 50);
        b.precharge(10, 50); // still activating at t=10
    }
}
