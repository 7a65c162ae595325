use padc_types::{CoreId, Cycle};

/// Per-core prefetch-accuracy measurement (§4.1 of the paper).
///
/// Each core has a Prefetch Sent Counter (`PSC`), a Prefetch Used Counter
/// (`PUC`), and a Prefetch Accuracy Register (`PAR`). At the end of every
/// measurement interval, `PAR := PUC / PSC` and both counters reset, so the
/// controller always acts on the *previous* interval's accuracy — capturing
/// the phase behaviour shown in Fig. 4(b).
///
/// ```
/// use padc_core::AccuracyTracker;
/// use padc_types::CoreId;
///
/// let mut t = AccuracyTracker::new(1, 1_000);
/// let c = CoreId::new(0);
/// for _ in 0..10 { t.on_prefetch_sent(c); }
/// for _ in 0..9 { t.on_prefetch_used(c); }
/// assert_eq!(t.accuracy(c), 1.0); // PAR not yet updated (optimistic)
/// t.tick(1_000);                  // interval boundary: blend of 1.0 and 0.9
/// assert!((t.accuracy(c) - 0.95).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct AccuracyTracker {
    psc: Vec<u64>,
    puc: Vec<u64>,
    par: Vec<f64>,
    interval: Cycle,
    next_rollover: Cycle,
}

impl AccuracyTracker {
    /// Creates a tracker for `cores` cores with the given measurement
    /// interval in CPU cycles. `PAR` starts at 1 (optimistic: prefetches
    /// are critical and long-lived until an interval of evidence says
    /// otherwise — starting at 0 would make APD drop every prefetch during
    /// the first interval).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(cores: usize, interval: Cycle) -> Self {
        assert!(interval > 0, "interval must be positive");
        AccuracyTracker {
            psc: vec![0; cores],
            puc: vec![0; cores],
            par: vec![1.0; cores],
            interval,
            next_rollover: interval,
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.par.len()
    }

    /// Records a prefetch entering the memory request buffer (PSC += 1).
    pub fn on_prefetch_sent(&mut self, core: CoreId) {
        self.psc[core.index()] += 1;
    }

    /// Records a useful prefetch: a demand hit a prefetched cache line or
    /// matched an in-flight prefetch request (PUC += 1).
    pub fn on_prefetch_used(&mut self, core: CoreId) {
        self.puc[core.index()] += 1;
    }

    /// Advances time; on an interval boundary, updates every core's `PAR`
    /// and resets the counters. Returns true when a rollover happened.
    ///
    /// `PAR` is an equal-weight blend of the previous value and the
    /// just-measured interval accuracy, clamped to [0, 1]. The blend
    /// filters the sampling noise inherent in interval measurement (a
    /// prefetch sent near the end of an interval is consumed in the next
    /// one, so a raw ratio whipsaws above 1 and below the true accuracy)
    /// while still tracking phase changes within two intervals.
    pub fn tick(&mut self, now: Cycle) -> bool {
        if now < self.next_rollover {
            return false;
        }
        for i in 0..self.par.len() {
            if self.psc[i] > 0 {
                let measured = (self.puc[i] as f64 / self.psc[i] as f64).min(1.0);
                self.par[i] = 0.5 * self.par[i] + 0.5 * measured;
            }
            // With no prefetches sent, PAR retains its previous value.
            self.psc[i] = 0;
            self.puc[i] = 0;
        }
        self.next_rollover = now - (now % self.interval) + self.interval;
        true
    }

    /// The accuracy the controller acts on: last interval's `PAR`.
    pub fn accuracy(&self, core: CoreId) -> f64 {
        self.par[core.index()]
    }

    /// The cycle of the next interval rollover: the first `now` at which
    /// [`AccuracyTracker::tick`] will update `PAR` and reset the counters.
    ///
    /// Fast-forwarding treats this as an explicit event source (DESIGN.md
    /// §11): every `PAR`-derived quantity — APD drop thresholds, APS
    /// criticality, urgency, rank — is constant strictly before this cycle,
    /// and a skip must never jump across it.
    pub fn next_rollover(&self) -> Cycle {
        self.next_rollover
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn par_updates_only_at_interval_boundary() {
        let mut t = AccuracyTracker::new(1, 100);
        for _ in 0..4 {
            t.on_prefetch_sent(c(0));
        }
        t.on_prefetch_used(c(0));
        assert!(!t.tick(99));
        assert_eq!(t.accuracy(c(0)), 1.0, "optimistic until first rollover");
        assert!(t.tick(100));
        // Blend of the optimistic 1.0 and the measured 0.25.
        assert!((t.accuracy(c(0)) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn counters_reset_each_interval() {
        let mut t = AccuracyTracker::new(1, 100);
        for _ in 0..10 {
            t.on_prefetch_sent(c(0));
            t.on_prefetch_used(c(0));
        }
        t.tick(100);
        assert_eq!(t.accuracy(c(0)), 1.0);
        // Next interval: all useless.
        for _ in 0..10 {
            t.on_prefetch_sent(c(0));
        }
        t.tick(200);
        assert_eq!(t.accuracy(c(0)), 0.5, "one bad interval halves PAR");
        // Sustained uselessness converges toward zero.
        for k in 3..12 {
            for _ in 0..10 {
                t.on_prefetch_sent(c(0));
            }
            t.tick(k * 100);
        }
        assert!(t.accuracy(c(0)) < 0.01);
    }

    #[test]
    fn empty_interval_retains_previous_par() {
        let mut t = AccuracyTracker::new(1, 100);
        t.on_prefetch_sent(c(0));
        t.on_prefetch_used(c(0));
        t.tick(100);
        assert_eq!(t.accuracy(c(0)), 1.0);
        t.tick(200); // no prefetch activity
        assert_eq!(t.accuracy(c(0)), 1.0);
    }

    #[test]
    fn cores_are_independent() {
        let mut t = AccuracyTracker::new(2, 100);
        t.on_prefetch_sent(c(0));
        t.on_prefetch_used(c(0));
        t.on_prefetch_sent(c(1));
        t.tick(100);
        assert_eq!(t.accuracy(c(0)), 1.0);
        assert_eq!(t.accuracy(c(1)), 0.5);
    }

    #[test]
    fn late_tick_still_rolls_over_to_aligned_boundary() {
        let mut t = AccuracyTracker::new(1, 100);
        t.on_prefetch_sent(c(0));
        t.on_prefetch_used(c(0));
        assert!(t.tick(250)); // we were called late
        assert_eq!(t.accuracy(c(0)), 1.0);
        // Next rollover aligns to 300, not 350.
        assert!(!t.tick(299));
        assert!(t.tick(300));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = AccuracyTracker::new(1, 0);
    }
}
