//! Per-rank virtual clocks.

/// A rank's virtual clock, in seconds since job start.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankClock {
    t: f64,
}

impl RankClock {
    /// Clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Advance by `seconds` (compute or communication).
    ///
    /// # Panics
    /// Panics on negative or non-finite durations — a sign of a broken
    /// measurement, which must not silently corrupt the schedule.
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds.is_finite() && seconds >= 0.0, "invalid virtual duration {seconds}");
        self.t += seconds;
    }

    /// Jump forward to `t` (a synchronization point). No-op if already
    /// past it.
    pub fn sync_to(&mut self, t: f64) {
        if t > self.t {
            self.t = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = RankClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sync_only_moves_forward() {
        let mut c = RankClock::new();
        c.advance(5.0);
        c.sync_to(3.0);
        assert_eq!(c.now(), 5.0);
        c.sync_to(7.0);
        assert_eq!(c.now(), 7.0);
    }

    #[test]
    #[should_panic(expected = "invalid virtual duration")]
    fn negative_duration_rejected() {
        RankClock::new().advance(-1.0);
    }
}
