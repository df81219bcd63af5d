//! Timing of single library calls: warm the call up, then time it at least
//! [`MIN_CALLS`] times (fewer only under `--smoke`) — and for as long as its
//! slice of the measuring budget lasts — and keep every sample.

use crate::stats;
use std::time::{Duration, Instant};

/// Never fewer timed calls than this per probe.
pub const MIN_CALLS: usize = 30;
/// A p90 is reported only from at least this many calls.
pub const P90_CALLS: usize = 100;
/// More samples than this add nothing; cheap calls stop here.
const MAX_CALLS: usize = 2000;
const WARMUP_CALLS: usize = 3;

/// Nanoseconds of each timed call.
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn from_nanos(ns: Vec<f64>) -> Self {
        Self(ns)
    }

    pub fn median_ns(&self) -> f64 {
        stats::median(&self.0)
    }

    /// The 90th percentile, or the median while there are too few calls to
    /// speak of a tail.
    pub fn p90_ns(&self) -> f64 {
        if self.0.len() >= P90_CALLS {
            stats::percentile(&self.0, 0.9)
        } else {
            self.median_ns()
        }
    }
}

/// Time `f`: [`WARMUP_CALLS`] untimed calls, then timed calls until both
/// `min_calls` and `budget` are spent (or [`MAX_CALLS`] reached).
pub fn time_calls(budget: Duration, min_calls: usize, mut f: impl FnMut()) -> Samples {
    for _ in 0..WARMUP_CALLS {
        f();
    }
    let mut ns = Vec::with_capacity(MAX_CALLS);
    let start = Instant::now();
    while ns.len() < MAX_CALLS && (ns.len() < min_calls || start.elapsed() < budget) {
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    Samples(ns)
}

/// Time exactly `calls` calls of `f` after one warm-up call — for
/// collectives, where every rank must make the same number of calls, and
/// for calls too expensive to repeat until a budget runs out.
pub fn time_n(calls: usize, mut f: impl FnMut()) -> Samples {
    f();
    Samples(
        (0..calls)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_min_calls_whatever_the_budget() {
        let mut calls = 0usize;
        let s = time_calls(Duration::ZERO, MIN_CALLS, || calls += 1);
        assert_eq!(calls, WARMUP_CALLS + MIN_CALLS);
        assert_eq!(s.0.len(), MIN_CALLS);
        // Too few calls for a tail: p90 falls back to the median.
        assert_eq!(s.p90_ns(), s.median_ns());
    }

    #[test]
    fn cheap_calls_stop_at_the_cap_and_report_a_tail() {
        let s = time_calls(Duration::from_secs(5), MIN_CALLS, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(s.0.len(), MAX_CALLS);
        let fixed = Samples::from_nanos((1..=100).map(f64::from).collect());
        assert_eq!((fixed.median_ns(), fixed.p90_ns()), (50.5, 90.0));
    }
}
