//! Routine-level profile (Table IV / Fig. 4) — a view, not a timer.
//!
//! The paper profiles four routines: *gather* (neighbor exchange), *train*
//! (gradient steps), *update genomes* (fitness evaluation + replacement)
//! and *mutate* (hyperparameter mutation). Every driver times them through
//! its rank's [`Telemetry`](lipiz_telemetry::Telemetry) spans, which book
//! each duration once into [`RankMetrics`]' per-routine totals (always on,
//! with or without `--telemetry`); a [`ProfileReport`] only *reads* that
//! ledger, so the single-core and distributed columns of Table IV, the
//! journal and the latency histograms cannot disagree.

use lipiz_telemetry::{RankMetrics, TelemetrySummary};

/// The profiled routines, in the paper's Table IV order — the telemetry
/// span enum itself, so a routine *is* its span kind.
pub use lipiz_telemetry::SpanKind as Routine;

/// One row of the profile report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileRow {
    /// The routine.
    pub routine: Routine,
    /// Accumulated seconds.
    pub seconds: f64,
    /// Spans closed.
    pub calls: u64,
}

/// The data behind Table IV / Fig. 4: per-routine time and call counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Rows in [`Routine::ALL`] order.
    pub rows: [ProfileRow; 5],
}

impl ProfileReport {
    /// The view of one rank's routine totals.
    pub fn of(metrics: &RankMetrics) -> Self {
        Self::view(&metrics.routine_ns, &metrics.routine_calls, 1)
    }

    /// The per-rank mean of several ranks' totals — ranks run concurrently,
    /// so the mean (not the sum) is what Table IV's distributed column
    /// reports. `calls` is the mean per-rank count, rounded to nearest.
    pub fn rank_mean<'a>(ranks: impl IntoIterator<Item = &'a TelemetrySummary>) -> Self {
        let (mut sum, mut n) = (TelemetrySummary::empty(), 0);
        for rank in ranks {
            sum.merge(rank);
            n += 1;
        }
        Self::view(&sum.routine_ns, &sum.routine_calls, n.max(1))
    }

    fn view(ns: &[u64; 5], calls: &[u64; 5], ranks: u64) -> Self {
        let rows = Routine::ALL.map(|routine| ProfileRow {
            routine,
            seconds: ns[routine as usize] as f64 / 1e9 / ranks as f64,
            calls: (calls[routine as usize] + ranks / 2) / ranks,
        });
        Self { rows }
    }

    /// Seconds recorded for a routine.
    pub fn seconds(&self, routine: Routine) -> f64 {
        self.rows[routine as usize].seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_telemetry::Telemetry;

    #[test]
    fn report_round_trip() {
        let mut tel = Telemetry::disabled();
        tel.span_at(Routine::UpdateGenomes, 0, 0, 0, 20_000_000);
        let report = ProfileReport::of(&tel.metrics);
        assert!((report.seconds(Routine::UpdateGenomes) - 0.02).abs() < 1e-12);
        assert_eq!(report.seconds(Routine::Train), 0.0);
        assert!((report.rows.iter().map(|r| r.seconds).sum::<f64>() - 0.02).abs() < 1e-12);
        assert_eq!(report.rows[Routine::UpdateGenomes as usize].calls, 1);
        for (row, routine) in report.rows.iter().zip(Routine::ALL) {
            assert_eq!(row.routine, routine, "rows are indexed by routine");
        }
    }

    #[test]
    fn profile_rank_mean_is_per_rank_in_seconds_and_calls() {
        // Two ranks, three train spans each: the mean is one rank's worth —
        // neither the sum nor the max of the ranks.
        let rank = |train_ns: u64| {
            let mut tel = Telemetry::disabled();
            for i in 0..3 {
                tel.span_at(Routine::Train, 0, i, 0, train_ns);
            }
            tel.summary(0)
        };
        let ranks = [rank(2_000_000_000), rank(4_000_000_000)];
        let mean = ProfileReport::rank_mean(&ranks);
        assert!((mean.seconds(Routine::Train) - 9.0).abs() < 1e-9);
        assert_eq!(mean.rows[Routine::Train as usize].calls, 3);
        assert_eq!(mean.seconds(Routine::Gather), 0.0);
        // A mean of one is that rank's own view.
        let mut tel = Telemetry::disabled();
        tel.span_at(Routine::Gather, 0, 0, 5, 7);
        assert_eq!(
            ProfileReport::rank_mean([&tel.summary(0)]),
            ProfileReport::of(&tel.metrics)
        );
        assert!(ProfileReport::rank_mean([]).rows.iter().all(|r| r.seconds == 0.0));
    }

    #[test]
    fn routine_names_match_table4() {
        assert_eq!(Routine::Gather.name(), "gather");
        assert_eq!(Routine::Train.name(), "train");
        assert_eq!(Routine::UpdateGenomes.name(), "update genomes");
        assert_eq!(Routine::Mutate.name(), "mutate");
    }
}
