//! The compact per-rank aggregate that rides the wire to the master.

use crate::metrics::LogHistogram;
use std::fmt::Write as _;

/// Rank stamp for a summary merged across ranks.
pub const MERGED_RANK: u32 = u32::MAX;

/// Everything a rank needs to report about a run (or a slice of one),
/// mergeable across ranks. Slaves ship one at every checkpoint commit
/// boundary and with the final result; the master folds them into the
/// live status line and the run summary persisted next to the `.lpz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Reporting world rank ([`MERGED_RANK`] once merged).
    pub rank: u32,
    /// Grid cell the rank trains ([`crate::NO_CELL`] when merged).
    pub cell: u32,
    /// Iterations completed (max across ranks when merged).
    pub iterations: u64,
    /// Accumulated nanoseconds per Table IV routine, indexed by
    /// `SpanKind as usize` (sum when merged) — what the Table IV report is
    /// a view of; populated with telemetry on or off.
    pub routine_ns: [u64; 5],
    /// Spans closed per routine (same indexing; sum when merged).
    pub routine_calls: [u64; 5],
    /// Blocking exchange wait per rank-iteration, histogram (ns).
    pub gather_ns: LogHistogram,
    /// Per-cell-iteration train-phase latency histogram (ns).
    pub train_ns: LogHistogram,
    /// Total wall ns between posting an exchange and consuming its frame.
    pub exchange_wall_ns: u64,
    /// Checkpoint cuts committed.
    pub checkpoints: u64,
    /// Iterations gathered against a frozen death-frame.
    pub degraded_iters: u64,
    /// Structural snapshot staleness (0 sync, 1 async; max when merged).
    pub staleness: u64,
    /// In-flight rejoins performed (sum when merged).
    pub rejoined: u64,
    /// Ranks the master replaced in-flight (master-side; sum when merged).
    pub replaced_ranks: u64,
    /// Journal records lost to ring overwrites.
    pub dropped_events: u64,
}
lipiz_wire::wire_struct!(TelemetrySummary {
    rank,
    cell,
    iterations,
    routine_ns,
    routine_calls,
    gather_ns,
    train_ns,
    exchange_wall_ns,
    checkpoints,
    degraded_iters,
    staleness,
    rejoined,
    replaced_ranks,
    dropped_events,
});

impl TelemetrySummary {
    /// An all-zero summary to merge into.
    pub fn empty() -> Self {
        Self { rank: MERGED_RANK, cell: crate::NO_CELL, ..Self::default() }
    }

    /// Fold another rank's summary into this one.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        self.rank = MERGED_RANK;
        self.cell = crate::NO_CELL;
        self.iterations = self.iterations.max(other.iterations);
        for i in 0..5 {
            self.routine_ns[i] += other.routine_ns[i];
            self.routine_calls[i] += other.routine_calls[i];
        }
        self.gather_ns.merge(&other.gather_ns);
        self.train_ns.merge(&other.train_ns);
        self.exchange_wall_ns += other.exchange_wall_ns;
        self.checkpoints += other.checkpoints;
        self.degraded_iters += other.degraded_iters;
        self.staleness = self.staleness.max(other.staleness);
        self.rejoined += other.rejoined;
        self.replaced_ranks += other.replaced_ranks;
        self.dropped_events += other.dropped_events;
    }

    /// Fraction of the exchange wall time hidden behind compute: `0` for
    /// a fully blocking exchange, approaching `1` when the async pipeline
    /// hides nearly all of it.
    pub fn overlap_fraction(&self) -> f64 {
        if self.exchange_wall_ns == 0 {
            return 0.0;
        }
        (1.0 - self.gather_ns.sum as f64 / self.exchange_wall_ns as f64).clamp(0.0, 1.0)
    }

    /// The master's one-line live status: latency quantiles, overlap,
    /// staleness, and fault history at a glance.
    pub fn status_line(&self) -> String {
        format!(
            "telemetry iter {} | train p50 {} p99 {} | gather p50 {} p99 {} | overlap {:.0}% | staleness {} | degraded {} | rejoined {} | replaced {} | drops {}",
            self.iterations,
            fmt_ns(self.train_ns.quantile(0.5)),
            fmt_ns(self.train_ns.quantile(0.99)),
            fmt_ns(self.gather_ns.quantile(0.5)),
            fmt_ns(self.gather_ns.quantile(0.99)),
            self.overlap_fraction() * 100.0,
            self.staleness,
            self.degraded_iters,
            self.rejoined,
            self.replaced_ranks,
            self.dropped_events,
        )
    }

    /// Append this summary as a JSON object (the persisted run-summary
    /// schema; hand-emitted — no `serde_json` in the offline set).
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let _ = write!(
            out,
            "\"rank\":{},\"cell\":{},\"iterations\":{},",
            self.rank, self.cell, self.iterations
        );
        write_hist_json(out, "gather_ns", &self.gather_ns);
        out.push(',');
        write_hist_json(out, "train_ns", &self.train_ns);
        let _ = write!(
            out,
            ",\"exchange_wall_ns\":{},\"overlap_fraction\":{:.4},\"checkpoints\":{},\"degraded_iters\":{},\"staleness\":{},\"rejoined\":{},\"replaced_ranks\":{},\"dropped_events\":{}",
            self.exchange_wall_ns,
            self.overlap_fraction(),
            self.checkpoints,
            self.degraded_iters,
            self.staleness,
            self.rejoined,
            self.replaced_ranks,
            self.dropped_events,
        );
        out.push('}');
    }
}

fn write_hist_json(out: &mut String, name: &str, h: &LogHistogram) {
    let _ = write!(
        out,
        "\"{name}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
        h.count,
        h.sum,
        h.quantile(0.5),
        h.quantile(0.99)
    );
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

/// Human-readable nanoseconds (µs/ms/s as appropriate).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: u32) -> TelemetrySummary {
        let mut s = TelemetrySummary { rank, cell: rank - 1, ..TelemetrySummary::empty() };
        s.iterations = 6;
        s.routine_ns = [2_500_000, 7_000_000, 0, 0, 40];
        s.routine_calls = [2, 1, 0, 0, 1];
        s.gather_ns.observe(2_000_000);
        s.train_ns.observe(7_000_000);
        s.exchange_wall_ns = 8_000_000;
        s.checkpoints = 3;
        s.staleness = 1;
        s
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut m = TelemetrySummary::empty();
        m.merge(&sample(1));
        m.merge(&sample(2));
        assert_eq!(m.rank, MERGED_RANK);
        assert_eq!(m.iterations, 6);
        assert_eq!(m.routine_ns, [5_000_000, 14_000_000, 0, 0, 80]);
        assert_eq!(m.routine_calls, [4, 2, 0, 0, 2]);
        assert_eq!(m.gather_ns.count, 2);
        assert_eq!(m.checkpoints, 6);
        assert_eq!(m.exchange_wall_ns, 16_000_000);
        assert_eq!(m.staleness, 1);
    }

    #[test]
    fn overlap_fraction_bounds() {
        assert_eq!(TelemetrySummary::empty().overlap_fraction(), 0.0);
        let s = sample(1);
        // 2 ms blocked of an 8 ms exchange wall → 75% hidden.
        assert!((s.overlap_fraction() - 0.75).abs() < 1e-9);
        let mut all_blocked = sample(1);
        all_blocked.gather_ns.observe(u64::MAX / 2);
        assert_eq!(all_blocked.overlap_fraction(), 0.0);
    }

    #[test]
    fn status_line_mentions_the_vitals() {
        let line = sample(1).status_line();
        assert!(line.contains("iter 6"));
        assert!(line.contains("overlap 75%"));
        assert!(line.contains("staleness 1"));
    }

    #[test]
    fn json_shape() {
        let mut out = String::new();
        sample(1).write_json(&mut out);
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(out.contains("\"gather_ns\":{\"count\":1"));
        assert!(out.contains("\"overlap_fraction\":0.7500"));
        assert!(out.contains("\"buckets\":["));
    }
}
