//! The metrics registry: counters, gauges, and log2 histograms.
//!
//! Everything here is a plain inline value — no interior mutability, no
//! heap — so updating a metric in the training hot path is a handful of
//! integer operations and preserves the zero-allocation guarantee.

/// A monotonically increasing count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Add `n` to the count.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Add one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge(u64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&mut self, v: u64) {
        self.0 = v;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Number of buckets in a [`LogHistogram`] — one per bit of a `u64`.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-bucket base-2 logarithmic histogram. Bucket `b` counts values
/// in `[2^(b-1), 2^b)` (bucket 0 counts zero). Observation is a
/// `leading_zeros` and an array increment; quantiles come back as the
/// bucket's upper bound, so `p99` on nanosecond latencies is accurate to
/// within 2× at any scale without storing samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    /// Per-bucket counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (for means and overlap accounting).
    pub sum: u64,
}
lipiz_wire::wire_struct!(LogHistogram { buckets, count, sum });

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v).min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << b.min(63) };
            }
        }
        u64::MAX
    }

    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Has nothing been observed yet?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The concrete per-rank registry every driver records into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankMetrics {
    /// Accumulated nanoseconds per Table IV routine, indexed by
    /// `SpanKind as usize` — the ledger Table IV is a view of, fed by every
    /// closed span whether or not the recorder journals.
    pub routine_ns: [u64; 5],
    /// Spans closed per routine (same indexing; train spans = iterations).
    pub routine_calls: [u64; 5],
    /// Blocking exchange wait per rank-iteration (ns); the per-cell ingest
    /// copy counts into `routine_ns` only. Journaling recorders only.
    pub gather_ns: LogHistogram,
    /// Per-cell-iteration train latency (ns). Journaling recorders only.
    pub train_ns: LogHistogram,
    /// Checkpoint cuts committed.
    pub checkpoints: Counter,
    /// Iterations that gathered against a frozen death-frame.
    pub degraded_iters: Counter,
    /// Wall nanoseconds between posting a neighbor exchange and its frame
    /// being consumed (overlap accounting: the async pipeline hides
    /// `1 - gather_ns.sum / exchange_wall_ns` of it behind compute).
    pub exchange_wall_ns: Counter,
    /// Structural snapshot staleness of the run (0 sync, 1 async).
    pub staleness: Gauge,
    /// Times this rank rejoined the mesh as an in-flight replacement.
    pub rejoined: Counter,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
    }

    #[test]
    fn quantiles_bound_observations() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        // p50 of {100,200,400,800,100000}: third observation (400) lands
        // in bucket 9 → upper bound 512.
        assert_eq!(h.quantile(0.5), 512);
        // p99 covers the outlier.
        assert!(h.quantile(0.99) >= 100_000);
        // Quantiles never under-report by more than the bucket width.
        assert!(h.quantile(1.0) >= 100_000 && h.quantile(1.0) <= 131_072);
        assert!((h.mean() - 20_300.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.observe(10);
        b.observe(1000);
        b.observe(2000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 3010);
        assert!(a.quantile(1.0) >= 2000);
    }
}
