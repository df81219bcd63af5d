//! Routine-level profiling (Table IV / Fig. 4 instrumentation).
//!
//! The paper profiles four routines: *gather* (neighbor exchange), *train*
//! (gradient steps), *update genomes* (fitness evaluation + replacement)
//! and *mutate* (hyperparameter mutation). Every driver threads a
//! [`Profiler`] through the cell engine so the same instrumentation powers
//! the single-core and distributed columns of Table IV.

use std::time::{Duration, Instant};

/// The profiled routines, in the paper's Table IV order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routine {
    /// Neighbor-center exchange (MPI allgather in the distributed version).
    Gather,
    /// Adversarial gradient steps.
    Train,
    /// Fitness evaluation, center replacement, mixture evolution.
    UpdateGenomes,
    /// Hyperparameter / loss mutation.
    Mutate,
    /// Everything else (setup, scoring, reporting).
    Other,
}

impl Routine {
    /// All routines in display order.
    pub const ALL: [Routine; 5] = [
        Routine::Gather,
        Routine::Train,
        Routine::UpdateGenomes,
        Routine::Mutate,
        Routine::Other,
    ];

    /// Table IV row label.
    pub fn name(&self) -> &'static str {
        match self {
            Routine::Gather => "gather",
            Routine::Train => "train",
            Routine::UpdateGenomes => "update genomes",
            Routine::Mutate => "mutate",
            Routine::Other => "other",
        }
    }

    fn index(&self) -> usize {
        match self {
            Routine::Gather => 0,
            Routine::Train => 1,
            Routine::UpdateGenomes => 2,
            Routine::Mutate => 3,
            Routine::Other => 4,
        }
    }
}

/// Accumulated wall time and call counts per routine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profiler {
    acc: [Duration; 5],
    calls: [u64; 5],
}

impl Profiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under `routine`.
    pub fn time<R>(&mut self, routine: Routine, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(routine, start.elapsed());
        out
    }

    /// Record an externally measured duration.
    pub fn record(&mut self, routine: Routine, d: Duration) {
        let i = routine.index();
        self.acc[i] += d;
        self.calls[i] += 1;
    }

    /// Total accumulated time for a routine.
    pub fn total(&self, routine: Routine) -> Duration {
        self.acc[routine.index()]
    }

    /// Number of recorded calls for a routine.
    pub fn calls(&self, routine: Routine) -> u64 {
        self.calls[routine.index()]
    }

    /// Merge another profiler into this one (summing; used when combining
    /// per-cell profilers in the sequential driver).
    pub fn merge(&mut self, other: &Profiler) {
        for i in 0..5 {
            self.acc[i] += other.acc[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Keep the *maximum* per routine instead of the sum — the right
    /// combination for concurrent ranks, where wall time is dominated by
    /// the slowest rank.
    pub fn merge_max(&mut self, other: &Profiler) {
        for i in 0..5 {
            self.acc[i] = self.acc[i].max(other.acc[i]);
            self.calls[i] = self.calls[i].max(other.calls[i]);
        }
    }

    /// Snapshot into a serializable report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            rows: Routine::ALL
                .iter()
                .map(|r| ProfileRow {
                    routine: r.name().to_string(),
                    seconds: self.total(*r).as_secs_f64(),
                    calls: self.calls(*r),
                })
                .collect(),
        }
    }
}

/// One row of the profile report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Routine label.
    pub routine: String,
    /// Accumulated seconds.
    pub seconds: f64,
    /// Call count.
    pub calls: u64,
}
lipiz_wire::wire_struct!(ProfileRow { routine, seconds, calls });

/// Serializable profile summary (the data behind Table IV / Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Rows in [`Routine::ALL`] order.
    pub rows: Vec<ProfileRow>,
}
lipiz_wire::wire_struct!(ProfileReport { rows });

impl ProfileReport {
    /// Seconds recorded for a routine by name; 0 if absent.
    pub fn seconds(&self, routine: Routine) -> f64 {
        self.rows.iter().find(|r| r.routine == routine.name()).map_or(0.0, |r| r.seconds)
    }

    /// Sum of all routine times.
    pub fn total_seconds(&self) -> f64 {
        self.rows.iter().map(|r| r.seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_and_counts() {
        let mut p = Profiler::new();
        let v = p.time(Routine::Train, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(p.total(Routine::Train) >= Duration::from_millis(4));
        assert_eq!(p.calls(Routine::Train), 1);
        assert_eq!(p.calls(Routine::Gather), 0);
    }

    #[test]
    fn record_and_merge_sum() {
        let mut a = Profiler::new();
        a.record(Routine::Gather, Duration::from_millis(10));
        let mut b = Profiler::new();
        b.record(Routine::Gather, Duration::from_millis(5));
        b.record(Routine::Mutate, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.total(Routine::Gather), Duration::from_millis(15));
        assert_eq!(a.total(Routine::Mutate), Duration::from_millis(1));
        assert_eq!(a.calls(Routine::Gather), 2);
    }

    #[test]
    fn merge_max_keeps_slowest() {
        let mut a = Profiler::new();
        a.record(Routine::Train, Duration::from_millis(30));
        let mut b = Profiler::new();
        b.record(Routine::Train, Duration::from_millis(50));
        a.merge_max(&b);
        assert_eq!(a.total(Routine::Train), Duration::from_millis(50));
    }

    #[test]
    fn report_round_trip() {
        let mut p = Profiler::new();
        p.record(Routine::UpdateGenomes, Duration::from_millis(20));
        let report = p.report();
        assert!((report.seconds(Routine::UpdateGenomes) - 0.02).abs() < 1e-6);
        assert_eq!(report.seconds(Routine::Train), 0.0);
        assert!((report.total_seconds() - 0.02).abs() < 1e-6);
        assert_eq!(report.rows.len(), 5);
    }

    #[test]
    fn routine_names_match_table4() {
        assert_eq!(Routine::Gather.name(), "gather");
        assert_eq!(Routine::Train.name(), "train");
        assert_eq!(Routine::UpdateGenomes.name(), "update genomes");
        assert_eq!(Routine::Mutate.name(), "mutate");
    }
}
