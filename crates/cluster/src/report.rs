//! Simulation outcome types.

use crate::allocation::Placement;
use lipiz_core::{EnsembleModel, TrainReport};

/// Communication statistics of a simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Exchange wait seconds, max across ranks, summed over the run's
    /// iterations.
    pub allgather_seconds: f64,
    /// Bytes received per rank, max across ranks, summed over the run's
    /// iterations.
    pub allgather_bytes: usize,
    /// Virtual seconds of the final result gather.
    pub final_gather_seconds: f64,
}

/// Everything a simulated cluster run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The combined training report (driver = "cluster-sim"; wall time is
    /// virtual).
    pub report: TrainReport,
    /// Where ranks were placed and their best-effort speed factors.
    pub placement: Placement,
    /// Final virtual clock of each slave rank (cell order).
    pub rank_clocks: Vec<f64>,
    /// Communication accounting.
    pub comm: CommStats,
    /// Host (real) seconds the simulation took to execute.
    pub host_seconds: f64,
    /// Each cell's final mixture-of-generators model (cell order) — the
    /// artifact a real run would persist. Carrying them here lets callers
    /// compare faulted replays byte-for-byte without re-running a
    /// sequential pass (which knows nothing about fault degradation).
    pub ensembles: Vec<EnsembleModel>,
}

impl SimOutcome {
    /// Virtual wall-clock of the run in seconds.
    pub fn virtual_wall(&self) -> f64 {
        self.report.wall_seconds
    }

    /// Load imbalance: slowest rank clock / fastest rank clock.
    pub fn imbalance(&self) -> f64 {
        let min = self.rank_clocks.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.rank_clocks.iter().copied().fold(0.0, f64::max);
        if min <= 0.0 {
            1.0
        } else {
            max / min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::ClusterSpec;
    use lipiz_core::ProfileReport;

    #[test]
    fn imbalance_of_uniform_clocks_is_one() {
        let outcome = SimOutcome {
            report: TrainReport {
                driver: "cluster-sim".into(),
                grid: (2, 2),
                iterations: 1,
                wall_seconds: 4.0,
                profile: ProfileReport::of(&Default::default()),
                cells: vec![],
                best_cell: 0,
            },
            placement: Placement::allocate(&ClusterSpec::dedicated(1, 8), 5, 1),
            rank_clocks: vec![2.0, 2.0, 2.0, 2.0],
            comm: CommStats::default(),
            host_seconds: 0.1,
            ensembles: vec![],
        };
        assert!((outcome.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(outcome.virtual_wall(), 4.0);
    }
}
