//! Training run reports.

use crate::cell::CellEngine;
use crate::profiling::ProfileReport;
use crate::topology::Grid;

/// Per-cell outcome summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Flat grid index.
    pub cell: usize,
    /// Grid coordinates.
    pub coords: (usize, usize),
    /// Best generator fitness in the final sub-population (lower better).
    pub gen_fitness: f64,
    /// Best discriminator fitness in the final sub-population.
    pub disc_fitness: f64,
    /// Final mixture weights of the cell's ensemble.
    pub mixture_weights: Vec<f32>,
}

/// Result of a full training run, common to all three drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Which driver produced this report ("sequential", "distributed",
    /// "cluster-sim").
    pub driver: String,
    /// Grid shape used.
    pub grid: (usize, usize),
    /// Iterations executed.
    pub iterations: usize,
    /// Wall-clock seconds of the run (virtual seconds for the simulator).
    pub wall_seconds: f64,
    /// Routine-level profile (Table IV data).
    pub profile: ProfileReport,
    /// Per-cell outcomes, in flat grid order.
    pub cells: Vec<CellResult>,
    /// Index into `cells` of the best cell (lowest generator fitness).
    pub best_cell: usize,
}

impl CellResult {
    /// The outcome row of `engine`'s cell.
    pub fn of(engine: &CellEngine, grid: &Grid) -> Self {
        let disc_pop = engine.disc_population();
        Self {
            cell: engine.cell_index(),
            coords: grid.coords(engine.cell_index()),
            gen_fitness: engine.best_gen_fitness(),
            disc_fitness: disc_pop.members()[disc_pop.best_index()].fitness,
            mixture_weights: engine.mixture().weights().to_vec(),
        }
    }
}

impl TrainReport {
    /// Assemble a run's report from its per-cell rows (flat grid order),
    /// picking the best cell: lowest generator fitness, first on ties.
    pub fn assemble(
        driver: &str,
        grid: (usize, usize),
        iterations: usize,
        wall_seconds: f64,
        profile: ProfileReport,
        cells: Vec<CellResult>,
    ) -> Self {
        let best_cell = cells
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.gen_fitness.partial_cmp(&b.gen_fitness).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map_or(0, |(i, _)| i);
        Self {
            driver: driver.into(),
            grid,
            iterations,
            wall_seconds,
            profile,
            cells,
            best_cell,
        }
    }

    /// The best cell's result row.
    pub fn best(&self) -> &CellResult {
        &self.cells[self.best_cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report(wall: f64) -> TrainReport {
        TrainReport {
            driver: "test".into(),
            grid: (2, 2),
            iterations: 3,
            wall_seconds: wall,
            profile: ProfileReport::of(&Default::default()),
            cells: vec![
                CellResult {
                    cell: 0,
                    coords: (0, 0),
                    gen_fitness: 0.9,
                    disc_fitness: 0.5,
                    mixture_weights: vec![1.0],
                },
                CellResult {
                    cell: 1,
                    coords: (0, 1),
                    gen_fitness: 0.2,
                    disc_fitness: 0.6,
                    mixture_weights: vec![1.0],
                },
            ],
            best_cell: 1,
        }
    }

    #[test]
    fn best_points_to_best_cell() {
        let r = dummy_report(10.0);
        assert_eq!(r.best().cell, 1);
    }
}
