//! Single-core sequential driver — the baseline column of Table III.
//!
//! Runs every grid cell in one process, one after another: the whole grid
//! is one rank of the iteration [`Pipeline`], so every cell is local and
//! the exchange is [`InMemoryExchange`] — snapshotting all centers *is* the
//! allgather. The schedule, the sync/async frame rule and the checkpoint
//! frame are the pipeline's, shared with the distributed runtime and the
//! cluster simulator, which is why the three are bit-identical. This file
//! only builds the engines, drives the loop and assembles the report.

use crate::cell::CellEngine;
use crate::config::TrainConfig;
use crate::mixture::EnsembleModel;
use crate::pipeline::{FrameSlot, InMemoryExchange, Pipeline};
use crate::profiling::ProfileReport;
use crate::report::{CellResult, TrainReport};
use crate::resume::CellState;
use crate::topology::Grid;
use lipiz_telemetry::{Telemetry, TelemetrySummary, NO_CELL};
use lipiz_tensor::Matrix;
use std::time::Instant;

/// Sequential whole-grid trainer.
pub struct SequentialTrainer {
    grid: Grid,
    cfg: TrainConfig,
    pipeline: Pipeline,
}

impl SequentialTrainer {
    /// Build engines for every cell. `make_data` supplies the data as
    /// [`Pipeline::whole_grid`] asks for it: once, shared by every cell,
    /// unless the config shards the dataset — then once per cell.
    pub fn new(cfg: &TrainConfig, make_data: impl FnMut(usize) -> Matrix) -> Self {
        Self::over(cfg, make_data, None)
    }

    /// Rebuild a whole-grid trainer from captured per-cell states (flat
    /// grid order) — the resume path. `make_data` re-derives the data
    /// exactly as at run start; everything else comes from the
    /// states. The resumed run is bit-identical to the uninterrupted one.
    ///
    /// # Panics
    /// Panics if the state count does not match the grid, the states are
    /// out of cell order, or they disagree on the iteration they were
    /// captured at (a torn checkpoint must never resume).
    pub fn from_states(
        cfg: &TrainConfig,
        make_data: impl FnMut(usize) -> Matrix,
        states: &[CellState],
    ) -> Self {
        Self::over(cfg, make_data, Some(states))
    }

    /// The whole grid as rank 0 of the pipeline.
    fn over(
        cfg: &TrainConfig,
        make_data: impl FnMut(usize) -> Matrix,
        resume: Option<&[CellState]>,
    ) -> Self {
        let telemetry =
            Telemetry::from_gate(cfg.telemetry.enabled, 0, cfg.telemetry.ring_capacity);
        Self {
            grid: Grid::from_config(&cfg.grid),
            cfg: cfg.clone(),
            pipeline: Pipeline::whole_grid(cfg, make_data, resume, telemetry),
        }
    }

    /// Capture every cell's full training state (flat grid order), for the
    /// checkpoint layer. Call at an iteration boundary. Under async
    /// exchange every state also carries the slots its cell reads of the
    /// frame the next iteration will consume, so a resume re-enters the
    /// pipeline bit-exactly.
    pub fn capture_states(&mut self) -> Vec<CellState> {
        (0..self.cfg.cells()).map(|k| self.pipeline.capture_cut(k, None)).collect()
    }

    /// Iterations completed so far (0 on a fresh trainer, the checkpoint
    /// iteration on a resumed one).
    pub fn iterations_done(&self) -> usize {
        self.pipeline.iteration()
    }

    /// The grid topology.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Access to the per-cell engines (diagnostics/tests).
    pub fn engines_mut(&mut self) -> &mut [CellEngine] {
        self.pipeline.engines_mut()
    }

    /// Run one bulk-synchronous iteration over all cells.
    pub fn run_one_iteration(&mut self) {
        self.pipeline.step(&mut InMemoryExchange);
    }

    /// Run to the configured iteration count (or the checkpoint pause
    /// point) and produce the report. On a resumed trainer this runs only
    /// the remaining iterations.
    pub fn run(&mut self) -> TrainReport {
        self.run_hooked(|_, _, _| {})
    }

    /// [`Self::run`] with a per-iteration hook, mirroring the simulated
    /// cluster's `run_resumable`: `on_iteration(iter, engines, frame)`
    /// fires after every completed iteration (`iter` is the count *before*
    /// it ran) so a driver can commit checkpoints on its cadence. `frame`
    /// is the exchange frame the *next* iteration will consume — empty in
    /// sync mode, the generation-`iter` snapshots under async (a committing
    /// driver stamps each cell's cut with it through
    /// [`crate::pipeline::capture_with_frame`], which keeps the slots that
    /// cell reads — the same cut a distributed rank writes for the cell).
    pub fn run_hooked(
        &mut self,
        mut on_iteration: impl FnMut(usize, &mut [CellEngine], &[FrameSlot]),
    ) -> TrainReport {
        let start = Instant::now();
        let target = self.cfg.checkpoint.effective_iterations(self.cfg.coevolution.iterations);
        while self.iterations_done() < target {
            let iter = self.iterations_done();
            self.run_one_iteration();
            let (engines, frame) = self.pipeline.engines_and_next_frame();
            on_iteration(iter, engines, frame);
        }
        self.write_journal();
        let cells =
            self.pipeline.engines().iter().map(|e| CellResult::of(e, &self.grid)).collect();
        TrainReport::assemble(
            "sequential",
            (self.grid.rows(), self.grid.cols()),
            self.iterations_done(),
            start.elapsed().as_secs_f64(),
            ProfileReport::of(&self.pipeline.telemetry().metrics),
            cells,
        )
    }

    /// Flush the journal to `<telemetry.dir>/node00.jsonl` (no-op when
    /// telemetry is off or no directory is configured).
    fn write_journal(&self) {
        if let Some(dir) = &self.cfg.telemetry.dir {
            let path = std::path::Path::new(dir).join("node00.jsonl");
            if let Err(e) = self.pipeline.telemetry().write_journal(&path) {
                eprintln!("telemetry: journal write failed ({}): {e}", path.display());
            }
        }
    }

    /// The run's telemetry aggregate. `iterations` counts grid iterations
    /// (the per-cell counter is normalized by the cell count).
    pub fn telemetry_summary(&self) -> TelemetrySummary {
        let mut s = self.pipeline.telemetry().summary(NO_CELL);
        s.iterations = self.iterations_done() as u64;
        s
    }

    /// Final ensembles of every cell (flat grid order).
    pub fn ensembles(&mut self) -> Vec<EnsembleModel> {
        self.engines_mut().iter_mut().map(|e| e.ensemble()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::Routine;
    use lipiz_tensor::Rng64;

    fn toy_data(cfg: &TrainConfig) -> Matrix {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    #[test]
    fn full_smoke_run_produces_report() {
        let cfg = TrainConfig::smoke(2);
        let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let report = t.run();
        assert_eq!(report.driver, "sequential");
        assert_eq!(report.grid, (2, 2));
        assert_eq!(report.iterations, 2);
        assert_eq!(report.cells.len(), 4);
        assert!(report.wall_seconds > 0.0);
        assert!(report.best().gen_fitness.is_finite());
        // Gather + 4 phases recorded.
        assert!(report.profile.seconds(Routine::Train) > 0.0);
        assert!(report.profile.seconds(Routine::Gather) >= 0.0);
    }

    #[test]
    fn sequential_run_is_deterministic() {
        let cfg = TrainConfig::smoke(2);
        let run = || {
            let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
            t.run();
            t.ensembles().into_iter().map(|e| e.genomes).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn migration_spreads_genomes() {
        // After an iteration, each cell's import slots hold the neighbors'
        // iteration-start centers.
        let cfg = TrainConfig::smoke(2);
        let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        // Capture the initial snapshot of cell 1's center.
        let snap1 = t.engines_mut()[1].snapshot();
        t.run_one_iteration();
        // Cell 0's W/E import slots (3 and 4 in N,S,W,E order) both map to
        // cell 1 on a 2×2 torus.
        let imports = t.engines_mut()[0].gen_population().members()[3].genome.clone();
        assert_eq!(imports, snap1.gen_genome);
    }

    #[test]
    fn best_cell_has_lowest_fitness() {
        let cfg = TrainConfig::smoke(3);
        let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let report = t.run();
        let best = report.best().gen_fitness;
        for c in &report.cells {
            assert!(best <= c.gen_fitness + 1e-12);
        }
    }

    #[test]
    fn paused_then_resumed_run_matches_uninterrupted() {
        // Grid-level resume equivalence: pause after 1 of 3 iterations,
        // capture, rebuild from states, finish — the final ensembles must
        // be byte-identical to the uninterrupted run's.
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.iterations = 3;

        let mut reference = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let ref_report = reference.run();
        let ref_ensembles = reference.ensembles();

        let paused_cfg = cfg.clone().with_pause_after(1);
        let mut first = SequentialTrainer::new(&paused_cfg, |_| toy_data(&paused_cfg));
        let paused_report = first.run();
        assert_eq!(paused_report.iterations, 1, "pause_after did not stop the run");
        let states = first.capture_states();
        drop(first);

        let mut resumed = SequentialTrainer::from_states(&cfg, |_| toy_data(&cfg), &states);
        assert_eq!(resumed.iterations_done(), 1);
        let resumed_report = resumed.run();

        assert_eq!(resumed_report.iterations, 3);
        assert_eq!(resumed_report.best_cell, ref_report.best_cell);
        for (a, b) in resumed_report.cells.iter().zip(&ref_report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness, "cell {} fitness", a.cell);
            assert_eq!(a.mixture_weights, b.mixture_weights, "cell {} mixture", a.cell);
        }
        assert_eq!(resumed.ensembles(), ref_ensembles, "resumed ensembles diverged");
    }

    #[test]
    #[should_panic(expected = "torn checkpoint")]
    fn resume_rejects_mixed_iteration_states() {
        let cfg = TrainConfig::smoke(2);
        let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        t.run_one_iteration();
        let mut states = t.capture_states();
        states[2].iteration = 0; // torn: one cell from a different cut
        let _ = SequentialTrainer::from_states(&cfg, |_| toy_data(&cfg), &states);
    }

    #[test]
    fn telemetry_is_inert_and_observes_the_run() {
        // Same seed with and without telemetry: identical ensembles (the
        // recorder never touches RNG or training state), and the enabled
        // run's summary reflects the grid's work.
        let cfg = TrainConfig::smoke(2);
        let mut plain = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        plain.run();

        let mut tel_cfg = cfg.clone();
        tel_cfg.telemetry.enabled = true; // no dir: record, write nothing
        let mut observed = SequentialTrainer::new(&tel_cfg, |_| toy_data(&tel_cfg));
        observed.run();

        assert_eq!(plain.ensembles(), observed.ensembles(), "telemetry changed training");
        let s = observed.telemetry_summary();
        assert_eq!(s.iterations, 2);
        // One blocking exchange wait per rank-iteration (the 8 per-cell
        // ingest copies are gather *time*, not latency samples) and one
        // train sample per cell-iteration.
        assert_eq!(s.gather_ns.count, 2);
        assert_eq!(s.train_ns.count, 8);
        assert_eq!(s.dropped_events, 0);
        // Telemetry off: no histograms, but the Table IV totals are there.
        let off = plain.telemetry_summary();
        assert!(off.gather_ns.is_empty() && off.train_ns.is_empty());
        assert_eq!(off.routine_calls, s.routine_calls);
    }

    #[test]
    fn profile_view_equals_the_journal() {
        // The report is a view of the same spans the journal holds: per
        // routine, its seconds are the sum of the `*_end` durations and its
        // calls the number of begin/end pairs — capture's "other" spans and
        // the per-cell ingest copies inside "gather" included.
        let mut cfg = TrainConfig::smoke(2);
        cfg.telemetry.enabled = true;
        let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let report = t.run();
        t.capture_states();
        let report_after_capture = ProfileReport::of(&t.pipeline.telemetry().metrics);
        assert_eq!(report.profile.seconds(Routine::Other), 0.0);

        let tel = t.pipeline.telemetry();
        assert_eq!(tel.dropped(), 0);
        for r in Routine::ALL {
            let begins = tel.events().filter(|e| e.kind == r.begin_kind()).count() as u64;
            let ends: Vec<u64> =
                tel.events().filter(|e| e.kind == r.end_kind()).map(|e| e.arg).collect();
            let row = report_after_capture.rows[r as usize];
            assert_eq!((row.calls, begins), (ends.len() as u64, ends.len() as u64), "{r:?}");
            let journal_ns = ends.iter().sum::<u64>() as f64;
            assert!(
                (row.seconds * 1e9 - journal_ns).abs() <= ends.len() as f64,
                "{r:?}: view {} ns vs journal {journal_ns} ns",
                row.seconds * 1e9
            );
        }
        // 2 iterations × (1 exchange wait + 4 ingests); 4 captures.
        assert_eq!(report_after_capture.rows[Routine::Gather as usize].calls, 10);
        assert_eq!(report_after_capture.rows[Routine::Other as usize].calls, 4);
        assert!(report.profile.seconds(Routine::Gather) > 0.0);
    }

    #[test]
    fn iterations_counted_per_engine() {
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.iterations = 3;
        let mut t = SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let report = t.run();
        assert_eq!(report.iterations, 3);
    }
}
