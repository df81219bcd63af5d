//! The bulk-synchronous virtual-time executor.
//!
//! The simulated cluster is one host rank of the iteration [`Pipeline`]
//! (`lipiz_core::pipeline`) that happens to hold every cell, so training is
//! the same schedule — and the same bytes — as the sequential and
//! distributed drivers. What is simulated is *time*: `VirtualExchange`
//! charges each allgather to per-rank virtual clocks through the cost
//! model, and each cell's measured compute (the pipeline's per-step phase
//! durations) is scaled onto its rank's clock afterwards — every span
//! through `Telemetry::span_at`, so Table IV, histograms and journal are one
//! feed on the virtual clock. A scripted kill is modelled with the
//! pipeline's own rejoin: the victim's engine is swapped for a restored
//! replacement that catches up solo against the frozen death-frame (charged
//! to the victim rank's clock like any compute) and sits out the window.

use crate::allocation::Placement;
use crate::costmodel::CommCost;
use crate::platform::ClusterSpec;
use crate::report::{CommStats, SimOutcome};
use crate::vtime::RankClock;
use lipiz_core::{
    CellEngine, CellResult, CellState, Exchange, FrameSlot, Grid, Pipeline, ProfileReport,
    Routine, TrainConfig, TrainReport,
};
use lipiz_mpi::{scheduled_replacement, ReplacementSchedule};
use lipiz_telemetry::{EventKind, Telemetry, TelemetrySummary};
use lipiz_tensor::Matrix;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationOptions {
    /// Seed for placement / best-effort jitter (vary across the paper's
    /// "ten independent executions").
    pub run_seed: u64,
    /// Fixed per-iteration startup overhead charged to every rank
    /// (scheduler + heartbeat handling), seconds.
    pub per_iteration_overhead: f64,
    /// Fault injection: slow one slave down by a factor, modeling a
    /// straggler on the best-effort queue (`(cell_index, slowdown)`).
    /// The BSP allgather makes every rank wait for it — the failure mode
    /// the paper's heartbeat monitoring is designed to surface.
    pub straggler: Option<(usize, f64)>,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        Self { run_seed: 1, per_iteration_overhead: 1e-4, straggler: None }
    }
}

/// A virtual-time cluster run of the distributed trainer.
pub struct SimulatedCluster {
    spec: ClusterSpec,
    cost: CommCost,
    opts: SimulationOptions,
}

impl SimulatedCluster {
    /// Create a simulator for the given platform and cost model.
    pub fn new(spec: ClusterSpec, cost: CommCost, opts: SimulationOptions) -> Self {
        Self { spec, cost, opts }
    }

    /// Cluster-UY with its default cost model.
    pub fn cluster_uy(opts: SimulationOptions) -> Self {
        Self::new(ClusterSpec::cluster_uy(), CommCost::cluster_uy(), opts)
    }

    /// Execute the full training run in virtual time.
    ///
    /// Every cell engine runs for real on the host; the returned report's
    /// `wall_seconds` is the *virtual* distributed wall-clock. Training
    /// results are bit-identical to `SequentialTrainer` under the same
    /// config. `make_data` is called as `lipiz_core::Pipeline::whole_grid`
    /// calls it: once for the whole grid, or once per cell under
    /// `shard_data`.
    pub fn run(&self, cfg: &TrainConfig, make_data: impl FnMut(usize) -> Matrix) -> SimOutcome {
        self.run_resumable(cfg, make_data, None, |_, _, _| {})
    }

    /// [`SimulatedCluster::run`] with checkpoint hooks: optionally start
    /// from captured per-cell `resume` states (flat grid order, all from
    /// the same iteration), and invoke `on_iteration(iter, engines, frame)`
    /// after every completed iteration so a driver can commit checkpoints
    /// on its cadence (`frame` is the exchange frame the *next* iteration
    /// will consume — empty in sync mode; a committing driver stamps each
    /// cell's cut with it through `lipiz_core::pipeline::capture_with_frame`,
    /// which keeps the slots that cell reads, exactly as a slave's own cut
    /// does). Virtual-time accounting restarts at
    /// zero for a resumed run (wall clocks are not part of the training
    /// state).
    ///
    /// # Panics
    /// Panics if `resume` disagrees with the grid (count, cell order, or a
    /// torn iteration cut).
    pub fn run_resumable(
        &self,
        cfg: &TrainConfig,
        make_data: impl FnMut(usize) -> Matrix,
        resume: Option<&[CellState]>,
        on_iteration: impl FnMut(usize, &mut [CellEngine], &[FrameSlot]),
    ) -> SimOutcome {
        self.simulate(cfg, make_data, resume, on_iteration).0
    }

    /// [`SimulatedCluster::run_resumable`], plus each simulated slave
    /// rank's final telemetry summary (cell order) — what a real slave
    /// ships to the master, and what the report's profile is the mean of.
    fn simulate(
        &self,
        cfg: &TrainConfig,
        make_data: impl FnMut(usize) -> Matrix,
        resume: Option<&[CellState]>,
        mut on_iteration: impl FnMut(usize, &mut [CellEngine], &[FrameSlot]),
    ) -> (SimOutcome, Vec<TelemetrySummary>) {
        let host_start = Instant::now();
        let grid = Grid::from_config(&cfg.grid);
        let cells = grid.cell_count();
        // Slave rank r handles cell r (master is world rank 0 / placement 0;
        // slaves are placements 1..=cells).
        let placement = Placement::allocate(&self.spec, cells + 1, self.opts.run_seed);

        // All simulated slaves run in this one host process, one cell after
        // another on this thread, over one dataset and one iteration scratch
        // (what a real slave holds once per rank). The pipeline's own
        // recorder goes unread: the simulator's ledgers and journals live on
        // the virtual clocks below.
        let mut pipeline = Pipeline::whole_grid(cfg, make_data, resume, Telemetry::disabled());

        let start_iter = pipeline.iteration();
        let target = cfg.checkpoint.effective_iterations(cfg.coevolution.iterations);
        // Scripted fault modeling (mirrors the distributed stack exactly —
        // the same schedule arithmetic the master and slaves run): the
        // victim dies at the top of iteration `kill_iter` — its last
        // exchanged snapshot is round kill_iter-1 — and its replacement
        // restores from the newest committed cut (or from scratch), catches
        // up solo against the frozen death-frame, and rejoins the live
        // exchange at `rejoin_round`. Survivors meanwhile train against the
        // victim's frozen snapshot for every round of the absence window.
        // Note the replacement's iteration counter runs ahead of the grid
        // inside the window, so checkpoint hooks must not commit grid-wide
        // cuts there (the real drivers' per-cell checkpoints have no such
        // constraint). A kill at or before the resume point cannot be
        // modeled (the death-frame would predate the simulation) and is
        // ignored.
        let fault = scheduled_replacement(
            cfg.fault.plan.as_deref(),
            cfg.fault.max_stale_iters,
            cfg.checkpoint.every,
            target,
            cfg.cells(),
        )
        .unwrap_or_else(|e| panic!("cfg.fault.plan: {e}"))
        .filter(|s| s.kill_iter > start_iter);
        let mut pending_kill = fault;
        let mut victim_cut: Option<CellState> = None;

        let mut vx = VirtualExchange {
            cost: &self.cost,
            opts: &self.opts,
            placement: &placement,
            fault,
            grid,
            async_mode: cfg.exchange.is_async(),
            clocks: vec![RankClock::new(); cells],
            // One recorder per simulated slave rank, stamped with the rank
            // clock — the real drivers' journal format and Table IV ledger.
            tels: (0..cells)
                .map(|c| {
                    let mut tel = Telemetry::from_gate(
                        cfg.telemetry.is_enabled(),
                        (c + 1) as u32,
                        cfg.telemetry.ring_capacity,
                    );
                    if cfg.exchange.is_async() {
                        tel.metrics.staleness.set(1);
                    }
                    tel
                })
                .collect(),
            comm: CommStats::default(),
            pending_complete: 0.0,
            prev_submit: vec![0.0; cells],
        };

        while pipeline.iteration() < target {
            let iter = pipeline.iteration();
            if let Some(sched) = pending_kill.take_if(|s| s.kill_iter == iter) {
                let cell = sched.cell;
                let now = vns(vx.clocks[cell].now());
                vx.tels[cell].record_at(EventKind::Kill, cell as u32, iter as u32, 0, now);
                // The replacement re-derives the victim's data; on this host
                // that is the dataset the victim's engine already holds.
                let data = Arc::clone(pipeline.engines()[cell].dataset());
                let replacement = match &victim_cut {
                    Some(state) => CellEngine::from_state(cfg, data, state),
                    None => CellEngine::new(cell, cfg, data),
                };
                // The kill lands before this round's snapshot, so the most
                // recent frame is round kill_iter-1 — exactly the death-frame
                // the victim's readers freeze and serve to the replacement.
                let frozen = pipeline.latest_frame().to_vec();
                pipeline.engines_mut()[cell] = replacement;
                pipeline.rejoin(cell, sched.rejoin_round, frozen);
                while pipeline.catching_up() {
                    let solo = pipeline.engines()[cell].iterations_done();
                    pipeline.step(&mut vx);
                    vx.charge_compute(solo, cell, pipeline.step_phases(cell));
                }
            }
            pipeline.step(&mut vx);
            for c in 0..cells {
                if !vx.absent(c, iter) {
                    vx.charge_compute(iter, c, pipeline.step_phases(c));
                }
            }
            if let Some(sched) = fault.filter(|s| s.resume_cut == Some(iter + 1)) {
                // The newest checkpoint cut the victim commits before dying
                // — captured on its *original* trajectory, exactly what the
                // replacement process restores from disk.
                victim_cut = Some(pipeline.capture_cut(sched.cell, None));
            }
            let (engines, frame) = pipeline.engines_and_next_frame();
            on_iteration(iter, engines, frame);
        }

        // Flush the virtual-time journals (same per-rank JSONL layout as
        // the distributed drivers, so `lipizzaner trace` merges either).
        if let Some(dir) = cfg.telemetry.dir.as_deref() {
            for t in &vx.tels {
                let path = Path::new(dir).join(format!("node{:02}.jsonl", t.rank()));
                if let Err(e) = t.write_journal(&path) {
                    eprintln!("[sim] telemetry journal write failed: {e}");
                }
            }
        }

        // Final result gather to the master (GLOBAL): after the slowest
        // slave finishes.
        let VirtualExchange { clocks, tels, mut comm, .. } = vx;
        let end = clocks.iter().map(|c| c.now()).fold(0.0, f64::max);
        let result_bytes = 1024usize; // fitness + mixture + routine totals
        comm.final_gather_seconds = self.cost.gather(cells + 1, result_bytes);

        let summaries: Vec<TelemetrySummary> =
            tels.iter().enumerate().map(|(c, t)| t.summary(c as u32)).collect();
        let report = TrainReport::assemble(
            "cluster-sim",
            (grid.rows(), grid.cols()),
            pipeline.iteration(),
            end + comm.final_gather_seconds,
            ProfileReport::rank_mean(&summaries),
            pipeline.engines().iter().map(|e| CellResult::of(e, &grid)).collect(),
        );
        let outcome = SimOutcome {
            report,
            rank_clocks: clocks.iter().map(|c| c.now()).collect(),
            comm,
            host_seconds: host_start.elapsed().as_secs_f64(),
            ensembles: pipeline.engines_mut().iter_mut().map(|e| e.ensemble()).collect(),
            placement,
        };
        (outcome, summaries)
    }
}

/// Virtual seconds as journal nanoseconds.
fn vns(t: f64) -> u64 {
    (t.max(0.0) * 1e9) as u64
}

/// The virtual-time [`Exchange`]: every cell is local to the simulating
/// host, so a generation's snapshots are already where the pipeline reads
/// them; what the allgather would *cost* on the cluster is charged to the
/// rank clocks through the cost model, once per iteration, at `begin`.
struct VirtualExchange<'a> {
    cost: &'a CommCost,
    opts: &'a SimulationOptions,
    placement: &'a Placement,
    fault: Option<ReplacementSchedule>,
    grid: Grid,
    async_mode: bool,
    clocks: Vec<RankClock>,
    /// Per-rank recorders on the virtual clock (journal + Table IV totals).
    tels: Vec<Telemetry>,
    comm: CommStats,
    /// Virtual completion time of the in-flight generation (the frame the
    /// *next* iteration consumes); restarts at zero on resume, like every
    /// other clock.
    pending_complete: f64,
    /// When each rank posted the in-flight generation, for the
    /// exchange-wall metric.
    prev_submit: Vec<f64>,
}

impl VirtualExchange<'_> {
    /// Is `cell` the dead rank inside its absence window at `iter`?
    fn absent(&self, cell: usize, iter: usize) -> bool {
        self.fault
            .is_some_and(|s| cell == s.cell && iter >= s.kill_iter && iter < s.rejoin_round)
    }

    fn speed_of(&self, cell: usize) -> f64 {
        let mut speed = self.placement.speed_of(cell + 1);
        if let Some((victim, slowdown)) = self.opts.straggler {
            if victim == cell {
                speed *= slowdown.max(1.0);
            }
        }
        speed
    }

    /// Charge `cell`'s compute phases of iteration `iter` — the host
    /// durations of [`Pipeline::step_phases`] — speed-scaled to its rank clock.
    fn charge_compute(&mut self, iter: usize, cell: usize, measured: [Duration; 4]) {
        let (c, it) = (cell as u32, iter as u32);
        let speed = self.speed_of(cell);
        let tel = &mut self.tels[cell];
        let clock = &mut self.clocks[cell];
        if self.fault.is_some_and(|s| cell == s.cell && iter == s.rejoin_round) {
            tel.record_at(EventKind::Rejoin, c, it, 0, vns(clock.now()));
            tel.metrics.rejoined.inc();
        }
        // The ingest copy (`measured[0]`) is not charged: on the cluster the
        // gathered frame is consumed where the allgather left it.
        let compute = [Routine::Mutate, Routine::Train, Routine::UpdateGenomes];
        for (routine, host) in compute.into_iter().zip(&measured[1..]) {
            let t0 = vns(clock.now());
            clock.advance(host.as_secs_f64() * speed);
            tel.span_at(routine, c, it, t0, vns(clock.now()) - t0);
        }
    }
}

impl Exchange for VirtualExchange<'_> {
    /// Gather accounting for iteration `iter`: snapshot cost, then the
    /// allgather — a sync point in sync mode and at the async bootstrap, the
    /// exposed wait on the in-flight generation otherwise.
    fn begin(&mut self, iter: usize, frame: &[FrameSlot], costs: &[Duration]) {
        let cells = self.clocks.len();
        let live: Vec<usize> = (0..cells).filter(|&c| !self.absent(c, iter)).collect();
        let mut posted_at = vec![0.0f64; cells];
        let mut max_bytes = 0usize;
        for &c in &live {
            let virt = costs[c].as_secs_f64() * self.speed_of(c);
            self.clocks[c].advance(virt + self.opts.per_iteration_overhead);
            posted_at[c] = self.clocks[c].now();
            max_bytes = max_bytes.max(frame[c].as_ref().map_or(0, |s| s.wire_size()));
        }
        // Allgather: every *live* rank waits for the slowest of them, then
        // pays the transfer cost (a dead rank neither delays the sync nor
        // counts as the fastest participant).
        let sync = live.iter().map(|&c| posted_at[c]).fold(0.0, f64::max);
        let min_live = live.iter().map(|&c| posted_at[c]).fold(f64::INFINITY, f64::min);
        let xfer = self.cost.allgather(cells, max_bytes);
        self.comm.allgather_bytes += max_bytes * cells;
        if let Some(sched) = self.fault.filter(|s| self.absent(s.cell, iter)) {
            // Each cell that reads the victim substitutes its cached
            // snapshot this round, as a real rank does.
            let (victim, at) = (sched.cell, vns(sync));
            for c in
                (0..cells).filter(|&c| c != victim && self.grid.neighbors(c).contains(&victim))
            {
                let tel = &mut self.tels[c];
                tel.record_at(EventKind::Degraded, c as u32, iter as u32, victim as u64, at);
                tel.metrics.degraded_iters.inc();
            }
        }
        // BSP (and the async bootstrap round, which blocks on its own
        // generation): wait for the slowest live rank, then pay the
        // transfer. Overlapped: generation `iter` is merely *begun* here;
        // the rank blocks only until the in-flight generation `iter-1`
        // completes — whatever part of that exchange the previous compute
        // phase failed to hide, usually nothing.
        let blocking = !self.async_mode || iter == 0;
        self.comm.allgather_seconds += if blocking {
            xfer + (sync - min_live)
        } else {
            (self.pending_complete - min_live).max(0.0)
        };
        for &c in &live {
            let clock = &mut self.clocks[c];
            let before = clock.now();
            let (posted, consumed, exchange_wall) = if blocking {
                clock.sync_to(sync);
                clock.advance(xfer);
                (before, iter, clock.now() - before)
            } else {
                clock.sync_to(self.pending_complete);
                (posted_at[c], iter - 1, self.pending_complete - self.prev_submit[c])
            };
            // Gather time as a rank perceives it: wait (+ transfer).
            let (t0, t1) = (vns(before), vns(clock.now()));
            let (cell, it) = (c as u32, iter as u32);
            let tel = &mut self.tels[c];
            tel.record_at(EventKind::ExchangeBegin, cell, it, iter as u64, vns(posted));
            tel.span_at(Routine::Gather, cell, it, t0, t1 - t0);
            tel.record_at(EventKind::ExchangeComplete, cell, it, consumed as u64, t1);
            tel.metrics.exchange_wall_ns.add(vns(exchange_wall));
        }
        if self.async_mode {
            // Generation `iter` completes once every contribution is in
            // and the exchange thread (busy until `pending_complete`) has
            // shipped it.
            self.pending_complete = sync.max(self.pending_complete) + xfer;
            for &c in &live {
                self.prev_submit[c] = posted_at[c];
            }
        }
    }

    fn complete(&mut self, _gen: usize, _frame: &mut [FrameSlot], _tel: &mut Telemetry) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_tensor::Rng64;

    fn toy_data(cfg: &TrainConfig) -> Matrix {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    #[test]
    fn sim_run_completes_with_virtual_wall() {
        let cfg = TrainConfig::smoke(2);
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let outcome = sim.run(&cfg, |_| toy_data(&cfg));
        assert_eq!(outcome.report.driver, "cluster-sim");
        assert_eq!(outcome.report.cells.len(), 4);
        assert!(outcome.virtual_wall() > 0.0);
        assert!(outcome.host_seconds > 0.0);
        assert_eq!(outcome.rank_clocks.len(), 4);
        assert!(outcome.imbalance() >= 1.0);
    }

    #[test]
    fn sim_results_match_sequential_exactly() {
        let cfg = TrainConfig::smoke(2);
        let sim = SimulatedCluster::new(
            ClusterSpec::dedicated(1, 8),
            CommCost::cluster_uy(),
            SimulationOptions::default(),
        );
        let outcome = sim.run(&cfg, |_| toy_data(&cfg));

        let mut seq = lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let seq_report = seq.run();
        for (a, b) in outcome.report.cells.iter().zip(&seq_report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness, "cell {}", a.cell);
            assert_eq!(a.mixture_weights, b.mixture_weights, "cell {}", a.cell);
        }
        assert_eq!(outcome.report.best_cell, seq_report.best_cell);
    }

    #[test]
    fn resumed_sim_matches_uninterrupted() {
        // Pause the simulated cluster after one iteration (capturing through
        // the per-iteration hook), resume from the states, and require the
        // final training results to agree exactly with an uninterrupted run.
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.iterations = 3;
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let reference = sim.run(&cfg, |_| toy_data(&cfg));

        let mut states: Vec<CellState> = Vec::new();
        let paused_cfg = cfg.clone().with_pause_after(1);
        let _ = sim.run_resumable(
            &paused_cfg,
            |_| toy_data(&paused_cfg),
            None,
            |iter, engines, _| {
                if iter == 0 {
                    states = engines.iter_mut().map(|e| e.capture_state()).collect();
                }
            },
        );
        assert_eq!(states.len(), 4, "pause hook never captured");

        let resumed = sim.run_resumable(&cfg, |_| toy_data(&cfg), Some(&states), |_, _, _| {});
        assert_eq!(resumed.report.iterations, 3);
        for (a, b) in resumed.report.cells.iter().zip(&reference.report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness, "cell {}", a.cell);
            assert_eq!(a.disc_fitness, b.disc_fitness, "cell {}", a.cell);
            assert_eq!(a.mixture_weights, b.mixture_weights, "cell {}", a.cell);
        }
        assert_eq!(resumed.report.best_cell, reference.report.best_cell);
    }

    #[test]
    fn async_sim_matches_sequential_async_exactly() {
        // `--exchange async` is still a pure function of (seed, config):
        // the virtual cluster and the sequential trainer must agree
        // bit-for-bit — while both diverge from the sync trajectory.
        let cfg = TrainConfig::smoke(2).with_exchange(lipiz_core::ExchangeMode::Async);
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let outcome = sim.run(&cfg, |_| toy_data(&cfg));

        let mut seq = lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
        let seq_report = seq.run();
        for (a, b) in outcome.report.cells.iter().zip(&seq_report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness, "cell {}", a.cell);
            assert_eq!(a.disc_fitness, b.disc_fitness, "cell {}", a.cell);
            assert_eq!(a.mixture_weights, b.mixture_weights, "cell {}", a.cell);
        }
        assert_eq!(outcome.report.best_cell, seq_report.best_cell);

        let sync_cfg = TrainConfig::smoke(2);
        let sync = sim.run(&sync_cfg, |_| toy_data(&sync_cfg));
        assert!(
            outcome
                .report
                .cells
                .iter()
                .zip(&sync.report.cells)
                .any(|(a, b)| a.gen_fitness != b.gen_fitness),
            "async run did not diverge from sync — staleness never applied"
        );
    }

    #[test]
    fn resumed_async_sim_matches_uninterrupted() {
        // The checkpointed exchange frame must carry the one-generation
        // pipeline across a pause: capture at iteration 0 (with the frame
        // iteration 1 consumes), resume, and require bit-identical results.
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.iterations = 3;
        let cfg = cfg.with_exchange(lipiz_core::ExchangeMode::Async);
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let reference = sim.run(&cfg, |_| toy_data(&cfg));

        let mut states: Vec<CellState> = Vec::new();
        let paused_cfg = cfg.clone().with_pause_after(1);
        let _ = sim.run_resumable(
            &paused_cfg,
            |_| toy_data(&paused_cfg),
            None,
            |iter, engines, frame| {
                if iter == 0 {
                    assert_eq!(frame.len(), 4, "async hook must expose the frame");
                    states = engines
                        .iter_mut()
                        .map(|e| lipiz_core::pipeline::capture_with_frame(e, frame, None))
                        .collect();
                }
            },
        );
        assert_eq!(states.len(), 4, "pause hook never captured");

        let resumed = sim.run_resumable(&cfg, |_| toy_data(&cfg), Some(&states), |_, _, _| {});
        assert_eq!(resumed.report.iterations, 3);
        for (a, b) in resumed.report.cells.iter().zip(&reference.report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness, "cell {}", a.cell);
            assert_eq!(a.disc_fitness, b.disc_fitness, "cell {}", a.cell);
            assert_eq!(a.mixture_weights, b.mixture_weights, "cell {}", a.cell);
        }
        assert_eq!(resumed.report.best_cell, reference.report.best_cell);
    }

    #[test]
    fn async_sim_hides_exchange_behind_compute() {
        // The point of the overlap: with a non-trivial cost model the async
        // run's gather time (exposed wait only) must be well below the sync
        // run's (full wait + transfer every round).
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.iterations = 4;
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let sync = sim.run(&cfg, |_| toy_data(&cfg));
        let async_cfg = cfg.clone().with_exchange(lipiz_core::ExchangeMode::Async);
        let overlapped = sim.run(&async_cfg, |_| toy_data(&async_cfg));
        assert!(
            overlapped.comm.allgather_seconds < sync.comm.allgather_seconds,
            "async gather {} not below sync {}",
            overlapped.comm.allgather_seconds,
            sync.comm.allgather_seconds
        );
    }

    #[test]
    fn virtual_wall_is_less_than_summed_compute() {
        // The whole point: distributed virtual time ≈ max over ranks, far
        // below the sum that the sequential baseline pays.
        let cfg = TrainConfig::smoke(3);
        let sim = SimulatedCluster::new(
            ClusterSpec::dedicated(1, 16),
            CommCost::free(),
            SimulationOptions::default(),
        );
        let outcome = sim.run(&cfg, |_| toy_data(&cfg));
        let summed: f64 = outcome.rank_clocks.iter().sum();
        assert!(
            outcome.virtual_wall() < summed / 2.0,
            "wall {} vs summed {}",
            outcome.virtual_wall(),
            summed
        );
    }

    #[test]
    fn jitter_changes_wall_but_not_results() {
        let cfg = TrainConfig::smoke(2);
        let run = |seed: u64| {
            let sim = SimulatedCluster::cluster_uy(SimulationOptions {
                run_seed: seed,
                ..Default::default()
            });
            sim.run(&cfg, |_| toy_data(&cfg))
        };
        let a = run(1);
        let b = run(2);
        // Different placements/jitter, same deterministic training results.
        for (x, y) in a.report.cells.iter().zip(&b.report.cells) {
            assert_eq!(x.gen_fitness, y.gen_fitness);
        }
        assert_ne!(a.placement, b.placement);
    }

    #[test]
    fn straggler_stretches_wall_but_not_results() {
        // Single iteration + zero comm cost: no BSP sync ever equalizes the
        // clocks, so the victim's 100x slowdown must show up as within-run
        // imbalance regardless of host-timing noise (all ranks are measured
        // in the same run, and the factor dwarfs any contention skew).
        let mut cfg = TrainConfig::smoke(2);
        cfg.coevolution.iterations = 1;
        let opts = SimulationOptions { per_iteration_overhead: 0.0, ..Default::default() };
        let base = SimulatedCluster::new(ClusterSpec::dedicated(1, 8), CommCost::free(), opts)
            .run(&cfg, |_| toy_data(&cfg));
        let slowed = SimulatedCluster::new(
            ClusterSpec::dedicated(1, 8),
            CommCost::free(),
            SimulationOptions { straggler: Some((2, 100.0)), ..opts },
        )
        .run(&cfg, |_| toy_data(&cfg));
        assert!(
            slowed.imbalance() > 3.0,
            "straggler not visible in imbalance: {} (clocks {:?})",
            slowed.imbalance(),
            slowed.rank_clocks
        );
        // The victim must own the slowest clock.
        let victim = slowed.rank_clocks[2];
        assert!(
            slowed.rank_clocks.iter().all(|&c| c <= victim),
            "victim is not the slowest rank: {:?}",
            slowed.rank_clocks
        );
        // Fault injection must not change the training outcome.
        for (a, b) in base.report.cells.iter().zip(&slowed.report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness);
        }
    }

    #[test]
    fn telemetry_journals_live_on_the_virtual_clock() {
        // Telemetry must not perturb training, and the exported journals
        // must be stamped with virtual (not host) time: a simulated run
        // takes milliseconds of host time but its cost model charges far
        // more virtual time, so the last event's timestamp tracks the
        // virtual wall.
        let cfg = TrainConfig::smoke(2);
        let dir = std::env::temp_dir().join(format!("lipiz_sim_tel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tel_cfg = cfg.clone().with_telemetry(dir.to_str().unwrap(), 0);
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let base = sim.run(&cfg, |_| toy_data(&cfg));
        let traced = sim.run(&tel_cfg, |_| toy_data(&tel_cfg));
        for (a, b) in base.report.cells.iter().zip(&traced.report.cells) {
            assert_eq!(a.gen_fitness, b.gen_fitness, "telemetry perturbed cell {}", a.cell);
        }

        let journals = lipiz_telemetry::read_journal_dir(&dir).unwrap();
        assert_eq!(journals.len(), 4, "one journal per simulated slave rank");
        let j = &journals[0];
        assert_eq!(j.rank, 1);
        let last_ns = j.events.last().unwrap().t_ns;
        let virtual_ns = (traced.virtual_wall() * 1e9) as u64;
        assert!(
            last_ns <= virtual_ns && last_ns > virtual_ns / 100,
            "timestamps not on the virtual clock: last {last_ns} vs wall {virtual_ns}"
        );
        assert!(j.events.iter().any(|e| e.kind == lipiz_telemetry::EventKind::TrainEnd));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Run `cfg` traced into a fresh directory; returns the outcome, the
    /// per-rank summaries and the per-rank journals (rank order).
    fn traced(
        cfg: &TrainConfig,
        tag: &str,
    ) -> (SimOutcome, Vec<TelemetrySummary>, Vec<lipiz_telemetry::RankJournal>) {
        let dir = std::env::temp_dir().join(format!("lipiz_sim_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg.clone().with_telemetry(dir.to_str().unwrap(), 0);
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let (outcome, summaries) = sim.simulate(&cfg, |_| toy_data(&cfg), None, |_, _, _| {});
        let journals = lipiz_telemetry::read_journal_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (outcome, summaries, journals)
    }

    /// Per rank and routine, the view's totals are the journal's span pairs.
    fn assert_view_equals_journals(
        summaries: &[TelemetrySummary],
        journals: &[lipiz_telemetry::RankJournal],
    ) {
        assert_eq!(summaries.len(), journals.len());
        for (s, j) in summaries.iter().zip(journals) {
            assert_eq!((s.rank, j.dropped), (j.rank, 0));
            for r in Routine::ALL {
                let ends = j.events.iter().filter(|e| e.kind == r.end_kind());
                let (calls, ns) = ends.fold((0, 0), |(n, ns), e| (n + 1, ns + e.arg));
                let begins = j.events.iter().filter(|e| e.kind == r.begin_kind()).count();
                assert_eq!(
                    (s.routine_calls[r as usize], s.routine_ns[r as usize], begins as u64),
                    (calls, ns, calls),
                    "rank {} {r:?}",
                    s.rank
                );
            }
        }
    }

    #[test]
    fn sample_counts_match_the_sequential_driver() {
        // One gather latency sample per rank-iteration and one train sample
        // per cell-iteration, whichever driver runs the grid.
        for cfg in [
            TrainConfig::smoke(2),
            TrainConfig::smoke(2).with_exchange(lipiz_core::ExchangeMode::Async),
        ] {
            let mut seq_cfg = cfg.clone();
            seq_cfg.telemetry.enabled = true;
            let mut seq =
                lipiz_core::sequential::SequentialTrainer::new(&seq_cfg, |_| toy_data(&cfg));
            seq.run();
            let seq = seq.telemetry_summary();
            let (_, ranks, _) = traced(&cfg, "counts");
            let iterations = cfg.coevolution.iterations as u64;
            assert_eq!(seq.gather_ns.count, iterations, "{:?}", cfg.exchange);
            for rank in &ranks {
                assert_eq!(rank.gather_ns.count, seq.gather_ns.count, "{:?}", cfg.exchange);
            }
            let sim_trains: u64 = ranks.iter().map(|r| r.train_ns.count).sum();
            assert_eq!(sim_trains, seq.train_ns.count, "{:?}", cfg.exchange);
            assert_eq!(sim_trains, cfg.cells() as u64 * iterations);
        }
    }

    #[test]
    fn profile_view_equals_the_virtual_journals() {
        let cfg = TrainConfig::smoke(2);
        let (outcome, summaries, journals) = traced(&cfg, "view");
        assert_view_equals_journals(&summaries, &journals);
        // The report is the per-rank mean of those totals; `calls` is one
        // rank's count, not the grid's sum.
        let profile = &outcome.report.profile;
        assert_eq!(*profile, ProfileReport::rank_mean(&summaries));
        let iterations = cfg.coevolution.iterations as u64;
        for r in [Routine::Gather, Routine::Mutate, Routine::Train, Routine::UpdateGenomes] {
            assert_eq!(profile.rows[r as usize].calls, iterations, "{r:?}");
        }
        let mean_gather_ns =
            summaries.iter().map(|s| s.routine_ns[0]).sum::<u64>() as f64 / 4.0;
        assert!((profile.seconds(Routine::Gather) * 1e9 - mean_gather_ns).abs() < 1.0);
    }

    #[test]
    fn profile_and_journal_both_hold_a_replacement_catch_up() {
        // kill:3@2 with two stale rounds, no checkpoints: cell 2's
        // replacement retrains iterations 0..4 solo, sits out rounds 2–3
        // and rejoins at round 4. The catch-up is charged to the victim
        // rank's virtual clock, so it lands in the view and the journal
        // alike: 2 live + 4 solo + 2 live train spans against 6 on a
        // survivor, and 4 gathers (the live rounds) against 6.
        let mut cfg = TrainConfig::smoke(2).with_fault_plan("kill:3@2", 2);
        cfg.coevolution.iterations = 6;
        let (_, summaries, journals) = traced(&cfg, "catchup");
        assert_view_equals_journals(&summaries, &journals);
        let (train, gather) = (Routine::Train as usize, Routine::Gather as usize);
        let calls =
            |c: usize| (summaries[c].routine_calls[train], summaries[c].routine_calls[gather]);
        assert_eq!(calls(2), (8, 4));
        assert_eq!(calls(0), (6, 6));
        assert_eq!(summaries[2].rejoined, 1);
    }

    #[test]
    fn gather_time_includes_wait_and_transfer() {
        let cfg = TrainConfig::smoke(2);
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let outcome = sim.run(&cfg, |_| toy_data(&cfg));
        assert!(outcome.report.profile.seconds(Routine::Gather) > 0.0);
        assert!(outcome.comm.allgather_bytes > 0);
    }
}
