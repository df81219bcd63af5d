//! The virtual-time executor.
//!
//! The simulated cluster is one host rank of the iteration [`Pipeline`]
//! (`lipiz_core::pipeline`) that happens to hold every cell, so training is
//! the same schedule — and the same bytes — as the sequential and
//! distributed drivers. What is simulated is *time*: `VirtualExchange`
//! charges each generation of the neighbour exchange to per-rank virtual
//! clocks through the cost model — each rank waits only for the cells it
//! reads and receives only their snapshots, as the runtime's exchange does
//! (§III-B) — and each cell's measured compute (the pipeline's per-step
//! phase durations) is scaled onto its rank's clock afterwards — every span
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
    /// Its readers wait for its posts, and their readers for theirs in
    /// turn, so the delay spreads through the grid one neighbourhood per
    /// iteration — the failure mode the paper's heartbeat monitoring is
    /// designed to surface.
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
    /// does). Virtual-time accounting restarts at zero for a resumed run
    /// (wall clocks are not part of the training state).
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

        let mut vx = VirtualExchange::new(self, cfg, &placement, fault);

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
            vx.gather(iter, pipeline.engines());
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
        for t in &vx.tels {
            t.flush_journal(
                cfg.telemetry.dir.as_deref(),
                &format!("node{:02}.jsonl", t.rank()),
            );
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
/// them; what the neighbour exchange would *cost* on the cluster is charged
/// to the rank clocks through the cost model. `begin` charges each rank's
/// post, [`VirtualExchange::gather`] each reader's wait and transfer.
struct VirtualExchange<'a> {
    cost: &'a CommCost,
    opts: &'a SimulationOptions,
    placement: &'a Placement,
    fault: Option<ReplacementSchedule>,
    async_mode: bool,
    clocks: Vec<RankClock>,
    /// Per-rank recorders on the virtual clock (journal + Table IV totals).
    tels: Vec<Telemetry>,
    comm: CommStats,
    /// When each rank posted the generation being gathered, and its size.
    posts: Vec<(f64, usize)>,
    /// When each reader holds all of the last generation it gathered — the
    /// in-flight one under async; restarts at zero on resume, like every
    /// other clock.
    ready: Vec<f64>,
    /// When each rank posted the in-flight generation, for the
    /// exchange-wall metric.
    prev_submit: Vec<f64>,
}

impl<'a> VirtualExchange<'a> {
    fn new(
        sim: &'a SimulatedCluster,
        cfg: &TrainConfig,
        placement: &'a Placement,
        fault: Option<ReplacementSchedule>,
    ) -> Self {
        let cells = cfg.cells();
        Self {
            cost: &sim.cost,
            opts: &sim.opts,
            placement,
            fault,
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
            posts: vec![(0.0, 0); cells],
            ready: vec![0.0; cells],
            prev_submit: vec![0.0; cells],
        }
    }

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

    /// Charge each live rank's gather of generation `iter` over the slots
    /// its engine reads: it waits for its own post and its live sources'
    /// latest, then receives each source's snapshot in turn over its link;
    /// a dead source costs nothing (the reader substitutes its frozen slot).
    /// Sync mode and the async bootstrap block on that; otherwise a rank
    /// blocks only until it holds the in-flight generation `iter - 1`. A
    /// post is charged nothing: a hand-off in process, and a TCP rank writes
    /// it on its own thread (0.6 % of a 3×3 loopback iteration).
    fn gather(&mut self, iter: usize, engines: &[CellEngine]) {
        let blocking = !self.async_mode || iter == 0;
        let (mut wait, mut received) = (0.0f64, 0usize);
        for (c, engine) in engines.iter().enumerate() {
            if self.absent(c, iter) {
                continue;
            }
            let reads = engine.neighbor_slots();
            let (mut arrive, mut xfer, mut bytes) = (self.posts[c].0, 0.0, 0);
            for (i, &s) in reads.iter().enumerate() {
                // Each distinct source once, as the exchange links them.
                if s != c && !reads[..i].contains(&s) && !self.absent(s, iter) {
                    let (posted, wire) = self.posts[s];
                    arrive = arrive.max(posted);
                    xfer += self.cost.p2p(wire);
                    bytes += wire;
                }
            }
            let substituted = self
                .fault
                .map(|f| f.cell)
                .filter(|&v| self.absent(v, iter) && reads.contains(&v));
            let done = self.ready[c].max(arrive) + xfer;
            let before = self.clocks[c].now();
            let (until, consumed, exchange_wall) = if blocking {
                (done, iter, done - before)
            } else {
                (self.ready[c], iter - 1, self.ready[c] - self.prev_submit[c])
            };
            self.ready[c] = done;
            self.prev_submit[c] = before;
            let clock = &mut self.clocks[c];
            clock.sync_to(until);
            wait = wait.max(clock.now() - before);
            received = received.max(bytes);

            // Gather time as a rank perceives it: wait (+ transfer).
            let (t0, t1) = (vns(before), vns(clock.now()));
            let (cell, it) = (c as u32, iter as u32);
            let tel = &mut self.tels[c];
            tel.record_at(EventKind::ExchangeBegin, cell, it, iter as u64, t0);
            if let Some(victim) = substituted {
                tel.record_at(EventKind::Degraded, cell, it, victim as u64, t0);
                tel.metrics.degraded_iters.inc();
            }
            tel.span_at(Routine::Gather, cell, it, t0, t1 - t0);
            tel.record_at(EventKind::ExchangeComplete, cell, it, consumed as u64, t1);
            tel.metrics.exchange_wall_ns.add(vns(exchange_wall));
        }
        self.comm.allgather_seconds += wait;
        self.comm.allgather_bytes += received;
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
        // gathered frame is consumed where the exchange left it.
        let compute = [Routine::Mutate, Routine::Train, Routine::UpdateGenomes];
        for (routine, host) in compute.into_iter().zip(&measured[1..]) {
            let t0 = vns(clock.now());
            clock.advance(host.as_secs_f64() * speed);
            tel.span_at(routine, c, it, t0, vns(clock.now()) - t0);
        }
    }
}

impl Exchange for VirtualExchange<'_> {
    /// Post generation `iter`: each live rank's clock pays its snapshot
    /// cost and the per-iteration overhead; the gather is charged once the
    /// step is done ([`VirtualExchange::gather`]), because only the engines
    /// know who reads whom.
    fn begin(&mut self, iter: usize, frame: &[FrameSlot], costs: &[Duration]) {
        for c in 0..self.clocks.len() {
            if self.absent(c, iter) {
                continue;
            }
            let virt = costs[c].as_secs_f64() * self.speed_of(c);
            self.clocks[c].advance(virt + self.opts.per_iteration_overhead);
            self.posts[c] =
                (self.clocks[c].now(), frame[c].as_ref().map_or(0, |s| s.wire_size()));
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

    /// Two runs trained the same: every cell's fitnesses and mixture, and
    /// the best cell.
    fn assert_same_training(a: &TrainReport, b: &TrainReport) {
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(
                (x.gen_fitness, x.disc_fitness, &x.mixture_weights),
                (y.gen_fitness, y.disc_fitness, &y.mixture_weights),
                "cell {}",
                x.cell
            );
        }
        assert_eq!(a.best_cell, b.best_cell);
    }

    #[test]
    fn sim_matches_sequential_exactly_sync_and_async() {
        // `--exchange async` is still a pure function of (seed, config):
        // the virtual cluster and the sequential trainer must agree
        // bit-for-bit — while both diverge from the sync trajectory.
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let mut reports = Vec::new();
        for cfg in [
            TrainConfig::smoke(2),
            TrainConfig::smoke(2).with_exchange(lipiz_core::ExchangeMode::Async),
        ] {
            let outcome = sim.run(&cfg, |_| toy_data(&cfg));
            let mut seq =
                lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| toy_data(&cfg));
            assert_same_training(&outcome.report, &seq.run());
            reports.push(outcome.report);
        }
        assert!(
            reports[0]
                .cells
                .iter()
                .zip(&reports[1].cells)
                .any(|(a, b)| a.gen_fitness != b.gen_fitness),
            "async run did not diverge from sync — staleness never applied"
        );
    }

    #[test]
    fn resumed_sim_matches_uninterrupted_sync_and_async() {
        // Pause the simulated cluster after one iteration, capturing each
        // cell through the per-iteration hook with the frame iteration 1
        // consumes (none in sync mode; under async the checkpointed frame
        // carries the one-generation pipeline across the pause), resume from
        // the states, and require bit-identical results.
        for exchange in [lipiz_core::ExchangeMode::Sync, lipiz_core::ExchangeMode::Async] {
            let mut cfg = TrainConfig::smoke(2).with_exchange(exchange);
            cfg.coevolution.iterations = 3;
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
                        let want = if exchange.is_async() { 4 } else { 0 };
                        assert_eq!(frame.len(), want, "{exchange:?} hook frame");
                        states = engines
                            .iter_mut()
                            .map(|e| lipiz_core::pipeline::capture_with_frame(e, frame, None))
                            .collect();
                    }
                },
            );
            assert_eq!(states.len(), 4, "pause hook never captured");

            let resumed =
                sim.run_resumable(&cfg, |_| toy_data(&cfg), Some(&states), |_, _, _| {});
            assert_eq!(resumed.report.iterations, 3);
            assert_same_training(&resumed.report, &reference.report);
        }
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
        assert_eq!(a.report.driver, "cluster-sim");
        assert!(a.virtual_wall() > 0.0 && a.host_seconds > 0.0 && a.imbalance() >= 1.0);
        // Different placements/jitter, same deterministic training results.
        for (x, y) in a.report.cells.iter().zip(&b.report.cells) {
            assert_eq!(x.gen_fitness, y.gen_fitness);
        }
        assert_ne!(a.placement, b.placement);
    }

    #[test]
    fn straggler_stretches_wall_but_not_results() {
        // Single iteration + zero comm cost: the victim's readers wait only
        // for its (short) post, never for its compute, so its 100x slowdown
        // must show up as within-run imbalance regardless of host-timing
        // noise (all ranks are measured in the same run, and the factor
        // dwarfs any contention skew).
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

    /// Post and gather generation 0 of a 4×4 Cross5 grid on fresh virtual
    /// clocks, every snapshot costing `post` of host time, and hand the
    /// exchange and one snapshot's wire size to `check`.
    fn gather_4x4(
        cost: CommCost,
        opts: SimulationOptions,
        post: Duration,
        check: impl FnOnce(&VirtualExchange, usize),
    ) {
        let mut cfg = TrainConfig::smoke(4);
        cfg.telemetry.enabled = true;
        let mut grid =
            Pipeline::whole_grid(&cfg, |_| toy_data(&cfg), None, Telemetry::disabled());
        grid.step(&mut lipiz_core::InMemoryExchange);
        let sim = SimulatedCluster::new(ClusterSpec::dedicated(1, 32), cost, opts);
        let placement = Placement::allocate(&sim.spec, 17, 1);
        let mut vx = VirtualExchange::new(&sim, &cfg, &placement, None);
        vx.begin(0, grid.latest_frame(), &[post; 16]);
        vx.gather(0, grid.engines());
        check(&vx, grid.latest_frame()[0].as_ref().unwrap().wire_size());
    }

    #[test]
    fn neighbour_exchange_receives_four_snapshots_per_rank() {
        // β = 1 s/B and nothing else charged: a rank's clock after the
        // gather is the bytes it received — its four neighbours' snapshots,
        // not all fifteen other cells'.
        let opts = SimulationOptions { per_iteration_overhead: 0.0, ..Default::default() };
        gather_4x4(CommCost { alpha: 0.0, beta: 1.0 }, opts, Duration::ZERO, |vx, wire| {
            for (c, clock) in vx.clocks.iter().enumerate() {
                assert_eq!(clock.now(), (4 * wire) as f64, "rank {c}");
            }
            assert_eq!(vx.comm.allgather_bytes, 4 * wire);
        });

        let cfg = TrainConfig::smoke(4);
        let outcome = SimulatedCluster::cluster_uy(SimulationOptions::default())
            .run(&cfg, |_| toy_data(&cfg));
        let mut slot = None;
        CellEngine::new(0, &cfg, toy_data(&cfg)).encode_snapshot_into(&mut slot);
        let wire = slot.unwrap().wire_size();
        assert_eq!(outcome.comm.allgather_bytes, cfg.coevolution.iterations * 4 * wire);
        assert!(outcome.report.profile.seconds(Routine::Gather) > 0.0);
    }

    #[test]
    fn neighbour_exchange_charges_no_wait_on_an_unread_cell() {
        // Cell 5 posts 100× late. Its four readers end their gather no
        // earlier than its post; every other rank ends before it. (Driven
        // with fixed snapshot costs, so no host timing decides it.)
        let k = 5;
        let opts = SimulationOptions {
            per_iteration_overhead: 0.0,
            straggler: Some((k, 100.0)),
            ..Default::default()
        };
        gather_4x4(CommCost::free(), opts, Duration::from_millis(1), |vx, _| {
            let at = |c: usize, kind: EventKind| {
                vx.tels[c].events().find(|e| e.kind == kind).expect("journaled").t_ns
            };
            let k_posts = at(k, EventKind::ExchangeBegin);
            let grid = Grid::from_config(&TrainConfig::smoke(4).grid);
            let readers: Vec<usize> =
                (0..16).filter(|&c| grid.neighbors(c).contains(&k)).collect();
            assert_eq!(readers, [1, 4, 6, 9]);
            for c in (0..16).filter(|&c| c != k) {
                let end = at(c, Routine::Gather.end_kind());
                if readers.contains(&c) {
                    assert!(end >= k_posts, "reader {c} ended its gather at {end} < {k_posts}");
                } else {
                    assert!(end < k_posts, "rank {c} waited on cell {k}: {end} ≥ {k_posts}");
                }
            }
        });
    }
}
