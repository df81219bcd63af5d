//! One-call entry points for a distributed run — over the in-process
//! fabric (every rank a thread) or over the TCP transport (every rank an
//! OS process; see [`lipiz_mpi::tcp::TcpFabric`]).

use crate::comm_manager::CommManager;
use crate::master::{run_master, MasterAbort, MasterOutcome, Replacer};
use crate::slave::run_slave;
use crate::state::SlaveState;
use lipiz_core::TrainConfig;
use lipiz_mpi::tcp::TcpFabric;
use lipiz_mpi::Universe;
use lipiz_tensor::Matrix;
use std::net::{TcpListener, ToSocketAddrs};
use std::time::Duration;

/// Knobs for the distributed runtime that are not part of the training
/// configuration proper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedOptions {
    /// Delay between heartbeat rounds ("Wait X seconds" in Fig. 3) where
    /// the config's `fault.heartbeat_interval_ms` is unset.
    pub heartbeat_interval: Duration,
    /// Per-round heartbeat response deadline; `None` derives
    /// `max(heartbeat_interval, 50ms)`.
    pub response_timeout: Option<Duration>,
    /// Consecutive missed heartbeat rounds after which a slave is declared
    /// dead and the run aborts for recovery, where the config's
    /// `fault.heartbeat_misses` is unset. `0` (the default) never declares
    /// death — monitoring only, the pre-elastic behavior.
    pub deadline_misses: usize,
    /// Start every slave from this committed checkpoint iteration instead
    /// of initializing fresh (the config's checkpoint directory names the
    /// files). `None` = fresh run.
    pub resume_from: Option<usize>,
}

impl Default for DistributedOptions {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(50),
            response_timeout: None,
            deadline_misses: 0,
            resume_from: None,
        }
    }
}

/// Launch `cells + 1` ranks (Table II: an `m×m` grid uses `m² + 1` tasks),
/// run the full master/slave protocol, and return the master's outcome.
///
/// `make_data(cell, cfg)` builds each slave's local dataset — it runs *on
/// the slave rank*, mirroring Fig. 3's "download data" step.
pub fn run_distributed(
    cfg: &TrainConfig,
    make_data: impl Fn(usize, &TrainConfig) -> Matrix + Send + Sync,
    opts: DistributedOptions,
) -> MasterOutcome {
    let n = cfg.cells() + 1;
    let mut outcomes = Universe::run(n, |world| {
        let cm = CommManager::new(world);
        if cm.is_master() {
            let outcome = run_master(&cm, cfg, &opts, None)
                .unwrap_or_else(|e| panic!("in-process distributed run aborted: {e}"));
            Some(outcome)
        } else {
            let node = format!("node{:02}", cm.world_rank());
            run_slave(&cm, &make_data, &node);
            None
        }
    });
    outcomes.swap_remove(0).expect("master rank produces the outcome")
}

/// Master side of a multi-process TCP run: accept `cfg.cells()` slave
/// connections on `listener`, run the full master lifecycle, and shut the
/// transport down once the final gather lands. The caller binds the
/// listener so it can advertise (or spawn slaves against) the actual port
/// before accepting starts.
///
/// The same [`run_master`] drives both transports — this function only
/// swaps the fabric underneath it, which is exactly the decoupling the
/// paper's comm-manager design argues for.
pub fn run_tcp_master(
    listener: TcpListener,
    cfg: &TrainConfig,
    opts: DistributedOptions,
) -> std::io::Result<MasterOutcome> {
    run_tcp_master_elastic(listener, cfg, opts, None)?
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// [`run_tcp_master`] exposing the abort outcome: the outer `Result` is
/// transport bootstrap failure, the inner one a monitored-run abort (a
/// heartbeat-declared slave death) that the caller can recover from by
/// respawning slaves and rerunning from the last committed checkpoint.
/// The fabric is shut down on every path before returning.
///
/// With `spawn_replacement`, in-flight rank replacement is armed: when the
/// config's fault plan scripts a replaceable kill and the heartbeat
/// convicts that rank, the master calls `spawn_replacement(victim_rank)` —
/// the caller respawns just that one OS process (pointing it at
/// [`run_tcp_rejoin_slave`]) — then completes the rejoin handshake on its
/// retained bootstrap listener and hands the newcomer its catch-up task.
/// The surviving fleet never tears down; a failed replacement falls back
/// to the coordinated-recovery abort the caller already handles.
pub fn run_tcp_master_elastic(
    listener: TcpListener,
    cfg: &TrainConfig,
    opts: DistributedOptions,
    spawn_replacement: Option<&dyn Fn(usize) -> std::io::Result<()>>,
) -> std::io::Result<Result<MasterOutcome, MasterAbort>> {
    let fabric = TcpFabric::master(listener, cfg.cells() + 1)?;
    let cm = CommManager::new(Universe::attach(fabric.clone(), 0));
    let replacer = spawn_replacement.map(|spawn| {
        |victim: usize| -> bool {
            spawn(victim).is_ok()
                && fabric.accept_rejoin(victim, Duration::from_secs(60)).is_ok()
        }
    });
    let outcome = run_master(&cm, cfg, &opts, replacer.as_ref().map(|r| r as &Replacer<'_>));
    fabric.shutdown();
    Ok(outcome)
}

/// Replacement-slave side of an in-flight rejoin: dial the master's
/// bootstrap listener, inherit the dead rank's identity and mesh (the
/// survivors' links are re-established toward this process), then run the
/// ordinary slave lifecycle — the run task it receives carries the
/// resume-and-catch-up markers.
pub fn run_tcp_rejoin_slave(
    master_addr: impl ToSocketAddrs,
    make_data: impl Fn(usize, &TrainConfig) -> Matrix + Sync,
) -> std::io::Result<SlaveState> {
    let fabric = TcpFabric::rejoin(master_addr)?;
    let rank = fabric.rank();
    let cm = CommManager::new(Universe::attach(fabric.clone(), rank));
    let state = run_slave(&cm, &make_data, &format!("node{rank:02}r"));
    fabric.shutdown_when_drained();
    Ok(state)
}

/// Slave side of a multi-process TCP run: dial the master at
/// `master_addr`, learn this process's rank, run the full slave lifecycle
/// (identical to the in-process driver's), and drain the transport before
/// returning so the final result frame is never lost to a reset.
pub fn run_tcp_slave(
    master_addr: impl ToSocketAddrs,
    make_data: impl Fn(usize, &TrainConfig) -> Matrix + Sync,
) -> std::io::Result<SlaveState> {
    let fabric = TcpFabric::slave(master_addr)?;
    let rank = fabric.rank();
    let cm = CommManager::new(Universe::attach(fabric.clone(), rank));
    let state = run_slave(&cm, &make_data, &format!("node{rank:02}"));
    fabric.shutdown_when_drained();
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_core::Routine;
    use lipiz_tensor::Rng64;

    fn toy_data(cell: usize, cfg: &TrainConfig) -> Matrix {
        let _ = cell; // every cell trains on the same deterministic data
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    #[test]
    fn distributed_smoke_run_completes() {
        let cfg = TrainConfig::smoke(2);
        let outcome = run_distributed(&cfg, toy_data, DistributedOptions::default());
        let report = &outcome.report;
        assert_eq!(report.driver, "distributed");
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.iterations, 2);
        assert!(report.wall_seconds > 0.0);
        assert!(report.best().gen_fitness.is_finite());
        // All four slaves announced themselves.
        assert_eq!(outcome.announcements.len(), 4);
        assert!(outcome.announcements.iter().all(|a| a.node_name.starts_with("node")));
        // Training time was recorded per routine.
        assert!(report.profile.seconds(Routine::Train) > 0.0);
    }

    #[test]
    fn distributed_matches_sequential_exactly() {
        // The headline equivalence: same config + same data ⇒ identical
        // per-cell fitness and mixtures across drivers.
        let cfg = TrainConfig::smoke(2);
        let outcome = run_distributed(&cfg, toy_data, DistributedOptions::default());

        let mut seq =
            lipiz_core::sequential::SequentialTrainer::new(&cfg, |cell| toy_data(cell, &cfg));
        let seq_report = seq.run();

        for (d, s) in outcome.report.cells.iter().zip(&seq_report.cells) {
            assert_eq!(d.cell, s.cell);
            assert_eq!(d.gen_fitness, s.gen_fitness, "cell {} gen fitness", d.cell);
            assert_eq!(d.disc_fitness, s.disc_fitness, "cell {} disc fitness", d.cell);
            assert_eq!(d.mixture_weights, s.mixture_weights, "cell {} mixture", d.cell);
        }
        assert_eq!(outcome.report.best_cell, seq_report.best_cell);
    }

    #[test]
    fn async_exchange_matches_sequential_async_exactly() {
        // The tentpole equivalence: under `--exchange async` the pipelined
        // slaves (each completes generation i-1 on its own thread before it
        // posts generation i: structural staleness 1) must be bit-identical
        // to the sequential trainer running the same staleness schedule —
        // async results are a pure function of (seed, config), never of
        // delivery timing.
        let cfg = TrainConfig::smoke(2).with_exchange(lipiz_core::ExchangeMode::Async);
        let outcome = run_distributed(&cfg, toy_data, DistributedOptions::default());
        let mut seq =
            lipiz_core::sequential::SequentialTrainer::new(&cfg, |cell| toy_data(cell, &cfg));
        let seq_report = seq.run();
        for (d, s) in outcome.report.cells.iter().zip(&seq_report.cells) {
            assert_eq!(d.gen_fitness, s.gen_fitness, "cell {} gen fitness", d.cell);
            assert_eq!(d.disc_fitness, s.disc_fitness, "cell {} disc fitness", d.cell);
            assert_eq!(d.mixture_weights, s.mixture_weights, "cell {} mixture", d.cell);
        }
        assert_eq!(outcome.report.best_cell, seq_report.best_cell);

        // And the staleness is real: an async run consumes generation
        // `i - 1` at iteration `i`, so it must diverge from the sync run.
        let sync_cfg = TrainConfig::smoke(2);
        let sync = run_distributed(&sync_cfg, toy_data, DistributedOptions::default());
        assert!(
            outcome
                .report
                .cells
                .iter()
                .zip(&sync.report.cells)
                .any(|(a, s)| a.gen_fitness != s.gen_fitness),
            "async run was identical to sync — staleness never took effect"
        );
    }

    #[test]
    fn reserved_workers_per_cell_slot_is_inert_end_to_end() {
        // Nothing reads `workers_per_cell`: slaves handed any value in the
        // wire config must train exactly what the default trains.
        let reference_cfg = TrainConfig::smoke(2);
        let reference =
            run_distributed(&reference_cfg, toy_data, DistributedOptions::default());
        for workers in 2..=4 {
            let mut cfg = TrainConfig::smoke(2);
            cfg.training.workers_per_cell = workers;
            let run = run_distributed(&cfg, toy_data, DistributedOptions::default());
            for (s, t) in reference.report.cells.iter().zip(&run.report.cells) {
                assert_eq!(s.gen_fitness, t.gen_fitness, "cell {} gen fitness", s.cell);
                assert_eq!(s.disc_fitness, t.disc_fitness, "cell {} disc fitness", s.cell);
                assert_eq!(s.mixture_weights, t.mixture_weights, "cell {} mixture", s.cell);
            }
            assert_eq!(
                run.best_ensemble(&cfg),
                reference.best_ensemble(&reference_cfg),
                "ensemble drift at workers_per_cell = {workers}"
            );
        }
    }

    #[test]
    fn shipped_ensemble_matches_sequential_rebuild() {
        // The genomes gathered from the slaves must reassemble into exactly
        // the model a sequential run computes locally — weights, genomes,
        // and network config all bit-equal.
        let cfg = TrainConfig::smoke(2);
        let outcome = run_distributed(&cfg, toy_data, DistributedOptions::default());
        let mut seq =
            lipiz_core::sequential::SequentialTrainer::new(&cfg, |cell| toy_data(cell, &cfg));
        let seq_report = seq.run();
        let mut seq_ensembles = seq.ensembles();
        assert_eq!(outcome.report.best_cell, seq_report.best_cell);
        let shipped = outcome.best_ensemble(&cfg);
        let local = seq_ensembles.swap_remove(seq_report.best_cell);
        assert_eq!(shipped, local);
    }

    #[test]
    fn tcp_transport_matches_sequential_exactly() {
        // The full master/slave protocol over real localhost sockets (each
        // rank a thread of this test, but all traffic through TcpFabric)
        // must be bit-identical to the sequential baseline — the in-process
        // half of the equivalence the multi-OS-process suite completes.
        let cfg = TrainConfig::smoke(2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let outcome = std::thread::scope(|s| {
            for _ in 0..cfg.cells() {
                s.spawn(move || run_tcp_slave(addr, toy_data).expect("tcp slave"));
            }
            run_tcp_master(listener, &cfg, DistributedOptions::default()).expect("tcp master")
        });

        let mut seq =
            lipiz_core::sequential::SequentialTrainer::new(&cfg, |cell| toy_data(cell, &cfg));
        let seq_report = seq.run();
        for (d, s) in outcome.report.cells.iter().zip(&seq_report.cells) {
            assert_eq!(d.gen_fitness, s.gen_fitness, "cell {} gen fitness", d.cell);
            assert_eq!(d.disc_fitness, s.disc_fitness, "cell {} disc fitness", d.cell);
            assert_eq!(d.mixture_weights, s.mixture_weights, "cell {} mixture", d.cell);
        }
        assert_eq!(outcome.report.best_cell, seq_report.best_cell);
        let shipped = outcome.best_ensemble(&cfg);
        assert_eq!(shipped, seq.ensembles().swap_remove(seq_report.best_cell));
    }

    #[test]
    #[should_panic(expected = "unusable fault plan: fault spec: bad rank: \"banana\"")]
    fn unparseable_fault_plan_is_refused_before_any_slave_is_given_work() {
        // The master's refusal is the panic reported; the slaves, still
        // waiting for their task, fail with it instead of wedging the run.
        let cfg = TrainConfig::smoke(2).with_fault_plan("kill:banana@x", 2);
        run_distributed(&cfg, toy_data, DistributedOptions::default());
    }

    #[test]
    fn heartbeat_observes_progress() {
        let mut cfg = TrainConfig::smoke(2);
        // Enough work that at least one heartbeat round lands mid-training.
        cfg.coevolution.iterations = 6;
        let opts = DistributedOptions {
            heartbeat_interval: Duration::from_millis(5),
            ..DistributedOptions::default()
        };
        let outcome = run_distributed(&cfg, toy_data, opts);
        assert!(!outcome.heartbeat.is_empty(), "no heartbeat rounds ran");
    }
}
