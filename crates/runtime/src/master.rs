//! Master process logic (Fig. 3, left side).
//!
//! The master: gathers node information, decides the workload assignment,
//! distributes the parameter configuration, monitors the slaves with a
//! background heartbeat thread, and finally gathers and reduces the
//! results.

use crate::checkpoint::{self, CheckpointError};
use crate::comm_manager::CommManager;
use crate::driver::DistributedOptions;
use crate::heartbeat::{run_heartbeat_loop_with_deadline, HeartbeatLog, Liveness};
use crate::protocol::{NodeAnnouncement, RunTask, SlaveResult};
use lipiz_core::{
    CellResult, EnsembleModel, Grid, MixtureWeights, ProfileReport, TrainConfig, TrainReport,
};
use lipiz_mpi::fault::FaultSpecError;
use lipiz_mpi::scheduled_replacement;
use lipiz_telemetry::{EventKind, SharedTelemetry, Telemetry, TelemetrySummary};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hook the elastic master calls to bring a replacement for the given dead
/// WORLD rank onto the transport: spawn (or adopt) a fresh process and
/// complete its rejoin handshake. Returns whether the replacement is
/// connected and ready to announce. The master never tears the surviving
/// fleet down while one of these succeeds.
pub type Replacer<'a> = dyn Fn(usize) -> bool + 'a;

/// How long the master waits for a connected replacement's node
/// announcement before giving up on the in-flight path.
const REJOIN_ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a monitored master run aborted instead of completing.
///
/// The variants carry enough context for recovery logs to *name* the
/// failure: the dead slave's WORLD rank and grid cell, plus the heartbeat
/// evidence that convicted it.
#[derive(Debug)]
pub enum MasterAbort {
    /// A slave missed its heartbeat deadline (or went silent before the
    /// final gather) and was declared dead.
    SlaveDead {
        /// WORLD rank of the dead slave.
        world_rank: usize,
        /// Grid cell that slave was training.
        cell: usize,
        /// The heartbeat log up to the abort.
        heartbeat: HeartbeatLog,
    },
    /// The run's checkpoint manifest could not be written.
    Checkpoint(CheckpointError),
    /// The config's fault plan does not parse; no slave was given work.
    FaultPlan(FaultSpecError),
}

impl std::fmt::Display for MasterAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasterAbort::SlaveDead { world_rank, cell, .. } => write!(
                f,
                "slave world rank {world_rank} (cell {cell}) missed its heartbeat deadline"
            ),
            MasterAbort::Checkpoint(e) => write!(f, "checkpoint setup failed: {e}"),
            MasterAbort::FaultPlan(e) => write!(f, "unusable fault plan: {e}"),
        }
    }
}

impl std::error::Error for MasterAbort {}

/// Everything the master learned from a run.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterOutcome {
    /// The combined training report (driver = "distributed").
    pub report: TrainReport,
    /// Node announcements received at startup.
    pub announcements: Vec<NodeAnnouncement>,
    /// Heartbeat monitoring log.
    pub heartbeat: HeartbeatLog,
    /// Raw per-slave results (cell order).
    pub slave_results: Vec<SlaveResult>,
    /// Run telemetry merged across all slaves (`None` when `--telemetry`
    /// is off). The CLI persists this next to the `.lpz`.
    pub telemetry: Option<TelemetrySummary>,
}

impl MasterOutcome {
    /// Reassemble the winning cell's generative model from the genomes the
    /// slave shipped in its final gather. Byte-identical to the ensemble
    /// the slave's own engine would report (the mixture weights cross the
    /// wire exactly and are **not** renormalized), which is what the
    /// multi-process `.lpz` equivalence suite asserts.
    ///
    /// # Panics
    /// Panics if the gathered results are empty (no slaves ran).
    pub fn best_ensemble(&self, cfg: &TrainConfig) -> EnsembleModel {
        let best = &self.slave_results[self.report.best_cell];
        EnsembleModel::new(
            cfg.network.to_network_config(),
            best.ensemble.clone(),
            MixtureWeights::from_normalized(&best.mixture),
        )
    }
}

/// Workload assignment: which WORLD rank trains which grid cell.
///
/// Uniform partitioning (§III-A): the estimated workload in every cell is
/// identical, so cell `i` simply goes to slave rank `i + 1`.
pub fn assign_workload(num_slaves: usize) -> Vec<(usize, usize)> {
    (0..num_slaves).map(|cell| (cell + 1, cell)).collect()
}

/// Run the complete master lifecycle.
///
/// The heartbeat thread monitors the slaves in the background and counts
/// their missed rounds; the final gather is the one judge of a death (see
/// `casualty`). With a death deadline of `n > 0` missed rounds, a pending
/// slave that misses `n` in a row — or whose connection dies — abandons
/// the gather and [`MasterAbort::SlaveDead`] names the failed rank: the
/// caller (the `lipizzaner launch` recovery loop) respawns slaves and
/// reruns from the last committed checkpoint cut. With `0` a silent slave
/// is logged as delayed but only a dead connection is declared dead.
/// Cadence and deadline come from the config alone (`cfg.fault`'s
/// [`heartbeat_interval`](lipiz_core::FaultConfig::heartbeat_interval) and
/// [`convict_after`](lipiz_core::FaultConfig::convict_after), which ride
/// the wire).
///
/// With a `replacer`, the rank the config's fault plan scripts to die is
/// replaced in flight instead: when the gather convicts it the master
/// respawns *only* that rank. The replacer brings a fresh process onto the
/// transport (rejoin handshake included); the master then awaits its
/// announcement and hands it a [`RunTask`]
/// carrying the dead cell's newest committed checkpoint cut plus the
/// rejoin round at which it must be back in the exchange. Survivors never
/// leave iteration cadence: each rank that reads the victim bridges the gap
/// from its own stale cache while the replacement catches up solo. A
/// failed replacement (spawn, handshake, or announcement) falls back to the
/// abort.
pub fn run_master(
    cm: &CommManager,
    cfg: &TrainConfig,
    opts: &DistributedOptions,
    replacer: Option<&Replacer<'_>>,
) -> Result<MasterOutcome, MasterAbort> {
    assert_eq!(
        cm.num_slaves(),
        cfg.cells(),
        "need exactly one slave per grid cell (Table II: m²+1 tasks)"
    );
    let start = Instant::now();

    // Replacement state: the schedule the fault plan implies (if its kill
    // is replaceable). A plan that does not parse is refused here, before
    // any slave is given work — every rank parses the same string and may
    // rely on it.
    let sched = scheduled_replacement(
        cfg.fault.plan.as_deref(),
        cfg.fault.max_stale_iters,
        cfg.checkpoint.every,
        cfg.checkpoint.effective_iterations(cfg.coevolution.iterations),
        cfg.cells(),
    )
    .map_err(MasterAbort::FaultPlan)?;

    let heartbeat_interval = cfg.fault.heartbeat_interval();

    // Master-side telemetry: the heartbeat thread journals misses, the
    // gather journals the convictions it acts on and the rejoins, and the
    // tag-16 drain below folds live slave summaries into a status line.
    let tel = SharedTelemetry::new(Telemetry::from_gate(
        cfg.telemetry.enabled,
        0,
        cfg.telemetry.ring_capacity,
    ));
    let live: Mutex<HashMap<u32, TelemetrySummary>> = Mutex::new(HashMap::new());

    // The master is the run's coordinator: it owns the checkpoint manifest.
    if cfg.checkpoint.enabled() {
        let dir = cfg.checkpoint.dir.as_deref().expect("enabled checkpoint has a dir");
        checkpoint::write_manifest(Path::new(dir), cfg).map_err(MasterAbort::Checkpoint)?;
    }

    // i) gather infrastructure information. A slave dying *before* it
    // announces (the heartbeat thread does not exist yet) aborts here with
    // its rank instead of wedging the master.
    let announcements = cm
        .collect_announcements(heartbeat_interval.max(Duration::from_millis(10)))
        .map_err(|world_rank| MasterAbort::SlaveDead {
            world_rank,
            cell: world_rank - 1,
            heartbeat: HeartbeatLog::default(),
        })?;

    // ii + iii) decide placement and assign workload.
    let assignment = assign_workload(cm.num_slaves());

    // iv) share the parameter configuration and launch the slaves.
    for &(rank, cell) in &assignment {
        cm.send_run_task(
            rank,
            &RunTask {
                config: cfg.clone(),
                cell_index: cell,
                resume_from: opts.resume_from,
                rejoin_round: None,
            },
        );
    }

    // The heartbeat thread observes in the background while the master
    // waits for the final gather; the gather judges what it observed.
    let response_timeout = heartbeat_interval.max(Duration::from_millis(50));
    let stop = AtomicBool::new(false);
    let liveness = Liveness::new(cm.num_slaves());
    let convict_after = cfg.fault.convict_after();
    // The verdict the gather last acted on, and the in-flight replacement:
    // not tried, or tried with this outcome (one attempt per run — any
    // later death aborts the old-fashioned way).
    let verdict: Cell<Option<Verdict>> = Cell::new(None);
    let replacement: Cell<Option<bool>> = Cell::new(None);
    let (gathered, heartbeat) = std::thread::scope(|s| {
        let hb = s.spawn(|| {
            run_heartbeat_loop_with_deadline(
                cm,
                heartbeat_interval,
                response_timeout,
                &stop,
                &liveness,
                Some(&tel),
            )
        });
        let poll = heartbeat_interval.max(Duration::from_millis(10));
        let results = cm.gather_results_abortable(poll, &|pending: &[usize]| {
            // Fold any summaries slaves shipped at checkpoint boundaries
            // into the live status line (tag 16 is only ever sent when
            // telemetry is on, so the drain is free otherwise).
            if tel.is_enabled() {
                let mut drained = false;
                while let Some(s) = cm.try_recv_telemetry(Duration::ZERO) {
                    live.lock().expect("telemetry live map").insert(s.rank, s);
                    drained = true;
                }
                if drained {
                    let mut merged = TelemetrySummary::empty();
                    for s in live.lock().expect("telemetry live map").values() {
                        merged.merge(s);
                    }
                    eprintln!("[master] {}", merged.status_line());
                }
            }
            let replaced =
                sched.filter(|_| replacement.get() == Some(true)).map(|s| s.victim_world);
            let Some(v) = casualty(cm, pending, &liveness, convict_after, replaced) else {
                return false;
            };
            if verdict.replace(Some(v)) != Some(v) && v.by_misses {
                tel.instant(
                    EventKind::Conviction,
                    v.rank as u32,
                    liveness.last_reported(v.rank) as u32,
                    liveness.misses(v.rank) as u64,
                );
            }
            // The scripted victim died and a replacer is on hand: bring a
            // replacement onto the transport in-flight instead of aborting.
            // The replacement announces, restores, catches up solo, and
            // rejoins the exchange at the scheduled round while the gather
            // simply keeps waiting.
            if let (Some(sched), Some(replace)) = (sched, replacer) {
                if v.rank == sched.victim_world && replacement.get().is_none() {
                    let connected = replace(sched.victim_world)
                        && cm
                            .await_announcement_from(
                                sched.victim_world,
                                REJOIN_ANNOUNCE_TIMEOUT,
                            )
                            .is_some();
                    replacement.set(Some(connected));
                    if connected {
                        cm.send_run_task(
                            sched.victim_world,
                            &RunTask {
                                config: cfg.clone(),
                                cell_index: sched.cell,
                                resume_from: sched.resume_cut,
                                rejoin_round: Some(sched.rejoin_round),
                            },
                        );
                        tel.instant(
                            EventKind::Rejoin,
                            sched.cell as u32,
                            sched.rejoin_round as u32,
                            sched.victim_world as u64,
                        );
                        return false;
                    }
                }
            }
            true
        });
        stop.store(true, Ordering::Release);
        let log = hb.join().expect("heartbeat thread panicked");
        (results, log)
    });

    // Flush the master's own journal (conviction evidence survives even an
    // aborted run) before deciding the outcome.
    tel.flush_journal(cfg.telemetry.dir.as_deref(), "master.jsonl");

    match gathered {
        Ok(slave_results) => {
            let wall_seconds = start.elapsed().as_secs_f64();
            let report = reduce_results(cfg, &slave_results, wall_seconds);
            let telemetry =
                merge_telemetry(cfg, &slave_results, replacement.get() == Some(true));
            if let Some(merged) = &telemetry {
                eprintln!("[master] {}", merged.status_line());
            }
            Ok(MasterOutcome { report, announcements, heartbeat, slave_results, telemetry })
        }
        Err(_) => {
            // The gather aborts only on a verdict: it names the casualty.
            let world_rank = verdict.get().expect("an aborted gather follows a verdict").rank;
            Err(MasterAbort::SlaveDead { world_rank, cell: world_rank - 1, heartbeat })
        }
    }
}

/// A death verdict: the dead slave's WORLD rank, and whether its heartbeat
/// misses convicted it (rather than its dead connection).
#[derive(Clone, Copy, PartialEq)]
struct Verdict {
    rank: usize,
    by_misses: bool,
}

/// The one judge of a slave's death, over the ranks whose result has not
/// arrived (`pending`; a rank that delivered is never judged, however quiet
/// it went after): the lowest that missed `convict_after` heartbeat rounds
/// in a row, else the lowest whose transport connection is gone (the
/// doomed-gather signal — it fires within milliseconds of a process death,
/// well before the deadline can convict, and even with monitoring off).
/// `replaced`, the rank replaced in flight, is judged by its connection
/// alone: the misses its predecessor ran up while dying are not its own.
fn casualty(
    cm: &CommManager,
    pending: &[usize],
    liveness: &Liveness,
    convict_after: Option<usize>,
    replaced: Option<usize>,
) -> Option<Verdict> {
    let missed = |&r: &usize| {
        Some(r) != replaced && convict_after.is_some_and(|n| liveness.misses(r) >= n)
    };
    let silent =
        pending.iter().copied().find(missed).map(|rank| Verdict { rank, by_misses: true });
    silent.or_else(|| {
        let rank = pending.iter().copied().find(|&r| cm.connection_dead(r))?;
        Some(Verdict { rank, by_misses: false })
    })
}

/// Fold the final per-slave telemetry summaries into the run-wide view
/// (`None` when telemetry is off). `replaced` records whether the master
/// performed an in-flight rank replacement — a master-side fact the
/// slaves cannot report themselves.
fn merge_telemetry(
    cfg: &TrainConfig,
    slave_results: &[SlaveResult],
    replaced: bool,
) -> Option<TelemetrySummary> {
    if !cfg.telemetry.is_enabled() {
        return None;
    }
    let mut merged = TelemetrySummary::empty();
    for r in slave_results {
        merged.merge(&r.telemetry);
    }
    merged.replaced_ranks += u64::from(replaced);
    Some(merged)
}

/// Reduction phase: combine per-slave results into the final report and
/// pick the best cell (lowest generator fitness).
pub fn reduce_results(
    cfg: &TrainConfig,
    slave_results: &[SlaveResult],
    wall_seconds: f64,
) -> TrainReport {
    let grid = Grid::from_config(&cfg.grid);
    let cells = slave_results
        .iter()
        .map(|r| CellResult {
            cell: r.cell,
            coords: grid.coords(r.cell),
            gen_fitness: r.gen_fitness,
            disc_fitness: r.disc_fitness,
            mixture_weights: r.mixture.clone(),
        })
        .collect();
    // Distributed profile: the per-rank mean of the totals each slave
    // shipped in its one aggregate.
    TrainReport::assemble(
        "distributed",
        (cfg.grid.rows, cfg.grid.cols),
        cfg.coevolution.iterations,
        wall_seconds,
        ProfileReport::rank_mean(slave_results.iter().map(|r| &r.telemetry)),
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_core::Routine;

    fn result(cell: usize, fit: f64, train_secs: f64) -> SlaveResult {
        let mut tel = Telemetry::disabled();
        for iter in 0..4 {
            tel.span_at(Routine::Train, cell as u32, iter, 0, (train_secs * 0.25e9) as u64);
        }
        SlaveResult {
            cell,
            gen_fitness: fit,
            disc_fitness: 0.5,
            mixture: vec![1.0],
            ensemble: vec![vec![0.0; 4]],
            wall_seconds: 1.0,
            telemetry: tel.summary(cell as u32),
        }
    }

    #[test]
    fn workload_assignment_is_uniform() {
        let a = assign_workload(4);
        assert_eq!(a, vec![(1, 0), (2, 1), (3, 2), (4, 3)]);
    }

    #[test]
    fn reduction_picks_lowest_fitness() {
        let cfg = lipiz_core::TrainConfig::smoke(2);
        let results: Vec<SlaveResult> =
            (0..4).map(|c| result(c, 1.0 - c as f64 * 0.1, 2.0)).collect();
        let report = reduce_results(&cfg, &results, 10.0);
        assert_eq!(report.best_cell, 3);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.driver, "distributed");
        assert_eq!(report.grid, (2, 2));
    }

    #[test]
    fn reduced_profile_is_the_per_rank_mean_and_telemetry_stays_off() {
        let cfg = lipiz_core::TrainConfig::smoke(2);
        let results = vec![result(0, 0.0, 2.0), result(1, 0.0, 4.0)];
        let profile = reduce_results(&cfg, &results, 1.0).profile;
        assert!((profile.seconds(Routine::Train) - 3.0).abs() < 1e-9);
        assert_eq!(profile.rows[Routine::Train as usize].calls, 4, "per rank, not summed");
        assert_eq!(profile.seconds(Routine::Gather), 0.0);
        // The totals always ride the result; the merged summary is still
        // only produced when telemetry is on.
        assert_eq!(merge_telemetry(&cfg, &results, false), None);
    }

    #[test]
    fn monitored_master_names_a_dead_slave_instead_of_hanging() {
        // A slave that takes its task and then dies silently: with a death
        // deadline configured, the master must abandon the final gather and
        // name the dead rank — never wedge. (1×1 grid so no surviving slave
        // is left blocked in a collective.) The in-process connection never
        // dies, so the heartbeat misses convict, and the master's journal
        // records that verdict once.
        use lipiz_mpi::Universe;
        let tel_dir = std::env::temp_dir()
            .join(format!("lipiz_master_conviction_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tel_dir);
        let mut cfg = lipiz_core::TrainConfig::smoke(2)
            .with_heartbeat(5, 3)
            .with_telemetry(tel_dir.to_str().expect("utf-8 temp dir"), 1024);
        cfg.grid.rows = 1;
        cfg.grid.cols = 1;
        let results = Universe::run(2, |world| {
            let cm = crate::comm_manager::CommManager::new(world);
            if cm.is_master() {
                let opts = crate::driver::DistributedOptions::default();
                Some(run_master(&cm, &cfg, &opts, None))
            } else {
                // Take the workload, then die without a word.
                cm.announce_node("doomed");
                let _task = cm.recv_run_task();
                None
            }
        });
        let outcome = results.into_iter().next().unwrap().unwrap();
        match outcome {
            Err(MasterAbort::SlaveDead { world_rank, cell, heartbeat }) => {
                assert_eq!(world_rank, 1);
                assert_eq!(cell, 0);
                assert!(heartbeat.any_delayed(), "death declared without evidence");
            }
            other => panic!("expected SlaveDead, got {other:?}"),
        }
        let text =
            std::fs::read_to_string(tel_dir.join("master.jsonl")).expect("master journal");
        let journal = lipiz_telemetry::parse_journal(&text).expect("journal parses");
        let convictions: Vec<u32> = journal
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Conviction)
            .map(|e| e.cell)
            .collect();
        assert_eq!(convictions, [1], "one conviction, naming world rank 1");
        assert!(!text.contains("conviction_cleared"));
        let _ = std::fs::remove_dir_all(&tel_dir);
    }

    #[test]
    fn a_delivered_silent_slave_cannot_mask_a_real_death() {
        // Slave 1 delivers its result and goes silent, so it runs up misses
        // as fast as slave 2, which stays connected but never answers and
        // never delivers. Only a pending rank is judged: the abort must
        // name rank 2, not the quiet finisher ahead of it in rank order.
        use lipiz_mpi::Universe;
        let mut cfg = lipiz_core::TrainConfig::smoke(2).with_heartbeat(5, 2);
        cfg.grid.rows = 1;
        cfg.grid.cols = 2;
        let results = Universe::run(3, |world| {
            let cm = crate::comm_manager::CommManager::new(world);
            if cm.is_master() {
                let opts = crate::driver::DistributedOptions::default();
                return Some(run_master(&cm, &cfg, &opts, None));
            }
            cm.announce_node(&format!("node{}", cm.world_rank()));
            let task = cm.recv_run_task();
            if cm.world_rank() == 1 {
                cm.gather_results(Some(result(task.cell_index, 0.5, 1.0)));
            }
            // Both drain status requests without answering until the
            // master stops asking.
            while cm.poll_status_request(Duration::from_millis(300)) {}
            None
        });
        match results.into_iter().next().unwrap().unwrap() {
            Err(MasterAbort::SlaveDead { world_rank, cell, .. }) => {
                assert_eq!((world_rank, cell), (2, 1), "the wedged rank must be named");
            }
            other => panic!("expected SlaveDead, got {other:?}"),
        }
    }

    #[test]
    fn early_finisher_going_silent_is_not_convicted() {
        // The finishing-skew scenario: slave 1 delivers its result early and
        // stops answering heartbeats (exactly what a finished slave does),
        // while slave 2 keeps training well past the death deadline. The
        // conviction of the silent-but-delivered slave must be recognized
        // as stale — the run completes instead of aborting.
        use crate::protocol::StatusReport;
        use lipiz_mpi::Universe;
        // Harsh: two missed rounds (about 110 ms of silence) convict.
        let mut cfg = lipiz_core::TrainConfig::smoke(2).with_heartbeat(5, 2);
        cfg.grid.rows = 1;
        cfg.grid.cols = 2;
        let results = Universe::run(3, |world| {
            let cm = crate::comm_manager::CommManager::new(world);
            if cm.is_master() {
                let opts = crate::driver::DistributedOptions::default();
                return Some(run_master(&cm, &cfg, &opts, None));
            }
            cm.announce_node(&format!("node{}", cm.world_rank()));
            let task = cm.recv_run_task();
            if cm.world_rank() == 1 {
                // Deliver immediately, then go silent but stay alive while
                // the other slave keeps the run open far past the deadline.
                cm.gather_results(Some(result(task.cell_index, 0.5, 1.0)));
                std::thread::sleep(Duration::from_millis(300));
            } else {
                // Slow trainer: keeps answering heartbeats for a while,
                // then delivers.
                let deadline = Instant::now() + Duration::from_millis(250);
                while Instant::now() < deadline {
                    if cm.poll_status_request(Duration::from_millis(5)) {
                        cm.respond_status(&StatusReport { state: 1, iterations_done: 1 });
                    }
                }
                cm.gather_results(Some(result(task.cell_index, 0.7, 1.0)));
            }
            None
        });
        let outcome = results.into_iter().next().unwrap().unwrap();
        match outcome {
            Ok(o) => assert_eq!(o.report.cells.len(), 2),
            Err(e) => panic!("healthy skewed run was aborted: {e}"),
        }
    }

    #[test]
    fn coords_follow_grid_layout() {
        let cfg = lipiz_core::TrainConfig::smoke(2);
        let results: Vec<SlaveResult> = (0..4).map(|c| result(c, 0.1, 1.0)).collect();
        let report = reduce_results(&cfg, &results, 1.0);
        assert_eq!(report.cells[3].coords, (1, 1));
    }
}
