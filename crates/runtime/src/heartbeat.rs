//! The master's heartbeat monitor thread (§III-B).
//!
//! "During the execution, the master periodically performs control
//! activities to determine if all slaves are working properly, are on time,
//! or are delayed … handled by a thread of the master process (the
//! heartbeat thread), in order to perform the system monitoring in
//! background."

use crate::comm_manager::CommManager;
use crate::protocol::StatusReport;
use crate::state::SlaveState;
use lipiz_telemetry::{EventKind, SharedTelemetry};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// One slave's status at one heartbeat round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeartbeatRecord {
    /// Slave WORLD rank.
    pub slave: usize,
    /// Reported state, if the slave answered in time.
    pub state: Option<SlaveState>,
    /// Iterations the slave reported having completed.
    pub iterations_done: u64,
    /// True when the slave missed the response deadline (the paper's
    /// "delayed" condition).
    pub delayed: bool,
}

/// Full heartbeat log of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeartbeatLog {
    /// One entry per round; each round has one record per slave.
    pub rounds: Vec<Vec<HeartbeatRecord>>,
}

impl HeartbeatLog {
    /// Number of rounds performed.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Did any slave ever miss a deadline?
    pub fn any_delayed(&self) -> bool {
        self.rounds.iter().flatten().any(|r| r.delayed)
    }

    /// Highest iteration count ever reported by any slave.
    pub fn max_reported_iteration(&self) -> u64 {
        self.rounds.iter().flatten().map(|r| r.iterations_done).max().unwrap_or(0)
    }
}

/// Sentinel for "no slave declared dead yet" in the dead-rank flag.
pub const NO_DEAD_SLAVE: i64 = -1;

/// Run heartbeat rounds until `stop` is set — designed to run on its own
/// thread of the master process. Each round asks every slave still
/// training for its status, waits up to `response_timeout` for each answer
/// in turn, records the results, then sleeps `interval`.
///
/// A slave that misses `deadline_misses` *consecutive* rounds is declared
/// dead — its WORLD rank is published into `first_dead` (first death wins;
/// the flag starts at [`NO_DEAD_SLAVE`]). `deadline_misses == 0` never
/// declares anyone dead: monitoring only. The loop keeps observing after a
/// declaration — the master aborts its gather on the flag and stops the
/// loop itself.
///
/// A slave that reported the *finished* state is never polled again: its
/// communication thread legitimately stops answering once training ends,
/// while its result may sit in the gather queue for as long as slower
/// cells keep training — waiting out a time-out on it every round would
/// only delay the verdict on everyone behind it (its rounds are logged as
/// finished, not delayed). A finished slave whose *connection* actually
/// dies is still caught by the transport's doomed-peer check. And `stop`
/// is honoured between the per-slave waits, so once the run is over the
/// loop returns within one `response_timeout` instead of waiting out every
/// slave that has gone quiet.
///
/// A conviction the master cleared as stale (the convicted rank's result
/// had already arrived, or the rank was replaced in flight) exempts that
/// rank for good: once cleared it is never convicted again, so a genuinely
/// wedged rank behind it in round order still gets its death declared
/// instead of being starved by an endless convict/clear cycle.
///
/// When `tel` is supplied, every miss and every conviction is journaled on
/// the master's timeline: a miss event names the suspect rank and its
/// consecutive-miss count; a conviction event names the convicted rank and
/// the iteration it last reported — the forensic record the fault suite
/// asserts against.
#[allow(clippy::too_many_arguments)]
pub fn run_heartbeat_loop_with_deadline(
    cm: &CommManager,
    interval: Duration,
    response_timeout: Duration,
    deadline_misses: usize,
    stop: &AtomicBool,
    first_dead: &AtomicI64,
    tel: Option<&SharedTelemetry>,
) -> HeartbeatLog {
    let mut log = HeartbeatLog::default();
    let slaves = cm.num_slaves();
    let mut consecutive_misses = vec![0usize; slaves + 1];
    let mut finished = vec![false; slaves + 1];
    let mut exempt = vec![false; slaves + 1];
    let mut convicted = vec![false; slaves + 1];
    let mut last_reported = vec![0u64; slaves + 1];
    while !stop.load(Ordering::Acquire) {
        let mut round = Vec::with_capacity(slaves);
        for slave in (1..=slaves).filter(|&s| !finished[s]) {
            cm.request_status(slave);
        }
        for slave in 1..=slaves {
            if finished[slave] {
                round.push(HeartbeatRecord {
                    slave,
                    state: Some(SlaveState::Finished),
                    iterations_done: last_reported[slave],
                    delayed: false,
                });
                continue;
            }
            let misses = &mut consecutive_misses[slave];
            let Some(reply) = await_status_or_stop(cm, slave, response_timeout, stop) else {
                return log;
            };
            match reply {
                Some(status) => {
                    *misses = 0;
                    last_reported[slave] = status.iterations_done;
                    finished[slave] = status.state == SlaveState::Finished.id();
                    round.push(HeartbeatRecord {
                        slave,
                        state: SlaveState::from_id(status.state),
                        iterations_done: status.iterations_done,
                        delayed: false,
                    });
                }
                None => {
                    *misses += 1;
                    if let Some(t) = tel {
                        t.instant(
                            EventKind::HeartbeatMiss,
                            slave as u32,
                            last_reported[slave] as u32,
                            *misses as u64,
                        );
                    }
                    if convicted[slave] && first_dead.load(Ordering::Acquire) != slave as i64 {
                        // We convicted this rank and the master cleared the
                        // verdict as stale. Re-convicting it every round
                        // would win the first-death CAS forever and starve
                        // the conviction of a rank that is genuinely wedged
                        // with its connection still open.
                        exempt[slave] = true;
                    } else if !exempt[slave]
                        && deadline_misses > 0
                        && *misses >= deadline_misses
                    {
                        // First declared death wins; later ones keep the log
                        // but not the flag.
                        if first_dead
                            .compare_exchange(
                                NO_DEAD_SLAVE,
                                slave as i64,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            convicted[slave] = true;
                            if let Some(t) = tel {
                                t.instant(
                                    EventKind::Conviction,
                                    slave as u32,
                                    last_reported[slave] as u32,
                                    *misses as u64,
                                );
                            }
                        }
                    }
                    round.push(HeartbeatRecord {
                        slave,
                        state: None,
                        iterations_done: 0,
                        delayed: true,
                    });
                }
            }
        }
        log.rounds.push(round);
        // Sleep in small slices so a stop request is honored promptly.
        let mut remaining = interval;
        while remaining > Duration::ZERO && !stop.load(Ordering::Acquire) {
            let nap = remaining.min(STOP_SLICE);
            std::thread::sleep(nap);
            remaining = remaining.saturating_sub(nap);
        }
    }
    log
}

/// The longest the heartbeat loop goes without looking at its stop flag.
const STOP_SLICE: Duration = Duration::from_millis(5);

/// Wait up to `timeout` for `slave`'s status reply, in [`STOP_SLICE`]
/// waits: `None` once `stop` is set, else the reply, or `Some(None)` when
/// none came in time. So the loop returns within a slice of a stop request
/// instead of waiting out a whole response time-out on a quiet slave.
fn await_status_or_stop(
    cm: &CommManager,
    slave: usize,
    timeout: Duration,
    stop: &AtomicBool,
) -> Option<Option<StatusReport>> {
    let deadline = Instant::now() + timeout;
    loop {
        if stop.load(Ordering::Acquire) {
            return None;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        let reply = cm.await_status(slave, left.min(STOP_SLICE));
        if reply.is_some() || left <= STOP_SLICE {
            return Some(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StatusReport;
    use lipiz_mpi::Universe;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn heartbeat_records_responsive_slaves() {
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                // Run exactly two rounds, then stop.
                let log = {
                    let mut log = HeartbeatLog::default();
                    for _ in 0..2 {
                        let partial = run_one_round(&cm);
                        log.rounds.push(partial);
                    }
                    stop.store(true, Ordering::Release);
                    log
                };
                Some(log)
            } else {
                // Answer exactly two status requests.
                for i in 0..2u64 {
                    assert!(cm.poll_status_request(Duration::from_secs(5)));
                    cm.respond_status(&StatusReport {
                        state: SlaveState::Processing.id(),
                        iterations_done: i,
                    });
                }
                None
            }
        });
        let log = results[0].as_ref().unwrap();
        assert_eq!(log.len(), 2);
        assert!(!log.any_delayed());
        assert_eq!(log.max_reported_iteration(), 1);
        for round in &log.rounds {
            assert_eq!(round.len(), 2);
            assert!(round.iter().all(|r| r.state == Some(SlaveState::Processing)));
        }
    }

    fn run_one_round(cm: &CommManager) -> Vec<HeartbeatRecord> {
        for slave in 1..=cm.num_slaves() {
            cm.request_status(slave);
        }
        (1..=cm.num_slaves())
            .map(|slave| match cm.await_status(slave, Duration::from_secs(5)) {
                Some(s) => HeartbeatRecord {
                    slave,
                    state: SlaveState::from_id(s.state),
                    iterations_done: s.iterations_done,
                    delayed: false,
                },
                None => {
                    HeartbeatRecord { slave, state: None, iterations_done: 0, delayed: true }
                }
            })
            .collect()
    }

    #[test]
    fn unresponsive_slave_is_flagged_delayed() {
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                cm.request_status(1);
                let got = cm.await_status(1, Duration::from_millis(30));
                Some(got.is_none())
            } else {
                // Deliberately never answer; just drain the request so the
                // mailbox is clean.
                let _ = cm.poll_status_request(Duration::from_secs(1));
                None
            }
        });
        assert_eq!(results[0], Some(true));
    }

    #[test]
    fn deaf_slave_is_reported_delayed_without_wedging_the_master() {
        // Failure injection for the full master lifecycle: one slave runs
        // the complete protocol *except* it never answers a status request
        // (a hung communication thread, in the paper's terms). The master
        // must flag it via `HeartbeatLog::any_delayed()` and still finish
        // the run — the heartbeat deadline bounds every wait, so a silent
        // peer can degrade monitoring but never wedge `run_master`.
        use crate::comm_manager::CommManager;
        use crate::driver::DistributedOptions;
        use crate::master::run_master;
        use crate::protocol::SlaveResult;
        use crate::slave::run_slave;
        use lipiz_core::{CellEngine, CellScratch, CellSnapshot, Grid, TrainConfig};
        use lipiz_telemetry::Telemetry;

        let mut cfg = TrainConfig::smoke(2);
        cfg.grid.rows = 1;
        cfg.grid.cols = 2;
        cfg.coevolution.iterations = 3;
        let toy_data = |cfg: &TrainConfig| {
            let mut rng = lipiz_tensor::Rng64::seed_from(cfg.training.data_seed);
            rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
        };

        let results = Universe::run(3, |world| {
            let mut cm = CommManager::new(world);
            if cm.is_master() {
                let opts = DistributedOptions {
                    heartbeat_interval: Duration::from_millis(2),
                    ..DistributedOptions::default()
                };
                return Some(run_master(&cm, &cfg, &opts, None).expect("monitor-only run"));
            }
            if cm.world_rank() == 1 {
                run_slave(&cm, &|_, cfg: &TrainConfig| toy_data(cfg), "healthy");
                return None;
            }
            // Deaf slave: announces, trains, exchanges, gathers — but never
            // touches the status tags. Slowed down so heartbeat rounds are
            // guaranteed to land (and expire) mid-training.
            cm.announce_node("deaf");
            let task = cm.recv_run_task();
            let slave_cfg = task.config;
            let grid = Grid::from_config(&slave_cfg.grid);
            let mut engine = CellEngine::new(task.cell_index, &slave_cfg, toy_data(&slave_cfg));
            let (mut scratch, mut tel) = (CellScratch::default(), Telemetry::disabled());
            for _ in 0..slave_cfg.coevolution.iterations {
                std::thread::sleep(Duration::from_millis(60));
                let snapshot = engine.snapshot();
                let all = cm.exchange_centers(&snapshot);
                let neighbors: Vec<CellSnapshot> = grid
                    .neighbors(task.cell_index)
                    .into_iter()
                    .map(|n| all[n].clone())
                    .collect();
                engine.run_iteration(&neighbors, &mut scratch, &mut tel);
            }
            let ensemble = engine.ensemble();
            let disc_pop = engine.disc_population();
            cm.gather_results(Some(SlaveResult {
                cell: task.cell_index,
                gen_fitness: engine.best_gen_fitness(),
                disc_fitness: disc_pop.members()[disc_pop.best_index()].fitness,
                mixture: ensemble.weights.weights().to_vec(),
                ensemble: ensemble.genomes,
                wall_seconds: 0.0,
                telemetry: tel.summary(task.cell_index as u32),
            }));
            None
        });

        let outcome = results[0].as_ref().expect("master outcome");
        // The run completed despite the deaf slave...
        assert_eq!(outcome.report.cells.len(), 2);
        assert!(outcome.report.cells.iter().all(|c| c.gen_fitness.is_finite()));
        // ...and the monitoring saw the failure.
        assert!(!outcome.heartbeat.is_empty(), "no heartbeat rounds ran");
        assert!(outcome.heartbeat.any_delayed(), "deaf slave was never flagged");
        let deaf_flagged =
            outcome.heartbeat.rounds.iter().flatten().any(|r| r.slave == 2 && r.delayed);
        assert!(deaf_flagged, "the delayed flag must name the deaf slave");
        let healthy_answered =
            outcome.heartbeat.rounds.iter().flatten().any(|r| r.slave == 1 && !r.delayed);
        assert!(healthy_answered, "healthy slave should still be seen alive");
    }

    #[test]
    fn deadline_declares_a_dead_slave_by_rank() {
        // One silent slave: with a 2-miss deadline, the heartbeat must
        // publish exactly that slave's WORLD rank into the dead flag.
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                let first_dead = AtomicI64::new(NO_DEAD_SLAVE);
                let log = std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        run_heartbeat_loop_with_deadline(
                            &cm,
                            Duration::from_millis(5),
                            Duration::from_millis(20),
                            2,
                            &stop,
                            &first_dead,
                            None,
                        )
                    });
                    // Wait for the declaration, then stop.
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while first_dead.load(Ordering::Acquire) == NO_DEAD_SLAVE {
                        assert!(std::time::Instant::now() < deadline, "never declared dead");
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    stop.store(true, Ordering::Release);
                    handle.join().unwrap()
                });
                assert!(log.any_delayed());
                Some(first_dead.load(Ordering::Acquire))
            } else if cm.world_rank() == 1 {
                // Healthy slave answers until the master goes quiet.
                while cm.poll_status_request(Duration::from_millis(200)) {
                    cm.respond_status(&StatusReport {
                        state: SlaveState::Processing.id(),
                        iterations_done: 3,
                    });
                }
                None
            } else {
                // Rank 2 is deaf: drain requests without ever answering.
                while cm.poll_status_request(Duration::from_millis(200)) {}
                None
            }
        });
        assert_eq!(results[0], Some(2), "the deaf slave's rank must be declared");
    }

    #[test]
    fn stale_cleared_conviction_cannot_starve_a_real_death() {
        // Rank 1 finished, delivered its result, and went quiet before the
        // loop ever saw a Finished report — so it keeps getting convicted,
        // and the master keeps clearing the verdict as stale. Rank 2 is
        // genuinely wedged (silent, connection open). Without the
        // cleared-conviction exemption, rank 1 re-wins the first-death CAS
        // every round and rank 2's conviction never lands.
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                let first_dead = AtomicI64::new(NO_DEAD_SLAVE);
                let declared = std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        run_heartbeat_loop_with_deadline(
                            &cm,
                            Duration::from_millis(5),
                            Duration::from_millis(20),
                            2,
                            &stop,
                            &first_dead,
                            None,
                        )
                    });
                    // The master's abort predicate, in miniature: rank 1 is
                    // not pending (its result arrived), so its conviction is
                    // stale and gets cleared; rank 2's must stick.
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    let declared = loop {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "wedged rank 2 was never declared dead"
                        );
                        match first_dead.load(Ordering::Acquire) {
                            1 => {
                                let _ = first_dead.compare_exchange(
                                    1,
                                    NO_DEAD_SLAVE,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                );
                            }
                            NO_DEAD_SLAVE => {}
                            rank => break rank,
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    };
                    stop.store(true, Ordering::Release);
                    handle.join().unwrap();
                    declared
                });
                Some(declared)
            } else {
                // Both slaves are deaf: they drain requests, never answer.
                while cm.poll_status_request(Duration::from_millis(200)) {}
                None
            }
        });
        assert_eq!(results[0], Some(2), "the wedged slave's rank must win eventually");
    }

    #[test]
    fn finished_slave_is_never_convicted_by_silence() {
        // A slave that reports Finished and then legitimately goes quiet
        // (its result is waiting in the gather while slower cells train)
        // must NOT be declared dead, no matter how many rounds pass.
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                let first_dead = AtomicI64::new(NO_DEAD_SLAVE);
                let log = std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        run_heartbeat_loop_with_deadline(
                            &cm,
                            Duration::from_millis(5),
                            Duration::from_millis(15),
                            1, // the harshest possible deadline
                            &stop,
                            &first_dead,
                            None,
                        )
                    });
                    // Give the loop time to see the Finished report and
                    // then plenty of silent rounds.
                    std::thread::sleep(Duration::from_millis(250));
                    stop.store(true, Ordering::Release);
                    handle.join().unwrap()
                });
                // Once finished it is no longer polled: the silent rounds
                // log it as finished, never as delayed.
                assert!(!log.any_delayed(), "a finished slave was waited on");
                let last = &log.rounds.last().expect("rounds ran")[0];
                assert_eq!(last.state, Some(SlaveState::Finished));
                assert_eq!(last.iterations_done, 9);
                Some(first_dead.load(Ordering::Acquire))
            } else {
                // Answer exactly one request with Finished, then go silent.
                assert!(cm.poll_status_request(Duration::from_secs(5)));
                cm.respond_status(&StatusReport {
                    state: SlaveState::Finished.id(),
                    iterations_done: 9,
                });
                std::thread::sleep(Duration::from_millis(300));
                while cm.poll_status_request(Duration::from_millis(10)) {}
                None
            }
        });
        assert_eq!(results[0], Some(NO_DEAD_SLAVE), "finished slave was convicted");
    }

    #[test]
    fn stopped_loop_returns_without_waiting_out_quiet_slaves() {
        // The end of every healthy run: the slaves have finished and gone
        // quiet — two of them after a Finished report, two before the loop
        // ever saw one — and the master sets `stop` the moment the final
        // gather lands. The loop must return within one response time-out,
        // not wait out a time-out per quiet slave.
        const RESPONSE_TIMEOUT: Duration = Duration::from_millis(150);
        let results = Universe::run(5, |world| {
            let cm = CommManager::new(world);
            if !cm.is_master() {
                if cm.world_rank() <= 2 {
                    assert!(cm.poll_status_request(Duration::from_secs(5)));
                    cm.respond_status(&StatusReport {
                        state: SlaveState::Finished.id(),
                        iterations_done: 4,
                    });
                }
                // Quiet from here on; drain requests until the master stops.
                while cm.poll_status_request(Duration::from_millis(400)) {}
                return None;
            }
            let stop = AtomicBool::new(false);
            let first_dead = AtomicI64::new(NO_DEAD_SLAVE);
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    run_heartbeat_loop_with_deadline(
                        &cm,
                        Duration::from_millis(1),
                        RESPONSE_TIMEOUT,
                        0,
                        &stop,
                        &first_dead,
                        None,
                    )
                });
                // Round 1 waits out the two slaves that never reported
                // (2 time-outs); stop lands a third of a time-out into
                // round 2, where only those two are still being polled.
                std::thread::sleep(RESPONSE_TIMEOUT * 7 / 3);
                stop.store(true, Ordering::Release);
                let stopped = std::time::Instant::now();
                handle.join().unwrap();
                Some(stopped.elapsed())
            })
        });
        let teardown = results[0].expect("master measured the teardown");
        assert!(
            teardown < 2 * RESPONSE_TIMEOUT,
            "loop waited out quiet slaves after stop: {teardown:?}"
        );
    }

    #[test]
    fn stop_cuts_a_status_wait_short() {
        // A slave that never answers, under a response time-out far longer
        // than the test: the loop is mid-wait on it when `stop` lands, and
        // must return within a stop slice or so, not wait the time-out out.
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if !cm.is_master() {
                while cm.poll_status_request(Duration::from_millis(400)) {}
                return None;
            }
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    run_heartbeat_loop_with_deadline(
                        &cm,
                        Duration::from_millis(1),
                        Duration::from_secs(10),
                        0,
                        &stop,
                        &AtomicI64::new(NO_DEAD_SLAVE),
                        None,
                    )
                });
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::Release);
                let stopped = Instant::now();
                let log = handle.join().unwrap();
                Some((stopped.elapsed(), log.len()))
            })
        });
        let (teardown, rounds) = results[0].expect("master measured the teardown");
        assert!(teardown < Duration::from_secs(1), "loop waited after stop: {teardown:?}");
        assert_eq!(rounds, 0, "the one round never finished its wait");
    }

    #[test]
    fn heartbeat_loop_stops_on_flag() {
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                let answered = AtomicU64::new(0);
                let log = std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        run_heartbeat_loop_with_deadline(
                            &cm,
                            Duration::from_millis(10),
                            Duration::from_millis(50),
                            0,
                            &stop,
                            &AtomicI64::new(NO_DEAD_SLAVE),
                            None,
                        )
                    });
                    std::thread::sleep(Duration::from_millis(80));
                    stop.store(true, Ordering::Release);
                    let log = handle.join().unwrap();
                    answered.store(log.len() as u64, Ordering::Relaxed);
                    log
                });
                assert!(!log.is_empty(), "no heartbeat rounds ran");
                Some(log.len())
            } else {
                // Keep answering until the master goes quiet for a while.
                let mut answered = 0u32;
                while cm.poll_status_request(Duration::from_millis(200)) {
                    cm.respond_status(&StatusReport {
                        state: SlaveState::Processing.id(),
                        iterations_done: 0,
                    });
                    answered += 1;
                }
                assert!(answered > 0);
                None
            }
        });
        assert!(results[0].unwrap() >= 1);
    }
}
