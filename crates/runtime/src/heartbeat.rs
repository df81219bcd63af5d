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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
}

/// What the heartbeat has seen of each slave, published for the master's
/// gather to judge: per WORLD rank, the rounds it has missed in a row and
/// the iteration count it last reported. The heartbeat thread is the only
/// writer and decides nothing; the master's gather is the one place a
/// death is declared.
#[derive(Debug)]
pub struct Liveness {
    misses: Vec<AtomicUsize>,
    last_reported: Vec<AtomicU64>,
}

impl Liveness {
    /// No misses and no reports yet, for WORLD ranks `0..=slaves`.
    pub fn new(slaves: usize) -> Self {
        Self {
            misses: (0..=slaves).map(|_| AtomicUsize::new(0)).collect(),
            last_reported: (0..=slaves).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Consecutive heartbeat rounds `rank` has missed (0 once it answers).
    pub fn misses(&self, rank: usize) -> usize {
        self.misses[rank].load(Ordering::Acquire)
    }

    /// The iteration count `rank` last reported.
    pub fn last_reported(&self, rank: usize) -> u64 {
        self.last_reported[rank].load(Ordering::Acquire)
    }
}

/// Run heartbeat rounds until `stop` is set — designed to run on its own
/// thread of the master process. Each round asks every slave still
/// training for its status, waits up to `response_timeout` for each answer
/// in turn, records the results, then sleeps `interval`.
///
/// The loop only observes: each slave's consecutive misses and last
/// reported iteration go into `liveness`, where the master's gather judges
/// them against the death deadline.
///
/// A slave that reported the *finished* state is never polled again: its
/// communication thread legitimately stops answering once training ends,
/// while its result may sit in the gather queue for as long as slower
/// cells keep training — waiting out a time-out on it every round would
/// only delay the verdict on everyone behind it (its rounds are logged as
/// finished, not delayed, and its misses stay where its last answer left
/// them). A finished slave whose *connection* actually dies is still caught
/// by the gather's dead-connection check. And `stop` is honoured between
/// the per-slave waits, so once the run is over the loop returns within one
/// `response_timeout` instead of waiting out every slave that has gone
/// quiet.
///
/// When `tel` is supplied, every miss is journaled on the master's
/// timeline, naming the suspect rank, the iteration it last reported and
/// its consecutive-miss count.
pub fn run_heartbeat_loop_with_deadline(
    cm: &CommManager,
    interval: Duration,
    response_timeout: Duration,
    stop: &AtomicBool,
    liveness: &Liveness,
    tel: Option<&SharedTelemetry>,
) -> HeartbeatLog {
    let mut log = HeartbeatLog::default();
    let slaves = cm.num_slaves();
    let mut finished = vec![false; slaves + 1];
    while !stop.load(Ordering::Acquire) {
        let mut round = Vec::with_capacity(slaves);
        for slave in (1..=slaves).filter(|&s| !finished[s]) {
            cm.request_status(slave);
        }
        for (slave, done) in finished.iter_mut().enumerate().skip(1) {
            if *done {
                round.push(HeartbeatRecord {
                    slave,
                    state: Some(SlaveState::Finished),
                    iterations_done: liveness.last_reported(slave),
                    delayed: false,
                });
                continue;
            }
            let Some(reply) = await_status_or_stop(cm, slave, response_timeout, stop) else {
                return log;
            };
            match reply {
                Some(status) => {
                    liveness.misses[slave].store(0, Ordering::Release);
                    liveness.last_reported[slave]
                        .store(status.iterations_done, Ordering::Release);
                    *done = status.state == SlaveState::Finished.id();
                    round.push(HeartbeatRecord {
                        slave,
                        state: SlaveState::from_id(status.state),
                        iterations_done: status.iterations_done,
                        delayed: false,
                    });
                }
                None => {
                    let misses = liveness.misses[slave].fetch_add(1, Ordering::AcqRel) + 1;
                    if let Some(t) = tel {
                        t.instant(
                            EventKind::HeartbeatMiss,
                            slave as u32,
                            liveness.last_reported(slave) as u32,
                            misses as u64,
                        );
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
        assert_eq!(log.rounds.iter().flatten().map(|r| r.iterations_done).max(), Some(1));
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

        let mut cfg = TrainConfig::smoke(2).with_heartbeat(2, 0);
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
                let opts = DistributedOptions::default();
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
        // One silent slave next to a healthy one: the deaf rank's miss count
        // must reach a 2-miss deadline while the healthy rank's stays 0, so
        // the master's verdict (see `master.rs`) can only name the deaf one.
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                let liveness = Liveness::new(cm.num_slaves());
                let log = std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        run_heartbeat_loop_with_deadline(
                            &cm,
                            Duration::from_millis(5),
                            Duration::from_millis(50),
                            &stop,
                            &liveness,
                            None,
                        )
                    });
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while liveness.misses(2) < 2 {
                        assert!(
                            Instant::now() < deadline,
                            "deaf rank never reached the deadline"
                        );
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    stop.store(true, Ordering::Release);
                    handle.join().unwrap()
                });
                assert!(log.any_delayed());
                Some((liveness.misses(1), liveness.last_reported(1)))
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
        assert_eq!(results[0], Some((0, 3)), "the healthy rank must show no misses");
    }

    #[test]
    fn finished_slave_is_never_convicted_by_silence() {
        // A slave that reports Finished and then legitimately goes quiet
        // (its result is waiting in the gather while slower cells train)
        // must never run up a miss, no matter how many rounds pass.
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let stop = AtomicBool::new(false);
                let liveness = Liveness::new(cm.num_slaves());
                let log = std::thread::scope(|s| {
                    let handle = s.spawn(|| {
                        run_heartbeat_loop_with_deadline(
                            &cm,
                            Duration::from_millis(5),
                            Duration::from_millis(15),
                            &stop,
                            &liveness,
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
                Some(liveness.misses(1))
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
        assert_eq!(results[0], Some(0), "a finished slave ran up misses");
    }

    #[test]
    fn an_answer_resets_the_miss_count() {
        // Misses count *consecutive* silent rounds: a slave that lets two
        // rounds expire and then answers is back at zero, so a slow patch
        // never adds up to a death verdict.
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if !cm.is_master() {
                for _ in 0..2 {
                    assert!(cm.poll_status_request(Duration::from_secs(5)));
                }
                while cm.poll_status_request(Duration::from_millis(200)) {
                    cm.respond_status(&StatusReport {
                        state: SlaveState::Processing.id(),
                        iterations_done: 7,
                    });
                }
                return None;
            }
            let stop = AtomicBool::new(false);
            let liveness = Liveness::new(cm.num_slaves());
            let log = std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    run_heartbeat_loop_with_deadline(
                        &cm,
                        Duration::from_millis(5),
                        Duration::from_millis(20),
                        &stop,
                        &liveness,
                        None,
                    )
                });
                let deadline = Instant::now() + Duration::from_secs(10);
                while liveness.last_reported(1) != 7 {
                    assert!(Instant::now() < deadline, "the slave's answer never arrived");
                    std::thread::sleep(Duration::from_millis(2));
                }
                stop.store(true, Ordering::Release);
                handle.join().unwrap()
            });
            assert!(log.any_delayed(), "the first rounds were not missed");
            Some(liveness.misses(1))
        });
        assert_eq!(results[0], Some(0), "an answer must reset the miss count");
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
            let liveness = Liveness::new(cm.num_slaves());
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    run_heartbeat_loop_with_deadline(
                        &cm,
                        Duration::from_millis(1),
                        RESPONSE_TIMEOUT,
                        &stop,
                        &liveness,
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
                        &stop,
                        &Liveness::new(1),
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
                            &stop,
                            &Liveness::new(1),
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
