//! Slave process logic (Fig. 3, right side).
//!
//! Each slave runs two threads, exactly like the paper's design, under sync
//! and async exchange alike: the *main thread* is the communication
//! interface with the master (it answers heartbeat status requests), while
//! the *execution thread* performs the training. (A checkpointing slave adds
//! its checkpoint writer; a socket transport, its readers.) The execution
//! thread is one rank of the iteration [`Pipeline`] (`lipiz_core::pipeline`):
//! it hosts this rank's single cell and exchanges snapshots with the slaves
//! its cell reads — and only those — through [`CommManager::exchange`] on
//! the LOCAL communicator, posting and receiving them itself; that traffic
//! overlaps the master's monitoring traffic without interference because
//! they use different communicators. The
//! schedule itself (frame choice, async double-buffer, checkpoint-cut
//! frame, a replacement's solo catch-up) is the pipeline's; this file wires
//! the rank up — fault plan, restore, checkpoint writer, journal — drives
//! the loop and ships the result. Every slave is alike: under graceful
//! degradation each degrades for the neighbours it reads and serves its
//! share of a death-frame to their replacement.

use crate::checkpoint::{self, CheckpointWriter};
use crate::comm_manager::CommManager;
use crate::protocol::{SlaveResult, StatusReport};
use crate::state::SlaveState;
use lipiz_core::{CellEngine, CellResult, GenomeLens, Grid, Pipeline, TrainConfig};
use lipiz_mpi::{process_faults_enabled, replacement_schedule, DegradedGather, FaultPlan};
use lipiz_telemetry::{EventKind, Telemetry};
use lipiz_tensor::Matrix;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Enact a scripted kill: die as a real crash would — no unwinding, no
/// destructors, no result gather. SIGKILL leaves nothing to chance; the
/// abort is the fallback when no `kill` binary exists.
fn fault_self_kill() -> ! {
    let pid = std::process::id();
    let _ = std::process::Command::new("kill").arg("-9").arg(pid.to_string()).status();
    std::process::abort();
}

/// How a slave builds its local dataset for an assigned cell ("download
/// data" in Fig. 3 — every rank synthesizes the same data deterministically
/// from the config's data seed).
pub type DataFactory<'a> = &'a (dyn Fn(usize, &TrainConfig) -> Matrix + Sync);

/// Run the complete slave lifecycle. Returns the final state (always
/// `Finished` on a healthy run).
pub fn run_slave(cm: &CommManager, make_data: DataFactory<'_>, node_name: &str) -> SlaveState {
    let mut state = SlaveState::Inactive;

    // Fig. 3: announce the node, then wait for the workload.
    cm.announce_node(node_name);
    let task = cm.recv_run_task();
    let cfg = task.config;
    let cell_index = task.cell_index;
    let resume_from = task.resume_from;
    let rejoin_round = task.rejoin_round;
    state = state.transition(SlaveState::Processing);
    let target = cfg.checkpoint.effective_iterations(cfg.coevolution.iterations);

    // Fault wiring. The plan rides in the config, so every rank arms the
    // same message-level enforcement and derives the same replacement
    // schedule without exchanging a byte.
    let fault_plan = cfg.fault.plan.as_deref().map(|s| {
        FaultPlan::parse(s).expect("the master refuses a fault plan that does not parse")
    });
    if let Some(plan) = fault_plan.clone() {
        cm.install_fault_plan(plan);
    }
    // A scripted kill of this rank is enacted only when each rank is a
    // real OS process (the CLI slave path arms this) and this process is
    // not itself the replacement re-running the victim's rank.
    let my_kill = if process_faults_enabled() && rejoin_round.is_none() {
        fault_plan.as_ref().and_then(|p| p.kill_iteration(cm.world_rank()))
    } else {
        None
    };
    // Every rank holds a degraded-gather controller for the neighbours it
    // reads whenever graceful degradation is enabled. The *planned* absence
    // window is armed only when the kill will really happen (process faults
    // on), so threaded runs carrying a kill-bearing plan stay synchronous —
    // and only by the victim's readers, never by its replacement.
    let mut gather_ctl = cfg
        .fault
        .degradation_enabled()
        .then(|| DegradedGather::new(cfg.cells(), cfg.fault.max_stale_iters));
    if let Some(ctl) = gather_ctl.as_mut().filter(|_| process_faults_enabled()) {
        let reads = Grid::from_config(&cfg.grid).neighbors(cell_index);
        let sched = fault_plan.as_ref().and_then(|plan| {
            replacement_schedule(
                plan,
                cfg.fault.max_stale_iters,
                cfg.checkpoint.every,
                target,
                cfg.cells(),
            )
        });
        if let Some(sched) = sched.filter(|s| s.cell != cell_index && reads.contains(&s.cell)) {
            ctl.plan_absence(sched.cell, sched.kill_iter, sched.rejoin_round);
        }
    }
    let frame_handle = gather_ctl.as_ref().map(|c| c.frozen_frame());

    // Shared status for the heartbeat answers.
    let state_atomic = AtomicU8::new(state.id());
    let iterations_done = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    // "Download data (optional)" + engine assembly happen on the execution
    // side of the fork below so the main thread can already answer
    // heartbeats while data synthesis runs.
    let mut result_slot: Option<SlaveResult> = None;

    // Journal files are keyed by NODE NAME, not rank: a replacement process
    // re-running a victim's rank announces a different name, so the
    // victim's kill-flushed journal is never clobbered.
    let journal_file = format!("{node_name}.jsonl");

    std::thread::scope(|s| {
        // Execution thread: the training loop.
        let exec_cm = cm.clone();
        let exec_cfg = cfg.clone();
        let journal_file = journal_file.clone();
        let exec = s.spawn({
            let iterations_done = &iterations_done;
            let done = &done;
            let state_atomic = &state_atomic;
            move || {
                // The main thread spins on `done` while answering
                // heartbeats; if this thread unwinds (e.g. a collective
                // failed because a peer died), `done` must still be set or
                // the slave would wedge instead of exiting loudly.
                struct DoneGuard<'a>(&'a AtomicBool);
                impl Drop for DoneGuard<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Release);
                    }
                }
                let _done_on_exit = DoneGuard(done);

                let cell_u32 = cell_index as u32;

                let start = Instant::now();
                let data = make_data(cell_index, &exec_cfg);

                // Fresh engine, or restore this cell from the committed
                // checkpoint the master's resume marker names. Restore
                // failures are fatal and loud — a half-restored slave must
                // never train.
                let (engine, resume_frame) = match resume_from {
                    None => (CellEngine::new(cell_index, &exec_cfg, data), Vec::new()),
                    Some(iter) => {
                        let dir = exec_cfg
                            .checkpoint
                            .dir
                            .as_deref()
                            .expect("resume requires a checkpoint dir in the config");
                        let state = checkpoint::load_cell_state_at(
                            Path::new(dir),
                            &exec_cfg,
                            cell_index,
                            iter,
                        )
                        .unwrap_or_else(|e| {
                            panic!("cell {cell_index}: restore from iteration {iter}: {e}")
                        });
                        let engine = CellEngine::from_state(&exec_cfg, data, &state);
                        (engine, state.exchange_frame)
                    }
                };
                iterations_done.store(engine.iterations_done() as u64, Ordering::Release);

                // Async checkpoint writer: capture on the training thread
                // (into a recycled buffer), serialize + commit on the
                // writer thread — training never blocks on disk.
                let mut writer = if exec_cfg.checkpoint.enabled() {
                    let dir = exec_cfg.checkpoint.dir.as_deref().expect("enabled has dir");
                    if resume_from.is_none() {
                        // Fresh start: drop any stale files for this cell
                        // left in the directory by a previous run (on a
                        // multi-machine run only the coordinator's own host
                        // gets cleaned) — a recovery scan must never adopt
                        // another run's cut.
                        checkpoint::clear_stale(Path::new(dir), Some(cell_index))
                            .unwrap_or_else(|e| {
                                panic!("cell {cell_index}: clearing stale checkpoints: {e}")
                            });
                    }
                    Some(CheckpointWriter::to_dir(Path::new(dir), exec_cfg.cells()))
                } else {
                    None
                };

                // Run telemetry: free when the config gate is off (no ring,
                // dead branches), observational-only when on — it never
                // touches RNG or training state, so the `.lpz` stays
                // byte-identical either way.
                let telemetry = Telemetry::from_gate(
                    exec_cfg.telemetry.enabled,
                    exec_cm.world_rank() as u32,
                    exec_cfg.telemetry.ring_capacity,
                );
                let mut pipeline = Pipeline::new(&exec_cfg, vec![engine], telemetry);
                match rejoin_round {
                    // In-flight replacement: catch up solo against the
                    // frozen death-frame — the slots its cell reads, each
                    // fetched from a neighbour that froze it.
                    Some(rejoin) => {
                        let frozen = exec_cm
                            .fetch_death_frame(pipeline.read_set(), Duration::from_secs(60))
                            .unwrap_or_else(|| {
                                panic!(
                                    "cell {cell_index}: no frozen death-frame to catch up from"
                                )
                            });
                        pipeline.rejoin(0, rejoin, frozen);
                    }
                    None => pipeline.resume_from(resume_frame),
                }
                // The exchange owns the degraded-gather controller — the
                // death-frame handle was cloned for the main thread before
                // this move.
                let mut exchange = exec_cm.exchange(
                    gather_ctl.take(),
                    pipeline.read_set(),
                    GenomeLens::of(&exec_cfg),
                );

                while pipeline.iteration() < target {
                    let iter = pipeline.iteration();
                    if !pipeline.catching_up() {
                        exec_cm.tick_fault_clock(iter);
                        if my_kill == Some(iter) {
                            // Die exactly at the scripted boundary: the last
                            // exchanged round was `iter - 1`, exactly `iter`
                            // iterations are complete, and every committed
                            // cadence cut is durable first so the replacement
                            // can restore from it.
                            if let Some(w) = writer.take() {
                                w.finish().unwrap_or_else(|e| {
                                    panic!("cell {cell_index}: checkpoint commit failed: {e}")
                                });
                            }
                            // Last words: journal the scripted death and
                            // flush — SIGKILL runs no destructors, so the
                            // file must be durable before the signal.
                            let tel = pipeline.telemetry_mut();
                            tel.instant(EventKind::Kill, cell_u32, iter as u32, 0);
                            tel.flush_journal(exec_cfg.telemetry.dir.as_deref(), &journal_file);
                            fault_self_kill();
                        }
                    }
                    pipeline.step(&mut exchange);
                    iterations_done.fetch_add(1, Ordering::Release);
                    let Some(w) = writer.as_ref() else { continue };
                    if !exec_cfg.checkpoint.commits_after(iter) {
                        continue;
                    }
                    w.submit(pipeline.capture_cut(0, w.recycled()));
                    let tel = pipeline.telemetry_mut();
                    tel.metrics.checkpoints.inc();
                    tel.instant(
                        EventKind::CheckpointCommit,
                        cell_u32,
                        iter as u32,
                        (iter + 1) as u64,
                    );
                    // Commit boundaries double as reporting boundaries:
                    // ship the running aggregate so the master's status
                    // line tracks the fleet live.
                    if tel.is_enabled() {
                        exec_cm.send_telemetry(&tel.summary(cell_u32));
                    }
                }
                if let Some(w) = writer.take() {
                    // Drain the queue so every committed cut is durable
                    // before the result ships; a failed commit is fatal.
                    w.finish().unwrap_or_else(|e| {
                        panic!("cell {cell_index}: checkpoint commit failed: {e}")
                    });
                }
                state_atomic.store(SlaveState::Finished.id(), Ordering::Release);
                done.store(true, Ordering::Release);
                let tel = pipeline.telemetry();
                tel.flush_journal(exec_cfg.telemetry.dir.as_deref(), &journal_file);
                let telemetry = tel.summary(cell_u32);
                let engine = &mut pipeline.engines_mut()[0];
                let row = CellResult::of(engine, &Grid::from_config(&exec_cfg.grid));
                SlaveResult {
                    cell: cell_index,
                    gen_fitness: row.gen_fitness,
                    disc_fitness: row.disc_fitness,
                    mixture: row.mixture_weights,
                    ensemble: engine.ensemble().genomes,
                    wall_seconds: start.elapsed().as_secs_f64(),
                    telemetry,
                }
            }
        });

        // Main thread: answer the master's heartbeats until training ends.
        // A degrading rank also serves its share of the frozen death-frame
        // to a catching-up replacement here — the execution thread may be
        // mid-exchange, which is exactly why the share sits behind a shared
        // handle.
        while !done.load(Ordering::Acquire) {
            if let Some(h) = &frame_handle {
                while cm.serve_frozen_frame(h) {}
            }
            if cm.poll_status_request(Duration::from_millis(10)) {
                cm.respond_status(&StatusReport {
                    state: state_atomic.load(Ordering::Acquire),
                    iterations_done: iterations_done.load(Ordering::Acquire),
                });
            }
        }
        // Drain any last status request so the master's final round is not
        // left hanging until its timeout.
        while cm.poll_status_request(Duration::from_millis(1)) {
            cm.respond_status(&StatusReport {
                state: state_atomic.load(Ordering::Acquire),
                iterations_done: iterations_done.load(Ordering::Acquire),
            });
        }
        // Unwind with the execution thread's own panic, so whoever joins
        // this rank reads why it failed.
        result_slot = Some(exec.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
    });

    state = state.transition(SlaveState::Finished);

    // Final gather: hand the result to the master on GLOBAL.
    let result = result_slot.expect("execution thread produced a result");
    cm.gather_results(Some(result));
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full slave flow is exercised end-to-end in driver.rs tests and the
    // workspace integration suite; here we pin unit-level properties.

    #[test]
    fn state_ids_used_by_slave_match_enum() {
        assert_eq!(
            SlaveState::from_id(SlaveState::Processing.id()),
            Some(SlaveState::Processing)
        );
        assert_eq!(SlaveState::from_id(SlaveState::Finished.id()), Some(SlaveState::Finished));
    }
}
