//! The `comm-manager` class (§III-C): every communication the runtime
//! performs, wrapped behind typed methods.
//!
//! Three communicators are used, exactly as §III-D describes:
//!
//! * **WORLD** — global configuration, run-task messages, status control;
//! * **LOCAL** — slave-only collectives (the per-iteration allgather of
//!   center snapshots), so gathers never involve the master or inactive
//!   processes;
//! * **GLOBAL** — collectives involving all processes (the final result
//!   gather at the master).
//!
//! The underlying transport is `lipiz-mpi`; nothing outside this module
//! touches raw tags or payload encoding, which is what lets a real MPI
//! binding replace the in-process fabric without touching master/slave
//! logic (the decoupling the paper calls out).
//!
//! The per-iteration snapshot exchange ([`CommExchange`]) is the one path
//! here that moves megabytes, and it copies each snapshot byte once per
//! hop: `begin` encodes straight into the buffer the transport takes
//! ownership of, the fan-in root copies every contribution once into the
//! broadcast body that all ranks then share, and `complete` decodes the
//! parts the rank's cells read — slices of that body, and only those — in
//! place into frame slots that keep their genome buffers from generation
//! to generation; every other slot stays an empty shell. Frames are never
//! allocated per generation: sync mode refills the pipeline's own buffer,
//! async mode rotates three frames between the training thread and the
//! exchange thread (README, "Where a snapshot byte is copied").

use crate::protocol::{
    tags, CacheResponse, NodeAnnouncement, RunTask, SlaveResult, StatusReport,
};
use lipiz_core::{CellSnapshot, Exchange, ExchangeMode};
use lipiz_mpi::{
    Comm, DegradedGather, FaultPlan, FrozenFrameHandle, Payload, PendingAllgather, RecvFrom,
    Wire,
};
use lipiz_telemetry::{EventKind, Telemetry, TelemetrySummary};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the master's announcement collector re-checks for arrivals
/// (and, when idle, for dead connections) during the Fig. 3 bootstrap.
const ANNOUNCE_POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How often the master re-polls for a respawned replacement's
/// announcement while waiting out the rejoin deadline.
const REPLACEMENT_POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long one frozen-frame response wait runs before re-checking the
/// fetch deadline.
const FROZEN_FRAME_POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Pause between frozen-frame re-requests while the root has not frozen a
/// frame yet.
const FROZEN_FRAME_RETRY_DELAY: Duration = Duration::from_millis(20);

/// Typed communication facade for one rank.
#[derive(Debug, Clone)]
pub struct CommManager {
    world: Comm,
    local: Option<Comm>,
    global: Comm,
    /// The frame [`CommManager::exchange_centers`] decodes into, recycled
    /// from call to call.
    centers: Vec<CellSnapshot>,
}

impl CommManager {
    /// WORLD rank of the master process.
    pub const MASTER: usize = 0;

    /// Build the three communicators from the WORLD communicator. Must be
    /// called collectively by every rank (subgroup creation is collective).
    pub fn new(mut world: Comm) -> Self {
        let n = world.size();
        assert!(n >= 2, "need a master and at least one slave");
        let slaves: Vec<usize> = (1..n).collect();
        let local = world.subgroup(&slaves);
        let all: Vec<usize> = (0..n).collect();
        let global = world.subgroup(&all).expect("every rank is in GLOBAL");
        Self { world, local, global, centers: Vec::new() }
    }

    /// Is this rank the master?
    pub fn is_master(&self) -> bool {
        self.world.rank() == Self::MASTER
    }

    /// This rank's WORLD rank.
    pub fn world_rank(&self) -> usize {
        self.world.rank()
    }

    /// Number of slave ranks.
    pub fn num_slaves(&self) -> usize {
        self.world.size() - 1
    }

    /// The slave-only communicator.
    ///
    /// # Panics
    /// Panics when called on the master (which is not a LOCAL member).
    pub fn local(&self) -> &Comm {
        self.local.as_ref().expect("master has no LOCAL communicator")
    }

    /// LOCAL rank of this slave (= its grid cell index under the uniform
    /// assignment).
    pub fn local_rank(&self) -> usize {
        self.local().rank()
    }

    // ---- startup protocol -------------------------------------------------

    /// Slave: announce this rank's node name to the master (Fig. 3).
    pub fn announce_node(&self, node_name: &str) {
        let msg =
            NodeAnnouncement { rank: self.world.rank(), node_name: node_name.to_string() };
        self.world.send(Self::MASTER, tags::NODE_NAME, &msg);
    }

    /// Master: collect every slave's announcement (any arrival order).
    ///
    /// # Panics
    /// Panics if a slave's connection dies before it announces (the
    /// monitored master uses [`CommManager::collect_announcements_monitored`]
    /// to turn that into a recoverable abort instead).
    pub fn collect_announcements(&self) -> Vec<NodeAnnouncement> {
        self.collect_announcements_monitored(ANNOUNCE_POLL_INTERVAL)
            .unwrap_or_else(|rank| panic!("slave rank {rank} died before announcing"))
    }

    /// [`CommManager::collect_announcements`] that fails with the dead
    /// WORLD rank instead of wedging when a slave's connection dies before
    /// its announcement arrives — this phase runs *before* the heartbeat
    /// thread exists, so without the check a slave killed in the
    /// bootstrap-to-announce window would hang the master forever.
    pub fn collect_announcements_monitored(
        &self,
        poll: Duration,
    ) -> Result<Vec<NodeAnnouncement>, usize> {
        let mut out: Vec<NodeAnnouncement> = Vec::with_capacity(self.num_slaves());
        let mut outstanding: Vec<usize> = (1..=self.num_slaves()).collect();
        while !outstanding.is_empty() {
            if let Some((msg, _src)) = self.world.recv_timeout::<NodeAnnouncement>(
                RecvFrom::Any,
                tags::NODE_NAME,
                poll,
            ) {
                outstanding.retain(|&r| r != msg.rank);
                out.push(msg);
                continue;
            }
            // Nothing arrived this poll: every still-missing slave must at
            // least have a live connection. (Re-check the queue first — an
            // announcement may have landed between the timeout and here,
            // and a queued message from a dead peer is still valid.) Only
            // the outstanding set is probed — announced ranks never get
            // re-scanned on later idle polls.
            if self.world.probe(RecvFrom::Any, tags::NODE_NAME) {
                continue;
            }
            for &rank in &outstanding {
                if self.world.peer_connection_dead(rank) {
                    return Err(rank);
                }
            }
        }
        out.sort_by_key(|a| a.rank);
        Ok(out)
    }

    /// Master: assign a workload to a slave (run-task message, Fig. 2's
    /// inactive→processing trigger).
    pub fn send_run_task(&self, slave_world_rank: usize, task: &RunTask) {
        self.world.send(slave_world_rank, tags::RUN_TASK, task);
    }

    /// Slave: block until the master's run-task message arrives.
    pub fn recv_run_task(&self) -> RunTask {
        let (task, _): (RunTask, usize) =
            self.world.recv(RecvFrom::Rank(Self::MASTER), tags::RUN_TASK);
        task
    }

    /// Master: await the announcement of an in-flight replacement for
    /// `world_rank` (the respawned process re-runs the Fig. 3 bootstrap).
    /// Returns `None` if the deadline passes first.
    pub fn await_announcement_from(
        &self,
        world_rank: usize,
        timeout: Duration,
    ) -> Option<NodeAnnouncement> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((msg, _)) = self.world.recv_timeout::<NodeAnnouncement>(
                RecvFrom::Rank(world_rank),
                tags::NODE_NAME,
                REPLACEMENT_POLL_INTERVAL,
            ) {
                return Some(msg);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    // ---- fault injection ---------------------------------------------------

    /// Arm the transport's sever/delay/blackhole enforcement with the
    /// scripted plan (no-op when the plan is empty or a plan is already
    /// installed — the in-process fabric arms at construction).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.world.install_fault_plan(plan);
    }

    /// Advance this rank's fault-plan logical clock to `iter`.
    pub fn tick_fault_clock(&self, iter: usize) {
        self.world.tick_fault_clock(iter);
    }

    // ---- heartbeat protocol -----------------------------------------------

    /// Master: ask a slave for its status.
    pub fn request_status(&self, slave_world_rank: usize) {
        self.world.send(slave_world_rank, tags::STATUS_REQ, &());
    }

    /// Master: await a slave's status response with a deadline.
    pub fn await_status(
        &self,
        slave_world_rank: usize,
        timeout: Duration,
    ) -> Option<StatusReport> {
        self.world
            .recv_timeout::<StatusReport>(
                RecvFrom::Rank(slave_world_rank),
                tags::STATUS_RESP,
                timeout,
            )
            .map(|(r, _)| r)
    }

    /// Slave: check for a pending status request (non-blocking-ish).
    pub fn poll_status_request(&self, timeout: Duration) -> bool {
        self.world
            .recv_timeout::<()>(RecvFrom::Rank(Self::MASTER), tags::STATUS_REQ, timeout)
            .is_some()
    }

    /// Slave: answer a status request.
    pub fn respond_status(&self, report: &StatusReport) {
        self.world.send(Self::MASTER, tags::STATUS_RESP, report);
    }

    /// Slave: ship a telemetry summary to the master (fire-and-forget; the
    /// master drains [`tags::TELEMETRY`] opportunistically while waiting on
    /// the result gather).
    pub fn send_telemetry(&self, msg: &TelemetrySummary) {
        self.world.send(Self::MASTER, tags::TELEMETRY, msg);
    }

    /// Master: drain one pending telemetry summary, if any arrived within
    /// `timeout` (pass [`Duration::ZERO`] for a pure poll).
    pub fn try_recv_telemetry(&self, timeout: Duration) -> Option<TelemetrySummary> {
        self.world.recv_timeout(RecvFrom::Any, tags::TELEMETRY, timeout).map(|(m, _)| m)
    }

    // ---- training collectives ----------------------------------------------

    /// Slave: per-iteration allgather of center snapshots on LOCAL.
    /// Returns all cells' snapshots in cell order — the blocking form of
    /// the exchange: begin and complete back to back. The returned frame is
    /// this manager's own, refilled in place by the next call.
    pub fn exchange_centers(&mut self, snapshot: &CellSnapshot) -> &[CellSnapshot] {
        let pending = self.begin_exchange(snapshot);
        let local = self.local.as_ref().expect("master has no LOCAL communicator");
        let every: Vec<usize> = (0..local.size()).collect();
        complete_exchange(local, pending, 0, None, &every, &mut self.centers, &mut Vec::new());
        &self.centers
    }

    /// Post this rank's contribution to a generation's snapshot allgather
    /// without waiting for it (non-root ranks send to the fan-in root; the
    /// root just stashes its own part). The snapshot is encoded once,
    /// straight into the buffer the transport takes ownership of — the one
    /// allocation a steady-state exchange costs a non-root rank.
    fn begin_exchange(&self, snapshot: &CellSnapshot) -> PendingAllgather {
        let mut wire = Vec::with_capacity(snapshot.wire_size());
        snapshot.encode(&mut wire);
        self.local().allgather_bytes_split(wire)
    }

    /// Slave: this rank's [`Exchange`] for the iteration pipeline,
    /// delivering the frame slots `reads` (the pipeline's
    /// `Pipeline::read_set`) and no others. In sync mode every generation
    /// completes inline; under `--exchange async` the blocking half runs on
    /// a background `AsyncExchanger` thread so root assembly + broadcast
    /// overlap the train step. `ctl` is the fan-in root's degraded-gather
    /// controller, when graceful degradation is on (clone its frozen-frame
    /// handle *before* passing it in if another thread must keep serving
    /// death-frame requests).
    pub fn exchange(
        &self,
        mode: ExchangeMode,
        ctl: Option<DegradedGather>,
        reads: &[usize],
    ) -> CommExchange {
        let prev_stale = vec![0; self.num_slaves()];
        let (ctl, exchanger) = match mode {
            ExchangeMode::Sync => (ctl, None),
            ExchangeMode::Async => {
                let comm = self.local().clone();
                (None, Some(AsyncExchanger::start(comm, ctl, reads.to_vec())))
            }
        };
        CommExchange {
            cm: self.clone(),
            reads: reads.to_vec(),
            pending: None,
            ctl,
            exchanger,
            stale_runs: Vec::new(),
            prev_stale,
        }
    }

    /// Fan-in root's main thread: answer one pending death-frame request
    /// from a catching-up replacement, if any is queued. The frame lives
    /// behind the shared handle so this thread can serve it while the
    /// execution thread is mid-collective. Returns whether a request was
    /// answered.
    pub fn serve_frozen_frame(&self, frame: &FrozenFrameHandle) -> bool {
        let Some(((), src)) =
            self.world.recv_timeout::<()>(RecvFrom::Any, tags::CACHE_REQ, Duration::ZERO)
        else {
            return false;
        };
        let resp = CacheResponse { frame: frame.lock().clone() };
        self.world.send(src, tags::CACHE_RESP, &resp);
        true
    }

    /// Replacement slave: fetch the frozen death-frame from the fan-in root
    /// (WORLD rank 1) — every cell's encoded snapshot, of which the caller
    /// decodes the ones it reads — polling until the root has frozen one or
    /// `timeout` passes. One request is answered by exactly one response,
    /// so the request/response pairing never skews.
    ///
    /// The deadline is authoritative: every wait below is capped at the
    /// time remaining, and nothing — not a response poll, not the retry
    /// pause, not a late response from a slow root — is accepted once it
    /// has passed. (The previous version let a full poll interval and retry
    /// sleep run past the deadline and would take a frame that arrived
    /// after it, so the fetch could overshoot its budget by whole poll
    /// rounds.)
    pub fn fetch_frozen_frame(&self, timeout: Duration) -> Option<Vec<Payload>> {
        const ROOT_WORLD: usize = 1;
        let deadline = Instant::now() + timeout;
        loop {
            self.world.send(ROOT_WORLD, tags::CACHE_REQ, &());
            // One response per request; a root that never answers (it died
            // too) bounds out instead of wedging the replacement.
            let resp = loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break None;
                }
                if let Some((resp, _)) = self.world.recv_timeout::<CacheResponse>(
                    RecvFrom::Rank(ROOT_WORLD),
                    tags::CACHE_RESP,
                    remaining.min(FROZEN_FRAME_POLL_INTERVAL),
                ) {
                    break Some(resp);
                }
            };
            match resp {
                Some(CacheResponse { frame: Some(frame) }) => return Some(frame),
                Some(CacheResponse { frame: None }) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return None;
                    }
                    std::thread::sleep(remaining.min(FROZEN_FRAME_RETRY_DELAY));
                    if Instant::now() >= deadline {
                        return None;
                    }
                }
                None => return None,
            }
        }
    }

    /// Final gather of results on GLOBAL: slaves pass `Some(result)`, the
    /// master passes `None` and receives every slave's result (cell order).
    pub fn gather_results(&self, mine: Option<SlaveResult>) -> Option<Vec<SlaveResult>> {
        let gathered = self.global.gather(Self::MASTER, &mine)?;
        let mut results: Vec<SlaveResult> = gathered.into_iter().flatten().collect();
        results.sort_by_key(|r| r.cell);
        Some(results)
    }

    /// Master side of [`CommManager::gather_results`] with an abort hook:
    /// wire-compatible with slaves calling the plain gather, but the
    /// collection is abandoned (returning the still-pending WORLD ranks)
    /// once `should_abort` turns true — the elastic-recovery path where a
    /// heartbeat-declared death must not wedge the master forever.
    ///
    /// # Panics
    /// Panics when called on a slave rank.
    pub fn gather_results_abortable(
        &self,
        poll: Duration,
        should_abort: &dyn Fn(&[usize]) -> bool,
    ) -> Result<Vec<SlaveResult>, Vec<usize>> {
        assert!(self.is_master(), "only the master collects results abortably");
        let mine: Option<SlaveResult> = None;
        match self.global.gather_abortable(Self::MASTER, &mine, poll, should_abort) {
            Ok(gathered) => {
                let mut results: Vec<SlaveResult> = gathered
                    .expect("master receives the gather")
                    .into_iter()
                    .flatten()
                    .collect();
                results.sort_by_key(|r| r.cell);
                Ok(results)
            }
            // GLOBAL group rank == WORLD rank (it spans all ranks in order).
            Err(pending) => Err(pending),
        }
    }

    /// Is the transport connection to `world_rank` known to be gone?
    /// (Always `false` on the in-process fabric.)
    pub fn connection_dead(&self, world_rank: usize) -> bool {
        // GLOBAL spans all ranks in order, so its group ranks ARE world ranks.
        self.global.peer_connection_dead(world_rank)
    }
}

/// The blocking half of one generation's exchange on `comm` (a LOCAL
/// communicator): complete the allgather — through the degraded fan-in
/// when this rank is the root and holds a controller — and decode the parts
/// `reads` names into `frame` ([`decode_slots`]). `round` is the
/// generation's iteration index, which the controller keys its staleness
/// accounting on; `stale_runs` receives the controller's per-rank
/// consecutive-substitution counts after this round (left empty without a
/// controller).
///
/// The parts are slices of the one broadcast body; dropping them on return
/// is this rank letting go of that body.
fn complete_exchange(
    comm: &Comm,
    pending: PendingAllgather,
    round: usize,
    ctl: Option<&mut DegradedGather>,
    reads: &[usize],
    frame: &mut Vec<CellSnapshot>,
    stale_runs: &mut Vec<usize>,
) {
    stale_runs.clear();
    let parts = match ctl {
        Some(ctl) => {
            let parts = comm.allgather_bytes_complete_degraded(pending, round, ctl);
            stale_runs.extend((0..parts.len()).map(|r| ctl.stale_run(r)));
            parts
        }
        None => comm.allgather_bytes_complete(pending),
    };
    decode_slots(&parts, reads, frame);
}

/// Decode the encoded snapshots `reads` names — `parts[slot]` for each, and
/// no other part — **in place** into their slots of `frame`, which keep
/// their genome buffers from the generation they held before. `frame` is
/// sized to one slot per part; a slot outside `reads` is left as it is,
/// an empty shell on a frame that was never anything else. The one decode
/// of the exchange: a live generation and a replacement's death-frame
/// alike.
///
/// # Panics
/// Panics on a part that is not an encoded snapshot.
pub(crate) fn decode_slots(parts: &[Payload], reads: &[usize], frame: &mut Vec<CellSnapshot>) {
    frame.resize_with(parts.len(), CellSnapshot::empty);
    for &slot in reads {
        frame[slot].decode_from(&parts[slot]).expect("snapshot decode");
    }
}

/// The `Comm`-backed [`Exchange`] of one slave rank (see
/// [`CommManager::exchange`]): `begin` posts the rank's snapshot toward
/// the fan-in root, `complete` decodes the generation's read slots into the
/// frame it is given (sync) or swaps in the frame the exchange thread
/// decoded them into and sends the spent one back to be refilled (async) —
/// either way no frame is allocated once the first generations have sized
/// the buffers, and no slot outside the read set is ever filled.
#[derive(Debug)]
pub struct CommExchange {
    cm: CommManager,
    /// The frame slots this rank's cells read.
    reads: Vec<usize>,
    /// Sync: the generation begun and not yet completed.
    pending: Option<PendingAllgather>,
    /// Sync fan-in root under graceful degradation (the async controller
    /// lives on the exchange thread, which reports its stale runs with
    /// every generation).
    ctl: Option<DegradedGather>,
    exchanger: Option<AsyncExchanger>,
    /// Per-rank stale-run counts after the generation just completed
    /// (empty on a rank without a controller).
    stale_runs: Vec<usize>,
    /// The same counts as of the generation before, so a round that
    /// substituted a rank's contribution journals who was absent.
    prev_stale: Vec<usize>,
}

impl Exchange for CommExchange {
    fn begin(&mut self, gen: usize, frame: &[CellSnapshot], _costs: &[Duration]) {
        let pending = self.cm.begin_exchange(&frame[self.cm.local_rank()]);
        match self.exchanger.as_mut() {
            Some(ex) => ex.submit(pending, gen),
            None => self.pending = Some(pending),
        }
    }

    fn complete(&mut self, gen: usize, frame: &mut Vec<CellSnapshot>, tel: &mut Telemetry) {
        match self.exchanger.as_mut() {
            Some(ex) => ex.retrieve(frame, &mut self.stale_runs),
            None => {
                let pending = self.pending.take().expect("complete follows begin");
                let (local, ctl) = (self.cm.local(), self.ctl.as_mut());
                let stale_runs = &mut self.stale_runs;
                complete_exchange(local, pending, gen, ctl, &self.reads, frame, stale_runs);
            }
        }
        let cell = self.cm.local_rank() as u32;
        let mut degraded = false;
        for (r, (prev, &run)) in self.prev_stale.iter_mut().zip(&self.stale_runs).enumerate() {
            if run > *prev {
                tel.instant(EventKind::Degraded, cell, gen as u32, r as u64);
                degraded = true;
            }
            *prev = run;
        }
        if degraded {
            tel.metrics.degraded_iters.inc();
        }
    }
}

/// One completed generation as it crosses from the exchange thread to the
/// training thread — and, spent, back again to be refilled.
#[derive(Debug, Default)]
struct Generation {
    /// One slot per cell, the rank's read set decoded.
    frame: Vec<CellSnapshot>,
    /// See [`complete_exchange`].
    stale_runs: Vec<usize>,
}

/// Background half of the `--exchange async` pipeline (tentpole of the
/// overlap work): the training thread *begins* generation `i`'s allgather
/// (a non-blocking contribution send), submits the pending collective
/// here, and trains iteration `i` against the already-completed generation
/// `i-1` while this thread runs the blocking completion.
///
/// Exactly one completion is outstanding at a time and per-(peer, tag)
/// delivery is FIFO on every transport, so the consumed frames — and
/// therefore the run's result — are a pure function of (seed, config),
/// never of how the exchange thread is scheduled.
///
/// One [`Generation`] of buffers belongs to the thread. It decodes the
/// rank's read set into them, hands them over, and takes its next job only
/// once [`AsyncExchanger::retrieve`] has swapped the frame out and sent the
/// spent buffers back — so three frames exist per rank (the pipeline's two
/// and this one), each holding the read set and nothing else of the grid,
/// and they rotate instead of being allocated per generation.
///
/// Dropping the exchanger completes any still-queued collective first and
/// joins the thread: every rank must finish the final generation or its
/// peers' completions would wedge mid-broadcast.
#[derive(Debug)]
struct AsyncExchanger {
    jobs: Option<mpsc::Sender<(PendingAllgather, usize)>>,
    done: mpsc::Receiver<Generation>,
    spent: Option<mpsc::Sender<Generation>>,
    in_flight: usize,
    handle: Option<JoinHandle<()>>,
}

impl AsyncExchanger {
    /// Spawn the exchange thread over `comm` (a clone of the LOCAL
    /// communicator), decoding the frame slots `reads`; on the fan-in root
    /// under degraded gathers it also owns the [`DegradedGather`] control
    /// block.
    fn start(comm: Comm, mut ctl: Option<DegradedGather>, reads: Vec<usize>) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<(PendingAllgather, usize)>();
        let (done_tx, done_rx) = mpsc::channel::<Generation>();
        let (spent_tx, spent_rx) = mpsc::channel::<Generation>();
        let handle = std::thread::spawn(move || {
            let mut gen = Generation::default();
            for (pending, round) in job_rx {
                let (frame, stale_runs) = (&mut gen.frame, &mut gen.stale_runs);
                complete_exchange(
                    &comm,
                    pending,
                    round,
                    ctl.as_mut(),
                    &reads,
                    frame,
                    stale_runs,
                );
                if done_tx.send(gen).is_err() {
                    break;
                }
                // A closed channel is the exchanger being dropped with the
                // final generation unconsumed: nothing reads what follows.
                gen = spent_rx.recv().unwrap_or_default();
            }
        });
        Self {
            jobs: Some(job_tx),
            done: done_rx,
            spent: Some(spent_tx),
            in_flight: 0,
            handle: Some(handle),
        }
    }

    /// Hand a begun collective to the exchange thread for completion.
    /// `round` is the generation's iteration index.
    fn submit(&mut self, pending: PendingAllgather, round: usize) {
        self.jobs
            .as_ref()
            .expect("exchanger not stopped")
            .send((pending, round))
            .expect("exchange thread alive");
        self.in_flight += 1;
    }

    /// Block until the oldest submitted exchange completes, swap its frame
    /// (the read set's snapshots, each in its cell's slot) into `frame` and
    /// copy its stale runs into `stale_runs`; the frame swapped out goes
    /// back to the exchange thread as the buffers of its next generation.
    ///
    /// # Panics
    /// Panics when nothing is in flight — the pipeline invariant (begin
    /// generation `i` before retrieving `i-1`) has been broken.
    fn retrieve(&mut self, frame: &mut Vec<CellSnapshot>, stale_runs: &mut Vec<usize>) {
        assert!(self.in_flight > 0, "no exchange in flight to retrieve");
        let mut gen = self.done.recv().expect("exchange thread alive");
        self.in_flight -= 1;
        std::mem::swap(frame, &mut gen.frame);
        stale_runs.clone_from(&gen.stale_runs);
        self.spent
            .as_ref()
            .expect("exchanger not stopped")
            .send(gen)
            .expect("exchange thread alive");
    }
}

impl Drop for AsyncExchanger {
    fn drop(&mut self) {
        self.jobs.take();
        self.spent.take();
        if std::thread::panicking() {
            // Avoid a double panic (and a wedge on a dead peer) while
            // unwinding; leak the thread instead.
            return;
        }
        if let Some(handle) = self.handle.take() {
            handle.join().expect("exchange thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_core::TrainConfig;
    use lipiz_mpi::Universe;

    #[test]
    fn communicator_roles() {
        let results = Universe::run(4, |world| {
            let cm = CommManager::new(world);
            let local = if cm.is_master() { None } else { Some(cm.local_rank()) };
            (cm.is_master(), cm.num_slaves(), local)
        });
        assert_eq!(results[0], (true, 3, None));
        for (i, r) in results.iter().enumerate().skip(1) {
            assert_eq!(*r, (false, 3, Some(i - 1)), "slave {i}");
        }
    }

    #[test]
    fn announcement_and_run_task_flow() {
        let cfg = TrainConfig::smoke(2);
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let announcements = cm.collect_announcements();
                for (i, a) in announcements.iter().enumerate() {
                    assert_eq!(a.rank, i + 1);
                    let task = RunTask {
                        config: TrainConfig::smoke(2),
                        cell_index: i,
                        resume_from: None,
                        rejoin_round: None,
                    };
                    cm.send_run_task(a.rank, &task);
                }
                announcements.len()
            } else {
                cm.announce_node(&format!("node{:02}", cm.world_rank()));
                let task = cm.recv_run_task();
                assert_eq!(task.cell_index, cm.world_rank() - 1);
                assert_eq!(task.config, TrainConfig::smoke(2));
                0
            }
        });
        assert_eq!(results[0], 2);
        let _ = cfg;
    }

    #[test]
    fn center_exchange_orders_by_cell() {
        let results = Universe::run(5, |world| {
            let mut cm = CommManager::new(world);
            if cm.is_master() {
                return vec![];
            }
            let cell = cm.local_rank();
            let snap = CellSnapshot {
                cell,
                gen_genome: vec![cell as f32; 3],
                gen_lr: 1e-4,
                gen_loss: lipiz_nn::GanLoss::Heuristic,
                gen_fitness: cell as f64,
                disc_genome: vec![-(cell as f32); 2],
                disc_lr: 1e-4,
                disc_fitness: 0.0,
            };
            cm.exchange_centers(&snap).iter().map(|s| s.gen_genome[0]).collect::<Vec<f32>>()
        });
        for r in results.iter().skip(1) {
            assert_eq!(r, &[0.0, 1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn async_exchange_completes_generations_in_order_behind_the_begins() {
        // The call order the pipeline makes under `--exchange async`, with
        // a commit-boundary drain after iteration 2: every completed frame
        // must hold exactly the generation asked for, from every cell, no
        // matter how far the begins have run ahead.
        use Call::{Begin, Complete};
        #[derive(Clone, Copy)]
        enum Call {
            Begin(usize),
            Complete(usize),
        }
        let script = [
            Begin(0),
            Complete(0),
            Begin(1),
            Begin(2),
            Complete(1),
            Complete(2), // drain
            Begin(3),
            Begin(4),
            Complete(3),
        ];
        let results = Universe::run(4, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                return vec![];
            }
            let cell = cm.local_rank();
            let mut ex = cm.exchange(ExchangeMode::Async, None, &[0, 1, 2]);
            let mut tel = Telemetry::disabled();
            let mut completed: Vec<(usize, Vec<f32>)> = Vec::new();
            for call in script {
                match call {
                    Begin(gen) => {
                        let mut frame = vec![CellSnapshot::empty(); 3];
                        frame[cell].gen_genome = vec![(cell * 100 + gen) as f32];
                        frame[cell].disc_genome = vec![0.0];
                        ex.begin(gen, &frame, &[]);
                    }
                    Complete(gen) => {
                        let mut frame = Vec::new();
                        ex.complete(gen, &mut frame, &mut tel);
                        completed.push((gen, frame.iter().map(|s| s.gen_genome[0]).collect()));
                    }
                }
            }
            // Generation 4 stays with the exchange thread, which must still
            // complete it — peers block on it in their own final round.
            drop(ex);
            completed
        });
        for (rank, completed) in results.iter().enumerate().skip(1) {
            assert_eq!(completed.len(), 4);
            for (gen, frame) in completed {
                let want: Vec<f32> = (0..3).map(|c| (c * 100 + gen) as f32).collect();
                assert_eq!(frame, &want, "rank {rank} generation {gen}");
            }
        }
    }

    #[test]
    fn exchange_frames_hold_exactly_the_read_set_on_a_4x4_grid() {
        // Sixteen one-cell ranks, three pipeline steps each. Every frame a
        // rank owns — the pipeline's, and under async the exchange thread's —
        // holds a snapshot in the four slots its cell reads, at most its own
        // posted one besides, and not one byte of the other eleven cells.
        use lipiz_core::{CellEngine, Grid, Pipeline};
        for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
            let cfg = TrainConfig::smoke(4).with_exchange(mode);
            let grid = Grid::from_config(&cfg.grid);
            let mut rng = lipiz_tensor::Rng64::seed_from(cfg.training.data_seed);
            let (rows, cols) = (cfg.training.dataset_size, cfg.network.data_dim);
            let data = rng.uniform_matrix(rows, cols, -0.9, 0.9);
            let results = Universe::run(17, |world| {
                let cm = CommManager::new(world);
                if cm.is_master() {
                    return None;
                }
                let cell = cm.local_rank();
                let mut engine = CellEngine::new(cell, &cfg, data.clone());
                let snapshot_bytes = {
                    let snap = engine.snapshot();
                    4 * (snap.gen_genome.len() + snap.disc_genome.len())
                };
                let mut pipeline = Pipeline::new(&cfg, vec![engine], Telemetry::disabled());
                let mut ex = cm.exchange(mode, None, pipeline.read_set());
                for _ in 0..3 {
                    pipeline.step(&mut ex);
                }
                // Under async, generation 2 is still with the exchange
                // thread: take the frame it decoded into.
                let mut third = Vec::new();
                if mode.is_async() {
                    ex.complete(2, &mut third, &mut Telemetry::disabled());
                }
                drop(ex);
                let [cur, prev] = pipeline.frames();
                let account = |frame: &[CellSnapshot]| {
                    let held: Vec<usize> =
                        (0..frame.len()).filter(|&slot| !frame[slot].is_empty()).collect();
                    let floats =
                        |s: &CellSnapshot| s.gen_genome.capacity() + s.disc_genome.capacity();
                    (held, 4 * frame.iter().map(floats).sum::<usize>())
                };
                Some(([cur, prev, &third].map(account), snapshot_bytes))
            });
            for (cell, result) in results.iter().skip(1).enumerate() {
                let (frames, snapshot_bytes) = result.as_ref().expect("slave");
                let mut reads = grid.neighbors(cell);
                reads.sort_unstable();
                assert_eq!(reads.len(), 4, "4×4 Cross5 has four distinct neighbours");
                let mut in_use = 0;
                for (held, heap) in frames {
                    assert_eq!(*heap, held.len() * snapshot_bytes, "cell {cell} {mode:?}");
                    if held.is_empty() {
                        continue;
                    }
                    in_use += 1;
                    let others: Vec<usize> =
                        held.iter().copied().filter(|&slot| slot != cell).collect();
                    assert_eq!(others, reads, "cell {cell} {mode:?}: slots held {held:?}");
                }
                // One frame in sync mode, three rotating under async.
                assert_eq!(in_use, if mode.is_async() { 3 } else { 1 }, "cell {cell} {mode:?}");
            }
        }
    }

    /// A one-float-per-genome snapshot of `cell` at generation `gen`.
    fn marked(cell: usize, gen: usize) -> CellSnapshot {
        let mut snap = CellSnapshot::empty();
        snap.cell = cell;
        snap.gen_genome = vec![(cell * 100 + gen) as f32];
        snap.disc_genome = vec![-(gen as f32); cell + 1];
        snap
    }

    #[test]
    fn exchange_centers_through_one_recycled_frame_equals_fresh_decodes() {
        let results = Universe::run(4, |world| {
            let mut cm = CommManager::new(world);
            if cm.is_master() {
                return true;
            }
            let cell = cm.local_rank();
            (0..4).all(|gen| {
                // Genome sizes change between generations, so a slot that
                // kept a stale tail or a stale length would show.
                let shrink = if gen % 2 == 0 { 0 } else { 1 };
                let mut mine = marked(cell, gen);
                mine.disc_genome.truncate(mine.disc_genome.len() - shrink);
                let fresh: Vec<CellSnapshot> = (0..3)
                    .map(|c| {
                        let mut s = marked(c, gen);
                        s.disc_genome.truncate(s.disc_genome.len() - shrink);
                        s
                    })
                    .collect();
                cm.exchange_centers(&mine) == fresh
            })
        });
        assert!(results.iter().all(|ok| *ok));
    }

    #[test]
    fn substituted_rounds_are_journaled_in_sync_and_async_mode() {
        // LOCAL rank 2 is absent for rounds 2..4 and rejoins at round 4
        // (here: the same thread coming back with a fresh exchange). The
        // fan-in root must journal one `Degraded` event per substituted
        // round naming the absent rank — whether its controller sits on the
        // training thread (sync) or on the exchange thread (async).
        const ROUNDS: usize = 6;
        /// Every rank reads every slot here.
        const ALL: &[usize] = &[0, 1, 2];
        /// Drive `ex` through rounds `from..ROUNDS` in the pipeline's call
        /// order; returns `(gen, slot values)` of every completed frame.
        fn drive(
            ex: &mut CommExchange,
            mode: ExchangeMode,
            cell: usize,
            rounds: std::ops::Range<usize>,
            tel: &mut Telemetry,
        ) -> Vec<(usize, Vec<f32>)> {
            let mut frame = vec![CellSnapshot::empty(); 3];
            let mut seen = Vec::new();
            let mut next = rounds.start;
            for gen in rounds {
                frame[cell] = marked(cell, gen);
                ex.begin(gen, &frame, &[]);
                let complete = match mode {
                    ExchangeMode::Sync => Some(gen),
                    ExchangeMode::Async if gen == 0 => Some(0),
                    ExchangeMode::Async => (next < gen).then_some(next),
                };
                if let Some(g) = complete {
                    ex.complete(g, &mut frame, tel);
                    seen.push((g, frame.iter().map(|s| s.gen_genome[0]).collect()));
                    next = g + 1;
                }
            }
            seen
        }
        for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
            let results = Universe::run(4, |world| {
                let cm = CommManager::new(world);
                if cm.is_master() {
                    return None;
                }
                let cell = cm.local_rank();
                let mut tel = Telemetry::enabled(cm.world_rank() as u32, 256);
                let seen = match cell {
                    0 => {
                        let mut ctl = DegradedGather::new(3, 2);
                        ctl.plan_absence(2, 2, 4);
                        let mut ex = cm.exchange(mode, Some(ctl), ALL);
                        drive(&mut ex, mode, cell, 0..ROUNDS, &mut tel)
                    }
                    1 => drive(
                        &mut cm.exchange(mode, None, ALL),
                        mode,
                        cell,
                        0..ROUNDS,
                        &mut tel,
                    ),
                    _ => {
                        let mut seen = drive(
                            &mut cm.exchange(mode, None, ALL),
                            mode,
                            cell,
                            0..2,
                            &mut tel,
                        );
                        seen.extend(drive(
                            &mut cm.exchange(mode, None, ALL),
                            mode,
                            cell,
                            4..ROUNDS,
                            &mut tel,
                        ));
                        seen
                    }
                };
                let degraded: Vec<(u32, u32, u64)> = tel
                    .events()
                    .filter(|e| e.kind == EventKind::Degraded)
                    .map(|e| (e.cell, e.iter, e.arg))
                    .collect();
                Some((seen, degraded, tel.metrics.degraded_iters.get()))
            });
            let (seen, degraded, degraded_iters) = results[1].as_ref().expect("root");
            assert_eq!(degraded, &[(0, 2, 2), (0, 3, 2)], "{mode:?}");
            assert_eq!(*degraded_iters, 2, "{mode:?}");
            for (gen, slots) in seen {
                // Rounds 2 and 3 carry the victim's round-1 snapshot.
                let stale = if (2..4).contains(gen) { 1 } else { *gen };
                let want = [*gen as f32, (100 + gen) as f32, (200 + stale) as f32];
                assert_eq!(slots, &want, "{mode:?} generation {gen}");
            }
            for r in &results[2..] {
                let (_, degraded, degraded_iters) = r.as_ref().expect("slave");
                assert!(degraded.is_empty() && *degraded_iters == 0, "only the root journals");
            }
        }
    }

    #[test]
    fn frozen_frame_fetch_respects_its_deadline() {
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            match cm.world_rank() {
                1 => {
                    // A root slower than the replacement's budget: the
                    // first answer (no frame yet) comes quickly, the second
                    // carries a frame but lands after the deadline — it
                    // must not be accepted.
                    for i in 0..2 {
                        let Some(((), src)) = cm.world.recv_timeout::<()>(
                            RecvFrom::Any,
                            tags::CACHE_REQ,
                            Duration::from_secs(5),
                        ) else {
                            break;
                        };
                        std::thread::sleep(Duration::from_millis(if i == 0 { 30 } else { 80 }));
                        let frame = (i > 0).then(|| vec![Payload::from(vec![1u8, 2, 3])]);
                        cm.world.send(src, tags::CACHE_RESP, &CacheResponse { frame });
                    }
                    None
                }
                2 => {
                    let start = Instant::now();
                    let got = cm.fetch_frozen_frame(Duration::from_millis(120));
                    let elapsed = start.elapsed();
                    assert!(got.is_none(), "accepted a frame that arrived after the deadline");
                    assert!(
                        elapsed < Duration::from_millis(360),
                        "fetch overshot its deadline: {elapsed:?}"
                    );
                    Some(elapsed.as_millis() as u64)
                }
                _ => None,
            }
        });
        assert!(results[2].is_some(), "replacement rank never measured");
    }

    #[test]
    fn heartbeat_round_trip() {
        let results = Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                cm.request_status(1);
                let status = cm.await_status(1, Duration::from_secs(5));
                status.map(|s| (s.state, s.iterations_done))
            } else {
                assert!(cm.poll_status_request(Duration::from_secs(5)));
                cm.respond_status(&StatusReport { state: 1, iterations_done: 7 });
                None
            }
        });
        assert_eq!(results[0], Some((1, 7)));
    }

    #[test]
    fn result_gather_collects_all_slaves() {
        let results = Universe::run(4, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                let all = cm.gather_results(None).expect("master receives");
                Some(all.iter().map(|r| (r.cell, r.gen_fitness)).collect::<Vec<_>>())
            } else {
                let cell = cm.local_rank();
                cm.gather_results(Some(SlaveResult {
                    cell,
                    gen_fitness: cell as f64 * 0.1,
                    disc_fitness: 0.0,
                    mixture: vec![1.0],
                    ensemble: vec![vec![0.5; 3]],
                    wall_seconds: 0.0,
                    telemetry: lipiz_telemetry::TelemetrySummary::empty(),
                }));
                None
            }
        });
        assert_eq!(results[0].as_ref().unwrap(), &[(0, 0.0), (1, 0.1), (2, 0.2)]);
    }

    #[test]
    fn status_poll_times_out_quietly() {
        Universe::run(2, |world| {
            let cm = CommManager::new(world);
            if !cm.is_master() {
                assert!(!cm.poll_status_request(Duration::from_millis(10)));
            }
        });
    }
}
