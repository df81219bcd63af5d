//! The `comm-manager` class (§III-C): every communication the runtime
//! performs, wrapped behind typed methods.
//!
//! Three communicators are used, exactly as §III-D describes:
//!
//! * **WORLD** — global configuration, run-task messages, status control;
//! * **LOCAL** — slave-to-slave traffic (the per-iteration exchange of
//!   center snapshots), so it never involves the master or inactive
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
//! here that moves megabytes. A cell reads only its neighbourhood (§III-B),
//! and every neighbourhood pattern is symmetric on the torus, so the ranks
//! a rank reads are exactly the ranks that read it. `begin` encodes the
//! snapshot once, straight into the buffer the transport takes ownership
//! of, and posts that one buffer to each of them; `complete` receives
//! their contributions and decodes each in place into a frame slot that
//! keeps its genome buffers from generation to generation. No rank relays
//! another's snapshot, none waits on a rank it does not read, and every
//! slot outside the read set stays an empty shell. Frames are never
//! allocated per generation: sync mode refills the pipeline's own buffer,
//! async mode rotates three frames between the training thread and the
//! exchange thread (README, "Where a snapshot byte is copied").
//!
//! Graceful degradation follows the same lines: every rank holds its own
//! [`DegradedGather`] for the peers it reads, substitutes a dead one from
//! its cache, and serves its share of the death-frame to the replacement.

use crate::protocol::{tags, NodeAnnouncement, RunTask, SlaveResult, StatusReport};
use lipiz_core::{CellSnapshot, Exchange, ExchangeMode};
use lipiz_mpi::{Comm, DegradedGather, FaultPlan, FrozenFrameHandle, Payload, RecvFrom, Wire};
use lipiz_telemetry::{EventKind, Telemetry, TelemetrySummary};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the master re-polls for a respawned replacement's
/// announcement while waiting out the rejoin deadline.
const REPLACEMENT_POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Pause between death-frame re-requests while the neighbour has not
/// frozen its share yet.
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

    /// Master: collect every slave's announcement (any arrival order),
    /// polling every `poll`. Fails with the dead WORLD rank instead of
    /// wedging when a slave's connection dies before its announcement
    /// arrives — this phase runs *before* the heartbeat thread exists, so
    /// without the check a slave killed in the bootstrap-to-announce window
    /// would hang the master forever.
    pub fn collect_announcements(
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

    // ---- snapshot exchange --------------------------------------------------

    /// Slave: one generation of the exchange with every slot read — post
    /// this rank's snapshot to every other slave, receive theirs. Returns
    /// all cells' snapshots in cell order; the frame is this manager's own,
    /// refilled in place by the next call. The same path as
    /// [`CommManager::exchange`] for a rank that reads the whole grid.
    pub fn exchange_centers(&mut self, snapshot: &CellSnapshot) -> &[CellSnapshot] {
        let every: Vec<usize> = (0..self.num_slaves()).collect();
        let mut links = Links::new(self.local().clone(), &every, None);
        let part = encode(snapshot);
        links.post(&part, 0);
        links.complete(&part, 0, &mut self.centers, &mut Vec::new());
        &self.centers
    }

    /// Slave: this rank's [`Exchange`] for the iteration pipeline, reading
    /// the frame slots `reads` (the pipeline's `Pipeline::read_set`) and no
    /// others — and, by the symmetry of the neighbourhood, posting to
    /// exactly the ranks behind them. In sync mode every generation is
    /// posted in `begin` and received in `complete`; under
    /// `--exchange async` a background `AsyncExchanger` thread does both,
    /// so the exchange overlaps the train step. `ctl` is this rank's
    /// degraded-gather controller, when graceful degradation is on (clone
    /// its frozen-frame handle *before* passing it in if another thread
    /// must keep serving death-frame requests).
    pub fn exchange(
        &self,
        mode: ExchangeMode,
        ctl: Option<DegradedGather>,
        reads: &[usize],
    ) -> CommExchange {
        let links = Links::new(self.local().clone(), reads, ctl);
        let schedule = match mode {
            ExchangeMode::Sync => Schedule::Inline { links, pending: None },
            ExchangeMode::Async => Schedule::Overlapped(AsyncExchanger::start(links)),
        };
        CommExchange {
            cell: self.local_rank() as u32,
            schedule,
            stale_runs: Vec::new(),
            prev_stale: vec![0; self.num_slaves()],
        }
    }

    /// Slave main thread: answer one queued death-frame request from a
    /// catching-up replacement with the requested slot of this rank's
    /// share, `None` while it is not frozen. Returns whether a request was
    /// answered.
    pub fn serve_frozen_frame(&self, frame: &FrozenFrameHandle) -> bool {
        let Some((slot, src)) =
            self.world.recv_timeout::<usize>(RecvFrom::Any, tags::CACHE_REQ, Duration::ZERO)
        else {
            return false;
        };
        let part: Option<Payload> = frame.lock().get(slot).cloned().flatten();
        self.world.send(src, tags::CACHE_RESP, &part);
        true
    }

    /// Replacement slave: fetch the death-frame slots `reads` from the
    /// neighbours that froze them, decoded into a grid-sized frame. Each
    /// slot comes from the rank it belongs to; the replacement's own slot
    /// (a one-row or one-column torus reads it) from another neighbour's
    /// cached copy. Each is re-requested until frozen; `None` once `timeout`
    /// passes — every wait is capped at the time remaining, so nothing that
    /// arrives after the deadline is accepted.
    ///
    /// # Panics
    /// Panics if the rank reads nothing but itself (a one-cell grid, which
    /// has no neighbour to hold its frame).
    pub fn fetch_death_frame(
        &self,
        reads: &[usize],
        timeout: Duration,
    ) -> Option<Vec<CellSnapshot>> {
        let own = self.local_rank();
        let deadline = Instant::now() + timeout;
        let mut frame = vec![CellSnapshot::empty(); self.num_slaves()];
        for &slot in reads {
            let holder = if slot != own {
                slot
            } else {
                *reads.iter().find(|&&r| r != own).expect("a neighbour holds the own slot")
            };
            let part =
                self.fetch_frozen_slot(self.local().world_rank_of(holder), slot, deadline)?;
            frame[slot].decode_from(&part).expect("snapshot decode");
        }
        Some(frame)
    }

    /// One slot of the death-frame from WORLD rank `holder`, re-requested
    /// until it has been frozen. One request is answered by exactly one
    /// response, so the request/response pairing never skews.
    fn fetch_frozen_slot(
        &self,
        holder: usize,
        slot: usize,
        deadline: Instant,
    ) -> Option<Payload> {
        let remaining = || deadline.saturating_duration_since(Instant::now());
        loop {
            self.world.send(holder, tags::CACHE_REQ, &slot);
            // A holder that never answers (it died too) bounds out instead
            // of wedging the replacement.
            let (part, _) = self.world.recv_timeout::<Option<Payload>>(
                RecvFrom::Rank(holder),
                tags::CACHE_RESP,
                remaining(),
            )?;
            if part.is_some() {
                return part;
            }
            std::thread::sleep(remaining().min(FROZEN_FRAME_RETRY_DELAY));
        }
    }

    // ---- final gather ---------------------------------------------------------

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

/// `snapshot` encoded once, straight into the buffer the transport takes
/// ownership of — the one allocation a steady-state exchange costs a rank.
fn encode(snapshot: &CellSnapshot) -> Payload {
    let mut wire = Vec::with_capacity(snapshot.wire_size());
    snapshot.encode(&mut wire);
    Payload::from(wire)
}

/// One rank's side of the exchange on LOCAL, with its degraded-gather
/// controller when graceful degradation is on.
#[derive(Debug)]
struct Links {
    comm: Comm,
    own: usize,
    /// Does this rank read its own slot (a one-row or one-column torus)?
    reads_own: bool,
    /// The other slots read — and so, the neighbourhood being symmetric,
    /// the ranks that read this one: whom it receives from and posts to.
    peers: Vec<usize>,
    ctl: Option<DegradedGather>,
}

impl Links {
    fn new(comm: Comm, reads: &[usize], ctl: Option<DegradedGather>) -> Self {
        let own = comm.rank();
        let peers = reads.iter().copied().filter(|&slot| slot != own).collect();
        Self { own, reads_own: reads.contains(&own), peers, ctl, comm }
    }

    /// Post this rank's `part` of generation `round` to its readers.
    fn post(&self, part: &Payload, round: usize) {
        self.comm.exchange_post(&self.peers, part, round, self.ctl.as_ref());
    }

    /// Receive generation `round` from the peers and decode each part in
    /// place into its slot of `frame` (grid-sized; slots outside the read
    /// set are left as they are) — and this rank's own `part` too when it
    /// reads its own slot. `stale_runs` receives the controller's per-rank
    /// consecutive-substitution counts after this round (left empty without
    /// a controller).
    fn complete(
        &mut self,
        part: &Payload,
        round: usize,
        frame: &mut Vec<CellSnapshot>,
        stale_runs: &mut Vec<usize>,
    ) {
        frame.resize_with(self.comm.size(), CellSnapshot::empty);
        let decode = |slot: &mut CellSnapshot, bytes: &[u8]| {
            slot.decode_from(bytes).expect("snapshot decode");
        };
        self.comm.exchange_complete(&self.peers, part, round, self.ctl.as_mut(), |src, p| {
            decode(&mut frame[src], &p)
        });
        if self.reads_own {
            decode(&mut frame[self.own], part);
        }
        stale_runs.clear();
        if let Some(ctl) = &self.ctl {
            stale_runs.extend((0..self.comm.size()).map(|r| ctl.stale_run(r)));
        }
    }
}

/// The `Comm`-backed [`Exchange`] of one slave rank (see
/// [`CommManager::exchange`]): `begin` encodes the rank's snapshot and
/// posts it to the ranks that read it, `complete` decodes the generation's
/// read slots into the frame it is given (sync) or swaps in the frame the
/// exchange thread decoded them into and sends the spent one back (async) —
/// either way no frame is allocated once the first generations have sized
/// the buffers, and no slot outside the read set is ever filled.
#[derive(Debug)]
pub struct CommExchange {
    /// This rank's cell, which its journal events name.
    cell: u32,
    schedule: Schedule,
    /// Per-rank stale-run counts after the generation just completed
    /// (empty on a rank without a controller).
    stale_runs: Vec<usize>,
    /// The same counts as of the generation before, so a round that
    /// substituted a rank's contribution journals who was absent.
    prev_stale: Vec<usize>,
}

/// Where a generation's blocking half runs.
#[derive(Debug)]
enum Schedule {
    /// Sync: on the training thread, `pending` holding the generation
    /// begun and not yet completed.
    Inline { links: Links, pending: Option<Payload> },
    /// Async: on the exchange thread, which also does the posting.
    Overlapped(AsyncExchanger),
}

impl Exchange for CommExchange {
    fn begin(&mut self, gen: usize, frame: &[CellSnapshot], _costs: &[Duration]) {
        let part = encode(&frame[self.cell as usize]);
        match &mut self.schedule {
            Schedule::Inline { links, pending } => {
                links.post(&part, gen);
                *pending = Some(part);
            }
            Schedule::Overlapped(ex) => ex.submit(part, gen),
        }
    }

    fn complete(&mut self, gen: usize, frame: &mut Vec<CellSnapshot>, tel: &mut Telemetry) {
        match &mut self.schedule {
            Schedule::Inline { links, pending } => {
                let part = pending.take().expect("complete follows begin");
                links.complete(&part, gen, frame, &mut self.stale_runs);
            }
            Schedule::Overlapped(ex) => ex.retrieve(frame, &mut self.stale_runs),
        }
        let mut degraded = false;
        for (r, (prev, &run)) in self.prev_stale.iter_mut().zip(&self.stale_runs).enumerate() {
            if run > *prev {
                tel.instant(EventKind::Degraded, self.cell, gen as u32, r as u64);
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
    /// See [`Links::complete`].
    stale_runs: Vec<usize>,
}

/// Background half of the `--exchange async` pipeline: the training thread
/// encodes generation `i` and submits it here, then trains iteration `i`
/// against the already-completed generation `i-1` while this thread posts
/// generation `i` to the rank's readers and receives theirs.
///
/// Jobs run one at a time, in order, and per-(peer, tag) delivery is FIFO
/// on every transport, so the consumed frames — and therefore the run's
/// result — are a pure function of (seed, config), never of how the
/// exchange thread is scheduled. Every rank posts a generation before it
/// waits for that generation, so no rank's wait can depend on its own.
///
/// One [`Generation`] of buffers belongs to the thread. It decodes the
/// rank's read set into them, hands them over, and takes its next job only
/// once [`AsyncExchanger::retrieve`] has swapped the frame out and sent the
/// spent buffers back — so three frames exist per rank (the pipeline's two
/// and this one), each holding the read set and nothing else of the grid,
/// and they rotate instead of being allocated per generation.
///
/// Dropping the exchanger completes any still-queued generation first and
/// joins the thread: every rank must post and receive the final generation
/// or its readers' exchange threads would wedge.
#[derive(Debug)]
struct AsyncExchanger {
    jobs: Option<mpsc::Sender<(Payload, usize)>>,
    done: mpsc::Receiver<Generation>,
    spent: Option<mpsc::Sender<Generation>>,
    in_flight: usize,
    handle: Option<JoinHandle<()>>,
}

impl AsyncExchanger {
    /// Spawn the exchange thread over `links` (a clone of the LOCAL
    /// communicator, and the controller when degradation is on).
    fn start(mut links: Links) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<(Payload, usize)>();
        let (done_tx, done_rx) = mpsc::channel::<Generation>();
        let (spent_tx, spent_rx) = mpsc::channel::<Generation>();
        let handle = std::thread::spawn(move || {
            let mut gen = Generation::default();
            for (part, round) in job_rx {
                links.post(&part, round);
                links.complete(&part, round, &mut gen.frame, &mut gen.stale_runs);
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

    /// Hand this rank's encoded part of generation `round` to the exchange
    /// thread.
    fn submit(&mut self, part: Payload, round: usize) {
        self.jobs
            .as_ref()
            .expect("exchanger not stopped")
            .send((part, round))
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
                let announcements =
                    cm.collect_announcements(Duration::from_millis(50)).expect("all announce");
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
    fn substituted_rounds_are_journaled_by_every_reader_in_sync_and_async_mode() {
        // LOCAL rank 2 is absent for rounds 2..4 and rejoins at round 4
        // (here: the same thread coming back with a fresh exchange). Both
        // other ranks read it, and each must substitute on its own and
        // journal one `Degraded` event per substituted round naming the
        // absent rank — whether its controller sits on the training thread
        // (sync) or on the exchange thread (async).
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
                let seen = if cell < 2 {
                    let mut ctl = DegradedGather::new(3, 2);
                    ctl.plan_absence(2, 2, 4);
                    let mut ex = cm.exchange(mode, Some(ctl), ALL);
                    drive(&mut ex, mode, cell, 0..ROUNDS, &mut tel)
                } else {
                    let mut ex = cm.exchange(mode, None, ALL);
                    let mut seen = drive(&mut ex, mode, cell, 0..2, &mut tel);
                    drop(ex);
                    let mut ex = cm.exchange(mode, None, ALL);
                    seen.extend(drive(&mut ex, mode, cell, 4..ROUNDS, &mut tel));
                    seen
                };
                let degraded: Vec<(u32, u32, u64)> = tel
                    .events()
                    .filter(|e| e.kind == EventKind::Degraded)
                    .map(|e| (e.cell, e.iter, e.arg))
                    .collect();
                Some((seen, degraded, tel.metrics.degraded_iters.get()))
            });
            for cell in 0..2u32 {
                let (seen, degraded, degraded_iters) =
                    results[cell as usize + 1].as_ref().unwrap();
                assert_eq!(degraded, &[(cell, 2, 2), (cell, 3, 2)], "{mode:?} cell {cell}");
                assert_eq!(*degraded_iters, 2, "{mode:?} cell {cell}");
                for (gen, slots) in seen {
                    // Rounds 2 and 3 carry the victim's round-1 snapshot.
                    let stale = if (2..4).contains(gen) { 1 } else { *gen };
                    let want = [*gen as f32, (100 + gen) as f32, (200 + stale) as f32];
                    assert_eq!(slots, &want, "{mode:?} cell {cell} generation {gen}");
                }
            }
            let (seen, degraded, degraded_iters) = results[3].as_ref().expect("the victim");
            assert!(
                degraded.is_empty() && *degraded_iters == 0,
                "{mode:?}: the victim journals"
            );
            for (gen, slots) in seen {
                let want = [*gen as f32, (100 + gen) as f32, (200 + gen) as f32];
                assert_eq!(slots, &want, "{mode:?} victim generation {gen}");
            }
        }
    }

    #[test]
    fn one_generation_moves_one_snapshot_per_read_neighbour_and_no_body() {
        // The exchange's traffic, counted at the transport: on a 3×3 and a
        // 1×2 grid, one sync generation delivers to each rank exactly one
        // exchange envelope per slot it reads other than its own, each
        // carrying one snapshot — never a multi-snapshot body.
        use lipiz_core::{CellEngine, Grid, Pipeline, TrainConfig};
        use lipiz_mpi::comm::Fabric;
        use lipiz_mpi::message::{Envelope, ReservedTags};
        use lipiz_mpi::Transport;
        use std::sync::Mutex;

        /// The in-process fabric, recording `(dst, payload length)` of
        /// every exchange envelope it delivers.
        #[derive(Debug)]
        struct Counting(std::sync::Arc<Fabric>, Mutex<Vec<(usize, usize)>>);
        impl Transport for Counting {
            fn world_size(&self) -> usize {
                self.0.world_size()
            }
            fn deliver(&self, dst: usize, env: Envelope) {
                if env.tag == ReservedTags::ALLGATHER {
                    self.1.lock().unwrap().push((dst, env.payload.len()));
                }
                self.0.deliver(dst, env);
            }
            fn mailbox(&self, r: usize) -> &lipiz_mpi::endpoint::Mailbox {
                self.0.mailbox(r)
            }
        }

        for (rows, cols) in [(3, 3), (1, 2)] {
            let mut cfg = TrainConfig::smoke(rows);
            cfg.grid.cols = cols;
            let grid = Grid::from_config(&cfg.grid);
            let cells = grid.cell_count();
            let mut rng = lipiz_tensor::Rng64::seed_from(cfg.training.data_seed);
            let data =
                rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9);
            let wire = CellEngine::new(0, &cfg, data.clone()).snapshot().wire_size();
            let counting =
                std::sync::Arc::new(Counting(Fabric::new(cells + 1), Mutex::default()));
            std::thread::scope(|s| {
                for rank in 0..=cells {
                    let (cfg, data, transport) = (&cfg, data.clone(), counting.clone());
                    s.spawn(move || {
                        let cm = CommManager::new(Comm::world(transport, rank));
                        if cm.is_master() {
                            return;
                        }
                        let engine = CellEngine::new(cm.local_rank(), cfg, data);
                        let mut pipeline =
                            Pipeline::new(cfg, vec![engine], Telemetry::disabled());
                        let mut ex = cm.exchange(ExchangeMode::Sync, None, pipeline.read_set());
                        pipeline.step(&mut ex);
                    });
                }
            });
            let delivered = counting.1.lock().unwrap();
            for cell in 0..cells {
                let mut reads = grid.neighbors(cell);
                reads.sort_unstable();
                reads.dedup();
                reads.retain(|&slot| slot != cell);
                let got: Vec<usize> =
                    delivered.iter().filter(|(dst, _)| *dst == cell + 1).map(|d| d.1).collect();
                assert_eq!(got, vec![wire; reads.len()], "{rows}x{cols} cell {cell}");
            }
            let per_generation: usize = delivered.iter().map(|d| d.1).sum();
            let readers: usize = (0..cells).map(|c| grid.overlapping(c).len() - 1).sum();
            assert_eq!(per_generation, readers * wire, "{rows}x{cols}: bytes on the wire");
        }
    }

    #[test]
    fn death_frame_is_fetched_slot_by_slot_from_the_neighbours() {
        // A 1×3 ring whose cell 2 is the replacement: it reads all three
        // slots. Slot 0 comes from cell 0, slot 1 from cell 1 — which has
        // not frozen its share yet when first asked — and the replacement's
        // own slot from cell 0's copy.
        use std::sync::atomic::{AtomicBool, Ordering};
        let done = AtomicBool::new(false);
        let results = Universe::run(4, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                return None;
            }
            let cell = cm.local_rank();
            if cell == 2 {
                let frame = cm.fetch_death_frame(&[0, 1, 2], Duration::from_secs(10));
                done.store(true, Ordering::Release);
                return frame;
            }
            let (share, nothing_yet) = (
                DegradedGather::new(3, 1).frozen_frame(),
                DegradedGather::new(3, 1).frozen_frame(),
            );
            share.lock()[cell] = Some(encode(&marked(cell, 1)));
            if cell == 0 {
                share.lock()[2] = Some(encode(&marked(2, 1)));
            }
            let start = Instant::now();
            while !done.load(Ordering::Acquire) {
                // Cell 1 answers "nothing frozen yet" for its first 60 ms.
                let early = cell == 1 && start.elapsed() < Duration::from_millis(60);
                while cm.serve_frozen_frame(if early { &nothing_yet } else { &share }) {}
                std::thread::sleep(Duration::from_millis(1));
            }
            None
        });
        let frame = results[3].as_ref().expect("the replacement's frame");
        let want: Vec<CellSnapshot> = (0..3).map(|c| marked(c, 1)).collect();
        assert_eq!(frame, &want);
    }

    #[test]
    fn frozen_frame_fetch_respects_its_deadline() {
        let results = Universe::run(3, |world| {
            let cm = CommManager::new(world);
            match cm.world_rank() {
                1 => {
                    // A neighbour slower than the replacement's budget: the
                    // first answer (not frozen yet) comes quickly, the
                    // second carries the slot but lands after the deadline
                    // — it must not be accepted.
                    for i in 0..2 {
                        let Some((slot, src)) = cm.world.recv_timeout::<usize>(
                            RecvFrom::Any,
                            tags::CACHE_REQ,
                            Duration::from_secs(5),
                        ) else {
                            break;
                        };
                        assert_eq!(slot, 0);
                        std::thread::sleep(Duration::from_millis(if i == 0 { 30 } else { 80 }));
                        let part = (i > 0).then(|| encode(&marked(0, 1)));
                        cm.world.send(src, tags::CACHE_RESP, &part);
                    }
                    None
                }
                2 => {
                    let start = Instant::now();
                    let got = cm.fetch_death_frame(&[0], Duration::from_millis(120));
                    let elapsed = start.elapsed();
                    assert!(got.is_none(), "accepted a slot that arrived after the deadline");
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
