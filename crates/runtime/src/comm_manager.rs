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
//! a rank reads are exactly the ranks that read it. `begin` posts the
//! rank's own frame slot — the buffer its engine encoded the snapshot into
//! — to each of them by reference count; `complete` receives their
//! contributions, validates each once (header and genome lengths, naming
//! the source rank and round when it refuses one) and puts a handle on the
//! buffer it arrived in into its frame slot. Nothing is decoded: the
//! engines import straight from those bytes. No rank relays another's
//! snapshot, none waits on a rank it does not read, and every slot outside
//! the read set stays `None` (README, "Where a snapshot byte is copied").
//!
//! Graceful degradation follows the same lines: every rank holds its own
//! [`DegradedGather`] for the peers it reads, substitutes a dead one from
//! its cache, and serves its share of the death-frame to the replacement.

use crate::protocol::{tags, NodeAnnouncement, RunTask, SlaveResult, StatusReport};
use lipiz_core::{CellSnapshot, EncodedSnapshot, Exchange, FrameSlot, GenomeLens, SnapshotRef};
use lipiz_mpi::{Comm, DegradedGather, FaultPlan, FrozenFrameHandle, Payload, RecvFrom};
use lipiz_telemetry::{EventKind, Telemetry, TelemetrySummary};
use std::sync::PoisonError;
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
    /// The snapshots [`CommManager::exchange_centers`] returns, decoded,
    /// recycled from call to call.
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
    /// all cells' snapshots in cell order, decoded into this manager's own
    /// buffers, which the next call refills in place. The same path as
    /// [`CommManager::exchange`] for a rank that reads the whole grid, with
    /// one decode added; every snapshot must carry the genome lengths of
    /// this rank's own.
    pub fn exchange_centers(&mut self, snapshot: &CellSnapshot) -> &[CellSnapshot] {
        let own_cell = self.local_rank();
        let every: Vec<usize> = (0..self.num_slaves()).collect();
        let lens = SnapshotRef::from(snapshot).genome_lens();
        let mut links = Links::new(self.local().clone(), &every, lens, None);
        let own = EncodedSnapshot::new(snapshot.into());
        links.post(own.payload(), 0);
        self.centers.resize_with(self.num_slaves(), CellSnapshot::empty);
        let centers = &mut self.centers;
        links.complete(own.payload(), 0, |src, part| centers[src].copy_from(&part));
        self.centers[own_cell].copy_from(snapshot);
        &self.centers
    }

    /// Slave: this rank's [`Exchange`] for the iteration pipeline, reading
    /// the frame slots `reads` (the pipeline's `Pipeline::read_set`) and no
    /// others — and, by the symmetry of the neighbourhood, posting to
    /// exactly the ranks behind them. Every snapshot received must carry
    /// genomes of `lens` (the run's, [`GenomeLens::of`]); one that does
    /// not, or does not parse, is refused on receipt. Sync and async runs
    /// share it: each generation is posted in `begin` and received in
    /// `complete`, both on the calling thread; under `--exchange async` the
    /// pipeline merely completes a generation one iteration later, by which
    /// time the transport has delivered it. `ctl` is this rank's
    /// degraded-gather controller, when graceful degradation is on (clone
    /// its frozen-frame handle *before* passing it in if another thread
    /// must keep serving death-frame requests).
    pub fn exchange(
        &self,
        ctl: Option<DegradedGather>,
        reads: &[usize],
        lens: GenomeLens,
    ) -> CommExchange {
        CommExchange {
            cell: self.local_rank() as u32,
            links: Links::new(self.local().clone(), reads, lens, ctl),
            pending: None,
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
        let part: Option<Payload> =
            frame.lock().unwrap_or_else(PoisonError::into_inner).get(slot).cloned().flatten();
        self.world.send(src, tags::CACHE_RESP, &part);
        true
    }

    /// Replacement slave: fetch the death-frame slots `reads` from the
    /// neighbours that froze them into a grid-sized frame, each slot the
    /// buffer it arrived in. Each slot comes from the rank it belongs to;
    /// the replacement's own slot (a one-row or one-column torus reads it)
    /// from another neighbour's cached copy. Each is re-requested until
    /// frozen; `None` once `timeout` passes — every wait is capped at the
    /// time remaining, so nothing that arrives after the deadline is
    /// accepted.
    ///
    /// # Panics
    /// Panics if the rank reads nothing but itself (a one-cell grid, which
    /// has no neighbour to hold its frame), or on a slot that does not parse.
    pub fn fetch_death_frame(
        &self,
        reads: &[usize],
        timeout: Duration,
    ) -> Option<Vec<FrameSlot>> {
        let own = self.local_rank();
        let deadline = Instant::now() + timeout;
        let mut frame = vec![None; self.num_slaves()];
        for &slot in reads {
            let holder = if slot != own {
                slot
            } else {
                *reads.iter().find(|&&r| r != own).expect("a neighbour holds the own slot")
            };
            let world = self.local().world_rank_of(holder);
            let part = self.fetch_frozen_slot(world, slot, deadline)?;
            let snap = EncodedSnapshot::parse(part).unwrap_or_else(|e| {
                panic!("death-frame slot {slot} from world rank {world} refused: {e}")
            });
            frame[slot] = Some(snap);
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

/// One rank's side of the exchange on LOCAL, with its degraded-gather
/// controller when graceful degradation is on.
#[derive(Debug)]
struct Links {
    comm: Comm,
    /// The slots read other than the rank's own — and so, the neighbourhood
    /// being symmetric, the ranks that read this one: whom it receives from
    /// and posts to.
    peers: Vec<usize>,
    /// The genome lengths every received snapshot must carry.
    lens: GenomeLens,
    ctl: Option<DegradedGather>,
}

impl Links {
    fn new(comm: Comm, reads: &[usize], lens: GenomeLens, ctl: Option<DegradedGather>) -> Self {
        let own = comm.rank();
        let peers = reads.iter().copied().filter(|&slot| slot != own).collect();
        Self { comm, peers, lens, ctl }
    }

    /// Post this rank's `part` of generation `round` to its readers.
    fn post(&self, part: &Payload, round: usize) {
        self.comm.exchange_post(&self.peers, part, round, self.ctl.as_ref());
    }

    /// Receive generation `round` from the peers and hand each part to
    /// `put(src, snapshot)` in the buffer it arrived in, validated once
    /// (see [`accept`]). `own` is this rank's part of the round.
    fn complete(
        &mut self,
        own: &Payload,
        round: usize,
        mut put: impl FnMut(usize, EncodedSnapshot),
    ) {
        let (comm, lens) = (&self.comm, self.lens);
        comm.exchange_complete(&self.peers, own, round, self.ctl.as_mut(), |src, part| {
            put(src, accept(comm, lens, src, round, part))
        });
    }

    /// The controller's per-rank consecutive-substitution counts after the
    /// round just completed (left empty without a controller).
    fn stale_runs_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if let Some(ctl) = &self.ctl {
            out.extend((0..self.comm.size()).map(|r| ctl.stale_run(r)));
        }
    }
}

/// LOCAL rank `src`'s part of `round`, validated once, on receipt: its
/// header must parse and cover the bytes exactly, and its genomes must be
/// `lens` long. A part that fails is refused loudly —
/// naming its source and round — and never reaches a frame slot, let alone
/// an import slot.
fn accept(
    comm: &Comm,
    lens: GenomeLens,
    src: usize,
    round: usize,
    part: Payload,
) -> EncodedSnapshot {
    let refuse = |why: String| -> ! {
        let world = comm.world_rank_of(src);
        panic!("snapshot from LOCAL rank {src} (world rank {world}) for round {round} refused: {why}")
    };
    let snap = EncodedSnapshot::parse(part).unwrap_or_else(|e| refuse(e.to_string()));
    let got = snap.view().genome_lens();
    if got != lens {
        refuse(format!("genome lengths {got:?}, the run's network needs {lens:?}"));
    }
    snap
}

/// The `Comm`-backed [`Exchange`] of one slave rank (see
/// [`CommManager::exchange`]), in both modes: `begin` posts the rank's own
/// frame slot to the ranks that read it, `complete` receives their
/// snapshots on the same (training) thread and puts a handle on each into
/// its frame slot. No snapshot is decoded or copied on the way, and no
/// slot outside the read set is ever filled.
///
/// At most one generation is in flight: `begin(g)`, then at most one
/// `complete(g)`, before `begin(g + 1)`. A post never waits for a reader,
/// and each reader's mailbox holds what it has not yet received, so a
/// generation begun and never completed — the last one of an async run —
/// leaves no peer waiting.
#[derive(Debug)]
pub struct CommExchange {
    /// This rank's cell, which its journal events name.
    cell: u32,
    links: Links,
    /// The generation begun and not yet completed, with the rank's own
    /// part of it.
    pending: Option<(usize, Payload)>,
    /// Per-rank stale-run counts after the generation just completed
    /// (empty on a rank without a controller).
    stale_runs: Vec<usize>,
    /// The same counts as of the generation before, so a round that
    /// substituted a rank's contribution journals who was absent.
    prev_stale: Vec<usize>,
}

impl Exchange for CommExchange {
    fn begin(&mut self, gen: usize, frame: &[FrameSlot], _costs: &[Duration]) {
        let own =
            frame[self.cell as usize].as_ref().expect("the rank's own snapshot is in its slot");
        let part = own.payload().clone();
        self.links.post(&part, gen);
        self.pending = Some((gen, part));
    }

    /// # Panics
    /// Panics unless `gen` is the generation in flight.
    fn complete(&mut self, gen: usize, frame: &mut [FrameSlot], tel: &mut Telemetry) {
        let Some((_, part)) = self.pending.take_if(|(begun, _)| *begun == gen) else {
            let in_flight = self.pending.as_ref().map(|(begun, _)| begun);
            panic!("complete({gen}) refused: the generation in flight is {in_flight:?}");
        };
        self.links.complete(&part, gen, |src, snap| frame[src] = Some(snap));
        self.links.stale_runs_into(&mut self.stale_runs);
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

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_core::{ExchangeMode, TrainConfig};
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
    fn one_generation_is_in_flight_and_a_complete_for_any_other_is_refused() {
        // The call order the pipeline makes under `--exchange async`: each
        // completed frame holds exactly its generation, from every cell.
        // Cell 0 begins generation 4 and never completes it, as a rank does
        // with the last generation of a run; its readers still complete it,
        // because the post went out in `begin`. And a `complete` for any
        // generation but the one in flight is refused.
        const LAST: usize = 4;
        let results = Universe::run(4, |world| {
            let cm = CommManager::new(world);
            if cm.is_master() {
                return None;
            }
            let cell = cm.local_rank();
            let mut ex = cm.exchange(None, &[0, 1, 2], MARKED);
            let mut tel = Telemetry::disabled();
            let mut completed: Vec<(usize, Vec<Option<f32>>)> = Vec::new();
            for gen in 0..=LAST {
                let mut frame = vec![None; 3];
                frame[cell] = slot(&marked(cell, gen));
                ex.begin(gen, &frame, &[]);
                if gen < LAST || cell != 0 {
                    // The exchange fills the read set and leaves the
                    // rank's own slot to the pipeline.
                    let mut frame = vec![None; 3];
                    ex.complete(gen, &mut frame, &mut tel);
                    completed.push((gen, firsts(&frame)));
                }
            }
            let mut refusal = |gen: usize| {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ex.complete(gen, &mut [None, None, None], &mut Telemetry::disabled());
                }))
                .expect_err("a generation not in flight is refused");
                refused.downcast_ref::<String>().cloned().unwrap_or_default()
            };
            // Cell 0 still has the last generation in flight; the others
            // have nothing in flight, and complete it a second time.
            let refusals = if cell == 0 {
                vec![refusal(LAST - 1), refusal(LAST + 1)]
            } else {
                vec![refusal(LAST)]
            };
            Some((completed, refusals))
        });
        for (rank, result) in results.iter().enumerate().skip(1) {
            let (completed, refusals) = result.as_ref().expect("a slave");
            let cell = rank - 1;
            let gens: Vec<usize> = completed.iter().map(|(gen, _)| *gen).collect();
            let want_gens: Vec<usize> = (0..=LAST).filter(|&g| g < LAST || cell != 0).collect();
            assert_eq!(gens, want_gens, "cell {cell}");
            for (gen, frame) in completed {
                let want: Vec<Option<f32>> =
                    (0..3).map(|c| (c != cell).then_some((c * 100 + gen) as f32)).collect();
                assert_eq!(frame, &want, "cell {cell} generation {gen}");
            }
            let want: Vec<String> = if cell == 0 {
                [LAST - 1, LAST + 1]
                    .map(|g| {
                        format!("complete({g}) refused: the generation in flight is Some(4)")
                    })
                    .to_vec()
            } else {
                vec![format!("complete({LAST}) refused: the generation in flight is None")]
            };
            assert_eq!(refusals, &want, "cell {cell}");
        }
    }

    #[test]
    fn exchange_frames_hold_exactly_the_read_set_on_a_4x4_grid() {
        // Sixteen one-cell ranks, three pipeline steps each. Every frame a
        // rank owns holds a snapshot in the four slots its cell reads, its
        // own posted one besides, and nothing of the other eleven cells —
        // and holds it as a handle: each read slot is the very buffer its
        // sender encoded into and posted (the same allocation, on the
        // in-process fabric), so no frame owns a genome byte of its own.
        use lipiz_core::{CellEngine, Grid, Pipeline};
        for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
            let mut cfg = TrainConfig::smoke(4).with_exchange(mode);
            // Wide enough that one snapshot outweighs a table of 16 handles.
            cfg.network.hidden_units = 64;
            let grid = Grid::from_config(&cfg.grid);
            let mut rng = lipiz_tensor::Rng64::seed_from(cfg.training.data_seed);
            let (rows, cols) = (cfg.training.dataset_size, cfg.network.data_dim);
            let data = rng.uniform_matrix(rows, cols, -0.9, 0.9);
            let results = Universe::run(17, |world| {
                let cm = CommManager::new(world);
                if cm.is_master() {
                    return None;
                }
                let engine = CellEngine::new(cm.local_rank(), &cfg, data.clone());
                let mut pipeline = Pipeline::new(&cfg, vec![engine], Telemetry::disabled());
                let lens = GenomeLens::of(&cfg);
                let mut ex = cm.exchange(None, pipeline.read_set(), lens);
                for _ in 0..3 {
                    pipeline.step(&mut ex);
                }
                // The frames as the pipeline holds them — sync: generation
                // 2; async: generation 1 consumed, and generation 2 begun
                // and (completed here, as the next step would) in flight.
                let [cur, prev] = pipeline.frames().map(<[FrameSlot]>::to_vec);
                let mut next = prev;
                if mode.is_async() {
                    ex.complete(2, &mut next, &mut Telemetry::disabled());
                }
                Some([cur, next])
            });
            let frames = |cell: usize| results[cell + 1].as_ref().expect("slave");
            let snapshot_bytes = frames(0)[0][0].as_ref().expect("own slot").wire_size();
            for cell in 0..16 {
                let mut reads = grid.neighbors(cell);
                reads.sort_unstable();
                assert_eq!(reads.len(), 4, "4×4 Cross5 has four distinct neighbours");
                let complete =
                    if mode.is_async() { &frames(cell)[..] } else { &frames(cell)[..1] };
                for (f, frame) in complete.iter().enumerate() {
                    let held: Vec<usize> =
                        (0..frame.len()).filter(|&s| frame[s].is_some() && s != cell).collect();
                    assert_eq!(held, reads, "cell {cell} {mode:?} frame {f}");
                    for &slot in &reads {
                        let (mine, senders) = (&frame[slot], &frames(slot)[f][slot]);
                        let ptr =
                            |s: &FrameSlot| s.as_ref().expect("filled").payload().as_ptr();
                        assert_eq!(
                            ptr(mine),
                            ptr(senders),
                            "cell {cell} {mode:?}: slot {slot} is not its sender's buffer"
                        );
                    }
                    // What the frame itself owns is its table of handles:
                    // less than one snapshot, let alone five.
                    let owned = frame.capacity() * std::mem::size_of::<FrameSlot>();
                    assert!(owned < snapshot_bytes, "cell {cell} {mode:?}: {owned} B frame");
                }
            }
        }
    }

    /// The genome lengths of every [`marked`] snapshot.
    const MARKED: GenomeLens = GenomeLens { gen: 1, disc: 2 };

    /// A tiny snapshot of `cell` at generation `gen`, its one generator
    /// float `cell * 100 + gen`.
    fn marked(cell: usize, gen: usize) -> CellSnapshot {
        let mut snap = CellSnapshot::empty();
        snap.cell = cell;
        snap.gen_genome = vec![(cell * 100 + gen) as f32];
        snap.disc_genome = vec![-(gen as f32); MARKED.disc];
        snap
    }

    /// `snap` as a frame slot holds it.
    fn slot(snap: &CellSnapshot) -> FrameSlot {
        Some(EncodedSnapshot::new(snap.into()))
    }

    /// `snap` as the exchange posts it.
    fn payload(snap: &CellSnapshot) -> Payload {
        EncodedSnapshot::new(snap.into()).payload().clone()
    }

    /// Each slot's first generator float (`None` for an empty slot).
    fn firsts(frame: &[FrameSlot]) -> Vec<Option<f32>> {
        let first = |s: &EncodedSnapshot| {
            let mut snap = CellSnapshot::empty();
            snap.copy_from(s);
            snap.gen_genome[0]
        };
        frame.iter().map(|s| s.as_ref().map(first)).collect()
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
        // absent rank. Under async the rejoiner's first round consumes the
        // death-frame, so it completes nothing before posting round 4; and
        // its readers complete round 4 — their rendezvous with it — before
        // they post round 5, or the rejoiner would wait for round 5 forever.
        const ROUNDS: usize = 6;
        /// Every rank reads every slot here.
        const ALL: &[usize] = &[0, 1, 2];
        /// Drive `ex` through `rounds` in the pipeline's call order, the
        /// last generation drained as at a commit boundary; returns
        /// `(gen, slot values)` of every completed frame.
        fn drive(
            ex: &mut CommExchange,
            mode: ExchangeMode,
            cell: usize,
            rounds: std::ops::Range<usize>,
            tel: &mut Telemetry,
        ) -> Vec<(usize, Vec<Option<f32>>)> {
            // One frame per generation, as the pipeline begins and then
            // completes it.
            let first = rounds.start;
            let mut frames: Vec<Vec<FrameSlot>> = Vec::new();
            let mut seen = Vec::new();
            let mut complete = |ex: &mut CommExchange, frames: &mut [Vec<FrameSlot>], g| {
                let frame = &mut frames[g - first];
                ex.complete(g, frame, tel);
                seen.push((g, firsts(frame)));
            };
            for gen in rounds.clone() {
                // The bootstrap round 0 is completed inline, so round 1
                // finds nothing in flight.
                if mode.is_async() && gen > first.max(1) {
                    complete(ex, &mut frames, gen - 1);
                }
                let mut frame = vec![None; 3];
                frame[cell] = slot(&marked(cell, gen));
                ex.begin(gen, &frame, &[]);
                frames.push(frame);
                if !mode.is_async() || gen == 0 {
                    complete(ex, &mut frames, gen);
                }
            }
            if mode.is_async() {
                complete(ex, &mut frames, rounds.end - 1);
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
                    let mut ex = cm.exchange(Some(ctl), ALL, MARKED);
                    drive(&mut ex, mode, cell, 0..ROUNDS, &mut tel)
                } else {
                    let mut ex = cm.exchange(None, ALL, MARKED);
                    let mut seen = drive(&mut ex, mode, cell, 0..2, &mut tel);
                    let mut ex = cm.exchange(None, ALL, MARKED);
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
            let gens = |seen: &[(usize, Vec<Option<f32>>)]| -> Vec<usize> {
                seen.iter().map(|(gen, _)| *gen).collect()
            };
            for cell in 0..2u32 {
                let (seen, degraded, degraded_iters) =
                    results[cell as usize + 1].as_ref().unwrap();
                assert_eq!(gens(seen), (0..ROUNDS).collect::<Vec<_>>(), "{mode:?} cell {cell}");
                assert_eq!(degraded, &[(cell, 2, 2), (cell, 3, 2)], "{mode:?} cell {cell}");
                assert_eq!(*degraded_iters, 2, "{mode:?} cell {cell}");
                for (gen, slots) in seen {
                    // Rounds 2 and 3 carry the victim's round-1 snapshot.
                    let stale = if (2..4).contains(gen) { 1 } else { *gen };
                    let want = [*gen, 100 + gen, 200 + stale].map(|v| Some(v as f32));
                    assert_eq!(slots, &want, "{mode:?} cell {cell} generation {gen}");
                }
            }
            let (seen, degraded, degraded_iters) = results[3].as_ref().expect("the victim");
            assert_eq!(gens(seen), [0, 1, 4, 5], "{mode:?} victim");
            assert!(
                degraded.is_empty() && *degraded_iters == 0,
                "{mode:?}: the victim journals"
            );
            for (gen, slots) in seen {
                let want = [*gen, 100 + gen, 200 + gen].map(|v| Some(v as f32));
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
                        let lens = GenomeLens::of(cfg);
                        let mut ex = cm.exchange(None, pipeline.read_set(), lens);
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
    fn a_malformed_or_mis_sized_snapshot_is_refused_on_receipt_naming_its_source() {
        // LOCAL rank 1 (world rank 2) posts its part of round 3 to LOCAL
        // rank 0, which reads it: a truncated snapshot, one with a trailing
        // byte, and a well-formed one whose genomes are not the run's. Each
        // is refused in `complete`, naming the source and the round, and
        // the slot it was meant for stays empty.
        let good = payload(&marked(1, 3)).to_vec();
        let mut long_disc = marked(1, 3);
        long_disc.disc_genome.push(0.5);
        let cases = [
            (good[..good.len() / 2].to_vec(), "wire decode error"),
            ([&good[..], &[0]].concat(), "wire decode error: trailing bytes"),
            (payload(&long_disc).to_vec(), "genome lengths GenomeLens { gen: 1, disc: 3 }"),
        ];
        for (bad, why) in cases {
            let results = Universe::run(3, |world| {
                let cm = CommManager::new(world);
                match cm.world_rank() {
                    0 => None,
                    2 => {
                        cm.local().exchange_post(&[0], &Payload::from(&bad), 3, None);
                        None
                    }
                    _ => {
                        let mut ex = cm.exchange(None, &[0, 1], MARKED);
                        let mut frame = vec![slot(&marked(0, 3)), None];
                        let refused =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                ex.begin(3, &frame, &[]);
                                ex.complete(3, &mut frame, &mut Telemetry::disabled());
                            }))
                            .expect_err("a malformed part is refused");
                        let msg = refused.downcast_ref::<String>().cloned().unwrap_or_default();
                        Some((msg, frame[1].is_none()))
                    }
                }
            });
            let (msg, empty) = results[1].as_ref().expect("the reader");
            assert!(
                msg.starts_with(
                    "snapshot from LOCAL rank 1 (world rank 2) for round 3 refused: "
                ) && msg.contains(why),
                "{msg}"
            );
            assert!(empty, "a refused part reached its frame slot");
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
            share.lock().unwrap()[cell] = Some(payload(&marked(cell, 1)));
            if cell == 0 {
                share.lock().unwrap()[2] = Some(payload(&marked(2, 1)));
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
        let want: Vec<FrameSlot> = (0..3).map(|c| slot(&marked(c, 1))).collect();
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
                        let part = (i > 0).then(|| payload(&marked(0, 1)));
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
