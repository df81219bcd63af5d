//! Communicators: point-to-point messaging, the neighbour exchange, and
//! collectives.

use crate::endpoint::Mailbox;
use crate::fault::{DeliveryFate, FaultPlan, FaultState};
use crate::message::{Envelope, Payload, ReservedTags, Tag};
use crate::transport::Transport;
use crate::wire::{sequence_len, Wire, WireError};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Shared handle to a rank's share of a frozen death-frame (see
/// [`DegradedGather::frozen_frame`]): one slot per group rank, holding a
/// payload where this rank froze one — its own contribution and its cached
/// copy of the victim's, once a planned absence window has opened.
pub type FrozenFrameHandle = Arc<Mutex<Vec<Option<Payload>>>>;

/// The in-process delivery fabric: one mailbox per world rank, delivery is
/// a queue push. The reference [`Transport`] implementation.
#[derive(Debug)]
pub struct Fabric {
    mailboxes: Vec<Arc<Mailbox>>,
    faults: OnceLock<FaultState>,
}

impl Fabric {
    /// Build a fabric for `n` world ranks.
    pub fn new(n: usize) -> Arc<Self> {
        Self::with_faults(n, FaultPlan::new())
    }

    /// Build a fabric for `n` world ranks running under a fault plan. An
    /// empty plan is identical to [`Fabric::new`].
    pub fn with_faults(n: usize, plan: FaultPlan) -> Arc<Self> {
        let fabric = Self {
            mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
            faults: OnceLock::new(),
        };
        if !plan.is_empty() {
            let _ = fabric.faults.set(FaultState::new(plan, n));
        }
        Arc::new(fabric)
    }
}

impl Transport for Fabric {
    fn world_size(&self) -> usize {
        self.mailboxes.len()
    }

    fn deliver(&self, dst: usize, env: Envelope) {
        self.mailboxes[dst].deliver(env);
    }

    fn mailbox(&self, r: usize) -> &Mailbox {
        &self.mailboxes[r]
    }

    fn fault_state(&self) -> Option<&FaultState> {
        self.faults.get()
    }

    fn install_fault_plan(&self, plan: FaultPlan) {
        if !plan.is_empty() {
            let _ = self.faults.set(FaultState::new(plan, self.world_size()));
        }
    }

    fn note_severed(&self, dst_world: usize, src_world: usize) {
        // Mirror a torn connection: the receiver's blocked waits on the
        // severed peer must fail as PeerLost, like a TCP reader would cause.
        self.mailboxes[dst_world].mark_peer_dead(src_world);
    }
}

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvFrom {
    /// Receive from any rank in the communicator (MPI_ANY_SOURCE).
    Any,
    /// Receive from the given group rank only.
    Rank(usize),
}

impl RecvFrom {
    fn as_option(self) -> Option<usize> {
        match self {
            RecvFrom::Any => None,
            RecvFrom::Rank(r) => Some(r),
        }
    }
}

/// A communication context over a group of ranks.
///
/// Clones share the same context (safe to hand to other threads of the same
/// rank, e.g. the slave's execution thread). Collectives must be called by
/// *every* member of the group in the same order, and must not be invoked
/// concurrently on the same communicator from two threads of one rank —
/// identical to the MPI rules.
#[derive(Debug, Clone)]
pub struct Comm {
    transport: Arc<dyn Transport>,
    context: u16,
    /// Group rank -> world rank.
    group: Arc<Vec<usize>>,
    my_rank: usize,
    /// Deterministic context-id allocator for subgroup creation.
    next_context: u16,
}

#[allow(clippy::needless_range_loop)] // loop indices are group ranks, not positions
impl Comm {
    /// The world communicator for `rank` over any [`Transport`] — the
    /// in-process [`Fabric`] or a socket transport like
    /// [`crate::tcp::TcpFabric`].
    pub fn world(transport: Arc<dyn Transport>, rank: usize) -> Self {
        let n = transport.world_size();
        assert!(rank < n, "rank out of range");
        Self {
            transport,
            context: 0,
            group: Arc::new((0..n).collect()),
            my_rank: rank,
            next_context: 1,
        }
    }

    /// My rank within this communicator's group.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This communicator's context id (diagnostics).
    pub fn context(&self) -> u16 {
        self.context
    }

    /// World rank of group rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.group[r]
    }

    /// Create a sub-communicator from `members` (ranks of *this* group, in
    /// the order they will be ranked in the new group).
    ///
    /// Every member of `self` must call `subgroup` with the identical list
    /// and in the same creation order (the MPI_Comm_create contract); ranks
    /// not in the list receive `None`. Create subgroups before cloning the
    /// communicator into helper threads so the deterministic context-id
    /// allocator stays aligned across ranks.
    pub fn subgroup(&mut self, members: &[usize]) -> Option<Comm> {
        let ctx = self.alloc_context();
        let pos = members.iter().position(|&m| m == self.my_rank)?;
        let group: Vec<usize> = members.iter().map(|&m| self.group[m]).collect();
        Some(Comm {
            transport: Arc::clone(&self.transport),
            context: ctx,
            group: Arc::new(group),
            my_rank: pos,
            next_context: 1,
        })
    }

    fn alloc_context(&mut self) -> u16 {
        // Derive child contexts deterministically from the parent context:
        // parent 0 hands out 1,2,3...; a nested split from context c hands
        // out c*64+1, c*64+2, ... — collision-free for our shallow trees.
        let ctx = self.context.wrapping_mul(64).wrapping_add(self.next_context);
        self.next_context += 1;
        ctx
    }

    // ---- point-to-point -------------------------------------------------

    /// Send `value` to group rank `dst` with `tag`.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` is in the reserved space.
    pub fn send<T: Wire>(&self, dst: usize, tag: Tag, value: &T) {
        assert!(tag < ReservedTags::RESERVED_BASE, "tag in reserved space");
        self.send_raw(dst, tag, value.to_bytes());
    }

    fn send_raw(&self, dst: usize, tag: Tag, payload: impl Into<Payload>) {
        let world_dst = self.group[dst];
        if let Some(faults) = self.transport.fault_state() {
            let world_src = self.group[self.my_rank];
            match faults.outgoing(world_src, world_dst, tag) {
                DeliveryFate::Drop => {
                    if faults.plan().severed(world_src, world_dst, faults.clock(world_src)) {
                        self.transport.note_severed(world_dst, world_src);
                    }
                    return;
                }
                // A scripted delay stretches the sender's wall time but
                // never reorders per-(src, tag) FIFO delivery, so results
                // are unchanged in synchronous mode.
                DeliveryFate::Delay(d) => std::thread::sleep(d),
                DeliveryFate::Deliver => {}
            }
        }
        let env =
            Envelope { context: self.context, src: self.my_rank, tag, payload: payload.into() };
        self.transport.deliver(world_dst, env);
    }

    /// Blocking receive; returns `(value, source group rank)`.
    ///
    /// # Panics
    /// Panics if the payload fails to decode as `T` (a protocol bug, not a
    /// runtime condition), or — on multi-process transports — if the
    /// awaited peer's connection dies with nothing matching queued: a rank
    /// whose counterpart is gone can never be satisfied, so it fails loudly
    /// instead of hanging the process forever (the elastic-recovery story
    /// needs doomed ranks to *exit*, not wedge).
    pub fn recv<T: Wire>(&self, src: RecvFrom, tag: Tag) -> (T, usize) {
        let env = match src {
            RecvFrom::Any => self.my_mailbox().recv(self.context, None, tag),
            RecvFrom::Rank(r) => self.recv_live(r, tag),
        };
        let value = T::from_bytes(&env.payload).expect("wire protocol mismatch");
        (value, env.src)
    }

    /// Untimed receive from group rank `src`, bounded by the peer's
    /// connection liveness (see [`Comm::recv`] on why death must panic).
    fn recv_live(&self, src: usize, tag: Tag) -> crate::message::Envelope {
        self.my_mailbox()
            .recv_from_live(self.context, Some(src), tag, Some(self.group[src]))
            .unwrap_or_else(|e| {
                panic!("rank {} (context {}) receive failed: {e}", self.my_rank, self.context)
            })
    }

    /// Receive with a timeout; `None` if the deadline passes.
    pub fn recv_timeout<T: Wire>(
        &self,
        src: RecvFrom,
        tag: Tag,
        timeout: Duration,
    ) -> Option<(T, usize)> {
        let env =
            self.my_mailbox().recv_timeout(self.context, src.as_option(), tag, timeout)?;
        let value = T::from_bytes(&env.payload).expect("wire protocol mismatch");
        Some((value, env.src))
    }

    /// Non-blocking probe for a matching message.
    pub fn probe(&self, src: RecvFrom, tag: Tag) -> bool {
        self.my_mailbox().probe(self.context, src.as_option(), tag)
    }

    /// Is group rank `r`'s transport connection known to be gone? (On the
    /// in-process fabric: has its thread panicked, or a scripted sever cut
    /// the link.) Lets a caller that abandoned a collective name the
    /// *actual* casualty instead of guessing from the pending set.
    pub fn peer_connection_dead(&self, r: usize) -> bool {
        self.my_mailbox().peer_is_dead(self.group[r])
    }

    fn my_mailbox(&self) -> &Mailbox {
        self.transport.mailbox(self.group[self.my_rank])
    }

    // ---- collectives ----------------------------------------------------

    /// Barrier: returns once every rank of the group has entered.
    ///
    /// All collective fan-ins receive from each source *individually* (in
    /// rank order) rather than from-any: non-root contributions are
    /// fire-and-forget, so a fast rank may already have sent its next
    /// collective's contribution — per-(src, tag) FIFO matching keeps the
    /// two collectives separated.
    pub fn barrier(&self) {
        // Flat fan-in to rank 0, then fan-out.
        if self.my_rank == 0 {
            for src in 1..self.size() {
                let _ = self.recv_live(src, ReservedTags::BARRIER);
            }
            for r in 1..self.size() {
                self.send_raw(r, ReservedTags::BARRIER, vec![]);
            }
        } else {
            self.send_raw(0, ReservedTags::BARRIER, vec![]);
            let _ = self.recv_live(0, ReservedTags::BARRIER);
        }
    }

    /// Gather one value per rank at `root` (group-rank order). Non-roots get
    /// `None`.
    ///
    /// # Panics
    /// Panics on the root if a contributor's connection dies with nothing
    /// from it queued (see [`Comm::recv`] on why death must panic).
    pub fn gather<T: Wire>(&self, root: usize, value: &T) -> Option<Vec<T>> {
        let lost = |pending: &[usize]| pending.iter().any(|&r| self.peer_connection_dead(r));
        self.gather_abortable(root, value, Duration::from_millis(25), &lost).unwrap_or_else(
            |pending| {
                panic!(
                    "rank {} (context {}) gather failed: a connection was lost with group \
                     ranks {pending:?} still to contribute",
                    self.my_rank, self.context
                )
            },
        )
    }

    /// [`Comm::gather`] whose *root side* can be abandoned: sources are
    /// drained with `poll`-long bounded waits, and `should_abort` is
    /// checked between polls **with the still-pending group ranks, each
    /// re-probed empty** — so a caller can ignore a stale verdict about a
    /// rank whose contribution already arrived (e.g. a slave that finished,
    /// delivered, and went quiet or closed its connection). Non-roots behave exactly like `gather` (their contribution
    /// is fire-and-forget), so the two are wire-compatible — a master may
    /// collect abortably while slaves call plain `gather`.
    ///
    /// Returns `Ok(None)` on non-roots, `Ok(Some(values))` on a completed
    /// root gather, and `Err(pending)` — the group ranks not yet received —
    /// when the root aborted. The runtime uses this for the final result
    /// gather so a dead slave (declared by the heartbeat deadline) aborts
    /// the collection instead of wedging the master forever.
    pub fn gather_abortable<T: Wire>(
        &self,
        root: usize,
        value: &T,
        poll: Duration,
        should_abort: &dyn Fn(&[usize]) -> bool,
    ) -> Result<Option<Vec<T>>, Vec<usize>> {
        if self.my_rank != root {
            self.send_raw(root, ReservedTags::GATHER, value.to_bytes());
            return Ok(None);
        }
        let mut slots: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        slots[root] = Some(T::from_bytes(&value.to_bytes()).expect("self gather"));
        let mut pending: Vec<usize> = (0..self.size()).filter(|&r| r != root).collect();
        let queued =
            |src: usize| self.my_mailbox().probe(self.context, Some(src), ReservedTags::GATHER);
        while !pending.is_empty() {
            // Drain whatever is queued from any pending source, until a
            // pass receives nothing: decoding one rank's (multi-megabyte)
            // contribution takes long enough for an earlier rank's to land.
            loop {
                let before = pending.len();
                pending.retain(|&src| {
                    match self.my_mailbox().recv_timeout(
                        self.context,
                        Some(src),
                        ReservedTags::GATHER,
                        Duration::ZERO,
                    ) {
                        Some(env) => {
                            slots[src] =
                                Some(T::from_bytes(&env.payload).expect("gather decode"));
                            false
                        }
                        None => true,
                    }
                });
                if pending.len() == before {
                    break;
                }
            }
            if pending.is_empty() {
                break;
            }
            // The predicate judges only ranks with nothing queued *now* — a
            // rank that delivered and then closed its connection is done,
            // not dead — and an abort verdict stands only if they are still
            // empty afterwards: a transport delivers a peer's last message
            // before it marks the peer dead, so whatever the predicate saw
            // dead has then provably sent nothing. Whether a dead pending
            // rank dooms the gather stays the caller's call (an elastic
            // master may be bringing a replacement onto that very rank).
            if pending.iter().any(|&src| queued(src)) {
                continue;
            }
            if should_abort(&pending) && !pending.iter().any(|&src| queued(src)) {
                return Err(pending);
            }
            // Block on the *first* pending source for the poll interval —
            // any delivery wakes the mailbox, so this is a bounded nap, not
            // a scheduling commitment to that source.
            if let Some(env) = self.my_mailbox().recv_timeout(
                self.context,
                Some(pending[0]),
                ReservedTags::GATHER,
                poll,
            ) {
                let src = pending[0];
                slots[src] = Some(T::from_bytes(&env.payload).expect("gather decode"));
                pending.retain(|&r| r != src);
            }
        }
        Ok(Some(slots.into_iter().map(|s| s.expect("gather slot")).collect()))
    }

    // ---- neighbour exchange ----------------------------------------------

    /// Post `part` — this rank's contribution to exchange round `round` —
    /// to each group rank in `readers`: the §III-D "gather operations
    /// performed between slaves", which involve no rank that does not read
    /// this one. Every reader gets the same buffer: by reference count on
    /// the in-process fabric, as the payload of one vectored write per link
    /// on a socket.
    ///
    /// Under a controller a reader that is not live this round is skipped:
    /// one inside an absence window is not listening, and one rejoining at
    /// this round is posted to by [`Comm::exchange_complete`] only once its
    /// own contribution has arrived — on a socket transport that arrival
    /// proves the replacement's link is swapped in, and a send before the
    /// swap would be lost.
    pub fn exchange_post(
        &self,
        readers: &[usize],
        part: &Payload,
        round: usize,
        ctl: Option<&DegradedGather>,
    ) {
        for &r in readers {
            if ctl.is_none_or(|ctl| ctl.availability(r, round) == Availability::Live) {
                self.send_raw(r, ReservedTags::ALLGATHER, part.clone());
            }
        }
    }

    /// Receive round `round` from each group rank in `sources`, in order,
    /// handing each contribution — the buffer it arrived in — to
    /// `take(src, part)`. `own` is this rank's part of the round, as
    /// [`Comm::exchange_post`] sent it. Per-(src, tag) FIFO delivery keeps
    /// rounds paired: a rank completes each round it posted, in order,
    /// before posting the next — or never, for the last one it posts.
    ///
    /// Without a controller a source whose connection dies with nothing
    /// queued fails the call loudly (see [`Comm::recv`]). With one, the rank
    /// degrades gracefully instead; for each round (strictly increasing):
    ///
    /// * a source inside a **planned absence window** (scripted by a
    ///   [`crate::fault::FaultPlan`] kill) is never awaited: its part is
    ///   substituted from the controller's cache of its last contribution.
    ///   Substitution is plan-driven, not timing-driven, so a degraded run
    ///   is a pure function of (seed, plan).
    /// * at a planned window's end the rank blocks — up to 90 s — for the
    ///   replacement's contribution, then posts `own` to it and treats it
    ///   as live again.
    /// * an **unplanned** death (connection gone, nothing queued) degrades
    ///   the same way, bounded by `max_stale` consecutive substitutions
    ///   before the rank escalates with a panic naming the world rank.
    ///   Queued pre-death contributions always drain first, preserving
    ///   round pairing; an alive-but-slow peer is never substituted.
    ///
    /// The controller also caches `own`, and the round a planned window
    /// opens it first freezes this rank's share of the death-frame. A
    /// fault-free round takes exactly what a plain receive would, which
    /// keeps an armed run byte-identical to an unarmed one.
    pub fn exchange_complete(
        &self,
        sources: &[usize],
        own: &Payload,
        round: usize,
        mut ctl: Option<&mut DegradedGather>,
        mut take: impl FnMut(usize, Payload),
    ) {
        if let Some(ctl) = ctl.as_deref_mut() {
            assert_eq!(ctl.cache.len(), self.size(), "DegradedGather sized for another group");
            ctl.open_round(self.my_rank, own, round);
        }
        for &src in sources {
            let part = match ctl.as_deref_mut() {
                None => self.recv_live(src, ReservedTags::ALLGATHER).payload,
                Some(ctl) => self.recv_degraded(src, round, own, ctl),
            };
            take(src, part);
        }
    }

    /// `src`'s contribution for `round`, received or substituted as the
    /// controller's absence bookkeeping dictates.
    fn recv_degraded(
        &self,
        src: usize,
        round: usize,
        own: &Payload,
        ctl: &mut DegradedGather,
    ) -> Payload {
        let world = self.group[src];
        let part = match ctl.availability(src, round) {
            // A dead peer's queued contributions drain first: only a
            // connection gone with nothing queued is a death.
            Availability::Live => self.poll_part(src, || {
                self.peer_connection_dead(src)
                    && !self.probe(RecvFrom::Rank(src), ReservedTags::ALLGATHER)
            }),
            Availability::Absent => None,
            // Polling the raw mailbox, a dead flag left set until the link
            // swap cannot misfire as `PeerLost`.
            Availability::Rejoining => {
                let give_up = Instant::now() + REJOIN_DEADLINE;
                let Some(part) = self.poll_part(src, || Instant::now() >= give_up) else {
                    panic!(
                        "replacement for world rank {world} missed the rejoin rendezvous at \
                         round {round}"
                    )
                };
                self.send_raw(src, ReservedTags::ALLGATHER, own.clone());
                Some(part)
            }
        };
        let Some(part) = part else {
            ctl.note_stale(src, world, round);
            return ctl.cache[src].clone().unwrap_or_else(|| {
                panic!(
                    "world rank {world} went missing at round {round} with no cached \
                     snapshot to substitute"
                )
            });
        };
        ctl.note_live(src, round);
        ctl.cache[src] = Some(part.clone());
        part
    }

    /// `src`'s next exchange contribution, polled for until it arrives or
    /// `give_up` says it never will.
    fn poll_part(&self, src: usize, give_up: impl Fn() -> bool) -> Option<Payload> {
        let poll = Duration::from_millis(25);
        loop {
            let mailbox = self.my_mailbox();
            if let Some(env) =
                mailbox.recv_timeout(self.context, Some(src), ReservedTags::ALLGATHER, poll)
            {
                return Some(env.payload);
            }
            if give_up() {
                return None;
            }
        }
    }

    // ---- allgather ---------------------------------------------------------

    /// Allgather: every rank receives all ranks' payloads in group-rank
    /// order, each a slice of one broadcast body that group rank 0
    /// assembles. The runtime exchanges snapshots with its neighbours
    /// instead ([`Comm::exchange_post`]); this collective and its split
    /// halves remain for the benchmark's `mpi.allgather_*` probes. It uses
    /// the exchange's reserved tag, so the two must not be mixed on one
    /// communicator.
    pub fn allgather_bytes(&self, payload: impl Into<Payload>) -> Vec<Payload> {
        let pending = self.allgather_bytes_split(payload);
        self.allgather_bytes_complete(pending)
    }

    /// The non-blocking *begin* half of a split allgather: a non-root posts
    /// its contribution toward group rank 0 and returns immediately; the
    /// root stashes its own contribution. At most one split allgather may
    /// be outstanding per rank, but the complete half may run on another
    /// thread of the rank holding a cloned `Comm`: per-(src, tag) FIFO
    /// matching keeps a begin posted for generation `i` from crossing a
    /// complete still draining generation `i-1`.
    pub fn allgather_bytes_split(&self, payload: impl Into<Payload>) -> PendingAllgather {
        if self.my_rank == 0 {
            PendingAllgather { payload: Some(payload.into()) }
        } else {
            self.send_raw(0, ReservedTags::ALLGATHER, payload);
            PendingAllgather { payload: None }
        }
    }

    /// The blocking *complete* half of a split allgather: the root drains
    /// every contribution, copies each once into the broadcast body and
    /// hands that one buffer to every other rank; every rank gets its parts
    /// back as slices of the body, which therefore lives until the last
    /// rank has dropped them.
    pub fn allgather_bytes_complete(&self, pending: PendingAllgather) -> Vec<Payload> {
        if self.my_rank != 0 {
            let env = self.recv_live(0, ReservedTags::ALLGATHER);
            return split_parts(&env.payload).expect("allgather parts");
        }
        let mut parts: Vec<Payload> = Vec::with_capacity(self.size());
        parts.push(pending.payload.expect("the root stashed its own part at begin"));
        for src in 1..self.size() {
            parts.push(self.recv_live(src, ReservedTags::ALLGATHER).payload);
        }
        let mut body = Vec::with_capacity(4 + parts.iter().map(|p| 4 + p.len()).sum::<usize>());
        parts.encode(&mut body);
        let body = Payload::from(body);
        for r in 1..self.size() {
            self.send_raw(r, ReservedTags::ALLGATHER, body.clone());
        }
        split_parts(&body).expect("the root's own body")
    }

    // ---- fault injection -------------------------------------------------

    /// Install a fault plan on the underlying transport, when none was
    /// installed at construction. Multi-process ranks learn their plan from
    /// the wire configuration *after* the transport exists, so this is how
    /// the runtime arms sever/delay/blackhole enforcement there; an empty
    /// plan or an already-armed transport is a no-op.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.transport.install_fault_plan(plan);
    }

    /// Advance this rank's fault-plan logical clock to `iter` (no-op on a
    /// fault-free transport). The training loop calls this once per
    /// iteration so scripted `@iteration` windows fire deterministically.
    pub fn tick_fault_clock(&self, iter: usize) {
        if let Some(faults) = self.transport.fault_state() {
            faults.tick(self.group[self.my_rank], iter);
        }
    }
}

/// The stashed local half of an in-flight split allgather: created by
/// [`Comm::allgather_bytes_split`], consumed by
/// [`Comm::allgather_bytes_complete`]. Carries no borrow of the
/// communicator, so it can cross to another thread of the same rank
/// together with a cloned `Comm`.
#[derive(Debug)]
#[must_use = "an in-flight split allgather must be completed"]
pub struct PendingAllgather {
    /// The root's own contribution (`None` on non-root ranks, whose
    /// contribution was already posted to the root at begin).
    payload: Option<Payload>,
}

/// The parts of an allgather broadcast body — `Vec<Payload>` on the wire —
/// as slices of `body`: no part is copied out. Refuses what
/// `Vec::<Vec<u8>>::from_bytes` refuses (a count or a part length the
/// remaining bytes cannot back, a truncated prefix, trailing bytes), and
/// sizes its table by the bytes that are there, not by the count claimed.
fn split_parts(body: &Payload) -> Result<Vec<Payload>, WireError> {
    let mut buf: &[u8] = body;
    // Every part needs at least its own 4-byte length prefix.
    let count = sequence_len(&mut buf, 4)?;
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        let len = sequence_len(&mut buf, 1)?;
        let at = body.len() - buf.len();
        parts.push(body.slice(at..at + len));
        buf = &buf[len..];
    }
    if !buf.is_empty() {
        return Err(WireError::new("trailing bytes"));
    }
    Ok(parts)
}

/// How long a reader waits at a planned window's end for the replacement's
/// rendezvous contribution.
const REJOIN_DEADLINE: Duration = Duration::from_secs(90);

/// Why a peer is (or is not) posted to and awaited this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Availability {
    /// Posted to and awaited normally.
    Live,
    /// Inside an absence window: neither posted to nor awaited.
    Absent,
    /// A planned window ends this round: await the replacement, then post.
    Rejoining,
}

/// One rank's absence bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Absence {
    /// Scripted by the fault plan: absent for rounds `from..until`, with a
    /// replacement expected to rendezvous at round `until`.
    Planned { from: usize, until: usize },
    /// Detected at runtime (connection death): no rendezvous is scheduled,
    /// so the substitution bound is the only exit.
    Unplanned,
}

/// One rank's controller for a degrading [`Comm::exchange_complete`]: the
/// stale cache of the peers it reads, their absence windows and
/// substitution bounds, and this rank's share of the frozen death-frame a
/// replacement fetches for its catch-up. Every rank of a run that degrades
/// gracefully holds one; there is no rank that degrades for the others.
///
/// Cache and death-frame hold [`Payload`] handles on the contributions —
/// the buffers they arrived in — so keeping a round costs no copy and
/// freezing a slot is one reference-count bump.
#[derive(Debug)]
pub struct DegradedGather {
    /// Last-known payload per group rank: this rank's own contribution and
    /// those of the peers it receives from, `None` for everyone else.
    cache: Vec<Option<Payload>>,
    /// Consecutive substitutions per group rank.
    stale_runs: Vec<usize>,
    absences: Vec<Option<Absence>>,
    /// Bound on consecutive substitutions for one rank before escalation.
    max_stale: usize,
    /// This rank's share of the death-frame: its own contribution and its
    /// cached copy of each victim's, from the round before a planned window
    /// opened. Shared (`Arc`) so another thread — the slave's main thread —
    /// can serve it to a catching-up replacement while this controller is
    /// mid-exchange.
    frozen: FrozenFrameHandle,
}

impl DegradedGather {
    /// Controller for a group of `size` ranks with the given substitution
    /// bound (`max_stale >= 1`).
    pub fn new(size: usize, max_stale: usize) -> Self {
        assert!(max_stale >= 1, "degraded gather needs a positive staleness bound");
        Self {
            cache: vec![None; size],
            stale_runs: vec![0; size],
            absences: vec![None; size],
            max_stale,
            frozen: Arc::new(Mutex::new(vec![None; size])),
        }
    }

    /// Script a planned absence: group rank `r` contributes nothing for
    /// rounds `from..until`, and its replacement rendezvouses at `until`.
    pub fn plan_absence(&mut self, r: usize, from: usize, until: usize) {
        assert!(from < until, "empty absence window");
        assert!(
            until - from <= self.max_stale,
            "planned window longer than the staleness bound"
        );
        self.absences[r] = Some(Absence::Planned { from, until });
    }

    /// Handle to this rank's share of the frozen death-frame, for the
    /// thread that serves catch-up requests.
    pub fn frozen_frame(&self) -> FrozenFrameHandle {
        Arc::clone(&self.frozen)
    }

    /// Consecutive substitutions currently standing against group rank `r`.
    pub fn stale_run(&self, r: usize) -> usize {
        self.stale_runs[r]
    }

    fn availability(&self, r: usize, round: usize) -> Availability {
        match self.absences[r] {
            Some(Absence::Planned { from, until }) => {
                if round < from {
                    Availability::Live
                } else if round < until {
                    Availability::Absent
                } else {
                    Availability::Rejoining
                }
            }
            Some(Absence::Unplanned) => Availability::Absent,
            None => Availability::Live,
        }
    }

    /// The start of `round` on group rank `own`: the round a planned window
    /// opens, freeze `own`'s contribution and the cached one of each rank
    /// whose window it is — both still the round before, exactly the
    /// death-frame slots a replacement needs — then cache `part`, `own`'s
    /// contribution to this round.
    fn open_round(&mut self, own: usize, part: &Payload, round: usize) {
        let opens = |a: &Option<Absence>| matches!(a, Some(Absence::Planned { from, .. }) if *from == round);
        if self.absences.iter().any(opens) {
            let mut frozen = self.frozen.lock();
            for r in 0..self.cache.len() {
                if r == own || opens(&self.absences[r]) {
                    frozen[r] = self.cache[r].clone();
                }
            }
        }
        self.cache[own] = Some(part.clone());
    }

    fn note_live(&mut self, r: usize, round: usize) {
        self.stale_runs[r] = 0;
        // A planned window is cleared only once the replacement has made its
        // rendezvous — contributions *before* the window opens must not
        // erase the script.
        if matches!(self.absences[r], Some(Absence::Planned { until, .. }) if round >= until) {
            self.absences[r] = None;
        }
    }

    /// Group rank `r` (world rank `world`) is substituted at `round` — a
    /// death detected outside any planned window opens an unplanned one.
    fn note_stale(&mut self, r: usize, world: usize, round: usize) {
        self.absences[r].get_or_insert(Absence::Unplanned);
        self.stale_runs[r] += 1;
        if self.stale_runs[r] > self.max_stale {
            panic!(
                "world rank {world} stale-substituted {} consecutive rounds at round {round}, \
                 exceeding max_stale_iters={}",
                self.stale_runs[r], self.max_stale
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn send_recv_pair() {
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &vec![1.5f32, -2.5]);
                0.0f32
            } else {
                let (v, src): (Vec<f32>, usize) = comm.recv(RecvFrom::Rank(0), 7);
                assert_eq!(src, 0);
                v[0] + v[1]
            }
        });
        assert_eq!(results[1], -1.0);
    }

    #[test]
    fn recv_from_any_reports_source() {
        let results = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut sources = vec![];
                for _ in 0..2 {
                    let (v, src): (u32, usize) = comm.recv(RecvFrom::Any, 1);
                    assert_eq!(v as usize, src);
                    sources.push(src);
                }
                sources.sort_unstable();
                sources
            } else {
                comm.send(0, 1, &(comm.rank() as u32));
                vec![]
            }
        });
        assert_eq!(results[0], vec![1, 2]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Universe::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, everyone must have incremented.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = Universe::run(4, |comm| comm.gather(0, &(comm.rank() as u64 * 10)));
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn abortable_gather_completes_when_all_send() {
        let results = Universe::run(4, |comm| {
            comm.gather_abortable(
                0,
                &(comm.rank() as u64 * 10),
                Duration::from_millis(20),
                &|_| false,
            )
        });
        assert_eq!(results[0], Ok(Some(vec![0, 10, 20, 30])));
        assert!(results[1..].iter().all(|r| *r == Ok(None)));
    }

    #[test]
    fn abortable_gather_names_the_silent_ranks() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let abort = AtomicBool::new(false);
        let results = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                // Abort after the first poll round comes up short.
                let got = comm.gather_abortable(0, &0u64, Duration::from_millis(10), &|_| {
                    abort.swap(true, Ordering::SeqCst) // false once, then true
                });
                Some(got)
            } else if comm.rank() == 1 {
                let _ = comm.gather_abortable(0, &11u64, Duration::from_millis(10), &|_| false);
                None
            } else {
                // Rank 2 never contributes (the dead slave).
                std::thread::sleep(Duration::from_millis(100));
                None
            }
        });
        match results[0].as_ref().unwrap() {
            Err(pending) => assert!(pending.contains(&2), "dead rank not named: {pending:?}"),
            other => panic!("gather did not abort: {other:?}"),
        }
    }

    #[test]
    fn abortable_gather_takes_a_result_that_lands_during_another_ranks_decode() {
        // The false abort at the final gather: rank 1 has nothing queued
        // when the drain looks at it; its result *and* its EOF land while
        // rank 2's result is being decoded. It must be gathered, not handed
        // to the predicate as "pending and dead".
        use crate::wire::WireError;
        use std::cell::RefCell;
        thread_local! {
            static WHILE_DECODING_22: RefCell<Option<Box<dyn FnOnce()>>> = RefCell::new(None);
        }
        struct Slow(u64);
        impl Wire for Slow {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let v = u64::decode(buf)?;
                if v == 22 {
                    if let Some(arrival) = WHILE_DECODING_22.with(|h| h.borrow_mut().take()) {
                        arrival();
                    }
                }
                Ok(Slow(v))
            }
        }
        let fabric = Fabric::new(3);
        let comm = Comm::world(fabric.clone(), 0);
        let result = |src: usize, v: u64| {
            Envelope::new(0, src, ReservedTags::GATHER, Slow(v).to_bytes())
        };
        fabric.deliver(0, result(2, 22));
        let late = fabric.clone();
        WHILE_DECODING_22.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                late.deliver(0, result(1, 11));
                late.mailbox(0).mark_peer_dead(1);
            }));
        });
        // The elastic master's predicate in miniature: a pending rank whose
        // connection is gone dooms the gather.
        let got = comm.gather_abortable(0, &Slow(0), Duration::from_millis(10), &|pending| {
            pending.iter().any(|&r| comm.peer_connection_dead(r))
        });
        let values = got.expect("aborted with the result queued").expect("root gathers");
        assert_eq!(values.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 11, 22]);
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let results = Universe::run(5, |comm| {
            comm.allgather_bytes(format!("r{}", comm.rank()).as_bytes())
        });
        for r in &results {
            let names: Vec<&[u8]> = r.iter().map(|p| &p[..]).collect();
            assert_eq!(names, [b"r0", b"r1", b"r2", b"r3", b"r4"]);
        }
    }

    #[test]
    fn split_allgather_matches_the_plain_one() {
        let results = Universe::run(4, |comm| {
            let payload = vec![comm.rank() as u8; 3];
            let pending = comm.allgather_bytes_split(&payload);
            let split = comm.allgather_bytes_complete(pending);
            let plain = comm.allgather_bytes(&payload);
            (split, plain)
        });
        for (split, plain) in &results {
            assert_eq!(split, plain);
            assert_eq!(split.len(), 4);
        }
    }

    #[test]
    fn split_allgather_pipelines_one_generation_ahead() {
        // The async-exchange shape: begin generation i, then complete
        // generation i-1 — with the begin for the *next* generation posted
        // before the previous complete has drained. Per-(src, tag) FIFO
        // keeps the generations ordered.
        let results = Universe::run(3, |comm| {
            let rounds = 5usize;
            let mut seen = Vec::new();
            let mut pending = comm.allgather_bytes_split(&[comm.rank() as u8, 0]);
            for gen in 1..rounds {
                let next = comm.allgather_bytes_split(&[comm.rank() as u8, gen as u8]);
                seen.push(comm.allgather_bytes_complete(pending));
                pending = next;
            }
            seen.push(comm.allgather_bytes_complete(pending));
            seen
        });
        for per_rank in &results {
            for (gen, parts) in per_rank.iter().enumerate() {
                for (src, part) in parts.iter().enumerate() {
                    assert_eq!(part, &vec![src as u8, gen as u8], "generation crossed");
                }
            }
        }
    }

    #[test]
    fn split_allgather_completes_on_a_second_thread() {
        // The complete half may run on a cloned comm in another thread of
        // the same rank — the exchange-thread topology of async mode.
        let results = Universe::run(3, |comm| {
            let pending = comm.allgather_bytes_split(&[comm.rank() as u8 + 10]);
            let comm2 = comm.clone();
            std::thread::spawn(move || comm2.allgather_bytes_complete(pending)).join().unwrap()
        });
        for parts in &results {
            assert_eq!(parts, &vec![vec![10u8], vec![11], vec![12]]);
        }
    }

    #[test]
    fn consecutive_allgathers_do_not_cross_talk() {
        let results = Universe::run(3, |comm| {
            let a = comm.allgather_bytes(&[comm.rank() as u8]);
            let b = comm.allgather_bytes(&[comm.rank() as u8 + 100]);
            (a, b)
        });
        for (a, b) in &results {
            assert_eq!(a, &[vec![0u8], vec![1], vec![2]]);
            assert_eq!(b, &[vec![100u8], vec![101], vec![102]]);
        }
    }

    #[test]
    fn subgroup_isolates_traffic_and_reranks() {
        let results = Universe::run(4, |comm| {
            let mut comm = comm;
            // Split off ranks 1..4 as a "slaves" group (the paper's LOCAL).
            let local = comm.subgroup(&[1, 2, 3]);
            match (comm.rank(), local) {
                (0, None) => vec![],
                (wr, Some(local)) => {
                    assert_eq!(local.size(), 3);
                    assert_eq!(local.rank(), wr - 1);
                    local.allgather_bytes(&[wr as u8])
                }
                _ => unreachable!(),
            }
        });
        assert!(results[0].is_empty());
        for r in results.iter().skip(1) {
            assert_eq!(r, &[vec![1u8], vec![2], vec![3]]);
        }
    }

    #[test]
    fn world_and_subgroup_same_tag_do_not_collide() {
        let results = Universe::run(3, |comm| {
            let mut comm = comm;
            let sub = comm.subgroup(&[0, 1]);
            if comm.rank() == 0 {
                // Send on WORLD tag 5 to rank 1, and on SUB tag 5 to sub-rank 1.
                comm.send(1, 5, &11u32);
                sub.as_ref().unwrap().send(1, 5, &22u32);
                (0, 0)
            } else if comm.rank() == 1 {
                // Receive sub first even though world arrived first.
                let (s, _) = sub.as_ref().unwrap().recv::<u32>(RecvFrom::Rank(0), 5);
                let (w, _) = comm.recv::<u32>(RecvFrom::Rank(0), 5);
                (w, s)
            } else {
                (0, 0)
            }
        });
        assert_eq!(results[1], (11, 22));
    }

    #[test]
    #[should_panic(expected = "reserved space")]
    fn reserved_tag_rejected() {
        Universe::run(1, |comm| {
            comm.send(0, ReservedTags::BARRIER, &0u8);
        });
    }

    /// One round of an all-to-all neighbour exchange on `comm`: post
    /// `part` to every other rank, take every other rank's part for
    /// `round`. Returns the parts by group rank (own slot: `part`).
    fn exchange_round(
        comm: &Comm,
        part: Vec<u8>,
        round: usize,
        ctl: Option<&mut DegradedGather>,
    ) -> Vec<Payload> {
        let part = Payload::from(part);
        let others: Vec<usize> = (0..comm.size()).filter(|&r| r != comm.rank()).collect();
        comm.exchange_post(&others, &part, round, ctl.as_deref());
        let mut parts = vec![part.clone(); comm.size()];
        comm.exchange_complete(&others, &part, round, ctl, |src, p| parts[src] = p);
        parts
    }

    #[test]
    fn neighbour_exchange_delivers_each_round_to_its_readers_only() {
        // A 5-rank ring: rank r reads r±1, and — the topology is symmetric —
        // posts to exactly those. Two rounds back to back, the second
        // posted before anyone completes the first: per-(src, tag) FIFO
        // keeps them apart, and no rank receives a part it does not read.
        let results = Universe::run(5, |comm| {
            let n = comm.size();
            let r = comm.rank();
            let ring = [(r + n - 1) % n, (r + 1) % n];
            let parts: Vec<Payload> =
                (0..2).map(|round| Payload::from(vec![r as u8, round as u8])).collect();
            for (round, part) in parts.iter().enumerate() {
                comm.exchange_post(&ring, part, round, None);
            }
            let mut seen = Vec::new();
            for (round, part) in parts.iter().enumerate() {
                comm.exchange_complete(&ring, part, round, None, |src, p| {
                    seen.push((src, p.to_vec()))
                });
            }
            let stray = comm.probe(RecvFrom::Any, ReservedTags::ALLGATHER);
            (seen, stray)
        });
        for (r, (seen, stray)) in results.iter().enumerate() {
            let (lo, hi) = ((r + 4) % 5, (r + 1) % 5);
            let want = [
                (lo, vec![lo as u8, 0]),
                (hi, vec![hi as u8, 0]),
                (lo, vec![lo as u8, 1]),
                (hi, vec![hi as u8, 1]),
            ];
            assert_eq!(seen, &want, "rank {r}");
            assert!(!stray, "rank {r} was posted a part it does not read");
        }
    }

    #[test]
    fn degraded_exchange_substitutes_stale_and_takes_the_rejoin() {
        // Rank 2 is scripted dead for rounds 2..4 and "replaced" (here: the
        // same thread coming back) at round 4. Ranks 0 and 1 read it, and
        // each degrades on its own. The fabric carries the plan so the test
        // also exercises the transport-level kill bookkeeping.
        let fabric = Fabric::with_faults(3, FaultPlan::parse("kill:2@2").unwrap());
        let payload = |r: usize, round: usize| vec![r as u8, round as u8];
        let results = Universe::run_on(fabric, |comm| {
            let me = comm.rank();
            if me == 2 {
                // Nothing was posted to it while it was gone: its round-4
                // receive is the survivors' round 4, sent after its own.
                for round in [0usize, 1, 4, 5] {
                    let parts = exchange_round(&comm, payload(2, round), round, None);
                    assert_eq!(parts[0], payload(0, round));
                    assert_eq!(parts[1], payload(1, round));
                }
                return;
            }
            let mut ctl = DegradedGather::new(3, 2);
            ctl.plan_absence(2, 2, 4);
            let frozen = ctl.frozen_frame();
            let mut seen = Vec::new();
            for round in 0..6 {
                let parts = exchange_round(&comm, payload(me, round), round, Some(&mut ctl));
                assert_eq!(parts[1 - me], payload(1 - me, round), "live rank must stay fresh");
                seen.push(parts[2].clone());
            }
            // Substituted rounds carried rank 2's round-1 payload.
            assert_eq!(seen[2], payload(2, 1));
            assert_eq!(seen[3], payload(2, 1));
            assert_eq!(seen[4], payload(2, 4), "rejoin contribution taken");
            assert_eq!(seen[5], payload(2, 5));
            assert_eq!(ctl.stale_run(2), 0, "rejoin resets the stale run");
            // This rank's share of the death-frame: its own round-1 payload
            // and its copy of the victim's; nothing of the other survivor.
            let frame = frozen.lock().clone();
            let mut want: Vec<Option<Payload>> = vec![None; 3];
            want[me] = Some(payload(me, 1).into());
            want[2] = Some(payload(2, 1).into());
            assert_eq!(frame, want);
        });
        assert_eq!(results.len(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeding max_stale_iters")]
    fn degraded_exchange_escalates_after_the_staleness_bound() {
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut ctl = DegradedGather::new(2, 2);
                for round in 0..5 {
                    let parts =
                        exchange_round(&comm, vec![0, round as u8], round, Some(&mut ctl));
                    assert_eq!(parts.len(), 2);
                }
            } else {
                // Contribute twice, then die unannounced.
                let _ = exchange_round(&comm, vec![1, 0], 0, None);
                let _ = exchange_round(&comm, vec![1, 1], 1, None);
                // Simulate the transport reader noticing the death.
                std::thread::sleep(Duration::from_millis(30));
                comm.transport.mailbox(0).mark_peer_dead(1);
            }
        });
        drop(results);
    }

    #[test]
    fn degraded_exchange_drains_queued_frames_before_substituting() {
        // An alive-but-already-sent rank that dies must have its queued
        // contribution consumed, not substituted — round pairing depends
        // on it.
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(40));
                let mut ctl = DegradedGather::new(2, 3);
                let mut got = Vec::new();
                for round in 0..4usize {
                    let parts = exchange_round(&comm, vec![0], round, Some(&mut ctl));
                    got.push(parts[1].clone());
                }
                // Rounds 0..2 drain the queued pre-death frames; round 3
                // substitutes the last one.
                assert_eq!(got, vec![vec![10], vec![11], vec![12], vec![12]]);
                ctl.stale_run(1)
            } else {
                for v in [10u8, 11, 12] {
                    comm.send_raw(0, ReservedTags::ALLGATHER, vec![v]);
                }
                comm.transport.mailbox(0).mark_peer_dead(1);
                0
            }
        });
        assert_eq!(results[0], 1);
    }

    #[test]
    #[should_panic(expected = "world rank 0 lost")]
    fn severed_link_fails_receives_like_a_torn_connection() {
        use crate::fault::FaultPlan;
        let fabric = Fabric::with_faults(2, FaultPlan::parse("sever:0-1@1").unwrap());
        Universe::run_on(fabric, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &1u32); // clock 0: delivered
                comm.transport.fault_state().unwrap().tick(0, 1);
                comm.send(1, 5, &2u32); // clock 1: dropped, link marked dead
            } else {
                let (v, _) = comm.recv::<u32>(RecvFrom::Rank(0), 5);
                assert_eq!(v, 1);
                let _ = comm.recv::<u32>(RecvFrom::Rank(0), 5); // panics: PeerLost
            }
        });
    }

    #[test]
    fn scripted_delay_stretches_wall_time_not_values() {
        use crate::fault::FaultPlan;
        let fabric = Fabric::with_faults(2, FaultPlan::parse("delay:0>1:*@0:40").unwrap());
        let results = Universe::run_on(fabric, |comm| {
            if comm.rank() == 0 {
                let t0 = std::time::Instant::now();
                comm.send(1, 7, &99u32);
                t0.elapsed() >= Duration::from_millis(30)
            } else {
                let (v, _) = comm.recv::<u32>(RecvFrom::Rank(0), 7);
                v == 99
            }
        });
        assert!(results[0], "sender pays the scripted delay");
        assert!(results[1], "value arrives unchanged");
    }

    #[test]
    #[should_panic(expected = "world rank 2 lost")]
    fn stranded_subgroup_collective_names_the_dead_world_rank() {
        // A subgroup member that dies after subgroup creation must fail the
        // waiting rank loudly, with the *world* rank named — the subgroup's
        // local-rank translation (world_rank_of) is what recv_from_live
        // pins liveness to.
        let fabric = Fabric::new(3);
        let mut comm = Comm::world(fabric.clone(), 1);
        let local = comm.subgroup(&[1, 2]).expect("member of the subgroup");
        assert_eq!(local.world_rank_of(1), 2);
        // The transport reader notices world rank 2's death.
        fabric.mailbox(1).mark_peer_dead(2);
        assert!(local.peer_connection_dead(1));
        // Subgroup-local rank 1 is world rank 2: the receive must panic
        // naming world rank 2, not wedge and not misreport local rank 1.
        let _ = local.recv::<u32>(RecvFrom::Rank(1), 5);
    }

    #[test]
    fn clone_shares_context_for_second_thread() {
        // A rank's second thread (execution thread) can use a cloned comm.
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let comm2 = comm.clone();
                let t = std::thread::spawn(move || {
                    let (v, _) = comm2.recv::<u32>(RecvFrom::Rank(1), 42);
                    v
                });
                let (w, _) = comm.recv::<u32>(RecvFrom::Rank(1), 43);
                t.join().unwrap() + w
            } else {
                comm.send(0, 43, &1u32);
                comm.send(0, 42, &2u32);
                0
            }
        });
        assert_eq!(results[0], 3);
    }
}
