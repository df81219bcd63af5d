//! The iteration pipeline every driver runs — one schedule, three
//! transports.
//!
//! The paper's method is a single per-iteration schedule (Fig. 3,
//! Table IV): snapshot the local centers, exchange them with the rest of
//! the grid, then gather → mutate → train → update each local cell against
//! the exchanged frame. [`Pipeline`] owns that schedule once — the local
//! [`CellEngine`]s, the precomputed neighbour table and the rank's read
//! set, the two recycled frame buffers, the frame-selection rule
//! ([`select_frame`]), the frame a checkpoint cut carries, resume
//! re-entry, and a replacement's solo catch-up — and talks to the rest of
//! the grid only through the small [`Exchange`] trait. The sequential
//! trainer plugs in [`InMemoryExchange`] (every cell is local, nothing
//! moves), the master/slave runtime a `Comm`-backed exchange, the cluster
//! simulator a virtual-time one; cross-driver byte-identity holds because
//! there is no second copy of the schedule to drift.
//!
//! ```text
//!            ┌─────────────────────── step(iter = i) ───────────────────────┐
//!  [complete(i-1)] ─► snapshot local cells ─► begin(i) ─► [complete(i)] ─► train
//!
//!  the frame iteration i trains against:
//!      sync, or i = 0 ......... complete(i) after begin(i)     → generation i
//!      async, i ≥ 1 ........... complete(i-1) before begin(i) → generation i-1
//!                               (unless a commit boundary already drained it)
//!      catch-up, or a rejoiner's
//!      first live async iteration ............................ → the frozen death-frame
//! ```
//!
//! Either way at most one generation is in flight, and every call runs on
//! the rank's own thread: under async a generation is simply completed one
//! iteration after it was posted, by which time the transport has
//! delivered it.
//!
//! # What a rank holds
//!
//! A cell only ever reads its neighbourhood (§III-B), so a frame is
//! neighbourhood-scoped end to end: it has one slot per grid cell, but a
//! rank populates only its **read set** ([`Pipeline::read_set`], the union
//! of its engines' neighbour slots — a function of `(grid, local cells)`)
//! plus the slots of its own cells, which it posts. Every other slot stays
//! `None` for the life of the run: the exchange fills nothing into it and a
//! checkpoint cut does not carry it.
//!
//! A slot is a [`FrameSlot`]: a handle on the encoded snapshot in the
//! buffer it was encoded or arrived in, never a decoded copy. Each local
//! cell encodes straight from its engine into its own slot, and that buffer
//! is the one the exchange posts to the cell's readers; a neighbour's slot
//! holds the payload its snapshot arrived in, validated once on receipt;
//! and each engine imports `frame[slot]` straight from those bytes. So a
//! neighbour's byte is copied once between the wire and its import slot,
//! on every driver, and a frame owns no genome memory: a rank's memory is
//! its engines plus the payloads its frames, its readers and its pending
//! checkpoint cuts still hold (its own last few generations), whatever the
//! size of the grid. A cut clones the handles of the slots its cell reads
//! ([`capture_with_frame`]), its file holds their bytes verbatim, and a
//! resume hands the loaded handles back to the pipeline as they are
//! ([`Pipeline::resume_from`]): a snapshot is never decoded on a run path.
//!
//! An engine holds only its cell's own state (members, Adam moments, loader
//! cursor, eval batch). What a cell iteration needs besides — the training
//! workspace, the fake batches, the logits — is one [`CellScratch`] per
//! rank, lent to each local engine in turn; and a whole-grid rank builds
//! its engines over one shared dataset unless the config shards it.

use crate::cell::{CellEngine, CellScratch};
use crate::config::{ExchangeMode, TrainConfig};
use crate::profiling::Routine;
use crate::resume::CellState;
use crate::snapshot::{EncodedSnapshot, SnapshotRef};
use lipiz_telemetry::{EventKind, Telemetry, NO_CELL};
use lipiz_tensor::Matrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One exchange-frame slot: the snapshot of the cell with that flat index,
/// encoded, in the buffer it was encoded or arrived in — `None` for a cell
/// the rank neither hosts nor reads.
pub type FrameSlot = Option<EncodedSnapshot>;

/// How one generation of center snapshots travels between the ranks of a
/// run. An exchange serves one rank and is built for that rank's read set
/// ([`Pipeline::read_set`]): the slots it delivers are the slots the rank's
/// cells read, nothing else. `begin` and `complete` are called by
/// [`Pipeline::step`] only: `begin(g)` exactly once per live iteration `g`,
/// in order, and at most one generation in flight — `begin(g)`, then at
/// most one `complete(g)`, before `begin(g + 1)`. A generation the rank did
/// not begin is never completed.
pub trait Exchange {
    /// Post generation `gen` without waiting for it. `frame` has one slot
    /// per grid cell; the slots of this rank's local cells hold their fresh
    /// snapshots, each in the buffer a transport posts as it is.
    /// `costs[k]` is the host time local engine `k` spent producing its
    /// snapshot — the input of a cost-model exchange; transports ignore it.
    fn begin(&mut self, gen: usize, frame: &[FrameSlot], costs: &[Duration]);

    /// Block until generation `gen` is complete and leave the snapshot of
    /// every cell in the rank's read set in its slot of `frame` (one slot
    /// per grid cell): a handle on the buffer it arrived in, replacing the
    /// handle the slot held — nothing is decoded or copied. Slots outside
    /// the read set are not the exchange's to fill: a transport leaves them
    /// as they are — `None`, but for the rank's own posted snapshots.
    /// `tel` is the rank's recorder, for what only the transport knows
    /// (which ranks it had to substitute).
    fn complete(&mut self, gen: usize, frame: &mut [FrameSlot], tel: &mut Telemetry);
}

/// The exchange of a rank that hosts the whole grid: every slot is local,
/// so a generation is complete the moment it is snapshotted.
#[derive(Debug, Clone, Copy, Default)]
pub struct InMemoryExchange;

impl Exchange for InMemoryExchange {
    fn begin(&mut self, _gen: usize, _frame: &[FrameSlot], _costs: &[Duration]) {}

    fn complete(&mut self, _gen: usize, _frame: &mut [FrameSlot], _tel: &mut Telemetry) {}
}

/// Which frame an engine trains against at a given iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameChoice {
    /// The exchanged snapshots of this generation.
    Generation(usize),
    /// The frozen frame of the round before a replaced rank died.
    DeathFrame,
}

/// The frame-selection rule — the only copy. `rejoin_round` is `Some` for
/// a replacement engine: it trains solo against the death-frame until its
/// counter reaches that round, and under async exchange also on its first
/// live iteration (it never received generation `rejoin_round - 1`).
/// Everyone else consumes generation `iter` in sync mode and at the async
/// bootstrap iteration 0, generation `iter - 1` otherwise.
pub fn select_frame(
    mode: ExchangeMode,
    iter: usize,
    rejoin_round: Option<usize>,
) -> FrameChoice {
    let stale = mode.is_async() && iter >= 1;
    match rejoin_round {
        Some(round) if iter < round || (iter == round && stale) => FrameChoice::DeathFrame,
        _ if stale => FrameChoice::Generation(iter - 1),
        _ => FrameChoice::Generation(iter),
    }
}

/// Capture `engine`'s training state — into `recycled` when the caller has
/// a spent buffer — and stamp the cut with the frame its next iteration
/// consumes: of `frame` exactly the slots the cell reads (`Grid::neighbors`
/// of its index), as handles on the same buffers, every other slot `None`,
/// so a cell's cut holds the same bytes whichever driver — and however
/// large a frame — it was taken from. Nothing is decoded or copied. `frame`
/// is empty in sync mode, which also clears a stale frame left in a
/// recycled buffer.
///
/// # Panics
/// Panics if a non-empty `frame` lacks a slot the cell reads.
pub fn capture_with_frame(
    engine: &CellEngine,
    frame: &[FrameSlot],
    recycled: Option<CellState>,
) -> CellState {
    let mut state = match recycled {
        Some(mut state) => {
            engine.capture_state_into(&mut state);
            state
        }
        None => engine.capture_state(),
    };
    let reads = engine.neighbor_slots();
    if !frame.is_empty() {
        assert_covers(frame, &reads, "the frame of a checkpoint cut");
    }
    state.exchange_frame.clear();
    let read = |(slot, src): (usize, &FrameSlot)| src.clone().filter(|_| reads.contains(&slot));
    state.exchange_frame.extend(frame.iter().enumerate().map(read));
    state
}

/// A replacement engine's catch-up: local engine `local` trains against
/// `frozen` until its counter reaches `round`.
struct Rejoin {
    local: usize,
    round: usize,
    frozen: Vec<FrameSlot>,
}

/// The driver-agnostic iteration state machine (see the module docs).
pub struct Pipeline {
    cfg: TrainConfig,
    engines: Vec<CellEngine>,
    /// `neighbors[k]`: the frame slots local engine `k` imports, in
    /// neighbour-slot order.
    neighbors: Vec<Vec<usize>>,
    /// The union of `neighbors`, ascending: every slot this rank reads.
    read_set: Vec<usize>,
    /// The generation being gathered (and, in sync mode, consumed).
    cur: Vec<FrameSlot>,
    /// Async only: the previous generation — what the next iteration
    /// consumes, and what a checkpoint cut carries.
    prev: Vec<FrameSlot>,
    /// Is `prev` complete (bootstrap, resume, or a commit-boundary drain)?
    prev_complete: bool,
    rejoin: Option<Rejoin>,
    /// Host time of each local engine's last snapshot.
    snapshot_costs: Vec<Duration>,
    /// What [`CellEngine::run_iteration`] measured for each local engine
    /// in the last step it ran.
    step_phases: Vec<[Duration; 4]>,
    /// The rank's one iteration scratch, lent to each local engine in turn.
    scratch: CellScratch,
    /// The rank's recorder — and, through its routine totals, the rank's
    /// Table IV profile.
    telemetry: Telemetry,
    /// Cell the rank-level spans are journaled under.
    span_cell: u32,
    /// When the in-flight async generation was posted.
    inflight_submit: Option<Instant>,
}

impl Pipeline {
    /// A pipeline over this rank's local `engines` (any subset of the
    /// grid, each at the same iteration). `telemetry` is the rank's
    /// recorder; pass a disabled one to total without journaling.
    pub fn new(cfg: &TrainConfig, engines: Vec<CellEngine>, mut telemetry: Telemetry) -> Self {
        let neighbors: Vec<Vec<usize>> =
            engines.iter().map(CellEngine::neighbor_slots).collect();
        let mut read_set = neighbors.concat();
        read_set.sort_unstable();
        read_set.dedup();
        let span_cell = match engines.as_slice() {
            [only] => only.cell_index() as u32,
            _ => NO_CELL,
        };
        if cfg.exchange.is_async() {
            telemetry.metrics.staleness.set(1);
        }
        Self {
            cfg: cfg.clone(),
            neighbors,
            read_set,
            cur: Vec::new(),
            prev: Vec::new(),
            prev_complete: false,
            rejoin: None,
            snapshot_costs: vec![Duration::ZERO; engines.len()],
            step_phases: vec![[Duration::ZERO; 4]; engines.len()],
            scratch: CellScratch::default(),
            engines,
            telemetry,
            span_cell,
            inflight_submit: None,
        }
    }

    /// The whole grid as one rank, its cells run one after another on the
    /// calling thread: fresh engines, or — the resume path — engines
    /// restored from `resume`, the captured per-cell states in flat grid
    /// order, whose exchange frames — each holding the slots its own cell
    /// reads — merged re-prime the pipeline.
    ///
    /// `make_data(cell)` supplies the data either way. Unless the config
    /// shards the dataset (`training.shard_data`), it is called **once**, for
    /// cell 0, and every engine shares that one dataset; with shards it is
    /// called once per cell, in cell order, and each engine owns its shard.
    ///
    /// # Panics
    /// Panics if `resume` disagrees with the grid: wrong count, out of cell
    /// order, or a torn iteration cut (see
    /// [`crate::resume::assert_grid_states`]).
    pub fn whole_grid(
        cfg: &TrainConfig,
        mut make_data: impl FnMut(usize) -> Matrix,
        resume: Option<&[CellState]>,
        telemetry: Telemetry,
    ) -> Self {
        let shared = (!cfg.training.shard_data).then(|| Arc::new(make_data(0)));
        let mut data = |cell| match &shared {
            Some(data) => Arc::clone(data),
            None => Arc::new(make_data(cell)),
        };
        let Some(states) = resume else {
            let engines = (0..cfg.cells()).map(|i| CellEngine::new(i, cfg, data(i))).collect();
            return Self::new(cfg, engines, telemetry);
        };
        crate::resume::assert_grid_states(states, cfg.cells());
        let engines = states
            .iter()
            .enumerate()
            .map(|(i, s)| CellEngine::from_state(cfg, data(i), s))
            .collect();
        let mut pipeline = Self::new(cfg, engines, telemetry);
        // Each cut carries the slots its cell reads, all of one generation.
        let mut frame = vec![None; states[0].exchange_frame.len()];
        for (state, reads) in states.iter().zip(&pipeline.neighbors) {
            for &slot in reads {
                if let Some(Some(src)) = state.exchange_frame.get(slot) {
                    frame[slot] = Some(src.clone());
                }
            }
        }
        pipeline.resume_from(frame);
        pipeline
    }

    /// Re-enter the pipeline from a checkpoint cut: `frame` is the cut's
    /// [`CellState::exchange_frame`] — under async exchange the completed
    /// generation the first resumed iteration consumes (ignored in sync
    /// mode, where every iteration gathers its own). The handles of the
    /// read set become the pipeline's frame as they are; the rest (a cut of
    /// an older build carries them all) are dropped.
    ///
    /// # Panics
    /// Panics if an async run resumes past iteration 0 without a frame
    /// that covers the read set.
    pub fn resume_from(&mut self, mut frame: Vec<FrameSlot>) {
        if !self.cfg.exchange.is_async() {
            return;
        }
        for (slot, snap) in frame.iter_mut().enumerate() {
            if self.read_set.binary_search(&slot).is_err() {
                *snap = None;
            }
        }
        if self.iteration() > 0 {
            assert_eq!(
                frame.len(),
                self.cfg.cells(),
                "async resume needs the checkpointed exchange frame"
            );
            assert_covers(&frame, &self.read_set, "checkpointed exchange frame");
        }
        self.prev = frame;
        self.prev_complete = true;
    }

    /// Make local engine `local` a replacement: until its counter reaches
    /// `round`, [`Pipeline::step`] trains it solo against `frozen` (the
    /// death-frame) and touches no exchange.
    ///
    /// # Panics
    /// Panics if `frozen` is not grid-sized or lacks a slot the engine reads.
    pub fn rejoin(&mut self, local: usize, round: usize, frozen: Vec<FrameSlot>) {
        assert_eq!(frozen.len(), self.cfg.cells(), "death-frame size vs grid");
        assert_covers(&frozen, &self.neighbors[local], "death-frame");
        self.rejoin = Some(Rejoin { local, round, frozen });
    }

    /// Is the next step a replacement's solo catch-up iteration?
    pub fn catching_up(&self) -> bool {
        self.rejoin.as_ref().is_some_and(|r| self.engines[r.local].iterations_done() < r.round)
    }

    /// Every frame slot this rank reads — the union of its engines'
    /// neighbour slots, ascending. What the rank's [`Exchange`] is built
    /// to deliver, and the only slots (besides the local cells' own) any
    /// frame of this pipeline ever populates.
    pub fn read_set(&self) -> &[usize] {
        &self.read_set
    }

    /// The frame buffers this pipeline owns (the second is unused in sync
    /// mode) — for memory accounting.
    pub fn frames(&self) -> [&[FrameSlot]; 2] {
        [&self.cur, &self.prev]
    }

    /// The iteration the next step runs: the count the slowest local
    /// engine has completed.
    pub fn iteration(&self) -> usize {
        self.engines.iter().map(CellEngine::iterations_done).min().unwrap_or(0)
    }

    /// Run one iteration: a replacement's solo catch-up iteration while
    /// [`Pipeline::catching_up`], otherwise the live schedule of the
    /// module docs over `ex`. A local engine that is ahead of the grid (a
    /// replacement that already trained through the absence window) sits
    /// the round out and contributes its death-frame slot.
    pub fn step<E: Exchange>(&mut self, ex: &mut E) {
        if self.catching_up() {
            return self.catch_up_step();
        }
        let iter = self.iteration();
        let it = iter as u32;
        let cells = self.cfg.cells();
        let stale = self.cfg.exchange.is_async() && iter >= 1;

        // Everything up to the consumed frame being in hand is the gather
        // routine, exactly as Table IV charges the allgather.
        let span = self.telemetry.begin(Routine::Gather, self.span_cell, it);
        // Async: the in-flight generation `iter - 1` lands before generation
        // `iter` is posted, so at most one is ever in flight — and a
        // replacement that rejoined at `iter - 1` is live again (its
        // rendezvous done) by the time this generation is posted to it.
        if stale && !self.prev_complete && self.consumes_previous(iter) {
            ex.complete(iter - 1, &mut self.prev, &mut self.telemetry);
            self.prev_complete = true;
        }
        // Slots in the read set keep the generation they held last until
        // `complete` replaces their handles. No other slot of a cell hosted
        // elsewhere is ever filled.
        self.cur.resize_with(cells, FrameSlot::default);
        for (k, engine) in self.engines.iter_mut().enumerate() {
            let cell = engine.cell_index();
            if engine.iterations_done() > iter {
                let frozen =
                    &self.rejoin.as_ref().expect("only a replacement runs ahead").frozen;
                assert!(frozen[cell].is_some(), "death-frame lacks the rejoiner's own slot");
                self.cur[cell].clone_from(&frozen[cell]);
                self.snapshot_costs[k] = Duration::ZERO;
                continue;
            }
            let t0 = Instant::now();
            engine.encode_snapshot_into(&mut self.cur[cell]);
            self.snapshot_costs[k] = t0.elapsed();
        }
        self.telemetry.instant(EventKind::ExchangeBegin, self.span_cell, it, iter as u64);
        let submit = Instant::now();
        ex.begin(iter, &self.cur, &self.snapshot_costs);
        let prev_submit = self.inflight_submit.replace(submit);
        if !stale {
            ex.complete(iter, &mut self.cur, &mut self.telemetry);
        }
        // Submit-to-consume wall of the consumed generation.
        let since = if stale { prev_submit.unwrap_or(submit) } else { submit };
        self.telemetry.metrics.exchange_wall_ns.add(since.elapsed().as_nanos() as u64);
        let consumed = iter - usize::from(stale);
        self.telemetry.instant(
            EventKind::ExchangeComplete,
            self.span_cell,
            it,
            consumed as u64,
        );
        self.telemetry.end(Routine::Gather, self.span_cell, it, span);

        for (k, engine) in self.engines.iter_mut().enumerate() {
            if engine.iterations_done() > iter {
                continue;
            }
            let frame =
                match select_frame(self.cfg.exchange, iter, rejoin_round(&self.rejoin, k)) {
                    FrameChoice::Generation(g) if g == iter => &self.cur,
                    FrameChoice::Generation(_) => &self.prev,
                    FrameChoice::DeathFrame => &self.rejoin.as_ref().expect("rejoiner").frozen,
                };
            assert_eq!(frame.len(), cells, "exchange frame lost a generation");
            let imports = self.neighbors[k].iter().map(|&slot| import(&frame[slot]));
            self.step_phases[k] =
                engine.run_iteration(imports, &mut self.scratch, &mut self.telemetry);
        }

        if self.cfg.exchange.is_async() {
            // Generation `iter` becomes what iteration `iter + 1` consumes.
            std::mem::swap(&mut self.cur, &mut self.prev);
            self.prev_complete = !stale;
            // A commit boundary drains the in-flight generation so the cut
            // can carry it. The drain point is a pure function of the
            // config, so uninterrupted and resumed runs stay byte-identical.
            if self.cfg.checkpoint.commits_after(iter) && !self.prev_complete {
                ex.complete(iter, &mut self.prev, &mut self.telemetry);
                self.prev_complete = true;
            }
        }
    }

    /// Does any local engine that runs iteration `iter` train against
    /// generation `iter - 1`?
    fn consumes_previous(&self, iter: usize) -> bool {
        self.engines.iter().enumerate().any(|(k, e)| {
            e.iterations_done() == iter
                && select_frame(self.cfg.exchange, iter, rejoin_round(&self.rejoin, k))
                    == FrameChoice::Generation(iter - 1)
        })
    }

    /// One solo iteration of the replacement engine against the frozen
    /// death-frame: no exchange, so the survivors' cadence is never
    /// perturbed, and the same frame every time keeps the replay a pure
    /// function of (seed, plan).
    fn catch_up_step(&mut self) {
        let r = self.rejoin.as_ref().expect("catching up implies a rejoin");
        let engine = &mut self.engines[r.local];
        let cell = engine.cell_index() as u32;
        let iter = engine.iterations_done() as u32;
        self.telemetry.instant(EventKind::Degraded, cell, iter, cell as u64);
        self.telemetry.metrics.degraded_iters.inc();
        let imports = self.neighbors[r.local].iter().map(|&slot| import(&r.frozen[slot]));
        self.step_phases[r.local] =
            engine.run_iteration(imports, &mut self.scratch, &mut self.telemetry);
        if engine.iterations_done() == r.round {
            self.telemetry.metrics.rejoined.inc();
            self.telemetry.instant(EventKind::Rejoin, cell, r.round as u32, 0);
        }
    }

    /// The local engines, in construction order.
    pub fn engines(&self) -> &[CellEngine] {
        &self.engines
    }

    /// Mutable access to the local engines.
    pub fn engines_mut(&mut self) -> &mut [CellEngine] {
        &mut self.engines
    }

    /// The local engines together with the frame the next iteration
    /// consumes — what a per-iteration driver hook sees. The frame is empty
    /// in sync mode (the next iteration gathers its own) and complete
    /// whenever the config commits a checkpoint at this boundary.
    pub fn engines_and_next_frame(&mut self) -> (&mut [CellEngine], &[FrameSlot]) {
        let lead = self.iteration();
        let k = self.engines.iter().position(|e| e.iterations_done() == lead).unwrap_or(0);
        let frame = next_frame(self.cfg.exchange, &self.rejoin, &self.prev, k, lead);
        (&mut self.engines, frame)
    }

    /// The most recently gathered generation, as far as this rank reads it
    /// — all of it on a rank that hosts the whole grid, where it is the
    /// death-frame of a rank dying at the top of the next iteration.
    pub fn latest_frame(&self) -> &[FrameSlot] {
        if self.cfg.exchange.is_async() {
            &self.prev
        } else {
            &self.cur
        }
    }

    /// Capture local engine `k` at this iteration boundary as a checkpoint
    /// cut carrying the frame its next iteration consumes. An "other"
    /// span: capture is the only checkpoint cost on the training thread.
    pub fn capture_cut(&mut self, k: usize, recycled: Option<CellState>) -> CellState {
        let engine = &self.engines[k];
        let (cell, next_iter) = (engine.cell_index() as u32, engine.iterations_done());
        let span = self.telemetry.begin(Routine::Other, cell, next_iter as u32);
        let frame = next_frame(self.cfg.exchange, &self.rejoin, &self.prev, k, next_iter);
        let state = capture_with_frame(engine, frame, recycled);
        self.telemetry.end(Routine::Other, cell, next_iter as u32, span);
        state
    }

    /// Host time of local engine `k`'s phases in the last step it ran
    /// (ingest, mutate, train, update genomes — what a virtual-time driver
    /// scales onto that rank's clock).
    pub fn step_phases(&self, k: usize) -> [Duration; 4] {
        self.step_phases[k]
    }

    /// The rank's telemetry recorder; its routine totals are the rank's
    /// Table IV profile ([`crate::ProfileReport::of`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable recorder access, for a driver that journals its own
    /// instants (checkpoint commits, a scripted kill) on this timeline.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }
}

/// The rejoin round of local engine `k`, if it is the replacement.
fn rejoin_round(rejoin: &Option<Rejoin>, k: usize) -> Option<usize> {
    rejoin.as_ref().filter(|r| r.local == k).map(|r| r.round)
}

/// The frame local engine `k` consumes at `next_iter`, as a checkpoint cut
/// stores it: nothing in sync mode, else the death-frame or the previous
/// generation.
fn next_frame<'a>(
    mode: ExchangeMode,
    rejoin: &'a Option<Rejoin>,
    prev: &'a [FrameSlot],
    k: usize,
    next_iter: usize,
) -> &'a [FrameSlot] {
    if !mode.is_async() {
        return &[];
    }
    match select_frame(mode, next_iter, rejoin_round(rejoin, k)) {
        FrameChoice::DeathFrame => &rejoin.as_ref().expect("rejoiner").frozen,
        FrameChoice::Generation(_) => prev,
    }
}

/// What an engine imports from a frame slot: the snapshot, read straight
/// from its buffer — or, for a slot the rank does not read, a pair without
/// genomes, which the ingest refuses by its length.
fn import(slot: &FrameSlot) -> SnapshotRef<'_> {
    slot.as_ref().map_or(SnapshotRef::EMPTY, EncodedSnapshot::view)
}

/// Assert `frame` holds a snapshot in every one of `slots`.
fn assert_covers(frame: &[FrameSlot], slots: &[usize], what: &str) {
    for &slot in slots {
        assert!(
            frame.get(slot).is_some_and(Option::is_some),
            "{what} lacks slot {slot}, which this rank reads"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_tensor::Rng64;
    use Call::{Begin, Complete};
    use FrameChoice::{DeathFrame, Generation};

    fn toy_data(cfg: &TrainConfig) -> Matrix {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }

    fn fresh_engine(cfg: &TrainConfig, cell: usize) -> CellEngine {
        CellEngine::new(cell, cfg, toy_data(cfg))
    }

    /// The whole 2×2 smoke grid as one rank.
    fn whole_grid(cfg: &TrainConfig) -> Pipeline {
        Pipeline::whole_grid(cfg, |_| toy_data(cfg), None, Telemetry::disabled())
    }

    fn async_cfg() -> TrainConfig {
        TrainConfig::smoke(2).with_exchange(ExchangeMode::Async)
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Begin(usize),
        Complete(usize),
    }

    /// Records the calls the pipeline makes. Every cell is local in these
    /// tests, so the frames need no filling in.
    #[derive(Default)]
    struct Script(Vec<Call>);

    impl Exchange for Script {
        fn begin(&mut self, gen: usize, frame: &[FrameSlot], costs: &[Duration]) {
            assert_eq!((frame.len(), costs.len()), (4, 4));
            self.0.push(Begin(gen));
        }

        fn complete(&mut self, gen: usize, _: &mut [FrameSlot], _: &mut Telemetry) {
            self.0.push(Complete(gen));
        }
    }

    /// Stands in for the other ranks of a lone rank's grid: completes by
    /// filling every slot of a fixed frame into the rank's.
    struct Peers(Vec<Call>, Vec<FrameSlot>);

    impl Exchange for Peers {
        fn begin(&mut self, gen: usize, _: &[FrameSlot], _: &[Duration]) {
            self.0.push(Begin(gen));
        }

        fn complete(&mut self, gen: usize, frame: &mut [FrameSlot], _: &mut Telemetry) {
            self.0.push(Complete(gen));
            for (dst, src) in frame.iter_mut().zip(&self.1).filter(|(_, src)| src.is_some()) {
                dst.clone_from(src);
            }
        }
    }

    fn steps(pipeline: &mut Pipeline, script: &mut Script, n: usize) {
        for _ in 0..n {
            pipeline.step(script);
        }
    }

    fn genomes(pipeline: &mut Pipeline) -> Vec<Vec<Vec<f32>>> {
        pipeline.engines_mut().iter_mut().map(|e| e.ensemble().genomes).collect()
    }

    #[test]
    fn frame_selection_table() {
        use ExchangeMode::{Async, Sync};
        // mode × {iteration 0, 1, n} × {live or resumed (no rejoin round),
        // catching up, rejoiner's first live iteration, rejoiner afterwards}.
        // A resumed engine is a live one: what differs is only that its
        // first frame comes from the checkpoint (see the script tests).
        let table = [
            (Sync, 0, None, Generation(0)),
            (Sync, 1, None, Generation(1)),
            (Sync, 7, None, Generation(7)),
            (Async, 0, None, Generation(0)),
            (Async, 1, None, Generation(0)),
            (Async, 7, None, Generation(6)),
            (Sync, 0, Some(7), DeathFrame),
            (Sync, 6, Some(7), DeathFrame),
            (Async, 0, Some(7), DeathFrame),
            (Async, 6, Some(7), DeathFrame),
            (Sync, 7, Some(7), Generation(7)),
            (Async, 7, Some(7), DeathFrame),
            (Async, 1, Some(1), DeathFrame),
            (Sync, 8, Some(7), Generation(8)),
            (Async, 8, Some(7), Generation(7)),
        ];
        for (mode, iter, rejoin_round, want) in table {
            assert_eq!(
                select_frame(mode, iter, rejoin_round),
                want,
                "{mode:?} iteration {iter} rejoin {rejoin_round:?}"
            );
        }
    }

    #[test]
    fn sync_completes_every_generation_inline() {
        let mut script = Script::default();
        steps(&mut whole_grid(&TrainConfig::smoke(2)), &mut script, 3);
        assert_eq!(
            script.0,
            [Begin(0), Complete(0), Begin(1), Complete(1), Begin(2), Complete(2)]
        );
    }

    #[test]
    fn async_consumes_one_generation_behind() {
        let mut script = Script::default();
        steps(&mut whole_grid(&async_cfg()), &mut script, 4);
        let want =
            [Begin(0), Complete(0), Begin(1), Complete(1), Begin(2), Complete(2), Begin(3)];
        assert_eq!(script.0, want);
    }

    #[test]
    fn async_commit_boundary_drains_the_inflight_generation() {
        // Cuts after iterations 1 and 3: each drains the generation just
        // begun, so the iteration after it has nothing left to complete.
        let cfg = async_cfg().with_checkpoints("never-written", 2);
        let mut pipeline = whole_grid(&cfg);
        let mut script = Script::default();
        steps(&mut pipeline, &mut script, 4);
        let want = [
            Begin(0),
            Complete(0),
            Begin(1),
            Complete(1),
            Begin(2),
            Complete(2),
            Begin(3),
            Complete(3),
        ];
        assert_eq!(script.0, want);
        let (_, frame) = pipeline.engines_and_next_frame();
        assert_eq!(frame.len(), 4, "an async cut carries the next frame");
        assert!(frame.iter().enumerate().all(|(c, snap)| snap.as_ref().unwrap().cell() == c));
    }

    #[test]
    fn async_resume_reenters_without_recompleting_the_cut_frame() {
        let mut cfg = async_cfg().with_checkpoints("never-written", 2);
        cfg.coevolution.iterations = 4;
        let mut reference = whole_grid(&cfg);
        steps(&mut reference, &mut Script::default(), 4);

        let mut first = whole_grid(&cfg);
        steps(&mut first, &mut Script::default(), 2);
        let cuts: Vec<CellState> = (0..4).map(|k| first.capture_cut(k, None)).collect();
        assert!(cuts.iter().all(|s| s.iteration == 2 && s.exchange_frame.len() == 4));

        let mut resumed =
            Pipeline::whole_grid(&cfg, |_| toy_data(&cfg), Some(&cuts), Telemetry::disabled());
        let mut script = Script::default();
        steps(&mut resumed, &mut script, 2);
        // Iteration 2 trains against the checkpointed generation 1.
        assert_eq!(script.0, [Begin(2), Complete(2), Begin(3), Complete(3)]);
        assert_eq!(genomes(&mut resumed), genomes(&mut reference));
    }

    #[test]
    #[should_panic(expected = "async resume needs the checkpointed exchange frame")]
    fn async_resume_without_the_frame_is_refused() {
        let cfg = async_cfg();
        let mut first = whole_grid(&cfg);
        first.step(&mut InMemoryExchange);
        let engines = (0..4)
            .map(|k| {
                let cut = first.capture_cut(k, None);
                CellEngine::from_state(&cfg, toy_data(&cfg), &cut)
            })
            .collect();
        Pipeline::new(&cfg, engines, Telemetry::disabled()).resume_from(Vec::new());
    }

    /// Replace cell 2 at the top of iteration 3 by a fresh engine that
    /// rejoins at round 5, and return the calls made from then on through
    /// iteration 5.
    fn replace_and_rejoin(cfg: &TrainConfig) -> (Vec<Call>, Vec<Call>) {
        let mut pipeline = whole_grid(cfg);
        let mut script = Script::default();
        steps(&mut pipeline, &mut script, 3);
        let before = script.0.len();

        let frozen = pipeline.latest_frame().to_vec();
        pipeline.engines_mut()[2] = fresh_engine(cfg, 2);
        pipeline.rejoin(2, 5, frozen);
        let mut solo = 0;
        while pipeline.catching_up() {
            pipeline.step(&mut script);
            solo += 1;
        }
        assert_eq!(solo, 5, "the replacement trains iterations 0..5 on its own");
        let during_catch_up = script.0[before..].to_vec();
        assert_eq!(pipeline.iteration(), 3, "the survivors never left their cadence");

        let before = script.0.len();
        steps(&mut pipeline, &mut script, 3);
        assert_eq!(pipeline.iteration(), 6);
        assert!(pipeline.engines().iter().all(|e| e.iterations_done() == 6));
        (during_catch_up, script.0[before..].to_vec())
    }

    #[test]
    fn catch_up_touches_no_exchange_and_the_rejoiner_sits_out_the_window() {
        let (during_catch_up, after) = replace_and_rejoin(&TrainConfig::smoke(2));
        assert_eq!(during_catch_up, []);
        assert_eq!(
            after,
            [Begin(3), Complete(3), Begin(4), Complete(4), Begin(5), Complete(5)]
        );

        // Async: iteration 5 still completes generation 4 for the survivors
        // while the rejoiner consumes the death-frame.
        let (during_catch_up, after) = replace_and_rejoin(&async_cfg());
        assert_eq!(during_catch_up, []);
        assert_eq!(
            after,
            [Complete(2), Begin(3), Complete(3), Begin(4), Complete(4), Begin(5)]
        );
    }

    #[test]
    fn a_lone_rejoiner_skips_the_generation_it_never_began() {
        // One rank of a 2×2 grid, as a replacement slave runs it: catch up
        // to round 2, then under async consume the death-frame — never
        // completing generation 1, which this rank did not begin — and
        // complete generation 2 before posting generation 3.
        let cfg = async_cfg();
        let frozen: Vec<FrameSlot> = (0..4)
            .map(|c| Some(EncodedSnapshot::new((&fresh_engine(&cfg, c).snapshot()).into())))
            .collect();
        let mut pipeline =
            Pipeline::new(&cfg, vec![fresh_engine(&cfg, 3)], Telemetry::disabled());
        pipeline.rejoin(0, 2, frozen.clone());

        let mut peers = Peers(Vec::new(), frozen);
        for _ in 0..4 {
            let (_, next) = pipeline.engines_and_next_frame();
            assert_eq!(next.len(), 4, "iteration {}", peers.0.len());
            pipeline.step(&mut peers);
        }
        assert_eq!(pipeline.iteration(), 4);
        assert_eq!(peers.0, [Begin(2), Complete(2), Begin(3)]);
    }

    /// Generation 0 of a 4×4 async grid — every cell's initial snapshot —
    /// and the grid one iteration in, holding it as its next frame.
    fn grid_4x4_after_one_iteration() -> (TrainConfig, Pipeline, Vec<FrameSlot>) {
        let cfg = TrainConfig::smoke(4).with_exchange(ExchangeMode::Async);
        let mut grid = whole_grid(&cfg);
        grid.step(&mut InMemoryExchange);
        let full = grid.latest_frame().to_vec();
        assert!(full.iter().all(Option::is_some), "a whole grid reads every slot");
        (cfg, grid, full)
    }

    /// `frame` with every slot outside `keep` emptied.
    fn only(frame: &[FrameSlot], keep: &[usize]) -> Vec<FrameSlot> {
        let sparse =
            |(slot, snap): (usize, &FrameSlot)| snap.clone().filter(|_| keep.contains(&slot));
        frame.iter().enumerate().map(sparse).collect()
    }

    #[test]
    fn a_cut_carries_exactly_the_slots_its_cell_reads_whoever_takes_it() {
        let (cfg, mut grid, full) = grid_4x4_after_one_iteration();
        for k in [0, 5, 15] {
            let reads = crate::topology::Grid::from_config(&cfg.grid).neighbors(k);
            let cut = grid.capture_cut(k, None);
            assert_eq!(cut.exchange_frame, only(&full, &reads), "cell {k}");
            assert_eq!(cut.validate(&cfg), Ok(()));
            // The cut shares the frame's buffers: nothing was copied.
            for &slot in &reads {
                let at = |frame: &[FrameSlot]| frame[slot].as_ref().unwrap().payload().as_ptr();
                assert_eq!(at(&cut.exchange_frame), at(&full), "cell {k} slot {slot}");
            }

            // The hook form the sequential and simulated drivers commit
            // through, into a recycled buffer that held all sixteen slots.
            let mut recycled = cut.clone();
            recycled.exchange_frame = full.clone();
            let (engines, frame) = grid.engines_and_next_frame();
            assert_eq!(capture_with_frame(&engines[k], frame, Some(recycled)), cut);

            // One rank of the same grid, as a slave runs it: its frames never
            // hold more than the read set, and its cut is the same bytes.
            let mut rank =
                Pipeline::new(&cfg, vec![fresh_engine(&cfg, k)], Telemetry::disabled());
            assert_eq!(rank.read_set(), {
                let mut sorted = reads.clone();
                sorted.sort_unstable();
                sorted
            });
            rank.step(&mut Peers(Vec::new(), only(&full, &reads)));
            assert_eq!(rank.capture_cut(0, None), cut, "cell {k}: lone rank vs whole grid");
        }
    }

    #[test]
    fn whole_grid_resume_merges_the_sparse_cuts_of_its_cells() {
        let (cfg, mut grid, full) = grid_4x4_after_one_iteration();
        let cuts: Vec<CellState> = (0..16).map(|k| grid.capture_cut(k, None)).collect();
        assert!(cuts.iter().all(|cut| cut.exchange_frame != full), "no cut is the whole frame");
        let resumed =
            Pipeline::whole_grid(&cfg, |_| toy_data(&cfg), Some(&cuts), Telemetry::disabled());
        assert_eq!(resumed.latest_frame(), full);
    }

    #[test]
    fn resume_drops_the_slots_an_older_cut_carries_beyond_the_read_set() {
        let (cfg, mut grid, full) = grid_4x4_after_one_iteration();
        let cut = grid.capture_cut(5, None);
        let engine = CellEngine::from_state(&cfg, toy_data(&cfg), &cut);
        let mut rank = Pipeline::new(&cfg, vec![engine], Telemetry::disabled());
        rank.resume_from(full.clone());
        assert_eq!(rank.latest_frame(), only(&full, rank.read_set()));
    }

    #[test]
    #[should_panic(
        expected = "checkpointed exchange frame lacks slot 9, which this rank reads"
    )]
    fn resume_refuses_a_frame_that_lacks_a_read_slot() {
        let (cfg, mut grid, full) = grid_4x4_after_one_iteration();
        let cut = grid.capture_cut(5, None);
        let engine = CellEngine::from_state(&cfg, toy_data(&cfg), &cut);
        let mut rank = Pipeline::new(&cfg, vec![engine], Telemetry::disabled());
        rank.resume_from(only(&full, &[1, 4, 6]));
    }

    #[test]
    #[should_panic(expected = "death-frame lacks slot 9, which this rank reads")]
    fn rejoin_refuses_a_death_frame_that_lacks_a_read_slot() {
        let (cfg, _, full) = grid_4x4_after_one_iteration();
        let mut rank = Pipeline::new(&cfg, vec![fresh_engine(&cfg, 5)], Telemetry::disabled());
        rank.rejoin(0, 2, only(&full, &[1, 4, 6]));
    }
}
