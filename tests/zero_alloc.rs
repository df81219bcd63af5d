//! The tentpole invariant of the workspace/contiguous-parameter rebuild:
//! a **steady-state training iteration performs zero heap allocations**.
//!
//! This binary installs a counting global allocator, warms a cell engine up
//! (first iterations size every recycled buffer: forward caches, delta
//! ping-pong, gradient accumulators, latent/fake/real batches, update-phase
//! fakes and logits, the mixture-ES candidate), then asserts that further
//! iterations allocate nothing at all — through the gather, mutate, train
//! and update-genomes phases, including the per-iteration mixture
//! evolution (`mixture_every = 1` in the smoke config). The same holds one
//! level up, for the driver loop around the engines: a whole-grid
//! [`Pipeline`] step over the in-memory exchange — snapshot, frame choice,
//! every cell's iteration straight off the frame — allocates nothing either,
//! in sync and async mode, with telemetry on and off.
//!
//! And one level further out, where snapshots really move: a 2×2 grid of
//! rank threads over the in-process `Fabric`, each a one-cell pipeline on a
//! `CommExchange`. There an iteration cannot be free — the rank's readers
//! still hold its previous snapshot when it encodes the next, so the new one
//! needs a buffer of its own — but that buffer is all a steady-state
//! exchange may allocate, on every rank alike: it travels to each reader by
//! reference count and sits in their frames as it arrived, and nothing is
//! decoded into a frame — so `complete` allocates nothing in either mode.
//! Both modes post and receive on the rank's own thread, so every byte the
//! process allocates over the window is a rank thread's.
//!
//! Last, the checkpoint commit: with its scratch warm it encodes the
//! captured state by reference, so what it allocates is paths and file
//! handles — less than one genome, where a copy of the state would be `2·s`
//! genomes and four Adam vectors.
//!
//! The binary runs with `harness = false` (see the root `Cargo.toml`): the
//! allocator counter is process-global, and libtest's runner thread lazily
//! allocates its completion-channel context while the test thread is
//! mid-measurement — a scheduler-dependent race that made the assertion
//! flake. Without the harness, the only threads in the process are the
//! ones this file creates, so the measured window is quiet by construction.

mod common;

use common::toy_data;
use lipizzaner::core::pipeline::capture_with_frame;
use lipizzaner::core::{
    CellEngine, CellScratch, CellSnapshot, Exchange, ExchangeMode, FrameSlot, GenomeLens,
    InMemoryExchange, Pipeline, TrainConfig,
};
use lipizzaner::mpi::comm::Fabric;
use lipizzaner::mpi::Comm;
use lipizzaner::runtime::checkpoint::write_cell_state_with;
use lipizzaner::runtime::comm_manager::{CommExchange, CommManager};
use lipizzaner::telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// Counts every allocation request (alloc / alloc_zeroed / realloc) and the
/// bytes it asked for — process-wide and per thread; frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(requests, bytes)` of this thread. Const-initialised and without a
    /// destructor, so touching it from inside the allocator allocates
    /// nothing and is safe for as long as the thread runs.
    static MINE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = MINE.try_with(|m| m.set((m.get().0 + 1, m.get().1 + bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// `(requests, bytes)` made by the calling thread so far.
fn my_allocations() -> (u64, u64) {
    MINE.with(Cell::get)
}

/// Run `iters` full iterations against fixed neighbor snapshots over the
/// recycled `scratch`, timing into `tel` — a disabled recorder (totals
/// only), or an *enabled* one (span events + latency histograms) — and
/// return the allocation count observed across them.
fn allocations_over(
    engine: &mut CellEngine,
    snaps: &[CellSnapshot],
    iters: usize,
    scratch: &mut CellScratch,
    tel: &mut Telemetry,
) -> u64 {
    let before = allocations();
    for _ in 0..iters {
        engine.run_iteration(snaps, scratch, tel);
    }
    allocations() - before
}

fn main() {
    steady_state_iteration_allocates_nothing();
    steady_state_with_telemetry_allocates_nothing();
    steady_state_pipeline_step_allocates_nothing();
    steady_state_exchange_allocates_one_payload_per_rank();
    checkpoint_commit_encodes_the_state_in_place();
    checkpoint_cut_shares_the_frame_buffers();
    println!("zero_alloc: steady-state training iterations allocate nothing — ok");
}

fn steady_state_iteration_allocates_nothing() {
    // Slightly larger than the smoke default so every code path (tournament
    // branches, disc-skip cadence, epoch wrap of the batch loader, mixture
    // evolution) runs inside the measured window.
    let mut cfg = TrainConfig::smoke(2);
    cfg.coevolution.iterations = 64; // never reached; engine driven manually
    let mut engine = CellEngine::new(0, &cfg, toy_data(&cfg));
    let snaps: Vec<CellSnapshot> = (0..4).map(|_| engine.snapshot()).collect();

    // Warmup sizes every recycled buffer (and crosses a loader epoch).
    let mut scratch = CellScratch::default();
    let mut tel = Telemetry::disabled();
    let warm = allocations_over(&mut engine, &snaps, 4, &mut scratch, &mut tel);
    assert!(warm > 0, "warmup pass should have sized the workspace buffers");

    let steady = allocations_over(&mut engine, &snaps, 6, &mut scratch, &mut tel);
    assert_eq!(
        steady, 0,
        "steady-state training iterations must perform zero heap allocations"
    );

    // Recycled snapshot capture is allocation-free too, and so is encoding
    // into an own frame slot that no reader still holds.
    let mut snap = engine.snapshot();
    let before = allocations();
    engine.snapshot_into(&mut snap);
    assert_eq!(allocations() - before, 0, "snapshot_into must not allocate");
    let mut own: FrameSlot = None;
    engine.encode_snapshot_into(&mut own);
    let before = allocations();
    engine.encode_snapshot_into(&mut own);
    assert_eq!(allocations() - before, 0, "re-encoding a sole own slot must not allocate");

    // Recycled checkpoint capture: warm once, then allocation-free.
    let mut state = engine.capture_state();
    let before = allocations();
    engine.capture_state_into(&mut state);
    assert_eq!(allocations() - before, 0, "capture_state_into must not allocate");
}

/// `--telemetry` must keep the invariant: journaling span events into the
/// fixed-capacity ring and feeding the log2 latency histograms is a few
/// stores per phase — the recorder's only allocation is its construction.
fn steady_state_with_telemetry_allocates_nothing() {
    let mut cfg = TrainConfig::smoke(2);
    cfg.coevolution.iterations = 64; // never reached; engine driven manually
    let mut engine = CellEngine::new(0, &cfg, toy_data(&cfg));
    let snaps: Vec<CellSnapshot> = (0..4).map(|_| engine.snapshot()).collect();
    let mut tel = Telemetry::enabled(1, 64); // small ring: overwrites mid-window
    let mut scratch = CellScratch::default();
    allocations_over(&mut engine, &snaps, 4, &mut scratch, &mut tel);
    let steady = allocations_over(&mut engine, &snaps, 6, &mut scratch, &mut tel);
    assert_eq!(
        steady, 0,
        "steady-state iterations with telemetry enabled must perform zero heap allocations"
    );
    assert!(tel.events().count() > 0, "the measured window journaled events");
    assert_eq!(tel.metrics.train_ns.count, 10, "train span per iteration");

    // The overflow path (ring overwrite + dropped counter) is part of the
    // steady state: a 64-slot ring has wrapped by now.
    assert!(tel.dropped() > 0, "ring should have wrapped inside the window");
}

/// The loop around the engines: a steady-state [`Pipeline::step`] of the
/// whole grid over [`InMemoryExchange`] performs zero allocations — the
/// neighbour table is precomputed, both frame tables are recycled, and each
/// cell re-encodes into its own slot's buffer, which nothing else holds.
fn steady_state_pipeline_step_allocates_nothing() {
    for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
        for traced in [false, true] {
            let mut cfg = TrainConfig::smoke(2).with_exchange(mode);
            cfg.coevolution.iterations = 64; // never reached; stepped manually
            let data = toy_data(&cfg);
            let engines =
                (0..cfg.cells()).map(|c| CellEngine::new(c, &cfg, data.clone())).collect();
            // A small ring, so the overwrite path is inside the window too.
            let tel = if traced { Telemetry::enabled(0, 64) } else { Telemetry::disabled() };
            let mut pipeline = Pipeline::new(&cfg, engines, tel);
            // Warm-up sizes both frame buffers (async alternates them) and
            // every engine's workspace.
            for _ in 0..4 {
                pipeline.step(&mut InMemoryExchange);
            }
            let before = allocations();
            for _ in 0..6 {
                pipeline.step(&mut InMemoryExchange);
            }
            assert_eq!(
                allocations() - before,
                0,
                "steady-state pipeline steps must not allocate ({mode:?}, telemetry {traced})"
            );
            assert_eq!(pipeline.iteration(), 10);
            assert_eq!(pipeline.telemetry().is_enabled(), traced);
        }
    }
}

/// A [`CommExchange`] that tallies what the calling (training) thread
/// allocates inside `complete`.
struct Metered {
    inner: CommExchange,
    in_complete: (u64, u64),
}

impl Exchange for Metered {
    fn begin(&mut self, gen: usize, frame: &[FrameSlot], costs: &[Duration]) {
        self.inner.begin(gen, frame, costs);
    }

    fn complete(&mut self, gen: usize, frame: &mut [FrameSlot], tel: &mut Telemetry) {
        let before = my_allocations();
        self.inner.complete(gen, frame, tel);
        let after = my_allocations();
        self.in_complete.0 += after.0 - before.0;
        self.in_complete.1 += after.1 - before.1;
    }
}

/// The distributed exchange in steady state: four rank threads (a 2×2
/// grid) over the in-process fabric, each stepping a one-cell pipeline on
/// its `CommExchange`. Per iteration a rank — any rank, there is no root —
/// may allocate its one outgoing payload; the only other allocation left is
/// the payload's reference count. Nothing is allocated per frame slot, per
/// reader posted to, or per snapshot byte received, nothing at all inside
/// `complete`, and nothing off the rank threads: sync and async alike post
/// and receive on the thread that trains.
fn steady_state_exchange_allocates_one_payload_per_rank() {
    const WARM: usize = 8;
    const WINDOW: u64 = 8;
    for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
        for traced in [false, true] {
            // Wide enough that a payload (tens of kilobytes) dwarfs the
            // bookkeeping, so the byte budgets below mean something.
            let mut cfg = TrainConfig::smoke(2).with_exchange(mode);
            cfg.network.hidden_units = 64;
            cfg.network.data_dim = 64;
            cfg.coevolution.iterations = 64; // never reached; stepped manually
            let cells = cfg.cells();
            let data = toy_data(&cfg);
            let wire = CellEngine::new(0, &cfg, data.clone()).snapshot().wire_size() as u64;
            // The reference counts (a few dozen bytes each) must fit in the
            // 10 % slack below, which a second payload-sized buffer cannot.
            assert!(wire > 10_000, "payload too small for the budgets to bite");

            // World rank 0 is the (absent) master; the slaves never talk to it.
            let fabric = Fabric::new(cells + 1);
            let barrier = Barrier::new(cells);
            let window_total = AtomicU64::new(0);
            let per_rank: Vec<((u64, u64), (u64, u64))> = std::thread::scope(|s| {
                let ranks: Vec<_> = (0..cells)
                    .map(|cell| {
                        let (cfg, data, fabric) = (&cfg, &data, fabric.clone());
                        let (barrier, window_total) = (&barrier, &window_total);
                        s.spawn(move || {
                            let cm = CommManager::new(Comm::world(fabric, cell + 1));
                            let tel = if traced {
                                Telemetry::enabled(cell as u32 + 1, 64)
                            } else {
                                Telemetry::disabled()
                            };
                            let engine = CellEngine::new(cell, cfg, data.clone());
                            let mut pipeline = Pipeline::new(cfg, vec![engine], tel);
                            let mut ex = Metered {
                                inner: cm.exchange(
                                    None,
                                    pipeline.read_set(),
                                    GenomeLens::of(cfg),
                                ),
                                in_complete: (0, 0),
                            };
                            for _ in 0..WARM {
                                pipeline.step(&mut ex);
                            }
                            // Every rank is warm before the window opens,
                            // and still inside it until every rank is done.
                            barrier.wait();
                            if cell == 0 {
                                window_total
                                    .store(BYTES.load(Ordering::SeqCst), Ordering::SeqCst);
                            }
                            barrier.wait();
                            ex.in_complete = (0, 0);
                            let before = my_allocations();
                            for _ in 0..WINDOW {
                                pipeline.step(&mut ex);
                            }
                            let after = my_allocations();
                            barrier.wait();
                            if cell == 0 {
                                let opened = window_total.load(Ordering::SeqCst);
                                window_total.store(
                                    BYTES.load(Ordering::SeqCst) - opened,
                                    Ordering::SeqCst,
                                );
                            }
                            barrier.wait();
                            ((after.0 - before.0, after.1 - before.1), ex.in_complete)
                        })
                    })
                    .collect();
                ranks.into_iter().map(|h| h.join().expect("rank thread")).collect()
            });

            let what = format!("({mode:?}, telemetry {traced})");
            for (cell, ((allocs, bytes), in_complete)) in per_rank.iter().enumerate() {
                // The training thread: its payload and that payload's
                // reference count.
                assert!(
                    *bytes * 10 <= WINDOW * wire * 11,
                    "cell {cell} allocated {bytes} B over {WINDOW} iterations {what}"
                );
                assert!(
                    *allocs <= WINDOW * 3 + 2,
                    "cell {cell}: {allocs} allocations over {WINDOW} iterations {what}"
                );
                // Inside `complete` a rank allocates nothing in either
                // mode: each part stays in the buffer it arrived in, and
                // only its handle moves into the frame.
                assert_eq!(
                    *in_complete,
                    (0, 0),
                    "cell {cell} allocated {in_complete:?} inside complete {what}"
                );
            }
            // Every thread of the process together is the rank threads
            // alone — no other thread moves a snapshot — and they allocate
            // one payload per rank per generation, and no body.
            let total = window_total.load(Ordering::SeqCst);
            let on_ranks: u64 = per_rank.iter().map(|((_, bytes), _)| bytes).sum();
            assert_eq!(
                total,
                on_ranks,
                "{} B allocated off the rank threads over {WINDOW} iterations {what}",
                total.abs_diff(on_ranks)
            );
            assert!(
                total * 10 <= WINDOW * cells as u64 * wire * 11,
                "the grid allocated {total} B over {WINDOW} iterations {what}"
            );
        }
    }
}

fn checkpoint_commit_encodes_the_state_in_place() {
    let cfg = TrainConfig::smoke(2).with_exchange(ExchangeMode::Async);
    let engine = CellEngine::new(0, &cfg, toy_data(&cfg));
    let mut state = engine.capture_state();
    let mut own: FrameSlot = None;
    engine.encode_snapshot_into(&mut own);
    state.exchange_frame = vec![own; cfg.cells()];
    let genome_bytes =
        4 * state.gen_members[0].genome.len().min(state.disc_members[0].genome.len());

    let dir = std::env::temp_dir().join("lipiz_zero_alloc_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut scratch = Vec::new();
    write_cell_state_with(&dir, &state, &mut scratch).expect("warm-up commit");
    let before = my_allocations();
    write_cell_state_with(&dir, &state, &mut scratch).expect("measured commit");
    let bytes = my_allocations().1 - before.1;
    assert!(
        bytes < genome_bytes as u64,
        "a warm checkpoint commit allocated {bytes} B; one genome is {genome_bytes} B"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint cut carries the frame its next iteration consumes as
/// handles on the frame's own buffers: each slot the cell reads points at
/// the bytes the frame holds, and a capture into a recycled state allocates
/// nothing — nothing is decoded or copied.
fn checkpoint_cut_shares_the_frame_buffers() {
    let mut cfg = TrainConfig::smoke(2).with_exchange(ExchangeMode::Async);
    cfg.coevolution.iterations = 64; // never reached; stepped manually
    let mut grid = Pipeline::whole_grid(&cfg, |_| toy_data(&cfg), None, Telemetry::disabled());
    for _ in 0..2 {
        grid.step(&mut InMemoryExchange);
    }
    let (engines, frame) = grid.engines_and_next_frame();
    let engine = &engines[1];
    let recycled = capture_with_frame(engine, frame, None);
    let before = my_allocations();
    let cut = capture_with_frame(engine, frame, Some(recycled));
    let bytes = my_allocations().1 - before.1;
    assert_eq!(bytes, 0, "a recycled cut capture allocated {bytes} B");

    let reads = engine.neighbor_slots();
    for (slot, (held, src)) in cut.exchange_frame.iter().zip(frame).enumerate() {
        let at = |slot: &FrameSlot| slot.as_ref().map(|s| s.payload().as_ptr());
        if reads.contains(&slot) {
            assert!(at(held).is_some(), "the cut lacks slot {slot}");
            assert_eq!(at(held), at(src), "slot {slot} is a copy, not the frame's buffer");
        } else {
            assert!(
                held.is_none(),
                "the cut carries slot {slot}, which its cell does not read"
            );
        }
    }
}
