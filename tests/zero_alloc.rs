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
//! neighbour fan-out, every cell's iteration — allocates nothing either,
//! in sync and async mode, with telemetry on and off.
//!
//! The binary runs with `harness = false` (see the root `Cargo.toml`): the
//! allocator counter is process-global, and libtest's runner thread lazily
//! allocates its completion-channel context while the test thread is
//! mid-measurement — a scheduler-dependent race that made the assertion
//! flake. Without the harness, the only threads in the process are the
//! ones this file creates, so the measured window is quiet by construction.

use lipizzaner::core::{
    CellEngine, CellSnapshot, ExchangeMode, InMemoryExchange, Pipeline, Profiler, TrainConfig,
};
use lipizzaner::telemetry::Telemetry;
use lipizzaner::tensor::{Matrix, Pool, Rng64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation request (alloc / alloc_zeroed / realloc) made by
/// any thread in the process; frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn toy_data(cfg: &TrainConfig) -> Matrix {
    let mut rng = Rng64::seed_from(cfg.training.data_seed);
    rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
}

/// Run `iters` full iterations against fixed neighbor snapshots and return
/// the allocation count observed across them.
fn allocations_over(engine: &mut CellEngine, snaps: &[CellSnapshot], iters: usize) -> u64 {
    let mut prof = Profiler::new();
    let before = allocations();
    for _ in 0..iters {
        engine.run_iteration(snaps, &mut prof);
    }
    allocations() - before
}

/// Like [`allocations_over`], but recording every iteration into an
/// *enabled* telemetry journal (span events + latency histograms).
fn allocations_over_traced(
    engine: &mut CellEngine,
    snaps: &[CellSnapshot],
    iters: usize,
    tel: &mut Telemetry,
) -> u64 {
    let mut prof = Profiler::new();
    let before = allocations();
    for _ in 0..iters {
        engine.run_iteration_with(snaps, &mut prof, tel);
    }
    allocations() - before
}

fn main() {
    steady_state_iteration_allocates_nothing();
    steady_state_with_telemetry_allocates_nothing();
    steady_state_pipeline_step_allocates_nothing();
    println!("zero_alloc: steady-state training iterations allocate nothing — ok");
}

fn steady_state_iteration_allocates_nothing() {
    // Slightly larger than the smoke default so every code path (tournament
    // branches, disc-skip cadence, epoch wrap of the batch loader, mixture
    // evolution) runs inside the measured window.
    let mut cfg = TrainConfig::smoke(2);
    cfg.coevolution.iterations = 64; // never reached; engine driven manually
    let data = toy_data(&cfg);

    // --- serial pool: the strict assertion --------------------------------
    let mut engine = CellEngine::new(0, &cfg, data.clone());
    let snaps: Vec<CellSnapshot> = (0..4).map(|_| engine.snapshot()).collect();

    // Warmup sizes every recycled buffer (and crosses a loader epoch).
    let warm = allocations_over(&mut engine, &snaps, 4);
    assert!(warm > 0, "warmup pass should have sized the workspace buffers");

    let steady = allocations_over(&mut engine, &snaps, 6);
    assert_eq!(
        steady, 0,
        "steady-state serial training iterations must perform zero heap allocations"
    );

    // Recycled snapshot capture is allocation-free too.
    let mut snap = engine.snapshot();
    let before = allocations();
    engine.snapshot_into(&mut snap);
    assert_eq!(allocations() - before, 0, "snapshot_into must not allocate");

    // Recycled checkpoint capture: warm once, then allocation-free.
    let mut state = engine.capture_state();
    let before = allocations();
    engine.capture_state_into(&mut state);
    assert_eq!(allocations() - before, 0, "capture_state_into must not allocate");

    // --- pooled engine: dispatch must not allocate either -----------------
    // (Uncapped so the chunked kernel paths actually run on a 1-core CI
    // host; the job hand-off is a condvar wake, not an allocation.)
    let mut pooled = CellEngine::with_pool(0, &cfg, data, Pool::uncapped(2));
    let psnaps: Vec<CellSnapshot> = (0..4).map(|_| pooled.snapshot()).collect();
    // A long warm-up: the kernels' pack buffers are thread-local, and which
    // worker draws which chunk is up to the scheduler — on a multi-core host
    // a worker can meet its largest panel late. (With 4 warm-up iterations
    // this assertion failed about every third run on two cores.)
    allocations_over(&mut pooled, &psnaps, 64);
    let steady = allocations_over(&mut pooled, &psnaps, 6);
    assert_eq!(
        steady, 0,
        "steady-state pooled training iterations must perform zero heap allocations"
    );
}

/// `--telemetry` must keep the invariant: journaling span events into the
/// fixed-capacity ring and feeding the log2 latency histograms is a few
/// stores per phase — the recorder's only allocation is its construction.
fn steady_state_with_telemetry_allocates_nothing() {
    let mut cfg = TrainConfig::smoke(2);
    cfg.coevolution.iterations = 64; // never reached; engine driven manually
    let data = toy_data(&cfg);

    // --- serial, telemetry on --------------------------------------------
    let mut engine = CellEngine::new(0, &cfg, data.clone());
    let snaps: Vec<CellSnapshot> = (0..4).map(|_| engine.snapshot()).collect();
    let mut tel = Telemetry::enabled(1, 64); // small ring: overwrites mid-window
    allocations_over_traced(&mut engine, &snaps, 4, &mut tel);
    let steady = allocations_over_traced(&mut engine, &snaps, 6, &mut tel);
    assert_eq!(
        steady, 0,
        "steady-state iterations with telemetry enabled must perform zero heap allocations"
    );
    assert!(tel.events().count() > 0, "the measured window journaled events");
    assert_eq!(tel.metrics.train_ns.count, 10, "train span per iteration");

    // The overflow path (ring overwrite + dropped counter) is part of the
    // steady state: a 64-slot ring has wrapped by now.
    assert!(tel.dropped() > 0, "ring should have wrapped inside the window");

    // --- pooled, telemetry on --------------------------------------------
    let mut pooled = CellEngine::with_pool(0, &cfg, data, Pool::uncapped(2));
    let psnaps: Vec<CellSnapshot> = (0..4).map(|_| pooled.snapshot()).collect();
    let mut ptel = Telemetry::enabled(1, 64);
    allocations_over_traced(&mut pooled, &psnaps, 64, &mut ptel); // see the untraced pooled case
    let steady = allocations_over_traced(&mut pooled, &psnaps, 6, &mut ptel);
    assert_eq!(
        steady, 0,
        "steady-state pooled iterations with telemetry enabled must perform zero heap allocations"
    );
}

/// The loop around the engines: a steady-state [`Pipeline::step`] of the
/// whole grid over [`InMemoryExchange`] performs zero allocations — the
/// neighbour table is precomputed and both frame buffers are recycled.
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
            // Warm-up sizes both frame buffers (async alternates them), the
            // fan-out scratch and every engine's workspace.
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
