//! The memory shape of a rank: what one more cell costs.
//!
//! A cell's own state is its two sub-populations (the centers train in
//! their member slots), the Adam moments of its two centers, its loader's
//! sample order and the snapshot it posts to the frame. Everything else a
//! rank holds it holds once, however many cells it hosts: the dataset
//! (unless the config shards it), the training workspace with the update
//! phase's stacked scoring input (the evaluation batch and every fake
//! batch), the kernels' pack buffers. This binary installs an allocator
//! that tracks live bytes, builds [`Pipeline::whole_grid`] at
//! `TrainConfig::smoke` shapes for 1, 4 and 9 cells, steps each twice so
//! every buffer is warm, and checks that each extra cell adds its own
//! state and nothing more — within a slack smaller than the smallest thing
//! that must not be repeated per cell (one discriminator genome).
//!
//! With `shard_data` the dataset is per cell by definition: there the
//! pipeline asks for one dataset per cell and the run keeps the bytes it
//! always had.
//!
//! Like `zero_alloc`, the binary runs with `harness = false` (see the root
//! `Cargo.toml`): the counter is process-global, so no other thread may
//! allocate inside a measured window.

mod common;

use common::toy_data;
use lipizzaner::core::individual::Individual;
use lipizzaner::core::persist::save_ensemble;
use lipizzaner::core::{CellEngine, InMemoryExchange, Pipeline, TrainConfig};
use lipizzaner::data::DataPartition;
use lipizzaner::nn::{LayerSpec, MlpShape};
use lipizzaner::telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tracks the bytes currently allocated (requested sizes, not the
/// allocator's rounding).
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::SeqCst)
}

/// Bytes per `f32` and per `usize`.
const F32: i64 = 4;
const USIZE: i64 = std::mem::size_of::<usize>() as i64;

fn main() {
    each_extra_cell_adds_only_its_own_state();
    sharded_ranks_get_one_dataset_per_cell_and_keep_their_bytes();
    println!("rank_memory: one dataset and one workspace per rank — ok");
}

/// Heap bytes of a network shape: a spec and an offset pair per layer.
fn shape_bytes(shape: &MlpShape) -> i64 {
    let per_layer = std::mem::size_of::<LayerSpec>() + std::mem::size_of::<(usize, usize)>();
    (shape.num_layers() * per_layer) as i64
}

/// The live bytes a warm `side`×`side` whole-grid pipeline holds — its
/// engines, frame, scratch and the one dataset it asked for — and how
/// often it asked for data.
fn whole_grid_bytes(side: usize) -> (i64, usize) {
    let cfg = TrainConfig::smoke(side);
    let calls = AtomicUsize::new(0);
    let before = live();
    let mut pipeline = Pipeline::whole_grid(
        &cfg,
        |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            toy_data(&cfg)
        },
        None,
        Telemetry::disabled(),
    );
    for _ in 0..2 {
        pipeline.step(&mut InMemoryExchange);
    }
    let held = live() - before;
    let first = pipeline.engines()[0].dataset();
    assert!(
        pipeline.engines().iter().all(|e| Arc::ptr_eq(e.dataset(), first)),
        "{side}×{side}: every engine must share the rank's one dataset"
    );
    drop(pipeline);
    (held, calls.into_inner())
}

fn each_extra_cell_adds_only_its_own_state() {
    // Warm-up: the kernels' thread-local pack buffers are sized on first
    // use and live as long as the thread — a rank-level cost, so it must
    // not land in the first measurement alone.
    whole_grid_bytes(1);

    let cfg = TrainConfig::smoke(1);
    let net = cfg.network.to_network_config();
    let (g_shape, d_shape) = (net.generator_shape(), net.discriminator_shape());
    let (g, d) = (g_shape.param_count() as i64, d_shape.param_count() as i64);
    let s = cfg.subpopulation_size() as i64;
    let t = &cfg.training;
    // A cell's own state: the engine itself with its two network shapes,
    // both sub-populations, the two centers' Adam moments, the loader's
    // order, its posted snapshot.
    let engine = std::mem::size_of::<CellEngine>() as i64
        + shape_bytes(&g_shape)
        + shape_bytes(&d_shape);
    let members = s * (2 * std::mem::size_of::<Individual>() as i64 + (g + d) * F32);
    let moments = 2 * (g + d) * F32;
    let order = t.dataset_size as i64 * USIZE;
    let posted = (g + d) * F32;
    let own = engine + members + moments + order + posted;
    // Bookkeeping around that state (the neighbour table, frame and timing
    // slots, the loader's batch indices, the mixture weights, the
    // snapshot's header) — less than one discriminator genome, the
    // smallest copy that must not be repeated per cell.
    let slack = d * F32 - 1;

    let mut held = Vec::new();
    for side in [1, 2, 3] {
        let (bytes, calls) = whole_grid_bytes(side);
        assert_eq!(calls, 1, "{side}×{side}: make_data must run once per unsharded rank");
        held.push((side * side, bytes));
    }
    for pair in held.windows(2) {
        let ((c0, b0), (c1, b1)) = (pair[0], pair[1]);
        let per_cell = (b1 - b0) / (c1 - c0) as i64;
        println!(
            "rank_memory: {c0} → {c1} cells adds {per_cell} B per cell \
             (own state {own} B, slack {slack} B)"
        );
        assert!(
            per_cell >= own && per_cell <= own + slack,
            "{c0} → {c1} cells: {per_cell} B per extra cell, own state is {own} B \
             (+{slack} B slack); a dataset is {} B, a stacked scoring input {} B",
            t.dataset_size as i64 * cfg.network.data_dim as i64 * F32,
            (s + 1) * (t.eval_batch * cfg.network.data_dim) as i64 * F32,
        );
    }
}

/// FNV-1a 64 over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn sharded_ranks_get_one_dataset_per_cell_and_keep_their_bytes() {
    let cfg = TrainConfig::smoke(2).with_shards(true);
    let full = toy_data(&cfg);
    let calls = AtomicUsize::new(0);
    let mut pipeline = Pipeline::whole_grid(
        &cfg,
        |cell| {
            calls.fetch_add(1, Ordering::Relaxed);
            DataPartition::Shards.slice_for_cell(&full, cfg.cells(), cell, 0)
        },
        None,
        Telemetry::disabled(),
    );
    assert_eq!(calls.into_inner(), cfg.cells(), "one dataset per sharded cell");
    let engines = pipeline.engines();
    for (k, e) in engines.iter().enumerate() {
        assert_eq!(e.dataset().rows(), full.rows() / cfg.cells(), "cell {k} holds its shard");
        assert!(
            engines[..k].iter().all(|o| !Arc::ptr_eq(o.dataset(), e.dataset())),
            "cell {k} shares a shard"
        );
    }
    for _ in 0..cfg.coevolution.iterations {
        pipeline.step(&mut InMemoryExchange);
    }

    // The four cells' models, as the CLI saves them, hashed together.
    let dir = std::env::temp_dir().join("lipiz_rank_memory");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("cell.lpz");
    let mut bytes = Vec::new();
    for e in pipeline.engines() {
        save_ensemble(&path, &e.ensemble()).expect("save ensemble");
        bytes.extend(std::fs::read(&path).expect("read ensemble"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fnv64(&bytes), SHARDED_LPZ_FNV, "sharded 2×2 models drifted");
}

/// [`fnv64`] of the four sharded smoke-run models, as the code before the
/// shared-dataset pipeline wrote them.
const SHARDED_LPZ_FNV: u64 = 0xfdb8_bfd7_35f1_d83a;
