//! The system under test. **Every** `lipizzaner::` symbol the benchmark
//! touches is named in this one file, so the list in the README — the
//! benchmark-pinned surface a later simplicity PR must keep, or change
//! through a `benchmark` issue first — can be read off the `use` block
//! below. Nothing here reaches past the facade crate's public items.

use crate::alloc;
use crate::probe::{self, Samples};
use crate::record::{Fnv64, RankClock, RunRecord, SimFacts};
use crate::spec::{Workload, DATASET_SIZE, MIXTURE_EVERY};
use crate::trace::{now_us, Tracer};
use lipizzaner::cluster::{SimulatedCluster, SimulationOptions};
use lipizzaner::core::persist::save_ensemble;
use lipizzaner::core::sequential::SequentialTrainer;
use lipizzaner::core::{
    CellEngine, CellSnapshot, CellState, EnsembleModel, ExchangeMode, GridConfig,
    NeighborhoodPattern, Routine, TrainConfig, TrainReport,
};
use lipizzaner::data::{BatchLoader, SynthDigits};
use lipizzaner::mpi::wire::Wire;
use lipizzaner::mpi::{Comm, TcpFabric, Universe};
use lipizzaner::nn::{
    gan, Adam, Discriminator, GanLoss, Generator, NetworkConfig, TrainWorkspace,
};
use lipizzaner::runtime::checkpoint::{read_cell_state, write_cell_state, CheckpointWriter};
use lipizzaner::runtime::driver::{run_tcp_master, run_tcp_slave};
use lipizzaner::runtime::master::MasterOutcome;
use lipizzaner::runtime::protocol::SnapshotMsg;
use lipizzaner::runtime::slave::run_slave;
use lipizzaner::runtime::{run_distributed, CommManager, DistributedOptions, SlaveState};
use lipizzaner::telemetry::{SpanKind, Telemetry, TelemetrySummary};
use lipizzaner::tensor::{ops, ActKind, Matrix, Pool, Rng64};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---- the shared input T1 ---------------------------------------------------

/// The library's run configuration, for modules that only pass it along.
pub type Config = TrainConfig;

/// `T1`: the paper's Table I configuration on the workload's grid, cut to
/// `iterations`, seeded from the benchmark's `--seed`. The program under
/// test only ever sees this config and the data generated from it.
pub fn t1_config(
    w: &Workload,
    iterations: usize,
    seed: u64,
    telemetry_dir: Option<&Path>,
) -> TrainConfig {
    let mut cfg = TrainConfig::paper_table1();
    cfg.grid = GridConfig { rows: w.rows, cols: w.cols, pattern: NeighborhoodPattern::Cross5 };
    cfg.coevolution.iterations = iterations;
    cfg.coevolution.mixture_every = MIXTURE_EVERY;
    cfg.training.batches_per_iteration = w.batches_per_iteration;
    cfg.training.eval_batch = w.eval_batch;
    cfg.training.dataset_size = DATASET_SIZE;
    cfg.training.workers_per_cell = 1;
    cfg.training.data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDA7A;
    cfg.seed = seed;
    if w.async_exchange {
        cfg = cfg.with_exchange(ExchangeMode::Async);
    }
    if let Some(dir) = telemetry_dir {
        cfg = cfg.with_telemetry(dir.to_string_lossy(), 0);
    }
    cfg
}

/// Every cell's dataset, regenerated from the config alone (Fig. 3's
/// "download data" step: each rank rebuilds the same bytes locally).
fn make_data(cfg: &TrainConfig, tracer: &Tracer, parent: Option<u64>) -> Matrix {
    tracer.span("data.generate", parent, || {
        SynthDigits::generate(cfg.training.dataset_size, cfg.training.data_seed).images
    })
}

// ---- reading a run's results ----------------------------------------------

fn fingerprint(genomes: &[Vec<f32>], weights: &[f32]) -> u64 {
    let mut h = Fnv64::new();
    for g in genomes {
        h.f32s(g);
    }
    h.f32s(weights);
    h.finish()
}

fn model_fingerprints(models: &[EnsembleModel]) -> Vec<u64> {
    models.iter().map(|m| fingerprint(&m.genomes, m.weights.weights())).collect()
}

const ROWS: [Routine; 4] =
    [Routine::Gather, Routine::Mutate, Routine::Train, Routine::UpdateGenomes];

/// Table IV rows in ms per cell-iteration. `report.profile` holds whole-run
/// seconds — summed over cells for the sequential driver, the per-rank mean
/// for the others — so `cells_per_rank` is the divisor that differs.
fn profile_ms(report: &TrainReport, cells_per_rank: usize) -> [f64; 4] {
    let denom = (report.iterations.max(1) * cells_per_rank) as f64;
    ROWS.map(|r| 1000.0 * report.profile.seconds(r) / denom)
}

fn fitness_finite(report: &TrainReport) -> bool {
    report.cells.iter().all(|c| c.gen_fitness.is_finite() && c.disc_fitness.is_finite())
}

fn telemetry_facts(rec: &mut RunRecord, summary: &TelemetrySummary) {
    rec.gather_p50_ms = summary.gather_ns.quantile(0.5) as f64 / 1e6;
    rec.gather_p99_ms = summary.gather_ns.quantile(0.99) as f64 / 1e6;
    rec.overlap_fraction = summary.overlap_fraction();
    rec.dropped_events = summary.dropped_events as f64;
}

/// Steady-state allocation counting at a driver's per-iteration hook. The
/// hook fires *after* iteration `iter`; iterations ≥ 2 are counted from the
/// previous hook's exit to this hook's entry, so nothing the harness itself
/// allocates inside the hook is charged to the library.
struct SteadyAllocs {
    last_exit: (u64, u64),
    allocs: u64,
    bytes: u64,
    iters: usize,
}

impl SteadyAllocs {
    fn new() -> Self {
        Self { last_exit: alloc::counters(), allocs: 0, bytes: 0, iters: 0 }
    }

    fn enter(&mut self, iter: usize) {
        let now = alloc::counters();
        if iter >= 2 {
            self.allocs += now.0 - self.last_exit.0;
            self.bytes += now.1 - self.last_exit.1;
            self.iters += 1;
        }
    }

    fn exit(&mut self) {
        self.last_exit = alloc::counters();
    }

    fn record(&self, rec: &mut RunRecord) {
        let n = self.iters.max(1) as f64;
        rec.steady_allocs = self.allocs as f64 / n;
        rec.steady_alloc_bytes = self.bytes as f64 / n;
        rec.steady_iters = self.iters;
    }
}

/// One span per hook firing: iteration `iter` lasted from the previous
/// firing (or the driver call's start) to now.
struct IterationSpans<'a> {
    tracer: &'a Tracer,
    parent: u64,
    open: Option<crate::trace::Open>,
}

impl<'a> IterationSpans<'a> {
    fn new(tracer: &'a Tracer, parent: u64) -> Self {
        Self { tracer, parent, open: Some(tracer.open("driver.iteration", Some(parent))) }
    }

    fn fired(&mut self) {
        if let Some(open) = self.open.take() {
            self.tracer.close(open);
        }
        self.open = Some(self.tracer.open("driver.iteration", Some(self.parent)));
    }
}

// ---- the four drivers ------------------------------------------------------

/// `SequentialTrainer::run_hooked` — the single-core column.
pub fn run_sequential(cfg: &TrainConfig, tracer: &Tracer, root: u64) -> RunRecord {
    let data = make_data(cfg, tracer, Some(root));
    let mut trainer = tracer
        .span("driver.construct", Some(root), || SequentialTrainer::new(cfg, |_| data.clone()));
    drop(data);

    let call = tracer.open("driver.call", Some(root));
    let mut steady = SteadyAllocs::new();
    let mut iters = IterationSpans::new(tracer, call.id);
    let report = trainer.run_hooked(|iter, _, _| {
        steady.enter(iter);
        iters.fired();
        steady.exit();
    });
    tracer.close(call);

    let cells = cfg.cells();
    let rows = profile_ms(&report, cells);
    let mut rec = RunRecord {
        iterations: report.iterations,
        train_wall_s: report.wall_seconds,
        cell_fnv: model_fingerprints(&trainer.ensembles()),
        fitness_finite: fitness_finite(&report),
        profile_ms: rows,
        explained_ms: cells as f64 * rows.iter().sum::<f64>(),
        gather_rank_ms: cells as f64 * rows[0],
        ..RunRecord::default()
    };
    steady.record(&mut rec);
    if cfg.telemetry.is_enabled() {
        telemetry_facts(&mut rec, &trainer.telemetry_summary());
    }
    rec
}

/// A rank's dataset, and that rank's clock: the library starts a slave's
/// clock immediately before it asks for its data, so the moment this is
/// entered is the moment `SlaveResult.wall_seconds` starts counting.
fn make_data_clocked(
    cfg: &TrainConfig,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Matrix, RankClock) {
    let (start_us, t0) = (now_us(), Instant::now());
    let data = make_data(cfg, tracer, parent);
    (data, RankClock { start_us, data_seconds: t0.elapsed().as_secs_f64() })
}

/// `clocks` in cell order; `returned_us` is when the master call returned.
fn distributed_record(
    cfg: &TrainConfig,
    outcome: &MasterOutcome,
    clocks: &[RankClock],
    returned_us: u64,
) -> RunRecord {
    let rows = profile_ms(&outcome.report, 1);
    let mut rec = RunRecord {
        iterations: outcome.report.iterations,
        cell_fnv: outcome
            .slave_results
            .iter()
            .map(|r| fingerprint(&r.ensemble, &r.mixture))
            .collect(),
        fitness_finite: fitness_finite(&outcome.report)
            && outcome.slave_results.len() == cfg.cells(),
        profile_ms: rows,
        explained_ms: rows.iter().sum(),
        gather_rank_ms: rows[0],
        slave_walls_s: outcome.slave_results.iter().map(|r| r.wall_seconds).collect(),
        ..RunRecord::default()
    };
    rec.settle_rank_clocks(clocks, returned_us);
    if let Some(summary) = &outcome.telemetry {
        telemetry_facts(&mut rec, summary);
    }
    rec
}

/// `run_distributed` — in-process fabric, one slave thread per cell plus
/// the master. Every rank regenerates its dataset, as real ranks do.
pub fn run_threaded(cfg: &TrainConfig, tracer: &Tracer, root: u64) -> RunRecord {
    let call = tracer.open("driver.call", Some(root));
    let call_id = call.id;
    let before = alloc::counters().0;
    let clocks = Mutex::new(vec![RankClock::default(); cfg.cells()]);
    let outcome = run_distributed(
        cfg,
        |cell, cfg| {
            let (data, clock) = make_data_clocked(cfg, tracer, Some(call_id));
            clocks.lock().expect("no rank panics while holding this")[cell] = clock;
            data
        },
        DistributedOptions::default(),
    );
    let returned_us = now_us();
    let allocs = alloc::counters().0 - before;
    tracer.close(call);
    let clocks = clocks.into_inner().expect("ranks have been joined");
    let mut rec = distributed_record(cfg, &outcome, &clocks, returned_us);
    rec.rank_allocs = allocs as f64 / (cfg.cells() * rec.iterations.max(1)) as f64;
    rec
}

/// A listener for [`run_tcp_master_on`], and the address slaves dial.
pub fn tcp_listener() -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// `run_tcp_master` — the master side of the multi-process run. The caller
/// has already started one slave OS process per cell against `listener`;
/// `reap` waits for them once the master returns and hands back what they
/// reported about their clocks, in cell order.
pub fn run_tcp_master_on(
    listener: TcpListener,
    cfg: &TrainConfig,
    tracer: &Tracer,
    root: u64,
    reap: impl FnOnce() -> Result<Vec<RankClock>, String>,
) -> Result<RunRecord, String> {
    let outcome = tracer
        .span("driver.call", Some(root), || {
            run_tcp_master(listener, cfg, DistributedOptions::default())
        })
        .map_err(|e| format!("run_tcp_master: {e}"))?;
    let returned_us = now_us();
    Ok(distributed_record(cfg, &outcome, &reap()?, returned_us))
}

/// What a slave process knows that its master cannot see.
pub struct SlaveFacts {
    /// The grid cell the master assigned.
    pub cell: usize,
    pub clock: RankClock,
    /// Allocations per iteration (set-up included; informational).
    pub allocs_per_iter: f64,
}

/// How long a lingering slave waits for the master to close its side.
const MASTER_CLOSE_PATIENCE: Duration = Duration::from_secs(10);

/// `run_tcp_slave`'s own five calls, with one wait put between the last
/// two: the transport is not half-closed until the master has closed its
/// side. `run_tcp_slave` half-closes the moment its result is sent, and the
/// master's final gather takes a pending rank whose connection has reached
/// EOF for dead even when that rank's result was delivered a moment before
/// (README, finding 1) — about one `tcp_1x2_sync` run in a hundred aborted
/// there. A gated workload may not fail at random, so its slaves linger.
fn run_tcp_slave_lingering(
    addr: &str,
    make_data: impl Fn(usize, &TrainConfig) -> Matrix + Sync,
) -> std::io::Result<SlaveState> {
    let fabric = TcpFabric::slave(addr)?;
    let rank = fabric.rank();
    let cm = CommManager::new(Universe::attach(fabric.clone(), rank));
    let state = run_slave(&cm, &make_data, &format!("node{rank:02}"));
    let patience = Instant::now() + MASTER_CLOSE_PATIENCE;
    while !cm.connection_dead(0) && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    fabric.shutdown_when_drained();
    Ok(state)
}

/// A slave OS process's whole life: `run_tcp_slave` as it is, or — with
/// `linger` — [`run_tcp_slave_lingering`].
pub fn run_tcp_slave_to(
    addr: &str,
    linger: bool,
    tracer: &Tracer,
    root: u64,
) -> std::io::Result<SlaveFacts> {
    let iterations = AtomicUsize::new(1);
    let assigned = Mutex::new((0usize, RankClock::default()));
    let before = alloc::counters().0;
    let make_data = |cell: usize, cfg: &TrainConfig| {
        iterations.store(cfg.coevolution.iterations.max(1), Ordering::Relaxed);
        let (data, clock) = make_data_clocked(cfg, tracer, Some(root));
        *assigned.lock().expect("only this thread locks it") = (cell, clock);
        data
    };
    let state = tracer.span("driver.call", Some(root), || {
        if linger {
            run_tcp_slave_lingering(addr, make_data)
        } else {
            run_tcp_slave(addr, make_data)
        }
    })?;
    if state != SlaveState::Finished {
        return Err(std::io::Error::other(format!("slave ended in state {state:?}")));
    }
    let (cell, clock) = assigned.into_inner().expect("slave threads have ended");
    let allocs = (alloc::counters().0 - before) as f64;
    Ok(SlaveFacts {
        cell,
        clock,
        allocs_per_iter: allocs / iterations.load(Ordering::Relaxed) as f64,
    })
}

/// `SimulatedCluster::cluster_uy(SimulationOptions::default())` — the
/// `cluster` driver, every `CellEngine` phase on virtual rank clocks.
/// (`run` is `run_resumable` with no resume state and an empty hook; the
/// hook is what the harness spans and the allocation count ride on.)
pub fn run_simulated(cfg: &TrainConfig, tracer: &Tracer, root: u64) -> RunRecord {
    let data = make_data(cfg, tracer, Some(root));
    let sim = tracer.span("driver.construct", Some(root), || {
        SimulatedCluster::cluster_uy(SimulationOptions::default())
    });

    let call = tracer.open("driver.call", Some(root));
    let mut steady = SteadyAllocs::new();
    let mut iters = IterationSpans::new(tracer, call.id);
    let outcome = sim.run_resumable(
        cfg,
        |_| data.clone(),
        None,
        |iter, _, _| {
            steady.enter(iter);
            iters.fired();
            steady.exit();
        },
    );
    tracer.close(call);

    let cells = cfg.cells();
    let rows = profile_ms(&outcome.report, 1);
    // Compute rows are host seconds × the rank's best-effort speed factor
    // (one node ⇒ one factor); the gather row is purely virtual. So the
    // host time the rows explain is the compute rows scaled back.
    let speed = outcome.placement.speed_of(1);
    let mut rec = RunRecord {
        iterations: outcome.report.iterations,
        // `host_seconds` spans engine construction too — the simulator has
        // no separate training-loop clock on the host.
        train_wall_s: outcome.host_seconds,
        cell_fnv: model_fingerprints(&outcome.ensembles),
        fitness_finite: fitness_finite(&outcome.report),
        profile_ms: rows,
        explained_ms: cells as f64 * (rows[1] + rows[2] + rows[3]) / speed,
        gather_rank_ms: rows[0],
        sim: Some(SimFacts {
            virtual_wall_s: outcome.virtual_wall(),
            allgather_virtual_s: outcome.comm.allgather_seconds,
            allgather_bytes: outcome.comm.allgather_bytes as f64,
            imbalance: outcome.imbalance(),
        }),
        ..RunRecord::default()
    };
    steady.record(&mut rec);
    rec
}

// ---- probes: single calls at T1 shapes ------------------------------------

/// A probe-only `T1` config on a 3×3 grid (five-slot sub-populations, four
/// neighbours), batch 100.
fn probe_config(seed: u64) -> TrainConfig {
    let w = crate::spec::workload("thr_3x3_sync").expect("3x3 workload");
    let mut cfg = t1_config(w, 1, seed, None);
    cfg.training.eval_batch = 100;
    cfg
}

/// One cell engine's snapshot at `T1` scale, wire-encoded.
fn encoded_snapshot(engine: &mut CellEngine) -> (CellSnapshot, Vec<u8>) {
    let mut snap = CellSnapshot::empty();
    engine.snapshot_into(&mut snap);
    let mut wire = Vec::new();
    SnapshotMsg::encode_snapshot(&snap, &mut wire);
    (snap, wire)
}

/// Rank 0's samples of `calls` timed collectives run by `ranks` threads;
/// every rank makes the same calls, as a collective requires.
fn time_collective(
    ranks: usize,
    calls: usize,
    payload: &[u8],
    op: impl Fn(&Comm, &[u8]) + Send + Sync,
) -> Samples {
    let mut per_rank =
        Universe::run(ranks, |comm: Comm| probe::time_n(calls, || op(&comm, payload)));
    per_rank.swap_remove(0)
}

/// The same blocking allgather over `TcpFabric` on localhost: a master
/// rank that only bootstraps, and two slave ranks whose LOCAL group runs
/// the collective over their mesh link (the product's layout).
fn time_tcp_allgather(calls: usize, payload: &[u8]) -> std::io::Result<Samples> {
    let (listener, addr) = tcp_listener()?;
    let slave = |_| -> std::io::Result<Samples> {
        let fabric = TcpFabric::slave(addr)?;
        let mut world = Universe::attach(fabric.clone(), fabric.rank());
        let local = world.subgroup(&[1, 2]).expect("slaves are LOCAL members");
        let samples = probe::time_n(calls, || {
            black_box(local.allgather_bytes(payload).len());
        });
        world.barrier();
        fabric.shutdown_when_drained();
        Ok(samples)
    };
    std::thread::scope(|s| {
        let slaves: Vec<_> = (0..2).map(|i| s.spawn(move || slave(i))).collect();
        let fabric = TcpFabric::master(listener, 3)?;
        let mut world = Universe::attach(fabric.clone(), 0);
        let none = world.subgroup(&[1, 2]);
        debug_assert!(none.is_none());
        world.barrier();
        fabric.shutdown();
        let mut results: Vec<std::io::Result<Samples>> = slaves
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("tcp probe rank panicked")))
            })
            .collect();
        results.swap_remove(0)
    })
}

/// Every probe metric, by name. `slice` is the measuring budget of one
/// cheap probe, `calls` the number of timed calls every probe makes at least
/// ([`probe::MIN_CALLS`] outside `--smoke`);
/// `scratch` is a directory the checkpoint/persist/journal probes may fill.
pub fn run_probes(
    seed: u64,
    slice: Duration,
    calls: usize,
    scratch: &Path,
) -> std::io::Result<Vec<(&'static str, f64)>> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let us = |s: &Samples| s.median_ns() / 1e3;
    let ms = |s: &Samples| s.median_ns() / 1e6;
    let pool = Pool::serial();
    let mut rng = Rng64::seed_from(seed);
    let net = NetworkConfig::paper_mnist();
    std::fs::create_dir_all(scratch)?;

    // tensor: the heaviest layer of a generator pass (256 → 784, tanh).
    let (k, n) = (256usize, 784usize);
    let w = rng.uniform_matrix(k, n, -0.1, 0.1).into_vec();
    let bias = vec![0.01f32; n];
    let mut y = Matrix::default();
    for (batch, name) in [(100usize, "tensor.mm_fwd_b100_us"), (10, "tensor.mm_fwd_b10_us")] {
        let a = rng.uniform_matrix(batch, k, -1.0, 1.0);
        let s = probe::time_calls(slice, calls, || {
            ops::matmul_bias_act_into(
                black_box(&a),
                &w,
                n,
                &bias,
                ActKind::Tanh,
                &mut y,
                &pool,
            );
            black_box(y.as_slice());
        });
        out.push((name, us(&s)));
        if batch == 100 {
            out.push(("tensor.mm_fwd_b100_p90_us", s.p90_ns() / 1e3));
            out.push(("tensor.mm_fwd_gflops", (2 * batch * k * n) as f64 / s.median_ns()));
        }
    }
    let x = rng.uniform_matrix(100, k, -1.0, 1.0);
    let delta = rng.uniform_matrix(100, n, -1.0, 1.0);
    let mut dw = vec![0.0f32; k * n];
    let s = probe::time_calls(slice, calls, || {
        ops::matmul_at_b_slice_into(black_box(&x), &delta, &mut dw, &pool);
        black_box(dw.as_slice());
    });
    out.push(("tensor.mm_at_b_us", us(&s)));
    // δ·Wᵀ against the same weight block viewed as 256 rows of 784.
    let mut dx = Matrix::default();
    let s = probe::time_calls(slice, calls, || {
        ops::matmul_a_bt_view_into(black_box(&delta), &w, k, &mut dx, &pool);
        black_box(dx.as_slice());
    });
    out.push(("tensor.mm_a_bt_us", us(&s)));

    // nn: the two train steps, the optimizer, the forward passes of update.
    let mut g = Generator::new(&net, &mut rng);
    let mut d = Discriminator::new(&net, &mut rng);
    let mut adam_g = Adam::new(g.net.param_count());
    let mut adam_d = Adam::new(d.net.param_count());
    let real = rng.uniform_matrix(100, net.data_dim, -0.9, 0.9);
    let fake = rng.uniform_matrix(100, net.data_dim, -0.9, 0.9);
    let z = gan::latent_batch(&mut rng, 100, net.latent_dim);
    let mut ws = TrainWorkspace::default();
    let s = probe::time_calls(slice, calls, || {
        black_box(gan::train_generator_step_ws(
            &mut g,
            &d,
            &mut adam_g,
            black_box(&z),
            2e-4,
            GanLoss::Heuristic,
            &mut ws,
            &pool,
        ));
    });
    out.push(("nn.gen_step_ms", ms(&s)));
    let s = probe::time_calls(slice, calls, || {
        black_box(gan::train_discriminator_step_ws(
            &mut d,
            &mut adam_d,
            black_box(&real),
            &fake,
            2e-4,
            &mut ws,
            &pool,
        ));
    });
    out.push(("nn.disc_step_ms", ms(&s)));
    let grad: Vec<f32> =
        (0..g.net.param_count()).map(|i| ((i % 17) as f32 - 8.0) * 1e-3).collect();
    let mut params = g.net.genome().to_vec();
    let s = probe::time_calls(slice, calls, || {
        adam_g.step_slice(&mut params, black_box(&grad), 2e-4);
    });
    out.push(("nn.adam_step_us", us(&s)));
    out.push(("nn.adam_step_p90_us", s.p90_ns() / 1e3));
    let (mut images, mut logits, mut scratch_m) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let s = probe::time_calls(slice, calls, || {
        g.generate_into(black_box(&z), &mut images, &mut scratch_m, &pool);
        black_box(images.as_slice());
    });
    out.push(("nn.gen_fwd_b100_ms", ms(&s)));
    let real10 = rng.uniform_matrix(10, net.data_dim, -0.9, 0.9);
    for (batch, name) in [(&real, "nn.disc_fwd_b100_ms"), (&real10, "nn.disc_fwd_b10_ms")] {
        let s = probe::time_calls(slice, calls, || {
            d.logits_into(black_box(batch), &mut logits, &mut scratch_m, &pool);
            black_box(logits.as_slice());
        });
        out.push((name, ms(&s)));
    }

    // data: synthesis per thousand digits, and one batch draw.
    let s = probe::time_n(calls, || {
        black_box(SynthDigits::generate(1000, black_box(seed)).images.rows());
    });
    out.push(("data.digits_ms_per_k", ms(&s)));
    let cfg = probe_config(seed);
    let data = SynthDigits::generate(cfg.training.dataset_size, cfg.training.data_seed).images;
    let mut loader = BatchLoader::new(data.clone(), cfg.training.batch_size, seed);
    let mut batch = Matrix::default();
    let s = probe::time_calls(slice, calls, || {
        loader.next_batch_into(&mut batch);
        black_box(batch.as_slice());
    });
    out.push(("data.next_batch_us", us(&s)));
    out.push(("data.next_batch_p90_us", s.p90_ns() / 1e3));

    // core: what the gather phase and a checkpoint cut do to one cell.
    let mut engine = CellEngine::new(4, &cfg, data);
    let (snap, wire) = encoded_snapshot(&mut engine);
    out.push(("core.snapshot_bytes", wire.len() as f64));
    let mut recycled = CellSnapshot::empty();
    let s = probe::time_calls(slice, calls, || {
        engine.snapshot_into(&mut recycled);
        black_box(recycled.gen_genome.len());
    });
    out.push(("core.snapshot_us", us(&s)));
    let neighbors = vec![snap.clone(); cfg.subpopulation_size() - 1];
    let s = probe::time_calls(slice, calls, || engine.ingest_neighbors(black_box(&neighbors)));
    out.push(("core.ingest_us", us(&s)));
    let mut state: CellState = engine.capture_state();
    let s = probe::time_calls(slice, calls, || {
        engine.capture_state_into(&mut state);
        black_box(state.iteration);
    });
    out.push(("core.capture_state_ms", ms(&s)));
    let model = engine.ensemble();
    let lpz = scratch.join("probe.lpz");
    let mut failed = None;
    let s = probe::time_n(calls, || {
        if let Err(e) = save_ensemble(&lpz, black_box(&model)) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.push(("core.persist_ms", ms(&s)));

    // mpi: one snapshot per rank through the blocking and the split
    // allgather, in-process and over localhost TCP.
    let blocking = |comm: &Comm, payload: &[u8]| {
        black_box(comm.allgather_bytes(payload).len());
    };
    out.push(("mpi.allgather_r2_ms", ms(&time_collective(2, calls, &wire, blocking))));
    out.push(("mpi.allgather_r9_ms", ms(&time_collective(9, calls, &wire, blocking))));
    let split = time_collective(9, calls, &wire, |comm, payload| {
        let pending = comm.allgather_bytes_split(payload);
        black_box(comm.allgather_bytes_complete(pending).len());
    });
    out.push(("mpi.allgather_split_r9_ms", ms(&split)));
    out.push(("mpi.tcp_allgather_r2_ms", ms(&time_tcp_allgather(calls, &wire)?)));
    // Root fan-in of eight payloads, then the nine-payload concatenation
    // copied out to each of the eight other ranks.
    out.push(("mpi.allgather_r9_bytes", (wire.len() * (8 + 8 * 9)) as f64));

    // runtime: the typed exchange (encode + allgather + decode) on nine
    // slave ranks, and the codec on its own.
    let mut exchange = Universe::run(10, |world: Comm| {
        let mut cm = CommManager::new(world);
        if cm.is_master() {
            return None;
        }
        Some(probe::time_n(calls, || {
            black_box(cm.exchange_centers(&snap).len());
        }))
    });
    out.push(("runtime.exchange_r9_ms", ms(&exchange.swap_remove(1).expect("slave rank 1"))));
    let mut buf = Vec::new();
    let s = probe::time_calls(slice, calls, || {
        buf.clear();
        SnapshotMsg::encode_snapshot(black_box(&snap), &mut buf);
        black_box(buf.len());
    });
    out.push(("runtime.snapshot_encode_us", us(&s)));
    out.push(("runtime.snapshot_encode_p90_us", s.p90_ns() / 1e3));
    let s = probe::time_calls(slice, calls, || {
        let msg = SnapshotMsg::from_bytes(black_box(&wire)).expect("snapshot decodes");
        black_box(msg.into_snapshot().cell);
    });
    out.push(("runtime.snapshot_decode_us", us(&s)));

    // runtime: a checkpoint cut of one T1 cell — written, read back, and
    // what `submit` costs the training thread.
    let dir = scratch.join("probe_ckpt");
    let mut path = None;
    let mut failed = None;
    let s = probe::time_n(calls, || match write_cell_state(&dir, black_box(&state)) {
        Ok(p) => path = Some(p),
        Err(e) => failed = Some(e),
    });
    if let Some(e) = failed {
        return Err(std::io::Error::other(e.to_string()));
    }
    out.push(("runtime.ckpt_write_ms", ms(&s)));
    let path = path.expect("checkpoint written");
    out.push(("runtime.ckpt_bytes", std::fs::metadata(&path)?.len() as f64));
    let s = probe::time_n(calls, || {
        black_box(read_cell_state(&path, &cfg).expect("checkpoint reads back").iteration);
    });
    out.push(("runtime.ckpt_read_ms", ms(&s)));
    // The slave's own double-buffered pattern: capture into the buffers the
    // writer hands back, submit, and let the commit drain (untimed) before
    // the next cut — so at most two states are ever alive.
    let writer = CheckpointWriter::to_dir(&dir, cfg.cells());
    let mut submit_ns = Vec::with_capacity(calls);
    let mut next = Some(state);
    for cut in 1..=calls as u64 {
        let mut state =
            next.take().or_else(|| writer.recycled()).unwrap_or_else(|| engine.capture_state());
        engine.capture_state_into(&mut state);
        let t0 = Instant::now();
        writer.submit(state);
        submit_ns.push(t0.elapsed().as_nanos() as f64);
        let patience = Instant::now() + Duration::from_secs(30);
        while writer.commits() < cut && Instant::now() < patience {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    writer.finish().map_err(|e| std::io::Error::other(e.to_string()))?;
    out.push(("runtime.ckpt_submit_us", us(&Samples::from_nanos(submit_ns))));

    // telemetry: one begin+end pair with the ring on and with the recorder
    // disabled, and flushing a full default-size ring.
    let mut on = Telemetry::enabled(1, 0);
    let s = probe::time_calls(slice, calls, || {
        let start = on.begin(SpanKind::Train, 4, 0);
        black_box(on.end(SpanKind::Train, 4, 0, start));
    });
    out.push(("telemetry.span_ns", s.median_ns()));
    out.push(("telemetry.span_p90_ns", s.p90_ns()));
    let mut off = Telemetry::disabled();
    let s = probe::time_calls(slice, calls, || {
        let start = off.begin(SpanKind::Train, 4, 0);
        black_box(off.end(SpanKind::Train, 4, 0, start));
    });
    out.push(("telemetry.span_off_ns", s.median_ns()));
    for i in 0..40_000u32 {
        let start = on.begin(SpanKind::Gather, 4, i);
        on.end(SpanKind::Gather, 4, i, start);
    }
    let journal = scratch.join("probe_journal.jsonl");
    let mut failed = None;
    let s = probe::time_n(calls, || {
        if let Err(e) = on.write_journal(&journal) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.push(("telemetry.journal_write_ms", ms(&s)));

    Ok(out)
}
