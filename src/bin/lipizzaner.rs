//! `lipizzaner` — command-line front end for cellular GAN training.
//!
//! ```text
//! lipizzaner train  --grid 2 --iterations 8 --driver sequential --out model.lpz
//! lipizzaner train  --grid 3 --driver distributed --transport tcp --mustangs
//! lipizzaner launch --rows 1 --cols 2 --out model.lpz     # spawn slaves + master over TCP
//! lipizzaner launch --grid 2 --checkpoint-dir ckpt/       # + elastic recovery on slave death
//! lipizzaner resume --from ckpt/ --out model.lpz          # restart an interrupted run
//! lipizzaner slave  --connect 192.168.0.10:4455           # join a multi-machine run by hand
//! lipizzaner sample --model model.lpz --count 16 --gallery samples.pgm
//! lipizzaner info   --model model.lpz
//! lipizzaner trace  --journals telemetry/ --out trace.json   # Perfetto timeline
//! ```

use lipizzaner::core::pipeline::capture_with_frame;
use lipizzaner::core::{persist, CellState, FrameSlot, TransportKind};
use lipizzaner::data::image;
use lipizzaner::mpi::{enable_process_faults, scheduled_replacement};
use lipizzaner::prelude::*;
use lipizzaner::runtime::checkpoint;
use lipizzaner::runtime::checkpoint::CheckpointWriter;
use lipizzaner::runtime::driver::{
    run_tcp_master_elastic, run_tcp_rejoin_slave, run_tcp_slave,
};
use lipizzaner::runtime::master::MasterOutcome;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("launch") => cmd_launch(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("slave") => cmd_slave(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => {
            eprintln!(
                "usage: lipizzaner <train|launch|resume|slave|sample|info|trace> [options]\n\
                 \n\
                 train   --grid N | --rows R --cols C   --iterations I --batches B\n\
                 \u{20}       --driver sequential|distributed|cluster-sim --transport in-process|tcp\n\
                 \u{20}       --mustangs --shards --tiny --out FILE.lpz\n\
                 \u{20}       --exchange sync|async (overlap the neighbor gather with compute;\n\
                 \u{20}       deterministic, trains against the previous round's snapshots)\n\
                 \u{20}       --checkpoint-dir DIR [--checkpoint-every N] [--pause-after K]\n\
                 \u{20}       --telemetry [--telemetry-dir DIR] [--telemetry-ring N]\n\
                 \u{20}       (allocation-free event journal + per-rank metrics; off by default\n\
                 \u{20}       and observational-only — results are byte-identical either way;\n\
                 \u{20}       with --out, a merged run summary lands next to the .lpz)\n\
                 launch  same training flags as train; spawns one slave OS process per grid\n\
                 \u{20}       cell plus a TCP master (--bind HOST:PORT, default 127.0.0.1:0);\n\
                 \u{20}       --no-spawn waits for hand-started slaves instead (multi-machine);\n\
                 \u{20}       with --checkpoint-dir, a heartbeat-dead slave is respawned and the\n\
                 \u{20}       run restored from the last committed checkpoint\n\
                 \u{20}       fault flags: --fault-plan SPEC (kill:R@I;sever:A-B@I;...)\n\
                 \u{20}       --max-stale-iters N (graceful degradation staleness bound)\n\
                 \u{20}       --heartbeat-interval-ms MS --heartbeat-misses N; a scripted kill\n\
                 \u{20}       with a staleness bound is replaced in-flight (no full relaunch)\n\
                 resume  --from DIR   restart an interrupted run from its checkpoint directory\n\
                 \u{20}       (config comes from the manifest; --driver/--transport/--out as train)\n\
                 slave   --connect HOST:PORT   join a master started elsewhere (the data\n\
                 \u{20}       layout, incl. --shards and checkpointing, arrives in the wire config);\n\
                 \u{20}       --rejoin attaches as the in-flight replacement for a dead rank\n\
                 sample  --model FILE.lpz --count N [--gallery FILE.pgm]\n\
                 info    --model FILE.lpz\n\
                 trace   --journals DIR [--out FILE.json]   merge per-rank telemetry\n\
                 \u{20}       journals into a Chrome trace-event timeline (load in Perfetto)"
            );
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The value of numeric flag `name`, if given. A value that does not parse
/// is a usage error naming the flag — never a silently applied default.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let value = flag_value(args, name)?;
    Some(value.parse().unwrap_or_else(|_| fail(&format!("{name}: not a number: {value:?}"))))
}

/// [`parsed_flag`] for a count that must be at least one (grid sides,
/// iterations, cadences, samples). `0` would leave nothing to train, save
/// or show, so it is refused naming the flag — never clamped up or run as
/// a silent no-op.
fn positive_flag(args: &[String], name: &str) -> Option<usize> {
    let n = parsed_flag(args, name)?;
    if n == 0 {
        fail(&format!("{name}: must be at least 1, got 0"));
    }
    Some(n)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Build the training configuration shared by every driver and transport
/// from the CLI flags. `--tiny` selects the smoke-scale config (uniform toy
/// data) for fast protocol exercises; the default is a laptop-scale digit
/// config (Table I shape, reduced capacity). Non-square grids come from
/// `--rows`/`--cols`, which override `--grid`.
fn cli_config(args: &[String]) -> TrainConfig {
    let grid = positive_flag(args, "--grid").unwrap_or(2);
    let rows = positive_flag(args, "--rows").unwrap_or(grid);
    let cols = positive_flag(args, "--cols").unwrap_or(grid);
    let tiny = flag_present(args, "--tiny");
    let iterations = positive_flag(args, "--iterations").unwrap_or(if tiny { 2 } else { 6 });
    let batches: usize = parsed_flag(args, "--batches").unwrap_or(if tiny { 2 } else { 4 });

    let mut cfg = TrainConfig::smoke(2);
    if !tiny {
        cfg.network.latent_dim = 16;
        cfg.network.hidden_layers = 1;
        cfg.network.hidden_units = 48;
        cfg.network.data_dim = lipizzaner::data::IMAGE_DIM;
        cfg.coevolution.mixture_every = 3;
        cfg.training.batch_size = 32;
        cfg.training.dataset_size = 640;
        cfg.training.eval_batch = 64;
        cfg.mutation.initial_lr = 1e-3;
    }
    cfg.grid.rows = rows;
    cfg.grid.cols = cols;
    cfg.coevolution.iterations = iterations;
    cfg.training.batches_per_iteration = batches;
    cfg.training.shard_data = flag_present(args, "--shards");
    if let Some(mode) = flag_value(args, "--exchange") {
        let mode = mode
            .parse::<lipizzaner::core::ExchangeMode>()
            .unwrap_or_else(|e| fail(&format!("--exchange: {e}")));
        cfg = cfg.with_exchange(mode);
    }
    if flag_present(args, "--mustangs") {
        cfg = cfg.with_mustangs();
    }
    apply_checkpoint_flags(&mut cfg, args);
    apply_fault_flags(&mut cfg, args);
    apply_telemetry_flags(&mut cfg, args);
    cfg
}

/// Telemetry knobs: `--telemetry` arms the per-rank event journal and
/// metrics registry (off by default, and purely observational — the
/// trained weights are byte-identical either way), `--telemetry-dir`
/// picks where the per-rank JSONL journals land (default `telemetry`),
/// and `--telemetry-ring` caps the event ring (0 = default capacity).
/// Like every other behavioral knob it rides the wire config, so remote
/// slaves journal without any local flags.
fn apply_telemetry_flags(cfg: &mut TrainConfig, args: &[String]) {
    if !flag_present(args, "--telemetry") {
        return;
    }
    let dir = flag_value(args, "--telemetry-dir").unwrap_or("telemetry");
    let ring: usize = parsed_flag(args, "--telemetry-ring").unwrap_or(0);
    *cfg = cfg.clone().with_telemetry(dir, ring);
}

/// Failure-semantics knobs: the scripted fault plan, the staleness bound
/// for graceful grid degradation, and the heartbeat cadence/deadline. Like
/// checkpointing they land in the config, so every rank — including a
/// hand-started slave on another machine — derives identical failure
/// behavior from the wire config alone.
fn apply_fault_flags(cfg: &mut TrainConfig, args: &[String]) {
    let max_stale: Option<usize> = parsed_flag(args, "--max-stale-iters");
    if let Some(plan) = flag_value(args, "--fault-plan") {
        if let Err(e) = lipizzaner::mpi::FaultPlan::parse(plan) {
            fail(&format!("--fault-plan {plan:?}: {e}"));
        }
        *cfg = cfg.clone().with_fault_plan(plan, max_stale.unwrap_or(1));
    } else if let Some(m) = max_stale {
        cfg.fault.max_stale_iters = m;
    }
    if let Some(interval) = parsed_flag(args, "--heartbeat-interval-ms") {
        cfg.fault.heartbeat_interval_ms = interval;
    }
    if let Some(misses) = parsed_flag(args, "--heartbeat-misses") {
        cfg.fault.heartbeat_misses = misses;
    }
}

/// Checkpoint knobs shared by `train`, `launch` and `resume`: cadence, the
/// target directory, and the pause point. They land in the config — not in
/// per-host state — so every rank of a distributed run derives the same
/// checkpoint behavior from the wire config alone.
fn apply_checkpoint_flags(cfg: &mut TrainConfig, args: &[String]) {
    let every = positive_flag(args, "--checkpoint-every").unwrap_or(1);
    if let Some(dir) = flag_value(args, "--checkpoint-dir") {
        *cfg = cfg.clone().with_checkpoints(dir, every);
    }
    if let Some(k) = positive_flag(args, "--pause-after") {
        *cfg = cfg.clone().with_pause_after(k);
    }
}

/// Synthesize the full dataset. Every rank — sequential driver, threaded
/// slave, or a slave OS process on another machine — derives the same bytes
/// from the config alone, so the data dimension picks the source:
/// digit-shaped configs use the synthetic digits, anything else the uniform
/// toy set.
fn cli_full_data(cfg: &TrainConfig) -> Matrix {
    if cfg.network.data_dim == lipizzaner::data::IMAGE_DIM {
        SynthDigits::generate(cfg.training.dataset_size, cfg.training.data_seed).images
    } else {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    }
}

/// Carve one cell's shard out of the full dataset (the config partitions
/// it). The shard switch rides in the wire config, so hand-started slaves on
/// other machines can never disagree with the master about the data layout.
fn cli_shard(full: &Matrix, cfg: &TrainConfig, cell: usize) -> Matrix {
    lipizzaner::data::DataPartition::Shards.slice_for_cell(full, cfg.cells(), cell, 0)
}

/// One cell's dataset from scratch — the per-rank path, where each OS
/// process builds exactly one cell's data anyway: its shard, or the
/// synthesized set itself.
fn cli_make_data(cell: usize, cfg: &TrainConfig) -> Matrix {
    let full = cli_full_data(cfg);
    if cfg.training.shard_data {
        cli_shard(&full, cfg, cell)
    } else {
        full
    }
}

/// The `make_data` of a whole-grid driver over `full`: each cell's shard,
/// or — unsharded, where [`Pipeline::whole_grid`] asks once and shares the
/// answer — `full` itself, handed over without a copy.
///
/// [`Pipeline::whole_grid`]: lipizzaner::core::Pipeline::whole_grid
fn cli_whole_grid_data(full: Matrix, cfg: &TrainConfig) -> impl FnMut(usize) -> Matrix + '_ {
    let mut full = Some(full);
    move |cell| {
        if cfg.training.shard_data {
            cli_shard(full.as_ref().expect("shards are cut from the full set"), cfg, cell)
        } else {
            full.take().expect("an unsharded whole grid asks for its data once")
        }
    }
}

fn cmd_train(args: &[String]) -> ExitCode {
    run_training(cli_config(args), args, None)
}

/// `resume --from DIR`: restart an interrupted run. The configuration
/// comes from the directory's manifest (so the resumed run is the *same*
/// run), the start point is the newest committed cut every cell has, and
/// the driver/transport/out flags work exactly like `train`'s.
fn cmd_resume(args: &[String]) -> ExitCode {
    let Some(from) = flag_value(args, "--from") else {
        eprintln!("resume requires --from DIR");
        return ExitCode::FAILURE;
    };
    let dir = Path::new(from);
    let mut cfg = match checkpoint::read_manifest(dir) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("failed to read manifest in {from}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The directory may have been moved since the run was interrupted; the
    // path on *this* invocation wins. A paused run resumes to completion
    // unless a new pause point is given.
    cfg.checkpoint.dir = Some(from.to_string());
    cfg.checkpoint.pause_after = None;
    let pause_after = positive_flag(args, "--pause-after");
    if let Some(k) = pause_after {
        cfg = cfg.with_pause_after(k);
    }
    // The manifest carries the interrupted run's telemetry settings; fresh
    // flags on the resume invocation override them.
    apply_telemetry_flags(&mut cfg, args);
    let resume_from = match checkpoint::latest_consistent_iteration(dir, cfg.cells()) {
        Ok(Some(k)) => k,
        Ok(None) => {
            eprintln!("{from} holds no complete checkpoint cut to resume from");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("failed to scan {from}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(k) = pause_after.filter(|&k| k <= resume_from) {
        eprintln!(
            "--pause-after {k}: the cut in {from} is already at iteration {resume_from}; \
             a pause point must lie after it"
        );
        return ExitCode::FAILURE;
    }
    println!("resuming from {from} at iteration {resume_from}");
    run_training(cfg, args, Some(resume_from))
}

/// Shared driver dispatch behind `train` and `resume`.
fn run_training(cfg: TrainConfig, args: &[String], resume_from: Option<usize>) -> ExitCode {
    let driver = flag_value(args, "--driver").unwrap_or("sequential").to_string();
    let transport: TransportKind =
        match flag_value(args, "--transport").unwrap_or("in-process").parse() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    let out = flag_value(args, "--out").map(PathBuf::from);

    if transport == TransportKind::Tcp && driver != "distributed" {
        eprintln!("--transport tcp requires --driver distributed");
        return ExitCode::FAILURE;
    }
    if cfg.checkpoint.pause_after.is_some() && !cfg.checkpoint.enabled() {
        eprintln!("--pause-after without --checkpoint-dir would lose the run; refusing");
        return ExitCode::FAILURE;
    }

    // A fresh run into a directory still holding a previous run's
    // checkpoints must clear them first: a recovery scan only checks
    // structure, so a structurally compatible stale cut would resurrect
    // the old run's weights as this run's output.
    if cfg.checkpoint.enabled() && resume_from.is_none() {
        let dir = PathBuf::from(cfg.checkpoint.dir.as_deref().expect("enabled has dir"));
        match checkpoint::clear_stale(&dir, None) {
            Ok(0) => {}
            Ok(n) => println!("cleared {n} stale checkpoint file(s) from {}", dir.display()),
            Err(e) => {
                eprintln!("clearing stale checkpoints in {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "training {}x{} grid, {} iterations x {} batches, driver: {driver}",
        cfg.grid.rows,
        cfg.grid.cols,
        cfg.coevolution.iterations,
        cfg.training.batches_per_iteration
    );

    // The in-process drivers restore from the states directly; the TCP
    // driver only forwards the iteration number (each slave process loads
    // its own cell's file).
    let resume_states: Option<Vec<CellState>> = match (resume_from, driver.as_str()) {
        (Some(_), "sequential" | "cluster-sim") => {
            let dir = cfg.checkpoint.dir.clone().expect("resume has a checkpoint dir");
            match checkpoint::load_grid_states(Path::new(&dir), &cfg) {
                Ok((iter, states)) => {
                    println!("restored {} cells at iteration {iter}", states.len());
                    Some(states)
                }
                Err(e) => {
                    eprintln!("failed to restore from {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => None,
    };

    let (report, best_model, telemetry) = match driver.as_str() {
        "sequential" => {
            // Synthesize the dataset once; cells share it (or their shard).
            let full = cli_full_data(&cfg);
            let mut t = sequential_trainer(&cfg, full, resume_states.as_deref());
            let report = with_checkpoint_commits(&cfg, |hook| t.run_hooked(hook));
            let telemetry = cfg.telemetry.is_enabled().then(|| t.telemetry_summary());
            let mut ensembles = t.ensembles();
            let best = ensembles.swap_remove(report.best_cell);
            (report, best, telemetry)
        }
        "cluster-sim" => {
            let full = cli_full_data(&cfg);
            let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
            let mut outcome = with_checkpoint_commits(&cfg, |hook| {
                sim.run_resumable(
                    &cfg,
                    cli_whole_grid_data(full, &cfg),
                    resume_states.as_deref(),
                    hook,
                )
            });
            let best = outcome.ensembles.swap_remove(outcome.report.best_cell);
            // The sim writes its virtual-time journals itself; there is no
            // wire aggregation to merge into a summary.
            (outcome.report, best, None)
        }
        "distributed" => {
            let opts = DistributedOptions { resume_from };
            let outcome = match transport {
                TransportKind::InProcess => {
                    lipizzaner::runtime::run_distributed(&cfg, cli_make_data, opts)
                }
                TransportKind::Tcp => {
                    let spawn_slaves = !flag_present(args, "--no-spawn");
                    match launch_tcp_run(&cfg, flag_value(args, "--bind"), spawn_slaves, opts) {
                        Ok(o) => o,
                        Err(e) => {
                            eprintln!("tcp launch failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            // The winning ensemble arrived in the final gather — no local
            // rebuild; over TCP these genomes really crossed process
            // boundaries.
            let best = outcome.best_ensemble(&cfg);
            let telemetry = outcome.telemetry;
            (outcome.report, best, telemetry)
        }
        other => {
            eprintln!("unknown driver {other}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "done in {:.2}s ({}), best cell {} with G fitness {:.4}",
        report.wall_seconds,
        report.driver,
        report.best().cell,
        report.best().gen_fitness
    );
    if let Some(path) = out {
        if let Err(e) = persist::save_ensemble(&path, &best_model) {
            eprintln!("failed to save model: {e}");
            return ExitCode::FAILURE;
        }
        println!("saved winning ensemble to {}", path.display());
        if cfg.telemetry.is_enabled() {
            let sidecar = PathBuf::from(format!("{}.summary.json", path.display()));
            match write_run_summary(&sidecar, &report, telemetry.as_ref()) {
                Ok(()) => println!("wrote run summary to {}", sidecar.display()),
                Err(e) => {
                    eprintln!("failed to write run summary: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Persist the run summary next to the `.lpz`: the Table IV profile rows
/// plus the merged telemetry aggregate (hand-emitted JSON — `serde_json`
/// is not in the offline dependency set).
fn write_run_summary(
    path: &Path,
    report: &TrainReport,
    telemetry: Option<&TelemetrySummary>,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"driver\":\"{}\",\"grid\":[{},{}],\"iterations\":{},\"wall_seconds\":{:.6},\"profile\":[",
        report.driver, report.grid.0, report.grid.1, report.iterations, report.wall_seconds
    );
    for (i, row) in report.profile.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"routine\":\"{}\",\"seconds\":{:.9},\"calls\":{}}}",
            row.routine.name(),
            row.seconds,
            row.calls
        );
    }
    out.push(']');
    if let Some(t) = telemetry {
        out.push_str(",\"telemetry\":");
        t.write_json(&mut out);
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Whole-grid trainer over the dataset `full` — fresh, or restored from
/// captured states.
fn sequential_trainer(
    cfg: &TrainConfig,
    full: Matrix,
    states: Option<&[CellState]>,
) -> SequentialTrainer {
    let data = cli_whole_grid_data(full, cfg);
    match states {
        Some(states) => SequentialTrainer::from_states(cfg, data, states),
        None => SequentialTrainer::new(cfg, data),
    }
}

/// Per-iteration hook of the in-process drivers: `(iter, engines, frame)`.
type IterationHook<'a> = &'a mut dyn FnMut(usize, &mut [CellEngine], &[FrameSlot]);

/// Run an in-process driver with the CLI as its checkpoint coordinator:
/// `drive` receives the per-iteration hook, which — when checkpointing is
/// on — commits every cell's cut (stamped with the slots that cell reads of
/// the frame its next iteration consumes) on the configured cadence through
/// the async writer.
fn with_checkpoint_commits<R>(cfg: &TrainConfig, drive: impl FnOnce(IterationHook) -> R) -> R {
    if !cfg.checkpoint.enabled() {
        return drive(&mut |_, _, _| {});
    }
    let dir = PathBuf::from(cfg.checkpoint.dir.as_deref().expect("enabled has dir"));
    checkpoint::write_manifest(&dir, cfg)
        .unwrap_or_else(|e| fail(&format!("writing checkpoint manifest: {e}")));
    let writer = CheckpointWriter::to_dir(&dir, cfg.cells());
    let outcome = drive(&mut |iter, engines, frame| {
        if cfg.checkpoint.commits_after(iter) {
            for e in engines.iter_mut() {
                writer.submit(capture_with_frame(e, frame, writer.recycled()));
            }
        }
    });
    writer.finish().unwrap_or_else(|e| fail(&format!("checkpoint commit failed: {e}")));
    outcome
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// `launch`: the one-machine TCP recipe — same flags as `train`, forced
/// onto the distributed driver over the TCP transport. The overrides go
/// *first*: `flag_value` reads the first occurrence, so a stray `--driver`
/// or `--transport` in the user's arguments cannot silently downgrade a
/// launch to an in-process run.
fn cmd_launch(args: &[String]) -> ExitCode {
    let mut forwarded: Vec<String> =
        ["--driver", "distributed", "--transport", "tcp"].map(String::from).to_vec();
    forwarded.extend_from_slice(args);
    cmd_train(&forwarded)
}

/// A spawned slave OS process with its stderr captured so an abnormal
/// death can be reported with its cause (not just a heartbeat timeout).
struct SlaveChild {
    child: Child,
    pid: u32,
    stderr: Arc<Mutex<Vec<u8>>>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl SlaveChild {
    fn spawn(exe: &Path, master_addr: &str, rejoin: bool) -> std::io::Result<Self> {
        let mut cmd = Command::new(exe);
        // The shard switch, checkpoint settings, and everything else travel
        // in the wire config, so slaves need no data flags.
        cmd.arg("slave").arg("--connect").arg(master_addr);
        if rejoin {
            cmd.arg("--rejoin");
        }
        // Slaves stay quiet on stdout (the master owns the report); stderr
        // is captured so an abnormal death can be reported with its cause.
        cmd.stdout(Stdio::null());
        cmd.stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let drain = child.stderr.take().map(|mut pipe| {
            let sink = Arc::clone(&stderr);
            std::thread::spawn(move || {
                let mut chunk = [0u8; 4096];
                while let Ok(n) = pipe.read(&mut chunk) {
                    if n == 0 {
                        break;
                    }
                    sink.lock().expect("stderr sink").extend_from_slice(&chunk[..n]);
                }
            })
        });
        println!("spawned slave pid={pid}");
        Ok(Self { child, pid, stderr, drain })
    }

    /// Kill a stranded survivor quietly (it is being cleared for a
    /// relaunch — its death is ours, not a failure worth reporting).
    fn kill_quietly(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.drain.take() {
            let _ = handle.join();
        }
    }

    /// Wait for the child; report and return `true` when it died
    /// abnormally, with its captured stderr.
    fn reap_report(mut self) -> bool {
        let status = self.child.wait();
        if let Some(handle) = self.drain.take() {
            let _ = handle.join();
        }
        match status {
            Ok(s) if s.success() => false,
            status => {
                let cause = match status {
                    Ok(s) => format!("exit status {s}"),
                    Err(e) => format!("wait failed: {e}"),
                };
                eprintln!("slave pid={} died abnormally ({cause})", self.pid);
                let captured = self.stderr.lock().expect("stderr sink");
                if !captured.is_empty() {
                    let text = String::from_utf8_lossy(&captured);
                    for line in text.lines().rev().take(12).collect::<Vec<_>>().iter().rev() {
                        eprintln!("  slave pid={} stderr: {line}", self.pid);
                    }
                }
                true
            }
        }
    }

    fn is_dead(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }
}

/// How many consecutive missed heartbeat rounds convict a slave when
/// elastic recovery is armed (~1 s of silence at the default cadence —
/// generous against scheduler noise, fast against a real death).
const ELASTIC_DEADLINE_MISSES: usize = 10;
/// How many recovery relaunches `launch` attempts before giving up.
const MAX_RECOVERY_ATTEMPTS: usize = 5;

/// Run the master over TCP on this process; with `spawn_slaves`, also
/// spawn one slave OS process per grid cell (the one-machine recipe). With
/// `--no-spawn` the master just listens and waits for slaves started by
/// hand — the multi-machine recipe (`lipizzaner slave --connect HOST:PORT`
/// on each worker host).
///
/// **Elastic recovery:** with spawned slaves *and* checkpointing enabled,
/// a slave that misses its heartbeat deadline is declared dead; the master
/// reports the failed rank and the dead process's exit status/stderr,
/// kills the stranded survivors, respawns a full set of slaves (each
/// re-ranks through the ordinary TCP handshake), and reruns from the last
/// committed checkpoint cut — from scratch if none was committed yet.
fn launch_tcp_run(
    cfg: &TrainConfig,
    bind: Option<&str>,
    spawn_slaves: bool,
    base_opts: DistributedOptions,
) -> std::io::Result<MasterOutcome> {
    let elastic = spawn_slaves && cfg.checkpoint.enabled();
    // In-flight replacement: armed when the fault plan scripts a
    // replaceable kill and this process can respawn the victim. The master
    // then replaces just that rank mid-run; full-teardown recovery stays
    // the fallback for everything else.
    let in_flight = spawn_slaves
        && scheduled_replacement(
            cfg.fault.plan.as_deref(),
            cfg.fault.max_stale_iters,
            cfg.checkpoint.every,
            cfg.checkpoint.effective_iterations(cfg.coevolution.iterations),
            cfg.cells(),
        )
        .map_err(std::io::Error::other)?
        .is_some();
    // Recovery needs a death verdict: where the config sets no heartbeat
    // deadline, an armed run convicts after `ELASTIC_DEADLINE_MISSES`.
    let armed;
    let cfg = if (elastic || in_flight) && cfg.fault.heartbeat_misses == 0 {
        let interval = cfg.fault.heartbeat_interval_ms;
        armed = cfg.clone().with_heartbeat(interval, ELASTIC_DEADLINE_MISSES);
        &armed
    } else {
        cfg
    };
    let mut resume_from = base_opts.resume_from;
    let attempts = if elastic { MAX_RECOVERY_ATTEMPTS } else { 1 };

    // Bound once and cloned per attempt: re-binding an explicit --bind
    // port right after a recovery shutdown fails with EADDRINUSE (the
    // closed connections linger in TIME_WAIT and std sets no
    // SO_REUSEADDR); the original handle keeps the port across relaunches.
    let listener = TcpListener::bind(bind.unwrap_or("127.0.0.1:0"))?;
    let addr = listener.local_addr()?;

    for attempt in 0..attempts {
        println!("master listening on {addr}");

        // Behind a mutex so the in-flight replacer (called from the
        // master's monitoring path) can hand us the replacement child to
        // reap alongside the originals.
        let children: Mutex<Vec<SlaveChild>> = Mutex::new(Vec::new());
        let exe = if spawn_slaves { Some(std::env::current_exe()?) } else { None };
        if let Some(exe) = &exe {
            let mut kids = children.lock().expect("children");
            for _ in 0..cfg.cells() {
                kids.push(SlaveChild::spawn(exe, &addr.to_string(), false)?);
            }
        } else {
            println!("waiting for {} slaves to connect", cfg.cells());
        }

        let opts = DistributedOptions { resume_from };
        let addr_str = addr.to_string();
        let spawn_replacement = |victim: usize| -> std::io::Result<()> {
            println!("replacing slave world rank {victim} in-flight");
            let exe = exe.as_ref().expect("in-flight implies spawned slaves");
            let child = SlaveChild::spawn(exe, &addr_str, true)?;
            children.lock().expect("children").push(child);
            Ok(())
        };
        let run = run_tcp_master_elastic(
            listener.try_clone()?,
            cfg,
            opts,
            in_flight.then_some(&spawn_replacement),
        );
        let children = children.into_inner().expect("children");
        let run = match run {
            Ok(run) => run,
            Err(bootstrap_err) => {
                // Bootstrap itself failed (e.g. a slave crashed before
                // connecting and the accept deadline fired): report any
                // casualties and clear the rest — never leak live children.
                for mut child in children {
                    if child.is_dead() {
                        child.reap_report();
                    } else {
                        child.kill_quietly();
                    }
                }
                return Err(bootstrap_err);
            }
        };
        match run {
            Ok(outcome) => {
                if in_flight {
                    print_survivor_counters(&outcome);
                }
                for child in children {
                    child.reap_report();
                }
                return Ok(outcome);
            }
            Err(abort) => {
                eprintln!("run aborted: {abort}");
                // Report the original casualties (already dead before we
                // intervene) with their exit status and stderr, then clear
                // the stranded survivors quietly for the relaunch.
                for mut child in children {
                    if child.is_dead() {
                        child.reap_report();
                    } else {
                        child.kill_quietly();
                    }
                }
                if attempt + 1 == attempts {
                    return Err(std::io::Error::other(format!(
                        "giving up after {attempts} launch attempts: {abort}"
                    )));
                }
                let dir = PathBuf::from(cfg.checkpoint.dir.as_deref().expect("elastic dir"));
                resume_from = checkpoint::latest_consistent_iteration(&dir, cfg.cells())
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                match resume_from {
                    Some(k) => {
                        println!("recovering: respawning slaves, resuming from iteration {k}");
                    }
                    None => println!(
                        "recovering: respawning slaves, restarting from scratch \
                         (no committed checkpoint yet)"
                    ),
                }
            }
        }
    }
    unreachable!("the attempt loop either returns an outcome or errors out")
}

/// After an in-flight replacement run, print each rank's iteration counter
/// as sampled by successive heartbeat rounds. Survivors must never move
/// backwards while the victim is swapped out — the printed sequences make
/// that auditable from the outside (the fault-injection test parses them).
fn print_survivor_counters(outcome: &MasterOutcome) {
    let mut per_rank: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for round in &outcome.heartbeat.rounds {
        for rec in round {
            if !rec.delayed {
                per_rank.entry(rec.slave).or_default().push(rec.iterations_done);
            }
        }
    }
    for (slave, iters) in per_rank {
        let list = iters.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
        println!("survivor rank {slave} iterations: {list}");
    }
}

/// `slave`: join a TCP master, receive the configuration and cell
/// assignment over the wire, train, and ship the results back. With
/// `--rejoin`, attach to an already-running mesh as the in-flight
/// replacement for a dead rank instead of bootstrapping a fresh world.
fn cmd_slave(args: &[String]) -> ExitCode {
    let Some(connect) = flag_value(args, "--connect") else {
        eprintln!("slave requires --connect HOST:PORT");
        return ExitCode::FAILURE;
    };
    // Only real OS-process slaves arm process-level faults (scripted
    // SIGKILLs); in-process thread drivers keep the plan message-level so
    // tests and the single-process drivers never kill the host.
    enable_process_faults();
    let run = if flag_present(args, "--rejoin") {
        run_tcp_rejoin_slave(connect, cli_make_data)
    } else {
        run_tcp_slave(connect, cli_make_data)
    };
    match run {
        Ok(state) => {
            println!("slave finished in state {state:?}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("slave failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_sample(args: &[String]) -> ExitCode {
    let Some(model_path) = flag_value(args, "--model") else {
        eprintln!("sample requires --model FILE.lpz");
        return ExitCode::FAILURE;
    };
    let count = positive_flag(args, "--count").unwrap_or(4);
    let model = match persist::load_ensemble(std::path::Path::new(model_path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("failed to load {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = Rng64::seed_from(parsed_flag(args, "--seed").unwrap_or(42));
    let samples = model.sample(count, &mut rng);
    if model.network.data_dim == lipizzaner::data::IMAGE_DIM {
        println!("{}", image::to_ascii_28(samples.row(0)));
        if let Some(gallery) = flag_value(args, "--gallery") {
            let rows: Vec<&[f32]> = (0..samples.rows()).map(|r| samples.row(r)).collect();
            let cols = (count as f64).sqrt().ceil() as usize;
            if let Err(e) = image::write_pgm(
                std::path::Path::new(gallery),
                &rows,
                lipizzaner::data::IMAGE_SIDE,
                cols.max(1),
            ) {
                eprintln!("failed to write gallery: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {count} samples to {gallery}");
        }
    } else {
        for r in 0..samples.rows().min(8) {
            println!("{:?}", samples.row(r));
        }
    }
    ExitCode::SUCCESS
}

/// `trace`: merge the per-rank JSONL journals a `--telemetry` run wrote
/// into one Chrome trace-event file — one track per rank — loadable in
/// Perfetto (ui.perfetto.dev) or chrome://tracing.
fn cmd_trace(args: &[String]) -> ExitCode {
    let dir = flag_value(args, "--journals").unwrap_or("telemetry");
    let out = flag_value(args, "--out").unwrap_or("trace.json");
    let journals = match lipizzaner::telemetry::read_journal_dir(Path::new(dir)) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("failed to read journals in {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if journals.is_empty() {
        eprintln!("no *.jsonl journals in {dir} (run with --telemetry first)");
        return ExitCode::FAILURE;
    }
    let events: usize = journals.iter().map(|j| j.events.len()).sum();
    if let Err(e) = std::fs::write(out, chrome_trace(&journals)) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {events} events across {} rank track(s) to {out}", journals.len());
    ExitCode::SUCCESS
}

fn cmd_info(args: &[String]) -> ExitCode {
    let Some(model_path) = flag_value(args, "--model") else {
        eprintln!("info requires --model FILE.lpz");
        return ExitCode::FAILURE;
    };
    match persist::load_ensemble(std::path::Path::new(model_path)) {
        Ok(m) => {
            println!("lipizzaner ensemble: {}", model_path);
            println!("  components: {}", m.components());
            println!(
                "  generator: {} -> {}x{} -> {}",
                m.network.latent_dim,
                m.network.hidden_layers,
                m.network.hidden_units,
                m.network.data_dim
            );
            println!("  mixture weights: {:?}", m.weights.weights());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to load {model_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unsharded_whole_grid_trains_on_the_synthesized_set_itself() {
        // Every engine of an unsharded sequential trainer reads the very
        // buffer `cli_full_data` produced, and the saved ensemble has the
        // bytes of a trainer handed a freshly synthesized set of its own.
        let cfg = TrainConfig::smoke(2);
        let full = cli_full_data(&cfg);
        let buffer = full.as_slice().as_ptr();
        let mut shared = sequential_trainer(&cfg, full, None);
        for engine in shared.engines_mut() {
            assert_eq!(
                engine.dataset().as_slice().as_ptr(),
                buffer,
                "cell {}",
                engine.cell_index()
            );
        }
        let mut own = SequentialTrainer::new(&cfg, |_| cli_full_data(&cfg));
        let dir = std::env::temp_dir().join(format!("lipiz_cli_data_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let lpz = |trainer: &mut SequentialTrainer, name: &str| {
            let best = trainer.run().best_cell;
            let path = dir.join(name);
            persist::save_ensemble(&path, &trainer.ensembles().swap_remove(best))
                .expect("save");
            std::fs::read(&path).expect("read back")
        };
        let (shared, own) = (lpz(&mut shared, "shared.lpz"), lpz(&mut own, "own.lpz"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(shared == own, "sharing the synthesized set moved the .lpz bytes");
    }
}
