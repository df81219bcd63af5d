//! Deterministic fault injection, end to end.
//!
//! Two layers of proof:
//!
//! 1. **Property tests on the virtual cluster**: random scripted kills are
//!    replayed on the simulator, which models the distributed stack's
//!    degradation exactly (frozen death-frame substitution, solo catch-up,
//!    rejoin). Every faulted run must terminate (no deadlock), respect the
//!    staleness bound, and replay to byte-identical ensembles.
//!
//! 2. **A real multi-process run**: `launch` spawns one slave OS process
//!    per cell; the fault plan SIGKILLs one of them mid-run. The master
//!    must replace that rank in-flight (never the full-teardown recovery
//!    path), survivors' iteration counters must never move backwards, and
//!    the saved ensemble must be byte-identical across a rerun *and* to
//!    the virtual cluster's model of the same faulted run.

mod common;

use common::{read, run, spawn_to_completion, toy_data, workdir};
use lipizzaner::cluster::{SimulatedCluster, SimulationOptions};
use lipizzaner::core::{ExchangeMode, Grid, NeighborhoodPattern, TrainConfig};
use lipizzaner::data::DataPartition;
use lipizzaner::mpi::{replacement_schedule, FaultPlan};
use lipizzaner::runtime::{run_distributed, DistributedOptions};
use lipizzaner::telemetry::{parse_journal, EventKind, RankJournal};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn faulted_config(
    victim: usize,
    kill: usize,
    max_stale: usize,
    iterations: usize,
) -> TrainConfig {
    let mut cfg = TrainConfig::smoke(2);
    cfg.coevolution.iterations = iterations;
    cfg.with_fault_plan(format!("kill:{victim}@{kill}"), max_stale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any scripted kill — replaceable or not — terminates, honors the
    /// staleness bound, and replays deterministically.
    #[test]
    fn scripted_kills_replay_deterministically(
        victim in 1usize..=4,
        kill in 1usize..5,
        max_stale in 1usize..=3,
        iterations in 6usize..=8,
    ) {
        let cfg = faulted_config(victim, kill, max_stale, iterations);

        // The schedule every party derives: when the kill is replaceable,
        // the absence window is exactly the staleness bound and the rejoin
        // lands strictly before the end of training.
        let plan = FaultPlan::parse(cfg.fault.plan.as_deref().unwrap()).unwrap();
        if let Some(sched) = replacement_schedule(
            &plan,
            cfg.fault.max_stale_iters,
            cfg.checkpoint.every,
            iterations,
            cfg.cells(),
        ) {
            prop_assert_eq!(sched.victim_world, victim);
            prop_assert_eq!(sched.cell, victim - 1);
            prop_assert!(sched.rejoin_round - sched.kill_iter <= max_stale);
            prop_assert!(sched.rejoin_round < iterations);
        }

        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let a = sim.run(&cfg, |_| toy_data(&cfg));
        let b = sim.run(&cfg, |_| toy_data(&cfg));

        // Terminates with every cell at the target iteration count
        // (bounded staleness: nobody is left behind or stuck waiting).
        prop_assert_eq!(a.report.iterations, iterations);
        prop_assert_eq!(a.report.cells.len(), 4);

        // Replay determinism: outcomes byte-identical (wall-clock fields
        // excluded — everything the models and fitnesses depend on).
        prop_assert_eq!(&a.report.cells, &b.report.cells);
        prop_assert_eq!(a.report.best_cell, b.report.best_cell);
        prop_assert_eq!(&a.ensembles, &b.ensembles);
    }

    /// A degraded run differs from the healthy run only through the
    /// scripted fault — and only when the schedule actually arms.
    #[test]
    fn unreplaceable_plans_leave_the_run_untouched(
        kill in 6usize..10,
        max_stale in 1usize..=3,
    ) {
        // Kill scripted past the end of training: no replacement schedule,
        // so the faulted config must train the healthy trajectory.
        let iterations = 6;
        let cfg = faulted_config(3, kill, max_stale, iterations);
        let plan = FaultPlan::parse(cfg.fault.plan.as_deref().unwrap()).unwrap();
        prop_assert!(replacement_schedule(
            &plan,
            cfg.fault.max_stale_iters,
            cfg.checkpoint.every,
            iterations,
            cfg.cells(),
        )
        .is_none());

        let mut healthy = TrainConfig::smoke(2);
        healthy.coevolution.iterations = iterations;
        let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
        let degraded = sim.run(&cfg, |_| toy_data(&cfg));
        let reference = sim.run(&healthy, |_| toy_data(&healthy));
        prop_assert_eq!(&degraded.ensembles, &reference.ensembles);
    }
}

// ------------------------------------------- a rank that panics, not dies

/// `--tiny --rows 2 --cols 3 --shards`: 64 samples sharded six ways leave
/// every cell fewer rows than the eval batch, so every engine refuses its
/// dataset — a config error found on the slave ranks, after launch.
fn undersized_shards(exchange: ExchangeMode) -> TrainConfig {
    let mut cfg = TrainConfig::smoke(2).with_shards(true).with_exchange(exchange);
    cfg.grid.rows = 2;
    cfg.grid.cols = 3;
    cfg
}

#[test]
fn panicking_slave_fails_the_threaded_run_instead_of_wedging_it() {
    for exchange in [ExchangeMode::Sync, ExchangeMode::Async] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = undersized_shards(exchange);
            let run = std::panic::catch_unwind(|| {
                let shard = |cell: usize, cfg: &TrainConfig| {
                    DataPartition::Shards.slice_for_cell(&toy_data(cfg), cfg.cells(), cell, 0)
                };
                run_distributed(&cfg, shard, DistributedOptions::default())
            });
            let _ = tx.send(run.map(|_| ()));
        });
        let panic = match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(panic)) => panic,
            Ok(Ok(())) => panic!("{exchange:?}: trained on an undersized shard"),
            Err(_) => panic!("{exchange:?}: still running after 5 s — the run is wedged"),
        };
        // The message is the failing rank's own, not a peer's "lost rank N".
        let msg = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("dataset smaller than eval batch"), "{exchange:?}: {msg}");
    }
}

#[test]
fn undersized_shards_exit_nonzero_on_every_in_process_driver() {
    for driver in ["sequential", "distributed", "cluster-sim"] {
        let start = Instant::now();
        let done = spawn_to_completion(&[
            "train", "--tiny", "--rows", "2", "--cols", "3", "--shards", "--driver", driver,
        ]);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(!done.status.success(), "{driver}: trained anyway: {stderr}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{driver}: took {:?}",
            start.elapsed()
        );
        assert!(stderr.contains("dataset smaller than eval batch"), "{driver}: {stderr}");
    }
}

// ------------------------------------------------------- real processes

/// Parse `survivor rank N iterations: a b c ...` lines and assert that no
/// surviving rank's counter sequence ever decreases (a full-teardown
/// relaunch would reset survivors to zero; in-flight replacement must
/// not). The scripted victim is exempt: its replacement process
/// legitimately restarts from the checkpoint cut.
fn assert_monotonic_survivor_counters(stdout: &str, victim: usize) {
    let mut lines_seen = 0;
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("survivor rank ") else { continue };
        lines_seen += 1;
        let (rank, counters) = rest.split_once(" iterations:").expect("counter line shape");
        let rank: usize = rank.trim().parse().expect("rank number");
        let values: Vec<u64> =
            counters.split_whitespace().map(|v| v.parse().expect("counter value")).collect();
        assert!(!values.is_empty(), "rank {rank}: empty counter sequence");
        if rank == victim {
            continue;
        }
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "rank {rank}: iteration counter moved backwards: {values:?}"
        );
    }
    assert!(lines_seen >= 4, "expected a counter line per rank, saw {lines_seen}:\n{stdout}");
}

#[test]
fn sigkilled_slave_is_replaced_in_flight_and_replay_is_byte_identical() {
    // The acceptance bar: a 2×2 grid of real slave OS processes; the fault
    // plan SIGKILLs one slave at iteration 2 — world rank 3, and world rank
    // 1, which holds cell 0 and is in no way special. The master must
    // replace exactly that rank mid-run — survivors never leave iteration
    // cadence — and the whole degraded run must be a pure function of
    // (seed, plan): a rerun and the virtual-cluster model both land on the
    // same bytes. Under `--exchange async` too, where the survivors must
    // complete the replacement's rendezvous round before they post the next
    // one to it.
    for exchange in ["sync", "async"] {
        for victim in [3, 1] {
            sigkill_is_replaced_in_flight_and_replays_byte_identically(exchange, victim);
        }
    }
}

fn sigkill_is_replaced_in_flight_and_replays_byte_identically(exchange: &str, victim: usize) {
    let dir = workdir(&format!("inflight_{exchange}_{victim}"));
    let tel_dir = dir.join("tel");
    let plan = format!("kill:{victim}@2");
    let fault_flags = [
        "--exchange",
        exchange,
        "--tiny",
        "--grid",
        "2",
        "--iterations",
        "6",
        "--batches",
        "2",
        "--checkpoint-every",
        "2",
        "--fault-plan",
        &plan,
        "--max-stale-iters",
        "2",
        "--heartbeat-interval-ms",
        "10",
        "--heartbeat-misses",
        "5",
    ];

    let mut outputs = Vec::new();
    for name in ["a", "b"] {
        let lpz = dir.join(format!("{name}.lpz"));
        let ckpt = dir.join(format!("ckpt_{name}"));
        let mut args = vec![
            "launch",
            "--out",
            lpz.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ];
        args.extend_from_slice(&fault_flags);
        // Run "a" journals everything; run "b" stays plain. The byte-identity
        // assertion below therefore doubles as proof that `--telemetry` is
        // purely observational on a real degraded multi-process run.
        if name == "a" {
            args.extend_from_slice(&[
                "--telemetry",
                "--telemetry-dir",
                tel_dir.to_str().unwrap(),
            ]);
        }
        let out = run(&args);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();

        // The victim was replaced in-flight — and only the victim.
        assert!(
            stdout.contains(&format!("replacing slave world rank {victim} in-flight")),
            "{exchange}: no in-flight replacement of rank {victim}:\n{stdout}"
        );
        assert_eq!(
            stdout.matches("replacing slave world rank").count(),
            1,
            "{exchange}: more than one replacement:\n{stdout}"
        );
        // The full-teardown recovery path must never fire.
        assert!(
            !stdout.contains("recovering: respawning"),
            "{exchange} rank {victim}: fell back to full-teardown recovery:\n{stdout}"
        );
        // 4 original slaves + exactly 1 replacement process.
        assert_eq!(
            stdout.matches("spawned slave pid=").count(),
            5,
            "{exchange}: unexpected process count:\n{stdout}"
        );
        assert_monotonic_survivor_counters(&stdout, victim);
        outputs.push(read(&lpz));
    }
    assert_eq!(
        outputs[0], outputs[1],
        "{exchange} rank {victim}: degraded rerun is not byte-identical"
    );

    // The fault left a paper trail in the per-rank journals. Journals are
    // keyed by node name, so the victim's evidence survives its replacement
    // (which announces itself as `node0Nr`).
    let journal = |file: &str| -> RankJournal {
        let path = tel_dir.join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read journal {}: {e}", path.display()));
        parse_journal(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
    };
    let cell = victim - 1;

    // The victim records its own scripted death at iteration 2.
    let dead = journal(&format!("node{victim:02}.jsonl"));
    assert!(
        dead.events
            .iter()
            .any(|e| e.kind == EventKind::Kill && e.cell == cell as u32 && e.iter == 2),
        "victim journal missing the kill event at cell {cell}, iteration 2: {:?}",
        dead.events
    );

    // The replacement process journals its rejoin under its own node name.
    let replacement = journal(&format!("node{victim:02}r.jsonl"));
    assert!(
        replacement.events.iter().any(|e| e.kind == EventKind::Rejoin),
        "replacement journal missing the rejoin event: {:?}",
        replacement.events
    );

    // Every rank that reads the victim substituted its slot for exactly the
    // planned absence window — rounds 2 and 3, the replacement
    // rendezvousing at round 4 — and journaled each round, naming the
    // victim's cell; a rank that does not read it never noticed. (Which
    // events the master's heartbeat path records for the victim is a race
    // between the doomed-gather signal and the miss counter; the
    // substitutions are a function of the fault plan alone.)
    let grid = Grid::new(2, 2, NeighborhoodPattern::Cross5);
    for reader in (0..4).filter(|&c| c != cell) {
        let substituted: Vec<(u32, u64)> = journal(&format!("node{:02}.jsonl", reader + 1))
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Degraded)
            .map(|e| (e.iter, e.arg))
            .collect();
        let want: &[(u32, u64)] = if grid.neighbors(reader).contains(&cell) {
            &[(2, cell as u64), (3, cell as u64)]
        } else {
            &[]
        };
        assert_eq!(
            substituted, want,
            "{exchange}: cell {reader}'s journal, victim rank {victim}"
        );
    }

    // The journals merge into a Perfetto-loadable trace with the fault
    // events on the right rank tracks.
    let trace_path = dir.join("trace.json");
    run(&[
        "trace",
        "--journals",
        tel_dir.to_str().unwrap(),
        "--out",
        trace_path.to_str().unwrap(),
    ]);
    let trace = String::from_utf8(read(&trace_path)).expect("trace is UTF-8");
    assert!(trace.contains("\"traceEvents\""), "not a Chrome trace: {trace}");
    // One event per line; the kill and the rejoin must sit on the victim's
    // track (the replacement keeps the victim's world rank).
    let on_victim_track = |name: &str| {
        trace.lines().any(|l| {
            l.contains(&format!("\"tid\":{victim}"))
                && l.contains(&format!("\"name\":\"{name}\""))
        })
    };
    assert!(
        on_victim_track("kill"),
        "kill instant missing from rank {victim}'s track:\n{trace}"
    );
    assert!(
        on_victim_track("rejoin"),
        "rejoin instant missing from rank {victim}'s track:\n{trace}"
    );

    // The virtual cluster models the same kill, byte-for-byte.
    let sim_lpz = dir.join("sim.lpz");
    let sim_ckpt = dir.join("ckpt_sim");
    let mut sim_args = vec![
        "train",
        "--driver",
        "cluster-sim",
        "--out",
        sim_lpz.to_str().unwrap(),
        "--checkpoint-dir",
        sim_ckpt.to_str().unwrap(),
    ];
    sim_args.extend_from_slice(&fault_flags);
    run(&sim_args);
    assert_eq!(
        outputs[0],
        read(&sim_lpz),
        "{exchange} rank {victim}: virtual-cluster model disagrees with the real degraded run"
    );
}

#[test]
fn healthy_run_with_degradation_armed_stays_byte_identical() {
    // Arming graceful degradation without any scripted kill must not
    // perturb training: the run stays byte-identical to a plain one.
    let dir = workdir("armed_healthy");
    let plain = dir.join("plain.lpz");
    let armed = dir.join("armed.lpz");
    let flags = ["--tiny", "--grid", "2", "--iterations", "3", "--batches", "2"];

    let mut plain_args = vec!["launch", "--out", plain.to_str().unwrap()];
    plain_args.extend_from_slice(&flags);
    run(&plain_args);

    let mut armed_args = vec![
        "launch",
        "--out",
        armed.to_str().unwrap(),
        "--max-stale-iters",
        "2",
        "--heartbeat-interval-ms",
        "10",
    ];
    armed_args.extend_from_slice(&flags);
    run(&armed_args);

    assert_eq!(read(&plain), read(&armed), "armed degradation changed a healthy run");
}
