//! The full distributed stack: a live threaded master/slave run with
//! heartbeats, then the same job on the virtual Cluster-UY.
//!
//! ```text
//! cargo run --release --example cluster_run
//! ```
//!
//! Part 1 executes the real §III protocol: master + m² slaves as ranks,
//! node announcements, run-task messages, per-iteration neighbour exchange,
//! heartbeat monitoring, final GLOBAL gather and reduction.
//!
//! Part 2 re-runs the identical training on the virtual-time Cluster-UY
//! simulator and prints the Table-III-style comparison against a
//! sequential baseline — and asserts all three agree on the results.

use lipizzaner::prelude::*;

fn main() {
    let mut cfg = TrainConfig::smoke(2).with_heartbeat(5, 0);
    cfg.coevolution.iterations = 4;
    cfg.training.batches_per_iteration = 3;

    let make_data = |_cell: usize, cfg: &TrainConfig| {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    };

    // ---- Part 1: real threaded master/slave run -------------------------
    println!("== part 1: threaded master/slave runtime (m²+1 = 5 ranks) ==");
    let outcome = run_distributed(&cfg, make_data, DistributedOptions::default());
    println!("node announcements:");
    for a in &outcome.announcements {
        println!("  world rank {} -> {}", a.rank, a.node_name);
    }
    println!(
        "heartbeat rounds: {} (any delayed: {})",
        outcome.heartbeat.len(),
        outcome.heartbeat.any_delayed()
    );
    println!(
        "distributed run: {:.2}s wall, best cell {} (G fitness {:.4})",
        outcome.report.wall_seconds,
        outcome.report.best().cell,
        outcome.report.best().gen_fitness
    );

    // ---- Part 2: virtual Cluster-UY + sequential baseline ---------------
    println!("\n== part 2: virtual Cluster-UY vs single core ==");
    let data = {
        let mut rng = Rng64::seed_from(cfg.training.data_seed);
        rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
    };
    let mut seq = SequentialTrainer::new(&cfg, |_| data.clone());
    let seq_report = seq.run();

    let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
    let sim_outcome = sim.run(&cfg, |_| data.clone());
    println!(
        "single core: {:.2}s | virtual cluster: {:.3}s (virtual) => speedup {:.2} on {} cells",
        seq_report.wall_seconds,
        sim_outcome.virtual_wall(),
        seq_report.wall_seconds / sim_outcome.virtual_wall(),
        cfg.cells()
    );
    println!(
        "placement: {} node(s), worst best-effort slowdown {:.2}x, imbalance {:.3}",
        sim_outcome.placement.nodes_used,
        sim_outcome.placement.worst_speed(),
        sim_outcome.imbalance()
    );

    // ---- The invariant that makes the comparison meaningful -------------
    for ((d, s), v) in
        outcome.report.cells.iter().zip(&seq_report.cells).zip(&sim_outcome.report.cells)
    {
        assert_eq!(d.gen_fitness, s.gen_fitness, "threaded vs sequential diverged");
        assert_eq!(s.gen_fitness, v.gen_fitness, "sequential vs simulator diverged");
    }
    println!("\nall three drivers produced bit-identical training results ✓");
}
