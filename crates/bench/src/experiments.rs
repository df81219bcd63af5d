//! The experiment runners behind each `repro` target.

use crate::table::{fixed, minutes, TextTable};
use crate::workload::{digits_data, scaled_config, Scale};
use lipiz_cluster::{allocation, SimulatedCluster, SimulationOptions};
use lipiz_core::{Grid, Routine, TrainConfig};
use lipiz_runtime::SlaveState;

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

// ---------------------------------------------------------------- Table I

/// Render the Table I parameter settings from the live configuration
/// (asserting the defaults actually carry the paper's values).
pub fn table1() -> String {
    let cfg = TrainConfig::paper_table1();
    let mut t = TextTable::new(
        "TABLE I — PARAMETERS SETTINGS OF THE TRAINED GANS",
        &["parameter", "value"],
    );
    let rows: Vec<(String, String)> = vec![
        ("Network type".into(), "MLP".into()),
        ("Input neurons".into(), cfg.network.latent_dim.to_string()),
        ("Number of hidden layers".into(), cfg.network.hidden_layers.to_string()),
        ("Neurons per hidden layer".into(), cfg.network.hidden_units.to_string()),
        ("Output neurons".into(), cfg.network.data_dim.to_string()),
        ("Activation function".into(), "tanh".into()),
        ("Iterations".into(), cfg.coevolution.iterations.to_string()),
        ("Population size per cell".into(), cfg.coevolution.population_per_cell.to_string()),
        ("Tournament size".into(), cfg.coevolution.tournament_size.to_string()),
        ("Grid size".into(), "2x2 to 4x4".into()),
        ("Mixture mutation scale".into(), format!("{}", cfg.coevolution.mixture_sigma)),
        ("Optimizer".into(), "Adam".into()),
        ("Initial learning rate".into(), format!("{}", cfg.mutation.initial_lr)),
        ("Mutation rate".into(), format!("{}", cfg.mutation.rate)),
        ("Mutation probability".into(), format!("{}", cfg.mutation.probability)),
        ("Batch size".into(), cfg.training.batch_size.to_string()),
        ("Skip N disc. steps".into(), cfg.training.skip_disc_steps.to_string()),
    ];
    for (k, v) in rows {
        t.row(&[k, v]);
    }
    t.render()
}

// --------------------------------------------------------------- Table II

/// One Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Grid side m.
    pub m: usize,
    /// Cores = m² + 1.
    pub cores: usize,
    /// Modeled job memory (MB) at paper scale (60k-sample dataset).
    pub memory_mb: usize,
}

/// Compute the Table II resource rows from the allocation model.
pub fn table2_rows() -> Vec<Table2Row> {
    (2..=4)
        .map(|m| {
            let mut cfg = TrainConfig::paper_table1();
            cfg.grid = lipiz_core::GridConfig::square(m);
            Table2Row {
                m,
                cores: cfg.cells() + 1,
                memory_mb: allocation::estimate_job_memory_mb(&cfg),
            }
        })
        .collect()
}

/// Render Table II.
pub fn table2() -> String {
    let mut t = TextTable::new(
        "TABLE II — RESOURCES USED ON EACH EXECUTION (modeled)",
        &["parameter", "2x2", "3x3", "4x4"],
    );
    let rows = table2_rows();
    t.row(&[
        "# cores".into(),
        rows[0].cores.to_string(),
        rows[1].cores.to_string(),
        rows[2].cores.to_string(),
    ]);
    t.row(&[
        "memory (MB)".into(),
        rows[0].memory_mb.to_string(),
        rows[1].memory_mb.to_string(),
        rows[2].memory_mb.to_string(),
    ]);
    t.render()
}

// -------------------------------------------------------------- Table III

/// One Table III row: sequential vs distributed execution time + speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Grid side m.
    pub m: usize,
    /// Sequential (single-core) seconds.
    pub seq_seconds: f64,
    /// Mean distributed (virtual-cluster) seconds over the runs.
    pub dist_mean: f64,
    /// Std-dev across runs.
    pub dist_std: f64,
    /// `seq / dist_mean`.
    pub speedup: f64,
}

/// Warm up the allocator/caches so the first timed run is not penalized
/// by one-time process costs (page faults, allocator growth).
fn warm_up() {
    let cfg = scaled_config(2, Scale::Smoke);
    let data = digits_data(&cfg);
    let mut t = lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| data.clone());
    t.run_one_iteration();
}

/// Run the Table III experiment: for each grid size, one sequential
/// baseline and `runs` virtual-cluster executions with different
/// best-effort seeds (the paper runs ten).
pub fn run_table3(scale: Scale, runs: usize, grids: &[usize]) -> Vec<Table3Row> {
    warm_up();
    grids
        .iter()
        .map(|&m| {
            let cfg = scaled_config(m, scale);
            let data = digits_data(&cfg);
            // Sequential baseline (real single-core wall time).
            let mut seq =
                lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| data.clone());
            let seq_report = seq.run();
            // Distributed runs on the virtual cluster.
            let walls: Vec<f64> = (0..runs)
                .map(|r| {
                    let sim = SimulatedCluster::cluster_uy(SimulationOptions {
                        run_seed: 1 + r as u64,
                        ..Default::default()
                    });
                    sim.run(&cfg, |_| data.clone()).virtual_wall()
                })
                .collect();
            let (dist_mean, dist_std) = mean_std(&walls);
            Table3Row {
                m,
                seq_seconds: seq_report.wall_seconds,
                dist_mean,
                dist_std,
                speedup: seq_report.wall_seconds / dist_mean.max(1e-12),
            }
        })
        .collect()
}

/// Render Table III.
pub fn table3(scale: Scale, runs: usize) -> String {
    let rows = run_table3(scale, runs, &[2, 3, 4]);
    let mut t = TextTable::new(
        &format!(
            "TABLE III — EXECUTION TIMES OF GAN TRAINING (minutes, scaled workload, {runs} runs; \
             distributed = virtual cluster, each rank charged its own neighbour exchange)"
        ),
        &["grid size", "single core (min)", "distributed (min)", "speedup"],
    );
    for r in &rows {
        t.row(&[
            format!("{0}x{0}", r.m),
            minutes(r.seq_seconds),
            format!("{}±{}", minutes(r.dist_mean), minutes(r.dist_std)),
            fixed(r.speedup, 2),
        ]);
    }
    t.render()
}

// --------------------------------------------------------------- Table IV

/// One Table IV row: per-routine single-core vs distributed time.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Routine name.
    pub routine: String,
    /// Single-core seconds (whole grid).
    pub single: f64,
    /// Distributed per-rank mean seconds.
    pub distributed: f64,
    /// Acceleration: reduction w.r.t. single core, percent.
    pub acceleration_pct: f64,
    /// Speedup: `single / distributed`.
    pub speedup: f64,
}

/// Profile data for Table IV / Fig. 4 at grid size `m`.
pub fn run_table4(scale: Scale, m: usize) -> Vec<Table4Row> {
    warm_up();
    let cfg = scaled_config(m, scale);
    let data = digits_data(&cfg);
    let mut seq = lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| data.clone());
    let seq_report = seq.run();
    let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
    let sim_outcome = sim.run(&cfg, |_| data.clone());

    let mut rows: Vec<Table4Row> =
        [Routine::Gather, Routine::Train, Routine::UpdateGenomes, Routine::Mutate]
            .iter()
            .map(|r| {
                let single = seq_report.profile.seconds(*r);
                let dist = sim_outcome.report.profile.seconds(*r);
                Table4Row {
                    routine: r.name().to_string(),
                    single,
                    distributed: dist,
                    acceleration_pct: if single > 0.0 {
                        (1.0 - dist / single) * 100.0
                    } else {
                        0.0
                    },
                    speedup: single / dist.max(1e-12),
                }
            })
            .collect();
    let single_total: f64 = rows.iter().map(|r| r.single).sum();
    let dist_total: f64 = rows.iter().map(|r| r.distributed).sum();
    rows.push(Table4Row {
        routine: "overall".into(),
        single: single_total,
        distributed: dist_total,
        acceleration_pct: (1.0 - dist_total / single_total.max(1e-12)) * 100.0,
        speedup: single_total / dist_total.max(1e-12),
    });
    rows
}

/// Render Table IV.
pub fn table4(scale: Scale) -> String {
    let rows = run_table4(scale, 4);
    let mut t = TextTable::new(
        "TABLE IV — PROFILING OF EXECUTION TIMES (4x4 grid, scaled workload, minutes)",
        &["routine", "single core", "distributed", "acceleration", "speedup"],
    );
    for r in &rows {
        t.row(&[
            r.routine.clone(),
            minutes(r.single),
            minutes(r.distributed),
            format!("{:.1}%", r.acceleration_pct),
            fixed(r.speedup, 2),
        ]);
    }
    t.render()
}

/// Fig. 4 as a CSV series (one bar group per routine).
pub fn fig4(scale: Scale) -> String {
    let rows = run_table4(scale, 4);
    let mut out = String::from("routine,single_core_seconds,distributed_seconds\n");
    for r in rows.iter().filter(|r| r.routine != "overall") {
        out.push_str(&format!("{},{:.4},{:.4}\n", r.routine, r.single, r.distributed));
    }
    out
}

// ----------------------------------------------------------- Figures 1–3

/// Fig. 1: the toroidal grid with two overlapping neighborhoods.
pub fn fig1() -> String {
    let grid = Grid::square(4);
    let mut out =
        String::from("FIG. 1 — 4x4 toroidal grid; C = center, n = neighborhood member\n\n");
    let n11 = grid.index(1, 1);
    out.push_str(&format!("Neighborhood N(1,1) (cell {n11}):\n"));
    out.push_str(&grid.render_neighborhood(n11));
    let n13 = grid.index(1, 3);
    out.push_str(&format!("\nNeighborhood N(1,3) (cell {n13}, wraps the torus):\n"));
    out.push_str(&grid.render_neighborhood(n13));
    out.push_str(&format!(
        "\nOverlap: updates to cell {} propagate to cells {:?}\n",
        grid.index(1, 2),
        grid.overlapping(grid.index(1, 2))
    ));
    out
}

/// Fig. 2: slave state machine.
pub fn fig2() -> String {
    format!("FIG. 2 — SLAVE STATES AND TRANSITIONS\n\n{}", SlaveState::render_machine())
}

/// Fig. 3: live protocol trace from a real threaded master/slave run.
pub fn fig3() -> String {
    let cfg = scaled_config(2, Scale::Smoke).with_heartbeat(5, 0);
    let outcome = lipiz_runtime::driver::run_distributed(
        &cfg,
        |cell, cfg| {
            let _ = cell;
            let mut rng = lipiz_tensor::Rng64::seed_from(cfg.training.data_seed);
            rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
        },
        lipiz_runtime::DistributedOptions::default(),
    );
    let mut out =
        String::from("FIG. 3 — MASTER/SLAVE FLOW (live trace of a real threaded run)\n\n");
    out.push_str("1. slaves -> master: node announcements\n");
    for a in &outcome.announcements {
        out.push_str(&format!("   rank {} on {}\n", a.rank, a.node_name));
    }
    out.push_str("2. master -> slaves: run-task messages (config + cell assignment)\n");
    out.push_str(&format!(
        "3. heartbeat thread: {} monitoring rounds, any delayed: {}\n",
        outcome.heartbeat.len(),
        outcome.heartbeat.any_delayed()
    ));
    out.push_str(&format!(
        "4. training: {} iterations per slave, neighbour exchange on LOCAL each iteration\n",
        outcome.report.iterations
    ));
    out.push_str("5. final gather on GLOBAL + reduction at master\n");
    out.push_str(&format!(
        "   best cell: {} (generator fitness {:.4})\n",
        outcome.report.best().cell,
        outcome.report.best().gen_fitness
    ));
    out
}

// ------------------------------------------------------------- Extension

/// Scaling beyond the paper: grids up to `max_m`.
/// Beyond the paper: the checkpoint/restore proof obligation at smoke
/// scale. A sequential run is interrupted at the halfway iteration (its
/// state committed through the async checkpoint writer), restored from the
/// on-disk files, and run to completion — the final ensembles must be
/// bit-identical to the uninterrupted run's, and every per-cell commit
/// must have landed.
pub fn checkpoint_resume(scale: Scale) -> String {
    use lipiz_runtime::checkpoint::{self, CheckpointWriter};

    let mut cfg = scaled_config(2, scale);
    cfg.coevolution.iterations = cfg.coevolution.iterations.max(4);
    let pause_at = cfg.coevolution.iterations / 2;
    let data = digits_data(&cfg);

    let dir = std::env::temp_dir()
        .join("lipiz_repro_checkpoint")
        .join(format!("{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");

    // Uninterrupted reference.
    let mut reference = lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| data.clone());
    reference.run();
    let ref_ensembles = reference.ensembles();

    // Interrupted run: checkpoint every iteration, stop at the pause point.
    checkpoint::write_manifest(&dir, &cfg).expect("write manifest");
    let writer = CheckpointWriter::to_dir(&dir, cfg.cells());
    let mut first = lipiz_core::sequential::SequentialTrainer::new(&cfg, |_| data.clone());
    while first.iterations_done() < pause_at {
        first.run_one_iteration();
        for state in first.capture_states() {
            writer.submit(state);
        }
    }
    let commits = writer.finish().expect("checkpoint commits");
    drop(first);

    // Restore from disk and finish.
    let (cut, states) = checkpoint::load_grid_states(&dir, &cfg).expect("load cut");
    let mut resumed =
        lipiz_core::sequential::SequentialTrainer::from_states(&cfg, |_| data.clone(), &states);
    resumed.run();
    let identical = resumed.ensembles() == ref_ensembles;
    let _ = std::fs::remove_dir_all(&dir);

    let mut out =
        String::from("CHECKPOINT/RESUME — deterministic restore proof (beyond paper)\n\n");
    out.push_str(&format!(
        "  grid 2x2, {} iterations, interrupted after {pause_at} (cut restored at {cut})\n",
        cfg.coevolution.iterations
    ));
    out.push_str(&format!(
        "  async writer commits: {commits} (4 cells x {pause_at} iterations)\n"
    ));
    out.push_str(&format!(
        "  resumed ensembles vs uninterrupted: {}\n",
        if identical { "BIT-IDENTICAL" } else { "MISMATCH" }
    ));
    assert!(identical, "resumed ensembles diverged from the uninterrupted run");
    assert_eq!(commits as usize, 4 * pause_at, "missing checkpoint commits");
    out
}

/// Beyond the paper: staleness vs quality under in-flight rank
/// replacement. One rank is scripted to die halfway through training; the
/// run is replayed at increasing staleness bounds (the replacement rejoins
/// the exchange `max_stale` rounds after the kill, catching up solo
/// against the frozen death-frame). Each degraded run is a pure function
/// of (seed, fault plan): every row is produced twice and must replay to
/// byte-identical ensembles.
pub fn fault_staleness(scale: Scale) -> String {
    let mut cfg = scaled_config(2, scale);
    cfg.coevolution.iterations = cfg.coevolution.iterations.max(6);
    let data = digits_data(&cfg);
    let kill = cfg.coevolution.iterations / 2;
    let victim_cell = 2usize; // world rank 3
    let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());

    let healthy = sim.run(&cfg, |_| data.clone());
    let mut t = TextTable::new(
        &format!(
            "FAULT TOLERANCE — STALENESS vs QUALITY (2x2 grid, rank {} killed at iteration {kill})",
            victim_cell + 1
        ),
        &["max stale", "rejoin round", "victim G fitness", "best G fitness", "replay"],
    );
    t.row(&[
        "0 (no fault)".into(),
        "-".into(),
        fixed(healthy.report.cells[victim_cell].gen_fitness, 4),
        fixed(healthy.report.best().gen_fitness, 4),
        "identical".into(),
    ]);
    for max_stale in 1..=3usize {
        let faulted =
            cfg.clone().with_fault_plan(format!("kill:{}@{kill}", victim_cell + 1), max_stale);
        let a = sim.run(&faulted, |_| data.clone());
        let b = sim.run(&faulted, |_| data.clone());
        let replay = if a.ensembles == b.ensembles { "identical" } else { "DIVERGED" };
        t.row(&[
            max_stale.to_string(),
            (kill + max_stale).to_string(),
            fixed(a.report.cells[victim_cell].gen_fitness, 4),
            fixed(a.report.best().gen_fitness, 4),
            replay.into(),
        ]);
    }
    t.render()
}

/// Beyond the paper: the overlapped (`--exchange async`) neighbor exchange
/// vs the paper's synchronous gather. Async trains iteration `i` against
/// the completed generation-`i-1` frame, so the exchange hides behind
/// compute: the virtual cluster, which charges each rank the wait and
/// transfer of its own neighbourhood, reports how much gather time the
/// overlap removes, and every configuration is run twice and must replay to
/// byte-identical ensembles (the relaxation is structural, not a race). A
/// final row composes async with an in-flight rank replacement — the dead
/// rank's staleness budget counts on top of the pipeline's structural lag
/// of one round.
pub fn async_exchange(scale: Scale) -> String {
    let mut cfg = scaled_config(2, scale);
    cfg.coevolution.iterations = cfg.coevolution.iterations.max(6);
    let data = digits_data(&cfg);
    let kill = cfg.coevolution.iterations / 2;
    let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());

    let mut t = TextTable::new(
        "ASYNC EXCHANGE — OVERLAP vs QUALITY (2x2 grid; gather = neighbour-exchange wait, \
         max across ranks, summed over iterations)",
        &["exchange", "fault", "gather (s)", "virtual wall (s)", "best G fitness", "replay"],
    );
    let async_cfg = cfg.clone().with_exchange(lipiz_core::ExchangeMode::Async);
    let fault_plan = format!("kill:3@{kill}");
    let faulted_async = async_cfg.clone().with_fault_plan(&fault_plan, 1);
    let runs: [(&str, &str, &TrainConfig); 3] = [
        ("sync", "none", &cfg),
        ("async", "none", &async_cfg),
        ("async", &format!("kill rank 3 @ {kill}"), &faulted_async),
    ];
    let mut gather = [0.0f64; 3];
    for (i, (exchange, fault, run_cfg)) in runs.iter().enumerate() {
        let a = sim.run(run_cfg, |_| data.clone());
        let b = sim.run(run_cfg, |_| data.clone());
        let replay = if a.ensembles == b.ensembles { "identical" } else { "DIVERGED" };
        assert_eq!(replay, "identical", "{exchange}/{fault} run failed to replay");
        gather[i] = a.comm.allgather_seconds;
        t.row(&[
            (*exchange).into(),
            (*fault).into(),
            fixed(a.comm.allgather_seconds, 3),
            fixed(a.virtual_wall(), 3),
            fixed(a.report.best().gen_fitness, 4),
            replay.into(),
        ]);
    }
    assert!(gather[1] < gather[0], "async gather {} not below sync {}", gather[1], gather[0]);
    t.render()
}

pub fn scaling_extension(scale: Scale, max_m: usize) -> String {
    let grids: Vec<usize> = (2..=max_m).collect();
    let rows = run_table3(scale, 3, &grids);
    let mut t = TextTable::new(
        "SCALING EXTENSION — beyond the paper's 4x4",
        &["grid", "cells", "seq (min)", "dist (min)", "speedup", "efficiency"],
    );
    for r in &rows {
        let p = r.m * r.m;
        t.row(&[
            format!("{0}x{0}", r.m),
            p.to_string(),
            minutes(r.seq_seconds),
            minutes(r.dist_mean),
            fixed(r.speedup, 2),
            fixed(r.speedup / p as f64, 2),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_paper_values() {
        let s = table1();
        for needle in ["256", "784", "tanh", "Adam", "0.0002", "0.0001", "100", "200"] {
            assert!(s.contains(needle), "Table I missing {needle}:\n{s}");
        }
    }

    #[test]
    fn table2_rows_match_paper_cores() {
        let rows = table2_rows();
        assert_eq!(rows[0].cores, 5);
        assert_eq!(rows[1].cores, 10);
        assert_eq!(rows[2].cores, 17);
        // Memory grows with the grid and sits in Table II's order of
        // magnitude (thousands of MB at paper scale).
        assert!(rows[0].memory_mb > 500);
        assert!(rows[2].memory_mb > rows[0].memory_mb * 3);
    }

    // NOTE: these two tests validate plumbing (row structure, positive
    // timings), not timing *shape* — at smoke scale with the test harness
    // saturating both host cores, µs-level measurements are too noisy for
    // strict speedup assertions. The shape claims are validated by the
    // serially-run `repro` harness (see EXPERIMENTS.md).
    #[test]
    fn table3_smoke_shape() {
        let rows = run_table3(Scale::Smoke, 2, &[2]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.seq_seconds > 0.0);
        assert!(r.dist_mean > 0.0);
        assert!(r.dist_std >= 0.0);
        assert!(
            r.speedup.is_finite() && r.speedup > 0.3,
            "implausible speedup even under contention: {}",
            r.speedup
        );
    }

    #[test]
    fn table4_smoke_shape() {
        let rows = run_table4(Scale::Smoke, 2);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.single >= 0.0 && r.distributed >= 0.0, "{}: negative time", r.routine);
            assert!(r.speedup.is_finite(), "{}: bad speedup", r.routine);
        }
        let train = rows.iter().find(|r| r.routine == "train").unwrap();
        assert!(train.single > 0.0, "train must consume time");
        let overall = rows.iter().find(|r| r.routine == "overall").unwrap();
        assert!(overall.single >= rows[1].single, "overall must include train");
    }

    #[test]
    fn figures_render() {
        let f1 = fig1();
        assert!(f1.contains('C') && f1.contains('n'));
        let f2 = fig2();
        assert!(f2.contains("inactive") && f2.contains("finished"));
    }

    #[test]
    fn fig3_runs_live_protocol() {
        let s = fig3();
        assert!(s.contains("node announcements"));
        assert!(s.contains("best cell"));
    }

    #[test]
    fn fault_staleness_rows_replay_identically() {
        let s = fault_staleness(Scale::Smoke);
        assert!(s.contains("no fault"), "missing healthy baseline row:\n{s}");
        assert!(s.contains("identical"), "missing replay verdicts:\n{s}");
        assert!(!s.contains("DIVERGED"), "degraded replay diverged:\n{s}");
    }

    #[test]
    fn mean_std_math() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
