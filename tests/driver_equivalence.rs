//! The workspace's strongest correctness claim: the sequential baseline,
//! the threaded master/slave runtime, and the virtual-time cluster
//! simulator all execute the *same* deterministic training and must agree
//! bit-for-bit on the results — only their notion of time differs.

mod common;

use common::toy_data;
use lipizzaner::prelude::*;

fn assert_reports_equal(a: &TrainReport, b: &TrainReport, label: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{label}: cell counts");
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.cell, y.cell, "{label}: cell ids");
        assert_eq!(x.gen_fitness, y.gen_fitness, "{label}: cell {} G fitness", x.cell);
        assert_eq!(x.disc_fitness, y.disc_fitness, "{label}: cell {} D fitness", x.cell);
        assert_eq!(x.mixture_weights, y.mixture_weights, "{label}: cell {} mixture", x.cell);
    }
    assert_eq!(a.best_cell, b.best_cell, "{label}: best cell");
}

fn run_all_three(cfg: &TrainConfig) -> (TrainReport, TrainReport, TrainReport) {
    let data = toy_data(cfg);
    let mut seq = SequentialTrainer::new(cfg, |_| data.clone());
    let seq_report = seq.run();

    let dist_outcome =
        run_distributed(cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());

    let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
    let sim_outcome = sim.run(cfg, |_| data.clone());

    (seq_report, dist_outcome.report, sim_outcome.report)
}

#[test]
fn three_drivers_agree_on_2x2() {
    let cfg = TrainConfig::smoke(2);
    let (seq, dist, sim) = run_all_three(&cfg);
    assert_reports_equal(&seq, &dist, "sequential vs distributed");
    assert_reports_equal(&seq, &sim, "sequential vs cluster-sim");
}

#[test]
fn three_drivers_agree_on_3x3() {
    let cfg = TrainConfig::smoke(3);
    let (seq, dist, sim) = run_all_three(&cfg);
    assert_reports_equal(&seq, &dist, "sequential vs distributed 3x3");
    assert_reports_equal(&seq, &sim, "sequential vs cluster-sim 3x3");
}

#[test]
fn drivers_agree_under_mustangs_loss_mutation() {
    let cfg = TrainConfig::smoke(2).with_mustangs();
    let (seq, dist, sim) = run_all_three(&cfg);
    assert_reports_equal(&seq, &dist, "mustangs: sequential vs distributed");
    assert_reports_equal(&seq, &sim, "mustangs: sequential vs cluster-sim");
}

#[test]
fn drivers_agree_under_moore9_neighborhood() {
    let mut cfg = TrainConfig::smoke(2);
    cfg.grid.pattern = NeighborhoodPattern::Moore9;
    let (seq, dist, sim) = run_all_three(&cfg);
    assert_reports_equal(&seq, &dist, "moore9: sequential vs distributed");
    assert_reports_equal(&seq, &sim, "moore9: sequential vs cluster-sim");
}

#[test]
fn drivers_agree_with_all_pairs_adversaries() {
    let mut cfg = TrainConfig::smoke(2);
    cfg.coevolution.adversary = lipizzaner::core::AdversaryStrategy::All;
    cfg.coevolution.iterations = 1;
    let (seq, dist, sim) = run_all_three(&cfg);
    assert_reports_equal(&seq, &dist, "all-pairs: sequential vs distributed");
    assert_reports_equal(&seq, &sim, "all-pairs: sequential vs cluster-sim");
}

#[test]
fn drivers_agree_on_non_square_grids() {
    // The virtual cluster and most suites only ever run square grids; the
    // degenerate shapes (single row, 2×5 with its N==S wrap collapse) must
    // agree across drivers too.
    for (rows, cols) in [(1, 3), (2, 5)] {
        let mut cfg = TrainConfig::smoke(2);
        cfg.grid.rows = rows;
        cfg.grid.cols = cols;
        cfg.coevolution.iterations = 1;
        let (seq, dist, sim) = run_all_three(&cfg);
        assert_eq!(seq.cells.len(), rows * cols);
        assert_reports_equal(&seq, &dist, &format!("{rows}x{cols}: sequential vs distributed"));
        assert_reports_equal(&seq, &sim, &format!("{rows}x{cols}: sequential vs cluster-sim"));
    }
}

#[test]
fn different_seeds_change_results() {
    // Sanity check that the equality above is non-vacuous.
    let cfg_a = TrainConfig::smoke(2);
    let mut cfg_b = TrainConfig::smoke(2);
    cfg_b.seed += 1;
    let data = toy_data(&cfg_a);
    let mut seq_a = SequentialTrainer::new(&cfg_a, |_| data.clone());
    let mut seq_b = SequentialTrainer::new(&cfg_b, |_| data.clone());
    let a = seq_a.run();
    let b = seq_b.run();
    let same = a.cells.iter().zip(&b.cells).all(|(x, y)| x.gen_fitness == y.gen_fitness);
    assert!(!same, "different master seeds produced identical runs");
}

/// Run the compiled `lipizzaner` binary with `args` and return the `.lpz`
/// it saved.
fn lpz_from_cli(args: &[&str], out: &std::path::Path) -> Vec<u8> {
    let mut args = args.to_vec();
    args.extend(["--out", out.to_str().unwrap()]);
    common::run(&args);
    common::read(out)
}

#[test]
fn four_drivers_save_the_same_lpz_on_every_grid_shape_sync_and_async() {
    // A rank holds only the frame slots its cell reads, so the shapes that
    // matter are the ones where that set is odd: 1×2 (a cell is its own N/S
    // neighbour), 2×2 and 2×3 (wrap-around duplicates), 3×3 (four distinct
    // neighbours out of eight peers) and 4×4 (eleven cells a rank never
    // decodes). Sequential, threaded, TCP processes and the simulator must
    // save byte-identical ensembles on every one, sync and async.
    let dir = std::env::temp_dir().join("lipiz_driver_equivalence_grids");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test workdir");
    let drivers: [(&str, &[&str]); 4] = [
        ("sequential", &["train", "--driver", "sequential"]),
        ("threaded", &["train", "--driver", "distributed"]),
        ("cluster-sim", &["train", "--driver", "cluster-sim"]),
        ("tcp", &["launch"]),
    ];
    for (rows, cols) in [(1, 2), (2, 2), (2, 3), (3, 3), (4, 4)] {
        for exchange in ["sync", "async"] {
            let (rows_s, cols_s) = (rows.to_string(), cols.to_string());
            let mut reference: Option<Vec<u8>> = None;
            for (name, command) in drivers {
                let mut args = command.to_vec();
                args.extend_from_slice(&["--tiny", "--rows", &rows_s, "--cols", &cols_s]);
                args.extend_from_slice(&["--iterations", "3", "--batches", "1"]);
                args.extend_from_slice(&["--exchange", exchange]);
                let out = dir.join(format!("{name}_{rows}x{cols}_{exchange}.lpz"));
                let lpz = lpz_from_cli(&args, &out);
                match &reference {
                    None => reference = Some(lpz),
                    Some(reference) => assert!(
                        &lpz == reference,
                        "{rows}x{cols} {exchange}: {name} differs from sequential"
                    ),
                }
            }
        }
    }
}
