//! Fig. 3 protocol-flow assertions against a live threaded run: the
//! master observes announcements, heartbeat progress, and a complete
//! final gather.

mod common;

use common::toy_data;
use lipizzaner::prelude::*;

#[test]
fn master_receives_one_announcement_per_slave() {
    let cfg = TrainConfig::smoke(2);
    let outcome = run_distributed(&cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());
    assert_eq!(outcome.announcements.len(), cfg.cells());
    let mut ranks: Vec<usize> = outcome.announcements.iter().map(|a| a.rank).collect();
    ranks.sort_unstable();
    assert_eq!(ranks, (1..=cfg.cells()).collect::<Vec<_>>());
}

#[test]
fn all_cells_report_results_in_order() {
    let cfg = TrainConfig::smoke(3);
    let outcome = run_distributed(&cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());
    assert_eq!(outcome.report.cells.len(), 9);
    for (i, c) in outcome.report.cells.iter().enumerate() {
        assert_eq!(c.cell, i, "results must arrive reduced in cell order");
        assert!(c.gen_fitness.is_finite());
        assert!(!c.mixture_weights.is_empty());
        let sum: f32 = c.mixture_weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "cell {i} mixture not normalized");
    }
}

#[test]
fn heartbeat_thread_observes_training_progress() {
    // The cadence is set through the config alone (2 ms, so a run this
    // short still spans several rounds).
    let mut cfg = TrainConfig::smoke(2).with_heartbeat(2, 0);
    cfg.coevolution.iterations = 8;
    cfg.training.batches_per_iteration = 4;
    let outcome = run_distributed(&cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());
    let log = &outcome.heartbeat;
    assert!(log.rounds.len() >= 2, "the config's heartbeat cadence was ignored");
    // At least one round saw a live slave; reported iterations never exceed
    // the configured count.
    let max_reported = log.rounds.iter().flatten().map(|r| r.iterations_done).max();
    assert!(max_reported.unwrap_or(0) <= cfg.coevolution.iterations as u64);
    let saw_any_state = log.rounds.iter().flatten().any(|r| r.state.is_some());
    assert!(saw_any_state, "no slave ever answered a heartbeat");
}

#[test]
fn per_slave_profiles_cover_all_routines() {
    let cfg = TrainConfig::smoke(2);
    let outcome = run_distributed(&cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());
    assert!(outcome.telemetry.is_none(), "telemetry is off");
    for sr in &outcome.slave_results {
        // The one aggregate a slave ships carries its Table IV totals even
        // with telemetry off; its histograms stay empty.
        let profile = lipizzaner::core::ProfileReport::rank_mean([&sr.telemetry]);
        assert!(profile.seconds(Routine::Train) > 0.0, "cell {} train time", sr.cell);
        assert!(profile.seconds(Routine::Gather) > 0.0, "cell {} gather time", sr.cell);
        assert!(sr.telemetry.gather_ns.is_empty() && sr.telemetry.train_ns.is_empty());
        assert!(sr.wall_seconds > 0.0);
    }
}

#[test]
fn distributed_wall_time_is_bounded_by_slowest_slave_plus_overhead() {
    let cfg = TrainConfig::smoke(2);
    let outcome = run_distributed(&cfg, |_, cfg| toy_data(cfg), DistributedOptions::default());
    let slowest = outcome.slave_results.iter().map(|r| r.wall_seconds).fold(0.0f64, f64::max);
    assert!(
        outcome.report.wall_seconds >= slowest * 0.5,
        "master wall {} vs slowest slave {}",
        outcome.report.wall_seconds,
        slowest
    );
}
