//! The Table III shape at bench scale: sequential grid training vs the
//! virtual-cluster distributed run, across grid sizes.
//!
//! Criterion measures *host* time here (tiny smoke networks keep samples
//! fast); the `repro table3` binary produces the actual Table III artifact
//! with Table-I-scale networks and virtual wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lipiz_bench::workload::{digits_data, scaled_config, Scale};
use lipiz_cluster::{SimulatedCluster, SimulationOptions};
use lipiz_core::sequential::SequentialTrainer;

fn bench_sequential_grids(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_grid");
    for &m in &[2usize, 3, 4] {
        let cfg = scaled_config(m, Scale::Smoke);
        let data = digits_data(&cfg);
        group.bench_with_input(BenchmarkId::new("m", m), &m, |b, _| {
            b.iter(|| {
                let mut t = SequentialTrainer::new(&cfg, |_| data.clone());
                t.run()
            })
        });
    }
    group.finish();
}

fn bench_simulated_cluster_grids(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtual_cluster_grid");
    for &m in &[2usize, 3, 4] {
        let cfg = scaled_config(m, Scale::Smoke);
        let data = digits_data(&cfg);
        group.bench_with_input(BenchmarkId::new("m", m), &m, |b, _| {
            b.iter(|| {
                let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
                sim.run(&cfg, |_| data.clone())
            })
        });
    }
    group.finish();
}

fn bench_threaded_distributed(c: &mut Criterion) {
    // The real threaded master/slave runtime (protocol overhead included).
    let mut group = c.benchmark_group("threaded_distributed");
    group.sample_size(10);
    let m = 2usize;
    let cfg = scaled_config(m, Scale::Smoke);
    group.bench_with_input(BenchmarkId::new("m", m), &m, |b, _| {
        b.iter(|| {
            lipiz_runtime::run_distributed(
                &cfg,
                |_, cfg| digits_data(cfg),
                lipiz_runtime::DistributedOptions::default(),
            )
            .report
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sequential_grids, bench_simulated_cluster_grids, bench_threaded_distributed
}
criterion_main!(benches);
