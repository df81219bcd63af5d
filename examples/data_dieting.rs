//! Data dieting: training cells on shards of the dataset.
//!
//! ```text
//! cargo run --release --example data_dieting
//! ```
//!
//! The paper's reference [20] ("Data dieting in GAN training", Toutouh et
//! al. 2020) trains each Lipizzaner cell on a *subset* of the data to cut
//! memory and time. This example compares three partitions on the digit
//! workload — full data, disjoint shards, independent random quarters —
//! and reports training time plus the best cell's fitness for each.

use lipizzaner::data::DataPartition;
use lipizzaner::prelude::*;

fn config() -> TrainConfig {
    let mut cfg = TrainConfig::smoke(2);
    cfg.network.latent_dim = 16;
    cfg.network.hidden_layers = 1;
    cfg.network.hidden_units = 48;
    cfg.network.data_dim = lipizzaner::data::IMAGE_DIM;
    cfg.coevolution.iterations = 6;
    cfg.training.batch_size = 32;
    cfg.training.batches_per_iteration = 6;
    cfg.training.dataset_size = 640;
    cfg.training.eval_batch = 64;
    cfg.mutation.initial_lr = 1e-3;
    cfg
}

fn run(scheme: DataPartition, label: &str, full: &Matrix, cfg: &TrainConfig) {
    let cells = cfg.cells();
    let local_rows = scheme.rows_for_cell(full.rows(), cells, 0, 5).len();
    // Per-cell data is what the shard switch means to the trainer: with it
    // off, every cell shares the one dataset `make_data` returns first.
    let cfg = cfg.clone().with_shards(scheme != DataPartition::Full);
    let mut trainer =
        SequentialTrainer::new(&cfg, |cell| scheme.slice_for_cell(full, cells, cell, 5));
    let report = trainer.run();
    println!(
        "{label:<22} {local_rows:>4} rows/cell | {:.2}s | best G fitness {:.4}",
        report.wall_seconds,
        report.best().gen_fitness
    );
}

fn main() {
    let cfg = config();
    let digits = SynthDigits::generate(cfg.training.dataset_size, cfg.training.data_seed);
    println!(
        "dataset: {} samples; grid {}x{} ({} cells)\n",
        digits.len(),
        cfg.grid.rows,
        cfg.grid.cols,
        cfg.cells()
    );
    println!("{:<22} {:>9} | time  | quality", "partition", "data");

    run(DataPartition::Full, "full (paper setup)", &digits.images, &cfg);
    run(DataPartition::Shards, "disjoint shards", &digits.images, &cfg);
    run(
        DataPartition::RandomSubset { fraction: 0.25 },
        "random quarters",
        &digits.images,
        &cfg,
    );

    println!(
        "\nsharded cells see 1/{} of the data each; the cellular exchange of\n\
         generators lets the grid still cover the full distribution — the\n\
         data-dieting effect of the paper's reference [20].",
        cfg.cells()
    );
}
