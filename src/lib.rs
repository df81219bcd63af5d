//! # lipizzaner-rs
//!
//! A from-scratch Rust reproduction of *"Parallel/distributed
//! implementation of cellular training for generative adversarial neural
//! networks"* (Pérez, Nesmachnow, Toutouh, Hemberg, O'Reilly — IEEE
//! IPDPS Workshops / PDCO 2020): the Lipizzaner/Mustangs cellular
//! coevolutionary GAN trainer, parallelized with a master/slave
//! distributed-memory runtime.
//!
//! This crate is the facade: it re-exports the workspace's layers so an
//! application can depend on one crate.
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | numerics | [`tensor`] | matrices, kernels, seeded RNG |
//! | networks | [`nn`] | MLPs with manual backprop, GAN losses, Adam |
//! | data | [`data`] | synthetic MNIST-like digits, ring toy set, loaders |
//! | metrics | [`metrics`] | classifier, inception score, FID, coverage |
//! | transport | [`mpi`] | MPI-style message passing: in-process + TCP backends |
//! | algorithm | [`core`] | cellular coevolution, grid, sequential driver |
//! | runtime | [`runtime`] | master/slave protocol, heartbeats, TCP driver |
//! | platform | [`cluster`] | virtual-time Cluster-UY simulator |
//! | observability | [`telemetry`] | event journal, metrics, trace export |
//!
//! # Quickstart
//!
//! ```
//! use lipizzaner::prelude::*;
//!
//! // A tiny end-to-end cellular run (2×2 grid, toy networks).
//! let cfg = TrainConfig::smoke(2);
//! let mut rng = Rng64::seed_from(cfg.training.data_seed);
//! let data = rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9);
//! let mut trainer = SequentialTrainer::new(&cfg, |_| data.clone());
//! let report = trainer.run();
//! assert_eq!(report.cells.len(), 4);
//! ```

pub use lipiz_cluster as cluster;
pub use lipiz_core as core;
pub use lipiz_data as data;
pub use lipiz_metrics as metrics;
pub use lipiz_mpi as mpi;
pub use lipiz_nn as nn;
pub use lipiz_runtime as runtime;
pub use lipiz_telemetry as telemetry;
pub use lipiz_tensor as tensor;

/// The most common imports in one place.
pub mod prelude {
    pub use lipiz_cluster::{ClusterSpec, CommCost, SimulatedCluster, SimulationOptions};
    pub use lipiz_core::sequential::SequentialTrainer;
    pub use lipiz_core::{
        CellEngine, CellSnapshot, EnsembleModel, Grid, LossMode, NeighborhoodPattern, Routine,
        TrainConfig, TrainReport, TransportKind,
    };
    pub use lipiz_data::{BatchLoader, DataPartition, RingDataset, SynthDigits};
    pub use lipiz_metrics::ScoreService;
    pub use lipiz_mpi::{TcpFabric, Transport};
    pub use lipiz_nn::{
        Activation, Adam, Discriminator, GanLoss, Generator, Mlp, NetworkConfig,
    };
    pub use lipiz_runtime::driver::{run_tcp_master, run_tcp_slave};
    pub use lipiz_runtime::{run_distributed, DistributedOptions};
    pub use lipiz_telemetry::{chrome_trace, Telemetry, TelemetrySummary};
    pub use lipiz_tensor::{Matrix, Pool, Rng64};
}
