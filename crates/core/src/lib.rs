//! Cellular competitive-coevolutionary GAN training — the
//! Lipizzaner/Mustangs core that the paper parallelizes.
//!
//! # Algorithm (§II-B)
//!
//! A toroidal grid holds one GAN per cell. Each cell maintains
//! *sub-populations*: its own center generator/discriminator plus copies of
//! the four von-Neumann neighbors' centers (the paper's "five-cell Moore
//! neighborhood", s = 5). Every training iteration runs four phases — the
//! same four routines the paper profiles in Table IV:
//!
//! 1. **gather** — refresh the sub-populations with the neighbors' latest
//!    centers (an allgather in the distributed runtime, a snapshot copy in
//!    the sequential baseline);
//! 2. **mutate** — Gaussian hyperparameter mutation of the learning rate
//!    (Table I: rate 1e-4, probability 0.5) and, in Mustangs mode, mutation
//!    of the generator's loss function over {minimax, heuristic,
//!    least-squares};
//! 3. **train** — mini-batch adversarial gradient steps of the center pair
//!    against tournament-selected adversaries from the sub-populations;
//! 4. **update genomes** — re-evaluate every individual against the
//!    opposing sub-population, replace the center with the sub-population
//!    best, and periodically evolve the ensemble mixture weights with a
//!    (1+1)-ES (Table I: mixture mutation scale 0.01).
//!
//! The final model of a cell is a *mixture ensemble* of its sub-population
//! generators weighted by the evolved mixture weights; the grid's answer is
//! the cell with the lowest generator fitness (`lipiz-metrics` measures the
//! result from outside; it is not on the training path).
//!
//! # Drivers
//!
//! [`sequential::SequentialTrainer`] runs every cell in one process — the
//! "single core" baseline of Table III. The distributed master/slave driver
//! lives in `lipiz-runtime`, and the virtual-time cluster driver in
//! `lipiz-cluster`. All three run the *same* per-iteration schedule —
//! [`pipeline::Pipeline`] over their own [`pipeline::Exchange`] — around
//! the same [`cell::CellEngine`], so they are bit-identical given the same
//! [`config::TrainConfig`] by construction (and the integration tests keep
//! asserting it).
//!
//! # Example
//!
//! ```
//! use lipiz_core::sequential::SequentialTrainer;
//! use lipiz_core::TrainConfig;
//! use lipiz_tensor::Rng64;
//!
//! let cfg = TrainConfig::smoke(2); // 2×2 grid, toy networks
//! let mut rng = Rng64::seed_from(cfg.training.data_seed);
//! let data = rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9);
//! let report = SequentialTrainer::new(&cfg, |_| data.clone()).run();
//! assert_eq!(report.driver, "sequential");
//! assert_eq!(report.cells.len(), 4);
//! assert!(report.best().gen_fitness.is_finite());
//! ```

pub mod cell;
pub mod config;
pub mod individual;
pub mod mixture;
pub mod persist;
pub mod pipeline;
pub mod profiling;
pub mod report;
pub mod resume;
pub mod sequential;
pub mod snapshot;
pub mod topology;

pub use cell::{CellEngine, CellScratch};
pub use config::{
    AdversaryStrategy, CheckpointConfig, CoevolutionConfig, ExchangeMode, FaultConfig,
    GridConfig, LossMode, MutationConfig, TelemetryConfig, TrainConfig, TrainingConfig,
    TransportKind,
};
pub use individual::{Individual, SubPopulation};
pub use mixture::{EnsembleModel, MixtureWeights};
pub use pipeline::{Exchange, FrameSlot, InMemoryExchange, Pipeline};
pub use profiling::{ProfileReport, Routine};
pub use report::{CellResult, TrainReport};
pub use resume::CellState;
pub use snapshot::{CellSnapshot, EncodedSnapshot, Genome, GenomeLens, SnapshotRef};
pub use topology::{Grid, NeighborhoodPattern};
