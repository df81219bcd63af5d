//! Master/slave distributed runtime (§III of the paper).
//!
//! This crate is the paper's contribution proper: the distributed-memory
//! parallel implementation of cellular GAN training. It maps one grid cell
//! to one slave rank plus a master rank (Table II: an `m×m` grid uses
//! `m² + 1` cores), communicating over `lipiz-mpi`:
//!
//! * [`comm_manager::CommManager`] — the paper's new `comm-manager` class:
//!   wraps the three communicators (WORLD for control traffic, LOCAL for
//!   slave-only collectives, GLOBAL for final result gathering) behind an
//!   abstract API so the transport can be swapped;
//! * [`state::SlaveState`] — the Fig. 2 state machine
//!   (inactive → processing → finished);
//! * [`master`] — workload assignment, configuration distribution, the
//!   heartbeat monitor thread, final gather + reduction;
//! * [`slave`] — per-rank main/communication thread plus a training
//!   execution thread (the two-thread design of Fig. 3);
//! * [`protocol`] — the typed wire messages exchanged between ranks;
//! * [`driver::run_distributed`] — one-call entry point.
//!
//! Training results are bit-identical to `lipiz_core::sequential` given the
//! same config (the per-cell engines are deterministic and the allgather
//! reproduces the sequential snapshot semantics); the integration tests
//! assert this equivalence.
//!
//! # Example
//!
//! ```
//! use lipiz_core::TrainConfig;
//! use lipiz_runtime::{run_distributed, DistributedOptions};
//! use lipiz_tensor::Rng64;
//!
//! let cfg = TrainConfig::smoke(2); // 2×2 grid -> 4 slave ranks + 1 master
//! let make_data = |_cell: usize, cfg: &TrainConfig| {
//!     let mut rng = Rng64::seed_from(cfg.training.data_seed);
//!     rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
//! };
//! let report = run_distributed(&cfg, make_data, DistributedOptions::default()).report;
//! assert_eq!(report.driver, "distributed");
//! assert_eq!(report.cells.len(), 4);
//! ```

pub mod checkpoint;
pub mod comm_manager;
pub mod driver;
pub mod heartbeat;
pub mod master;
pub mod protocol;
pub mod slave;
pub mod state;

pub use comm_manager::CommManager;
pub use driver::{run_distributed, DistributedOptions};
pub use state::SlaveState;
