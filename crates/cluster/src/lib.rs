//! Virtual-time cluster simulator (the Cluster-UY substitute).
//!
//! The paper's experiments ran on the National Supercomputing Center
//! (Cluster-UY): 30 nodes × 40-core Xeon Gold 6138, Slurm, a best-effort
//! queue (§IV-B). This host has two cores, so 17 concurrent ranks cannot
//! demonstrate a 15× wall-clock speedup directly. This crate reproduces the
//! *scaling experiment* the honest way:
//!
//! * the **real training computation executes** — every cell engine runs
//!   exactly the same deterministic code as the sequential baseline and the
//!   threaded runtime (results are bit-identical, asserted in tests);
//! * each rank's compute segments are **measured on the host** and charged
//!   to a per-rank **virtual clock** ([`vtime`]), scaled by the node's
//!   best-effort speed factor ([`allocation`]);
//! * each generation of the neighbour exchange is charged per reader: a
//!   rank waits for the posts of the cells it reads (§III-B) and receives
//!   each of their snapshots over its link at a Hockney (α + βn) cost
//!   ([`costmodel`]) sized by the actual serialized snapshot bytes.
//!
//! Virtual wall-clock = `max` over ranks of their clock at the end, plus
//! the final result gather to the master.
//! The shape of Tables III/IV (who wins, how speedup scales with grid
//! size, which routines parallelize) is therefore reproduced from real
//! measurements, while absolute minutes depend on this host's single-core
//! speed — the substitution DESIGN.md §1 documents.
//!
//! # Example
//!
//! ```
//! use lipiz_cluster::{SimulatedCluster, SimulationOptions};
//! use lipiz_core::TrainConfig;
//! use lipiz_tensor::Rng64;
//!
//! let cfg = TrainConfig::smoke(2);
//! let sim = SimulatedCluster::cluster_uy(SimulationOptions::default());
//! let outcome = sim.run(&cfg, |_| {
//!     let mut rng = Rng64::seed_from(cfg.training.data_seed);
//!     rng.uniform_matrix(cfg.training.dataset_size, cfg.network.data_dim, -0.9, 0.9)
//! });
//! // One virtual clock per slave rank (m² cells), all advanced.
//! assert_eq!(outcome.rank_clocks.len(), 4);
//! assert!(outcome.rank_clocks.iter().all(|&t| t > 0.0));
//! ```

pub mod allocation;
pub mod costmodel;
pub mod platform;
pub mod report;
pub mod sim;
pub mod vtime;

pub use allocation::{Placement, RankPlacement};
pub use costmodel::CommCost;
pub use platform::ClusterSpec;
pub use report::SimOutcome;
pub use sim::{SimulatedCluster, SimulationOptions};
pub use vtime::RankClock;
