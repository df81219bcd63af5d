//! Distributed-memory message passing with MPI-style semantics.
//!
//! The paper's implementation runs on MPI across cluster nodes (§III-D).
//! This crate reproduces the *programming model* behind a swappable
//! [`transport::Transport`]: every rank shares **no** data, and all
//! exchange happens through byte-serialized messages ([`wire::Wire`])
//! delivered to per-rank mailboxes. Two backends exist — the in-process
//! [`comm::Fabric`] (every rank an OS thread, used by the threaded driver
//! and all unit tests) and the multi-process [`tcp::TcpFabric`] (every
//! rank an OS process, envelopes framed over TCP sockets). The
//! serialization boundary is deliberate — it makes it impossible for rank
//! code to accidentally share state, which is exactly what lets the two
//! backends produce byte-identical training runs.
//!
//! Feature map to the paper:
//!
//! | paper (§III-D)                    | here                                   |
//! |-----------------------------------|----------------------------------------|
//! | `MPI_COMM_WORLD`                  | [`universe::Universe::run`]'s root [`comm::Comm`] |
//! | WORLD/LOCAL/GLOBAL communicators  | [`comm::Comm::subgroup`] context splits |
//! | p2p send/recv with tags           | [`comm::Comm::send`] / [`comm::Comm::recv`] |
//! | collective gather/allgather/bcast | [`comm::Comm`] collectives             |
//! | `MPI_CART_CREATE`                 | [`topology::CartGrid`]                 |
//!
//! Threading rules follow MPI: any thread of a rank may use a communicator
//! (clone the `Comm`), but collectives on one communicator must not be
//! called concurrently from two threads of the same rank.

//!
//! # Example
//!
//! ```
//! use lipiz_mpi::{Comm, Universe};
//!
//! // Three ranks, each contributing rank+1; allreduce sums across ranks.
//! let results = Universe::run(3, |comm: Comm| {
//!     comm.allreduce(&(comm.rank() as u64 + 1), |a, b| a + b)
//! });
//! assert_eq!(results, vec![6, 6, 6]);
//! ```

pub mod comm;
pub mod endpoint;
pub mod fault;
pub mod message;
pub mod tcp;
pub mod topology;
pub mod transport;
pub mod universe;

pub use comm::{Comm, DegradedGather, FrozenFrameHandle, PendingAllgather, RecvFrom};
pub use fault::{
    enable_process_faults, process_faults_enabled, replacement_schedule, scheduled_replacement,
    FaultPlan, FaultState, ReplacementSchedule,
};
/// The wire codec, [`lipiz_wire`], under the path rank code imports it by.
pub use lipiz_wire as wire;
pub use message::{Envelope, Payload, Tag};
pub use tcp::TcpFabric;
pub use topology::CartGrid;
pub use transport::Transport;
pub use universe::Universe;
pub use wire::{wire_struct, Wire, WireError};
