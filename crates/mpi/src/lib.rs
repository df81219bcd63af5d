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
//! | slave-to-slave gather of partial results | [`comm::Comm::exchange_post`] / [`comm::Comm::exchange_complete`]: each rank posts to the ranks that read it |
//! | final gather at the master        | [`comm::Comm::gather`] / [`comm::Comm::gather_abortable`] |
//!
//! That is the whole surface the runtime calls, not an MPI look-alike (who
//! reads whom is the grid topology's, in `lipiz-core`); the root-assembled
//! [`comm::Comm::allgather_bytes`] remains for the repo benchmark.
//!
//! Threading rules follow MPI: any thread of a rank may use a communicator
//! (clone the `Comm`), but collectives on one communicator must not be
//! called concurrently from two threads of the same rank.
//!
//! # Example
//!
//! ```
//! use lipiz_mpi::{Comm, Payload, Universe};
//!
//! // A ring of four ranks, each reading its two neighbours: every rank
//! // posts its byte to exactly those two and receives theirs.
//! let results = Universe::run(4, |comm: Comm| {
//!     let (r, n) = (comm.rank(), comm.size());
//!     let ring = [(r + n - 1) % n, (r + 1) % n];
//!     let mine = Payload::from(vec![r as u8]);
//!     comm.exchange_post(&ring, &mine, 0, None);
//!     let mut got = Vec::new();
//!     comm.exchange_complete(&ring, &mine, 0, None, |src, part| got.push((src, part[0])));
//!     got
//! });
//! assert_eq!(results[0], [(3, 3), (1, 1)]);
//! ```

pub mod comm;
pub mod endpoint;
pub mod fault;
pub mod message;
pub mod tcp;
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
pub use transport::Transport;
pub use universe::Universe;
pub use wire::{wire_struct, Wire, WireError};
