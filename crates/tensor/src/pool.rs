//! The serial execution marker the kernel signatures take.
//!
//! The unit of parallelism is the grid cell: one rank thread per cell
//! (paper §III-A), and every matrix product runs on the thread of the rank
//! that calls it. [`Pool`] carries no state; it remains only as the `&Pool`
//! parameter of the product and network entry points.

/// Zero-sized marker for "run on the calling thread" — the only execution
/// mode the kernels have.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pool;

const _: () = assert!(std::mem::size_of::<Pool>() == 0, "Pool carries no state");

impl Pool {
    /// The marker value.
    pub const fn serial() -> Self {
        Self
    }
}
