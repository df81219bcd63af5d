//! Dense f32 matrix kernels and seeded randomness for lipizzaner-rs.
//!
//! This crate is the numerical substrate of the workspace: a row-major
//! [`Matrix`] type, register-blocked matrix products (including the
//! transposed variants backpropagation needs, with a runtime-dispatched
//! AVX2 micro-kernel that stays bit-identical to the portable path),
//! elementwise kernels, axis reductions, a deterministic [`rng::Rng64`]
//! with Gaussian sampling. Every kernel runs on the thread that calls it:
//! the unit of parallelism is the grid cell, one rank thread per cell, and
//! [`Pool`] is only the zero-sized serial marker the product signatures
//! take.
//!
//! Everything is deliberately `f32`: the GANs reproduced here (MLPs from
//! Table I of the paper) train in single precision, and half the memory
//! traffic matters more than the extra mantissa bits.
//!
//! # Example
//!
//! ```
//! use lipiz_tensor::{ops, Matrix, Pool, Rng64};
//!
//! let mut rng = Rng64::seed_from(7);
//! let a = rng.uniform_matrix(4, 3, -1.0, 1.0);
//! let b = rng.uniform_matrix(3, 5, -1.0, 1.0);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c.shape(), (4, 5));
//! // The training kernels write into caller-owned buffers; `c · bᵀ` is
//! // bit-identical to the plain product against the explicit transpose.
//! let mut out = Matrix::default();
//! ops::matmul_a_bt_view_into(&c, b.as_slice(), 3, &mut out, &Pool::serial());
//! assert_eq!(out.shape(), (4, 3));
//! assert_eq!(out.as_slice(), ops::matmul(&c, &b.transpose()).as_slice());
//! ```

pub mod error;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod reduce;
pub mod rng;

pub use error::ShapeError;
pub use matrix::Matrix;
pub use ops::ActKind;
pub use pool::Pool;
pub use rng::{Rng64, Rng64State};
