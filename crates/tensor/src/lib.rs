//! Dense f32 matrix kernels and seeded randomness for lipizzaner-rs.
//!
//! This crate is the numerical substrate of the workspace: a row-major
//! [`Matrix`] type, register-blocked matrix products (including the
//! transposed variants backpropagation needs, with a runtime-dispatched
//! AVX2 micro-kernel that stays bit-identical to the portable path),
//! elementwise kernels, axis reductions, a deterministic [`rng::Rng64`]
//! with Gaussian sampling, and a resident worker [`pool::Pool`] that
//! provides the *intra-process* level of the paper's two-level parallel
//! model (threads inside a rank, message passing across ranks).
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
//! // The training kernels write into caller-owned buffers and take a pool;
//! // the result is bit-identical for every worker count.
//! let (mut serial, mut pooled) = (Matrix::default(), Matrix::default());
//! ops::matmul_a_bt_view_into(&c, b.as_slice(), 3, &mut serial, &Pool::serial());
//! ops::matmul_a_bt_view_into(&c, b.as_slice(), 3, &mut pooled, &Pool::new(2));
//! assert_eq!(serial.shape(), (4, 3));
//! assert_eq!(pooled.as_slice(), serial.as_slice());
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
