//! Hand-rolled neural networks for GAN coevolution.
//!
//! The paper trains plain MLP GANs (Table I: 64-dim latent, two hidden
//! layers of 256 units, 784-dim output, tanh activations) with Adam. This
//! crate implements exactly that, from scratch:
//!
//! * [`mlp::MlpShape`] — a dense multi-layer perceptron's shape, with
//!   forward and exact manual backpropagation over any genome slice
//!   (verified against finite differences in tests), and [`mlp::Mlp`], a
//!   shape with an owned genome,
//! * [`loss`] — the GAN objectives used by Lipizzaner/Mustangs: binary
//!   cross-entropy for the discriminator, and the three generator objectives
//!   the Mustangs loss-mutation operator draws from (minimax/saturating,
//!   non-saturating heuristic, least-squares),
//! * [`adam::Adam`] — the Adam optimizer over a network's flat parameter
//!   (genome) vector,
//! * [`gan`] — generator/discriminator factories matching Table I, latent
//!   sampling, and the two training steps.
//!
//! Every forward, backward and training step takes its buffers from the
//! caller ([`LayerCache`], [`Grads`], [`DeltaScratch`], or a whole
//! [`TrainWorkspace`]): one entry point per step, zero allocations once the
//! buffers are warm. Every step runs on the calling thread — the cell, not
//! the kernel, is the unit of parallelism — and the [`lipiz_tensor::Pool`]
//! argument is the zero-sized serial marker.
//!
//! Networks expose their parameters as a flat `Vec<f32>` *genome*: the
//! coevolutionary layer (crate `lipiz-core`) treats networks as individuals,
//! and the distributed layer (`lipiz-runtime`) ships genomes between cells as
//! byte buffers. Every pass and both training steps run on a shape plus a
//! genome slice ([`gan::train_generator_step`],
//! [`gan::train_discriminator_step`]), so a cell trains and scores its
//! members where they live; the [`Generator`]/[`Discriminator`] entry
//! points are thin wrappers over the same path.
//!
//! # Example
//!
//! ```
//! use lipiz_nn::{gan, loss, Adam, Discriminator, GanLoss, Generator, NetworkConfig};
//! use lipiz_nn::TrainWorkspace;
//! use lipiz_tensor::{Matrix, Pool, Rng64};
//!
//! let mut rng = Rng64::seed_from(1);
//! let cfg = NetworkConfig::tiny(8);
//! let mut g = Generator::new(&cfg, &mut rng);
//! let d = Discriminator::new(&cfg, &mut rng);
//! let z = gan::latent_batch(&mut rng, 16, g.latent_dim());
//! let mut adam = Adam::new(g.net.param_count());
//!
//! // One workspace serves every step; the caller owns it.
//! let (mut ws, pool) = (TrainWorkspace::default(), Pool::serial());
//! let kind = GanLoss::Heuristic;
//! let before = gan::train_generator_step_ws(&mut g, &d, &mut adam, &z, 1e-2, kind, &mut ws, &pool);
//! for _ in 0..20 {
//!     gan::train_generator_step_ws(&mut g, &d, &mut adam, &z, 1e-2, kind, &mut ws, &pool);
//! }
//! // Evaluate without updating: generate and score into recycled buffers.
//! let (mut fake, mut logits, mut scratch) = (Matrix::default(), Matrix::default(), Matrix::default());
//! g.generate_into(&z, &mut fake, &mut scratch, &pool);
//! d.logits_into(&fake, &mut logits, &mut scratch, &pool);
//! let after = loss::g_loss_value(kind, logits.as_slice());
//! assert!(after < before, "G failed to fool the frozen D: {before} -> {after}");
//! ```

pub mod activation;
pub mod adam;
pub mod gan;
pub mod gradcheck;
pub mod init;
pub mod loss;
pub mod mlp;
#[cfg(test)]
mod test_util;

pub use activation::Activation;
pub use adam::{Adam, AdamState};
pub use gan::{Discriminator, Generator, NetworkConfig, TrainWorkspace};
pub use loss::GanLoss;
pub use mlp::{DeltaScratch, Grads, LayerCache, LayerSpec, Mlp, MlpShape};
