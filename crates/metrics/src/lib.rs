//! Generative-model quality metrics.
//!
//! Lipizzaner selects the final generative model by a quality score
//! (§II-B: "the sub-population with the highest quality according to some
//! fitness value, e.g., inception score"). On MNIST the original system uses
//! an MNIST classifier network in place of the Inception net. This crate
//! reproduces that stack for the synthetic digit dataset:
//!
//! * [`classifier::Classifier`] — a small softmax MLP trained on labelled
//!   synthetic digits; provides class probabilities and penultimate-layer
//!   features,
//! * [`inception::inception_score`] — `exp(E_x KL(p(y|x) ‖ p(y)))` over the
//!   classifier's probabilities,
//! * [`fid`] — Fréchet distance between Gaussian fits of feature
//!   activations, with the required symmetric matrix square root computed by
//!   the Jacobi eigensolver in [`eigen`],
//! * [`coverage`] — mode-coverage statistics (total variation distance to
//!   the real class histogram, number of dominated/missing modes),
//! * [`score::ScoreService`] — the bundle that scores a batch in one call.
//!
//! Nothing here is on the training path: the trainer evolves mixtures and
//! picks its best cell by discriminator loss. These metrics measure a
//! finished ensemble from outside (`tests/end_to_end_digits.rs`,
//! `examples/mnist_grid.rs`).
//!
//! # Example
//!
//! ```
//! use lipiz_data::SynthDigits;
//! use lipiz_metrics::ScoreService;
//!
//! let reference = SynthDigits::generate(120, 3);
//! let service = ScoreService::bootstrap(&reference, 1, 5);
//! // Real held-out digits score better (lower FID) than pure noise.
//! let held_out = SynthDigits::generate(60, 9);
//! let mut rng = lipiz_tensor::Rng64::seed_from(11);
//! let noise = rng.uniform_matrix(60, 784, -1.0, 1.0);
//! assert!(service.fid_of(&held_out.images) < service.fid_of(&noise));
//! ```

pub mod classifier;
pub mod coverage;
pub mod eigen;
pub mod fid;
pub mod inception;
pub mod score;

pub use classifier::Classifier;
pub use fid::FeatureStats;
pub use score::ScoreService;
