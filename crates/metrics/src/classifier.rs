//! Domain classifier used as the feature/probability extractor.
//!
//! The MNIST analogue of the Inception network: a softmax MLP trained on the
//! labelled synthetic digits. Its softmax output feeds the inception score
//! and mode-coverage statistics; its penultimate layer feeds the FID.

use lipiz_data::{SynthDigits, IMAGE_DIM, NUM_CLASSES};
use lipiz_nn::{Activation, Adam, DeltaScratch, Grads, LayerCache, Mlp};
use lipiz_tensor::{reduce, Matrix, Pool, Rng64};

/// Width of the penultimate (feature) layer.
pub const FEATURE_DIM: usize = 64;

/// A softmax digit classifier: 784 → 64 → 10 (logits).
#[derive(Debug, Clone, PartialEq)]
pub struct Classifier {
    net: Mlp,
}

impl Classifier {
    /// Train a classifier on `data` for `epochs` passes with batch 100.
    ///
    /// Training is deterministic given `(data, epochs, seed)`.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn train(data: &SynthDigits, epochs: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot train a classifier on an empty reference set");
        let mut rng = Rng64::seed_from(seed);
        let mut net = Mlp::from_dims(
            &[IMAGE_DIM, FEATURE_DIM, NUM_CLASSES],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let mut adam = Adam::new(net.param_count());
        let n = data.len();
        let batch = 100.min(n);
        let pool = Pool::serial();
        let mut cache = LayerCache::default();
        let mut grads = Grads::default();
        let mut scratch = DeltaScratch::default();
        for _ in 0..epochs {
            let order = rng.permutation(n);
            for chunk in order.chunks(batch) {
                let x = data.images.gather_rows(chunk);
                net.forward_cached_ws(&x, &mut cache, &pool);
                let probs = softmax_rows(cache.output());
                // d(cross-entropy)/d(logits) = (p - onehot) / m
                let mut d_out = probs;
                let m = chunk.len() as f32;
                for (r, &idx) in chunk.iter().enumerate() {
                    let label = data.labels[idx] as usize;
                    let row = d_out.row_mut(r);
                    row[label] -= 1.0;
                    for v in row.iter_mut() {
                        *v /= m;
                    }
                }
                net.backward_ws(&x, &cache, &d_out, &mut grads, &mut scratch, None, &pool);
                adam.step(&mut net, &grads, 1e-3);
            }
        }
        Self { net }
    }

    /// Class logits `(n, 10)` for an image batch.
    fn logits(&self, images: &Matrix) -> Matrix {
        let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
        self.net.forward_into(images, &mut out, &mut scratch, &Pool::serial());
        out
    }

    /// Class probabilities `(n, 10)` for an image batch.
    pub fn probabilities(&self, images: &Matrix) -> Matrix {
        softmax_rows(&self.logits(images))
    }

    /// Penultimate-layer features `(n, FEATURE_DIM)`.
    pub fn features(&self, images: &Matrix) -> Matrix {
        let mut cache = LayerCache::default();
        self.net.forward_cached_ws(images, &mut cache, &Pool::serial());
        cache.layer(0).clone()
    }

    /// Predicted class of each row.
    pub fn predict(&self, images: &Matrix) -> Vec<usize> {
        reduce::row_argmax(&self.logits(images))
    }

    /// Accuracy on a labelled dataset.
    pub fn accuracy(&self, data: &SynthDigits) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let pred = self.predict(&data.images);
        let correct =
            pred.iter().zip(&data.labels).filter(|(p, l)| **p == **l as usize).count();
        correct as f32 / data.len() as f32
    }
}

/// Row-wise softmax with max-subtraction for stability.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // Larger logits get larger probability.
        assert!(p[(0, 2)] > p[(0, 1)]);
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let logits = Matrix::from_rows(&[&[1000.0, 0.0]]);
        let p = softmax_rows(&logits);
        assert!(p.all_finite());
        assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn classifier_learns_the_synthetic_digits() {
        let data = SynthDigits::generate(600, 11);
        let (train, test) = data.split(500);
        let clf = Classifier::train(&train, 6, 22);
        let acc = clf.accuracy(&test);
        assert!(acc > 0.85, "classifier test accuracy too low: {acc}");
    }

    #[test]
    fn features_have_expected_shape() {
        let data = SynthDigits::generate(60, 12);
        let clf = Classifier::train(&data, 1, 23);
        let f = clf.features(&data.images);
        assert_eq!(f.shape(), (60, FEATURE_DIM));
        assert!(f.all_finite());
    }

    #[test]
    fn training_is_deterministic() {
        let data = SynthDigits::generate(100, 13);
        let a = Classifier::train(&data, 1, 24);
        let b = Classifier::train(&data, 1, 24);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty reference set")]
    fn training_on_an_empty_set_is_refused() {
        let (_, empty) = SynthDigits::generate(10, 15).split(10);
        Classifier::train(&empty, 1, 26);
    }

    #[test]
    fn accuracy_on_empty_set_is_zero() {
        let data = SynthDigits::generate(40, 14);
        let clf = Classifier::train(&data, 1, 25);
        let (_, empty) = SynthDigits::generate(10, 15).split(10);
        assert_eq!(clf.accuracy(&empty), 0.0);
    }
}
