//! The synthetic MNIST-like dataset (labelled digit images).

use crate::digits::{render_glyph_into, strokes, Jitter};
use crate::{IMAGE_DIM, NUM_CLASSES};
use lipiz_tensor::{Matrix, Rng64};

/// A labelled set of synthetic digit images.
///
/// `images` is `(n, 784)` in `[-1, 1]`; `labels[i]` is the digit class of
/// row `i`. Generation is fully determined by `(n, seed, jitter)`, so every
/// rank of a distributed run can rebuild the same dataset locally — the
/// distributed-memory analogue of each slave downloading MNIST in Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthDigits {
    /// Row-per-sample image matrix, values in `[-1, 1]`.
    pub images: Matrix,
    /// Digit class (0–9) of each row.
    pub labels: Vec<u8>,
}

impl SynthDigits {
    /// Generate `n` samples with balanced, shuffled classes.
    pub fn generate(n: usize, seed: u64) -> Self {
        Self::generate_with(n, seed, &Jitter::default())
    }

    /// Generate with explicit jitter parameters.
    pub fn generate_with(n: usize, seed: u64, jitter: &Jitter) -> Self {
        let mut rng = Rng64::seed_from(seed);
        // Balanced class sequence, then shuffled.
        let mut labels: Vec<u8> = (0..n).map(|i| (i % NUM_CLASSES) as u8).collect();
        rng.shuffle(&mut labels);
        let mut images = Matrix::zeros(n, IMAGE_DIM);
        // The ten stroke sets once, and one point buffer for every image.
        let glyphs: Vec<_> = (0..NUM_CLASSES as u8).map(strokes).collect();
        let mut pts = Vec::new();
        for (i, &d) in labels.iter().enumerate() {
            let glyph = &glyphs[d as usize];
            render_glyph_into(glyph, jitter, &mut rng, images.row_mut(i), &mut pts);
        }
        Self { images, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Split off the first `n_train` samples as a training set, keeping the
    /// rest as a test set (the paper uses a 60k/10k split).
    ///
    /// # Panics
    /// Panics if `n_train > len`.
    pub fn split(self, n_train: usize) -> (SynthDigits, SynthDigits) {
        assert!(n_train <= self.len(), "split beyond dataset size");
        let train_images = self.images.slice_rows(0, n_train);
        let test_images = self.images.slice_rows(n_train, self.len());
        let (train_labels, test_labels) = {
            let mut l = self.labels;
            let rest = l.split_off(n_train);
            (l, rest)
        };
        (
            SynthDigits { images: train_images, labels: train_labels },
            SynthDigits { images: test_images, labels: test_labels },
        )
    }

    /// Count of samples per class.
    pub fn class_histogram(&self) -> [usize; NUM_CLASSES] {
        let mut h = [0usize; NUM_CLASSES];
        for &l in &self.labels {
            h[l as usize] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64 over the little-endian bytes of `v`.
    fn fnv64(v: &[f32]) -> u64 {
        v.iter().flat_map(|x| x.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn generated_images_keep_their_bytes() {
        // The benchmark's dataset shape: prebuilt glyphs and a reused point
        // buffer must rasterize exactly what per-image stroke sets did.
        for (seed, want) in [(1, 0x9b9b_748d_945b_5b12), (42, 0xd653_de46_92b0_2410)] {
            let images = SynthDigits::generate(2000, seed).images;
            assert_eq!(fnv64(images.as_slice()), want, "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthDigits::generate(50, 7);
        let b = SynthDigits::generate(50, 7);
        assert_eq!(a, b);
        let c = SynthDigits::generate(50, 8);
        assert_ne!(a.images.as_slice(), c.images.as_slice());
    }

    #[test]
    fn classes_are_balanced() {
        let d = SynthDigits::generate(100, 1);
        let h = d.class_histogram();
        assert!(h.iter().all(|&c| c == 10), "histogram {h:?}");
    }

    #[test]
    fn labels_are_shuffled() {
        let d = SynthDigits::generate(100, 2);
        // The unshuffled sequence would be 0,1,2,...; require a deviation.
        let in_order =
            d.labels.iter().enumerate().filter(|(i, &l)| (i % 10) as u8 == l).count();
        assert!(in_order < 50, "labels look unshuffled: {in_order}/100 in order");
    }

    #[test]
    fn split_preserves_rows() {
        let d = SynthDigits::generate(30, 3);
        let row5 = d.images.row(5).to_vec();
        let label5 = d.labels[5];
        let (train, test) = d.split(20);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.images.row(5), &row5[..]);
        assert_eq!(train.labels[5], label5);
    }

    #[test]
    #[should_panic(expected = "split beyond")]
    fn oversized_split_panics() {
        SynthDigits::generate(10, 4).split(11);
    }

    #[test]
    fn values_in_tanh_range() {
        let d = SynthDigits::generate(20, 5);
        assert!(d.images.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}
