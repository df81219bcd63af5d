//! Seeded mini-batch loader.

use lipiz_tensor::{Matrix, Rng64, Rng64State};
use std::sync::Arc;

/// The position of a [`BatchLoader`] inside its shuffled epoch stream — the
/// "data-ring cursor" a checkpoint must carry. The dataset itself is *not*
/// part of the state (every rank re-derives it from the config), but the
/// current permutation, cursor, epoch count and shuffle-RNG state are, so a
/// restored loader emits exactly the batches the original would have.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLoaderState {
    /// Current epoch's sample permutation.
    pub order: Vec<usize>,
    /// Next unread position within `order`.
    pub cursor: usize,
    /// Full epochs completed so far.
    pub epoch: u64,
    /// Shuffle-RNG stream state.
    pub rng: Rng64State,
}
lipiz_wire::wire_struct!(BatchLoaderState { order, cursor, epoch, rng });

/// Cycles through a dataset in shuffled mini-batches (Table I: batch 100).
///
/// Each epoch draws a fresh permutation from the loader's own RNG stream, so
/// batch sequences are reproducible given `(data, batch_size, seed)` and
/// independent of any other random draws in the trainer. The dataset is
/// shared, not owned: loaders over the same `Arc<Matrix>` — the cells of a
/// rank that hosts many — hold one copy of it between them.
#[derive(Debug, Clone)]
pub struct BatchLoader {
    data: Arc<Matrix>,
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
    epoch: u64,
    rng: Rng64,
    /// Recycled index buffer for batch assembly (not part of the state —
    /// purely scratch).
    idx_scratch: Vec<usize>,
}

impl BatchLoader {
    /// Create a loader over `data` (row-per-sample): an owned matrix, or a
    /// dataset shared with other loaders.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or the dataset is empty.
    pub fn new(data: impl Into<Arc<Matrix>>, batch_size: usize, seed: u64) -> Self {
        let data = data.into();
        assert!(batch_size > 0, "batch size must be positive");
        assert!(data.rows() > 0, "empty dataset");
        let mut rng = Rng64::seed_from(seed);
        let order = rng.permutation(data.rows());
        Self { data, batch_size, order, cursor: 0, epoch: 0, rng, idx_scratch: Vec::new() }
    }

    /// Capture the loader's cursor state (see [`BatchLoaderState`]).
    pub fn state(&self) -> BatchLoaderState {
        BatchLoaderState {
            order: self.order.clone(),
            cursor: self.cursor,
            epoch: self.epoch,
            rng: self.rng.state(),
        }
    }

    /// Capture into an existing [`BatchLoaderState`], reusing its
    /// permutation buffer (the allocation-free path of a double-buffered
    /// checkpoint capture).
    pub fn state_into(&self, out: &mut BatchLoaderState) {
        out.order.clear();
        out.order.extend_from_slice(&self.order);
        out.cursor = self.cursor;
        out.epoch = self.epoch;
        out.rng = self.rng.state();
    }

    /// Rebuild a loader over `data` from a captured [`BatchLoader::state`].
    /// The restored loader's batch stream continues exactly where the
    /// captured one left off.
    ///
    /// # Panics
    /// Panics if the state is inconsistent with the dataset: the permutation
    /// must cover exactly `data.rows()` samples and the cursor must lie
    /// within it (a corrupt checkpoint must never restore partially).
    pub fn from_state(
        data: impl Into<Arc<Matrix>>,
        batch_size: usize,
        state: BatchLoaderState,
    ) -> Self {
        let data = data.into();
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(state.order.len(), data.rows(), "loader state permutation length");
        assert!(state.cursor <= state.order.len(), "loader state cursor out of range");
        assert!(
            state.order.iter().all(|&i| i < data.rows()),
            "loader state permutation index out of range"
        );
        Self {
            data,
            batch_size,
            order: state.order,
            cursor: state.cursor,
            epoch: state.epoch,
            rng: Rng64::from_state(state.rng),
            idx_scratch: Vec::new(),
        }
    }

    /// The dataset this loader draws from.
    pub fn data(&self) -> &Arc<Matrix> {
        &self.data
    }

    /// Number of samples in the underlying dataset.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True when the dataset is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of full epochs completed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.epoch
    }

    /// Number of batches per epoch (floor; a trailing partial batch wraps
    /// into the next epoch's permutation, matching common GAN loaders).
    pub fn batches_per_epoch(&self) -> usize {
        (self.data.rows() / self.batch_size).max(1)
    }

    /// Next mini-batch of exactly `batch_size` rows.
    pub fn next_batch(&mut self) -> Matrix {
        let mut out = Matrix::default();
        self.next_batch_into(&mut out);
        out
    }

    /// [`BatchLoader::next_batch`] into a recycled buffer — identical batch
    /// stream (same shuffle draws, same rows), zero heap allocations once
    /// `out` and the internal scratch have warmed up. The epoch reshuffle
    /// refills the standing permutation in place.
    pub fn next_batch_into(&mut self, out: &mut Matrix) {
        let n = self.data.rows();
        self.idx_scratch.clear();
        while self.idx_scratch.len() < self.batch_size {
            if self.cursor >= n {
                // In-place reshuffle: refill 0..n, then the same
                // Fisher-Yates draws `Rng64::permutation` performs.
                self.order.clear();
                self.order.extend(0..n);
                self.rng.shuffle(&mut self.order);
                self.cursor = 0;
                self.epoch += 1;
            }
            let take = (self.batch_size - self.idx_scratch.len()).min(n - self.cursor);
            self.idx_scratch.extend_from_slice(&self.order[self.cursor..self.cursor + take]);
            self.cursor += take;
        }
        out.resize_buffer(self.batch_size, self.data.cols());
        for (i, &idx) in self.idx_scratch.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.data.row(idx));
        }
    }

    /// A fixed evaluation batch: the first `n` rows in storage order
    /// (not shuffled; stable across calls).
    pub fn eval_batch(&self, n: usize) -> Matrix {
        self.data.slice_rows(0, n.min(self.data.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, 2);
        for i in 0..n {
            m[(i, 0)] = i as f32;
            m[(i, 1)] = -(i as f32);
        }
        m
    }

    #[test]
    fn batches_have_requested_size() {
        let mut loader = BatchLoader::new(toy_data(10), 4, 1);
        for _ in 0..5 {
            assert_eq!(loader.next_batch().shape(), (4, 2));
        }
    }

    #[test]
    fn epoch_covers_every_sample_once() {
        let mut loader = BatchLoader::new(toy_data(12), 4, 2);
        let mut seen = vec![];
        for _ in 0..3 {
            let b = loader.next_batch();
            for r in 0..4 {
                seen.push(b[(r, 0)] as usize);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        assert_eq!(loader.epochs_completed(), 0);
        loader.next_batch();
        assert_eq!(loader.epochs_completed(), 1);
    }

    #[test]
    fn wraps_partial_epochs() {
        // 10 samples, batch 4: batches straddle epoch boundaries without
        // duplicating a sample within one epoch's permutation.
        let mut loader = BatchLoader::new(toy_data(10), 4, 3);
        let mut count = std::collections::HashMap::new();
        for _ in 0..5 {
            // 20 samples = 2 full epochs
            let b = loader.next_batch();
            for r in 0..4 {
                *count.entry(b[(r, 0)] as usize).or_insert(0usize) += 1;
            }
        }
        for i in 0..10 {
            assert_eq!(count[&i], 2, "sample {i} not seen exactly twice");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BatchLoader::new(toy_data(16), 4, 7);
        let mut b = BatchLoader::new(toy_data(16), 4, 7);
        for _ in 0..6 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn different_seeds_shuffle_differently() {
        let mut a = BatchLoader::new(toy_data(64), 8, 1);
        let mut b = BatchLoader::new(toy_data(64), 8, 2);
        let ba = a.next_batch();
        let bb = b.next_batch();
        assert_ne!(ba, bb);
    }

    #[test]
    fn state_round_trip_continues_the_batch_stream() {
        // Capture mid-epoch (cursor inside a permutation, shuffle RNG
        // advanced) and restore over a fresh copy of the data: the batch
        // streams must agree exactly, across epoch boundaries.
        let mut a = BatchLoader::new(toy_data(10), 4, 11);
        for _ in 0..3 {
            a.next_batch(); // crosses into epoch 1 with a mid-epoch cursor
        }
        let mut b = BatchLoader::from_state(toy_data(10), 4, a.state());
        assert_eq!(a.epochs_completed(), b.epochs_completed());
        for _ in 0..12 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn state_with_wrong_dataset_size_panics() {
        let loader = BatchLoader::new(toy_data(10), 4, 1);
        let _ = BatchLoader::from_state(toy_data(8), 4, loader.state());
    }

    #[test]
    #[should_panic(expected = "cursor out of range")]
    fn state_with_bad_cursor_panics() {
        let loader = BatchLoader::new(toy_data(6), 2, 1);
        let mut state = loader.state();
        state.cursor = 7;
        let _ = BatchLoader::from_state(toy_data(6), 2, state);
    }

    #[test]
    fn eval_batch_is_stable() {
        let loader = BatchLoader::new(toy_data(10), 4, 5);
        assert_eq!(loader.eval_batch(3), loader.eval_batch(3));
        assert_eq!(loader.eval_batch(100).rows(), 10);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        BatchLoader::new(toy_data(4), 0, 1);
    }

    #[test]
    fn batches_per_epoch_floor() {
        let loader = BatchLoader::new(toy_data(10), 4, 1);
        assert_eq!(loader.batches_per_epoch(), 2);
        let loader = BatchLoader::new(toy_data(3), 4, 1);
        assert_eq!(loader.batches_per_epoch(), 1);
    }
}
