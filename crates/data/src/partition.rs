//! Data-dieting partitions: give each grid cell a *subset* of the training
//! data.
//!
//! "Data dieting in GAN training" (Toutouh, Hemberg, O'Reilly, 2020 — the
//! paper's reference \[20\]) trains Lipizzaner cells on reduced data. The
//! schemes here plug into any driver's `make_data` closure:
//!
//! ```
//! use lipiz_data::partition::DataPartition;
//! use lipiz_data::SynthDigits;
//!
//! let digits = SynthDigits::generate(100, 7);
//! let scheme = DataPartition::Shards;
//! // Cell 2 of a 2×2 grid gets the third contiguous quarter.
//! let rows = scheme.rows_for_cell(digits.len(), 4, 2, 99);
//! let local = digits.images.gather_rows(&rows);
//! assert_eq!(local.rows(), 25);
//! ```

use lipiz_tensor::{Matrix, Rng64};

/// How a cell's local dataset is carved from the full training set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataPartition {
    /// Every cell sees the full dataset (the paper's §IV setup).
    Full,
    /// Contiguous, disjoint shards: cell `i` of `k` gets rows
    /// `[i·n/k, (i+1)·n/k)`. The union covers the dataset exactly once.
    Shards,
    /// Each cell draws an independent seeded random subset of the given
    /// fraction (with distinct rows within one cell).
    RandomSubset {
        /// Fraction of the dataset each cell keeps, in `(0, 1]`.
        fraction: f32,
    },
}

impl DataPartition {
    /// Row indices of cell `cell`'s local data, out of `total` rows and
    /// `cells` grid cells. Deterministic given `(scheme, total, cells,
    /// cell, seed)`.
    ///
    /// # Panics
    /// Panics if `cell >= cells`, `cells == 0`, or the scheme would yield
    /// an empty selection.
    pub fn rows_for_cell(
        &self,
        total: usize,
        cells: usize,
        cell: usize,
        seed: u64,
    ) -> Vec<usize> {
        assert!(cells > 0, "no cells");
        assert!(cell < cells, "cell {cell} out of {cells}");
        match *self {
            DataPartition::Full => (0..total).collect(),
            DataPartition::Shards => {
                let start = cell * total / cells;
                let end = (cell + 1) * total / cells;
                assert!(
                    end > start,
                    "shard for cell {cell} is empty ({total} rows / {cells} cells)"
                );
                (start..end).collect()
            }
            DataPartition::RandomSubset { fraction } => {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "fraction must be in (0, 1]: {fraction}"
                );
                let k = ((total as f32 * fraction).round() as usize).clamp(1, total);
                // Derive a per-cell stream so subsets are independent.
                let mut rng = Rng64::seed_from(
                    seed ^ (cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut rows = rng.sample_distinct(total, k);
                rows.sort_unstable();
                rows
            }
        }
    }

    /// Materialize cell `cell`'s local matrix from the full dataset.
    pub fn slice_for_cell(
        &self,
        full: &Matrix,
        cells: usize,
        cell: usize,
        seed: u64,
    ) -> Matrix {
        let rows = self.rows_for_cell(full.rows(), cells, cell, seed);
        full.gather_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_partition_is_identity() {
        let rows = DataPartition::Full.rows_for_cell(10, 4, 3, 1);
        assert_eq!(rows, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shards_are_disjoint_and_cover() {
        let total = 103; // deliberately not divisible
        let cells = 4;
        let mut seen = vec![false; total];
        for c in 0..cells {
            for r in DataPartition::Shards.rows_for_cell(total, cells, c, 1) {
                assert!(!seen[r], "row {r} in two shards");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "rows not covered");
    }

    #[test]
    fn random_subset_size_and_determinism() {
        let scheme = DataPartition::RandomSubset { fraction: 0.25 };
        let a = scheme.rows_for_cell(100, 4, 1, 7);
        let b = scheme.rows_for_cell(100, 4, 1, 7);
        assert_eq!(a, b, "not deterministic");
        assert_eq!(a.len(), 25);
        let other_cell = scheme.rows_for_cell(100, 4, 2, 7);
        assert_ne!(a, other_cell, "cells got identical subsets");
        // Distinct and in-range.
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        assert!(a.iter().all(|&r| r < 100));
    }

    #[test]
    fn slice_materializes_expected_rows() {
        let mut m = Matrix::zeros(8, 2);
        for r in 0..8 {
            m[(r, 0)] = r as f32;
        }
        let local = DataPartition::Shards.slice_for_cell(&m, 4, 1, 0);
        assert_eq!(local.rows(), 2);
        assert_eq!(local[(0, 0)], 2.0);
        assert_eq!(local[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn cell_out_of_range_panics() {
        DataPartition::Full.rows_for_cell(10, 2, 2, 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        DataPartition::RandomSubset { fraction: 0.0 }.rows_for_cell(10, 2, 0, 0);
    }

    #[test]
    fn tiny_fraction_keeps_at_least_one_row() {
        let rows = DataPartition::RandomSubset { fraction: 0.001 }.rows_for_cell(10, 2, 0, 0);
        assert_eq!(rows.len(), 1);
    }
}
