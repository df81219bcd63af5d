//! Row-major dense `f32` matrix.

use crate::error::ShapeError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// `Matrix` is the only tensor type in the workspace: batches of images are
/// `(batch, features)` matrices, network weights are `(fan_in, fan_out)`
/// matrices, and bias vectors are `(1, n)` matrices where convenient.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a `rows x cols` matrix with every element set to `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Build a matrix from nested row slices (test/example convenience).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copy of column `c` (columns are strided, so this allocates).
    pub fn col(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// New matrix containing rows `[start, end)` of `self`.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// New matrix containing the given rows of `self`, in order.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            debug_assert!(idx < self.rows);
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Stack matrices vertically. All operands must share a column count.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let cols = parts.first().map_or(0, |m| m.cols);
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(ShapeError::new("vstack", (rows, cols), p.shape()));
            }
            rows += p.rows;
        }
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// New matrix with `f` applied to every element.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Reshape to `rows × cols`, reusing the backing allocation.
    ///
    /// The contents are unspecified afterwards — this is the workspace
    /// primitive for buffers that are fully overwritten by the next kernel.
    /// Allocates only when the new size exceeds the current capacity, so a
    /// steady-state training step that cycles through fixed shapes performs
    /// no allocation here.
    pub fn resize_buffer(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrite `self` with a copy of `src`, reusing the allocation
    /// (shape included — the buffer-recycling analogue of `clone`).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Maximum absolute difference against another matrix of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// True when all elements are finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Matrix {
    /// An empty `0×0` matrix — the placeholder state of recycled workspace
    /// buffers before their first use.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, " ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 7.5;
        assert_eq!(m[(1, 2)], 7.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn slice_and_gather_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s, Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g, Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
    }

    #[test]
    fn vstack_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.rows(), 3);
        let bad = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&[&a, &bad]).is_err());
    }

    #[test]
    fn identity_diag() {
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 0)], 0.0);
    }

    #[test]
    fn map_and_finite() {
        let mut m = Matrix::full(2, 2, 2.0);
        m.map_inplace(|v| v * v);
        assert_eq!(m[(1, 1)], 4.0);
        assert!(m.all_finite());
        m[(0, 0)] = f32::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn col_extraction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn resize_buffer_reuses_allocation() {
        let mut m = Matrix::zeros(4, 8);
        let ptr = m.as_slice().as_ptr();
        m.resize_buffer(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrink must not reallocate");
        m.resize_buffer(4, 8);
        assert_eq!(m.as_slice().as_ptr(), ptr, "regrow within capacity must not reallocate");
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut dst = Matrix::zeros(5, 5);
        let ptr = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), ptr, "copy_from must reuse the buffer");
        assert_eq!(Matrix::default().shape(), (0, 0));
    }
}
