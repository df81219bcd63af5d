//! Axis reductions and summary statistics.

use crate::matrix::Matrix;

/// Sum of all elements.
pub fn sum(m: &Matrix) -> f32 {
    m.as_slice().iter().sum()
}

/// Mean of all elements (0 for an empty matrix).
pub fn mean(m: &Matrix) -> f32 {
    if m.is_empty() {
        0.0
    } else {
        sum(m) / m.len() as f32
    }
}

/// Per-column mean: `(rows, cols)` → vector of length `cols`.
pub fn col_mean(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m.cols()];
    if m.rows() == 0 {
        return out;
    }
    for r in 0..m.rows() {
        for (o, &v) in out.iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
    let inv = 1.0 / m.rows() as f32;
    out.iter_mut().for_each(|v| *v *= inv);
    out
}

/// Per-column (population) covariance matrix of the rows of `m`.
///
/// Returns a `(cols, cols)` symmetric matrix. Uses the mean-centered
/// definition with `1/n` normalization; for the Fréchet distance the
/// population form is what the literature uses.
pub fn col_covariance(m: &Matrix) -> Matrix {
    let d = m.cols();
    let n = m.rows();
    let mut cov = Matrix::zeros(d, d);
    if n == 0 {
        return cov;
    }
    let mu = col_mean(m);
    let mut centered = Vec::with_capacity(d);
    for r in 0..n {
        centered.clear();
        centered.extend(m.row(r).iter().zip(&mu).map(|(&v, &u)| v - u));
        for i in 0..d {
            let ci = centered[i];
            if ci == 0.0 {
                continue;
            }
            let row = cov.row_mut(i);
            for (j, rv) in row.iter_mut().enumerate() {
                *rv += ci * centered[j];
            }
        }
    }
    let inv = 1.0 / n as f32;
    for v in cov.as_mut_slice() {
        *v *= inv;
    }
    cov
}

/// Index of the maximum element of each row (first on ties).
pub fn row_argmax(m: &Matrix) -> Vec<usize> {
    m.rows_iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .fold(
                    (0usize, f32::NEG_INFINITY),
                    |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    },
                )
                .0
        })
        .collect()
}

/// Euclidean norm of a slice.
pub fn norm2(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum::<f32>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_means() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(sum(&m), 10.0);
        assert_eq!(mean(&m), 2.5);
        assert_eq!(col_mean(&m), vec![2.0, 3.0]);
    }

    #[test]
    fn empty_matrix_mean_is_zero() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(mean(&m), 0.0);
        assert_eq!(col_mean(&m), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn argmax_first_on_ties() {
        let m = Matrix::from_rows(&[&[1.0, 3.0, 3.0], &[5.0, 2.0, 1.0]]);
        assert_eq!(row_argmax(&m), vec![1, 0]);
    }

    #[test]
    fn covariance_of_known_data() {
        // Two perfectly anti-correlated columns.
        let m = Matrix::from_rows(&[&[1.0, -1.0], &[-1.0, 1.0]]);
        let c = col_covariance(&m);
        assert!((c[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((c[(1, 1)] - 1.0).abs() < 1e-6);
        assert!((c[(0, 1)] + 1.0).abs() < 1e-6);
        assert!((c[(0, 1)] - c[(1, 0)]).abs() < 1e-7, "symmetric");
    }

    #[test]
    fn covariance_of_constant_data_is_zero() {
        let m = Matrix::full(5, 3, 2.0);
        let c = col_covariance(&m);
        assert!(c.as_slice().iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-7);
    }
}
