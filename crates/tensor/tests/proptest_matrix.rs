//! Property tests for the matrix substrate.

use lipiz_tensor::{ops, reduce, ActKind, Matrix, Pool, Rng64};
use proptest::prelude::*;

fn matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Reference `a · b` with the canonical accumulation order every kernel
/// must reproduce bit-for-bit: one accumulator per element, `p` ascending.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for p in 0..a.cols() {
                s += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// Reference `aᵀ · b` (same canonical accumulation order).
fn reference_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for p in 0..a.rows() {
                s += a[(p, i)] * b[(p, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// Reference `a · bᵀ` (same canonical accumulation order).
fn reference_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut s = 0.0f32;
            for p in 0..a.cols() {
                s += a[(i, p)] * b[(j, p)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// The bit patterns of `xs`: `prop_assert_eq!` on `f32`s would let `−0.0`
/// pass for `+0.0` and fail every `NaN`, so "bit-exact" compares these.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// `a · b` through the production forward kernel (zero bias, identity
/// epilogue) into a dirty buffer.
fn forward_kernel(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::full(2, 3, 7.7);
    let bias = vec![0.0; b.cols()];
    ops::matmul_bias_act_into(
        a,
        b.as_slice(),
        b.cols(),
        &bias,
        ActKind::Identity,
        &mut out,
        &Pool::serial(),
    );
    out
}

/// `aᵀ · b` through the production weight-gradient kernel into a dirty slice.
fn at_b_kernel(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let mut out = vec![7.7f32; a.cols() * b.cols()];
    ops::matmul_at_b_slice_into(a, b, &mut out, &Pool::serial());
    out
}

/// `a · bᵀ` through the production input-gradient kernel into a dirty buffer.
fn a_bt_kernel(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::full(2, 3, 7.7);
    ops::matmul_a_bt_view_into(a, b.as_slice(), b.rows(), &mut out, &Pool::serial());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identity_is_left_and_right_neutral(m in matrix(8, 8)) {
        let left = Matrix::identity(m.rows());
        let right = Matrix::identity(m.cols());
        prop_assert!(ops::matmul(&left, &m).max_abs_diff(&m) < 1e-3);
        prop_assert!(ops::matmul(&m, &right).max_abs_diff(&m) < 1e-3);
    }

    #[test]
    fn matmul_associativity(seed in 0u64..10_000) {
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(3, 4, -1.0, 1.0);
        let b = rng.uniform_matrix(4, 5, -1.0, 1.0);
        let c = rng.uniform_matrix(5, 2, -1.0, 1.0);
        let ab_c = ops::matmul(&ops::matmul(&a, &b), &c);
        let a_bc = ops::matmul(&a, &ops::matmul(&b, &c));
        prop_assert!(ab_c.max_abs_diff(&a_bc) < 1e-3);
    }

    #[test]
    fn blocked_matmul_is_bit_exact_for_any_shape(
        seed in 0u64..10_000, m in 1usize..40, k in 0usize..40, n in 1usize..40,
    ) {
        // Arbitrary shapes hit every full-tile/edge-tile combination of the
        // blocked kernel; results must be bit-identical to the reference.
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let reference = bits(reference_matmul(&a, &b).as_slice());
        prop_assert_eq!(bits(ops::matmul(&a, &b).as_slice()), reference);
    }

    #[test]
    fn at_b_is_bit_exact_for_any_shape(
        seed in 0u64..10_000, k in 0usize..40, m in 1usize..40, n in 1usize..40,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(k, m, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let reference = bits(reference_at_b(&a, &b).as_slice());
        prop_assert_eq!(bits(&at_b_kernel(&a, &b)), reference);
    }

    /// The bias epilogue and the activation pass must match the unfused
    /// pipeline bit-for-bit for arbitrary shapes (every full/edge tile mix)
    /// and both activations.
    #[test]
    fn fused_epilogue_is_bit_exact_for_any_shape(
        seed in 0u64..10_000, m in 1usize..40, k in 0usize..40, n in 1usize..40,
        tanh in any::<bool>(),
    ) {
        let act = if tanh { ActKind::Tanh } else { ActKind::Identity };
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let w = rng.uniform_matrix(k, n, -1.0, 1.0);
        let wslice = w.as_slice();
        let bias: Vec<f32> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        // Unfused reference over the same canonical accumulation order.
        let mut expect = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a[(i, p)] * wslice[p * n + j];
                }
                expect[(i, j)] = act.apply(s + bias[j]);
            }
        }
        let mut fused = Matrix::full(2, 3, 7.7);
        ops::matmul_bias_act_into(&a, wslice, n, &bias, act, &mut fused, &Pool::serial());
        prop_assert_eq!(bits(fused.as_slice()), bits(expect.as_slice()));
    }

    /// The slice-writing gradient kernels (weight gradients landing
    /// directly in genome storage, input gradients against a flat weight
    /// view) must be bit-exact against the references.
    #[test]
    fn slice_kernels_are_bit_exact(
        seed in 0u64..10_000, m in 1usize..24, k in 0usize..40, n in 1usize..24,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let pool = Pool::serial();
        let x = rng.uniform_matrix(k, m, -1.0, 1.0);
        let delta = rng.uniform_matrix(k, n, -1.0, 1.0);
        let mut dw = vec![7.7f32; m * n];
        ops::matmul_at_b_slice_into(&x, &delta, &mut dw, &pool);
        prop_assert_eq!(bits(&dw), bits(reference_at_b(&x, &delta).as_slice()));

        let d2 = rng.uniform_matrix(m, k, -1.0, 1.0);
        let wmat = rng.uniform_matrix(n, k, -1.0, 1.0);
        let mut dx = Matrix::full(m, n, 7.7);
        ops::matmul_a_bt_view_into(&d2, wmat.as_slice(), n, &mut dx, &pool);
        prop_assert_eq!(bits(dx.as_slice()), bits(reference_a_bt(&d2, &wmat).as_slice()));
    }

    #[test]
    fn a_bt_is_bit_exact_for_any_shape(
        seed in 0u64..10_000, m in 1usize..40, k in 0usize..40, n in 1usize..40,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(n, k, -1.0, 1.0);
        let reference = bits(reference_a_bt(&a, &b).as_slice());
        prop_assert_eq!(bits(a_bt_kernel(&a, &b).as_slice()), reference);
    }

    #[test]
    fn forward_kernel_is_bit_exact_for_any_shape(
        seed in 0u64..10_000, m in 1usize..40, k in 0usize..40, n in 1usize..40,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let fused = forward_kernel(&a, &b);
        prop_assert_eq!(bits(fused.as_slice()), bits(reference_matmul(&a, &b).as_slice()));
    }

    #[test]
    fn vstack_then_slice_recovers_parts(a in matrix(5, 4), seed in 0u64..100) {
        let mut rng = Rng64::seed_from(seed);
        let b = rng.uniform_matrix(3, a.cols(), -1.0, 1.0);
        let stacked = Matrix::vstack(&[&a, &b]).unwrap();
        prop_assert_eq!(stacked.slice_rows(0, a.rows()), a.clone());
        prop_assert_eq!(stacked.slice_rows(a.rows(), a.rows() + 3), b);
    }

    #[test]
    fn gather_rows_picks_expected_rows(m in matrix(8, 5), seed in 0u64..100) {
        let mut rng = Rng64::seed_from(seed);
        let indices: Vec<usize> = (0..4).map(|_| rng.below(m.rows())).collect();
        let g = m.gather_rows(&indices);
        for (out_row, &src) in indices.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), m.row(src));
        }
    }

    #[test]
    fn shuffle_preserves_multiset(n in 1usize..64, seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let mut xs: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn col_mean_matches_manual(m in matrix(6, 6)) {
        let means = reduce::col_mean(&m);
        for c in 0..m.cols() {
            let manual: f32 =
                (0..m.rows()).map(|r| m[(r, c)]).sum::<f32>() / m.rows() as f32;
            prop_assert!((means[c] - manual).abs() < 1e-3);
        }
    }

    #[test]
    fn covariance_is_symmetric_psd_diagonal(m in matrix(8, 4)) {
        let cov = reduce::col_covariance(&m);
        for i in 0..cov.rows() {
            prop_assert!(cov[(i, i)] >= -1e-3, "negative variance at {}", i);
            for j in 0..cov.cols() {
                prop_assert!((cov[(i, j)] - cov[(j, i)]).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn normal_draws_are_finite(seed in 0u64..10_000) {
        let mut rng = Rng64::seed_from(seed);
        for _ in 0..100 {
            let v = rng.gaussian();
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() < 10.0, "absurd normal draw {}", v);
        }
    }

    #[test]
    fn sample_distinct_is_distinct(n in 1usize..32, seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let k = 1 + seed as usize % n;
        let s = rng.sample_distinct(n, k);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), s.len());
    }
}
