//! Matrix products and elementwise kernels.
//!
//! The three product variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are exactly the shapes
//! dense-layer backpropagation needs; providing them directly avoids
//! materializing transposed copies in the training hot loop.
//!
//! # Kernel design
//!
//! All three products funnel into one register-blocked kernel over a common
//! canonical form `out[i][j] = Σ_p A'[p][i] · B'[p][j]`, where `A'` is a
//! `k×m` panel and `B'` a `k×n` panel:
//!
//! * `A·B`   — `A'` is the packed transpose of `a`, `B'` is `b` as-is;
//! * `Aᵀ·B`  — both operands are already in canonical layout, zero packing;
//! * `A·Bᵀ`  — both operands are packed transposes.
//!
//! There is one kernel per ISA: a scalar `MR×NR` full tile, its AVX2 twin,
//! and a scalar edge tile for the ragged remainders. Every tile starts its
//! accumulators at `+0.0` (it never loads the output), walks the shared
//! dimension `p` innermost — each `p` step touches one contiguous `MR`-wide
//! segment of `A'` and one `NR`-wide segment of `B'` and performs `MR·NR`
//! independent multiply-adds — and stores each element exactly once, so no
//! product pre-zeroes its output.
//!
//! # Fused epilogues
//!
//! The dense-layer forward pass is `act(x·W + b)`. The tile's only epilogue
//! is an optional bias add: [`matmul_bias_act_into`] stores `acc + bias[j]`,
//! then runs the activation as one vectorized [`apply_act`] pass over the
//! output. The gradient products store the
//! bare `acc`. Per element the FP sequence is identical to `matmul` →
//! `add_row_vector` → `apply_act` (same adds, same activation function,
//! same order), so fused and unfused are bit-equal — property-tested, not
//! assumed.
//!
//! # Scratch reuse
//!
//! Panel packing writes into per-thread recycled buffers (one pair per rank
//! thread) instead of fresh allocations, so a steady-state training step
//! performs no heap allocation inside any kernel here.
//!
//! # Determinism
//!
//! Every product runs on the calling thread and, fused or not, accumulates
//! each output element in a single `f32` accumulator over `p` in ascending
//! order. Tiling only regroups *independent* elements, so all of them are
//! bit-identical to the naive triple loop; the distributed drivers rely on
//! this to stay byte-identical to the sequential one. The AVX2 tile uses
//! separate `vmulps`/`vaddps` — never FMA — for the same reason.

use crate::matrix::Matrix;
use crate::pool::Pool;
use std::cell::RefCell;

/// Register-tile height (rows of the output micro-tile).
const MR: usize = 4;
/// Register-tile width (columns of the output micro-tile).
const NR: usize = 16;

// ---- activations ------------------------------------------------------------

/// Elementwise activation of a dense layer (the nn crate's `Activation`).
///
/// Table I's networks need exactly two: tanh on the hidden layers and the
/// generator output, identity on the discriminator's logit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActKind {
    /// Pass-through; used for logit outputs so losses can be computed stably.
    Identity,
    /// Hyperbolic tangent (the paper's Table I activation).
    Tanh,
}

impl ActKind {
    /// Apply the activation to one value.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            ActKind::Identity => v,
            ActKind::Tanh => fast_tanh(v),
        }
    }

    /// Multiply `delta` in place by the activation's derivative, evaluated
    /// from the activated output `out` (same shape as `delta`):
    /// `tanh'(z) = 1 − a²`, so the backward pass never needs the
    /// pre-activation.
    pub fn scale_by_derivative(self, out: &Matrix, delta: &mut Matrix) {
        debug_assert_eq!(out.shape(), delta.shape());
        match self {
            ActKind::Identity => {}
            ActKind::Tanh => {
                for (d, &a) in delta.as_mut_slice().iter_mut().zip(out.as_slice()) {
                    *d *= 1.0 - a * a;
                }
            }
        }
    }
}

/// Apply `act` to every element of `xs`, dispatching to the widest kernel
/// the host supports. Bit-identical to an elementwise [`ActKind::apply`]
/// loop — the AVX2 tanh performs the same exactly-rounded operation
/// sequence per lane as the scalar [`fast_tanh`].
pub fn apply_act(act: ActKind, xs: &mut [f32]) {
    match act {
        ActKind::Identity => {}
        ActKind::Tanh => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the detection macro asserts AVX2 support.
                unsafe { tanh_slice_avx2(xs) };
                return;
            }
            tanh_slice(xs);
        }
    }
}

/// Portable tanh over a slice: [`fast_tanh`] per element.
fn tanh_slice(xs: &mut [f32]) {
    for v in xs {
        *v = fast_tanh(*v);
    }
}

// ---- fast tanh --------------------------------------------------------------
//
// tanh(x) = sign(x) · em1 / (em1 + 2),  em1 = e^{2|x|} − 1,
// with e^{2|x|} = 2^y, y = 2·log₂e·|x|, split as 2^k · 2^f
// (k = ⌊y + ½⌋, f = y − k ∈ [−½, ½)) and 2^f − 1 evaluated by a degree-6
// polynomial. The em1 formulation keeps full relative precision near zero
// (where tanh(x) ≈ x), unlike 1 − 2/(e+1).
//
// Every step is an exactly-rounded IEEE operation (mul, add, sub, div,
// floor, integer shifts — never FMA), so the scalar and AVX2 versions are
// bit-identical by construction; a unit test pins that. Inputs with
// |x| ≥ 9 saturate to ±1 (correct to the last f32 bit); NaN propagates
// unchanged — payload included — in both versions.

/// Saturation threshold: tanh(9) rounds to 1.0f32.
const TANH_CLAMP: f32 = 9.0;
/// `2·log₂e` — folds the `2|x|` of the exponent into the base-2 scaling.
const TANH_TWO_LOG2E: f32 = 2.0 * std::f32::consts::LOG2_E;
/// Taylor coefficients of `2^f − 1` (that is, `ln2ⁿ/n!` for n = 1..=6);
/// |f| ≤ ½ keeps the truncation error around one ulp.
const EXP2_C: [f32; 6] = [
    std::f32::consts::LN_2,
    0.240_226_5,
    0.055_504_11,
    0.009_618_129,
    0.001_333_355_8,
    0.000_154_035_3,
];

/// Scalar fast tanh — the reference the AVX2 slice kernel must match
/// bit-for-bit.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let a = f32::from_bits(bits & 0x7FFF_FFFF);
    if a.is_nan() {
        // Propagate NaN (payload and all) like IEEE tanh — a diverged
        // training run must stay visibly poisoned, not saturate to ±1.
        return x;
    }
    let t = if a < TANH_CLAMP {
        let y = a * TANH_TWO_LOG2E;
        let kf = (y + 0.5).floor();
        let f = y - kf;
        let mut p1 = EXP2_C[5];
        p1 = p1 * f + EXP2_C[4];
        p1 = p1 * f + EXP2_C[3];
        p1 = p1 * f + EXP2_C[2];
        p1 = p1 * f + EXP2_C[1];
        p1 = p1 * f + EXP2_C[0];
        p1 *= f;
        let two_k = f32::from_bits(((kf as i32 + 127) as u32) << 23);
        let em1 = two_k * p1 + (two_k - 1.0);
        em1 / (em1 + 2.0)
    } else {
        1.0
    };
    f32::from_bits(t.to_bits() | sign)
}

/// AVX2 tanh over a slice: eight [`fast_tanh`] lanes per iteration, every
/// lane performing the identical exactly-rounded operation sequence.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_castsi256_ps,
        _mm256_cmp_ps, _mm256_cvtps_epi32, _mm256_div_ps, _mm256_floor_ps, _mm256_loadu_ps,
        _mm256_mul_ps, _mm256_or_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_slli_epi32,
        _mm256_storeu_ps, _mm256_sub_ps, _CMP_LT_OQ, _CMP_UNORD_Q,
    };
    let n = xs.len();
    let lanes = n / 8 * 8;
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x8000_0000u32 as i32));
    let clamp = _mm256_set1_ps(TANH_CLAMP);
    let two_log2e = _mm256_set1_ps(TANH_TWO_LOG2E);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let bias127 = _mm256_set1_epi32(127);
    let c = EXP2_C.map(|v| _mm256_set1_ps(v));
    let ptr = xs.as_mut_ptr();
    let mut i = 0;
    while i < lanes {
        let x = _mm256_loadu_ps(ptr.add(i));
        let sign = _mm256_and_ps(x, sign_mask);
        let a = _mm256_and_ps(x, abs_mask);
        let in_range = _mm256_cmp_ps::<_CMP_LT_OQ>(a, clamp);
        let y = _mm256_mul_ps(a, two_log2e);
        let kf = _mm256_floor_ps(_mm256_add_ps(y, half));
        let f = _mm256_sub_ps(y, kf);
        let mut p1 = c[5];
        p1 = _mm256_add_ps(_mm256_mul_ps(p1, f), c[4]);
        p1 = _mm256_add_ps(_mm256_mul_ps(p1, f), c[3]);
        p1 = _mm256_add_ps(_mm256_mul_ps(p1, f), c[2]);
        p1 = _mm256_add_ps(_mm256_mul_ps(p1, f), c[1]);
        p1 = _mm256_add_ps(_mm256_mul_ps(p1, f), c[0]);
        p1 = _mm256_mul_ps(p1, f);
        // 2^k via exponent-field construction (kf is an exact integer, so
        // the nearest-int conversion is exact; out-of-range lanes are
        // blended away below).
        let k = _mm256_cvtps_epi32(kf);
        let two_k = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(k, bias127)));
        let em1 = _mm256_add_ps(_mm256_mul_ps(two_k, p1), _mm256_sub_ps(two_k, one));
        let t_poly = _mm256_div_ps(em1, _mm256_add_ps(em1, two));
        let t = _mm256_blendv_ps(one, t_poly, in_range);
        let result = _mm256_or_ps(t, sign);
        // NaN lanes propagate the input unchanged (payload and all),
        // matching the scalar reference.
        let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_storeu_ps(ptr.add(i), _mm256_blendv_ps(result, x, is_nan));
        i += 8;
    }
    tanh_slice(&mut xs[lanes..]);
}

// ---- pack-buffer recycling --------------------------------------------------

thread_local! {
    /// Recycled panel-packing buffers (two: `A·Bᵀ` packs both operands).
    /// Taken out by value while a kernel runs so a re-entrant call can never
    /// alias or panic — it just uses (and re-caches) fresh buffers.
    static PACK_BUFS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Run `f` with the thread's two recycled packing buffers.
fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
    let (mut a, mut b) = PACK_BUFS.with(|p| p.take());
    let out = f(&mut a, &mut b);
    PACK_BUFS.with(|p| p.replace((a, b)));
    out
}

/// Pack the transpose of `src` into `dst` (a `cols×rows` row-major panel),
/// reusing `dst`'s allocation.
fn pack_transpose_into(src: &Matrix, dst: &mut Vec<f32>) {
    pack_transpose_slice_into(src.as_slice(), src.rows(), src.cols(), dst);
}

/// Pack the transpose of a raw `rows×cols` row-major slice into `dst`,
/// reusing `dst`'s allocation. Cache-blocked so both the read and write
/// sides stay within a few lines.
fn pack_transpose_slice_into(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    const TB: usize = 32;
    debug_assert_eq!(src.len(), rows * cols);
    dst.resize(rows * cols, 0.0);
    for i0 in (0..rows).step_by(TB) {
        let i1 = (i0 + TB).min(rows);
        for j0 in (0..cols).step_by(TB) {
            let j1 = (j0 + TB).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

// ---- plain products ---------------------------------------------------------

/// `a · b`: `a: (m,k)`, `b: (k,n)` → `(m,n)` — the one plain product, for
/// evaluation code and as the unfused reference the fused kernel is tested
/// against. Training never calls it (see the three `_into` kernels below).
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    with_pack_bufs(|at, _| {
        pack_transpose_into(a, at);
        blocked_tn(k, m, n, at, b.as_slice(), out.as_mut_slice(), None);
    });
    out
}

// ---- blocked canonical kernel ----------------------------------------------

/// Canonical blocked product:
/// `out[i][j] = Σ_p at[p·m + i] · bp[p·n + j]`, plus `bias[j]` when given.
///
/// `at` is the `k×m` left panel ("A transposed"), `bp` the `k×n` right
/// panel, and `out` the `m×n` output. Every element of `out` is written
/// exactly once; its prior contents are never read.
fn blocked_tn(
    k: usize,
    m: usize,
    n: usize,
    at: &[f32],
    bp: &[f32],
    out: &mut [f32],
    bias: Option<&[f32]>,
) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(bp.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(bias.is_none_or(|b| b.len() == n));
    let wide = have_wide_simd();
    let mut i = 0;
    while i < m {
        let mr = MR.min(m - i);
        let out_rows = &mut out[i * n..];
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            if mr < MR || nr < NR {
                micro_edge(k, m, n, at, bp, i, mr, j, nr, out_rows, bias);
            } else if wide {
                // SAFETY: `wide` is true only where AVX2 was detected at
                // runtime; this is a full tile (`i + MR <= m`, `j + NR <= n`,
                // `MR` rows of `out_rows` left) over the `k×m` / `k×n`
                // panels and width-`n` bias the callers size.
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    micro_full_avx2(k, m, n, at, bp, i, j, out_rows, bias)
                };
            } else {
                micro_full(k, m, n, at, bp, i, j, out_rows, bias);
            }
            j += nr;
        }
        i += mr;
    }
}

/// Does the host support the 256-bit micro-kernel? (Cached by the stdlib
/// feature-detection macro; one relaxed atomic load per call.)
#[cfg(target_arch = "x86_64")]
fn have_wide_simd() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Non-x86 hosts always take the portable scalar micro-kernel.
#[cfg(not(target_arch = "x86_64"))]
fn have_wide_simd() -> bool {
    false
}

/// AVX2 variant of [`micro_full`]: the 4×16 accumulator tile lives in eight
/// 256-bit registers. Uses separate `vmulps`/`vaddps` — *not* FMA — because
/// fused rounding would break bit-exactness against the scalar kernel; the
/// bias add is one `vaddps`, the same single IEEE add the scalar tile does.
///
/// # Safety
/// The host must support AVX2, and the whole tile must be in bounds:
/// `gi + MR <= m`, `j + NR <= n`, `out_rows` holds `MR` rows of width `n`
/// from the tile's first row, `at`/`bp` hold at least `k·m`/`k·n` values,
/// and `bias`, when given, at least `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // flat panel-geometry signature, kept register-friendly
unsafe fn micro_full_avx2(
    k: usize,
    m: usize,
    n: usize,
    at: &[f32],
    bp: &[f32],
    gi: usize,
    j: usize,
    out_rows: &mut [f32],
    bias: Option<&[f32]>,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    debug_assert!(gi + MR <= m && j + NR <= n && (MR - 1) * n + j + NR <= out_rows.len());
    debug_assert!(k * m <= at.len() && k * n <= bp.len());
    let out_ptr = out_rows.as_mut_ptr();
    let mut acc = [[_mm256_set1_ps(0.0); 2]; MR];
    let at_ptr = at.as_ptr();
    let bp_ptr = bp.as_ptr();
    for p in 0..k {
        let bq = bp_ptr.add(p * n + j);
        let b0 = _mm256_loadu_ps(bq);
        let b1 = _mm256_loadu_ps(bq.add(8));
        let aq = at_ptr.add(p * m + gi);
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*aq.add(r));
            accr[0] = _mm256_add_ps(accr[0], _mm256_mul_ps(av, b0));
            accr[1] = _mm256_add_ps(accr[1], _mm256_mul_ps(av, b1));
        }
    }
    if let Some(bias) = bias {
        debug_assert!(j + NR <= bias.len());
        let bq = bias.as_ptr().add(j);
        let (bias0, bias1) = (_mm256_loadu_ps(bq), _mm256_loadu_ps(bq.add(8)));
        for accr in &mut acc {
            accr[0] = _mm256_add_ps(accr[0], bias0);
            accr[1] = _mm256_add_ps(accr[1], bias1);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let o = out_ptr.add(r * n + j);
        _mm256_storeu_ps(o, accr[0]);
        _mm256_storeu_ps(o.add(8), accr[1]);
    }
}

/// Full `MR×NR` register-tile micro-kernel. `out_rows` starts at the tile's
/// first output row; `gi`/`j` are the global row/column of the tile.
#[inline]
#[allow(clippy::too_many_arguments)] // flat panel-geometry signature, kept register-friendly
fn micro_full(
    k: usize,
    m: usize,
    n: usize,
    at: &[f32],
    bp: &[f32],
    gi: usize,
    j: usize,
    out_rows: &mut [f32],
    bias: Option<&[f32]>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let arow = &at[p * m + gi..p * m + gi + MR];
        let brow = &bp[p * n + j..p * n + j + NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (o, &bv) in accr.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    if let Some(bias) = bias {
        for accr in &mut acc {
            for (o, &b) in accr.iter_mut().zip(&bias[j..j + NR]) {
                *o += b;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out_rows[r * n + j..r * n + j + NR].copy_from_slice(accr);
    }
}

/// Edge-tile kernel for ragged `mr×nr` remainders; same per-element
/// accumulation order and epilogue as the full tile (single accumulator
/// from `+0.0`, `p` ascending, then the optional bias add).
#[allow(clippy::too_many_arguments)] // flat panel-geometry signature, kept register-friendly
fn micro_edge(
    k: usize,
    m: usize,
    n: usize,
    at: &[f32],
    bp: &[f32],
    gi: usize,
    mr: usize,
    j: usize,
    nr: usize,
    out_rows: &mut [f32],
    bias: Option<&[f32]>,
) {
    for r in 0..mr {
        for c in 0..nr {
            let mut s = 0.0f32;
            for p in 0..k {
                s += at[p * m + gi + r] * bp[p * n + j + c];
            }
            out_rows[r * n + j + c] = bias.map_or(s, |b| s + b[j + c]);
        }
    }
}

// ---- fused / view-based products -------------------------------------------

/// `out = act(a · W + bias)` — the fused dense-layer forward step.
///
/// `w` is a row-major `k×n` weight slice (`k = a.cols()`), `bias` has length
/// `n`. `out` is resized to `(a.rows(), n)` reusing its allocation. The
/// tiles store `acc + bias` and the activation follows as one vectorized
/// pass over the output; the result is bit-identical to `matmul` →
/// `add_row_vector` → activation.
///
/// # Panics
/// Panics if `w.len() != a.cols() * n` or `bias.len() != n`.
pub fn matmul_bias_act_into(
    a: &Matrix,
    w: &[f32],
    n: usize,
    bias: &[f32],
    act: ActKind,
    out: &mut Matrix,
    _pool: &Pool,
) {
    let (m, k) = a.shape();
    assert_eq!(w.len(), k * n, "matmul_bias_act weight slice size");
    assert_eq!(bias.len(), n, "matmul_bias_act bias width");
    out.resize_buffer(m, n);
    with_pack_bufs(|at, _| {
        pack_transpose_into(a, at);
        blocked_tn(k, m, n, at, w, out.as_mut_slice(), Some(bias));
    });
    apply_act(act, out.as_mut_slice());
}

/// `out = aᵀ · b` written into a flat `a.cols() × b.cols()` slice — the
/// weight-gradient product, landing directly in its genome-order gradient
/// block (no intermediate matrix, no copy).
///
/// # Panics
/// Panics if the shared dimension or `out.len()` disagree.
pub fn matmul_at_b_slice_into(a: &Matrix, b: &Matrix, out: &mut [f32], _pool: &Pool) {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b shared dim");
    let (k, m) = a.shape();
    let n = b.cols();
    assert_eq!(out.len(), m * n, "matmul_at_b output size");
    blocked_tn(k, m, n, a.as_slice(), b.as_slice(), out, None);
}

/// `out = a · Bᵀ` where `B` is a row-major `b_rows × a.cols()` slice — the
/// input-gradient product `δ · Wᵀ` against a weight block held in flat
/// parameter storage. `out` is resized to `(a.rows(), b_rows)` reusing its
/// allocation.
///
/// # Panics
/// Panics if `b.len() != b_rows * a.cols()`.
pub fn matmul_a_bt_view_into(
    a: &Matrix,
    b: &[f32],
    b_rows: usize,
    out: &mut Matrix,
    _pool: &Pool,
) {
    let (m, k) = a.shape();
    assert_eq!(b.len(), b_rows * k, "matmul_a_bt weight slice size");
    let n = b_rows;
    out.resize_buffer(m, n);
    with_pack_bufs(|at, bt| {
        pack_transpose_into(a, at);
        pack_transpose_slice_into(b, n, k, bt);
        blocked_tn(k, m, n, at, bt, out.as_mut_slice(), None);
    });
}

// ---- elementwise kernels ---------------------------------------------------

/// `y += alpha * x` on raw slices (the SGD update primitive).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Add a row vector `bias` (length `cols`) to every row of `a`.
pub fn add_row_vector(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "add_row_vector width");
    for r in 0..a.rows() {
        for (x, b) in a.row_mut(r).iter_mut().zip(bias) {
            *x += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Rng64::seed_from(7);
        let a = rng.uniform_matrix(5, 7, -1.0, 1.0);
        let b = rng.uniform_matrix(7, 3, -1.0, 1.0);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn blocked_matmul_is_bit_exact_vs_naive() {
        // The blocked kernel only regroups independent output elements; each
        // element must accumulate in exactly the naive single-accumulator,
        // ascending-p order, so the results are bit-identical — not close.
        let mut rng = Rng64::seed_from(40);
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 5, 2), (4, 16, 16), (7, 33, 19), (37, 23, 65)]
        {
            let a = rng.uniform_matrix(m, k, -1.0, 1.0);
            let b = rng.uniform_matrix(k, n, -1.0, 1.0);
            assert_eq!(
                matmul(&a, &b).as_slice(),
                naive_matmul(&a, &b).as_slice(),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    /// `aᵀ · b` through the production slice kernel, into a dirty buffer.
    fn at_b(a: &Matrix, b: &Matrix, pool: &Pool) -> Matrix {
        let mut out = vec![9.9f32; a.cols() * b.cols()];
        matmul_at_b_slice_into(a, b, &mut out, pool);
        Matrix::from_vec(a.cols(), b.cols(), out).unwrap()
    }

    /// `a · bᵀ` through the production view kernel, into a dirty buffer.
    fn a_bt(a: &Matrix, b: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::full(2, 3, 9.9);
        matmul_a_bt_view_into(a, b.as_slice(), b.rows(), &mut out, pool);
        out
    }

    /// `a · b` through the production forward kernel (zero bias, identity
    /// epilogue), into a dirty buffer.
    fn ab_fused(a: &Matrix, b: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::full(2, 3, 9.9);
        let bias = vec![0.0; b.cols()];
        matmul_bias_act_into(
            a,
            b.as_slice(),
            b.cols(),
            &bias,
            ActKind::Identity,
            &mut out,
            pool,
        );
        out
    }

    fn naive_matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.rows() {
                    s += a[(p, i)] * b[(p, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn naive_matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(j, p)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn at_b_is_bit_exact_vs_naive() {
        let mut rng = Rng64::seed_from(20);
        let a = rng.uniform_matrix(9, 5, -1.0, 1.0);
        let b = rng.uniform_matrix(9, 7, -1.0, 1.0);
        assert_eq!(
            at_b(&a, &b, &Pool::serial()).as_slice(),
            naive_matmul_at_b(&a, &b).as_slice()
        );
    }

    #[test]
    fn a_bt_is_bit_exact_vs_naive() {
        let mut rng = Rng64::seed_from(21);
        let a = rng.uniform_matrix(6, 8, -1.0, 1.0);
        let b = rng.uniform_matrix(5, 8, -1.0, 1.0);
        assert_eq!(
            a_bt(&a, &b, &Pool::serial()).as_slice(),
            naive_matmul_a_bt(&a, &b).as_slice()
        );
    }

    /// The fused forward kernel must reproduce the unfused three-step
    /// pipeline bit-for-bit for every activation and for ragged edge tiles.
    #[test]
    fn fused_epilogue_is_bit_exact_vs_unfused() {
        let mut rng = Rng64::seed_from(50);
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 5, 2), (4, 16, 16), (7, 33, 19), (23, 11, 37)]
        {
            let a = rng.uniform_matrix(m, k, -2.0, 2.0);
            let w = rng.uniform_matrix(k, n, -1.0, 1.0);
            let bias: Vec<f32> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
            for act in [ActKind::Identity, ActKind::Tanh] {
                // Unfused reference: matmul, then bias, then activation.
                let mut expect = matmul(&a, &w);
                add_row_vector(&mut expect, &bias);
                for v in expect.as_mut_slice() {
                    *v = act.apply(*v);
                }
                let mut fused = Matrix::zeros(0, 0);
                matmul_bias_act_into(
                    &a,
                    w.as_slice(),
                    n,
                    &bias,
                    act,
                    &mut fused,
                    &Pool::serial(),
                );
                assert_eq!(fused.shape(), (m, n));
                assert_eq!(
                    fused.as_slice(),
                    expect.as_slice(),
                    "{m}x{k}x{n} {act:?} fused drift"
                );
            }
        }
    }

    #[test]
    fn forward_kernel_is_bit_exact_vs_plain_product() {
        // Determinism, not mere closeness: the distributed drivers assert
        // bit-identical genomes, so the forward kernel must reproduce the
        // plain product exactly, on every call into a dirty buffer.
        let mut rng = Rng64::seed_from(22);
        let a = rng.uniform_matrix(23, 17, -1.0, 1.0);
        let b = rng.uniform_matrix(17, 11, -1.0, 1.0);
        let serial = matmul(&a, &b);
        for _ in 0..3 {
            assert_eq!(ab_fused(&a, &b, &Pool::serial()).as_slice(), serial.as_slice());
        }
    }

    #[test]
    fn backprop_kernels_are_bit_exact_on_full_tiles() {
        let mut rng = Rng64::seed_from(23);
        let x = rng.uniform_matrix(64, 48, -1.0, 1.0);
        let delta = rng.uniform_matrix(64, 56, -1.0, 1.0);
        let w = rng.uniform_matrix(48, 56, -1.0, 1.0);
        assert_eq!(
            at_b(&x, &delta, &Pool::serial()).as_slice(),
            naive_matmul_at_b(&x, &delta).as_slice()
        );
        assert_eq!(
            a_bt(&delta, &w, &Pool::serial()).as_slice(),
            naive_matmul_a_bt(&delta, &w).as_slice()
        );
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = Rng64::seed_from(8);
        let a = rng.uniform_matrix(6, 4, -1.0, 1.0);
        let b = rng.uniform_matrix(6, 5, -1.0, 1.0);
        let fast = at_b(&a, &b, &Pool::serial());
        let slow = matmul(&a.transpose(), &b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = Rng64::seed_from(9);
        let a = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let b = rng.uniform_matrix(3, 6, -1.0, 1.0);
        let fast = a_bt(&a, &b, &Pool::serial());
        let slow = matmul(&a, &b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::seed_from(11);
        let a = rng.uniform_matrix(4, 4, -2.0, 2.0);
        let i = Matrix::identity(4);
        assert!(matmul(&a, &i).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&i, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn zero_rows_in_operands() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let at = Matrix::zeros(4, 0);
        assert_eq!(at_b(&at, &b, &Pool::serial()).shape(), (0, 3));
    }

    #[test]
    fn fused_with_zero_inner_dim_is_bias_activation() {
        // k = 0: the product contributes nothing; out = act(0 + bias).
        let a = Matrix::zeros(3, 0);
        let w: [f32; 0] = [];
        let bias = [0.5f32, -0.25];
        let mut out = Matrix::zeros(0, 0);
        matmul_bias_act_into(&a, &w, 2, &bias, ActKind::Tanh, &mut out, &Pool::serial());
        assert_eq!(out.shape(), (3, 2));
        for r in 0..3 {
            assert_eq!(out[(r, 0)], ActKind::Tanh.apply(0.5));
            assert_eq!(out[(r, 1)], ActKind::Tanh.apply(-0.25));
        }
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let mut a = Matrix::zeros(3, 2);
        add_row_vector(&mut a, &[1.0, -1.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn axpy_updates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [1.5, 2.0, 2.5]);
    }

    #[test]
    fn fast_tanh_is_accurate_and_well_behaved() {
        // Reference through f64 tanh; the approximation must stay within a
        // few f32 ulps everywhere, keep |t| ≤ 1, and be odd.
        let mut rng = Rng64::seed_from(60);
        for _ in 0..20_000 {
            let x = rng.uniform(-12.0, 12.0);
            let t = fast_tanh(x);
            let reference = (x as f64).tanh() as f32;
            let tol = (reference.abs() * 1e-6).max(1e-7);
            assert!(
                (t - reference).abs() <= tol,
                "fast_tanh({x}) = {t} vs {reference} (err {})",
                (t - reference).abs()
            );
            assert!(t.abs() <= 1.0, "fast_tanh({x}) = {t} out of range");
            assert_eq!(fast_tanh(-x).to_bits(), (-t).to_bits(), "odd symmetry at {x}");
        }
        assert_eq!(fast_tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(fast_tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fast_tanh(40.0), 1.0);
        assert_eq!(fast_tanh(f32::INFINITY), 1.0);
        assert_eq!(fast_tanh(-f32::INFINITY), -1.0);
        // NaN propagates with its exact payload (a diverged run must stay
        // visibly poisoned).
        let nan = f32::from_bits(0x7FC0_1234);
        assert_eq!(fast_tanh(nan).to_bits(), nan.to_bits());
        // Tiny inputs: tanh(x) ≈ x with full relative precision (the em1
        // formulation avoids the 1 − 2/(e+1) cancellation).
        for x in [1e-6f32, 1e-4, -3e-5, 1e-9] {
            let t = fast_tanh(x);
            assert!((t - x).abs() <= x.abs() * 1e-3, "tiny input {x} -> {t}");
        }
    }

    /// The portable kernels, run side by side with their AVX2 twins on
    /// the same inputs — on an AVX2 host nothing else ever runs them.
    /// Skipped only where AVX2 is absent (there the portable kernels are
    /// what every other test runs).
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_full_tile_matches_avx2_bitwise() {
        if !avx2() {
            return;
        }
        let mut rng = Rng64::seed_from(63);
        // Two tiles' room each way, so the tile also runs off the origin.
        let (m, n) = (2 * MR, 2 * NR);
        for k in 0..40 {
            let at: Vec<f32> = (0..k * m).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let bp: Vec<f32> = (0..k * n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let bias: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            for bias in [None, Some(bias.as_slice())] {
                for (gi, j) in [(0, 0), (MR, NR), (1, 3)] {
                    let mut portable = vec![f32::NAN; m * n];
                    let mut wide = portable.clone();
                    micro_full(k, m, n, &at, &bp, gi, j, &mut portable[gi * n..], bias);
                    // SAFETY: AVX2 was detected above; the tile at (gi, j)
                    // lies inside the m×n output and the k×m / k×n panels.
                    unsafe {
                        micro_full_avx2(k, m, n, &at, &bp, gi, j, &mut wide[gi * n..], bias)
                    };
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&portable),
                        bits(&wide),
                        "k {k}, tile ({gi}, {j}), bias {}",
                        bias.is_some()
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_tanh_matches_avx2_bitwise() {
        if !avx2() {
            return;
        }
        let mut rng = Rng64::seed_from(64);
        let mut xs = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFC0_5678),
            f32::from_bits(0x7F80_0001), // signalling-NaN payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            TANH_CLAMP,
            -8.999_999,
        ];
        xs.extend((0..997).map(|_| rng.uniform(-12.0, 12.0)));
        // The edge values lead, so every length 0..40 runs them through the
        // AVX2 body and its tail; the full slice is mostly body.
        for len in (0..40).chain([xs.len()]) {
            let mut portable = xs[..len].to_vec();
            let mut wide = portable.clone();
            tanh_slice(&mut portable);
            // SAFETY: AVX2 was detected above.
            unsafe { tanh_slice_avx2(&mut wide) };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&portable), bits(&wide), "length {len}");
        }
    }

    #[test]
    fn vectorized_tanh_matches_scalar_bitwise() {
        // The AVX2 slice kernel must agree with the scalar reference on
        // every lane, for odd lengths (tail path) and edge values.
        let mut rng = Rng64::seed_from(61);
        let mut xs: Vec<f32> = (0..1000).map(|_| rng.uniform(-15.0, 15.0)).collect();
        xs.extend_from_slice(&[
            0.0,
            -0.0,
            TANH_CLAMP,
            -TANH_CLAMP,
            8.999_999,
            1e-30,
            -1e-30,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xFFC0_5678), // negative NaN with payload
        ]);
        let expect: Vec<u32> = xs.iter().map(|&v| fast_tanh(v).to_bits()).collect();
        apply_act(ActKind::Tanh, &mut xs);
        let got: Vec<u32> = xs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expect, "vector tanh drifted from the scalar reference");
    }
}
