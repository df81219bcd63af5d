//! Adam optimizer over a network's flat genome vector.

use crate::mlp::{Grads, Mlp};

/// The complete state of an [`Adam`] optimizer, as plain data.
///
/// Everything the update rule depends on is here — moments, step count,
/// *and* the hyperparameters — so `Adam::from_state(adam.state())` resumes
/// training bit-exactly. The checkpoint layer serializes this instead of
/// assuming moments can be reconstructed by replaying steps.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First-moment vector (genome order).
    pub m: Vec<f32>,
    /// Second-moment vector (genome order).
    pub v: Vec<f32>,
    /// Steps taken so far.
    pub t: u64,
    /// β₁ decay.
    pub beta1: f32,
    /// β₂ decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}
lipiz_wire::wire_struct!(AdamState { m, v, t, beta1, beta2, eps });

/// Adam state (Kingma & Ba, 2015) for one network.
///
/// The moment vectors are aligned with the network's genome layout. Table I
/// of the paper uses Adam with initial learning rate `2e-4`; the learning
/// rate itself is *not* stored here because Lipizzaner treats it as an
/// evolvable hyperparameter owned by the individual — it is passed to every
/// [`Adam::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// Fresh optimizer state for a network with `n` parameters, with the
    /// standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(n: usize) -> Self {
        Self { m: vec![0.0; n], v: vec![0.0; n], t: 0, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// Fresh state with custom betas (exposed for ablations).
    pub fn with_betas(n: usize, beta1: f32, beta2: f32) -> Self {
        Self { m: vec![0.0; n], v: vec![0.0; n], t: 0, beta1, beta2, eps: 1e-8 }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Capture the optimizer's full state (see [`AdamState`]).
    pub fn state(&self) -> AdamState {
        AdamState {
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
        }
    }

    /// Capture into an existing [`AdamState`], reusing its moment buffers
    /// (the allocation-free path of a double-buffered checkpoint capture).
    pub fn state_into(&self, out: &mut AdamState) {
        out.m.clear();
        out.m.extend_from_slice(&self.m);
        out.v.clear();
        out.v.extend_from_slice(&self.v);
        out.t = self.t;
        out.beta1 = self.beta1;
        out.beta2 = self.beta2;
        out.eps = self.eps;
    }

    /// Rebuild an optimizer from a captured [`Adam::state`].
    ///
    /// # Panics
    /// Panics if the moment vectors disagree in length (a corrupt state
    /// must never restore partially).
    pub fn from_state(state: AdamState) -> Self {
        assert_eq!(state.m.len(), state.v.len(), "Adam state moment lengths");
        Self {
            m: state.m,
            v: state.v,
            t: state.t,
            beta1: state.beta1,
            beta2: state.beta2,
            eps: state.eps,
        }
    }

    /// Reset moments and step count (used when a genome import replaces the
    /// network this state was tracking).
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }

    /// Apply one Adam update to `net` with gradient `grads` and learning
    /// rate `lr`.
    ///
    /// # Panics
    /// Panics if the gradient length does not match this state's width.
    pub fn step(&mut self, net: &mut Mlp, grads: &Grads, lr: f32) {
        self.step_slice(net.params_mut(), grads.as_slice(), lr);
    }

    /// The update itself, over a flat parameter slice — the network's
    /// contiguous genome storage makes the whole optimizer one pass over
    /// three parallel slices, dispatched to an AVX2 mul/add micro-kernel
    /// when the host supports it (bit-identical to the scalar loop: every
    /// lane performs the same individually rounded IEEE operations,
    /// including the correctly rounded `vsqrtps`/`vdivps`).
    ///
    /// # Panics
    /// Panics if `params`/`g` lengths do not match this state's width.
    pub fn step_slice(&mut self, params: &mut [f32], g: &[f32], lr: f32) {
        assert_eq!(g.len(), self.m.len(), "Adam width mismatch");
        assert_eq!(params.len(), self.m.len(), "Adam width mismatch");
        self.t += 1;
        let c = UpdateCoeffs {
            beta1: self.beta1,
            beta2: self.beta2,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
            eps: self.eps,
            lr,
        };
        update_dispatch(params, g, &mut self.m, &mut self.v, &c);
    }
}

/// Per-step constants of the Adam update rule.
#[derive(Clone, Copy)]
struct UpdateCoeffs {
    beta1: f32,
    beta2: f32,
    /// `1 - β₁ᵗ` (first-moment bias correction).
    b1t: f32,
    /// `1 - β₂ᵗ` (second-moment bias correction).
    b2t: f32,
    eps: f32,
    lr: f32,
}

/// Pick the widest update kernel the host supports.
fn update_dispatch(
    params: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    c: &UpdateCoeffs,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the detection macro asserts AVX2 support at runtime.
        unsafe { update_avx2(params, g, m, v, c) };
        return;
    }
    update_scalar(params, g, m, v, c);
}

/// Portable scalar update — the reference the vector kernel is
/// property-tested against. One fused pass:
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g·g`,
/// `p ← p - lr·(m/b1t) / (√(v/b2t) + ε)`.
fn update_scalar(
    params: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    c: &UpdateCoeffs,
) {
    for i in 0..params.len() {
        let gi = g[i];
        m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * gi;
        v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * gi * gi;
        let mhat = m[i] / c.b1t;
        let vhat = v[i] / c.b2t;
        params[i] -= c.lr * mhat / (vhat.sqrt() + c.eps);
    }
}

/// AVX2 update: eight lanes per iteration, separate `vmulps`/`vaddps`
/// (never FMA) plus IEEE-correct `vsqrtps`/`vdivps`, so every lane computes
/// exactly what [`update_scalar`] computes. Note the `(1-β₂)·g·g` term is
/// associated left-to-right exactly like the scalar expression — the
/// rounding of `((1-β₂)·g)·g` and `(1-β₂)·(g·g)` can differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn update_avx2(
    params: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    c: &UpdateCoeffs,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps,
    };
    let n = params.len();
    let lanes = n / 8 * 8;
    let b1 = _mm256_set1_ps(c.beta1);
    let one_m_b1 = _mm256_set1_ps(1.0 - c.beta1);
    let b2 = _mm256_set1_ps(c.beta2);
    let one_m_b2 = _mm256_set1_ps(1.0 - c.beta2);
    let inv1 = _mm256_set1_ps(c.b1t);
    let inv2 = _mm256_set1_ps(c.b2t);
    let eps = _mm256_set1_ps(c.eps);
    let lr = _mm256_set1_ps(c.lr);
    let (pp, gp, mp, vp) = (params.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i < lanes {
        let gv = _mm256_loadu_ps(gp.add(i));
        let mv = _mm256_add_ps(
            _mm256_mul_ps(b1, _mm256_loadu_ps(mp.add(i))),
            _mm256_mul_ps(one_m_b1, gv),
        );
        // ((1-β₂)·g)·g — same association as the scalar path.
        let vv = _mm256_add_ps(
            _mm256_mul_ps(b2, _mm256_loadu_ps(vp.add(i))),
            _mm256_mul_ps(_mm256_mul_ps(one_m_b2, gv), gv),
        );
        _mm256_storeu_ps(mp.add(i), mv);
        _mm256_storeu_ps(vp.add(i), vv);
        let mhat = _mm256_div_ps(mv, inv1);
        let vhat = _mm256_div_ps(vv, inv2);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), eps);
        let step = _mm256_div_ps(_mm256_mul_ps(lr, mhat), denom);
        _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), step));
        i += 8;
    }
    if lanes < n {
        update_scalar(&mut params[lanes..], &g[lanes..], &mut m[lanes..], &mut v[lanes..], c);
    }
}

/// Scalar reference step, exposed for the vector-vs-scalar property tests:
/// performs exactly one [`Adam::step_slice`] worth of state mutation using
/// only the portable loop, regardless of host features.
pub fn step_slice_scalar(adam: &mut Adam, params: &mut [f32], g: &[f32], lr: f32) {
    assert_eq!(g.len(), adam.m.len(), "Adam width mismatch");
    assert_eq!(params.len(), adam.m.len(), "Adam width mismatch");
    adam.t += 1;
    let c = UpdateCoeffs {
        beta1: adam.beta1,
        beta2: adam.beta2,
        b1t: 1.0 - adam.beta1.powi(adam.t as i32),
        b2t: 1.0 - adam.beta2.powi(adam.t as i32),
        eps: adam.eps,
        lr,
    };
    update_scalar(params, g, &mut adam.m, &mut adam.v, &c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::{Grads, Mlp};
    use crate::test_util::{backward, cached_forward, forward};
    use lipiz_tensor::{Matrix, Pool, Rng64};

    /// Gradients of `L = scale · ½·Σ out²` through fresh buffers.
    fn quadratic_grads(net: &Mlp, x: &Matrix, scale: f32) -> Grads {
        let pool = Pool::serial();
        let cache = cached_forward(net, x, &pool);
        let mut d_out = cache.output().clone();
        for v in d_out.as_mut_slice() {
            *v *= scale;
        }
        backward(net, x, &cache, &d_out, &pool).0
    }

    /// The portable update run side by side with the AVX2 one on the same
    /// inputs — on an AVX2 host the dispatch never runs it. Skipped only
    /// where AVX2 is absent (there it is what every other test runs).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_update_matches_avx2_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = Rng64::seed_from(65);
        let edge = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::from_bits(1),
            f32::from_bits(0x7FC0_1234),
            1e30,
            -1e-30,
            f32::INFINITY,
        ];
        for (t, len) in (1..).zip((0..40).chain([1001])) {
            let draw = |rng: &mut Rng64, scale: f32| -> Vec<f32> {
                let mut v: Vec<f32> = (0..len).map(|_| rng.uniform(-scale, scale)).collect();
                v.iter_mut().zip(edge).for_each(|(x, e)| *x = e);
                v
            };
            let (params, g, m) =
                (draw(&mut rng, 1.0), draw(&mut rng, 0.1), draw(&mut rng, 0.01));
            let v: Vec<f32> = draw(&mut rng, 1e-4).iter().map(|x| x.abs()).collect();
            let c = UpdateCoeffs {
                beta1: 0.9,
                beta2: 0.999,
                b1t: 1.0 - 0.9f32.powi(t),
                b2t: 1.0 - 0.999f32.powi(t),
                eps: 1e-8,
                lr: 2e-4,
            };
            let mut portable = (params.clone(), m.clone(), v.clone());
            let mut wide = (params, m, v);
            update_scalar(&mut portable.0, &g, &mut portable.1, &mut portable.2, &c);
            // SAFETY: AVX2 was detected above.
            unsafe { update_avx2(&mut wide.0, &g, &mut wide.1, &mut wide.2, &c) };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&portable.0), bits(&wide.0), "params, length {len}");
            assert_eq!(bits(&portable.1), bits(&wide.1), "m, length {len}");
            assert_eq!(bits(&portable.2), bits(&wide.2), "v, length {len}");
        }
    }

    /// Adam should minimize a simple quadratic fit much faster than no
    /// training at all: fit y = 0 from random weights.
    #[test]
    fn adam_descends_quadratic_objective() {
        let mut rng = Rng64::seed_from(42);
        let mut net =
            Mlp::from_dims(&[4, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut adam = Adam::new(net.param_count());
        let x = rng.uniform_matrix(16, 4, -1.0, 1.0);

        let loss_of = |net: &Mlp| -> f32 {
            let y = forward(net, &x, &Pool::serial());
            y.as_slice().iter().map(|v| 0.5 * v * v).sum::<f32>() / 16.0
        };

        let initial = loss_of(&net);
        for _ in 0..200 {
            let grads = quadratic_grads(&net, &x, 1.0 / 16.0);
            adam.step(&mut net, &grads, 1e-2);
        }
        let final_loss = loss_of(&net);
        assert!(
            final_loss < initial * 0.05,
            "Adam failed to descend: {initial} -> {final_loss}"
        );
        assert_eq!(adam.steps(), 200);
    }

    #[test]
    fn first_step_moves_against_gradient_sign() {
        let mut rng = Rng64::seed_from(7);
        let mut net =
            Mlp::from_dims(&[2, 2], Activation::Identity, Activation::Identity, &mut rng);
        let before = net.genome().to_vec();
        let mut grads = Grads::zeros(net.param_count());
        for (i, g) in grads.as_mut_slice().iter_mut().enumerate() {
            *g = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut adam = Adam::new(net.param_count());
        adam.step(&mut net, &grads, 0.1);
        let after = net.genome().to_vec();
        for i in 0..before.len() {
            let moved = after[i] - before[i];
            let expected_sign = if i % 2 == 0 { -1.0 } else { 1.0 };
            assert!(
                moved * expected_sign > 0.0,
                "param {i} moved {moved} against gradient {}",
                grads.as_slice()[i]
            );
        }
    }

    #[test]
    fn zero_gradient_keeps_params() {
        let mut rng = Rng64::seed_from(8);
        let mut net = Mlp::from_dims(&[3, 3], Activation::Tanh, Activation::Identity, &mut rng);
        let before = net.genome().to_vec();
        let grads = Grads::zeros(net.param_count());
        let mut adam = Adam::new(net.param_count());
        adam.step(&mut net, &grads, 0.1);
        let after = net.genome().to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut adam = Adam::new(4);
        let mut rng = Rng64::seed_from(9);
        let mut net =
            Mlp::from_dims(&[1, 1], Activation::Identity, Activation::Identity, &mut rng);
        let mut grads = Grads::zeros(net.param_count());
        grads.as_mut_slice().fill(1.0);
        // net has 2 params (1 weight + 1 bias); rebuild Adam to match.
        let mut adam2 = Adam::new(net.param_count());
        adam2.step(&mut net, &grads, 0.01);
        assert_eq!(adam2.steps(), 1);
        adam2.reset();
        assert_eq!(adam2.steps(), 0);
        adam.reset();
        assert_eq!(adam.steps(), 0);
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        // Capture mid-descent, restore, and require the two optimizers to
        // produce bit-identical parameter trajectories from there on.
        let mut rng = Rng64::seed_from(21);
        let mut net =
            Mlp::from_dims(&[3, 5, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut adam = Adam::with_betas(net.param_count(), 0.8, 0.95);
        let x = rng.uniform_matrix(8, 3, -1.0, 1.0);
        let step = |net: &mut Mlp, adam: &mut Adam| {
            let grads = quadratic_grads(net, &x, 1.0);
            adam.step(net, &grads, 3e-3);
        };
        for _ in 0..5 {
            step(&mut net, &mut adam);
        }
        let mut net2 = net.clone();
        let mut adam2 = Adam::from_state(adam.state());
        assert_eq!(adam2.state(), adam.state());
        for _ in 0..10 {
            step(&mut net, &mut adam);
            step(&mut net2, &mut adam2);
        }
        let (a, b) = (net.genome().to_vec(), net2.genome().to_vec());
        assert_eq!(
            a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "restored Adam diverged from the original"
        );
        assert_eq!(adam.steps(), adam2.steps());
    }

    #[test]
    fn state_preserves_custom_betas() {
        let adam = Adam::with_betas(4, 0.7, 0.9);
        let back = Adam::from_state(adam.state());
        assert_eq!(back.state(), adam.state());
    }

    #[test]
    #[should_panic(expected = "moment lengths")]
    fn mismatched_state_moments_panic() {
        let mut state = Adam::new(4).state();
        state.v.pop();
        let _ = Adam::from_state(state);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_grads_panic() {
        let mut rng = Rng64::seed_from(10);
        let mut net = Mlp::from_dims(&[2, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let grads = Grads::zeros(net.param_count() + 1);
        let mut adam = Adam::new(net.param_count());
        adam.step(&mut net, &grads, 0.1);
    }
}
