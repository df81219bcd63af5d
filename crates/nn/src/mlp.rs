//! Dense multi-layer perceptron with exact manual backpropagation.
//!
//! A network is a **shape** ([`MlpShape`]: layer specs and their genome
//! offsets) applied to a **genome** (any `&[f32]` of the shape's
//! `param_count()` floats, in genome order). Forward, backward and the
//! optimizer step all run on a shape plus a genome slice — the one
//! arithmetic path — so a cell trains and scores the members of its
//! sub-populations in the slots they live in, with no network copy.
//! [`Mlp`] is that pair with an owned genome, for the callers that want a
//! standalone network.

use crate::activation::Activation;
use crate::init;
use lipiz_tensor::{ops, Matrix, Pool, Rng64};

/// Shape and activation of one dense layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Input width.
    pub fan_in: usize,
    /// Output width.
    pub fan_out: usize,
    /// Activation applied to the affine output.
    pub act: Activation,
}

/// The shape of a feed-forward network of dense layers,
/// `a_{i+1} = act_i(a_i W_i + b_i)`: its layer specs and each layer's
/// offsets into a genome laid out `[W_0 (row-major), b_0, W_1, b_1, ...]`.
///
/// A shape owns no parameters. Every pass takes the genome it runs on as a
/// slice, so one shape serves every genome of that topology.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpShape {
    specs: Vec<LayerSpec>,
    /// Per-layer `(weight_offset, bias_offset)` into a genome.
    offsets: Vec<(usize, usize)>,
    param_count: usize,
}

/// A standalone network: an [`MlpShape`] with an owned genome — one
/// contiguous `Vec<f32>`, so [`Mlp::genome`] is a zero-copy borrow,
/// [`Mlp::load_genome`] a single `copy_from_slice`, and the optimizer
/// updates the whole network as one flat slice ([`Mlp::params_mut`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    shape: MlpShape,
    /// All weights and biases, flat in genome order.
    params: Vec<f32>,
}

/// Reusable per-layer output activations, filled by
/// [`MlpShape::forward_cached_ws`] for the backward pass.
///
/// It does **not** store a copy of the input batch (the backward pass
/// receives it by reference), and its buffers are recycled across steps:
/// after the first use at a given shape, the cached forward pass performs
/// zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct LayerCache {
    /// `outs[i]` is the activated output of layer `i`.
    outs: Vec<Matrix>,
}

impl LayerCache {
    /// The network output (last layer's activation).
    ///
    /// # Panics
    /// Panics if no forward pass has filled the cache yet.
    pub fn output(&self) -> &Matrix {
        self.outs.last().expect("empty layer cache")
    }

    /// The activated output of layer `i` (hidden-layer features).
    ///
    /// # Panics
    /// Panics if the last forward pass had no layer `i`.
    pub fn layer(&self, i: usize) -> &Matrix {
        &self.outs[i]
    }
}

/// Reusable delta ping-pong buffers for [`MlpShape::backward_ws`]. One
/// scratch serves networks of any shape (buffers are resized in place).
#[derive(Debug, Clone, Default)]
pub struct DeltaScratch {
    cur: Matrix,
    next: Matrix,
}

/// Flat gradient vector aligned with the genome layout of an [`MlpShape`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Grads {
    flat: Vec<f32>,
}

impl Grads {
    /// Zero gradients for a network with `n` parameters.
    pub fn zeros(n: usize) -> Self {
        Self { flat: vec![0.0; n] }
    }

    /// The flat gradient data (genome order).
    pub fn as_slice(&self) -> &[f32] {
        &self.flat
    }

    /// Mutable flat gradient data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.flat
    }

    /// Reset to zero, keeping the allocation.
    pub fn zero(&mut self) {
        self.flat.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self += other` (for gradient accumulation across adversaries).
    pub fn accumulate(&mut self, other: &Grads) {
        assert_eq!(self.flat.len(), other.flat.len(), "grad length");
        ops::axpy(1.0, &other.flat, &mut self.flat);
    }

    /// Scale all gradients by `s`.
    pub fn scale(&mut self, s: f32) {
        self.flat.iter_mut().for_each(|v| *v *= s);
    }

    /// Euclidean norm (used for gradient-explosion diagnostics).
    pub fn norm(&self) -> f32 {
        lipiz_tensor::reduce::norm2(&self.flat)
    }
}

impl MlpShape {
    /// The shape of a network with these layers.
    ///
    /// # Panics
    /// Panics if `specs` is empty or consecutive specs do not chain
    /// (`fan_out != next fan_in`).
    pub fn new(specs: Vec<LayerSpec>) -> Self {
        assert!(!specs.is_empty(), "Mlp needs at least one layer");
        for w in specs.windows(2) {
            assert_eq!(
                w[0].fan_out, w[1].fan_in,
                "layer specs do not chain: {} -> {}",
                w[0].fan_out, w[1].fan_in
            );
        }
        let mut offsets = Vec::with_capacity(specs.len());
        let mut off = 0;
        for s in &specs {
            let w_off = off;
            off += s.fan_in * s.fan_out;
            offsets.push((w_off, off));
            off += s.fan_out;
        }
        Self { specs, offsets, param_count: off }
    }

    /// The shape of a width list: `dims = [in, h1, ..., out]`, using
    /// `hidden` activation everywhere except the final layer which uses
    /// `output`.
    pub fn from_dims(dims: &[usize], hidden: Activation, output: Activation) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let n = dims.len() - 1;
        let specs = (0..n)
            .map(|i| LayerSpec {
                fan_in: dims[i],
                fan_out: dims[i + 1],
                act: if i + 1 == n { output } else { hidden },
            })
            .collect();
        Self::new(specs)
    }

    /// A fresh genome of this shape: Glorot-uniform weights drawn layer by
    /// layer in genome order, zero biases.
    pub fn glorot_genome(&self, rng: &mut Rng64) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_count];
        for (spec, &(w_off, _)) in self.specs.iter().zip(&self.offsets) {
            let w = init::glorot_uniform(rng, spec.fan_in, spec.fan_out);
            params[w_off..w_off + w.len()].copy_from_slice(w.as_slice());
        }
        params
    }

    /// Layer specifications.
    pub fn specs(&self) -> &[LayerSpec] {
        &self.specs
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.specs.len()
    }

    /// Input width of the network.
    pub fn input_dim(&self) -> usize {
        self.specs[0].fan_in
    }

    /// Output width of the network.
    pub fn output_dim(&self) -> usize {
        self.specs.last().unwrap().fan_out
    }

    /// Genome length: total number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Genome offsets of each layer: `(weight_offset, bias_offset)`.
    pub fn layer_offsets(&self) -> &[(usize, usize)] {
        &self.offsets
    }

    /// Row-major weight block of layer `i` (`fan_in × fan_out`) in `genome`.
    #[inline]
    pub fn weight<'g>(&self, genome: &'g [f32], i: usize) -> &'g [f32] {
        let (w_off, b_off) = self.offsets[i];
        &genome[w_off..b_off]
    }

    /// Bias vector of layer `i` (length `fan_out`) in `genome`.
    #[inline]
    pub fn bias<'g>(&self, genome: &'g [f32], i: usize) -> &'g [f32] {
        let (_, b_off) = self.offsets[i];
        &genome[b_off..b_off + self.specs[i].fan_out]
    }

    fn check(&self, genome: &[f32], x_cols: usize) {
        assert_eq!(genome.len(), self.param_count, "genome length");
        assert_eq!(x_cols, self.input_dim(), "input width");
    }

    /// Forward pass of `genome` without caching (inference) into recycled
    /// buffers: the result lands in `out`, `scratch` holds intermediate
    /// activations (ping-pong). Performs zero heap allocations once both
    /// buffers have warmed up to the network's widest layer.
    pub fn forward_into(
        &self,
        genome: &[f32],
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut Matrix,
        pool: &Pool,
    ) {
        self.check(genome, x.cols());
        let ln = self.specs.len();
        // Alternate targets so the final layer writes `out`.
        let mut a: &mut Matrix = scratch;
        let mut b: &mut Matrix = out;
        if ln % 2 == 1 {
            std::mem::swap(&mut a, &mut b);
        }
        self.layer_fused(genome, 0, x, a, pool);
        for i in 1..ln {
            self.layer_fused(genome, i, a, b, pool);
            std::mem::swap(&mut a, &mut b);
        }
    }

    /// One fused dense layer: `dst = act_i(src · W_i + b_i)`.
    fn layer_fused(
        &self,
        genome: &[f32],
        i: usize,
        src: &Matrix,
        dst: &mut Matrix,
        pool: &Pool,
    ) {
        let spec = self.specs[i];
        ops::matmul_bias_act_into(
            src,
            self.weight(genome, i),
            spec.fan_out,
            self.bias(genome, i),
            spec.act,
            dst,
            pool,
        );
    }

    /// Forward pass of `genome` that caches every layer's activation in a
    /// recycled [`LayerCache`] for [`MlpShape::backward_ws`]. The input
    /// batch is *not* copied (pass it to the backward pass alongside the
    /// cache).
    pub fn forward_cached_ws(
        &self,
        genome: &[f32],
        x: &Matrix,
        cache: &mut LayerCache,
        pool: &Pool,
    ) {
        self.check(genome, x.cols());
        let ln = self.specs.len();
        cache.outs.resize_with(ln, Matrix::default);
        for i in 0..ln {
            let (head, tail) = cache.outs.split_at_mut(i);
            let src = if i == 0 { x } else { &head[i - 1] };
            self.layer_fused(genome, i, src, &mut tail[0], pool);
        }
    }

    /// Backward pass of `genome` into recycled buffers.
    ///
    /// `x` is the input batch the cache was filled from and `d_out` is
    /// `∂L/∂output` (same shape as the network output). Each layer's
    /// gradient block is written directly at its genome offset in `grads`
    /// (weight gradients land in place via the slice kernel — no
    /// intermediate matrix, no copy). When `dx` is `Some`, `∂L/∂input` is
    /// written into it (needed to continue backpropagation into another
    /// network). The two transposed gradient products dominate the train
    /// routine (Table IV).
    ///
    /// # Panics
    /// Panics if the cache depth does not match the network.
    #[allow(clippy::too_many_arguments)] // the full workspace surface of one backward pass
    pub fn backward_ws(
        &self,
        genome: &[f32],
        x: &Matrix,
        cache: &LayerCache,
        d_out: &Matrix,
        grads: &mut Grads,
        scratch: &mut DeltaScratch,
        mut dx: Option<&mut Matrix>,
        pool: &Pool,
    ) {
        assert_eq!(genome.len(), self.param_count, "genome length");
        assert_eq!(cache.outs.len(), self.specs.len(), "cache does not match network depth");
        let outs = &cache.outs;
        grads.flat.resize(self.param_count, 0.0);
        scratch.cur.copy_from(d_out);
        for i in (0..self.specs.len()).rev() {
            self.specs[i].act.scale_by_derivative(&outs[i], &mut scratch.cur);
            let input = if i == 0 { x } else { &outs[i - 1] };
            let (w_off, b_off) = self.offsets[i];
            let spec = self.specs[i];
            let wlen = spec.fan_in * spec.fan_out;
            ops::matmul_at_b_slice_into(
                input,
                &scratch.cur,
                &mut grads.flat[w_off..w_off + wlen],
                pool,
            );
            // Bias gradient: column sums of delta.
            {
                let db = &mut grads.flat[b_off..b_off + spec.fan_out];
                db.fill(0.0);
                for r in 0..scratch.cur.rows() {
                    for (g, &d) in db.iter_mut().zip(scratch.cur.row(r)) {
                        *g += d;
                    }
                }
            }
            if i > 0 {
                ops::matmul_a_bt_view_into(
                    &scratch.cur,
                    self.weight(genome, i),
                    spec.fan_in,
                    &mut scratch.next,
                    pool,
                );
                std::mem::swap(&mut scratch.cur, &mut scratch.next);
            } else if let Some(dx) = dx.take() {
                ops::matmul_a_bt_view_into(
                    &scratch.cur,
                    self.weight(genome, 0),
                    spec.fan_in,
                    dx,
                    pool,
                );
            }
        }
    }

    /// Input-gradient-only backward pass of `genome`: computes
    /// `∂L/∂input` without materializing any parameter gradients. This is
    /// what the generator step needs from the (frozen) discriminator —
    /// skipping the weight gradients drops the `xᵀ·δ` product of every
    /// layer. The produced `dx` is bit-identical to the one
    /// [`MlpShape::backward_ws`] writes.
    pub fn backward_input_ws(
        &self,
        genome: &[f32],
        cache: &LayerCache,
        d_out: &Matrix,
        scratch: &mut DeltaScratch,
        dx: &mut Matrix,
        pool: &Pool,
    ) {
        assert_eq!(genome.len(), self.param_count, "genome length");
        assert_eq!(cache.outs.len(), self.specs.len(), "cache does not match network depth");
        scratch.cur.copy_from(d_out);
        for i in (0..self.specs.len()).rev() {
            self.specs[i].act.scale_by_derivative(&cache.outs[i], &mut scratch.cur);
            let fan_in = self.specs[i].fan_in;
            let dst = if i > 0 { &mut scratch.next } else { &mut *dx };
            ops::matmul_a_bt_view_into(&scratch.cur, self.weight(genome, i), fan_in, dst, pool);
            if i > 0 {
                std::mem::swap(&mut scratch.cur, &mut scratch.next);
            }
        }
    }
}

impl Mlp {
    /// Build a network from layer specs with Glorot-uniform weights
    /// ([`MlpShape::glorot_genome`]).
    ///
    /// # Panics
    /// Panics if consecutive specs do not chain (`fan_out != next fan_in`).
    pub fn new(specs: Vec<LayerSpec>, rng: &mut Rng64) -> Self {
        Self::init(MlpShape::new(specs), rng)
    }

    /// A network of `shape` with a fresh Glorot-uniform genome.
    pub fn init(shape: MlpShape, rng: &mut Rng64) -> Self {
        let params = shape.glorot_genome(rng);
        Self { shape, params }
    }

    /// Build from a width list (see [`MlpShape::from_dims`]) with
    /// Glorot-uniform weights.
    pub fn from_dims(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut Rng64,
    ) -> Self {
        Self::init(MlpShape::from_dims(dims, hidden, output), rng)
    }

    /// The network's shape.
    pub fn shape(&self) -> &MlpShape {
        &self.shape
    }

    /// Total number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// [`MlpShape::forward_into`] on this network's genome.
    pub fn forward_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut Matrix,
        pool: &Pool,
    ) {
        self.shape.forward_into(&self.params, x, out, scratch, pool);
    }

    /// [`MlpShape::forward_cached_ws`] on this network's genome.
    pub fn forward_cached_ws(&self, x: &Matrix, cache: &mut LayerCache, pool: &Pool) {
        self.shape.forward_cached_ws(&self.params, x, cache, pool);
    }

    /// [`MlpShape::backward_ws`] on this network's genome.
    #[allow(clippy::too_many_arguments)] // the full workspace surface of one backward pass
    pub fn backward_ws(
        &self,
        x: &Matrix,
        cache: &LayerCache,
        d_out: &Matrix,
        grads: &mut Grads,
        scratch: &mut DeltaScratch,
        dx: Option<&mut Matrix>,
        pool: &Pool,
    ) {
        self.shape.backward_ws(&self.params, x, cache, d_out, grads, scratch, dx, pool);
    }

    /// [`MlpShape::backward_input_ws`] on this network's genome.
    pub fn backward_input_ws(
        &self,
        cache: &LayerCache,
        d_out: &Matrix,
        scratch: &mut DeltaScratch,
        dx: &mut Matrix,
        pool: &Pool,
    ) {
        self.shape.backward_input_ws(&self.params, cache, d_out, scratch, dx, pool);
    }

    /// The flat parameter vector in genome order — **zero-copy**.
    pub fn genome(&self) -> &[f32] {
        &self.params
    }

    /// Mutable flat parameter vector (the optimizer's update surface).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// The shape together with the mutable genome — what a slice-based
    /// training step takes.
    pub fn parts_mut(&mut self) -> (&MlpShape, &mut [f32]) {
        (&self.shape, &mut self.params)
    }

    /// Overwrite all parameters from a flat genome vector (one
    /// `copy_from_slice`).
    ///
    /// # Panics
    /// Panics if `genome.len() != self.param_count()`.
    pub fn load_genome(&mut self, genome: &[f32]) {
        assert_eq!(genome.len(), self.param_count(), "genome length");
        self.params.copy_from_slice(genome);
    }

    /// True when every parameter is finite.
    pub fn all_finite(&self) -> bool {
        self.params.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{backward, cached_forward, forward};
    use lipiz_tensor::reduce;

    fn tiny_net(seed: u64) -> Mlp {
        let mut rng = Rng64::seed_from(seed);
        Mlp::from_dims(&[3, 5, 2], Activation::Tanh, Activation::Identity, &mut rng)
    }

    /// Cached forward + full backward through fresh buffers:
    /// `(output, grads, dx)`.
    fn forward_backward(
        net: &Mlp,
        x: &Matrix,
        d_out: impl Fn(&Matrix) -> Matrix,
        pool: &Pool,
    ) -> (Matrix, Grads, Matrix) {
        let cache = cached_forward(net, x, pool);
        let (grads, dx) = backward(net, x, &cache, &d_out(cache.output()), pool);
        (cache.output().clone(), grads, dx)
    }

    #[test]
    fn shapes_and_param_count() {
        let net = tiny_net(1);
        assert_eq!(net.shape().input_dim(), 3);
        assert_eq!(net.shape().output_dim(), 2);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(net.shape().num_layers(), 2);
    }

    #[test]
    fn layer_views_partition_the_genome() {
        let net = tiny_net(1);
        // weight(0) ∥ bias(0) ∥ weight(1) ∥ bias(1) must tile the genome.
        let mut rebuilt: Vec<f32> = Vec::new();
        for i in 0..net.shape().num_layers() {
            rebuilt.extend_from_slice(net.shape().weight(net.genome(), i));
            rebuilt.extend_from_slice(net.shape().bias(net.genome(), i));
        }
        assert_eq!(rebuilt, net.genome());
        assert_eq!(net.shape().layer_offsets(), &[(0, 15), (20, 30)]);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_specs_panic() {
        let mut rng = Rng64::seed_from(1);
        Mlp::new(
            vec![
                LayerSpec { fan_in: 3, fan_out: 4, act: Activation::Tanh },
                LayerSpec { fan_in: 5, fan_out: 2, act: Activation::Identity },
            ],
            &mut rng,
        );
    }

    #[test]
    fn forward_matches_cached_output() {
        let net = tiny_net(2);
        let mut rng = Rng64::seed_from(3);
        let x = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let y = forward(&net, &x, &Pool::serial());
        let mut cache = LayerCache::default();
        net.forward_cached_ws(&x, &mut cache, &Pool::serial());
        assert!(y.max_abs_diff(cache.output()) < 1e-7);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(cache.layer(0).shape(), (4, 5));
        assert_eq!(cache.layer(1).as_slice(), cache.output().as_slice());
    }

    #[test]
    fn recycled_workspace_matches_fresh_buffers() {
        // forward_cached_ws / backward_ws / backward_input_ws over recycled
        // (dirty) buffers must be bit-identical to the same passes over
        // fresh ones, round after round.
        let mut rng = Rng64::seed_from(13);
        let net = Mlp::from_dims(&[6, 9, 4], Activation::Tanh, Activation::Tanh, &mut rng);
        let pool = Pool::serial();
        let mut cache = LayerCache::default();
        let mut scratch = DeltaScratch::default();
        let mut grads = Grads::default();
        let mut dx = Matrix::default();
        for round in 0..3 {
            let x = rng.uniform_matrix(5, 6, -1.0, 1.0);
            let (fresh_out, fresh_grads, fresh_dx) =
                forward_backward(&net, &x, Matrix::clone, &pool);
            let d_out = fresh_out.clone();

            net.forward_cached_ws(&x, &mut cache, &pool);
            assert_eq!(cache.output().as_slice(), fresh_out.as_slice(), "{round}");
            net.backward_ws(&x, &cache, &d_out, &mut grads, &mut scratch, Some(&mut dx), &pool);
            assert_eq!(grads.as_slice(), fresh_grads.as_slice(), "round {round} grads");
            assert_eq!(dx.as_slice(), fresh_dx.as_slice(), "round {round} dx");

            // Input-only backward must reproduce the same dx.
            let mut dx2 = Matrix::default();
            net.backward_input_ws(&cache, &d_out, &mut scratch, &mut dx2, &pool);
            assert_eq!(dx2.as_slice(), fresh_dx.as_slice(), "round {round} dx-only");
        }
    }

    #[test]
    fn forward_into_lands_in_out_for_any_depth() {
        let mut rng = Rng64::seed_from(14);
        for dims in [vec![4, 3], vec![4, 5, 3], vec![4, 6, 5, 3], vec![4, 2, 6, 5, 3]] {
            let net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Identity, &mut rng);
            let x = rng.uniform_matrix(3, 4, -1.0, 1.0);
            let mut cache = LayerCache::default();
            net.forward_cached_ws(&x, &mut cache, &Pool::serial());
            let out = forward(&net, &x, &Pool::serial());
            assert_eq!(out.as_slice(), cache.output().as_slice(), "depth {}", dims.len() - 1);
        }
    }

    #[test]
    fn genome_round_trip() {
        let net = tiny_net(4);
        let g = net.genome().to_vec();
        assert_eq!(g.len(), net.param_count());
        let mut other = tiny_net(99);
        assert_ne!(other.genome(), g.as_slice());
        other.load_genome(&g);
        assert_eq!(other.genome(), g.as_slice());
        // Identical genomes => identical outputs.
        let mut rng = Rng64::seed_from(5);
        let x = rng.uniform_matrix(2, 3, -1.0, 1.0);
        let pool = Pool::serial();
        assert!(forward(&net, &x, &pool).max_abs_diff(&forward(&other, &x, &pool)) < 1e-7);
    }

    /// Finite-difference check of the full backward pass: the analytic
    /// gradient of `L = sum(output²)/2` must match numeric perturbation of
    /// every parameter.
    #[test]
    fn backward_matches_finite_differences() {
        let net = tiny_net(7);
        let mut rng = Rng64::seed_from(8);
        let x = rng.uniform_matrix(3, 3, -1.0, 1.0);

        // dL/dout = out for L = 0.5*sum(out^2)
        let (_, grads, dx) = forward_backward(&net, &x, Matrix::clone, &Pool::serial());

        let loss = |net: &Mlp| -> f64 {
            let y = forward(net, &x, &Pool::serial());
            y.as_slice().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };

        let eps = 1e-3f32;
        let n = net.param_count();
        // Check a deterministic subset of parameters plus all biases.
        for idx in (0..n).step_by(7) {
            let mut plus = net.clone();
            let mut minus = net.clone();
            plus.params_mut()[idx] += eps;
            minus.params_mut()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps as f64);
            let analytic = grads.as_slice()[idx] as f64;
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "param {idx}: numeric {numeric:.6} vs analytic {analytic:.6}"
            );
        }
        // The returned dx must also match perturbing the input.
        let mut x2 = x.clone();
        x2[(1, 2)] += eps;
        let y2 = forward(&net, &x2, &Pool::serial());
        let l2: f64 = y2.as_slice().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum();
        let numeric = (l2 - loss(&net)) / eps as f64;
        assert!((numeric - dx[(1, 2)] as f64).abs() < 5e-3);
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut a = Grads::zeros(3);
        a.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut b = Grads::zeros(3);
        b.as_mut_slice().copy_from_slice(&[0.5, 0.5, 0.5]);
        a.accumulate(&b);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
        assert!((Grads::zeros(2).norm() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn deep_network_gradient_flows() {
        let mut rng = Rng64::seed_from(20);
        let net =
            Mlp::from_dims(&[4, 8, 8, 8, 2], Activation::Tanh, Activation::Tanh, &mut rng);
        let x = rng.uniform_matrix(5, 4, -1.0, 1.0);
        let (_, grads, dx) =
            forward_backward(&net, &x, |_| Matrix::full(5, 2, 1.0), &Pool::serial());
        assert!(grads.norm() > 0.0, "gradient vanished entirely");
        assert_eq!(dx.shape(), (5, 4));
        assert!(reduce::norm2(dx.as_slice()) > 0.0);
    }
}
