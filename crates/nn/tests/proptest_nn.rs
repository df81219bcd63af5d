//! Property tests for networks and losses.

use lipiz_nn::adam::step_slice_scalar;
use lipiz_nn::{
    gan, loss, Activation, Adam, DeltaScratch, Discriminator, GanLoss, Generator, Grads,
    LayerCache, Mlp, NetworkConfig, TrainWorkspace,
};
use lipiz_tensor::{Matrix, Pool, Rng64};
use proptest::prelude::*;

/// Inference forward pass through fresh buffers.
fn forward(net: &Mlp, x: &Matrix, pool: &Pool) -> Matrix {
    let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
    net.forward_into(x, &mut out, &mut scratch, pool);
    out
}

fn g_loss(kind: GanLoss, logits: &Matrix) -> (f32, Matrix) {
    let mut d = Matrix::default();
    let l = loss::g_loss_into(kind, logits, &mut d);
    (l, d)
}

fn d_bce_loss(z_real: &Matrix, z_fake: &Matrix) -> (f32, Matrix, Matrix) {
    let (mut d_real, mut d_fake) = (Matrix::default(), Matrix::default());
    let l = loss::d_bce_loss_into(z_real, z_fake, &mut d_real, &mut d_fake);
    (l, d_real, d_fake)
}

fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..10, 2..5)
}

/// Arbitrary small-but-real GAN topologies.
fn net_cfg_strategy() -> impl Strategy<Value = NetworkConfig> {
    (1usize..10, 1usize..3, 2usize..18, 1usize..20).prop_map(
        |(latent, layers, hidden, data)| NetworkConfig {
            latent_dim: latent,
            hidden_layers: layers,
            hidden_units: hidden,
            data_dim: data,
            activation: Activation::Tanh,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn param_count_matches_genome_len(dims in dims_strategy(), seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Identity, &mut rng);
        prop_assert_eq!(net.genome().len(), net.param_count());
    }

    #[test]
    fn forward_output_shape(dims in dims_strategy(), batch in 1usize..8, seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Tanh, &mut rng);
        let x = rng.uniform_matrix(batch, dims[0], -1.0, 1.0);
        let y = forward(&net, &x, &Pool::serial());
        prop_assert_eq!(y.shape(), (batch, *dims.last().unwrap()));
        prop_assert!(y.all_finite());
        // Tanh output bounds.
        prop_assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn backward_gradients_are_finite(dims in dims_strategy(), seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Identity, &mut rng);
        let x = rng.uniform_matrix(3, dims[0], -1.0, 1.0);
        let pool = Pool::serial();
        let mut cache = LayerCache::default();
        net.forward_cached_ws(&x, &mut cache, &pool);
        let d_out = rng.uniform_matrix(3, *dims.last().unwrap(), -1.0, 1.0);
        let (mut grads, mut dx) = (Grads::default(), Matrix::default());
        let mut scratch = DeltaScratch::default();
        net.backward_ws(&x, &cache, &d_out, &mut grads, &mut scratch, Some(&mut dx), &pool);
        prop_assert_eq!(grads.as_slice().len(), net.param_count());
        prop_assert_eq!(dx.shape(), x.shape());
        prop_assert!(grads.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(dx.all_finite());
    }

    #[test]
    fn loss_values_and_grads_are_finite_for_extreme_logits(
        z in proptest::collection::vec(-60.0f32..60.0, 1..8)
    ) {
        let logits = Matrix::from_vec(z.len(), 1, z).unwrap();
        for kind in GanLoss::ALL {
            let (l, g) = g_loss(kind, &logits);
            prop_assert!(l.is_finite(), "{kind:?} loss not finite");
            prop_assert!(g.all_finite(), "{kind:?} grad not finite");
        }
        let (l, gr, gf) = d_bce_loss(&logits, &logits);
        prop_assert!(l.is_finite());
        prop_assert!(gr.all_finite() && gf.all_finite());
    }

    #[test]
    fn d_loss_is_nonnegative(z in proptest::collection::vec(-20.0f32..20.0, 1..8)) {
        let logits = Matrix::from_vec(z.len(), 1, z).unwrap();
        let (l, _, _) = d_bce_loss(&logits, &logits);
        prop_assert!(l >= 0.0, "BCE must be non-negative: {l}");
    }

    #[test]
    fn generator_prefers_being_believed(
        fooled_logit in 0.5f32..20.0,
        caught_logit in -20.0f32..-0.5
    ) {
        // For every loss variant, the loss with D fooled must be lower.
        let fooled = Matrix::full(4, 1, fooled_logit);
        let caught = Matrix::full(4, 1, caught_logit);
        for kind in GanLoss::ALL {
            let (lf, _) = g_loss(kind, &fooled);
            let (lc, _) = g_loss(kind, &caught);
            prop_assert!(lf < lc, "{kind:?}: fooled {lf} !< caught {lc}");
        }
    }

    /// Full GAN training steps through one *recycled* workspace are
    /// bit-identical to the same steps through a fresh
    /// `TrainWorkspace::default()` each, for arbitrary topologies, batch
    /// sizes and seeds — after several steps, so buffer reuse
    /// across steps is covered, and with one shared (dirty) workspace
    /// serving both networks.
    #[test]
    fn reused_workspace_train_steps_are_bit_identical_to_fresh_workspace_steps(
        cfg in net_cfg_strategy(),
        batch in 1usize..9,
        seed in 0u64..1000,
    ) {
        let pool = Pool::serial();
        let mut rng = Rng64::seed_from(seed);
        let mut g_fresh = Generator::new(&cfg, &mut rng);
        let mut d_fresh = Discriminator::new(&cfg, &mut rng);
        let mut g_ws = g_fresh.clone();
        let mut d_ws = d_fresh.clone();
        let mut adam_g_fresh = Adam::new(g_fresh.net.param_count());
        let mut adam_d_fresh = Adam::new(d_fresh.net.param_count());
        let mut adam_g_ws = adam_g_fresh.clone();
        let mut adam_d_ws = adam_d_fresh.clone();
        let mut ws = TrainWorkspace::default();

        for step in 0..3 {
            let z = gan::latent_batch(&mut rng, batch, cfg.latent_dim);
            let real = rng.uniform_matrix(batch, cfg.data_dim, -0.9, 0.9);
            let fake = rng.uniform_matrix(batch, cfg.data_dim, -0.9, 0.9);
            let kind = GanLoss::ALL[step % GanLoss::ALL.len()];

            let lg_fresh = gan::train_generator_step_ws(
                &mut g_fresh, &d_fresh, &mut adam_g_fresh, &z, 1e-3, kind,
                &mut TrainWorkspace::default(), &pool);
            let lg_ws = gan::train_generator_step_ws(
                &mut g_ws, &d_ws, &mut adam_g_ws, &z, 1e-3, kind, &mut ws, &pool);
            prop_assert_eq!(lg_fresh.to_bits(), lg_ws.to_bits(), "G loss, step {}", step);
            prop_assert_eq!(g_fresh.net.genome(), g_ws.net.genome(), "G genome, step {}", step);

            let ld_fresh = gan::train_discriminator_step_ws(
                &mut d_fresh, &mut adam_d_fresh, &real, &fake, 1e-3,
                &mut TrainWorkspace::default(), &pool);
            let ld_ws = gan::train_discriminator_step_ws(
                &mut d_ws, &mut adam_d_ws, &real, &fake, 1e-3, &mut ws, &pool);
            prop_assert_eq!(ld_fresh.to_bits(), ld_ws.to_bits(), "D loss, step {}", step);
            prop_assert_eq!(d_fresh.net.genome(), d_ws.net.genome(), "D genome, step {}", step);
        }
    }

    /// The runtime-dispatched Adam kernel (AVX2 where the host has it) must
    /// update parameters and moments bit-identically to the portable scalar
    /// loop, for arbitrary widths (incl. non-multiple-of-8 tails), betas,
    /// gradients and step counts.
    #[test]
    fn vectorized_adam_matches_scalar_bitwise(
        n in 1usize..70,
        seed in 0u64..1000,
        beta1 in 0.5f32..0.99,
        beta2 in 0.9f32..0.9999,
        steps in 1usize..5,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let mut p_vec: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut p_scalar = p_vec.clone();
        let mut adam_vec = Adam::with_betas(n, beta1, beta2);
        let mut adam_scalar = adam_vec.clone();
        for _ in 0..steps {
            let g: Vec<f32> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            adam_vec.step_slice(&mut p_vec, &g, 3e-3);
            step_slice_scalar(&mut adam_scalar, &mut p_scalar, &g, 3e-3);
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&p_vec), bits(&p_scalar), "params drift");
            prop_assert_eq!(adam_vec.state(), adam_scalar.state(), "moment drift");
        }
    }

    /// Fused bias+activation epilogues must be bit-identical to the unfused
    /// pipeline through the full network forward (tanh hidden layers, an
    /// identity output, odd shapes).
    #[test]
    fn fused_forward_matches_unfused_pipeline(
        dims in dims_strategy(),
        batch in 1usize..8,
        seed in 0u64..1000,
    ) {
        use lipiz_tensor::ops;
        let mut rng = Rng64::seed_from(seed);
        let net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Identity, &mut rng);
        let x = rng.uniform_matrix(batch, dims[0], -1.0, 1.0);
        // Unfused reference: explicit matmul → bias → activation per layer.
        let mut a = x.clone();
        let shape = net.shape();
        for (i, spec) in shape.specs().iter().enumerate() {
            let w = shape.weight(net.genome(), i).to_vec();
            let w = Matrix::from_vec(spec.fan_in, spec.fan_out, w).unwrap();
            let mut next = ops::matmul(&a, &w);
            ops::add_row_vector(&mut next, shape.bias(net.genome(), i));
            next.map_inplace(|v| spec.act.apply(v));
            a = next;
        }
        let fused = forward(&net, &x, &Pool::serial());
        prop_assert_eq!(fused.as_slice(), a.as_slice());
    }

    /// One forward over k stacked row blocks is k per-block forwards, bit
    /// for bit: every output element is one accumulator over the same
    /// products whichever tile (full, AVX2 or edge) computes it, so the
    /// update phase may score a whole generation in one pass. Widths reach
    /// past one 16-column tile; heights cover every 4-row remainder.
    #[test]
    fn stacked_forward_equals_per_block_forwards_bitwise(
        dims in proptest::collection::vec(1usize..40, 2..5),
        blocks in 1usize..=7,
        height in 1usize..=13,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Identity, &mut rng);
        let x = rng.uniform_matrix(blocks * height, dims[0], -1.0, 1.0);
        let pool = Pool::serial();
        let stacked = forward(&net, &x, &pool);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for b in 0..blocks {
            let rows = (b * height, (b + 1) * height);
            let alone = forward(&net, &x.slice_rows(rows.0, rows.1), &pool);
            prop_assert_eq!(bits(&stacked.slice_rows(rows.0, rows.1)), bits(&alone), "block {}", b);
        }
    }

    #[test]
    fn genome_load_is_idempotent(dims in dims_strategy(), seed in 0u64..1000) {
        let mut rng = Rng64::seed_from(seed);
        let mut net = Mlp::from_dims(&dims, Activation::Tanh, Activation::Identity, &mut rng);
        let g = net.genome().to_vec();
        net.load_genome(&g);
        net.load_genome(&g);
        prop_assert_eq!(net.genome(), g.as_slice());
    }
}
