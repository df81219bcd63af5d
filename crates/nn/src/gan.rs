//! Generator/discriminator networks and single training steps.
//!
//! The network topology mirrors Table I of the paper: MLP, 64 input
//! (latent) neurons, two hidden layers of 256 units, 784 outputs, tanh
//! activation. The discriminator mirrors it (784 → 256 → 256 → 1) and emits
//! *logits* so all losses can be computed in the stable softplus form.

use crate::activation::Activation;
use crate::adam::Adam;
use crate::loss::{self, GanLoss};
use crate::mlp::{DeltaScratch, Grads, LayerCache, Mlp, MlpShape};
use lipiz_tensor::{Matrix, Pool, Rng64};

/// Reusable scratch memory for the GAN training steps.
///
/// One workspace serves generator *and* discriminator steps of any shape
/// (every buffer resizes in place), so a rank owns exactly one and lends it
/// to each of its cells in turn.
/// After the first step at a given shape, a training step performs **zero
/// heap allocations** — asserted by the workspace's counting-allocator
/// integration test. A recycled workspace never changes a result: a step
/// over a dirty workspace is bit-identical to the same step over a fresh
/// one (property-tested).
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// Forward cache of the first network in the step (G in a generator
    /// step; D-over-real in a discriminator step).
    cache_a: LayerCache,
    /// Forward cache of the second pass (D-over-fakes in both steps).
    cache_b: LayerCache,
    /// Loss gradient wrt real-batch logits.
    d_real: Matrix,
    /// Loss gradient wrt fake-batch logits.
    d_fake: Matrix,
    /// Backward-pass delta ping-pong buffers.
    scratch: DeltaScratch,
    /// Gradient accumulator for the updated network.
    grads: Grads,
    /// Second gradient buffer (the fake-batch half of a D step).
    grads_aux: Grads,
    /// `∂L/∂images` flowing out of the discriminator in a generator step.
    dx: Matrix,
}

/// Topology description for one generator/discriminator pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Latent (input) dimension of the generator. Table I: 64.
    pub latent_dim: usize,
    /// Number of hidden layers in both networks. Table I: 2.
    pub hidden_layers: usize,
    /// Units per hidden layer. Table I: 256.
    pub hidden_units: usize,
    /// Data dimension (28×28 = 784 for MNIST-like images).
    pub data_dim: usize,
    /// Hidden activation. Table I: tanh.
    pub activation: Activation,
}

impl NetworkConfig {
    /// The exact Table I configuration used for MNIST.
    pub fn paper_mnist() -> Self {
        Self {
            latent_dim: 64,
            hidden_layers: 2,
            hidden_units: 256,
            data_dim: 784,
            activation: Activation::Tanh,
        }
    }

    /// A small configuration for fast unit/integration tests.
    pub fn tiny(data_dim: usize) -> Self {
        Self {
            latent_dim: 8,
            hidden_layers: 1,
            hidden_units: 16,
            data_dim,
            activation: Activation::Tanh,
        }
    }

    /// Width list of the generator network.
    pub fn generator_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden_layers + 2);
        dims.push(self.latent_dim);
        dims.extend(std::iter::repeat_n(self.hidden_units, self.hidden_layers));
        dims.push(self.data_dim);
        dims
    }

    /// Width list of the discriminator network.
    pub fn discriminator_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden_layers + 2);
        dims.push(self.data_dim);
        dims.extend(std::iter::repeat_n(self.hidden_units, self.hidden_layers));
        dims.push(1);
        dims
    }

    /// Shape of the generator network: tanh output in `[-1, 1]`.
    pub fn generator_shape(&self) -> MlpShape {
        MlpShape::from_dims(&self.generator_dims(), self.activation, Activation::Tanh)
    }

    /// Shape of the discriminator network: one identity (logit) output.
    pub fn discriminator_shape(&self) -> MlpShape {
        MlpShape::from_dims(&self.discriminator_dims(), self.activation, Activation::Identity)
    }
}

/// A generator network: maps latent batches to data-space batches in
/// `[-1, 1]` (tanh output).
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    /// The underlying network.
    pub net: Mlp,
    latent_dim: usize,
}

impl Generator {
    /// Fresh generator for `cfg` with Glorot-initialized weights.
    pub fn new(cfg: &NetworkConfig, rng: &mut Rng64) -> Self {
        Self { net: Mlp::init(cfg.generator_shape(), rng), latent_dim: cfg.latent_dim }
    }

    /// Latent input dimension.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Generate images from a latent batch into recycled buffers: the
    /// images land in `out`, `scratch` holds intermediate activations. Zero
    /// allocations once warmed up.
    pub fn generate_into(
        &self,
        z: &Matrix,
        out: &mut Matrix,
        scratch: &mut Matrix,
        pool: &Pool,
    ) {
        self.net.forward_into(z, out, scratch, pool);
    }

    /// Draw `n` latent vectors and generate images — the one allocating
    /// convenience, for examples and the CLI.
    pub fn sample(&self, n: usize, rng: &mut Rng64) -> Matrix {
        let z = latent_batch(rng, n, self.latent_dim);
        let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
        self.generate_into(&z, &mut out, &mut scratch, &Pool::serial());
        out
    }
}

/// A discriminator network: maps data-space batches to real/fake *logits*.
#[derive(Debug, Clone, PartialEq)]
pub struct Discriminator {
    /// The underlying network.
    pub net: Mlp,
}

impl Discriminator {
    /// Fresh discriminator for `cfg` with Glorot-initialized weights.
    pub fn new(cfg: &NetworkConfig, rng: &mut Rng64) -> Self {
        Self { net: Mlp::init(cfg.discriminator_shape(), rng) }
    }

    /// Real/fake logits `(batch, 1)` for a data batch, into recycled
    /// buffers (zero allocations once warmed up).
    pub fn logits_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut Matrix, pool: &Pool) {
        self.net.forward_into(x, out, scratch, pool);
    }
}

/// Sample a standard-normal latent batch `(n, dim)`.
pub fn latent_batch(rng: &mut Rng64, n: usize, dim: usize) -> Matrix {
    rng.normal_matrix(n, dim, 0.0, 1.0)
}

/// [`latent_batch`] into a recycled buffer — identical draws, zero
/// allocations once `out` has warmed up.
pub fn latent_batch_into(rng: &mut Rng64, n: usize, dim: usize, out: &mut Matrix) {
    rng.fill_normal(out, n, dim, 0.0, 1.0);
}

/// One discriminator Adam step against a batch of real samples and a batch
/// of fake samples, over a recycled [`TrainWorkspace`] (zero allocations in
/// steady state). Returns the BCE loss before the update.
pub fn train_discriminator_step_ws(
    d: &mut Discriminator,
    adam: &mut Adam,
    real: &Matrix,
    fake: &Matrix,
    lr: f32,
    ws: &mut TrainWorkspace,
    pool: &Pool,
) -> f32 {
    let (shape, genome) = d.net.parts_mut();
    train_discriminator_step(shape, genome, adam, real, fake, lr, ws, pool)
}

/// [`train_discriminator_step_ws`] on a genome slice: trains the
/// discriminator genome `genome` of shape `shape` in place — a
/// sub-population member in the slot it lives in.
#[allow(clippy::too_many_arguments)] // the full surface of one step: net, optimizer, batches, workspace
pub fn train_discriminator_step(
    shape: &MlpShape,
    genome: &mut [f32],
    adam: &mut Adam,
    real: &Matrix,
    fake: &Matrix,
    lr: f32,
    ws: &mut TrainWorkspace,
    pool: &Pool,
) -> f32 {
    shape.forward_cached_ws(genome, real, &mut ws.cache_a, pool);
    shape.forward_cached_ws(genome, fake, &mut ws.cache_b, pool);
    let loss_val = loss::d_bce_loss_into(
        ws.cache_a.output(),
        ws.cache_b.output(),
        &mut ws.d_real,
        &mut ws.d_fake,
    );
    shape.backward_ws(
        genome,
        real,
        &ws.cache_a,
        &ws.d_real,
        &mut ws.grads,
        &mut ws.scratch,
        None,
        pool,
    );
    shape.backward_ws(
        genome,
        fake,
        &ws.cache_b,
        &ws.d_fake,
        &mut ws.grads_aux,
        &mut ws.scratch,
        None,
        pool,
    );
    ws.grads.accumulate(&ws.grads_aux);
    adam.step_slice(genome, ws.grads.as_slice(), lr);
    loss_val
}

/// One generator Adam step against a (frozen) discriminator for the latent
/// batch `z`, under the given loss variant, over a recycled
/// [`TrainWorkspace`] (zero allocations in steady state). Returns the
/// generator loss before the update.
#[allow(clippy::too_many_arguments)] // the full surface of one step: two nets, optimizer, batch, workspace
pub fn train_generator_step_ws(
    g: &mut Generator,
    d: &Discriminator,
    adam: &mut Adam,
    z: &Matrix,
    lr: f32,
    kind: GanLoss,
    ws: &mut TrainWorkspace,
    pool: &Pool,
) -> f32 {
    let (shape, genome) = g.net.parts_mut();
    train_generator_step(
        shape,
        genome,
        d.net.shape(),
        d.net.genome(),
        adam,
        z,
        lr,
        kind,
        ws,
        pool,
    )
}

/// [`train_generator_step_ws`] on genome slices: trains the generator
/// genome `g_genome` in place against the discriminator genome
/// `d_genome`. Backprop through the frozen discriminator uses the
/// input-gradient-only pass — its weight gradients would be discarded, so
/// skipping the `xᵀ·δ` product of every D layer changes nothing observable
/// and removes ~a third of the step's flops.
#[allow(clippy::too_many_arguments)] // the full surface of one step: two nets, optimizer, batch, workspace
pub fn train_generator_step(
    g_shape: &MlpShape,
    g_genome: &mut [f32],
    d_shape: &MlpShape,
    d_genome: &[f32],
    adam: &mut Adam,
    z: &Matrix,
    lr: f32,
    kind: GanLoss,
    ws: &mut TrainWorkspace,
    pool: &Pool,
) -> f32 {
    g_shape.forward_cached_ws(g_genome, z, &mut ws.cache_a, pool);
    d_shape.forward_cached_ws(d_genome, ws.cache_a.output(), &mut ws.cache_b, pool);
    let loss_val = loss::g_loss_into(kind, ws.cache_b.output(), &mut ws.d_fake);
    // Backprop through the discriminator to images, then through G.
    d_shape.backward_input_ws(
        d_genome,
        &ws.cache_b,
        &ws.d_fake,
        &mut ws.scratch,
        &mut ws.dx,
        pool,
    );
    g_shape.backward_ws(
        g_genome,
        z,
        &ws.cache_a,
        &ws.dx,
        &mut ws.grads,
        &mut ws.scratch,
        None,
        pool,
    );
    adam.step_slice(g_genome, ws.grads.as_slice(), lr);
    loss_val
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits(d: &Discriminator, x: &Matrix) -> Matrix {
        let (mut out, mut scratch) = (Matrix::default(), Matrix::default());
        d.logits_into(x, &mut out, &mut scratch, &Pool::serial());
        out
    }

    /// Discriminator BCE loss on given batches without updating anything.
    fn discriminator_loss(d: &Discriminator, real: &Matrix, fake: &Matrix) -> f32 {
        loss::d_bce_loss_value(logits(d, real).as_slice(), logits(d, fake).as_slice())
    }

    /// Generator loss against a discriminator without updating anything.
    fn generator_loss(g: &Generator, d: &Discriminator, z: &Matrix, kind: GanLoss) -> f32 {
        let (mut fake, mut scratch) = (Matrix::default(), Matrix::default());
        g.generate_into(z, &mut fake, &mut scratch, &Pool::serial());
        loss::g_loss_value(kind, logits(d, &fake).as_slice())
    }

    #[test]
    fn paper_config_matches_table1() {
        let cfg = NetworkConfig::paper_mnist();
        assert_eq!(cfg.generator_dims(), vec![64, 256, 256, 784]);
        assert_eq!(cfg.discriminator_dims(), vec![784, 256, 256, 1]);
        assert_eq!(cfg.activation, Activation::Tanh);
    }

    #[test]
    fn generator_outputs_are_bounded() {
        let mut rng = Rng64::seed_from(1);
        let cfg = NetworkConfig::tiny(16);
        let g = Generator::new(&cfg, &mut rng);
        let x = g.sample(10, &mut rng);
        assert_eq!(x.shape(), (10, 16));
        assert!(x.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn discriminator_logit_shape() {
        let mut rng = Rng64::seed_from(2);
        let cfg = NetworkConfig::tiny(16);
        let d = Discriminator::new(&cfg, &mut rng);
        let x = rng.uniform_matrix(7, 16, -1.0, 1.0);
        assert_eq!(logits(&d, &x).shape(), (7, 1));
    }

    /// The discriminator must learn to separate two trivially separable
    /// distributions within a few hundred steps.
    #[test]
    fn discriminator_learns_separable_data() {
        let mut rng = Rng64::seed_from(3);
        let cfg = NetworkConfig::tiny(8);
        let mut d = Discriminator::new(&cfg, &mut rng);
        let mut adam = Adam::new(d.net.param_count());
        let real = Matrix::full(32, 8, 0.8);
        let fake = Matrix::full(32, 8, -0.8);
        let (mut ws, pool) = (TrainWorkspace::default(), Pool::serial());
        let initial = discriminator_loss(&d, &real, &fake);
        for _ in 0..200 {
            train_discriminator_step_ws(&mut d, &mut adam, &real, &fake, 1e-2, &mut ws, &pool);
        }
        let trained = discriminator_loss(&d, &real, &fake);
        assert!(trained < initial * 0.2, "D failed to learn: {initial} -> {trained}");
    }

    /// The generator must learn to fool a frozen discriminator.
    #[test]
    fn generator_learns_to_fool_frozen_discriminator() {
        let mut rng = Rng64::seed_from(4);
        let cfg = NetworkConfig::tiny(8);
        let mut d = Discriminator::new(&cfg, &mut rng);
        let mut d_adam = Adam::new(d.net.param_count());
        // Teach D that "real" = +0.8 constant vectors.
        let real = Matrix::full(32, 8, 0.8);
        let noise = rng.uniform_matrix(32, 8, -1.0, 1.0);
        let (mut ws, pool) = (TrainWorkspace::default(), Pool::serial());
        for _ in 0..200 {
            train_discriminator_step_ws(
                &mut d,
                &mut d_adam,
                &real,
                &noise,
                1e-2,
                &mut ws,
                &pool,
            );
        }
        // Now train G against frozen D.
        let mut g = Generator::new(&cfg, &mut rng);
        let mut g_adam = Adam::new(g.net.param_count());
        let z = latent_batch(&mut rng, 32, cfg.latent_dim);
        let initial = generator_loss(&g, &d, &z, GanLoss::Heuristic);
        for _ in 0..300 {
            let zb = latent_batch(&mut rng, 32, cfg.latent_dim);
            train_generator_step_ws(
                &mut g,
                &d,
                &mut g_adam,
                &zb,
                1e-2,
                GanLoss::Heuristic,
                &mut ws,
                &pool,
            );
        }
        let trained = generator_loss(&g, &d, &z, GanLoss::Heuristic);
        assert!(trained < initial, "G failed to reduce its loss: {initial} -> {trained}");
        // G's samples should now look like the "real" constant to D: mean
        // output should have moved toward +0.8.
        let samples = g.sample(64, &mut rng);
        let mean = lipiz_tensor::reduce::mean(&samples);
        assert!(mean > 0.2, "generator mean {mean} did not move toward data");
    }

    #[test]
    fn generator_step_leaves_discriminator_unchanged() {
        let mut rng = Rng64::seed_from(5);
        let cfg = NetworkConfig::tiny(8);
        let mut g = Generator::new(&cfg, &mut rng);
        let d = Discriminator::new(&cfg, &mut rng);
        let d_genome_before = d.net.genome().to_vec();
        let mut adam = Adam::new(g.net.param_count());
        let z = latent_batch(&mut rng, 8, cfg.latent_dim);
        train_generator_step_ws(
            &mut g,
            &d,
            &mut adam,
            &z,
            1e-3,
            GanLoss::Heuristic,
            &mut TrainWorkspace::default(),
            &Pool::serial(),
        );
        assert_eq!(d.net.genome(), d_genome_before.as_slice());
    }

    #[test]
    fn latent_batch_is_standard_normalish() {
        let mut rng = Rng64::seed_from(6);
        let z = latent_batch(&mut rng, 2000, 4);
        let mean = lipiz_tensor::reduce::mean(&z);
        assert!(mean.abs() < 0.05, "latent mean {mean}");
    }

    #[test]
    fn gan_pair_has_consistent_dims() {
        let mut rng = Rng64::seed_from(7);
        let cfg = NetworkConfig::paper_mnist();
        let g = Generator::new(&cfg, &mut rng);
        let d = Discriminator::new(&cfg, &mut rng);
        assert_eq!(g.net.shape().output_dim(), d.net.shape().input_dim());
        assert_eq!(g.net.param_count(), 64 * 256 + 256 + 256 * 256 + 256 + 256 * 784 + 784);
    }
}
