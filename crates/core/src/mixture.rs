//! Mixture ensembles and (1+1)-ES mixture-weight evolution.
//!
//! A cell's generative model is not a single network but a *mixture* of the
//! sub-population generators: to sample, pick generator `i` with probability
//! `w_i`. Lipizzaner evolves `w` with a (1+1)-ES using Gaussian mutation
//! (Table I: mixture mutation scale 0.01), accepting a mutant that improves
//! the ensemble's quality score.

use lipiz_nn::NetworkConfig;
use lipiz_tensor::{Matrix, Pool, Rng64};

/// Normalized mixture weights over a sub-population.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureWeights {
    w: Vec<f32>,
}

impl MixtureWeights {
    /// Uniform weights over `n` generators.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "mixture over zero generators");
        Self { w: vec![1.0 / n as f32; n] }
    }

    /// Build from raw weights (clamped non-negative, renormalized).
    pub fn from_raw(raw: &[f32]) -> Self {
        assert!(!raw.is_empty(), "mixture over zero generators");
        let mut w: Vec<f32> = raw.iter().map(|&v| v.max(0.0)).collect();
        let sum: f32 = w.iter().sum();
        if sum <= f32::EPSILON {
            return Self::uniform(raw.len());
        }
        w.iter_mut().for_each(|v| *v /= sum);
        Self { w }
    }

    /// Rebuild from weights that already sum to 1 — the wire-transfer path.
    ///
    /// Unlike [`MixtureWeights::from_raw`] this performs **no**
    /// renormalization: the division would perturb the low bits and break
    /// the byte-identity between a master reassembling gathered slave
    /// ensembles and the slave's own [`EnsembleModel`].
    ///
    /// # Panics
    /// Panics if `w` is empty; debug-asserts the unit sum.
    pub fn from_normalized(w: &[f32]) -> Self {
        assert!(!w.is_empty(), "mixture over zero generators");
        debug_assert!(
            (w.iter().sum::<f32>() - 1.0).abs() < 1e-3,
            "from_normalized requires unit-sum weights"
        );
        Self { w: w.to_vec() }
    }

    /// The weights (sum to 1).
    pub fn weights(&self) -> &[f32] {
        &self.w
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True when empty (never by construction).
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Gaussian-mutated copy: `w'_i = max(0, w_i + N(0, sigma))`,
    /// renormalized (Table I: sigma = 0.01).
    pub fn mutate(&self, sigma: f32, rng: &mut Rng64) -> Self {
        let mut out = Self::uniform(self.w.len());
        self.mutate_into(sigma, rng, &mut out);
        out
    }

    /// [`MixtureWeights::mutate`] into a recycled instance — identical
    /// draws and identical clamp/renormalize arithmetic, zero allocations
    /// once `out` has capacity.
    pub fn mutate_into(&self, sigma: f32, rng: &mut Rng64, out: &mut MixtureWeights) {
        out.w.clear();
        out.w.extend(self.w.iter().map(|&v| (v + rng.normal(0.0, sigma)).max(0.0)));
        let sum: f32 = out.w.iter().sum();
        if sum <= f32::EPSILON {
            let n = out.w.len();
            out.w.iter_mut().for_each(|v| *v = 1.0 / n as f32);
        } else {
            out.w.iter_mut().for_each(|v| *v /= sum);
        }
    }

    /// Draw a component index according to the weights.
    pub fn sample_component(&self, rng: &mut Rng64) -> usize {
        let u = rng.uniform(0.0, 1.0);
        let mut acc = 0.0f32;
        for (i, &w) in self.w.iter().enumerate() {
            acc += w;
            if u < acc {
                return i;
            }
        }
        self.w.len() - 1
    }

    /// One (1+1)-ES step: mutate, score, keep the better (lower score).
    /// Returns `true` if the mutant was accepted.
    pub fn es_step(
        &mut self,
        sigma: f32,
        rng: &mut Rng64,
        score: impl FnMut(&MixtureWeights) -> f64,
    ) -> bool {
        let mut scratch = MixtureWeights::uniform(self.w.len());
        self.es_step_with(sigma, rng, score, &mut scratch)
    }

    /// [`MixtureWeights::es_step`] with a recycled candidate buffer — the
    /// zero-allocation path of the per-iteration mixture evolution. An
    /// accepted mutant is swapped in (no copy, no allocation).
    pub fn es_step_with(
        &mut self,
        sigma: f32,
        rng: &mut Rng64,
        mut score: impl FnMut(&MixtureWeights) -> f64,
        scratch: &mut MixtureWeights,
    ) -> bool {
        self.mutate_into(sigma, rng, scratch);
        let current_score = score(self);
        let mutant_score = score(scratch);
        if mutant_score < current_score {
            std::mem::swap(&mut self.w, &mut scratch.w);
            true
        } else {
            false
        }
    }
}

/// A portable mixture-of-generators model — the artifact a finished
/// training run hands back (§II-B: "the generative model returned is the
/// one defined by the sub-population with the highest quality").
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleModel {
    /// Network topology of every component generator.
    pub network: NetworkConfig,
    /// Component generator genomes.
    pub genomes: Vec<Vec<f32>>,
    /// Mixture weights (aligned with `genomes`).
    pub weights: MixtureWeights,
}

impl EnsembleModel {
    /// Build; validates alignment.
    ///
    /// # Panics
    /// Panics if `genomes.len() != weights.len()` or no components.
    pub fn new(
        network: NetworkConfig,
        genomes: Vec<Vec<f32>>,
        weights: MixtureWeights,
    ) -> Self {
        assert!(!genomes.is_empty(), "ensemble needs at least one generator");
        assert_eq!(genomes.len(), weights.len(), "weights/genomes misaligned");
        Self { network, genomes, weights }
    }

    /// Number of component generators.
    pub fn components(&self) -> usize {
        self.genomes.len()
    }

    /// Sample `n` images from the mixture: for each sample, draw a
    /// component by weight, then a latent vector, then generate — each
    /// component straight from its genome.
    pub fn sample(&self, n: usize, rng: &mut Rng64) -> Matrix {
        let shape = self.network.generator_shape();
        // Group draws by component so each forward pass is batched.
        let mut assignment: Vec<usize> = Vec::with_capacity(n);
        for _ in 0..n {
            assignment.push(self.weights.sample_component(rng));
        }
        let mut out = Matrix::zeros(n, self.network.data_dim);
        let pool = Pool::serial();
        let (mut z, mut images, mut scratch) =
            (Matrix::default(), Matrix::default(), Matrix::default());
        for (c, genome) in self.genomes.iter().enumerate() {
            let rows: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if rows.is_empty() {
                continue;
            }
            lipiz_nn::gan::latent_batch_into(rng, rows.len(), self.network.latent_dim, &mut z);
            shape.forward_into(genome, &z, &mut images, &mut scratch, &pool);
            for (bi, &row) in rows.iter().enumerate() {
                out.row_mut(row).copy_from_slice(images.row(bi));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_nn::Generator;

    #[test]
    fn uniform_weights_sum_to_one() {
        let w = MixtureWeights::uniform(5);
        let sum: f32 = w.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(w.weights().iter().all(|&v| (v - 0.2).abs() < 1e-6));
    }

    #[test]
    fn from_raw_clamps_and_normalizes() {
        let w = MixtureWeights::from_raw(&[2.0, -1.0, 2.0]);
        assert_eq!(w.weights(), &[0.5, 0.0, 0.5]);
        // All-zero raw falls back to uniform.
        let w = MixtureWeights::from_raw(&[0.0, 0.0]);
        assert_eq!(w.weights(), &[0.5, 0.5]);
    }

    #[test]
    fn from_normalized_is_bit_exact() {
        // The wire path must reproduce weights bit-for-bit, including ones
        // whose f32 sum is not exactly 1.0.
        let mut rng = Rng64::seed_from(11);
        let original = MixtureWeights::uniform(5).mutate(0.01, &mut rng);
        let back = MixtureWeights::from_normalized(original.weights());
        assert_eq!(back, original);
        assert_eq!(
            back.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            original.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mutation_stays_normalized() {
        let mut rng = Rng64::seed_from(1);
        let w = MixtureWeights::uniform(4);
        for _ in 0..50 {
            let m = w.mutate(0.01, &mut rng);
            let sum: f32 = m.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(m.weights().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn sampling_respects_weights() {
        let mut rng = Rng64::seed_from(2);
        let w = MixtureWeights::from_raw(&[0.8, 0.2]);
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[w.sample_component(&mut rng)] += 1;
        }
        let share0 = counts[0] as f64 / 2000.0;
        assert!((share0 - 0.8).abs() < 0.05, "share {share0}");
    }

    #[test]
    fn degenerate_weight_always_sampled() {
        let mut rng = Rng64::seed_from(3);
        let w = MixtureWeights::from_raw(&[0.0, 1.0, 0.0]);
        for _ in 0..100 {
            assert_eq!(w.sample_component(&mut rng), 1);
        }
    }

    #[test]
    fn es_step_accepts_only_improvements() {
        let mut rng = Rng64::seed_from(4);
        let mut w = MixtureWeights::uniform(3);
        // Score: distance of w[0] from 1 => optimum is all mass on 0.
        let score = |m: &MixtureWeights| (1.0 - m.weights()[0]) as f64;
        let before = score(&w);
        let mut accepted = 0;
        for _ in 0..200 {
            if w.es_step(0.05, &mut rng, score) {
                accepted += 1;
            }
        }
        let after = score(&w);
        assert!(after < before, "ES failed to improve: {before} -> {after}");
        assert!(accepted > 0, "no mutant ever accepted");
        assert!(w.weights()[0] > 0.6, "w0 = {}", w.weights()[0]);
    }

    #[test]
    fn ensemble_samples_have_data_shape() {
        let mut rng = Rng64::seed_from(5);
        let cfg = NetworkConfig::tiny(12);
        let g1 = Generator::new(&cfg, &mut rng).net.genome().to_vec();
        let g2 = Generator::new(&cfg, &mut rng).net.genome().to_vec();
        let model = EnsembleModel::new(cfg, vec![g1, g2], MixtureWeights::uniform(2));
        let samples = model.sample(9, &mut rng);
        assert_eq!(samples.shape(), (9, 12));
        assert!(samples.all_finite());
        assert!(samples.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn ensemble_with_one_dead_component_still_samples() {
        let mut rng = Rng64::seed_from(6);
        let cfg = NetworkConfig::tiny(8);
        let g1 = Generator::new(&cfg, &mut rng).net.genome().to_vec();
        let g2 = Generator::new(&cfg, &mut rng).net.genome().to_vec();
        let model =
            EnsembleModel::new(cfg, vec![g1, g2], MixtureWeights::from_raw(&[1.0, 0.0]));
        let samples = model.sample(5, &mut rng);
        assert_eq!(samples.rows(), 5);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_ensemble_panics() {
        let cfg = NetworkConfig::tiny(8);
        EnsembleModel::new(cfg, vec![vec![0.0; 4]], MixtureWeights::uniform(2));
    }
}
