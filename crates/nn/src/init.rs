//! Weight initialization schemes.

use lipiz_tensor::{Matrix, Rng64};

/// Glorot/Xavier uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// This is the PyTorch default family for `nn.Linear` layers with
/// tanh-shaped activations, matching the original implementation the paper
/// parallelizes.
pub fn glorot_uniform(rng: &mut Rng64, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rng.uniform_matrix(fan_in, fan_out, -a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_respects_bound() {
        let mut rng = Rng64::seed_from(3);
        let w = glorot_uniform(&mut rng, 100, 50);
        let bound = (6.0 / 150.0f32).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
        assert_eq!(w.shape(), (100, 50));
    }

    #[test]
    fn glorot_is_not_degenerate() {
        let mut rng = Rng64::seed_from(4);
        let w = glorot_uniform(&mut rng, 64, 64);
        let mean: f32 = w.as_slice().iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let nonzero = w.as_slice().iter().filter(|v| v.abs() > 1e-9).count();
        assert_eq!(nonzero, w.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng64::seed_from(6);
        let mut b = Rng64::seed_from(6);
        let wa = glorot_uniform(&mut a, 8, 8);
        let wb = glorot_uniform(&mut b, 8, 8);
        assert_eq!(wa.as_slice(), wb.as_slice());
    }
}
