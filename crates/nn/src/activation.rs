//! Elementwise activations of the dense layers.
//!
//! Table I's networks need exactly two, so this is the tensor crate's
//! [`ActKind`](lipiz_tensor::ActKind) under the nn name: `Tanh` on the
//! hidden layers and the generator output, `Identity` on the
//! discriminator's logit (the losses work on logits). One enum serves the
//! fused forward kernel, the vectorized activation pass and the backward
//! pass, whose derivative is evaluated from the activated output
//! ([`Activation::scale_by_derivative`]: `tanh'(z) = 1 − a²`), so no
//! pre-activation matrix is ever cached.

pub use lipiz_tensor::ActKind as Activation;

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_tensor::{ops::apply_act, Matrix};

    fn activated(act: Activation, z: f32) -> Matrix {
        let mut m = Matrix::full(1, 1, z);
        apply_act(act, m.as_mut_slice());
        m
    }

    fn numeric_derivative(act: Activation, z: f32) -> f32 {
        let h = 1e-3;
        (activated(act, z + h)[(0, 0)] - activated(act, z - h)[(0, 0)]) / (2.0 * h)
    }

    fn analytic_derivative(act: Activation, z: f32) -> f32 {
        let mut delta = Matrix::full(1, 1, 1.0);
        act.scale_by_derivative(&activated(act, z), &mut delta);
        delta[(0, 0)]
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for act in [Activation::Tanh, Activation::Identity] {
            for &z in &[-2.0f32, -0.5, 0.3, 1.7] {
                let num = numeric_derivative(act, z);
                let ana = analytic_derivative(act, z);
                assert!(
                    (num - ana).abs() < 1e-3,
                    "{act:?} at {z}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn tanh_bounds_outputs() {
        let mut m = Matrix::from_rows(&[&[-50.0, 0.0, 50.0]]);
        apply_act(Activation::Tanh, m.as_mut_slice());
        assert!(m.as_slice().iter().all(|v| v.abs() <= 1.0));
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn identity_passes_values_through() {
        let mut m = Matrix::from_rows(&[&[-2.0, 3.0]]);
        apply_act(Activation::Identity, m.as_mut_slice());
        assert_eq!(m.as_slice(), &[-2.0, 3.0]);
    }
}
