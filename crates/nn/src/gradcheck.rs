//! Finite-difference gradient checking utilities.
//!
//! Exposed as a library module (not just test code) so downstream crates'
//! tests can verify their own composite losses against numeric gradients.

use crate::mlp::Mlp;

/// Numeric gradient of `loss` with respect to parameter `idx` of `net`,
/// using central differences with step `eps`.
pub fn numeric_param_gradient(
    net: &Mlp,
    idx: usize,
    eps: f32,
    loss: &mut dyn FnMut(&Mlp) -> f64,
) -> f64 {
    let mut plus = net.clone();
    plus.params_mut()[idx] += eps;
    let mut minus = net.clone();
    minus.params_mut()[idx] -= eps;
    (loss(&plus) - loss(&minus)) / (2.0 * eps as f64)
}

/// Check analytic gradients against numeric ones on a strided subset of
/// parameters; returns the worst absolute error observed.
pub fn max_gradient_error(
    net: &Mlp,
    analytic: &[f32],
    stride: usize,
    eps: f32,
    loss: &mut dyn FnMut(&Mlp) -> f64,
) -> f64 {
    assert_eq!(analytic.len(), net.param_count(), "gradient length");
    let mut worst = 0.0f64;
    for idx in (0..net.param_count()).step_by(stride.max(1)) {
        let numeric = numeric_param_gradient(net, idx, eps, loss);
        let err = (numeric - analytic[idx] as f64).abs();
        worst = worst.max(err);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::gan::{Discriminator, Generator, NetworkConfig};
    use crate::loss::{self, GanLoss};
    use crate::test_util::{backward, cached_forward, forward};
    use lipiz_tensor::{Matrix, Pool, Rng64};

    #[test]
    fn discriminator_bce_gradients_pass_gradcheck() {
        // Full-path check: both BCE branches backpropagated through the
        // discriminator MLP and accumulated, against numeric gradients of
        // the same two-batch loss.
        let pool = Pool::serial();
        let mut rng = Rng64::seed_from(21);
        let cfg = NetworkConfig::tiny(4);
        let d = Discriminator::new(&cfg, &mut rng);
        let real = rng.uniform_matrix(3, 4, -0.9, 0.9);
        let fake = rng.uniform_matrix(3, 4, -0.9, 0.9);

        let cache_real = cached_forward(&d.net, &real, &pool);
        let cache_fake = cached_forward(&d.net, &fake, &pool);
        let (mut d_real, mut d_fake) = (Matrix::default(), Matrix::default());
        loss::d_bce_loss_into(
            cache_real.output(),
            cache_fake.output(),
            &mut d_real,
            &mut d_fake,
        );
        let (mut grads, _) = backward(&d.net, &real, &cache_real, &d_real, &pool);
        let (grads_fake, _) = backward(&d.net, &fake, &cache_fake, &d_fake, &pool);
        grads.accumulate(&grads_fake);

        let mut loss_fn = |net: &Mlp| -> f64 {
            loss::d_bce_loss_value(
                forward(net, &real, &pool).as_slice(),
                forward(net, &fake, &pool).as_slice(),
            ) as f64
        };
        let err = max_gradient_error(&d.net, grads.as_slice(), 5, 1e-2, &mut loss_fn);
        assert!(err < 2e-3, "D BCE gradcheck error {err}");
    }

    #[test]
    fn generator_gradients_pass_gradcheck_for_every_loss() {
        // Full-path check per Mustangs loss variant: gradients flow through
        // the frozen discriminator into the generator parameters.
        let pool = Pool::serial();
        let mut rng = Rng64::seed_from(22);
        let cfg = NetworkConfig::tiny(4);
        let g = Generator::new(&cfg, &mut rng);
        let d = Discriminator::new(&cfg, &mut rng);
        let z = rng.normal_matrix(3, g.latent_dim(), 0.0, 1.0);

        for kind in GanLoss::ALL {
            let g_cache = cached_forward(&g.net, &z, &pool);
            let d_cache = cached_forward(&d.net, g_cache.output(), &pool);
            let mut d_logits = Matrix::default();
            loss::g_loss_into(kind, d_cache.output(), &mut d_logits);
            let (_, d_images) = backward(&d.net, g_cache.output(), &d_cache, &d_logits, &pool);
            let (g_grads, _) = backward(&g.net, &z, &g_cache, &d_images, &pool);

            let mut loss_fn = |net: &Mlp| -> f64 {
                loss::g_loss_value(
                    kind,
                    forward(&d.net, &forward(net, &z, &pool), &pool).as_slice(),
                ) as f64
            };
            let err = max_gradient_error(&g.net, g_grads.as_slice(), 7, 1e-2, &mut loss_fn);
            assert!(err < 2e-3, "{kind:?} G gradcheck error {err}");
        }
    }

    #[test]
    fn gradcheck_detects_wrong_gradients() {
        let pool = Pool::serial();
        let mut rng = Rng64::seed_from(1);
        let net = Mlp::from_dims(&[2, 3, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = rng.uniform_matrix(4, 2, -1.0, 1.0);
        let mut loss = |net: &Mlp| -> f64 {
            let y = forward(net, &x, &pool);
            y.as_slice().iter().map(|&v| 0.5 * (v as f64).powi(2)).sum()
        };
        // Correct gradients pass.
        let cache = cached_forward(&net, &x, &pool);
        let d_out = cache.output().clone();
        let (grads, _) = backward(&net, &x, &cache, &d_out, &pool);
        let err = max_gradient_error(&net, grads.as_slice(), 3, 1e-3, &mut loss);
        assert!(err < 2e-3, "correct gradients flagged: {err}");
        // Corrupted gradients fail.
        let mut bad = grads.as_slice().to_vec();
        bad[0] += 1.0;
        let err = max_gradient_error(&net, &bad, 1, 1e-3, &mut loss);
        assert!(err > 0.5, "corrupted gradients not detected: {err}");
    }
}
