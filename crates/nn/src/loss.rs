//! GAN training objectives.
//!
//! All losses are computed from discriminator *logits* (the discriminator's
//! output layer is `Identity`), which keeps every formula numerically stable:
//! `BCE(z, y) = softplus(z) - y·z` and `log σ(z) = -softplus(-z)`.
//!
//! The [`GanLoss`] enum is the gene the **Mustangs** loss-mutation operator
//! draws from (Toutouh et al., GECCO 2019): the original minimax objective,
//! the non-saturating heuristic, and least-squares. Plain **Lipizzaner**
//! training fixes the loss to [`GanLoss::Heuristic`] for every step.

use lipiz_tensor::Matrix;
use lipiz_wire::{Wire, WireError};

/// Numerically stable logistic sigmoid (never exponentiates a positive
/// argument).
#[inline]
fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^z)`.
#[inline]
fn softplus(z: f32) -> f32 {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

/// Generator objective variants (the Mustangs mutation set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GanLoss {
    /// Original saturating minimax objective: `min_G E[log(1 - D(G(z)))]`.
    Minimax,
    /// Non-saturating heuristic: `min_G -E[log D(G(z))]` (GAN folklore
    /// default; what Lipizzaner's BCE generator step optimizes).
    Heuristic,
    /// Least-squares objective on the discriminator probability:
    /// `min_G E[(D(G(z)) - 1)²] / 2`.
    LeastSquares,
}

impl GanLoss {
    /// All variants, in the order used for mutation draws.
    pub const ALL: [GanLoss; 3] = [GanLoss::Minimax, GanLoss::Heuristic, GanLoss::LeastSquares];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            GanLoss::Minimax => "minimax",
            GanLoss::Heuristic => "heuristic",
            GanLoss::LeastSquares => "least-squares",
        }
    }

    /// Stable numeric id for serialization over the wire.
    pub fn id(&self) -> u8 {
        match self {
            GanLoss::Minimax => 0,
            GanLoss::Heuristic => 1,
            GanLoss::LeastSquares => 2,
        }
    }

    /// Inverse of [`GanLoss::id`].
    pub fn from_id(id: u8) -> Option<GanLoss> {
        match id {
            0 => Some(GanLoss::Minimax),
            1 => Some(GanLoss::Heuristic),
            2 => Some(GanLoss::LeastSquares),
            _ => None,
        }
    }
}

/// One byte on the wire: the variant's [`GanLoss::id`].
impl Wire for GanLoss {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id().encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        GanLoss::from_id(u8::decode(buf)?).ok_or(WireError::new("gan loss id"))
    }
}

/// Discriminator BCE loss and logit gradients.
///
/// `z_real`/`z_fake` are `(batch, 1)` logit matrices. Returns the loss and
/// writes the gradients into the recycled buffers `d_real`/`d_fake`, already
/// divided by the respective batch sizes (mean reduction).
pub fn d_bce_loss_into(
    z_real: &Matrix,
    z_fake: &Matrix,
    d_real: &mut Matrix,
    d_fake: &mut Matrix,
) -> f32 {
    let mr = z_real.rows().max(1) as f32;
    let mf = z_fake.rows().max(1) as f32;
    let mut loss = 0.0f32;
    d_real.copy_from(z_real);
    for v in d_real.as_mut_slice() {
        let z = *v;
        loss += softplus(-z) / mr; // -log σ(z)
        *v = (sigmoid(z) - 1.0) / mr;
    }
    d_fake.copy_from(z_fake);
    for v in d_fake.as_mut_slice() {
        let z = *v;
        loss += softplus(z) / mf; // -log(1 - σ(z))
        *v = sigmoid(z) / mf;
    }
    loss
}

/// The loss value of [`d_bce_loss_into`] without materializing the gradients —
/// the fitness-evaluation path (identical accumulation order, so the value
/// matches the gradient-producing version bit for bit). The logits are
/// one-column, so a slice's length is its batch size: any row block of a
/// larger logit matrix scores as the batch it is.
pub fn d_bce_loss_value(z_real: &[f32], z_fake: &[f32]) -> f32 {
    let mr = z_real.len().max(1) as f32;
    let mf = z_fake.len().max(1) as f32;
    let mut loss = 0.0f32;
    for &z in z_real {
        loss += softplus(-z) / mr;
    }
    for &z in z_fake {
        loss += softplus(z) / mf;
    }
    loss
}

/// Generator loss and logit gradient for fake-sample logits `z_fake`.
///
/// Returns the loss and writes the gradient into the recycled buffer `d`,
/// with mean reduction.
pub fn g_loss_into(kind: GanLoss, z_fake: &Matrix, d: &mut Matrix) -> f32 {
    let m = z_fake.rows().max(1) as f32;
    let mut loss = 0.0f32;
    d.copy_from(z_fake);
    match kind {
        GanLoss::Heuristic => {
            // L = -E[log σ(z)] = E[softplus(-z)]
            for v in d.as_mut_slice() {
                let z = *v;
                loss += softplus(-z) / m;
                *v = (sigmoid(z) - 1.0) / m;
            }
        }
        GanLoss::Minimax => {
            // L = E[log(1 - σ(z))] = -E[softplus(z)]
            for v in d.as_mut_slice() {
                let z = *v;
                loss += -softplus(z) / m;
                *v = -sigmoid(z) / m;
            }
        }
        GanLoss::LeastSquares => {
            // L = E[(σ(z) - 1)²] / 2
            for v in d.as_mut_slice() {
                let p = sigmoid(*v);
                loss += 0.5 * (p - 1.0) * (p - 1.0) / m;
                *v = (p - 1.0) * p * (1.0 - p) / m;
            }
        }
    }
    loss
}

/// The loss value of [`g_loss_into`] without materializing the gradient —
/// the fitness-evaluation path (identical accumulation order, so the value
/// matches the gradient-producing version bit for bit). `z_fake` is a
/// one-column logit batch, as in [`d_bce_loss_value`].
pub fn g_loss_value(kind: GanLoss, z_fake: &[f32]) -> f32 {
    let m = z_fake.len().max(1) as f32;
    let mut loss = 0.0f32;
    match kind {
        GanLoss::Heuristic => {
            for &z in z_fake {
                loss += softplus(-z) / m;
            }
        }
        GanLoss::Minimax => {
            for &z in z_fake {
                loss += -softplus(z) / m;
            }
        }
        GanLoss::LeastSquares => {
            for &z in z_fake {
                let p = sigmoid(z);
                loss += 0.5 * (p - 1.0) * (p - 1.0) / m;
            }
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_tensor::Rng64;

    fn d_bce_loss(z_real: &Matrix, z_fake: &Matrix) -> (f32, Matrix, Matrix) {
        let (mut d_real, mut d_fake) = (Matrix::default(), Matrix::default());
        let loss = d_bce_loss_into(z_real, z_fake, &mut d_real, &mut d_fake);
        (loss, d_real, d_fake)
    }

    fn g_loss(kind: GanLoss, z_fake: &Matrix) -> (f32, Matrix) {
        let mut d = Matrix::default();
        let loss = g_loss_into(kind, z_fake, &mut d);
        (loss, d)
    }

    /// Finite-difference check of a scalar-logit gradient.
    fn check_grad(f: impl Fn(&Matrix) -> (f32, Matrix), z0: f32) {
        let eps = 1e-3f32;
        let z = Matrix::full(1, 1, z0);
        let (_, g) = f(&z);
        let (lp, _) = f(&Matrix::full(1, 1, z0 + eps));
        let (lm, _) = f(&Matrix::full(1, 1, z0 - eps));
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - g[(0, 0)]).abs() < 1e-3,
            "z={z0}: numeric {numeric} vs analytic {}",
            g[(0, 0)]
        );
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn softplus_is_stable_and_positive() {
        assert!(softplus(-200.0) >= 0.0);
        assert!((softplus(200.0) - 200.0).abs() < 1e-3);
        assert!((softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn d_bce_gradients_match_finite_differences() {
        for &z in &[-2.0f32, -0.1, 0.0, 0.7, 3.0] {
            // Real-branch gradient with a fixed fake logit.
            check_grad(
                |zr| {
                    let (l, dr, _) = d_bce_loss(zr, &Matrix::full(1, 1, 0.3));
                    (l, dr)
                },
                z,
            );
            // Fake-branch gradient with a fixed real logit.
            check_grad(
                |zf| {
                    let (l, _, df) = d_bce_loss(&Matrix::full(1, 1, -0.4), zf);
                    (l, df)
                },
                z,
            );
        }
    }

    #[test]
    fn g_loss_gradients_match_finite_differences() {
        for kind in GanLoss::ALL {
            for &z in &[-3.0f32, -0.5, 0.0, 0.5, 3.0] {
                check_grad(|zf| g_loss(kind, zf), z);
            }
        }
    }

    #[test]
    fn perfect_discriminator_has_small_bce() {
        let z_real = Matrix::full(4, 1, 20.0);
        let z_fake = Matrix::full(4, 1, -20.0);
        let (loss, _, _) = d_bce_loss(&z_real, &z_fake);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn fooled_discriminator_means_low_generator_loss() {
        let fooled = Matrix::full(4, 1, 10.0); // D thinks fakes are real
        let caught = Matrix::full(4, 1, -10.0);
        for kind in GanLoss::ALL {
            let (l_fooled, _) = g_loss(kind, &fooled);
            let (l_caught, _) = g_loss(kind, &caught);
            assert!(
                l_fooled < l_caught,
                "{kind:?}: fooled {l_fooled} should beat caught {l_caught}"
            );
        }
    }

    #[test]
    fn heuristic_gradient_does_not_saturate_when_caught() {
        // The motivation for the non-saturating loss: when D confidently
        // rejects fakes (z very negative), minimax gradients vanish but
        // heuristic gradients stay ~1/m.
        let caught = Matrix::full(1, 1, -8.0);
        let (_, g_heu) = g_loss(GanLoss::Heuristic, &caught);
        let (_, g_mm) = g_loss(GanLoss::Minimax, &caught);
        assert!(g_heu[(0, 0)].abs() > 0.5);
        assert!(g_mm[(0, 0)].abs() < 1e-3);
    }

    #[test]
    fn value_only_losses_match_gradient_versions_bitwise() {
        let mut rng = Rng64::seed_from(9);
        let zr =
            Matrix::from_vec(5, 1, (0..5).map(|_| rng.uniform(-6.0, 6.0)).collect()).unwrap();
        let zf =
            Matrix::from_vec(7, 1, (0..7).map(|_| rng.uniform(-6.0, 6.0)).collect()).unwrap();
        assert_eq!(
            d_bce_loss_value(zr.as_slice(), zf.as_slice()).to_bits(),
            d_bce_loss(&zr, &zf).0.to_bits()
        );
        for kind in GanLoss::ALL {
            assert_eq!(
                g_loss_value(kind, zf.as_slice()).to_bits(),
                g_loss(kind, &zf).0.to_bits(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn id_round_trip() {
        for kind in GanLoss::ALL {
            assert_eq!(GanLoss::from_id(kind.id()), Some(kind));
        }
        assert_eq!(GanLoss::from_id(9), None);
    }

    #[test]
    fn batch_mean_reduction() {
        // Loss of a batch equals mean of per-sample losses.
        let mut rng = Rng64::seed_from(1);
        let zs: Vec<f32> = (0..6).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let batch = Matrix::from_vec(6, 1, zs.clone()).unwrap();
        let (batch_loss, _) = g_loss(GanLoss::Heuristic, &batch);
        let mean_loss: f32 = zs
            .iter()
            .map(|&z| g_loss(GanLoss::Heuristic, &Matrix::full(1, 1, z)).0)
            .sum::<f32>()
            / 6.0;
        assert!((batch_loss - mean_loss).abs() < 1e-5);
    }
}
