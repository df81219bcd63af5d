//! Procedural digit glyphs: stroke templates and a jittered rasterizer.
//!
//! Each digit is a set of polylines in the unit square (x rightward, y
//! downward). A sample is produced by applying a random affine jitter to the
//! strokes, rasterizing with an anti-aliased distance field, and adding pixel
//! noise — giving intra-class variation comparable in spirit to handwriting.

use crate::{IMAGE_DIM, IMAGE_SIDE};
use lipiz_tensor::Rng64;

/// A point in glyph space (unit square, y down).
pub type Pt = (f32, f32);

/// Jitter parameters applied per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Max |translation| in glyph units (fraction of the box).
    pub translate: f32,
    /// Scale is drawn from `[1 - scale, 1 + scale]`.
    pub scale: f32,
    /// Max |rotation| in radians around the glyph center.
    pub rotate: f32,
    /// Stroke half-thickness is drawn from `[thickness_min, thickness_max]`
    /// (in glyph units).
    pub thickness_min: f32,
    /// Upper bound of the stroke half-thickness draw.
    pub thickness_max: f32,
    /// Std-dev of additive Gaussian pixel noise (intensity units).
    pub pixel_noise: f32,
}

impl Default for Jitter {
    fn default() -> Self {
        Self {
            translate: 0.08,
            scale: 0.12,
            rotate: 0.18,
            thickness_min: 0.045,
            thickness_max: 0.075,
            pixel_noise: 0.06,
        }
    }
}

impl Jitter {
    /// No jitter at all: canonical glyphs (useful for golden tests).
    pub fn none() -> Self {
        Self {
            translate: 0.0,
            scale: 0.0,
            rotate: 0.0,
            thickness_min: 0.06,
            thickness_max: 0.06,
            pixel_noise: 0.0,
        }
    }
}

/// Sample `n` points along an elliptic arc (angles in radians, y down).
///
/// The cosine and sine are taken in `f64` and rounded once to `f32`, so
/// every build profile computes the same points: the angles are constants,
/// and an optimiser that folds `f32::cos` of a constant at compile time
/// rounds differently from the `cosf` an unoptimised build calls.
fn arc(cx: f32, cy: f32, rx: f32, ry: f32, a0: f32, a1: f32, n: usize) -> Vec<Pt> {
    (0..=n)
        .map(|i| {
            let t = f64::from(a0 + (a1 - a0) * i as f32 / n as f32);
            (cx + rx * t.cos() as f32, cy + ry * t.sin() as f32)
        })
        .collect()
}

/// Stroke polylines for digit `d` in the unit square.
///
/// # Panics
/// Panics if `d > 9`.
pub fn strokes(d: u8) -> Vec<Vec<Pt>> {
    use std::f32::consts::PI;
    match d {
        0 => vec![arc(0.5, 0.5, 0.27, 0.38, 0.0, 2.0 * PI, 24)],
        1 => vec![vec![(0.38, 0.25), (0.52, 0.12), (0.52, 0.88)]],
        2 => vec![{
            let mut s = arc(0.5, 0.3, 0.24, 0.18, PI, 2.35 * PI, 12);
            s.extend_from_slice(&[(0.3, 0.85), (0.3, 0.88), (0.74, 0.88)]);
            s
        }],
        3 => vec![{
            let mut s = arc(0.46, 0.3, 0.22, 0.17, 0.75 * PI, 2.4 * PI, 12);
            s.extend(arc(0.46, 0.68, 0.24, 0.2, 1.65 * PI, 3.3 * PI, 12));
            s
        }],
        4 => {
            vec![vec![(0.62, 0.12), (0.28, 0.62), (0.78, 0.62)], vec![(0.62, 0.4), (0.62, 0.9)]]
        }
        5 => vec![{
            let mut s = vec![(0.72, 0.14), (0.34, 0.14), (0.32, 0.47)];
            s.extend(arc(0.48, 0.66, 0.22, 0.21, 1.45 * PI, 2.9 * PI, 14));
            s
        }],
        6 => vec![{
            let mut s = vec![(0.62, 0.12), (0.38, 0.45)];
            s.extend(arc(0.5, 0.68, 0.2, 0.2, 1.1 * PI, 3.05 * PI, 16));
            s
        }],
        7 => vec![vec![(0.28, 0.14), (0.74, 0.14), (0.42, 0.88)]],
        8 => vec![
            arc(0.5, 0.32, 0.19, 0.19, 0.0, 2.0 * PI, 16),
            arc(0.5, 0.7, 0.23, 0.19, 0.0, 2.0 * PI, 16),
        ],
        9 => vec![{
            let mut s = arc(0.5, 0.33, 0.2, 0.2, 0.0, 2.0 * PI, 16);
            s.extend_from_slice(&[(0.7, 0.33), (0.66, 0.88)]);
            s
        }],
        _ => panic!("digit out of range: {d}"),
    }
}

/// Squared distance from point `p` to segment `a`–`b`.
fn dist_sq_to_segment(p: Pt, a: Pt, b: Pt) -> f32 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let (dx, dy) = (bx - ax, by - ay);
    let len_sq = dx * dx + dy * dy;
    let t = if len_sq <= 1e-12 {
        0.0
    } else {
        (((px - ax) * dx + (py - ay) * dy) / len_sq).clamp(0.0, 1.0)
    };
    let (cx, cy) = (ax + t * dx, ay + t * dy);
    (px - cx) * (px - cx) + (py - cy) * (py - cy)
}

/// Rasterize one jittered digit sample into a flat `[-1, 1]` image.
pub fn render_digit(d: u8, jitter: &Jitter, rng: &mut Rng64) -> Vec<f32> {
    let mut out = vec![0.0f32; IMAGE_DIM];
    render_digit_into(d, jitter, rng, &mut out);
    out
}

/// Rasterize into a caller-provided buffer of length [`IMAGE_DIM`].
///
/// # Panics
/// Panics if the buffer has the wrong length.
pub fn render_digit_into(d: u8, jitter: &Jitter, rng: &mut Rng64, out: &mut [f32]) {
    render_glyph_into(&strokes(d), jitter, rng, out, &mut Vec::new());
}

/// [`render_digit_into`] for a digit whose strokes the caller already
/// holds: `pts` is the reused buffer each transformed polyline lands in, so
/// a batch of renders over prebuilt glyphs allocates nothing per image.
pub(crate) fn render_glyph_into(
    glyph: &[Vec<Pt>],
    jitter: &Jitter,
    rng: &mut Rng64,
    out: &mut [f32],
    pts: &mut Vec<Pt>,
) {
    assert_eq!(out.len(), IMAGE_DIM, "image buffer length");
    // Intensity accumulator in [0, 1].
    out.iter_mut().for_each(|v| *v = 0.0);

    // Per-sample jitter draws.
    let tx = rng.uniform(-jitter.translate, jitter.translate + f32::EPSILON);
    let ty = rng.uniform(-jitter.translate, jitter.translate + f32::EPSILON);
    let sc = 1.0 + rng.uniform(-jitter.scale, jitter.scale + f32::EPSILON);
    let rot = rng.uniform(-jitter.rotate, jitter.rotate + f32::EPSILON);
    let half_t = rng.uniform(jitter.thickness_min, jitter.thickness_max + f32::EPSILON);
    let (sin_r, cos_r) = rot.sin_cos();

    let transform = |(x, y): Pt| -> Pt {
        // Rotate and scale around the glyph center, then translate.
        let (cx, cy) = (x - 0.5, y - 0.5);
        let rx = cos_r * cx - sin_r * cy;
        let ry = sin_r * cx + cos_r * cy;
        (0.5 + sc * rx + tx, 0.5 + sc * ry + ty)
    };

    let side = IMAGE_SIDE as f32;
    let feather = 1.5 / side; // anti-alias band beyond the stroke core
    let reach = half_t + feather;
    for poly in glyph {
        pts.clear();
        pts.extend(poly.iter().copied().map(transform));
        for seg in pts.windows(2) {
            let (a, b) = (seg[0], seg[1]);
            // Only touch pixels inside the segment's inflated bounding box.
            let x_min = (a.0.min(b.0) - reach).max(0.0);
            let x_max = (a.0.max(b.0) + reach).min(1.0);
            let y_min = (a.1.min(b.1) - reach).max(0.0);
            let y_max = (a.1.max(b.1) + reach).min(1.0);
            let px0 = (x_min * side) as usize;
            let px1 = ((x_max * side).ceil() as usize).min(IMAGE_SIDE);
            let py0 = (y_min * side) as usize;
            let py1 = ((y_max * side).ceil() as usize).min(IMAGE_SIDE);
            for py in py0..py1 {
                let y = (py as f32 + 0.5) / side;
                let row = &mut out[py * IMAGE_SIDE..(py + 1) * IMAGE_SIDE];
                for (px, pixel) in row.iter_mut().enumerate().take(px1).skip(px0) {
                    let x = (px as f32 + 0.5) / side;
                    let dist = dist_sq_to_segment((x, y), a, b).sqrt();
                    let intensity = if dist <= half_t {
                        1.0
                    } else if dist < reach {
                        1.0 - (dist - half_t) / feather
                    } else {
                        0.0
                    };
                    if intensity > *pixel {
                        *pixel = intensity;
                    }
                }
            }
        }
    }

    // Pixel noise, then map [0,1] intensity to [-1,1] (tanh range).
    for v in out.iter_mut() {
        let noisy = if jitter.pixel_noise > 0.0 {
            (*v + rng.normal(0.0, jitter.pixel_noise)).clamp(0.0, 1.0)
        } else {
            *v
        };
        *v = noisy * 2.0 - 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_digits_have_strokes() {
        for d in 0..10u8 {
            let s = strokes(d);
            assert!(!s.is_empty(), "digit {d} has no strokes");
            assert!(s.iter().all(|p| p.len() >= 2), "digit {d} has degenerate polyline");
            // All control points stay inside the unit box (with margin).
            for poly in &s {
                for &(x, y) in poly {
                    assert!((-0.1..=1.1).contains(&x), "digit {d} x {x}");
                    assert!((-0.1..=1.1).contains(&y), "digit {d} y {y}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_ten_panics() {
        strokes(10);
    }

    #[test]
    fn rendered_range_and_shape() {
        let mut rng = Rng64::seed_from(1);
        for d in 0..10u8 {
            let img = render_digit(d, &Jitter::default(), &mut rng);
            assert_eq!(img.len(), IMAGE_DIM);
            assert!(img.iter().all(|v| (-1.0..=1.0).contains(v)), "digit {d} out of range");
        }
    }

    #[test]
    fn glyphs_have_ink_and_background() {
        let mut rng = Rng64::seed_from(2);
        for d in 0..10u8 {
            let img = render_digit(d, &Jitter::none(), &mut rng);
            let ink = img.iter().filter(|&&v| v > 0.5).count();
            let bg = img.iter().filter(|&&v| v < -0.5).count();
            assert!(ink > 20, "digit {d}: only {ink} ink pixels");
            assert!(bg > 400, "digit {d}: only {bg} background pixels");
        }
    }

    #[test]
    fn canonical_glyphs_are_deterministic() {
        let mut a = Rng64::seed_from(3);
        let mut b = Rng64::seed_from(3);
        let ia = render_digit(5, &Jitter::default(), &mut a);
        let ib = render_digit(5, &Jitter::default(), &mut b);
        assert_eq!(ia, ib);
    }

    #[test]
    fn jitter_produces_variation() {
        let mut rng = Rng64::seed_from(4);
        let a = render_digit(3, &Jitter::default(), &mut rng);
        let b = render_digit(3, &Jitter::default(), &mut rng);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0, "two jittered samples are nearly identical: {diff}");
    }

    #[test]
    fn different_digits_look_different() {
        // Canonical (no-jitter) glyph pairs must differ substantially.
        let mut rng = Rng64::seed_from(5);
        let imgs: Vec<Vec<f32>> =
            (0..10u8).map(|d| render_digit(d, &Jitter::none(), &mut rng)).collect();
        for i in 0..10 {
            for j in (i + 1)..10 {
                let diff: f32 = imgs[i].iter().zip(&imgs[j]).map(|(x, y)| (x - y).abs()).sum();
                assert!(diff > 20.0, "digits {i} and {j} are too similar: {diff}");
            }
        }
    }

    #[test]
    fn segment_distance_math() {
        // Point on the segment.
        assert!(dist_sq_to_segment((0.5, 0.0), (0.0, 0.0), (1.0, 0.0)) < 1e-12);
        // Perpendicular distance.
        let d = dist_sq_to_segment((0.5, 0.3), (0.0, 0.0), (1.0, 0.0));
        assert!((d - 0.09).abs() < 1e-6);
        // Beyond an endpoint: distance to the endpoint.
        let d = dist_sq_to_segment((2.0, 0.0), (0.0, 0.0), (1.0, 0.0));
        assert!((d - 1.0).abs() < 1e-6);
        // Degenerate segment.
        let d = dist_sq_to_segment((1.0, 1.0), (0.0, 0.0), (0.0, 0.0));
        assert!((d - 2.0).abs() < 1e-6);
    }
}
