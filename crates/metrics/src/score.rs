//! The score service: quality scores of a generated batch in one call.
//!
//! Bundles the classifier, the real-data feature statistics, and the real
//! class histogram. It measures a finished ensemble after the run; the
//! trainer itself does not use it (mixture evolution and best-cell
//! selection go by discriminator loss).

use crate::classifier::Classifier;
use crate::coverage::{self, CoverageReport};
use crate::fid::{frechet_distance, FeatureStats};
use crate::inception::inception_score;
use lipiz_data::SynthDigits;
use lipiz_tensor::Matrix;

/// Quality scores of one generated batch.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerativeScores {
    /// Inception score over the classifier softmax (higher is better).
    pub inception: f64,
    /// Fréchet distance to the real-feature Gaussian fit (lower is better).
    pub fid: f64,
    /// Mode coverage report.
    pub coverage: CoverageReport,
}

/// Precomputed scoring context.
#[derive(Debug, Clone)]
pub struct ScoreService {
    classifier: Classifier,
    real_stats: FeatureStats,
    real_hist: Vec<f64>,
}

impl ScoreService {
    /// Build from a trained classifier and a reference (real) dataset.
    pub fn new(classifier: Classifier, reference: &SynthDigits) -> Self {
        let feats = classifier.features(&reference.images);
        let real_stats = FeatureStats::fit(&feats);
        let labels: Vec<usize> = reference.labels.iter().map(|&l| l as usize).collect();
        let real_hist = coverage::label_histogram(&labels, lipiz_data::NUM_CLASSES);
        Self { classifier, real_stats, real_hist }
    }

    /// Train a classifier on `reference` and build the service in one go.
    pub fn bootstrap(reference: &SynthDigits, epochs: usize, seed: u64) -> Self {
        let classifier = Classifier::train(reference, epochs, seed);
        Self::new(classifier, reference)
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Real-data feature statistics.
    pub fn real_stats(&self) -> &FeatureStats {
        &self.real_stats
    }

    /// Score a batch of generated images.
    pub fn score(&self, images: &Matrix) -> GenerativeScores {
        let probs = self.classifier.probabilities(images);
        let inception = inception_score(&probs);
        let feats = self.classifier.features(images);
        let fid = frechet_distance(&FeatureStats::fit(&feats), &self.real_stats);
        let predicted = lipiz_tensor::reduce::row_argmax(&probs);
        let coverage = coverage::coverage_report(&predicted, &self.real_hist);
        GenerativeScores { inception, fid, coverage }
    }

    /// FID only (cheaper; used inside the mixture-evolution loop).
    pub fn fid_of(&self, images: &Matrix) -> f64 {
        let feats = self.classifier.features(images);
        frechet_distance(&FeatureStats::fit(&feats), &self.real_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipiz_tensor::Rng64;

    fn service() -> (ScoreService, SynthDigits) {
        let data = SynthDigits::generate(400, 31);
        let svc = ScoreService::bootstrap(&data, 4, 32);
        (svc, data)
    }

    #[test]
    fn real_data_scores_well() {
        let (svc, data) = service();
        let holdout = SynthDigits::generate(200, 33);
        let scores = svc.score(&holdout.images);
        assert!(scores.inception > 3.0, "IS of real digits {}", scores.inception);
        assert!(scores.fid < 20.0, "FID of real digits {}", scores.fid);
        assert_eq!(scores.coverage.covered, 10);
        // Self-consistency: scoring the reference itself is near-perfect FID.
        let self_scores = svc.score(&data.images);
        assert!(self_scores.fid < 1e-3, "self FID {}", self_scores.fid);
    }

    #[test]
    fn noise_scores_poorly() {
        let (svc, _) = service();
        let mut rng = Rng64::seed_from(34);
        let noise = rng.uniform_matrix(200, lipiz_data::IMAGE_DIM, -1.0, 1.0);
        let noise_scores = svc.score(&noise);
        let holdout = SynthDigits::generate(200, 35);
        let real_scores = svc.score(&holdout.images);
        assert!(
            noise_scores.fid > real_scores.fid * 3.0,
            "noise FID {} vs real FID {}",
            noise_scores.fid,
            real_scores.fid
        );
    }

    #[test]
    fn collapsed_batch_has_low_inception_and_coverage() {
        let (svc, data) = service();
        // A "collapsed generator": repeats a single real sample.
        let row = data.images.slice_rows(0, 1);
        let collapsed = Matrix::vstack(&vec![&row; 100]).unwrap();
        let scores = svc.score(&collapsed);
        assert!(scores.inception < 1.5, "IS {}", scores.inception);
        assert_eq!(scores.coverage.covered, 1);
        assert!(scores.coverage.tvd > 0.8);
    }

    #[test]
    fn fid_of_matches_full_score() {
        let (svc, _) = service();
        let holdout = SynthDigits::generate(100, 36);
        let full = svc.score(&holdout.images);
        let only = svc.fid_of(&holdout.images);
        assert!((full.fid - only).abs() < 1e-9);
    }
}
