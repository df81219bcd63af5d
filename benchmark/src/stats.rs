//! Order statistics used by every metric: medians over repeats, nearest-rank
//! percentiles over probe calls, and the quartile spread the acceptance rule
//! is written in.

/// A sorted copy of `values` with non-finite entries dropped.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    v
}

/// Median (mean of the two middle values for an even count); `NaN` when
/// `values` holds no finite number.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q ∈ [0, 1]`: the smallest value with at least
/// `q·n` values at or below it. `NaN` on an empty input.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// returns them — the acceptance rule is stated in those terms, so the
/// arithmetic is reproduced rather than approximated. `None` below two
/// values (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // `delta` may leave [0, 4] after the clamp; Python extrapolates the
        // same way, so signed arithmetic keeps the two in step.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a metric's bound is compared against. `NaN` below two values or
/// for a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => f64::NAN,
    }
}

/// Summary of one metric's samples: median with the extremes and the count
/// beside it, as the report prints them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        Self {
            median: median(&v),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            n: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // Non-finite samples never poison a summary.
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        assert!(quartile_spread(&[5.0]).is_nan());
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[3.0, 9.0, 1.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 9.0, 3));
    }
}
