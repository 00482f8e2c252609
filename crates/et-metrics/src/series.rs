//! Per-iteration series aggregation across seeds.
//!
//! Every figure of the empirical study is a per-iteration curve (MAE or F1)
//! averaged over repeated runs; this module provides the mean ± std
//! aggregation plus two scalar summaries used to compare sampling methods:
//! the first iteration at which a curve crosses a threshold, and the area
//! under the curve (lower AUC = faster MAE convergence).

#![expect(
    clippy::indexing_slicing,
    reason = "last_mean and aggregate assert a non-empty series or run list before reading its first or last element (their # Panics contract), and windows(2) yields slices of exactly two points"
)]

/// Mean and standard deviation per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStats {
    /// Per-iteration means.
    pub mean: Vec<f64>,
    /// Per-iteration (population) standard deviations.
    pub std: Vec<f64>,
    /// Number of runs aggregated.
    pub runs: usize,
}

impl SeriesStats {
    /// Series length.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// True when the series is empty.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// The final mean value.
    ///
    /// # Panics
    /// Panics on an empty series.
    pub fn last_mean(&self) -> f64 {
        assert!(!self.is_empty(), "last_mean of an empty series");
        self.mean[self.mean.len() - 1]
    }
}

/// Aggregates equally-long runs into per-iteration mean ± std.
///
/// # Panics
/// Panics when runs have different lengths or no runs are given.
pub fn aggregate(runs: &[Vec<f64>]) -> SeriesStats {
    assert!(!runs.is_empty(), "need at least one run");
    let len = runs[0].len();
    for (i, r) in runs.iter().enumerate() {
        assert_eq!(r.len(), len, "run {i} has length {} != {len}", r.len());
    }
    let n = runs.len() as f64;
    let mut mean = vec![0.0; len];
    for r in runs {
        for (m, v) in mean.iter_mut().zip(r) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut std = vec![0.0; len];
    for r in runs {
        for ((s, v), m) in std.iter_mut().zip(r).zip(&mean) {
            *s += (v - m) * (v - m);
        }
    }
    for s in &mut std {
        *s = (*s / n).sqrt();
    }
    SeriesStats {
        mean,
        std,
        runs: runs.len(),
    }
}

/// The first (0-based) iteration at which the series drops to or below
/// `threshold`; `None` when it never does. For MAE curves this is the
/// paper's "number of interactions required to learn a common belief".
pub fn iterations_to_threshold(series: &[f64], threshold: f64) -> Option<usize> {
    series.iter().position(|&v| v <= threshold)
}

/// Trapezoidal area under the curve over unit-spaced iterations. Lower is
/// better for MAE curves (faster, deeper convergence).
pub fn auc(series: &[f64]) -> f64 {
    if series.len() < 2 {
        return series.first().copied().unwrap_or(0.0);
    }
    series.windows(2).map(|w| (w[0] + w[1]) / 2.0).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn aggregate_mean_std() {
        let runs = vec![vec![1.0, 2.0], vec![3.0, 2.0]];
        let s = aggregate(&runs);
        assert_eq!(s.mean, vec![2.0, 2.0]);
        assert_eq!(s.std, vec![1.0, 0.0]);
        assert_eq!(s.runs, 2);
        assert_eq!(s.last_mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn ragged_runs_rejected() {
        let _ = aggregate(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn threshold_crossing() {
        let s = [0.5, 0.4, 0.2, 0.25, 0.1];
        assert_eq!(iterations_to_threshold(&s, 0.25), Some(2));
        assert_eq!(iterations_to_threshold(&s, 0.05), None);
        assert_eq!(iterations_to_threshold(&s, 0.5), Some(0));
    }

    #[test]
    fn auc_trapezoid() {
        assert_eq!(auc(&[]), 0.0);
        assert_eq!(auc(&[3.0]), 3.0);
        assert!((auc(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((auc(&[1.0, 1.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn mean_within_run_envelope(runs in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 5), 1..6)) {
            let s = aggregate(&runs);
            for i in 0..5 {
                let lo = runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min);
                let hi = runs.iter().map(|r| r[i]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(s.mean[i] >= lo - 1e-12 && s.mean[i] <= hi + 1e-12);
                prop_assert!(s.std[i] >= 0.0);
                prop_assert!(s.std[i] <= (hi - lo) + 1e-12);
            }
        }

        #[test]
        fn auc_monotone_in_values(a in proptest::collection::vec(0.0f64..1.0, 2..10)) {
            let b: Vec<f64> = a.iter().map(|v| v + 0.5).collect();
            prop_assert!(auc(&b) > auc(&a));
        }
    }
}
