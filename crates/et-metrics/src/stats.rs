//! Statistical utilities for experiment reporting: bootstrap confidence
//! intervals over per-seed results and rank correlation between method
//! orderings.

#![expect(
    clippy::indexing_slicing,
    reason = "the bootstrap draws positions from 0..samples.len() of a slice asserted non-empty, lo_idx and hi_idx are clamped to resamples - 1 < means.len(), and kendall_tau's i < j < n, where n = a.len() = b.len() is asserted on entry"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bootstrap percentile confidence interval for the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Sample mean.
    pub mean: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
}

/// Percentile-bootstrap CI of the mean of `samples` at the given
/// `confidence` (e.g. 0.95), using `resamples` bootstrap draws.
///
/// # Panics
/// Panics on empty input or a confidence outside `(0, 1)`.
pub fn bootstrap_mean_ci(
    samples: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> BootstrapCi {
    assert!(!samples.is_empty(), "need at least one sample");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    assert!(resamples >= 10, "too few resamples");
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b4c_a1f0_5eed_0001);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let m: f64 = (0..samples.len())
            .map(|_| samples[rng.gen_range(0..samples.len())])
            .sum::<f64>()
            / samples.len() as f64;
        means.push(m);
    }
    means.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "alpha lies in (0, 0.5), so the product lies in [0, resamples] and is clamped by .min(resamples - 1)"
    )]
    let lo_idx = ((resamples as f64 * alpha) as usize).min(resamples - 1);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "1 - alpha lies in (0.5, 1), so the product lies in [0, resamples] and is clamped by .min(resamples - 1)"
    )]
    let hi_idx = ((resamples as f64 * (1.0 - alpha)) as usize).min(resamples - 1);
    BootstrapCi {
        mean,
        lo: means[lo_idx],
        hi: means[hi_idx],
    }
}

/// Kendall's τ-a between two equal-length score vectors: how consistently
/// two metrics (or two runs) order the same items. 1 = identical order,
/// −1 = reversed, 0 = unrelated. Tied pairs count as discordant-neutral
/// (τ-a denominator).
///
/// # Panics
/// Panics when the slices differ in length or have fewer than two items.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must align");
    assert!(a.len() >= 2, "need at least two items to rank");
    let n = a.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let total = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ci_brackets_the_mean() {
        let samples = [0.2, 0.25, 0.22, 0.28, 0.21, 0.24];
        let ci = bootstrap_mean_ci(&samples, 0.95, 2000, 1);
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!(ci.lo >= 0.2 - 1e-12 && ci.hi <= 0.28 + 1e-12);
    }

    #[test]
    fn ci_narrows_with_tight_data() {
        let tight = [0.5, 0.5, 0.5, 0.5];
        let ci = bootstrap_mean_ci(&tight, 0.95, 500, 2);
        assert!((ci.hi - ci.lo).abs() < 1e-12);
        assert_eq!(ci.mean, 0.5);
    }

    #[test]
    fn ci_deterministic_per_seed() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let a = bootstrap_mean_ci(&samples, 0.9, 500, 7);
        let b = bootstrap_mean_ci(&samples, 0.9, 500, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn tau_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&a, &b) - 1.0).abs() < 1e-12);
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&a, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_partial_agreement() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 3.0, 2.0];
        // 2 concordant, 1 discordant of 3 pairs.
        assert!((kendall_tau(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn tau_bounded_and_symmetric(
            a in proptest::collection::vec(-10.0f64..10.0, 2..20),
            seed in any::<u64>()
        ) {
            // Build b as a seeded shuffle-ish transform of a.
            let b: Vec<f64> = a.iter().enumerate()
                .map(|(i, v)| v * if (seed >> (i % 60)) & 1 == 1 { 1.0 } else { -1.0 })
                .collect();
            let t = kendall_tau(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&t));
            prop_assert!((kendall_tau(&b, &a) - t).abs() < 1e-12);
            prop_assert!((kendall_tau(&a, &a) - 1.0).abs() < 1e-12
                         || a.windows(2).any(|w| w[0] == w[1]));
        }

        #[test]
        fn ci_always_brackets(samples in proptest::collection::vec(0.0f64..1.0, 2..15)) {
            let ci = bootstrap_mean_ci(&samples, 0.9, 200, 3);
            prop_assert!(ci.lo <= ci.mean + 1e-9);
            prop_assert!(ci.hi >= ci.mean - 1e-9);
        }
    }
}
