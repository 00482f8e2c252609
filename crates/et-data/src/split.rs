//! Deterministic train/test splits.
//!
//! The paper separates 30% of each dataset as a test set and computes the F1
//! score of the learner's labeling on it (Appendix C.1, Evaluation Metrics).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Splits `0..n` into `(train, test)` row-index sets with `test_frac` of the
/// rows in the test set, deterministically from `seed`.
///
/// Both sides are returned sorted so downstream iteration order is stable.
///
/// # Panics
/// Panics if `test_frac` is outside `[0, 1]`.
pub fn split_rows(n: usize, test_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&test_frac),
        "test_frac must be in [0, 1], got {test_frac}"
    );
    let mut rows: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f);
    rows.shuffle(&mut rng);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "test_frac is asserted to lie in [0, 1], so n * test_frac lies in [0, n]"
    )]
    let n_test = (n as f64 * test_frac).round() as usize;
    let (test, train) = rows.split_at(n_test.min(n));
    let mut train = train.to_vec();
    let mut test = test.to_vec();
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_complete_and_disjoint() {
        let (train, test) = split_rows(100, 0.3, 42);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(split_rows(50, 0.3, 7), split_rows(50, 0.3, 7));
        assert_ne!(split_rows(50, 0.3, 7).1, split_rows(50, 0.3, 8).1);
    }

    #[test]
    fn extreme_fractions() {
        let (train, test) = split_rows(10, 0.0, 1);
        assert_eq!(train.len(), 10);
        assert!(test.is_empty());
        let (train, test) = split_rows(10, 1.0, 1);
        assert!(train.is_empty());
        assert_eq!(test.len(), 10);
    }

    #[test]
    fn empty_input_ok() {
        let (train, test) = split_rows(0, 0.3, 1);
        assert!(train.is_empty() && test.is_empty());
    }
}
