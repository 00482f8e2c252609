//! Threshold-free detector evaluation: ROC AUC.
//!
//! Figure 7 thresholds the detector at 0.5; ranking metrics evaluate the
//! scores themselves, which is how modern error-detection work (HoloDetect
//! et al.) reports quality and removes the threshold knob from comparisons.

#![expect(
    clippy::indexing_slicing,
    reason = "idx is a permutation of 0..scores.len(), the length of ranks and (asserted on entry) of truth, and the tie scan keeps i <= j < idx.len()"
)]

/// Area under the ROC curve for scores against binary ground truth
/// (`true` = positive/dirty). Computed via the Mann–Whitney statistic with
/// midrank tie handling. Returns 0.5 when either class is empty
/// (no ranking information).
///
/// # Panics
/// Panics when the slices differ in length.
pub fn roc_auc(scores: &[f64], truth: &[bool]) -> f64 {
    assert_eq!(scores.len(), truth.len(), "scores/labels length mismatch");
    let pos = truth.iter().filter(|&&t| t).count();
    let neg = truth.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    // Midranks.
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        #[expect(
            clippy::float_cmp,
            reason = "a tie is exact equality of scores; total_cmp would split +0.0 from -0.0"
        )]
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = midrank;
        }
        i = j + 1;
    }
    let rank_sum: f64 = truth
        .iter()
        .zip(&ranks)
        .filter(|(&t, _)| t)
        .map(|(_, &r)| r)
        .sum();
    (rank_sum - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_separation() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let truth = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &truth), 1.0);
    }

    #[test]
    fn inverted_separation() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let truth = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &truth), 0.0);
    }

    #[test]
    fn constant_scores_are_chance() {
        let scores = [0.5; 6];
        let truth = [true, false, true, false, true, false];
        assert!((roc_auc(&scores, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_partial_auc() {
        // One inversion among 2x2: AUC = 3/4.
        let scores = [0.9, 0.4, 0.6, 0.1];
        let truth = [true, true, false, false];
        assert!((roc_auc(&scores, &truth) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_classes() {
        assert_eq!(roc_auc(&[0.5, 0.7], &[true, true]), 0.5);
        assert_eq!(roc_auc(&[0.5, 0.7], &[false, false]), 0.5);
    }

    proptest! {
        #[test]
        fn auc_bounded_and_flip_symmetric(
            scores in proptest::collection::vec(0.0f64..1.0, 2..40),
            seed in any::<u64>()
        ) {
            let truth: Vec<bool> = scores.iter().enumerate()
                .map(|(i, _)| (seed >> (i % 60)) & 1 == 1).collect();
            let auc = roc_auc(&scores, &truth);
            prop_assert!((0.0..=1.0).contains(&auc));
            // Negating the scores flips the AUC around 0.5 (when both
            // classes are present).
            let pos = truth.iter().filter(|&&t| t).count();
            if pos > 0 && pos < truth.len() {
                let negated: Vec<f64> = scores.iter().map(|s| -s).collect();
                prop_assert!((roc_auc(&negated, &truth) - (1.0 - auc)).abs() < 1e-9);
            }
        }
    }
}
