//! FD-based error detection.
//!
//! The paper converts approximate-FD structure into per-tuple dirty
//! probabilities (§A.1 "Detecting Errors"): for an FD with scaled violation
//! measure `m`, a *violating* pair is dirty with probability `1 − m`, a
//! *satisfying* pair with probability `m`. With belief confidence
//! `c ≈ 1 − m` (the believed probability that the FD holds), a violation of
//! an FD believed with confidence `c` indicates an error with probability
//! ≈ `c`.
//!
//! Beliefs cover a whole hypothesis space, so per-FD indications are
//! combined by **noisy-OR over the violated FDs**:
//!
//! ```text
//! p_dirty(x) = 1 − (1 − base_rate) · Π_{f : x violates f} (1 − ind(c_f))
//! ```
//!
//! At tuple granularity only *minority-value* violators are indicted: when
//! a group disagrees on the RHS, majority consensus says the rows carrying
//! the rarer values are the likely errors (pair granularity cannot tell the
//! sides apart — paper Example 2 — but tuple-level detection can and
//! should). Violations *accumulate* evidence of dirtiness; satisfying
//! relations leave the ambient `base_rate` in place (their `m` residual never crosses
//! a labeling threshold anyway). A weighted *average* would instead let a
//! tuple's many satisfied FDs outvote a confident violation — diluting
//! exactly the evidence detection exists to surface. The indicator `ind`
//! ([`Indicator`], a sigmoid gate by default) makes weakly-believed FDs
//! contribute marginally, so a disbelieved FD cannot implicate tuples;
//! [`Indicator::Linear`] with `base_rate = m` recovers the paper's
//! single-FD formula.

#![expect(
    clippy::indexing_slicing,
    reason = "FD ids range over the index's or the space's own FDs, and each public entry asserts that confidences.len() equals that FD count before indexing confidences or the factors built from it"
)]

use et_data::Table;

use crate::relmatrix::violation_factors_into;
use crate::space::HypothesisSpace;
use crate::violations::{pair_relation, PairRelation, ViolationIndex};

/// How a belief confidence turns into an error indicator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Indicator {
    /// `ind(c) = c` — the paper's raw formula (`1 − m` for a violating
    /// pair of an FD with violation measure `m = 1 − c`).
    Linear,
    /// `ind(c) = σ((c − pivot)/slope)` — a sharp gate: only FDs believed to
    /// hold nearly exactly implicate tuples. Necessary over hypothesis
    /// spaces that deliberately contain weak FDs: a typical tuple violates
    /// *many* of them, and linear indicators would saturate the noisy-OR
    /// (every tuple flagged dirty, precision = base rate).
    Sigmoid {
        /// Confidence at which the indicator is 0.5.
        pivot: f64,
        /// Transition width.
        slope: f64,
    },
}

impl Indicator {
    /// Applies the indicator to a confidence.
    pub fn apply(&self, c: f64) -> f64 {
        match self {
            Indicator::Linear => c.clamp(0.0, 1.0),
            Indicator::Sigmoid { pivot, slope } => 1.0 / (1.0 + ((pivot - c) / slope).exp()),
        }
    }
}

/// Parameters of the noisy-OR detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectParams {
    /// The ambient probability that an arbitrary tuple is dirty.
    pub base_rate: f64,
    /// The confidence-to-indicator transform.
    pub indicator: Indicator,
}

impl Default for DetectParams {
    fn default() -> Self {
        Self {
            base_rate: 0.1,
            indicator: Indicator::Sigmoid {
                pivot: 0.85,
                slope: 0.04,
            },
        }
    }
}

impl DetectParams {
    /// The paper's raw single-FD formula: `p = c` for a violating pair (no
    /// ambient rate, linear confidence).
    pub fn unsmoothed() -> Self {
        Self {
            base_rate: 0.0,
            indicator: Indicator::Linear,
        }
    }
}

/// Noisy-OR combination given the confidences of the violated FDs.
fn noisy_or(violated_confs: impl Iterator<Item = f64>, params: &DetectParams) -> f64 {
    let mut keep_clean = 1.0 - params.base_rate;
    for c in violated_confs {
        keep_clean *= 1.0 - params.indicator.apply(c);
    }
    1.0 - keep_clean
}

/// The belief-weighted probability that `row` is dirty, with default
/// parameters.
pub fn tuple_dirty_prob(index: &ViolationIndex, confidences: &[f64], row: usize) -> f64 {
    tuple_dirty_prob_with(index, confidences, row, &DetectParams::default())
}

/// The belief-weighted probability that `row` is dirty.
///
/// `confidences[f]` is the believed probability that FD `f` of the indexed
/// space holds. The noisy-OR multiplies `1 − ind(c_f)` over the FDs on
/// whose minority side `row` sits, in ascending FD order — a bit-scan of
/// the row's packed tuple codes.
///
/// # Panics
/// Panics when `confidences.len()` differs from the index's FD count.
pub fn tuple_dirty_prob_with(
    index: &ViolationIndex,
    confidences: &[f64],
    row: usize,
    params: &DetectParams,
) -> f64 {
    assert_eq!(
        confidences.len(),
        index.n_fds(),
        "confidence vector does not match hypothesis space"
    );
    let keep = index.fold_minority(row, 1.0 - params.base_rate, |fi| {
        1.0 - params.indicator.apply(confidences[fi])
    });
    1.0 - keep
}

/// Belief-weighted dirty probabilities for both tuples of the pair
/// `(a, b)`, using only the pair's own evidence (the information a trainer
/// inspecting the presented pair has), with default parameters.
///
/// Both tuples of a pair receive the same probability — an FD violation
/// cannot tell which side is erroneous (paper Example 2).
pub fn pair_dirty_probs(
    table: &Table,
    space: &HypothesisSpace,
    confidences: &[f64],
    a: usize,
    b: usize,
) -> (f64, f64) {
    pair_dirty_probs_with(table, space, confidences, a, b, &DetectParams::default())
}

/// [`pair_dirty_probs`] with explicit parameters.
///
/// # Panics
/// Panics when `confidences` does not have one entry per FD of `space`.
pub fn pair_dirty_probs_with(
    table: &Table,
    space: &HypothesisSpace,
    confidences: &[f64],
    a: usize,
    b: usize,
    params: &DetectParams,
) -> (f64, f64) {
    assert_eq!(
        confidences.len(),
        space.len(),
        "confidence vector does not match hypothesis space"
    );
    let p = noisy_or(
        space
            .iter()
            .filter(|(_, fd)| pair_relation(table, fd, a, b) == PairRelation::Violates)
            .map(|(fi, _)| confidences[fi]),
        params,
    );
    (p, p)
}

/// Predicts dirty labels (`true` = dirty) for `rows` by thresholding
/// [`tuple_dirty_prob`] at `0.5`.
///
/// The keep-clean factors `1 − ind(c_f)` are computed once per call (one
/// indicator per FD, not one per violated (row, FD)) and every row folds
/// them over its minority lanes — the same factors in the same order as
/// [`tuple_dirty_prob`], so the labels are bit-identical to it.
///
/// # Panics
/// Panics when `confidences.len()` differs from the index's FD count.
pub fn predict_labels(index: &ViolationIndex, confidences: &[f64], rows: &[usize]) -> Vec<bool> {
    assert_eq!(
        confidences.len(),
        index.n_fds(),
        "confidence vector does not match hypothesis space"
    );
    let params = DetectParams::default();
    let mut factors = vec![0.0; confidences.len()];
    violation_factors_into(confidences, &params, &mut factors);
    let keep0 = 1.0 - params.base_rate;
    rows.iter()
        .map(|&r| 1.0 - index.fold_minority(r, keep0, |fi| factors[fi]) > 0.5)
        .collect()
}

/// Binary entropy of a probability, in nats — the paper's uncertainty
/// measure `entropy(x, θ) = −p ln p − (1−p) ln(1−p)`.
pub fn binary_entropy(p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let mut h = 0.0;
    if p > 0.0 {
        h -= p * p.ln();
    }
    if p < 1.0 {
        h -= (1.0 - p) * (1.0 - p).ln();
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use et_data::table::paper_table1;
    use proptest::prelude::*;

    fn team_city_space() -> HypothesisSpace {
        HypothesisSpace::from_fds([Fd::from_attrs([1], 2)])
    }

    #[test]
    fn unsmoothed_matches_paper_formula() {
        let t = paper_table1();
        let space = team_city_space();
        let idx = ViolationIndex::build(&t, &space);
        let conf = [0.96];
        let raw = DetectParams::unsmoothed();
        // t1, t2 violate Team -> City: dirty with probability 0.96 = 1 - m.
        assert!((tuple_dirty_prob_with(&idx, &conf, 0, &raw) - 0.96).abs() < 1e-12);
        assert!((tuple_dirty_prob_with(&idx, &conf, 1, &raw) - 0.96).abs() < 1e-12);
        // Satisfying / irrelevant tuples: no violated FD, no ambient rate.
        assert_eq!(tuple_dirty_prob_with(&idx, &conf, 2, &raw), 0.0);
        assert_eq!(tuple_dirty_prob_with(&idx, &conf, 4, &raw), 0.0);
        // With the ambient rate set to the violation measure m, satisfying
        // tuples get the paper's `m` as well.
        let with_m = DetectParams {
            base_rate: 0.04,
            indicator: Indicator::Linear,
        };
        assert!((tuple_dirty_prob_with(&idx, &conf, 2, &with_m) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn violation_beats_satisfactions_elsewhere() {
        // A tuple violating one strong FD while satisfying another strong
        // FD is still dirty — violations must not be averaged away.
        let t = paper_table1();
        let space = HypothesisSpace::from_fds([Fd::from_attrs([1], 2), Fd::from_attrs([2, 3], 4)]);
        let idx = ViolationIndex::build(&t, &space);
        // Row 1 (t2) violates Team -> City and satisfies City,Role -> Apps.
        let p = tuple_dirty_prob(&idx, &[0.9, 0.9], 1);
        assert!(p > 0.5, "violating tuple must stay dirty: {p}");
    }

    #[test]
    fn disbelieved_fd_does_not_implicate() {
        let t = paper_table1();
        let space = team_city_space();
        let idx = ViolationIndex::build(&t, &space);
        // Violating pair of a weakly-believed FD: not dirty.
        let p = tuple_dirty_prob(&idx, &[0.3], 0);
        assert!(p < 0.5, "weak belief cannot implicate: {p}");
        // Satisfying pair of a disbelieved FD: base rate only.
        let p = tuple_dirty_prob(&idx, &[0.15], 2);
        assert!((p - 0.1).abs() < 1e-9);
    }

    #[test]
    fn multiple_violations_accumulate() {
        let t = paper_table1();
        let space = HypothesisSpace::from_fds([Fd::from_attrs([1], 2), Fd::from_attrs([1], 3)]);
        let idx = ViolationIndex::build(&t, &space);
        // Row 0 violates both Team -> City and Team -> Role.
        let single = tuple_dirty_prob(&idx, &[0.6, 0.0], 0);
        let double = tuple_dirty_prob(&idx, &[0.6, 0.6], 0);
        assert!(double > single, "{double} vs {single}");
    }

    #[test]
    fn predict_labels_thresholds() {
        let t = paper_table1();
        let space = team_city_space();
        let idx = ViolationIndex::build(&t, &space);
        let labels = predict_labels(&idx, &[0.9], &[0, 1, 2, 3, 4]);
        assert_eq!(labels, vec![true, true, false, false, false]);
    }

    #[test]
    fn pair_probs_match_paper_example_2() {
        let t = paper_table1();
        let space = team_city_space();
        let raw = DetectParams::unsmoothed();
        let (pa, pb) = pair_dirty_probs_with(&t, &space, &[0.96], 0, 1, &raw);
        assert!((pa - 0.96).abs() < 1e-12);
        assert_eq!(pa, pb);
        let (pc, _) = pair_dirty_probs_with(&t, &space, &[0.96], 2, 3, &raw);
        assert_eq!(pc, 0.0);
        let (pd, _) = pair_dirty_probs_with(&t, &space, &[0.96], 0, 4, &raw);
        assert_eq!(pd, 0.0);
    }

    #[test]
    fn smoothed_pair_probs_decide_like_raw_for_confident_fds() {
        let t = paper_table1();
        let space = team_city_space();
        let (pv, _) = pair_dirty_probs(&t, &space, &[0.96], 0, 1);
        let (ps, _) = pair_dirty_probs(&t, &space, &[0.96], 2, 3);
        assert!(pv > 0.5);
        assert!(ps < 0.5);
        let (pi, _) = pair_dirty_probs(&t, &space, &[0.96], 0, 4);
        assert!((pi - 0.1).abs() < 1e-12, "irrelevant pair -> base rate");
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        let max = binary_entropy(0.5);
        assert!((max - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(binary_entropy(0.3) < max);
    }

    proptest! {
        #[test]
        fn dirty_prob_bounded(confs in proptest::collection::vec(0.0f64..=1.0, 1..4), row in 0usize..5) {
            let t = paper_table1();
            let fds = [Fd::from_attrs([1], 2), Fd::from_attrs([2,3], 4), Fd::from_attrs([1], 3)];
            let space = HypothesisSpace::from_fds(fds.iter().copied().take(confs.len()));
            let idx = ViolationIndex::build(&t, &space);
            for params in [DetectParams::default(), DetectParams::unsmoothed()] {
                let p = tuple_dirty_prob_with(&idx, &confs, row, &params);
                prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
            }
        }

        #[test]
        fn monotone_in_confidence(c1 in 0.0f64..=1.0, c2 in 0.0f64..=1.0) {
            prop_assume!(c1 <= c2);
            let t = paper_table1();
            let space = HypothesisSpace::from_fds([Fd::from_attrs([1], 2)]);
            let idx = ViolationIndex::build(&t, &space);
            // Row 0 violates the FD: more confidence -> more dirty.
            let p1 = tuple_dirty_prob(&idx, &[c1], 0);
            let p2 = tuple_dirty_prob(&idx, &[c2], 0);
            prop_assert!(p1 <= p2 + 1e-12);
        }

        #[test]
        fn entropy_bounded(p in 0.0f64..=1.0) {
            let h = binary_entropy(p);
            prop_assert!(h >= 0.0);
            prop_assert!(h <= std::f64::consts::LN_2 + 1e-12);
        }
    }
}
