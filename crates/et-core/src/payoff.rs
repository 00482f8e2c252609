//! The game's payoff functions (§2).
//!
//! * Trainer: `u_T(θ, π) = Σ_x θ(π(x) | x)` — the belief-probability of the
//!   labels it gives.
//! * Learner accuracy: `u_a(θ, π) = Σ_x θ(y | x) π(x)` — expected belief-
//!   probability of the trainer's labels under the selection policy.
//! * Learner total: `u_L = u_a − γ Σ_x π(x) ln π(x)` — accuracy plus
//!   γ-weighted policy entropy, rewarding representative, diverse example
//!   sets.

use et_belief::{Belief, LabeledPair};
use et_data::Table;
use et_fd::{binary_entropy, pair_dirty_probs_with, DetectParams};

use crate::game::PairExample;

/// Raw (unsmoothed) pair dirty probabilities under confidences `conf`,
/// scanned from raw cells.
fn pair_probs(table: &Table, belief: &Belief, conf: &[f64], a: usize, b: usize) -> (f64, f64) {
    pair_dirty_probs_with(
        table,
        belief.space(),
        conf,
        a,
        b,
        &DetectParams::unsmoothed(),
    )
}

/// The belief-probability that pair `p` is labeled the way the belief
/// itself would label it: `Σ over the pair's tuples of max(p_dirty,
/// 1 − p_dirty)`. This is the per-example payoff `u_a(θ, x)` the stochastic
/// best response exponentiates.
///
/// Payoff and uncertainty are belief-internal quantities, so they use the
/// paper's raw (unsmoothed) probabilities — an undecided belief must read
/// as maximal uncertainty, not as the ambient base rate.
///
/// This raw-cell definition is the oracle the packed selection path
/// ([`crate::respond`]) is tested against; no runtime path calls it.
pub fn example_confidence(table: &Table, belief: &Belief, p: PairExample) -> f64 {
    let (pa, pb) = pair_probs(table, belief, &belief.confidences(), p.a, p.b);
    pa.max(1.0 - pa) + pb.max(1.0 - pb)
}

/// The paper's uncertainty measure for an example:
/// `entropy(x, θ) = −p ln p − (1−p) ln(1−p)` summed over the pair's tuples,
/// with `p` the raw belief-weighted dirty probability (the test oracle of
/// the packed selection path, like [`example_confidence`]).
pub fn example_uncertainty(table: &Table, belief: &Belief, p: PairExample) -> f64 {
    let (pa, pb) = pair_probs(table, belief, &belief.confidences(), p.a, p.b);
    binary_entropy(pa) + binary_entropy(pb)
}

/// Trainer payoff `u_T`: how strongly the trainer's belief endorses the
/// labels it produced in one interaction.
pub fn trainer_payoff(table: &Table, belief: &Belief, labeled: &[LabeledPair]) -> f64 {
    let conf = belief.confidences();
    labeled
        .iter()
        .map(|l| {
            let (pa, pb) = pair_probs(table, belief, &conf, l.a, l.b);
            let ta = if l.dirty_a { pa } else { 1.0 - pa };
            let tb = if l.dirty_b { pb } else { 1.0 - pb };
            ta + tb
        })
        .sum()
}

/// Learner accuracy payoff `u_a`: expected belief-probability of the
/// trainer's labels under the selection distribution `policy` (aligned with
/// `labeled`).
///
/// # Panics
/// Panics when `policy.len() != labeled.len()`.
pub fn learner_accuracy_payoff(
    table: &Table,
    belief: &Belief,
    labeled: &[LabeledPair],
    policy: &[f64],
) -> f64 {
    assert_eq!(policy.len(), labeled.len(), "policy/labeling mismatch");
    let conf = belief.confidences();
    labeled
        .iter()
        .zip(policy)
        .map(|(l, &pi)| {
            let (pa, pb) = pair_probs(table, belief, &conf, l.a, l.b);
            let ta = if l.dirty_a { pa } else { 1.0 - pa };
            let tb = if l.dirty_b { pb } else { 1.0 - pb };
            (ta + tb) * pi
        })
        .sum()
}

/// Shannon entropy `−Σ π ln π` of a (sub)distribution.
pub fn policy_entropy(policy: &[f64]) -> f64 {
    policy
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// The learner's total payoff `u_L = u_a + γ · entropy(π)` (the paper
/// writes `u_a − γ Σ π ln π`; the subtracted term is negative entropy).
pub fn learner_total_payoff(
    table: &Table,
    belief: &Belief,
    labeled: &[LabeledPair],
    policy: &[f64],
    gamma: f64,
) -> f64 {
    learner_accuracy_payoff(table, belief, labeled, policy) + gamma * policy_entropy(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_belief::Beta;
    use et_data::table::paper_table1;
    use et_fd::{Fd, HypothesisSpace};
    use std::sync::Arc;

    fn belief(conf: f64) -> Belief {
        let space = Arc::new(HypothesisSpace::from_fds([Fd::from_attrs([1], 2)]));
        Belief::constant(space, Beta::from_mean_std(conf, 0.05))
    }

    #[test]
    fn confidence_high_for_decided_pairs() {
        let t = paper_table1();
        let b = belief(0.95);
        // Violating pair (0,1): p_dirty ~ .95 for both -> confidence ~1.9.
        let c = example_confidence(&t, &b, PairExample::new(0, 1));
        assert!(c > 1.85, "got {c}");
        // With a near-uniform belief the pair is ambiguous.
        let b50 = belief(0.5);
        let c50 = example_confidence(&t, &b50, PairExample::new(0, 1));
        assert!(c50 < c, "uncertain belief should be less confident");
    }

    #[test]
    fn uncertainty_complements_confidence() {
        let t = paper_table1();
        let decided = belief(0.95);
        let torn = belief(0.5);
        let p = PairExample::new(0, 1);
        assert!(example_uncertainty(&t, &torn, p) > example_uncertainty(&t, &decided, p));
    }

    #[test]
    fn trainer_payoff_rewards_consistent_labels() {
        let t = paper_table1();
        let b = belief(0.9);
        let consistent = [LabeledPair {
            a: 0,
            b: 1,
            dirty_a: true,
            dirty_b: true,
        }];
        let contrarian = [LabeledPair {
            a: 0,
            b: 1,
            dirty_a: false,
            dirty_b: false,
        }];
        assert!(trainer_payoff(&t, &b, &consistent) > trainer_payoff(&t, &b, &contrarian));
    }

    #[test]
    fn policy_entropy_peaks_uniform() {
        let uniform = [0.25; 4];
        let peaked = [0.97, 0.01, 0.01, 0.01];
        assert!(policy_entropy(&uniform) > policy_entropy(&peaked));
        assert_eq!(policy_entropy(&[1.0]), 0.0);
        assert!((policy_entropy(&uniform) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn total_payoff_adds_entropy_bonus() {
        let t = paper_table1();
        let b = belief(0.9);
        let labeled = [
            LabeledPair {
                a: 0,
                b: 1,
                dirty_a: true,
                dirty_b: true,
            },
            LabeledPair {
                a: 2,
                b: 3,
                dirty_a: false,
                dirty_b: false,
            },
        ];
        let uniform = [0.5, 0.5];
        let ua = learner_accuracy_payoff(&t, &b, &labeled, &uniform);
        let ul = learner_total_payoff(&t, &b, &labeled, &uniform, 0.5);
        assert!((ul - (ua + 0.5 * policy_entropy(&uniform))).abs() < 1e-12);
        // gamma = 0 removes the bonus.
        assert!((learner_total_payoff(&t, &b, &labeled, &uniform, 0.0) - ua).abs() < 1e-12);
    }
}
