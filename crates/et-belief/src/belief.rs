//! Agent beliefs: one Beta per FD of a shared hypothesis space.

#![expect(
    clippy::indexing_slicing,
    reason = "hypothesis ids index the per-hypothesis Beta vector; both are sized from the same HypothesisSpace at construction and ids never outlive their space"
)]

use std::sync::Arc;

use et_fd::{invariant, Fd, HypothesisSpace};

use crate::beta::Beta;

/// An agent's belief about the target model: for every FD of the hypothesis
/// space, a Beta distribution over the probability that the FD holds.
#[derive(Debug, Clone)]
pub struct Belief {
    space: Arc<HypothesisSpace>,
    params: Vec<Beta>,
}

impl Belief {
    /// Builds a belief from explicit per-FD distributions.
    ///
    /// # Panics
    /// Panics when `params.len()` differs from the space size.
    pub fn new(space: Arc<HypothesisSpace>, params: Vec<Beta>) -> Self {
        assert_eq!(
            params.len(),
            space.len(),
            "one Beta per hypothesis-space FD required"
        );
        Self { space, params }
    }

    /// A belief assigning every FD the same distribution.
    pub fn constant(space: Arc<HypothesisSpace>, b: Beta) -> Self {
        let params = vec![b; space.len()];
        Self { space, params }
    }

    /// The shared hypothesis space.
    pub fn space(&self) -> &Arc<HypothesisSpace> {
        &self.space
    }

    /// Number of FDs covered.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the belief covers no FDs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The distribution for FD `idx`.
    pub fn dist(&self, idx: usize) -> &Beta {
        &self.params[idx]
    }

    /// Mutable distribution for FD `idx`.
    pub fn dist_mut(&mut self, idx: usize) -> &mut Beta {
        &mut self.params[idx]
    }

    /// The believed confidence (posterior mean) that FD `idx` holds.
    pub fn confidence(&self, idx: usize) -> f64 {
        self.params[idx].mean()
    }

    /// The full confidence vector, FD-indexed.
    pub fn confidences(&self) -> Vec<f64> {
        self.params.iter().map(Beta::mean).collect()
    }

    /// Bayesian evidence for FD `idx`: `successes` supporting observations,
    /// `failures` contradicting ones.
    pub fn observe(&mut self, idx: usize, successes: f64, failures: f64) {
        self.params[idx].observe(successes, failures);
        invariant!(
            (0.0..=1.0).contains(&self.params[idx].mean()),
            "confidence for FD {idx} escaped [0, 1] after observe"
        );
    }

    /// Discounts every distribution's pseudo-counts by `lambda` ∈ (0, 1] —
    /// *discounted fictitious play* (Fudenberg & Levine; Young 2004):
    /// recent observations dominate, old evidence decays geometrically.
    /// Means are preserved; certainty shrinks. The paper's introduction
    /// motivates exactly this for annotators facing "rapid and frequent
    /// data evolution".
    ///
    /// # Panics
    /// Panics when `lambda` is outside `(0, 1]`.
    pub fn discount(&mut self, lambda: f64) {
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "discount factor must be in (0, 1], got {lambda}"
        );
        if lambda >= 1.0 {
            return;
        }
        for p in &mut self.params {
            // Keep a minimal floor so the Beta stays proper.
            let scaled = p.scaled(lambda);
            *p = crate::beta::Beta::new(scaled.alpha.max(0.05), scaled.beta.max(0.05));
        }
        invariant!(
            self.params.iter().all(|p| p.alpha > 0.0
                && p.beta > 0.0
                && p.alpha.is_finite()
                && p.beta.is_finite()),
            "discount left an improper Beta"
        );
    }

    /// The `k` most-confident FDs as `(index, confidence)`, descending, ties
    /// broken by index for determinism.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> =
            self.params.iter().map(Beta::mean).enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// The single most-confident FD.
    pub fn top_fd(&self) -> (usize, Fd) {
        let (idx, _) = self.top_k(1)[0];
        (idx, self.space.fd(idx))
    }

    /// Mean absolute error between two beliefs' confidence vectors — the
    /// convergence metric of the paper's Figures 1 and 3–6.
    ///
    /// # Panics
    /// Panics when the beliefs cover different space sizes.
    pub fn mae(&self, other: &Belief) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "beliefs must share a hypothesis space"
        );
        let sum: f64 = self
            .params
            .iter()
            .zip(&other.params)
            .map(|(a, b)| (a.mean() - b.mean()).abs())
            .sum();
        sum / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_fd::Fd;

    fn space3() -> Arc<HypothesisSpace> {
        Arc::new(HypothesisSpace::from_fds([
            Fd::from_attrs([0], 1),
            Fd::from_attrs([0], 2),
            Fd::from_attrs([1], 2),
        ]))
    }

    #[test]
    fn confidence_and_ranking() {
        let s = space3();
        let b = Belief::new(
            s,
            vec![
                Beta::from_mean_std(0.2, 0.05),
                Beta::from_mean_std(0.9, 0.05),
                Beta::from_mean_std(0.5, 0.05),
            ],
        );
        assert!((b.confidence(1) - 0.9).abs() < 1e-9);
        let top = b.top_k(2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
        assert_eq!(b.top_fd().0, 1);
    }

    #[test]
    fn mae_between_beliefs() {
        let s = space3();
        let a = Belief::constant(s.clone(), Beta::from_mean_std(0.5, 0.05));
        let mut b = a.clone();
        assert_eq!(a.mae(&b), 0.0);
        b.observe(0, 100.0, 0.0); // push fd0 confidence up
        let mae = a.mae(&b);
        assert!(mae > 0.0 && mae < 0.2);
    }

    #[test]
    fn observe_changes_only_target() {
        let s = space3();
        let mut b = Belief::constant(s, Beta::uniform());
        b.observe(1, 5.0, 0.0);
        assert!(b.confidence(1) > b.confidence(0));
        assert_eq!(b.confidence(0), b.confidence(2));
    }

    #[test]
    #[should_panic(expected = "one Beta per")]
    fn size_mismatch_rejected() {
        let s = space3();
        let _ = Belief::new(s, vec![Beta::uniform()]);
    }
}

#[cfg(test)]
mod discount_tests {
    use super::*;
    use crate::beta::Beta;
    use et_fd::{Fd, HypothesisSpace};

    #[test]
    fn discount_preserves_means_and_widens() {
        let space = Arc::new(HypothesisSpace::from_fds([
            Fd::from_attrs([0], 1),
            Fd::from_attrs([1], 0),
        ]));
        let mut b = Belief::new(space, vec![Beta::new(80.0, 20.0), Beta::new(5.0, 15.0)]);
        let means = b.confidences();
        let var_before: Vec<f64> = (0..2).map(|i| b.dist(i).variance()).collect();
        b.discount(0.5);
        for (m, m2) in means.iter().zip(b.confidences()) {
            assert!((m - m2).abs() < 1e-9, "mean moved: {m} -> {m2}");
        }
        for (i, v) in var_before.iter().enumerate() {
            assert!(b.dist(i).variance() > *v, "variance should grow");
        }
        // Repeated discounting floors out instead of dying.
        for _ in 0..50 {
            b.discount(0.5);
        }
        assert!(b.dist(0).alpha >= 0.05 && b.dist(0).beta >= 0.05);
    }

    #[test]
    fn unit_discount_is_noop() {
        let space = Arc::new(HypothesisSpace::from_fds([Fd::from_attrs([0], 1)]));
        let mut b = Belief::new(space, vec![Beta::new(3.0, 7.0)]);
        b.discount(1.0);
        assert_eq!(b.dist(0).alpha, 3.0);
        assert_eq!(b.dist(0).beta, 7.0);
    }

    #[test]
    #[should_panic(expected = "discount factor")]
    fn invalid_discount_rejected() {
        let space = Arc::new(HypothesisSpace::from_fds([Fd::from_attrs([0], 1)]));
        let mut b = Belief::new(space, vec![Beta::uniform()]);
        b.discount(0.0);
    }
}
