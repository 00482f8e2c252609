//! Response strategies — how the learner picks which pairs to present.
//!
//! The paper compares:
//!
//! * **Fixed Random Sampling** — uniform over candidates (the baseline);
//! * **Uncertainty Sampling (US)** — the classic active-learning heuristic:
//!   deterministically take the most-uncertain examples;
//! * **Stochastic Best Response** — the proposed strategy: sample
//!   `x ∝ exp(u_a(θ, x) / γ)`, the logit best response of stochastic
//!   fictitious play (Proposition 1's learner);
//! * **Stochastic Uncertainty Sampling** — uncertainty in place of `u_a`
//!   inside the softmax: `x ∝ exp(entropy(x, θ) / γ)` (approximates US as
//!   γ → 0).
//!
//! Two extras round out the design space for ablations: deterministic
//! `Best` (greedy `u_a`, the trainer-side best response of Proposition 1)
//! and `ThompsonSampling` (score under a posterior draw instead of the
//! posterior mean).

#![expect(
    clippy::indexing_slicing,
    reason = "candidates are pool ids < n_pairs of the scorer's matrix (FreshCandidates::new takes them from that matrix's pair list), so dirty[id]/pairs[id] are in range; score vectors are allocated per candidate list and indexed by positions from the same list, and class keys index the per-class values the scorer built for that same list; top_k and softmax sampling never index past the values they just built"
)]

use std::cell::RefCell;

use et_belief::Belief;
use et_fd::{
    binary_entropy, invariant, tuple_dirty_prob_with, DeltaScorer, DetectParams, ViolationIndex,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::topk::BoundedTopK;

/// Everything a response strategy scores from.
///
/// Candidates are pool ids, and a pool id *is* the pair id of the pool's
/// [`et_fd::RelationMatrix`] (`scorer.matrix()`, built over the pool in
/// pool order). There is one runtime scoring path: packed relations
/// folded by the delta-rescoring `scorer`. The raw-cell definitions
/// ([`crate::payoff::example_confidence`],
/// [`crate::payoff::example_uncertainty`], [`et_fd::pair_dirty_probs`])
/// remain as the test oracle the packed path is pinned against.
#[derive(Debug, Clone, Copy)]
pub struct ScoreCtx<'a> {
    /// Dataset-wide violation index, for [`ScoreBasis::DatasetTuple`].
    pub index: &'a ViolationIndex,
    /// Session-lifetime delta-rescoring cache over the pool's relation
    /// matrix. It keeps only the candidates it is asked about current, so
    /// each selection through one scorer must pass a subset of the
    /// candidates of every earlier one (see [`et_fd::DeltaScorer`]).
    /// `RefCell` because a context is shared by value within one
    /// single-threaded selection.
    pub scorer: &'a RefCell<DeltaScorer>,
}

/// One round's selection: the picks drawn from the learner's policy
/// `π_t^L = R^L(θ_t^L)` and that policy's entropy.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The picked candidates (pool ids), in pick order.
    pub picks: Vec<u32>,
    /// Shannon entropy of the policy the picks were drawn from.
    pub h_policy: f64,
}

/// What the per-example scores are computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreBasis {
    /// Pair-local probabilities: the pair's own violated FDs feed the
    /// score — the paper's `entropy(x, θ_t)` adapted to pair selection
    /// (§C.1 modifies every method to pick pairs). This is the default and
    /// reproduces the paper's Figure 1/3 contrast: a learner with a wrong
    /// prior systematically mis-scores which pairs are uncertain and
    /// deterministic US degrades below Random, while with an informed prior
    /// US is the sharpest method.
    PairLocal,
    /// Dataset-wide tuple probabilities: `p(clean | θ)` of each tuple
    /// judged against the *whole* dataset's violation structure (ablation;
    /// requires a [`ViolationIndex`]).
    DatasetTuple,
}

/// Which selection rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Uniform over candidates (the paper's `Random`).
    Random,
    /// Deterministic top-k by uncertainty (the paper's `US`).
    UncertaintySampling,
    /// Softmax over `u_a / γ` (the paper's `StochasticBR`).
    StochasticBestResponse,
    /// Softmax over `entropy / γ` (the paper's `StochasticUS`).
    StochasticUncertainty,
    /// Deterministic top-k by `u_a` (greedy best response).
    Best,
    /// Greedy `u_a` under a Thompson draw from the belief posterior.
    ThompsonSampling,
    /// Top-k by analytic committee disagreement: the summed posterior
    /// variance of the FDs the pair violates (the closed-form limit of
    /// query-by-committee with Thompson-drawn committee members).
    CommitteeDisagreement,
    /// Uncertainty weighted by representativeness (how many hypotheses the
    /// pair can inform) — the classic density-weighted US variant.
    DensityWeightedUncertainty,
}

impl StrategyKind {
    /// The four methods compared in the paper's empirical study, in its
    /// reporting order.
    pub const PAPER_METHODS: [StrategyKind; 4] = [
        StrategyKind::Random,
        StrategyKind::UncertaintySampling,
        StrategyKind::StochasticBestResponse,
        StrategyKind::StochasticUncertainty,
    ];

    /// Display name matching the paper.
    pub fn as_str(&self) -> &'static str {
        match self {
            StrategyKind::Random => "Random",
            StrategyKind::UncertaintySampling => "US",
            StrategyKind::StochasticBestResponse => "StochasticBR",
            StrategyKind::StochasticUncertainty => "StochasticUS",
            StrategyKind::Best => "Best",
            StrategyKind::ThompsonSampling => "Thompson",
            StrategyKind::CommitteeDisagreement => "Committee",
            StrategyKind::DensityWeightedUncertainty => "DensityUS",
        }
    }

    /// Parses a display name (as produced by [`StrategyKind::as_str`])
    /// back into the strategy; used by external drivers naming strategies
    /// over the wire.
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        let all = [
            StrategyKind::Random,
            StrategyKind::UncertaintySampling,
            StrategyKind::StochasticBestResponse,
            StrategyKind::StochasticUncertainty,
            StrategyKind::Best,
            StrategyKind::ThompsonSampling,
            StrategyKind::CommitteeDisagreement,
            StrategyKind::DensityWeightedUncertainty,
        ];
        all.into_iter().find(|k| k.as_str() == name)
    }

    /// The extension strategies beyond the paper's four (for ablations).
    pub const EXTENSIONS: [StrategyKind; 4] = [
        StrategyKind::Best,
        StrategyKind::ThompsonSampling,
        StrategyKind::CommitteeDisagreement,
        StrategyKind::DensityWeightedUncertainty,
    ];
}

/// A configured response strategy.
#[derive(Debug, Clone, Copy)]
pub struct ResponseStrategy {
    /// The selection rule.
    pub kind: StrategyKind,
    /// Softmax temperature γ (> 0); the paper uses 0.5. Lower is greedier.
    pub gamma: f64,
    /// What the scores are computed from.
    pub basis: ScoreBasis,
}

impl ResponseStrategy {
    /// Builds a strategy; γ must be positive.
    ///
    /// # Panics
    /// Panics when `gamma` is not positive.
    pub fn new(kind: StrategyKind, gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        Self {
            kind,
            gamma,
            basis: ScoreBasis::PairLocal,
        }
    }

    /// The paper's configuration (γ = 0.5, pair-local scoring).
    pub fn paper(kind: StrategyKind) -> Self {
        Self::new(kind, 0.5)
    }

    /// Overrides the score basis (ablation).
    #[must_use]
    pub fn with_basis(mut self, basis: ScoreBasis) -> Self {
        self.basis = basis;
        self
    }

    /// One selection pass: scores the fresh `candidates` (pool ids, in
    /// pool order) once, builds the policy over them once, and draws up to
    /// `k` distinct picks from it.
    ///
    /// The policy is uniform for `Random`, the softmax of the scores at
    /// temperature γ for the stochastic kinds, and uniform over the top-k
    /// support for the deterministic kinds, whose support *is* the picks.
    /// Thompson's policy is the top-k under the posterior mean; its picks
    /// are the top-k under one posterior draw, scored after the mean.
    /// Deterministic kinds break score ties by candidate order; stochastic
    /// kinds consume `rng`. An empty candidate list or `k = 0` picks
    /// nothing, with zero entropy.
    ///
    /// Pair-local scores are a function of the pair's violation class
    /// ([`et_fd::RelationMatrix::class_ids`]), so they are mapped, and the
    /// softmax built, once per class present; every sum still adds per
    /// candidate in candidate order, so the picks and `h_policy` are those
    /// of the per-candidate computation, bit for bit.
    pub fn select_round(
        &self,
        ctx: ScoreCtx<'_>,
        belief: &Belief,
        candidates: &[u32],
        k: usize,
        rng: &mut StdRng,
    ) -> Selection {
        let n = candidates.len();
        if n == 0 || k == 0 {
            return Selection {
                picks: Vec::new(),
                h_policy: 0.0,
            };
        }
        let k = k.min(n);
        if self.kind == StrategyKind::Random {
            let mut picks = candidates.to_vec();
            picks.shuffle(rng);
            picks.truncate(k);
            return Selection {
                picks,
                h_policy: uniform_entropy(n),
            };
        }
        // Thompson's policy is uniform over the posterior-mean top-k, so
        // only its size `k` matters and the mean is never scored. One
        // posterior draw per interaction: its picks score confidence under
        // the sampled confidence vector.
        let draw: Option<Vec<f64>> = (self.kind == StrategyKind::ThompsonSampling).then(|| {
            (0..belief.len())
                .map(|i| belief.dist(i).sample(rng))
                .collect()
        });
        let mut scorer = ctx.scorer.borrow_mut();
        let (positions, h_policy) = match self.pair_local_params(draw.is_some()) {
            Some(params) => {
                let conf = draw.unwrap_or_else(|| belief.confidences());
                let classes = scorer.class_scores_for(candidates, &conf, &params);
                for v in classes.dirty.iter_mut() {
                    *v = self.pair_local_score(*v);
                }
                let keys = classes.keys;
                self.policy(
                    n,
                    |i| keys[i] as usize,
                    classes.dirty,
                    classes.spare,
                    k,
                    rng,
                )
            }
            None => {
                let mut scores = self.candidate_scores(
                    ctx.index,
                    &mut scorer,
                    belief,
                    candidates,
                    draw.as_deref(),
                );
                let mut spare = vec![0.0; n];
                self.policy(n, |i| i, &mut scores, &mut spare, k, rng)
            }
        };
        Selection {
            picks: positions.into_iter().map(|i| candidates[i]).collect(),
            h_policy,
        }
    }

    /// The policy over `n` candidates whose scores are keyed: candidate
    /// `i` scores `values[key(i)]`. Returns the picked positions and the
    /// policy entropy; the stochastic kinds consume `values` and use
    /// `spare` (one slot per value) as scratch.
    fn policy(
        &self,
        n: usize,
        key: impl Fn(usize) -> usize + Copy,
        values: &mut [f64],
        spare: &mut [f64],
        k: usize,
        rng: &mut StdRng,
    ) -> (Vec<usize>, f64) {
        match self.kind {
            StrategyKind::StochasticBestResponse | StrategyKind::StochasticUncertainty => {
                softmax_draw(n, key, values, spare, self.gamma, k, rng)
            }
            // The picks are the uniform policy's support: top-k keeps
            // exactly `k` entries (`k` is already clamped to `n`).
            _ => {
                let mut heap = BoundedTopK::new(k);
                for i in 0..n {
                    heap.insert(i, values[key(i)]);
                }
                (heap.into_sorted_indices(), uniform_entropy(k))
            }
        }
    }

    /// The detector parameters of a pair-local score that depends on the
    /// pair only through its violation class, or `None` when this
    /// strategy scores per candidate. Confidence scoring is smoothed under
    /// a Thompson draw (matching `pair_dirty_probs`) and raw otherwise
    /// (matching `example_confidence`); uncertainty is belief-internal,
    /// raw under the posterior mean (those kinds never draw).
    fn pair_local_params(&self, thompson: bool) -> Option<DetectParams> {
        match self.kind {
            StrategyKind::CommitteeDisagreement | StrategyKind::DensityWeightedUncertainty => None,
            _ if self.basis == ScoreBasis::DatasetTuple => None,
            _ if thompson => Some(DetectParams::default()),
            _ => Some(DetectParams::unsmoothed()),
        }
    }

    /// This strategy's pair-local score of a pair with dirty probability
    /// `d`: twice the binary entropy for the uncertainty kinds, twice
    /// `max(d, 1 − d)` (the confidence) otherwise.
    fn pair_local_score(&self, d: f64) -> f64 {
        match self.kind {
            StrategyKind::UncertaintySampling | StrategyKind::StochasticUncertainty => {
                let e = binary_entropy(d);
                e + e
            }
            _ => {
                let s = d.max(1.0 - d);
                s + s
            }
        }
    }

    /// Per-candidate scores for the criteria that are not a function of
    /// the violation class: committee disagreement, density-weighted
    /// uncertainty and the dataset-tuple basis.
    fn candidate_scores(
        &self,
        index: &ViolationIndex,
        scorer: &mut DeltaScorer,
        belief: &Belief,
        ids: &[u32],
        thompson_draw: Option<&[f64]>,
    ) -> Vec<f64> {
        let m = scorer.matrix();
        match self.kind {
            StrategyKind::CommitteeDisagreement => {
                // Summed posterior variance over the FDs each pair violates.
                ids.iter()
                    .map(|&id| {
                        m.violated_indices(id as usize)
                            .map(|fi| belief.dist(fi).variance())
                            .sum()
                    })
                    .collect()
            }
            StrategyKind::DensityWeightedUncertainty => {
                // Uncertainty x representativeness (relevant-FD count).
                let n_fds = belief.len().max(1) as f64;
                let mut out: Vec<f64> = ids
                    .iter()
                    .map(|&id| m.relevant_count(id as usize) as f64 / n_fds)
                    .collect();
                let batch =
                    scorer.scores_for(ids, &belief.confidences(), &DetectParams::unsmoothed());
                for (s, &id) in out.iter_mut().zip(ids) {
                    let e = binary_entropy(batch.dirty[id as usize]);
                    *s *= e + e;
                }
                out
            }
            _ => {
                // The paper's per-tuple p(dirty | θ) over the whole dataset.
                let conf_holder;
                let conf: &[f64] = match thompson_draw {
                    Some(d) => d,
                    None => {
                        conf_holder = belief.confidences();
                        &conf_holder
                    }
                };
                let pairs = m.pairs();
                let params = DetectParams::default();
                let mut probs = vec![f64::NAN; index.n_rows()];
                let mut prob = |row: usize| {
                    if probs[row].is_nan() {
                        probs[row] = tuple_dirty_prob_with(index, conf, row, &params);
                    }
                    probs[row]
                };
                ids.iter()
                    .map(|&id| {
                        let (a, b) = pairs[id as usize];
                        let pa = prob(a);
                        let pb = prob(b);
                        match self.kind {
                            StrategyKind::UncertaintySampling
                            | StrategyKind::StochasticUncertainty => {
                                binary_entropy(pa) + binary_entropy(pb)
                            }
                            _ => pa.max(1.0 - pa) + pb.max(1.0 - pb),
                        }
                    })
                    .collect()
            }
        }
    }
}

/// Entropy of the uniform policy over `m` candidates, summed term by term
/// exactly as [`crate::payoff::policy_entropy`] sums an explicit uniform
/// vector. Every term is the same value, so it is computed once and added
/// `m` times in the same order.
fn uniform_entropy(m: usize) -> f64 {
    let p = 1.0 / m as f64;
    let term = -p * p.ln();
    (0..m).map(|_| term).sum()
}

/// Draws up to `k` distinct positions from the softmax at temperature γ
/// over `n` candidates whose scores are keyed (candidate `i` scores
/// `values[key(i)]`), and returns them with the policy's entropy.
///
/// The shift by the maximum, the `exp`, the divide and the entropy term
/// `−p ln p` run once per key, in place in `values` and `spare` (one slot
/// per value). The softmax total, the entropy and the sampler's totals add
/// per candidate in candidate order, so everything equals the softmax of
/// the gathered per-candidate scores bit for bit. The maximum is taken
/// over the keys' values: the same values as the candidates', and the
/// shifted weights do not depend on which of two equal maxima wins.
fn softmax_draw(
    n: usize,
    key: impl Fn(usize) -> usize + Copy,
    values: &mut [f64],
    spare: &mut [f64],
    gamma: f64,
    k: usize,
    rng: &mut StdRng,
) -> (Vec<usize>, f64) {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = ((*v - max) / gamma).exp();
    }
    let sum: f64 = (0..n).map(|i| values[key(i)]).sum();
    // Each weight becomes its probability, and `spare` its entropy term.
    // A zero probability's term is -0.0, which leaves a sum's bits
    // unchanged, as leaving it out of the sum did.
    for (v, term) in values.iter_mut().zip(spare.iter_mut()) {
        *v /= sum;
        *term = if *v > 0.0 { -*v * v.ln() } else { -0.0 };
    }
    // One pass lists the candidates with their probabilities and the
    // sampler's first running total and, as a second accumulator, sums the
    // entropy.
    let mut total = zero_sum();
    let mut h_policy = zero_sum();
    let mut alive = vec![(0, 0.0, 0.0); n];
    for (i, entry) in alive.iter_mut().enumerate() {
        let p = values[key(i)];
        total += p;
        h_policy += spare[key(i)];
        *entry = (i, p, total);
    }
    invariant!(
        values.iter().all(|w| *w >= 0.0) && (total - 1.0).abs() < 1e-9,
        "softmax weights must be non-negative and sum to ~1"
    );
    let picks = sample_without_replacement(alive, k, rng);
    (picks, h_policy)
}

/// The value an `f64` `sum()` starts from; the hand-written running sums
/// start there too, so they equal `sum()` over the same terms bit for bit.
fn zero_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Samples `k` distinct positions from `alive` (position, weight,
/// running total of the weights through it) with probabilities ∝ weight,
/// renormalising over the positions still alive after each draw. `alive`
/// comes with every running total filled in, in list order from
/// [`zero_sum`].
///
/// Each draw's total sums the alive weights in list order, and a draw
/// swap-removes its pick, which leaves the list before the pick's slot as
/// it was. So the next total resumes from the running total just before
/// the removed slot: the same additions in the same order, with the
/// unchanged prefix not repeated.
fn sample_without_replacement(
    mut alive: Vec<(usize, f64, f64)>,
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    let mut resume = alive.len();
    for _ in 0..k {
        let mut total = resume.checked_sub(1).map_or_else(zero_sum, |j| alive[j].2);
        for entry in &mut alive[resume..] {
            total += entry.1;
            entry.2 = total;
        }
        if total <= 0.0 || alive.is_empty() {
            break;
        }
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen_pos = alive.len() - 1;
        for (pos, &(_, w, _)) in alive.iter().enumerate() {
            if pick < w {
                chosen_pos = pos;
                break;
            }
            pick -= w;
        }
        out.push(alive.swap_remove(chosen_pos).0);
        resume = chosen_pos;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::PairExample;
    use et_belief::Beta;
    use et_data::table::paper_table1;
    use et_data::Table;
    use et_fd::{Fd, HypothesisSpace, PartitionCache, RelationMatrix};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn space() -> Arc<HypothesisSpace> {
        Arc::new(HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),
            Fd::from_attrs([2, 3], 4),
        ]))
    }

    fn setup(conf: f64) -> (Table, Belief, Vec<PairExample>) {
        let b = Belief::constant(space(), Beta::from_mean_std(conf, 0.05));
        let pool = vec![
            PairExample::new(0, 1), // violates Team -> City
            PairExample::new(1, 2), // satisfies City,Role -> Apps
            PairExample::new(2, 3), // satisfies Team -> City
        ];
        (paper_table1(), b, pool)
    }

    /// A belief undecided about fd0 and confident in fd1, so pairs on the
    /// two FDs score differently.
    fn skewed() -> Belief {
        let mut b = Belief::constant(space(), Beta::from_mean_std(0.55, 0.05));
        *b.dist_mut(1) = Beta::from_mean_std(0.98, 0.01);
        b
    }

    /// One selection round over `pool`, with the matrix built over `pool`
    /// so a pool position is its pair id. Returns the picked pairs and the
    /// policy entropy.
    pub(super) fn run(
        s: &ResponseStrategy,
        t: &Table,
        b: &Belief,
        pool: &[PairExample],
        k: usize,
        rng: &mut StdRng,
    ) -> (Vec<PairExample>, f64) {
        let cache = PartitionCache::new(t);
        let pairs: Vec<(usize, usize)> = pool.iter().map(|p| (p.a, p.b)).collect();
        let m = Arc::new(RelationMatrix::build(t, b.space(), &cache, &pairs));
        let index = ViolationIndex::build_with(t, b.space(), &cache);
        let scorer = RefCell::new(DeltaScorer::new(m));
        let ids: Vec<u32> = (0..pool.len() as u32).collect();
        let ctx = ScoreCtx {
            index: &index,
            scorer: &scorer,
        };
        let sel = s.select_round(ctx, b, &ids, k, rng);
        let picked = sel.picks.iter().map(|&id| pool[id as usize]).collect();
        (picked, sel.h_policy)
    }

    #[test]
    fn random_selects_k_distinct() {
        let (t, b, pool) = setup(0.9);
        let s = ResponseStrategy::paper(StrategyKind::Random);
        let mut rng = StdRng::seed_from_u64(1);
        let (picked, h) = run(&s, &t, &b, &pool, 2, &mut rng);
        assert_eq!(picked.len(), 2);
        assert_ne!(picked[0], picked[1]);
        assert!((h - 3f64.ln()).abs() < 1e-12, "uniform over the pool");
    }

    #[test]
    fn us_prefers_uncertain_pairs() {
        // fd1 very confident -> its satisfying pair (1,2) is low entropy.
        let t = paper_table1();
        let pool = vec![PairExample::new(0, 1), PairExample::new(1, 2)];
        let s = ResponseStrategy::paper(StrategyKind::UncertaintySampling);
        let mut rng = StdRng::seed_from_u64(1);
        let (picked, _) = run(&s, &t, &skewed(), &pool, 1, &mut rng);
        assert_eq!(picked[0], PairExample::new(0, 1), "ambiguous pair first");
    }

    #[test]
    fn best_prefers_confident_pairs() {
        let t = paper_table1();
        let pool = vec![PairExample::new(0, 1), PairExample::new(1, 2)];
        let s = ResponseStrategy::paper(StrategyKind::Best);
        let mut rng = StdRng::seed_from_u64(1);
        let (picked, _) = run(&s, &t, &skewed(), &pool, 1, &mut rng);
        assert_eq!(picked[0], PairExample::new(1, 2), "confident pair first");
    }

    #[test]
    fn stochastic_variants_sample_distinct_and_deterministic_in_seed() {
        let (t, b, pool) = setup(0.8);
        for kind in [
            StrategyKind::StochasticBestResponse,
            StrategyKind::StochasticUncertainty,
        ] {
            let s = ResponseStrategy::paper(kind);
            let go = |seed| run(&s, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(seed)).0;
            let a = go(5);
            assert_eq!(a.len(), 2);
            assert_ne!(a[0], a[1]);
            assert_eq!(a, go(5), "same seed, same sample");
        }
    }

    #[test]
    fn low_gamma_approaches_greedy() {
        // StochasticUS with tiny gamma behaves like US (paper §4).
        let t = paper_table1();
        let b = skewed();
        let pool = vec![PairExample::new(0, 1), PairExample::new(1, 2)];
        let greedy = ResponseStrategy::paper(StrategyKind::UncertaintySampling);
        let stochastic = ResponseStrategy::new(StrategyKind::StochasticUncertainty, 1e-3);
        let (g, _) = run(&greedy, &t, &b, &pool, 1, &mut StdRng::seed_from_u64(3));
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(run(&stochastic, &t, &b, &pool, 1, &mut rng).0, g);
        }
    }

    #[test]
    fn policy_entropy_is_bounded_by_the_pool() {
        let (t, b, pool) = setup(0.8);
        for kind in [
            StrategyKind::Random,
            StrategyKind::UncertaintySampling,
            StrategyKind::StochasticBestResponse,
            StrategyKind::StochasticUncertainty,
            StrategyKind::Best,
        ] {
            let s = ResponseStrategy::paper(kind);
            let (_, h) = run(&s, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(1));
            assert!(h >= 0.0 && h <= 3f64.ln() + 1e-12, "{kind:?}: {h}");
        }
        // Deterministic kinds are uniform over their k-pair support.
        let s = ResponseStrategy::paper(StrategyKind::Best);
        let (_, h) = run(&s, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(1));
        assert!((h - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn high_gamma_flattens_softmax() {
        // Pairs need *different* confidence scores: one FD is much more
        // decided than the other.
        let (t, _, pool) = setup(0.8);
        let b = skewed();
        let sharp = ResponseStrategy::new(StrategyKind::StochasticBestResponse, 0.05);
        let flat = ResponseStrategy::new(StrategyKind::StochasticBestResponse, 50.0);
        let (_, hs) = run(&sharp, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(1));
        let (_, hf) = run(&flat, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(1));
        assert!(hs < hf);
        // Near-uniform at high temperature.
        assert!(3f64.ln() - hf < 1e-4, "{hf}");
    }

    #[test]
    fn thompson_selects_k() {
        let (t, b, pool) = setup(0.7);
        let s = ResponseStrategy::paper(StrategyKind::ThompsonSampling);
        let mut rng = StdRng::seed_from_u64(4);
        let (picked, h) = run(&s, &t, &b, &pool, 2, &mut rng);
        assert_eq!(picked.len(), 2);
        assert!((h - 2f64.ln()).abs() < 1e-12, "uniform over the mean top-k");
    }

    #[test]
    fn k_larger_than_pool_is_clamped() {
        let (t, b, pool) = setup(0.8);
        let s = ResponseStrategy::paper(StrategyKind::Random);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(run(&s, &t, &b, &pool, 99, &mut rng).0.len(), pool.len());
        assert!(run(&s, &t, &b, &[], 2, &mut rng).0.is_empty());
    }

    /// The per-candidate softmax, `policy_entropy` and sampler that
    /// [`softmax_draw`] replaced.
    fn per_candidate_draw(
        scores: &[f64],
        gamma: f64,
        k: usize,
        rng: &mut StdRng,
    ) -> (Vec<usize>, f64) {
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut w: Vec<f64> = scores.iter().map(|s| ((s - max) / gamma).exp()).collect();
        let sum: f64 = w.iter().sum();
        for v in &mut w {
            *v /= sum;
        }
        let h = crate::payoff::policy_entropy(&w);
        let mut alive: Vec<usize> = (0..w.len()).collect();
        let mut out = Vec::new();
        for _ in 0..k {
            let total: f64 = alive.iter().map(|&i| w[i]).sum();
            if total <= 0.0 || alive.is_empty() {
                break;
            }
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = alive.len() - 1;
            for (pos, &i) in alive.iter().enumerate() {
                if pick < w[i] {
                    chosen = pos;
                    break;
                }
                pick -= w[i];
            }
            out.push(alive.swap_remove(chosen));
        }
        (out, h)
    }

    #[test]
    fn keyed_softmax_draw_matches_the_per_candidate_policy() {
        // Candidates share a handful of class values, keyed densely by
        // first appearance as `class_scores_for` keys them; a tiny γ
        // underflows some probabilities to zero, and one candidate alone
        // has probability 1.
        let class_values = [1.0, 1.37, 1.9, 1.37, 2.0];
        for (n, gamma) in [
            (1, 0.5),
            (2, 0.5),
            (7, 0.5),
            (40, 0.5),
            (40, 1e-3),
            (300, 0.05),
        ] {
            let classes: Vec<usize> = (0..n)
                .map(|i| (i * 7 + i / 3) % class_values.len())
                .collect();
            let scores: Vec<f64> = classes.iter().map(|&c| class_values[c]).collect();
            let mut present: Vec<usize> = Vec::new();
            let keys: Vec<usize> = classes
                .iter()
                .map(|c| match present.iter().position(|p| p == c) {
                    Some(key) => key,
                    None => {
                        present.push(*c);
                        present.len() - 1
                    }
                })
                .collect();
            let values: Vec<f64> = present.iter().map(|&c| class_values[c]).collect();
            for k in [1, 5] {
                let mut keyed = values.clone();
                let mut spare = vec![0.0; values.len()];
                let (picks, h) = softmax_draw(
                    n,
                    |i| keys[i],
                    &mut keyed,
                    &mut spare,
                    gamma,
                    k,
                    &mut StdRng::seed_from_u64(n as u64),
                );
                let (want, want_h) =
                    per_candidate_draw(&scores, gamma, k, &mut StdRng::seed_from_u64(n as u64));
                assert_eq!(picks, want, "n {n} gamma {gamma} k {k}");
                assert_eq!(h.to_bits(), want_h.to_bits(), "n {n} gamma {gamma} k {k}");
            }
        }
    }
}

#[cfg(test)]
mod extension_tests {
    use super::tests::run;
    use super::*;
    use crate::game::PairExample;
    use et_belief::{Belief, Beta};
    use et_data::table::paper_table1;
    use et_fd::{Fd, HypothesisSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (et_data::Table, Belief, Vec<PairExample>) {
        let t = paper_table1();
        let space = Arc::new(HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),
            Fd::from_attrs([2, 3], 4),
        ]));
        let b = Belief::constant(space, Beta::new(2.0, 2.0));
        let pool = vec![
            PairExample::new(0, 1),
            PairExample::new(1, 2),
            PairExample::new(2, 3),
        ];
        (t, b, pool)
    }

    #[test]
    fn committee_prefers_high_variance_violations() {
        let (t, mut b, pool) = setup();
        let s = ResponseStrategy::paper(StrategyKind::CommitteeDisagreement);
        let mut rng = StdRng::seed_from_u64(1);
        let (picked, _) = run(&s, &t, &b, &pool, 1, &mut rng);
        assert_eq!(
            picked[0],
            PairExample::new(0, 1),
            "only violating pair wins"
        );
        // With a near-certain belief in fd0, disagreement collapses; the
        // winner is unchanged (ties fall to candidate order) and the policy
        // stays a point mass on the single pick.
        *b.dist_mut(0) = Beta::new(500.0, 1.0);
        let (picked, h) = run(&s, &t, &b, &pool, 1, &mut rng);
        assert_eq!(picked.len(), 1);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn density_weighting_downweights_narrow_pairs() {
        let (t, b, _) = setup();
        // In Table 1 all candidates touch a single FD, so check the
        // strategy selects k pairs.
        let s = ResponseStrategy::paper(StrategyKind::DensityWeightedUncertainty);
        let mut rng = StdRng::seed_from_u64(2);
        let pool = [PairExample::new(0, 1), PairExample::new(2, 3)];
        assert_eq!(run(&s, &t, &b, &pool, 2, &mut rng).0.len(), 2);
    }

    #[test]
    fn extension_strategies_are_deterministic() {
        let (t, b, pool) = setup();
        for kind in [
            StrategyKind::CommitteeDisagreement,
            StrategyKind::DensityWeightedUncertainty,
        ] {
            let s = ResponseStrategy::paper(kind);
            // Deterministic strategies ignore the RNG entirely.
            assert_eq!(
                run(&s, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(3)),
                run(&s, &t, &b, &pool, 2, &mut StdRng::seed_from_u64(99)),
                "{kind:?}"
            );
        }
    }
}
