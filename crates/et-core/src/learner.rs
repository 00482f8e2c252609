//! The active learner agent.
//!
//! The learner owns a belief over the hypothesis space, a prediction model
//! (the FP/Bayesian evidence rule of [`et_belief::update`]) and a response
//! strategy ([`crate::respond`]). Each interaction it selects fresh pairs,
//! hands them to the trainer, and absorbs the returned labels.

#![expect(
    clippy::indexing_slicing,
    reason = "labels.len() == sample.len() is asserted at the absorb_interaction boundary; pair indices are produced by the same interaction"
)]

use std::collections::HashSet;

use et_belief::{update_from_labeled_pairs, Belief, EvidenceConfig, LabeledPair};
use et_data::Table;
use et_durable::{Dec, DurableError, Enc};
use et_fd::ViolationIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::candidates::FreshCandidates;
use crate::game::PairExample;
use crate::respond::ResponseStrategy;

/// How much of an interaction the learner's prediction model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceScope {
    /// Only the k selected examples and their labels — the paper's
    /// `P^L(θ, X^t, Y^t)` with `X^t` the chosen pairs. Selection quality
    /// fully determines what the learner can learn (default).
    SelectedPairs,
    /// Every within-sample pair, labeled by the trainer's per-tuple
    /// verdicts (the annotator's whole screen as evidence).
    SampleWide,
    /// `SampleWide` plus pairs between new tuples and the labeled memory.
    SampleWideWithMemory,
}

/// The learner agent.
#[derive(Debug, Clone)]
pub struct Learner {
    belief: Belief,
    strategy: ResponseStrategy,
    evidence: EvidenceConfig,
    shown: HashSet<PairExample>,
    /// Labeled tuples in first-seen order.
    memory: Vec<usize>,
    /// Latest label per labeled tuple (`true` = dirty). Labels can be
    /// *revised* when the trainer re-encounters a tuple — but evidence pairs
    /// already consumed are not re-litigated, which is exactly how stale
    /// early labels poison a learner (the paper's motivation).
    labels: std::collections::HashMap<usize, bool>,
    scope: EvidenceScope,
    rng: StdRng,
}

impl Learner {
    /// Builds a learner from its prior belief and response strategy.
    pub fn new(
        prior: Belief,
        strategy: ResponseStrategy,
        evidence: EvidenceConfig,
        seed: u64,
    ) -> Self {
        Self {
            belief: prior,
            strategy,
            evidence,
            shown: HashSet::new(),
            memory: Vec::new(),
            labels: std::collections::HashMap::new(),
            scope: EvidenceScope::SelectedPairs,
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Overrides how much of each interaction feeds the prediction model
    /// (ablation axis; the default is the paper's selected-pairs protocol).
    #[must_use]
    pub fn with_evidence_scope(mut self, scope: EvidenceScope) -> Self {
        self.scope = scope;
        self
    }

    /// The configured evidence scope.
    pub fn evidence_scope(&self) -> EvidenceScope {
        self.scope
    }

    /// The evolving belief.
    pub fn belief(&self) -> &Belief {
        &self.belief
    }

    /// Current per-FD confidences.
    pub fn confidences(&self) -> Vec<f64> {
        self.belief.confidences()
    }

    /// The configured response strategy.
    pub fn strategy(&self) -> ResponseStrategy {
        self.strategy
    }

    /// Pairs presented so far.
    pub fn shown(&self) -> &HashSet<PairExample> {
        &self.shown
    }

    /// One selection round: builds the policy `π_t^L = R^L(θ_t^L)` over
    /// the fresh candidates, draws up to `k` pairs from it, retires them
    /// from `fresh` and records them as shown. Returns the picked pairs and
    /// the policy entropy (no pairs once the candidates run dry).
    pub fn select(
        &mut self,
        fresh: &mut FreshCandidates,
        index: &ViolationIndex,
        k: usize,
    ) -> (Vec<PairExample>, f64) {
        let sel = self.strategy.select_round(
            fresh.ctx(index),
            &self.belief,
            fresh.ids(),
            k,
            &mut self.rng,
        );
        let picked = fresh.retire(sel.picks);
        self.shown.extend(picked.iter().copied());
        (picked, sel.h_policy)
    }

    /// The learner's RNG, for oracle tests that replay a selection on a
    /// clone and compare draw streams.
    #[cfg(test)]
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Absorbs one interaction: the selected pairs, the presented sample,
    /// and the trainer's per-tuple labels
    /// (`θ_t^L = P^L(θ_{t-1}^L, X^t, Y^t)`).
    ///
    /// The configured [`EvidenceScope`] decides how much of it feeds the
    /// belief update.
    ///
    /// # Panics
    /// Panics when `labels.len() != sample.len()`.
    pub fn absorb_interaction(
        &mut self,
        table: &Table,
        selected: &[PairExample],
        sample: &[usize],
        labels: &[bool],
    ) {
        assert_eq!(sample.len(), labels.len(), "one label per sample tuple");
        let new: Vec<usize> = sample
            .iter()
            .copied()
            .filter(|r| !self.labels.contains_key(r))
            .collect();
        // Record/refresh labels first so this interaction's evidence uses
        // the current verdicts.
        for (&r, &l) in sample.iter().zip(labels) {
            self.labels.insert(r, l);
        }
        let mut evidence: Vec<LabeledPair> = Vec::new();
        match self.scope {
            EvidenceScope::SelectedPairs => {
                for p in selected {
                    evidence.push(self.labeled_pair(p.a, p.b));
                }
            }
            EvidenceScope::SampleWide | EvidenceScope::SampleWideWithMemory => {
                for (i, &a) in sample.iter().enumerate() {
                    for &b in &sample[i + 1..] {
                        if a != b {
                            evidence.push(self.labeled_pair(a, b));
                        }
                    }
                }
                if self.scope == EvidenceScope::SampleWideWithMemory {
                    for &a in &new {
                        for &b in &self.memory {
                            evidence.push(self.labeled_pair(a, b));
                        }
                    }
                }
            }
        }
        update_from_labeled_pairs(&mut self.belief, table, &evidence, &self.evidence);
        self.memory.extend(new);
    }

    /// Direct pair-level absorption (tests, custom protocols); does not
    /// touch the tuple-label memory.
    pub fn absorb(&mut self, table: &Table, labeled: &[LabeledPair]) {
        update_from_labeled_pairs(&mut self.belief, table, labeled, &self.evidence);
    }

    /// Appends the learner's mutable state (belief parameters, RNG stream,
    /// shown set, labeled-tuple memory) to a snapshot payload. Hash
    /// collections are emitted in sorted order so identical learners always
    /// produce identical bytes.
    pub(crate) fn save_durable(&self, enc: &mut Enc) {
        crate::journal::save_belief(enc, &self.belief);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        let mut shown: Vec<PairExample> = self.shown.iter().copied().collect();
        shown.sort_unstable();
        enc.put_usize(shown.len());
        for p in shown {
            enc.put_usize(p.a);
            enc.put_usize(p.b);
        }
        enc.put_usize(self.memory.len());
        for &r in &self.memory {
            enc.put_usize(r);
        }
        let mut labels: Vec<(usize, bool)> = self.labels.iter().map(|(&k, &v)| (k, v)).collect();
        labels.sort_unstable_by_key(|e| e.0);
        enc.put_usize(labels.len());
        for (r, l) in labels {
            enc.put_usize(r);
            enc.put_bool(l);
        }
    }

    /// Restores state saved by [`Learner::save_durable`]. The learner must
    /// have been constructed over the same hypothesis space.
    pub(crate) fn load_durable(&mut self, dec: &mut Dec<'_>) -> Result<(), DurableError> {
        crate::journal::load_belief(dec, &mut self.belief)?;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = dec.take_u64()?;
        }
        self.rng = StdRng::from_state(s);
        let n_shown = dec.take_usize()?;
        self.shown = HashSet::with_capacity(n_shown);
        for _ in 0..n_shown {
            let a = dec.take_usize()?;
            let b = dec.take_usize()?;
            self.shown.insert(PairExample { a, b });
        }
        let n_memory = dec.take_usize()?;
        self.memory = Vec::with_capacity(n_memory);
        for _ in 0..n_memory {
            self.memory.push(dec.take_usize()?);
        }
        let n_labels = dec.take_usize()?;
        self.labels = std::collections::HashMap::with_capacity(n_labels);
        for _ in 0..n_labels {
            let r = dec.take_usize()?;
            let l = dec.take_bool()?;
            self.labels.insert(r, l);
        }
        Ok(())
    }

    fn labeled_pair(&self, a: usize, b: usize) -> LabeledPair {
        LabeledPair {
            a,
            b,
            dirty_a: self.labels[&a],
            dirty_b: self.labels[&b],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidatePool;
    use crate::respond::StrategyKind;
    use et_belief::Beta;
    use et_data::table::paper_table1;
    use et_fd::{Fd, HypothesisSpace, PartitionCache};
    use std::sync::Arc;

    struct Setup {
        t: Table,
        learner: Learner,
        pool: CandidatePool,
        fresh: FreshCandidates,
        index: ViolationIndex,
    }

    fn setup() -> Setup {
        let t = paper_table1();
        let space = Arc::new(HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),
            Fd::from_attrs([2, 3], 4),
        ]));
        let belief = Belief::constant(space.clone(), Beta::new(2.0, 2.0));
        let learner = Learner::new(
            belief,
            ResponseStrategy::paper(StrategyKind::Random),
            EvidenceConfig::default(),
            1,
        );
        let cache = PartitionCache::new(&t);
        let pool = CandidatePool::build(&t, &space, 100, 1);
        let matrix = Arc::new(pool.relation_matrix(&t, &space, &cache));
        let fresh = FreshCandidates::new(matrix, learner.shown());
        let index = ViolationIndex::build_with(&t, &space, &cache);
        Setup {
            t,
            learner,
            pool,
            fresh,
            index,
        }
    }

    use et_data::Table;

    #[test]
    fn never_repeats_pairs() {
        let Setup {
            mut learner,
            pool,
            mut fresh,
            index,
            ..
        } = setup();
        let mut seen = HashSet::new();
        loop {
            let (picked, _) = learner.select(&mut fresh, &index, 1);
            if picked.is_empty() {
                break;
            }
            for p in picked {
                assert!(seen.insert(p), "pair {p:?} repeated");
            }
        }
        assert_eq!(seen.len(), pool.len(), "eventually shows every pair");
    }

    #[test]
    fn absorb_moves_belief() {
        let Setup { t, mut learner, .. } = setup();
        let before = learner.confidences();
        learner.absorb(
            &t,
            &[LabeledPair {
                a: 2,
                b: 3,
                dirty_a: false,
                dirty_b: false,
            }],
        );
        let after = learner.confidences();
        assert!(after[0] > before[0], "clean satisfying pair supports fd0");
        assert_eq!(after[1], before[1], "irrelevant to fd1");
    }

    #[test]
    fn fresh_candidates_rebuilt_from_shown_match_the_live_list() {
        let Setup {
            t,
            mut learner,
            pool,
            mut fresh,
            index,
        } = setup();
        let _ = learner.select(&mut fresh, &index, 1);
        assert_eq!(fresh.ids().len(), pool.len() - 1);
        let m =
            Arc::new(pool.relation_matrix(&t, learner.belief().space(), &PartitionCache::new(&t)));
        let rebuilt = FreshCandidates::new(m, learner.shown());
        assert_eq!(rebuilt.ids(), fresh.ids());
    }
}
