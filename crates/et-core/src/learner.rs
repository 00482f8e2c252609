//! The active learner agent.
//!
//! The learner owns a belief over the hypothesis space, a prediction model
//! (the FP/Bayesian evidence rule of [`et_belief::update`]) and a response
//! strategy ([`crate::respond`]). Each interaction it selects fresh pairs,
//! hands them to the trainer, and absorbs the returned labels.

#![expect(
    clippy::indexing_slicing,
    reason = "labels.len() == sample.len() is asserted at the absorb_interaction boundary; pair indices are produced by the same interaction; the label states are sized to the table's rows before any sample row indexes them"
)]

use et_belief::{update_from_labeled_pairs, Belief, EvidenceConfig, LabeledPair};
use et_data::Table;
use et_durable::{Dec, DurableError, Enc};
use et_fd::ViolationIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::candidates::FreshCandidates;
use crate::game::PairExample;
use crate::journal::{load_rows, save_rows, take_row};
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
    /// Every pair presented so far, as `(a, b)` rows, in presentation
    /// order (sorted after a restore). A pool never offers a pair twice,
    /// so the list holds no repeats.
    shown: Vec<(u32, u32)>,
    /// Labeled tuples in first-seen order.
    memory: Vec<u32>,
    /// Latest label state per row: [`UNLABELED`], [`CLEAN`] or [`DIRTY`].
    /// Sized from the table on the first interaction. Labels can be
    /// *revised* when the trainer re-encounters a tuple — but evidence pairs
    /// already consumed are not re-litigated, which is exactly how stale
    /// early labels poison a learner (the paper's motivation).
    labels: Vec<u8>,
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
            shown: Vec::new(),
            memory: Vec::new(),
            labels: Vec::new(),
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

    /// Pairs presented so far, as `(a, b)` rows with `a < b`, each once.
    pub fn shown(&self) -> &[(u32, u32)] {
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
        self.shown
            .extend(picked.iter().map(|p| (row_u32(p.a), row_u32(p.b))));
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
        if self.labels.len() < table.nrows() {
            self.labels.reserve_exact(table.nrows() - self.labels.len());
            self.labels.resize(table.nrows(), UNLABELED);
        }
        let new: Vec<usize> = sample
            .iter()
            .copied()
            .filter(|&r| self.labels[r] == UNLABELED)
            .collect();
        // Record/refresh labels first so this interaction's evidence uses
        // the current verdicts.
        for (&r, &l) in sample.iter().zip(labels) {
            self.labels[r] = if l { DIRTY } else { CLEAN };
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
                            evidence.push(self.labeled_pair(a, b as usize));
                        }
                    }
                }
            }
        }
        update_from_labeled_pairs(&mut self.belief, table, &evidence, &self.evidence);
        self.memory.extend(new.into_iter().map(row_u32));
    }

    /// Direct pair-level absorption (tests, custom protocols); does not
    /// touch the tuple-label memory.
    pub fn absorb(&mut self, table: &Table, labeled: &[LabeledPair]) {
        update_from_labeled_pairs(&mut self.belief, table, labeled, &self.evidence);
    }

    /// Appends the learner's mutable state (belief parameters, RNG stream,
    /// shown pairs, labeled-tuple memory, labels) to a snapshot payload.
    /// The shown pairs are written sorted and the labels by ascending row,
    /// so identical learners always produce identical bytes whatever order
    /// their pairs were shown in.
    pub(crate) fn save_durable(&self, enc: &mut Enc) {
        crate::journal::save_belief(enc, &self.belief);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        let mut shown = self.shown.clone();
        shown.sort_unstable();
        enc.put_usize(shown.len());
        for (a, b) in shown {
            enc.put_usize(a as usize);
            enc.put_usize(b as usize);
        }
        save_rows(enc, &self.memory);
        enc.put_usize(self.labels.iter().filter(|&&l| l != UNLABELED).count());
        for (r, &l) in self.labels.iter().enumerate() {
            if l != UNLABELED {
                enc.put_usize(r);
                enc.put_bool(l == DIRTY);
            }
        }
    }

    /// Restores state saved by [`Learner::save_durable`] for a table of
    /// `nrows` rows. The learner must have been constructed over the same
    /// hypothesis space; a saved row outside the table is a decode error.
    pub(crate) fn load_durable(
        &mut self,
        dec: &mut Dec<'_>,
        nrows: usize,
    ) -> Result<(), DurableError> {
        crate::journal::load_belief(dec, &mut self.belief)?;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = dec.take_u64()?;
        }
        self.rng = StdRng::from_state(s);
        let n_shown = dec.take_usize()?;
        self.shown = Vec::with_capacity(n_shown.min(dec.remaining()));
        for _ in 0..n_shown {
            let a = take_row(dec, nrows)?;
            let b = take_row(dec, nrows)?;
            self.shown.push((a, b));
        }
        self.memory = load_rows(dec, nrows)?;
        // Sized to the table once a label exists, as a live learner's is.
        let n_labels = dec.take_usize()?;
        self.labels = if n_labels == 0 {
            Vec::new()
        } else {
            vec![UNLABELED; nrows]
        };
        for _ in 0..n_labels {
            let r = take_row(dec, nrows)? as usize;
            self.labels[r] = if dec.take_bool()? { DIRTY } else { CLEAN };
        }
        Ok(())
    }

    fn labeled_pair(&self, a: usize, b: usize) -> LabeledPair {
        LabeledPair {
            a,
            b,
            dirty_a: self.labels[a] == DIRTY,
            dirty_b: self.labels[b] == DIRTY,
        }
    }
}

/// [`Learner`]'s label state of a row no label has reached.
const UNLABELED: u8 = 0;
/// The label state of a row last labeled clean.
const CLEAN: u8 = 1;
/// The label state of a row last labeled dirty.
const DIRTY: u8 = 2;

/// A table row as `u32`: a served table has at most 100,000 rows
/// (`CreateSessionSpec::validate`), and every table the reproduction
/// builds is smaller.
#[expect(
    clippy::cast_possible_truncation,
    reason = "rows of a session's table fit u32: serve caps a table at 100,000 rows and the reproduction's tables are smaller"
)]
pub(crate) fn row_u32(row: usize) -> u32 {
    row as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidatePool;
    use crate::respond::StrategyKind;
    use et_belief::Beta;
    use et_data::table::paper_table1;
    use et_fd::{Fd, HypothesisSpace, PartitionCache};
    use std::collections::HashSet;
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

    /// A learner's and a trainer's saved state reads back into fresh
    /// agents that save the same bytes, after rounds that repeat rows and
    /// revise their labels; the restored agents then play on identically.
    #[test]
    fn agent_state_saves_loads_and_saves_the_same_bytes() {
        use crate::trainer::{FpTrainer, Trainer, TrainerPersist};
        let Setup {
            t,
            mut learner,
            mut fresh,
            index,
            ..
        } = setup();
        let mut restored = learner
            .clone()
            .with_evidence_scope(EvidenceScope::SampleWideWithMemory);
        learner = learner.with_evidence_scope(EvidenceScope::SampleWideWithMemory);
        let prior = Belief::constant(learner.belief().space().clone(), Beta::new(2.0, 2.0));
        let mut trainer = FpTrainer::new(prior.clone(), EvidenceConfig::default());
        let space = learner.belief().space().clone();
        // Rows 1 and 3 come back, and row 1's label flips twice.
        let rounds: [(&[usize], &[bool]); 4] = [
            (&[0, 1], &[false, true]),
            (&[1, 2], &[false, false]),
            (&[3, 1, 4], &[true, true, false]),
            (&[3, 0], &[false, false]),
        ];
        for (sample, labels) in rounds {
            let (picked, _) = learner.select(&mut fresh, &index, 1);
            learner.absorb_interaction(&t, &picked, sample, labels);
            let sample_index = ViolationIndex::build(&t.subset(sample), &space);
            let _ = trainer.respond(&t, sample, &sample_index);
        }
        let save = |l: &Learner, tr: &FpTrainer| {
            let mut enc = Enc::new();
            l.save_durable(&mut enc);
            tr.save_state(&mut enc);
            enc.into_bytes()
        };
        let bytes = save(&learner, &trainer);
        let mut restored_trainer = FpTrainer::new(prior, EvidenceConfig::default());
        let mut dec = Dec::new(&bytes);
        restored.load_durable(&mut dec, t.nrows()).unwrap();
        restored_trainer.load_state(&mut dec, t.nrows()).unwrap();
        dec.finish().unwrap();
        assert_eq!(save(&restored, &restored_trainer), bytes);

        let next: &[usize] = &[4, 2, 1];
        let labels = [true, false, false];
        for (l, tr) in [
            (&mut learner, &mut trainer),
            (&mut restored, &mut restored_trainer),
        ] {
            l.absorb_interaction(&t, &[PairExample::new(1, 2)], next, &labels);
            let sample_index = ViolationIndex::build(&t.subset(next), &space);
            let _ = tr.respond(&t, next, &sample_index);
        }
        assert_eq!(save(&restored, &restored_trainer), save(&learner, &trainer));
    }

    /// A saved shown pair, memory row or label row outside the table is a
    /// decode error, not an index (or an allocation) sized by the row.
    #[test]
    fn a_saved_row_outside_the_table_is_refused() {
        let Setup { t, learner, .. } = setup();
        let n = t.nrows();
        let past = u32::try_from(n).unwrap();
        let mut bad_shown = learner.clone();
        bad_shown.shown.push((0, past));
        let mut bad_memory = learner.clone();
        bad_memory.memory.push(past);
        let mut bad_label = learner.clone();
        bad_label.labels = vec![UNLABELED; n + 1];
        bad_label.labels[n] = DIRTY;
        for bad in [bad_shown, bad_memory, bad_label] {
            let mut enc = Enc::new();
            bad.save_durable(&mut enc);
            let bytes = enc.into_bytes();
            let mut restored = learner.clone();
            match restored.load_durable(&mut Dec::new(&bytes), n) {
                Err(DurableError::Decode { reason }) => {
                    assert_eq!(reason, format!("row {n} is out of range for {n} rows"));
                }
                other => panic!("expected an out-of-range row, got {other:?}"),
            }
        }
    }
}
