//! Trainer agents — models of the human annotator.
//!
//! The user study (§3, §A) finds that humans training a model are best
//! described by fictitious play / Bayesian learning, so the empirical study
//! "simulates the trainer's learning using FP (Bayesian)" — that is
//! [`FpTrainer`]. [`HtTrainer`] implements the competing hypothesis-testing
//! model; [`StationaryTrainer`] is the fixed-belief annotator classic
//! active learning assumes; [`OracleTrainer`] labels from ground truth
//! (an upper bound); [`NoisyTrainer`] wraps any trainer with i.i.d. label
//! flips (the "fixed small chance of annotation mistakes" of prior work).
//!
//! **Protocol.** Each interaction the trainer receives the full presented
//! *sample* (the paper shows k = 10 tuples), inspects every within-sample
//! tuple pair — that is how an annotator actually spots FD violations —
//! updates its belief, and returns one clean/dirty label per tuple. The
//! sample's violation index comes with it: the session builds it once per
//! presentation, and the trainers that label from violations read it.

use std::sync::Arc;

use et_belief::{
    update_from_pair_relations, Belief, EvidenceConfig, HypothesisTester, LabeledPair,
};
use et_data::Table;
use et_durable::{Dec, DurableError, Enc};
use et_fd::{pair_relation, tuple_dirty_prob, PairRelation, PartitionCache, ViolationIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::journal::{load_belief, save_belief};

/// A trainer: observes a presented sample, (possibly) learns, and labels
/// each tuple of the sample (`true` = dirty).
pub trait Trainer {
    /// Observes the sample (row ids into `table`), updates any internal
    /// state, and returns one label per sample tuple.
    ///
    /// `index` is the violation index of `sample` over the session's
    /// hypothesis space: local row `i` is `sample[i]`.
    ///
    /// # Panics
    /// Trainers that label from `index` panic when it does not have one
    /// row per sample tuple.
    fn respond(&mut self, table: &Table, sample: &[usize], index: &ViolationIndex) -> Vec<bool>;

    /// The trainer's current per-FD confidences (the θ^T the learner tries
    /// to match; used by the MAE metric).
    fn confidences(&self) -> Vec<f64>;

    /// Display name.
    fn name(&self) -> String;
}

/// Trainers whose mutable state can be written into a session snapshot and
/// restored bit-exactly — the trainer-side half of [`crate::journal`].
/// Construction-time configuration (thresholds, evidence weights)
/// is *not* saved; recovery rebuilds the trainer from the original spec and
/// only overlays the state that evolves during a session.
pub trait TrainerPersist: Trainer {
    /// Appends the trainer's mutable state to a snapshot payload.
    fn save_state(&self, enc: &mut Enc);

    /// Restores state saved by [`TrainerPersist::save_state`].
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncated or inconsistent bytes (e.g. a
    /// snapshot taken over a different hypothesis space).
    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), DurableError>;
}

/// Labels every tuple of a presented sample by thresholding the belief-
/// weighted dirty probability read from the sample's own violation index
/// (local row `i` is `sample[i]`). The detector's sigmoid indicator
/// already gates out hypotheses the annotator has not firmly accepted.
fn label_sample(
    sample: &[usize],
    index: &ViolationIndex,
    belief: &Belief,
    threshold: f64,
) -> Vec<bool> {
    assert_eq!(
        index.n_rows(),
        sample.len(),
        "the sample index must have one row per sample tuple"
    );
    let conf = belief.confidences();
    (0..sample.len())
        .map(|i| tuple_dirty_prob(index, &conf, i) > threshold)
        .collect()
}

/// The fictitious-play (Bayesian) trainer the user study validates.
///
/// Each interaction it (1) updates its belief with the raw
/// satisfies/violates relations of every sample pair that includes a tuple
/// it has not seen before — the paper's cumulative prediction model
/// `θ_t^T = P^T(θ_{t−1}^T, X^1, …, X^t)`, the annotator estimating which
/// FDs "hold over the observed data with the fewest exceptions" — then
/// (2) labels the sample tuples from the *updated* belief, judging
/// violations within the presented sample (the user study has participants
/// mark violations "in the presented examples"). Labels therefore drift as
/// the trainer's belief evolves: the non-stationarity the paper is about.
#[derive(Debug, Clone)]
pub struct FpTrainer {
    belief: Belief,
    /// Weight of each observed pair relation in the belief update.
    pub observation_weight: f64,
    /// Dirty-probability threshold for labeling (default 0.5).
    pub threshold: f64,
    /// Per-interaction belief discount (discounted fictitious play); `None`
    /// keeps all evidence forever.
    discount: Option<f64>,
    /// Every tuple observed so far, in first-seen order.
    memory: Vec<usize>,
    /// Row bitmap over the table: `in_memory[r]` iff `r` is in `memory`.
    /// Sized from the table on the first `respond`; a restore empties it
    /// and the next `respond` rebuilds it from `memory`.
    in_memory: Vec<bool>,
}

impl FpTrainer {
    /// Builds the trainer from a prior belief.
    pub fn new(prior: Belief, evidence: EvidenceConfig) -> Self {
        Self {
            belief: prior,
            observation_weight: evidence.clean_weight,
            threshold: 0.5,
            discount: None,
            memory: Vec::new(),
            in_memory: Vec::new(),
        }
    }

    /// Returns the trainer unchanged. Sample labeling reads the index the
    /// session hands to [`Trainer::respond`], so there is no cache to
    /// attach; this no-op stays only because `roundbench` still calls it.
    #[must_use]
    pub fn with_cache(self, _cache: Arc<PartitionCache>) -> Self {
        self
    }

    /// Enables discounted fictitious play: pseudo-counts decay by `lambda`
    /// every interaction, letting the annotator track evolving data (the
    /// forgetful-annotator extension the paper's introduction motivates).
    ///
    /// # Panics
    /// Panics when `lambda` is outside `(0, 1]`.
    #[must_use]
    pub fn with_discount(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0, 1]");
        self.discount = Some(lambda);
        self
    }

    /// Read access to the evolving belief.
    pub fn belief(&self) -> &Belief {
        &self.belief
    }
}

impl Trainer for FpTrainer {
    fn respond(&mut self, table: &Table, sample: &[usize], index: &ViolationIndex) -> Vec<bool> {
        if self.in_memory.len() != table.nrows() {
            self.in_memory = vec![false; table.nrows()];
            for &r in &self.memory {
                self.in_memory[r] = true;
            }
        }
        // (0) Discounted FP: old evidence decays before new arrives.
        if let Some(lambda) = self.discount {
            self.belief.discount(lambda);
        }
        // (1) Belief update P^T: every sample pair touching a new tuple.
        let new: Vec<usize> = sample
            .iter()
            .copied()
            .filter(|&r| !self.in_memory[r])
            .collect();
        let mut evidence = Vec::with_capacity(sample.len() * sample.len());
        for (i, &a) in sample.iter().enumerate() {
            for &b in &sample[i + 1..] {
                if a != b {
                    evidence.push((a, b));
                }
            }
        }
        // Within-sample pairs between two previously seen tuples were
        // already counted; drop them to keep each pair's evidence single-use.
        if !self.memory.is_empty() {
            evidence.retain(|&(a, b)| !(self.in_memory[a] && self.in_memory[b]));
        }
        update_from_pair_relations(&mut self.belief, table, &evidence, self.observation_weight);
        for r in new {
            self.memory.push(r);
            self.in_memory[r] = true;
        }
        // (2) Labels under θ_t, judged within the presented sample.
        label_sample(sample, index, &self.belief, self.threshold)
    }

    fn confidences(&self) -> Vec<f64> {
        self.belief.confidences()
    }

    fn name(&self) -> String {
        "FP".into()
    }
}

impl TrainerPersist for FpTrainer {
    fn save_state(&self, enc: &mut Enc) {
        save_belief(enc, &self.belief);
        enc.put_usize(self.memory.len());
        for &r in &self.memory {
            enc.put_usize(r);
        }
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), DurableError> {
        load_belief(dec, &mut self.belief)?;
        let n = dec.take_usize()?;
        self.memory = Vec::with_capacity(n);
        for _ in 0..n {
            self.memory.push(dec.take_usize()?);
        }
        // `in_memory` is the membership view of `memory`; the next
        // `respond` rebuilds it at the table's size.
        self.in_memory.clear();
        Ok(())
    }
}

/// A hypothesis-testing trainer: labels violations of its single current
/// hypothesis, and switches hypothesis when the recent window rejects it.
#[derive(Debug, Clone)]
pub struct HtTrainer {
    tester: HypothesisTester,
    n_fds: usize,
    /// Confidence reported for the held hypothesis in [`Trainer::confidences`].
    pub held_confidence: f64,
    /// Confidence reported for all other FDs.
    pub other_confidence: f64,
}

impl HtTrainer {
    /// Builds from a hypothesis tester (use
    /// [`et_belief::ScoreMode::DataSatisfaction`] for a human-like trainer).
    pub fn new(tester: HypothesisTester) -> Self {
        let n_fds = tester.space().len();
        Self {
            tester,
            n_fds,
            held_confidence: 0.95,
            other_confidence: 0.1,
        }
    }

    /// The currently held hypothesis index.
    pub fn current_index(&self) -> usize {
        self.tester.current_index()
    }
}

impl Trainer for HtTrainer {
    fn respond(&mut self, table: &Table, sample: &[usize], _index: &ViolationIndex) -> Vec<bool> {
        let current = self.tester.current_fd();
        let n = sample.len();
        let mut labels = vec![false; n];
        let mut labeled_pairs = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (sample[i], sample[j]);
                let violates = pair_relation(table, &current, a, b) == PairRelation::Violates;
                if violates {
                    labels[i] = true;
                    labels[j] = true;
                }
                // The whole sample is the test window; scoring filters
                // per-FD relevance itself.
                labeled_pairs.push(LabeledPair {
                    a,
                    b,
                    dirty_a: violates,
                    dirty_b: violates,
                });
            }
        }
        // Test (and possibly switch) the hypothesis on this interaction.
        let _ = self.tester.observe_interaction(table, &labeled_pairs);
        labels
    }

    fn confidences(&self) -> Vec<f64> {
        let mut conf = vec![self.other_confidence; self.n_fds];
        conf[self.tester.current_index()] = self.held_confidence;
        conf
    }

    fn name(&self) -> String {
        "HT".into()
    }
}

/// The stationary annotator assumed by classic active learning: a fixed
/// belief, never updated.
#[derive(Debug, Clone)]
pub struct StationaryTrainer {
    belief: Belief,
    /// Dirty-probability threshold for labeling.
    pub threshold: f64,
}

impl StationaryTrainer {
    /// Builds from the fixed belief.
    pub fn new(belief: Belief) -> Self {
        Self {
            belief,
            threshold: 0.5,
        }
    }
}

impl Trainer for StationaryTrainer {
    fn respond(&mut self, _table: &Table, sample: &[usize], index: &ViolationIndex) -> Vec<bool> {
        label_sample(sample, index, &self.belief, self.threshold)
    }

    fn confidences(&self) -> Vec<f64> {
        self.belief.confidences()
    }

    fn name(&self) -> String {
        "Stationary".into()
    }
}

impl TrainerPersist for StationaryTrainer {
    fn save_state(&self, _enc: &mut Enc) {
        // A stationary trainer has no mutable state: the belief is fixed at
        // construction and recovery rebuilds it from the spec.
    }

    fn load_state(&mut self, _dec: &mut Dec<'_>) -> Result<(), DurableError> {
        Ok(())
    }
}

/// Labels straight from ground-truth dirty flags (an annotator with perfect
/// knowledge of which tuples are erroneous) — an upper-bound baseline.
#[derive(Debug, Clone)]
pub struct OracleTrainer {
    dirty: Vec<bool>,
    confidences: Vec<f64>,
}

impl OracleTrainer {
    /// `dirty[row]` is the ground truth; `confidences` is the model the
    /// oracle is assumed to hold (e.g. 1.0 on true FDs).
    pub fn new(dirty: Vec<bool>, confidences: Vec<f64>) -> Self {
        Self { dirty, confidences }
    }
}

impl Trainer for OracleTrainer {
    fn respond(&mut self, _table: &Table, sample: &[usize], _index: &ViolationIndex) -> Vec<bool> {
        sample.iter().map(|&r| self.dirty[r]).collect()
    }

    fn confidences(&self) -> Vec<f64> {
        self.confidences.clone()
    }

    fn name(&self) -> String {
        "Oracle".into()
    }
}

/// Wraps a trainer with i.i.d. label flips — the fixed, stationary noise
/// model prior active-learning work assumes.
pub struct NoisyTrainer<T: Trainer> {
    inner: T,
    flip_prob: f64,
    rng: StdRng,
}

impl<T: Trainer> NoisyTrainer<T> {
    /// Flips each emitted label independently with probability `flip_prob`.
    ///
    /// # Panics
    /// Panics when `flip_prob` is outside `[0, 1]`.
    pub fn new(inner: T, flip_prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_prob),
            "flip probability out of range"
        );
        Self {
            inner,
            flip_prob,
            rng: StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d),
        }
    }
}

impl<T: Trainer> Trainer for NoisyTrainer<T> {
    fn respond(&mut self, table: &Table, sample: &[usize], index: &ViolationIndex) -> Vec<bool> {
        let mut labels = self.inner.respond(table, sample, index);
        for l in &mut labels {
            if self.rng.gen::<f64>() < self.flip_prob {
                *l = !*l;
            }
        }
        labels
    }

    fn confidences(&self) -> Vec<f64> {
        self.inner.confidences()
    }

    fn name(&self) -> String {
        format!("{}+noise", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_belief::{Beta, ScoreMode};
    use et_data::table::paper_table1;
    use et_fd::{Fd, HypothesisSpace};
    use std::sync::Arc;

    fn space() -> Arc<HypothesisSpace> {
        Arc::new(HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),    // Team -> City
            Fd::from_attrs([2, 3], 4), // City,Role -> Apps
        ]))
    }

    fn confident_belief() -> Belief {
        Belief::constant(space(), Beta::from_mean_std(0.9, 0.05))
    }

    /// One labeling round, handed the sample's index the way a session
    /// hands it.
    fn respond(tr: &mut dyn Trainer, t: &Table, sample: &[usize]) -> Vec<bool> {
        let index = ViolationIndex::build(&t.subset(sample), &space());
        tr.respond(t, sample, &index)
    }

    #[test]
    fn fp_trainer_labels_violations_dirty() {
        let t = paper_table1();
        let mut tr = FpTrainer::new(confident_belief(), EvidenceConfig::default());
        // Sample = whole table: the Lakers pair violates Team -> City.
        let labels = respond(&mut tr, &t, &[0, 1, 2, 3, 4]);
        assert!(labels[0] && labels[1], "violating pair dirty");
        assert!(!labels[2] && !labels[3], "satisfying tuples clean");
        assert!(!labels[4], "irrelevant tuple clean");
    }

    #[test]
    fn fp_trainer_learns_from_observations() {
        let t = paper_table1();
        let mut tr = FpTrainer::new(
            Belief::constant(space(), Beta::new(2.0, 2.0)),
            EvidenceConfig::default(),
        );
        let before = tr.confidences();
        for _ in 0..10 {
            let _ = respond(&mut tr, &t, &[2, 3]); // Bulls pair satisfies fd0
        }
        let after = tr.confidences();
        assert!(after[0] > before[0], "satisfying evidence raises fd0");
        assert_eq!(after[1], before[1], "no fd1 evidence in this sample");
    }

    #[test]
    fn fp_trainer_demotes_violated_fd() {
        let t = paper_table1();
        let mut tr = FpTrainer::new(
            Belief::constant(space(), Beta::new(5.0, 5.0)),
            EvidenceConfig::default(),
        );
        for _ in 0..5 {
            let _ = respond(&mut tr, &t, &[0, 1]); // Lakers violation
        }
        assert!(tr.confidences()[0] < 0.5);
    }

    #[test]
    fn ht_trainer_labels_by_hypothesis_and_switches() {
        let t = paper_table1();
        let tester = HypothesisTester::new(space(), 0, 0.6, ScoreMode::DataSatisfaction);
        let mut tr = HtTrainer::new(tester);
        assert_eq!(tr.current_index(), 0);
        // Sample contains the Lakers violation of fd0 and the (t2, t3)
        // support for fd1.
        let labels = respond(&mut tr, &t, &[0, 1, 2]);
        assert!(
            labels[0] && labels[1],
            "violation of held hypothesis marked"
        );
        assert!(!labels[2]);
        // fd0 scored 0 on the window -> rejected in favour of a better FD.
        assert_ne!(tr.current_index(), 0);
        let conf = tr.confidences();
        assert!(conf[tr.current_index()] > conf[0]);
    }

    #[test]
    fn stationary_trainer_never_moves() {
        let t = paper_table1();
        let mut tr = StationaryTrainer::new(confident_belief());
        let before = tr.confidences();
        for _ in 0..5 {
            let _ = respond(&mut tr, &t, &[0, 1]);
        }
        assert_eq!(tr.confidences(), before);
    }

    #[test]
    fn oracle_labels_ground_truth() {
        let t = paper_table1();
        let mut tr = OracleTrainer::new(vec![false, true, false, false, false], vec![1.0, 0.0]);
        let labels = respond(&mut tr, &t, &[0, 1]);
        assert_eq!(labels, vec![false, true]);
    }

    #[test]
    fn noisy_trainer_flips_some_labels() {
        let t = paper_table1();
        let clean = OracleTrainer::new(vec![false; 5], vec![1.0, 1.0]);
        let mut noisy = NoisyTrainer::new(clean, 0.5, 7);
        let mut flips = 0;
        for _ in 0..20 {
            let labels = respond(&mut noisy, &t, &[0, 1]);
            flips += labels.iter().filter(|&&l| l).count();
        }
        assert!(flips > 5 && flips < 35, "flips = {flips}");
        assert_eq!(noisy.name(), "Oracle+noise");
    }

    #[test]
    fn zero_noise_is_transparent() {
        let t = paper_table1();
        let truth = vec![false, true, false, true, false];
        let mut a = OracleTrainer::new(truth.clone(), vec![1.0, 1.0]);
        let mut b = NoisyTrainer::new(OracleTrainer::new(truth, vec![1.0, 1.0]), 0.0, 7);
        let sample = [0usize, 1, 2, 3];
        assert_eq!(respond(&mut a, &t, &sample), respond(&mut b, &t, &sample));
    }
}
