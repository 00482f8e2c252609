//! Weak/strong labeler escalation — the related-work combination the paper
//! calls for ("active learning from weak and strong labelers", Zhang &
//! Chaudhuri 2015; §D suggests exploring such combinations with exploratory
//! training).
//!
//! A *weak* trainer labels every interaction for free; a *strong* trainer
//! is consulted only when the learner's own predictions disagree with the
//! weak labels beyond a threshold — the canonical disagreement-based
//! escalation. Both trainers may themselves be learning (exploratory)
//! annotators.

use std::sync::Arc;

use et_data::{split_rows, Table};
use et_fd::{predict_labels, HypothesisSpace, PartitionCache, ViolationIndex};
use et_metrics::ConfusionMatrix;

use crate::candidates::{CandidatePool, FreshCandidates};
use crate::learner::Learner;
use crate::session::{mae, sample_rows};
use crate::trainer::Trainer;

/// Configuration of a weak/strong session.
#[derive(Debug, Clone)]
pub struct WeakStrongConfig {
    /// Interactions to run.
    pub iterations: usize,
    /// Pairs selected per interaction.
    pub pairs_per_iteration: usize,
    /// Escalate to the strong trainer when the fraction of sample tuples
    /// whose weak label disagrees with the learner's own prediction exceeds
    /// this threshold.
    pub escalation_threshold: f64,
    /// Held-out fraction for F1 evaluation.
    pub test_frac: f64,
    /// Candidate pool cap.
    pub pool_cap: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for WeakStrongConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            pairs_per_iteration: 5,
            escalation_threshold: 0.2,
            test_frac: 0.3,
            pool_cap: 4000,
            seed: 0,
        }
    }
}

/// Per-iteration record of a weak/strong session.
#[derive(Debug, Clone)]
pub struct WeakStrongIteration {
    /// Interaction number.
    pub t: usize,
    /// Whether the strong trainer was consulted.
    pub escalated: bool,
    /// Disagreement fraction that drove the decision.
    pub disagreement: f64,
    /// MAE between learner and the *strong* trainer's model.
    pub mae_vs_strong: f64,
    /// Learner F1 on the held-out test set.
    pub learner_f1: f64,
}

/// Outcome of [`run_weak_strong`].
#[derive(Debug, Clone)]
pub struct WeakStrongResult {
    /// Per-iteration records.
    pub iterations: Vec<WeakStrongIteration>,
    /// Interactions answered by the weak trainer alone.
    pub weak_only: usize,
    /// Interactions escalated to the strong trainer.
    pub escalations: usize,
}

impl WeakStrongResult {
    /// Fraction of interactions escalated.
    pub fn escalation_rate(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.escalations as f64 / self.iterations.len() as f64
        }
    }
}

/// Runs the escalation protocol.
///
/// # Panics
/// Panics when `dirty_rows` does not have one flag per table row.
pub fn run_weak_strong(
    table: &Table,
    space: Arc<HypothesisSpace>,
    dirty_rows: &[bool],
    weak: &mut dyn Trainer,
    strong: &mut dyn Trainer,
    learner: &mut Learner,
    cfg: &WeakStrongConfig,
) -> WeakStrongResult {
    assert_eq!(dirty_rows.len(), table.nrows());
    let (train_rows, test_rows) = split_rows(table.nrows(), cfg.test_frac, cfg.seed);
    let in_train = {
        let mut mask = vec![false; table.nrows()];
        for &r in &train_rows {
            mask[r] = true;
        }
        mask
    };
    // One cache for the whole protocol: the score build warms it, every
    // per-iteration sample index restricts it.
    let cache = PartitionCache::new(table);
    let test_index = ViolationIndex::build_subsample(table, &space, &cache, &test_rows);
    let test_dirty: Vec<bool> = test_rows.iter().map(|&r| dirty_rows[r]).collect();
    let test_eval: Vec<usize> = (0..test_rows.len()).collect();
    let score_index = ViolationIndex::build_with(table, &space, &cache);

    let mut pool = CandidatePool::build_with(table, &space, &cache, cfg.pool_cap, cfg.seed);
    pool.retain_rows(&in_train);
    // Round-invariant relations over the pool: precompute once, score every
    // iteration from the packed matrix by pool id.
    let matrix = Arc::new(pool.relation_matrix(table, &space, &cache));
    let mut fresh = FreshCandidates::new(&pool, matrix, learner.shown());

    let mut iterations = Vec::with_capacity(cfg.iterations);
    let mut weak_only = 0;
    let mut escalations = 0;

    for t in 0..cfg.iterations {
        let (pairs, _) = learner.select(&mut fresh, &score_index, cfg.pairs_per_iteration);
        if pairs.is_empty() {
            break;
        }
        let sample = sample_rows(&pairs, table.nrows());

        let weak_labels = weak.respond(table, &sample);
        // The learner's own predictions within the sample context.
        let sub_index = ViolationIndex::build_subsample(table, &space, &cache, &sample);
        let local: Vec<usize> = (0..sample.len()).collect();
        let predicted = predict_labels(&sub_index, &learner.confidences(), &local);
        let disagreement = predicted
            .iter()
            .zip(&weak_labels)
            .filter(|(p, w)| p != w)
            .count() as f64
            / sample.len().max(1) as f64;

        let (labels, escalated) = if disagreement > cfg.escalation_threshold {
            escalations += 1;
            (strong.respond(table, &sample), true)
        } else {
            weak_only += 1;
            // Keep the strong trainer's belief in sync with what it would
            // have observed — it still "sees" the data stream (the paper's
            // trainer updates on every presented sample), it just is not
            // asked to label.
            let _ = strong.respond(table, &sample);
            (weak_labels, false)
        };

        learner.absorb_interaction(table, &pairs, &sample, &labels);

        let lc = learner.confidences();
        let learner_pred = predict_labels(&test_index, &lc, &test_eval);
        let m = ConfusionMatrix::from_predictions(&learner_pred, &test_dirty);
        iterations.push(WeakStrongIteration {
            t,
            escalated,
            disagreement,
            mae_vs_strong: mae(&strong.confidences(), &lc),
            learner_f1: m.f1(),
        });
    }

    WeakStrongResult {
        iterations,
        weak_only,
        escalations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::respond::{ResponseStrategy, StrategyKind};
    use crate::trainer::{FpTrainer, NoisyTrainer, OracleTrainer};
    use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
    use et_data::gen::DatasetName;
    use et_data::{inject_errors, InjectConfig};
    use et_fd::Fd;

    fn fixture() -> (Table, Vec<bool>, Arc<HypothesisSpace>, Vec<Fd>) {
        let mut ds = DatasetName::Omdb.generate(160, 21);
        let specs = ds.exact_fds.clone();
        let inj = inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &InjectConfig::with_degree(0.12, 3),
        );
        let truth: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 20, 10, &truth));
        (ds.table, inj.dirty_rows, space, truth)
    }

    fn learner(space: &Arc<HypothesisSpace>, table: &Table) -> Learner {
        let prior = build_prior(
            &PriorSpec::DataEstimate,
            &PriorConfig {
                strength: 0.3,
                ..PriorConfig::default()
            },
            space,
            table,
        );
        Learner::new(
            prior,
            ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
            EvidenceConfig::default(),
            5,
        )
    }

    #[test]
    fn noisy_weak_labeler_triggers_escalations() {
        let (table, dirty, space, truth) = fixture();
        let oracle_conf: Vec<f64> = space
            .fds()
            .iter()
            .map(|fd| if truth.contains(fd) { 0.98 } else { 0.05 })
            .collect();
        // Weak: oracle labels flipped 45% of the time. Strong: clean oracle.
        let mut weak = NoisyTrainer::new(
            OracleTrainer::new(dirty.clone(), oracle_conf.clone()),
            0.45,
            9,
        );
        let mut strong = OracleTrainer::new(dirty.clone(), oracle_conf);
        let mut l = learner(&space, &table);
        let r = run_weak_strong(
            &table,
            space,
            &dirty,
            &mut weak,
            &mut strong,
            &mut l,
            &WeakStrongConfig {
                iterations: 15,
                seed: 2,
                ..WeakStrongConfig::default()
            },
        );
        assert_eq!(r.iterations.len(), 15);
        assert!(
            r.escalations > 0,
            "a 45%-noise weak labeler must trigger escalations"
        );
        assert_eq!(r.escalations + r.weak_only, 15);
        assert!((0.0..=1.0).contains(&r.escalation_rate()));
    }

    #[test]
    fn agreeing_trainers_rarely_escalate() {
        let (table, dirty, space, truth) = fixture();
        let oracle_conf: Vec<f64> = space
            .fds()
            .iter()
            .map(|fd| if truth.contains(fd) { 0.98 } else { 0.05 })
            .collect();
        // Weak = strong = oracle, learner starts from data estimate: after
        // a few interactions predictions align and escalations stay low.
        let mut weak = OracleTrainer::new(dirty.clone(), oracle_conf.clone());
        let mut strong = OracleTrainer::new(dirty.clone(), oracle_conf);
        let mut l = learner(&space, &table);
        let r = run_weak_strong(
            &table,
            space,
            &dirty,
            &mut weak,
            &mut strong,
            &mut l,
            &WeakStrongConfig {
                iterations: 15,
                escalation_threshold: 0.5,
                seed: 3,
                ..WeakStrongConfig::default()
            },
        );
        assert!(
            r.escalation_rate() < 0.5,
            "rate {:.2} too high for agreeing oracles",
            r.escalation_rate()
        );
    }

    #[test]
    fn works_with_learning_trainers_on_both_sides() {
        let (table, dirty, space, _) = fixture();
        let prior_cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let weak_prior = build_prior(&PriorSpec::Random { seed: 4 }, &prior_cfg, &space, &table);
        let strong_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &table);
        let mut weak = FpTrainer::new(weak_prior, EvidenceConfig::default());
        let mut strong = FpTrainer::new(strong_prior, EvidenceConfig::default());
        let mut l = learner(&space, &table);
        let r = run_weak_strong(
            &table,
            space,
            &dirty,
            &mut weak,
            &mut strong,
            &mut l,
            &WeakStrongConfig {
                iterations: 12,
                seed: 7,
                ..WeakStrongConfig::default()
            },
        );
        assert_eq!(r.iterations.len(), 12);
        for it in &r.iterations {
            assert!((0.0..=1.0).contains(&it.disagreement));
            assert!((0.0..=1.0).contains(&it.mae_vs_strong));
        }
    }
}
