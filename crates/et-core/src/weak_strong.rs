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

use et_data::Table;
use et_fd::HypothesisSpace;

use crate::learner::Learner;
use crate::session::{batch_state, SessionConfig};
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

/// Runs the escalation protocol on a [`crate::SessionState`]: each round
/// the weak trainer labels the presented sample from the session's sample
/// index, the strong trainer observes it through
/// [`crate::SessionState::label_pending`], and the learner absorbs the
/// weak labels or, past the threshold, the strong ones. Metrics are taken
/// against the strong trainer's model.
///
/// # Panics
/// Panics when `dirty_rows` does not have one flag per table row, or when
/// the session part of `cfg` fails [`SessionConfig::validate`] (say, zero
/// iterations).
pub fn run_weak_strong(
    table: &Table,
    space: Arc<HypothesisSpace>,
    dirty_rows: &[bool],
    weak: &mut dyn Trainer,
    strong: &mut dyn Trainer,
    learner: &mut Learner,
    cfg: &WeakStrongConfig,
) -> WeakStrongResult {
    let session_cfg = SessionConfig {
        iterations: cfg.iterations,
        pairs_per_iteration: cfg.pairs_per_iteration,
        test_frac: cfg.test_frac,
        pool_cap: cfg.pool_cap,
        seed: cfg.seed,
        ..SessionConfig::default()
    };
    let mut st = batch_state(table, space, dirty_rows, session_cfg, strong, learner);
    let mut iterations = Vec::with_capacity(cfg.iterations);
    let mut weak_only = 0;
    let mut escalations = 0;
    while let Ok(Some(p)) = st.present(learner) {
        let weak_labels = weak.respond(table, &p.sample, &p.index);
        // The learner's own predictions within the sample context.
        let disagreement = p
            .predicted
            .iter()
            .zip(&weak_labels)
            .filter(|(p, w)| p != w)
            .count() as f64
            / p.sample.len().max(1) as f64;
        // The strong trainer observes every presented sample (the paper's
        // trainer updates on all the data it sees), even when it is not
        // asked to label.
        let Ok(strong_labels) = st.label_pending(strong) else {
            break;
        };
        let escalated = disagreement > cfg.escalation_threshold;
        let labels = if escalated {
            escalations += 1;
            strong_labels
        } else {
            weak_only += 1;
            weak_labels
        };
        let Ok(m) = st.apply_labels(strong, learner, &labels) else {
            break;
        };
        iterations.push(WeakStrongIteration {
            t: m.t,
            escalated,
            disagreement,
            mae_vs_strong: m.mae,
            learner_f1: m.learner_f1,
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

    #[test]
    fn always_escalating_weak_strong_equals_a_strong_session() {
        // With a negative threshold every round escalates, so the learner
        // sees exactly what a plain session with the strong trainer shows
        // it: the per-round MAE and F1 bits must match `run_session`.
        let (table, dirty, space, _) = fixture();
        let prior_cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let fp = |seed: u64| {
            FpTrainer::new(
                build_prior(&PriorSpec::Random { seed }, &prior_cfg, &space, &table),
                EvidenceConfig::default(),
            )
        };
        let cfg = WeakStrongConfig {
            iterations: 12,
            escalation_threshold: -1.0,
            seed: 7,
            ..WeakStrongConfig::default()
        };
        let (mut weak, mut strong) = (fp(4), fp(5));
        let mut l = learner(&space, &table);
        let escalated = run_weak_strong(
            &table,
            space.clone(),
            &dirty,
            &mut weak,
            &mut strong,
            &mut l,
            &cfg,
        );
        let mut strong = fp(5);
        let mut l = learner(&space, &table);
        let plain = crate::session::run_session(
            &table,
            space.clone(),
            &dirty,
            SessionConfig {
                iterations: cfg.iterations,
                pairs_per_iteration: cfg.pairs_per_iteration,
                test_frac: cfg.test_frac,
                pool_cap: cfg.pool_cap,
                seed: cfg.seed,
                ..SessionConfig::default()
            },
            &mut strong,
            &mut l,
        );
        assert_eq!(escalated.escalations, 12);
        assert_eq!(escalated.iterations.len(), plain.metrics.len());
        for (w, m) in escalated.iterations.iter().zip(&plain.metrics) {
            assert_eq!(w.mae_vs_strong.to_bits(), m.mae.to_bits(), "t = {}", m.t);
            assert_eq!(
                w.learner_f1.to_bits(),
                m.learner_f1.to_bits(),
                "t = {}",
                m.t
            );
        }
    }
}
