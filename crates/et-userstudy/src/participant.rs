//! Simulated annotators.
//!
//! Each participant owns an *internal* learning rule — the thing the
//! paper's user study tries to identify from the outside:
//!
//! * [`LearningRule::Fp`] — fictitious play / Bayesian: a Beta belief per
//!   FD, updated with the shared evidence rule (what the paper found in 18
//!   of 20 participants);
//! * [`LearningRule::HypothesisTesting`] — keep one hypothesis until the
//!   recent window rejects it.
//!
//! Every iteration the participant inspects the ten presented tuples,
//! updates its internal state, *declares* the FD it currently deems most
//! accurate (the study's ground-truth elicitation), and labels tuples as
//! violations of that declared FD. Decision noise occasionally makes the
//! participant declare its second-best hypothesis — the paper's suggested
//! extension ("considering the probability of noise in decision making")
//! and the source of scenario-2-like non-monotonicity.

#![expect(
    clippy::indexing_slicing,
    reason = "ranked/rows are indexed by positions drawn from 0..len of the same vectors within the responder"
)]

use std::sync::Arc;

use et_belief::{
    update_from_pair_relations, Belief, Beta, EvidenceConfig, HypothesisTester, LabeledPair,
    PriorConfig, PriorSpec, ScoreMode,
};
use et_data::Table;
use et_fd::{pair_relation, Fd, HypothesisSpace, PairRelation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The participant's internal learning rule.
#[derive(Debug, Clone)]
pub enum LearningRule {
    /// Fictitious play / Bayesian updating.
    Fp {
        /// Evidence weights for the belief update.
        evidence: EvidenceConfig,
    },
    /// Hypothesis testing with the given rejection tolerance.
    HypothesisTesting {
        /// Minimum satisfaction score on the recent window.
        tolerance: f64,
    },
}

/// Configuration of one simulated participant.
#[derive(Debug, Clone)]
pub struct ParticipantConfig {
    /// The internal learning rule.
    pub rule: LearningRule,
    /// The FD the participant initially believes, or `None` for "not sure"
    /// (uniform prior, as the study interface allows).
    pub initial_belief: Option<Fd>,
    /// Probability of declaring the second-best hypothesis instead of the
    /// best in any iteration.
    pub decision_noise: f64,
    /// Per-participant RNG seed.
    pub seed: u64,
}

/// What a participant produces for one presented sample.
#[derive(Debug, Clone)]
pub struct ParticipantResponse {
    /// The FD the participant declares most accurate this iteration.
    pub declared: Fd,
    /// Pairwise labels over the presented sample (only pairs relevant to at
    /// least one hypothesis-space FD are recorded).
    pub labeled_pairs: Vec<LabeledPair>,
    /// Per-tuple dirty labels, aligned with the presented rows.
    pub tuple_labels: Vec<bool>,
}

enum State {
    Fp {
        belief: Belief,
        evidence: EvidenceConfig,
    },
    Ht(HypothesisTester),
}

/// A simulated annotator over one scenario's hypothesis space.
pub struct Participant {
    state: State,
    space: Arc<HypothesisSpace>,
    noise: f64,
    rng: StdRng,
}

impl Participant {
    /// Builds the participant for a scenario hypothesis space.
    ///
    /// FP participants get the paper's §A.2 prior around their declared
    /// initial FD (ε = 0.85 / related 0.8 / others 0.15, σ = 0.05, weakened
    /// so ten short iterations can move it); "not sure" participants start
    /// uniform.
    pub fn new(cfg: &ParticipantConfig, space: Arc<HypothesisSpace>, table: &Table) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x6a09_e667_f3bc_c908);
        let state = match &cfg.rule {
            LearningRule::Fp { evidence } => {
                let prior_cfg = PriorConfig {
                    strength: 0.15,
                    ..PriorConfig::default()
                };
                let belief = match &cfg.initial_belief {
                    Some(fd) => build_user_prior(fd, &prior_cfg, &space, table),
                    None => Belief::constant(
                        space.clone(),
                        Beta::from_mean_std(0.5, prior_cfg.std).scaled(prior_cfg.strength),
                    ),
                };
                State::Fp {
                    belief,
                    evidence: *evidence,
                }
            }
            LearningRule::HypothesisTesting { tolerance } => {
                let initial = cfg
                    .initial_belief
                    .as_ref()
                    .and_then(|fd| space.index_of(fd))
                    .unwrap_or(0);
                State::Ht(HypothesisTester::new(
                    space.clone(),
                    initial,
                    *tolerance,
                    ScoreMode::DataSatisfaction,
                ))
            }
        };
        Self {
            state,
            space,
            noise: cfg.decision_noise,
            rng,
        }
    }

    /// True when the participant's internal rule is FP/Bayesian.
    pub fn is_fp(&self) -> bool {
        matches!(self.state, State::Fp { .. })
    }

    /// Observes the presented sample, updates the internal rule, declares
    /// an FD, and labels the tuples.
    pub fn respond(&mut self, table: &Table, rows: &[usize]) -> ParticipantResponse {
        // All relevant pairs within the sample — what the participant can
        // actually inspect.
        let sample_pairs = relevant_pairs(table, &self.space, rows);

        // 1. Update the internal rule from the observations.
        match &mut self.state {
            State::Fp { belief, evidence } => {
                // The annotator inspects the sample and tallies, per FD, how
                // often it held — label-free fictitious play on the data.
                update_from_pair_relations(belief, table, &sample_pairs, evidence.clean_weight);
            }
            State::Ht(ht) => {
                let current = ht.current_fd();
                let labeled: Vec<LabeledPair> = sample_pairs
                    .iter()
                    .map(|&(a, b)| {
                        let violates =
                            pair_relation(table, &current, a, b) == PairRelation::Violates;
                        LabeledPair {
                            a,
                            b,
                            dirty_a: violates,
                            dirty_b: violates,
                        }
                    })
                    .collect();
                let _ = ht.observe_interaction(table, &labeled);
            }
        }

        // 2. Declare the currently-best hypothesis; decision noise
        // occasionally declares another top-4 contender instead — the
        // "probability of noise in decision making" extension the paper
        // suggests (§A.3), and the source of non-monotone trajectories.
        let ranked = self.ranked_hypotheses(table);
        let pick = if ranked.len() > 1 && self.rng.gen::<f64>() < self.noise {
            let alt = 1 + self.rng.gen_range(0..3.min(ranked.len() - 1));
            ranked[alt]
        } else {
            ranked[0]
        };
        let declared = self.space.fd(pick);

        // 3. Label the sample as violations of the declared FD.
        let mut tuple_labels = vec![false; rows.len()];
        let mut labeled_pairs = Vec::with_capacity(sample_pairs.len());
        for &(a, b) in &sample_pairs {
            let violates = pair_relation(table, &declared, a, b) == PairRelation::Violates;
            if violates {
                for (i, &r) in rows.iter().enumerate() {
                    if r == a || r == b {
                        tuple_labels[i] = true;
                    }
                }
            }
            labeled_pairs.push(LabeledPair {
                a,
                b,
                dirty_a: violates,
                dirty_b: violates,
            });
        }

        ParticipantResponse {
            declared,
            labeled_pairs,
            tuple_labels,
        }
    }

    /// The participant's current hypothesis ranking (best first).
    fn ranked_hypotheses(&self, table: &Table) -> Vec<usize> {
        match &self.state {
            State::Fp { belief, .. } => belief
                .top_k(belief.len())
                .into_iter()
                .map(|(i, _)| i)
                .collect(),
            State::Ht(ht) => ht.ranked(table),
        }
    }

    /// The participant's current top hypothesis.
    pub fn current_best(&self, table: &Table) -> Fd {
        self.space.fd(self.ranked_hypotheses(table)[0])
    }
}

/// Builds the §A.2 user prior (declared FD ε, related 0.8, others 0.15).
fn build_user_prior(
    fd: &Fd,
    cfg: &PriorConfig,
    space: &Arc<HypothesisSpace>,
    table: &Table,
) -> Belief {
    et_belief::build_prior(&PriorSpec::UserSpecified { fd: *fd }, cfg, space, table)
}

/// All within-sample pairs relevant to at least one hypothesis-space FD.
fn relevant_pairs(table: &Table, space: &HypothesisSpace, rows: &[usize]) -> Vec<(usize, usize)> {
    let rel = et_fd::SpaceRelations::new(space);
    let mut out = Vec::new();
    for (i, &a) in rows.iter().enumerate() {
        for &b in &rows[i + 1..] {
            if rel.relevant_to_any(table, a, b) {
                out.push((a.min(b), a.max(b)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenarios;

    fn fp_cfg(seed: u64, initial: Option<Fd>) -> ParticipantConfig {
        ParticipantConfig {
            rule: LearningRule::Fp {
                evidence: EvidenceConfig::default(),
            },
            initial_belief: initial,
            decision_noise: 0.0,
            seed,
        }
    }

    #[test]
    fn fp_participant_learns_target() {
        let s = &scenarios()[4]; // rating -> type, small schema
        let data = s.materialize(300, 0.10, 7);
        let space = Arc::new(s.space());
        // Start out believing the (wrong) alternative.
        let mut p = Participant::new(&fp_cfg(1, Some(s.alternative_fd())), space, &data.table);
        assert!(p.is_fp());
        let mut rng = StdRng::seed_from_u64(2);
        let mut declared_last = None;
        for _ in 0..12 {
            let rows: Vec<usize> = (0..10)
                .map(|_| rng.gen_range(0..data.table.nrows()))
                .collect();
            let resp = p.respond(&data.table, &rows);
            declared_last = Some(resp.declared);
        }
        // After a dozen iterations the declared FD should be the target (or
        // at least related to it).
        let declared = declared_last.unwrap();
        assert!(
            declared == s.target_fd() || declared.is_related_to(&s.target_fd()),
            "declared {declared} vs target {}",
            s.target_fd()
        );
    }

    #[test]
    fn ht_participant_switches_hypotheses() {
        let s = &scenarios()[4];
        let data = s.materialize(300, 0.10, 3);
        let space = Arc::new(s.space());
        let cfg = ParticipantConfig {
            rule: LearningRule::HypothesisTesting { tolerance: 0.8 },
            initial_belief: Some(s.alternative_fd()),
            decision_noise: 0.0,
            seed: 5,
        };
        let mut p = Participant::new(&cfg, space, &data.table);
        assert!(!p.is_fp());
        let mut rng = StdRng::seed_from_u64(6);
        let mut declared = Vec::new();
        for _ in 0..12 {
            let rows: Vec<usize> = (0..10)
                .map(|_| rng.gen_range(0..data.table.nrows()))
                .collect();
            declared.push(p.respond(&data.table, &rows).declared);
        }
        let distinct: std::collections::HashSet<_> = declared.iter().collect();
        assert!(distinct.len() > 1, "HT should abandon the bad alternative");
    }

    #[test]
    fn labels_mark_declared_violations() {
        let s = &scenarios()[0];
        let data = s.materialize(250, 0.20, 9);
        let space = Arc::new(s.space());
        let mut p = Participant::new(&fp_cfg(2, Some(s.target_fd())), space, &data.table);
        let rows: Vec<usize> = (0..20).collect();
        let resp = p.respond(&data.table, &rows);
        // Tuple labels must be consistent with the pairwise labels.
        for lp in &resp.labeled_pairs {
            if lp.dirty_a {
                let i = rows.iter().position(|&r| r == lp.a).unwrap();
                assert!(resp.tuple_labels[i]);
            }
        }
        assert_eq!(resp.tuple_labels.len(), rows.len());
    }

    #[test]
    fn decision_noise_changes_declarations() {
        let s = &scenarios()[4];
        let data = s.materialize(250, 0.10, 4);
        let space = Arc::new(s.space());
        let run = |noise: f64| {
            let cfg = ParticipantConfig {
                rule: LearningRule::Fp {
                    evidence: EvidenceConfig::default(),
                },
                initial_belief: Some(s.target_fd()),
                decision_noise: noise,
                seed: 11,
            };
            let mut p = Participant::new(&cfg, space.clone(), &data.table);
            let mut rng = StdRng::seed_from_u64(12);
            let mut declared = Vec::new();
            for _ in 0..10 {
                let rows: Vec<usize> = (0..10)
                    .map(|_| rng.gen_range(0..data.table.nrows()))
                    .collect();
                declared.push(p.respond(&data.table, &rows).declared);
            }
            declared
        };
        let calm = run(0.0);
        let noisy = run(0.9);
        assert_ne!(calm, noisy, "noise should perturb declarations");
    }

    #[test]
    fn unsure_participant_starts_uniform() {
        let s = &scenarios()[2];
        let data = s.materialize(200, 0.10, 8);
        let space = Arc::new(s.space());
        let p = Participant::new(&fp_cfg(3, None), space.clone(), &data.table);
        // With no evidence, ranking is by index — the participant holds no
        // real preference.
        assert_eq!(p.current_best(&data.table), space.fd(0));
    }
}
