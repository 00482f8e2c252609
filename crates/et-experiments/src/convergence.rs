//! The shared engine for the empirical-study experiments (Appendix C).
//!
//! One [`ConvergenceExperiment`] fixes a dataset, a violation degree, a
//! trainer prior and a learner prior; running it executes every requested
//! sampling method over `runs` seeds and aggregates per-iteration MAE and
//! F1 curves — the raw material of Figures 1 and 3–7.

#![expect(
    clippy::indexing_slicing,
    reason = "mi enumerates self.methods, whose length per_method is built with; len is the shortest metrics length among the results it slices; test rows come from split_rows over the prepared table's nrows(), the length of its dirty_rows"
)]

use std::sync::Arc;

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::trainer::FpTrainer;
use et_core::{run_session, Learner, ResponseStrategy, SessionConfig, SessionResult, StrategyKind};
use et_data::gen::DatasetName;
use et_data::{inject_errors, InjectConfig};
use et_fd::{Fd, HypothesisSpace};
use et_metrics::{aggregate, SeriesStats};

/// A session that played no round: its table was too small to offer a
/// single candidate pair, so it has no curve to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRounds {
    /// The dataset the session ran on.
    pub dataset: DatasetName,
    /// The generated row count.
    pub rows: usize,
}

impl std::fmt::Display for NoRounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a session on a {}-row {} table played no round (too few rows to offer a pair)",
            self.rows,
            self.dataset.as_str()
        )
    }
}

impl std::error::Error for NoRounds {}

/// The prior families of the empirical study, instantiated per run seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorKind {
    /// Every FD at confidence `d` (the study uses Uniform-0.9).
    Uniform(f64),
    /// Per-FD confidence drawn uniformly at random.
    Random,
    /// Confidence = 1 − violation rate on the unlabeled (dirty) data.
    DataEstimate,
}

impl PriorKind {
    /// The concrete prior spec for one run.
    pub fn spec(&self, seed: u64) -> PriorSpec {
        match self {
            PriorKind::Uniform(d) => PriorSpec::Uniform { d: *d },
            PriorKind::Random => PriorSpec::Random { seed },
            PriorKind::DataEstimate => PriorSpec::DataEstimate,
        }
    }

    /// Display label matching the paper.
    pub fn label(&self) -> String {
        match self {
            PriorKind::Uniform(d) => format!("Uniform-{d}"),
            PriorKind::Random => "Random".into(),
            PriorKind::DataEstimate => "Data-estimate".into(),
        }
    }
}

/// Aggregated curves for one sampling method.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// The sampling method.
    pub kind: StrategyKind,
    /// MAE(trainer, learner) per iteration, mean ± std over runs.
    pub mae: SeriesStats,
    /// Learner F1 on the held-out test set per iteration.
    pub f1: SeriesStats,
    /// Learner precision per iteration.
    pub precision: SeriesStats,
    /// Learner recall per iteration.
    pub recall: SeriesStats,
    /// Threshold-free detector quality at the end of each run: ROC AUC of
    /// the learner's final dirty scores on the held-out test set, mean over
    /// runs.
    pub final_auc: f64,
}

/// One empirical-study experiment configuration.
#[derive(Debug, Clone)]
pub struct ConvergenceExperiment {
    /// Which dataset to generate.
    pub dataset: DatasetName,
    /// Rows generated.
    pub rows: usize,
    /// Requested degree of violation.
    pub degree: f64,
    /// Trainer prior family.
    pub trainer_prior: PriorKind,
    /// Learner prior family.
    pub learner_prior: PriorKind,
    /// Sampling methods to compare.
    pub methods: Vec<StrategyKind>,
    /// Number of independent runs (seeds) to average.
    pub runs: usize,
    /// Session shape (iterations, pairs per iteration, …).
    pub session: SessionConfig,
    /// Hypothesis-space size (paper: 38 FDs).
    pub space_cap: usize,
    /// Maximum attributes per FD (paper: 4).
    pub max_fd_attrs: u32,
    /// Prior construction knobs.
    pub prior_cfg: PriorConfig,
    /// Evidence weights for both agents' updates.
    pub evidence: EvidenceConfig,
    /// Softmax temperature γ for the stochastic methods (paper: 0.5).
    pub gamma: f64,
    /// What the strategies' example scores are computed from.
    pub score_basis: et_core::respond::ScoreBasis,
    /// How much of each interaction feeds the learner's belief update.
    pub evidence_scope: et_core::EvidenceScope,
    /// Base seed.
    pub seed: u64,
}

impl ConvergenceExperiment {
    /// The paper's default setup for a dataset/degree/prior combination.
    pub fn paper(
        dataset: DatasetName,
        degree: f64,
        trainer_prior: PriorKind,
        learner_prior: PriorKind,
    ) -> Self {
        Self {
            dataset,
            rows: 240,
            degree,
            trainer_prior,
            learner_prior,
            methods: StrategyKind::PAPER_METHODS.to_vec(),
            runs: 5,
            session: SessionConfig::default(),
            space_cap: 38,
            max_fd_attrs: 4,
            prior_cfg: PriorConfig {
                strength: 0.3,
                ..PriorConfig::default()
            },
            evidence: EvidenceConfig::default(),
            gamma: 0.5,
            score_basis: et_core::respond::ScoreBasis::PairLocal,
            evidence_scope: et_core::EvidenceScope::SelectedPairs,
            seed: 0xE7,
        }
    }

    /// Runs all methods over all seeds and aggregates.
    ///
    /// # Errors
    /// [`NoRounds`] when a session plays no round.
    ///
    /// # Panics
    /// Panics when `runs` is zero.
    pub fn run(&self) -> Result<Vec<MethodRun>, NoRounds> {
        assert!(self.runs > 0, "need at least one run");
        let mut per_method: Vec<Vec<(SessionResult, f64)>> =
            vec![Vec::with_capacity(self.runs); self.methods.len()];

        for r in 0..self.runs {
            let seed = self.seed.wrapping_add(r as u64).wrapping_mul(0x9e37_79b9);
            let prepared = self.prepare(seed);
            for (mi, &kind) in self.methods.iter().enumerate() {
                let result = self.run_one(&prepared, kind, seed);
                if result.metrics.is_empty() {
                    return Err(NoRounds {
                        dataset: self.dataset,
                        rows: self.rows,
                    });
                }
                let auc = final_detector_auc(&prepared, &result, seed, &self.session);
                per_method[mi].push((result, auc));
            }
        }

        Ok(self
            .methods
            .iter()
            .zip(per_method)
            .map(|(&kind, results)| {
                let len = results.iter().map(|r| r.0.metrics.len()).min().unwrap_or(0);
                let take = |f: &dyn Fn(&et_core::IterationMetrics) -> f64| {
                    let runs: Vec<Vec<f64>> = results
                        .iter()
                        .map(|r| r.0.metrics[..len].iter().map(f).collect())
                        .collect();
                    aggregate(&runs)
                };
                let final_auc = results.iter().map(|r| r.1).sum::<f64>() / results.len() as f64;
                MethodRun {
                    kind,
                    mae: take(&|m| m.mae),
                    f1: take(&|m| m.learner_f1),
                    precision: take(&|m| m.learner_precision),
                    recall: take(&|m| m.learner_recall),
                    final_auc,
                }
            })
            .collect())
    }

    /// Generates the dirty dataset and hypothesis space for one seed.
    fn prepare(&self, seed: u64) -> Prepared {
        let mut ds = self.dataset.generate(self.rows, seed);
        let specs = ds.exact_fds.clone();
        let injection = inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &InjectConfig::with_degree(self.degree, seed ^ 0xB5),
        );
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        // FDs need enough at-risk pairs to be learnable within N
        // interactions; scale the support floor with the data.
        let min_support = (self.rows as u64 / 12).max(5);
        let space = Arc::new(HypothesisSpace::capped(
            &ds.table,
            self.max_fd_attrs,
            self.space_cap,
            min_support,
            &pinned,
        ));
        Prepared {
            table: ds.table,
            dirty_rows: injection.dirty_rows,
            space,
        }
    }

    /// Runs one (seeded) session with one sampling method.
    fn run_one(&self, p: &Prepared, kind: StrategyKind, seed: u64) -> SessionResult {
        let trainer_prior = build_prior(
            &self.trainer_prior.spec(seed ^ 0x7261_696e),
            &self.prior_cfg,
            &p.space,
            &p.table,
        );
        let learner_prior = build_prior(
            &self.learner_prior.spec(seed ^ 0x6c65_6172),
            &self.prior_cfg,
            &p.space,
            &p.table,
        );
        let mut trainer = FpTrainer::new(trainer_prior, self.evidence);
        let mut learner = Learner::new(
            learner_prior,
            ResponseStrategy::new(kind, self.gamma).with_basis(self.score_basis),
            self.evidence,
            seed ^ 0x6b69_6e64,
        )
        .with_evidence_scope(self.evidence_scope);
        let cfg = SessionConfig {
            seed,
            ..self.session.clone()
        };
        run_session(
            &p.table,
            p.space.clone(),
            &p.dirty_rows,
            cfg,
            &mut trainer,
            &mut learner,
        )
    }
}

struct Prepared {
    table: et_data::Table,
    dirty_rows: Vec<bool>,
    space: Arc<HypothesisSpace>,
}

/// ROC AUC of the learner's final dirty scores on the same held-out test
/// split the session used.
fn final_detector_auc(
    p: &Prepared,
    result: &SessionResult,
    seed: u64,
    session: &SessionConfig,
) -> f64 {
    let (_, test_rows) = et_data::split_rows(p.table.nrows(), session.test_frac, seed);
    let test_table = p.table.subset(&test_rows);
    let index = et_fd::ViolationIndex::build(&test_table, &p.space);
    let scores: Vec<f64> = (0..test_rows.len())
        .map(|r| et_fd::tuple_dirty_prob(&index, &result.learner_confidences, r))
        .collect();
    let truth: Vec<bool> = test_rows.iter().map(|&r| p.dirty_rows[r]).collect();
    et_metrics::roc_auc(&scores, &truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(dataset: DatasetName) -> ConvergenceExperiment {
        let mut e =
            ConvergenceExperiment::paper(dataset, 0.10, PriorKind::Random, PriorKind::DataEstimate);
        e.rows = 150;
        e.runs = 2;
        e.max_fd_attrs = 3;
        e.space_cap = 20;
        e.session.iterations = 10;
        e
    }

    #[test]
    fn produces_aggregated_curves() {
        let e = quick(DatasetName::Omdb);
        let runs = e.run().expect("sessions play rounds");
        assert_eq!(runs.len(), 4);
        for m in &runs {
            assert_eq!(m.mae.len(), 10);
            assert_eq!(m.f1.len(), 10);
            assert_eq!(m.mae.runs, 2);
            for v in &m.mae.mean {
                assert!((0.0..=1.0).contains(v));
            }
        }
    }

    #[test]
    fn deterministic_across_invocations() {
        let e = quick(DatasetName::Airport);
        let a = e.run().expect("sessions play rounds");
        let b = e.run().expect("sessions play rounds");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mae.mean, y.mae.mean);
        }
    }

    #[test]
    fn mae_falls_for_every_method() {
        let mut e = quick(DatasetName::Omdb);
        e.session.iterations = 25;
        for m in e.run().expect("sessions play rounds") {
            let first = m.mae.mean[0];
            let last = m.mae.last_mean();
            assert!(
                last < first,
                "{}: MAE {first:.3} -> {last:.3}",
                m.kind.as_str()
            );
        }
    }

    #[test]
    fn prior_kind_labels() {
        assert_eq!(PriorKind::Uniform(0.9).label(), "Uniform-0.9");
        assert_eq!(PriorKind::Random.label(), "Random");
        assert_eq!(PriorKind::DataEstimate.label(), "Data-estimate");
    }
}
