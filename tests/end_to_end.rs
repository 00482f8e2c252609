//! Cross-crate integration: the full exploratory-training pipeline on every
//! dataset of the paper.

use std::sync::Arc;

use exploratory_training::belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use exploratory_training::data::gen::DatasetName;
use exploratory_training::data::{
    inject_errors, split_rows, violation_degree, InjectConfig, Table,
};
use exploratory_training::fd::{Fd, HypothesisSpace};
use exploratory_training::game::trainer::FpTrainer;
use exploratory_training::game::{
    run_session, Learner, ResponseStrategy, SessionConfig, SessionResult, SessionState,
    StrategyKind,
};

/// Everything a session over one generated dataset starts from.
struct Setup {
    table: Table,
    dirty_rows: Vec<bool>,
    space: Arc<HypothesisSpace>,
    trainer: FpTrainer,
    learner: Learner,
    cfg: SessionConfig,
}

fn setup(dataset: DatasetName, kind: StrategyKind, seed: u64) -> Setup {
    let mut ds = dataset.generate(160, seed);
    let truth = ds.exact_fds.clone();
    let injection = inject_errors(
        &mut ds.table,
        &truth,
        &[],
        &InjectConfig::with_degree(0.12, seed),
    );
    assert!(injection.achieved_degree >= 0.12);
    assert!(violation_degree(&ds.table, &truth) >= 0.12);

    let pinned: Vec<Fd> = truth.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 24, 10, &pinned));
    let prior_cfg = PriorConfig {
        strength: 0.3,
        ..PriorConfig::default()
    };
    let trainer_prior = build_prior(&PriorSpec::Random { seed }, &prior_cfg, &space, &ds.table);
    let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
    let trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
    let learner = Learner::new(
        learner_prior,
        ResponseStrategy::paper(kind),
        EvidenceConfig::default(),
        seed,
    );
    let cfg = SessionConfig {
        iterations: 20,
        seed,
        ..SessionConfig::default()
    };
    Setup {
        table: ds.table,
        dirty_rows: injection.dirty_rows,
        space,
        trainer,
        learner,
        cfg,
    }
}

fn pipeline(dataset: DatasetName, kind: StrategyKind, seed: u64) -> SessionResult {
    let mut s = setup(dataset, kind, seed);
    run_session(
        &s.table,
        s.space,
        &s.dirty_rows,
        s.cfg,
        &mut s.trainer,
        &mut s.learner,
    )
}

#[test]
fn every_dataset_supports_a_full_session() {
    for dataset in DatasetName::ALL {
        let r = pipeline(dataset, StrategyKind::StochasticBestResponse, 5);
        assert_eq!(r.metrics.len(), 20, "{:?}", dataset);
        for m in &r.metrics {
            assert!((0.0..=1.0).contains(&m.mae));
            assert!((0.0..=1.0).contains(&m.learner_f1));
            assert!((0.0..=1.0).contains(&m.learner_precision));
            assert!((0.0..=1.0).contains(&m.learner_recall));
            assert!((0.0..=1.0).contains(&m.agreement));
            assert!((0.0..=1.0).contains(&m.phi_dirty));
            assert!(m.policy_entropy >= 0.0);
        }
    }
}

#[test]
fn mae_improves_on_every_dataset() {
    for dataset in DatasetName::ALL {
        let r = pipeline(dataset, StrategyKind::Random, 9);
        let first = r.metrics[0].mae;
        let last = r.convergence.final_mae;
        assert!(
            last < first,
            "{:?}: MAE {first:.3} -> {last:.3} should fall",
            dataset
        );
    }
}

#[test]
fn every_paper_method_completes() {
    for kind in StrategyKind::PAPER_METHODS {
        let r = pipeline(DatasetName::Omdb, kind, 11);
        assert_eq!(r.metrics.len(), 20, "{}", kind.as_str());
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = pipeline(DatasetName::Tax, StrategyKind::StochasticUncertainty, 3);
    let b = pipeline(DatasetName::Tax, StrategyKind::StochasticUncertainty, 3);
    assert_eq!(a.mae_series(), b.mae_series());
    assert_eq!(a.f1_series(), b.f1_series());
    assert_eq!(a.learner_confidences, b.learner_confidences);
    let c = pipeline(DatasetName::Tax, StrategyKind::StochasticUncertainty, 4);
    assert_ne!(a.mae_series(), c.mae_series(), "seeds must matter");
}

#[test]
fn selected_pairs_stay_fresh_and_in_train_split() {
    let Setup {
        table,
        dirty_rows,
        space,
        mut trainer,
        mut learner,
        cfg,
    } = setup(DatasetName::Airport, StrategyKind::UncertaintySampling, 2);
    let (train, _) = split_rows(table.nrows(), cfg.test_frac, cfg.seed);
    let mut in_train = vec![false; table.nrows()];
    for r in train {
        in_train[r] = true;
    }
    let mut st = SessionState::new(table, space, &dirty_rows, cfg, &trainer, &learner)
        .expect("valid session");
    let mut seen = std::collections::HashSet::new();
    while let Some(p) = st.present(&mut learner).expect("in phase") {
        for pair in p.pairs() {
            assert!(seen.insert(*pair), "selected pair repeated");
        }
        for &r in p.sample() {
            assert!(in_train[r], "presented row {r} is held out for evaluation");
        }
        let labels = st.label_pending(&mut trainer).expect("pending");
        let _ = st
            .apply_labels(&trainer, &mut learner, &labels)
            .expect("aligned");
    }
    assert!(!seen.is_empty());
}
