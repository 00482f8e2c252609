//! Cross-crate property tests: invariants that must hold across the whole
//! pipeline for randomized configurations.

use std::sync::Arc;

use exploratory_training::belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use exploratory_training::data::gen::DatasetName;
use exploratory_training::data::{inject_errors, violation_degree, InjectConfig};
use exploratory_training::fd::{g1_of, Fd, HypothesisSpace};
use exploratory_training::game::trainer::FpTrainer;
use exploratory_training::game::{
    run_session, Learner, ResponseStrategy, SessionConfig, StrategyKind,
};
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = DatasetName> {
    prop_oneof![
        Just(DatasetName::Omdb),
        Just(DatasetName::Airport),
        Just(DatasetName::Tax),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn injection_reaches_degree_and_tracks_ground_truth(
        dataset in dataset_strategy(),
        degree in 0.05f64..0.25,
        seed in 0u64..1000,
    ) {
        let mut ds = dataset.generate(150, seed);
        let fds = ds.exact_fds.clone();
        let inj = inject_errors(&mut ds.table, &fds, &[], &InjectConfig::with_degree(degree, seed));
        prop_assert!(inj.achieved_degree >= degree - 1e-12);
        prop_assert!((violation_degree(&ds.table, &fds) - inj.achieved_degree).abs() < 1e-12);
        // Every dirty cell belongs to a dirty row.
        for &(row, _) in &inj.dirty_cells {
            prop_assert!(inj.dirty_rows[row]);
        }
        // Violations cannot exist without dirty rows (clean data is exact).
        prop_assert!(inj.dirty_row_count() > 0);
    }

    #[test]
    fn measures_are_consistent(
        dataset in dataset_strategy(),
        degree in 0.05f64..0.2,
        seed in 0u64..1000,
    ) {
        let mut ds = dataset.generate(120, seed);
        let fds = ds.exact_fds.clone();
        let _ = inject_errors(&mut ds.table, &fds, &[], &InjectConfig::with_degree(degree, seed));
        for spec in &fds {
            let fd = Fd::from_spec(spec);
            let g1 = g1_of(&ds.table, &fd);
            // Oracle: the FD is violated iff some LHS group holds two RHS
            // values.
            let groups = ds.table.group_by(&fd.lhs.to_vec());
            let violated = groups.groups.iter().any(|g| {
                g.iter().any(|&r| {
                    ds.table.sym(r as usize, fd.rhs) != ds.table.sym(g[0] as usize, fd.rhs)
                })
            });
            prop_assert_eq!(g1.violating_pairs > 0, violated);
            // All bounded.
            prop_assert!((0.0..=1.0).contains(&g1.g1()));
            prop_assert!((0.0..=1.0).contains(&g1.violation_rate()));
        }
    }

    #[test]
    fn capped_space_respects_contract(
        dataset in dataset_strategy(),
        cap in 10usize..40,
        seed in 0u64..1000,
    ) {
        let ds = dataset.generate(150, seed);
        let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
        prop_assume!(cap >= pinned.len());
        let space = HypothesisSpace::capped(&ds.table, 3, cap, 5, &pinned);
        prop_assert!(space.len() <= cap.max(pinned.len()));
        for fd in &pinned {
            prop_assert!(space.contains(fd));
        }
        // No duplicates by construction.
        let mut fds: Vec<Fd> = space.fds().to_vec();
        fds.sort_unstable();
        fds.dedup();
        prop_assert_eq!(fds.len(), space.len());
    }

    #[test]
    fn short_sessions_emit_sane_metrics(
        kind_idx in 0usize..4,
        seed in 0u64..200,
    ) {
        let kind = StrategyKind::PAPER_METHODS[kind_idx];
        let mut ds = DatasetName::Omdb.generate(120, seed);
        let fds = ds.exact_fds.clone();
        let inj = inject_errors(&mut ds.table, &fds, &[], &InjectConfig::with_degree(0.1, seed));
        let pinned: Vec<Fd> = fds.iter().map(Fd::from_spec).collect();
        let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 14, 8, &pinned));
        let cfg = PriorConfig { strength: 0.3, ..PriorConfig::default() };
        let mut trainer = FpTrainer::new(
            build_prior(&PriorSpec::Random { seed }, &cfg, &space, &ds.table),
            EvidenceConfig::default());
        let mut learner = Learner::new(
            build_prior(&PriorSpec::DataEstimate, &cfg, &space, &ds.table),
            ResponseStrategy::paper(kind),
            EvidenceConfig::default(),
            seed);
        let r = run_session(
            &ds.table, space, &inj.dirty_rows,
            SessionConfig { iterations: 6, seed, ..SessionConfig::default() },
            &mut trainer, &mut learner);
        prop_assert!(!r.metrics.is_empty());
        for m in &r.metrics {
            prop_assert!((0.0..=1.0).contains(&m.mae));
            prop_assert!((0.0..=1.0).contains(&m.learner_f1));
            prop_assert!((0.0..=1.0).contains(&m.agreement));
            prop_assert!((0.0..=1.0).contains(&m.phi_dirty));
            prop_assert!(m.policy_entropy >= -1e-12);
            prop_assert!(m.learner_drift >= 0.0 && m.trainer_drift >= 0.0);
        }
        // Confidence vectors stay probabilities.
        for c in r.learner_confidences.iter().chain(&r.trainer_confidences) {
            prop_assert!((0.0..=1.0).contains(c));
        }
    }
}
