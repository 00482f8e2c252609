//! Weak/strong labeler escalation — combining exploratory training with the
//! related work the paper points at (active learning from weak and strong
//! labelers).
//!
//! ```text
//! cargo run --release --example weak_strong
//! ```
//!
//! A cheap-but-noisy annotator labels every round; an expensive accurate
//! one is consulted only when the learner's own predictions disagree with
//! the weak labels. Sweep the weak annotator's noise and watch the
//! escalation rate respond.

#![expect(
    clippy::expect_used,
    reason = "example code favours direct `expect` over error plumbing"
)]

use std::sync::Arc;

use exploratory_training::belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use exploratory_training::data::gen::DatasetName;
use exploratory_training::data::{inject_errors, InjectConfig};
use exploratory_training::fd::{Fd, HypothesisSpace};
use exploratory_training::game::trainer::{FpTrainer, NoisyTrainer};
use exploratory_training::game::{
    run_weak_strong, Learner, ResponseStrategy, StrategyKind, WeakStrongConfig,
};

fn main() {
    let mut ds = DatasetName::Tax.generate(260, 31);
    let truth = ds.exact_fds.clone();
    let injection = inject_errors(
        &mut ds.table,
        &truth,
        &[],
        &InjectConfig::with_degree(0.12, 31),
    );
    let pinned: Vec<Fd> = truth.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 30, 20, &pinned));
    let prior_cfg = PriorConfig {
        strength: 0.3,
        ..PriorConfig::default()
    };

    println!(
        "Tax dataset: {} rows, {} dirty; hypothesis space {} FDs\n",
        ds.table.nrows(),
        injection.dirty_row_count(),
        space.len()
    );
    println!(
        "{:>10} {:>16} {:>14} {:>16}",
        "weak noise", "escalation rate", "final MAE", "final learner F1"
    );

    for flip in [0.0, 0.1, 0.25, 0.5] {
        // Both annotators are *learning* FP trainers; the weak one is also
        // noisy (labels flipped with probability `flip`).
        let weak_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
        let strong_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
        let mut weak = NoisyTrainer::new(
            FpTrainer::new(weak_prior, EvidenceConfig::default()),
            flip,
            7,
        );
        let mut strong = FpTrainer::new(strong_prior, EvidenceConfig::default());
        let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
        let mut learner = Learner::new(
            learner_prior,
            ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
            EvidenceConfig::default(),
            11,
        );
        let result = run_weak_strong(
            &ds.table,
            space.clone(),
            &injection.dirty_rows,
            &mut weak,
            &mut strong,
            &mut learner,
            &WeakStrongConfig {
                iterations: 30,
                seed: 13,
                ..WeakStrongConfig::default()
            },
        );
        let last = result.iterations.last().expect("ran");
        println!(
            "{:>10.2} {:>16.2} {:>14.3} {:>16.3}",
            flip,
            result.escalation_rate(),
            last.mae_vs_strong,
            last.learner_f1
        );
    }
    println!("\nNoisier weak labelers trigger more escalations to the strong annotator,");
    println!("keeping the learner's model usable without paying for every label.");
}
