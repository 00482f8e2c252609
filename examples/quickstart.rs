//! Quickstart: one exploratory-training session, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a dirty OMDB-like dataset, builds the 38-FD hypothesis space,
//! gives the trainer a random prior (an annotator who has not seen the data
//! yet) and the learner a data-estimate prior, runs 30 interactions with
//! the paper's Stochastic Best Response, and prints how the two agents'
//! beliefs converge.

#![expect(
    clippy::indexing_slicing,
    reason = "the session runs at least one round"
)]
#![expect(
    clippy::expect_used,
    reason = "example code favours direct `expect` over error plumbing"
)]

use std::sync::Arc;

use exploratory_training::belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use exploratory_training::data::gen::DatasetName;
use exploratory_training::data::{inject_errors, InjectConfig};
use exploratory_training::fd::{Fd, HypothesisSpace};
use exploratory_training::game::trainer::FpTrainer;
use exploratory_training::game::{
    run_session, Learner, ResponseStrategy, SessionConfig, StrategyKind,
};

fn main() {
    // 1. A dirty dataset: 240 OMDB-like rows, ~10% of at-risk tuple pairs
    //    violating the ground-truth FDs.
    let mut ds = DatasetName::Omdb.generate(240, 42);
    let truth = ds.exact_fds.clone();
    let injection = inject_errors(
        &mut ds.table,
        &truth,
        &[],
        &InjectConfig::with_degree(0.10, 42),
    );
    println!(
        "dataset: {} rows, {} dirty ({} cell edits, degree {:.2})",
        ds.table.nrows(),
        injection.dirty_row_count(),
        injection.edits,
        injection.achieved_degree
    );

    // 2. The hypothesis space: 38 approximate FDs spanning the quality
    //    spectrum, with the ground-truth FDs pinned in.
    let pinned: Vec<Fd> = truth.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(&ds.table, 4, 38, 20, &pinned));
    println!("hypothesis space: {} FDs, e.g.:", space.len());
    for fd in space.fds().iter().take(3) {
        println!("  {}", fd.display(ds.table.schema()));
    }

    // 3. Agents. The trainer is the simulated annotator (fictitious play,
    //    random prior — it will *learn about the data while labeling*); the
    //    learner starts from the usual practice of estimating confidences
    //    from the unlabeled data.
    let prior_cfg = PriorConfig {
        strength: 0.3,
        ..PriorConfig::default()
    };
    let trainer_prior = build_prior(
        &PriorSpec::Random { seed: 7 },
        &prior_cfg,
        &space,
        &ds.table,
    );
    let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
    let mut trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
    let mut learner = Learner::new(
        learner_prior,
        ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
        EvidenceConfig::default(),
        7,
    );

    // 4. Play the game.
    let result = run_session(
        &ds.table,
        space.clone(),
        &injection.dirty_rows,
        SessionConfig::default(),
        &mut trainer,
        &mut learner,
    );

    println!("\niter   MAE    learner-F1  agreement  dirty-labels");
    for m in result.metrics.iter().step_by(5) {
        println!(
            "{:>4}  {:.3}     {:.3}      {:.3}        {}",
            m.t, m.mae, m.learner_f1, m.agreement, m.dirty_labels
        );
    }
    let last = result.metrics.last().expect("session ran");
    println!(
        "\nafter {} interactions: MAE {:.3} -> {:.3}, learner F1 {:.3}",
        result.metrics.len(),
        result.metrics[0].mae,
        last.mae,
        last.learner_f1
    );

    // 5. What did the learner conclude? Top-5 hypotheses by confidence.
    println!("\nlearner's top hypotheses:");
    let mut ranked: Vec<(usize, f64)> = result
        .learner_confidences
        .iter()
        .copied()
        .enumerate()
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (i, c) in ranked.into_iter().take(5) {
        let fd = space.fd(i);
        let is_true = pinned.contains(&fd);
        println!(
            "  {:.2}  {}{}",
            c,
            fd.display(ds.table.schema()),
            if is_true { "   <- ground truth" } else { "" }
        );
    }
}
