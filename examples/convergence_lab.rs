//! Convergence laboratory: how priors, temperature and strategy shape the
//! joint learning dynamics (Figures 1/3 and Proposition 1 in miniature).
//!
//! ```text
//! cargo run --release --example convergence_lab
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "each experiment runs at least one method, and each run's series holds at least one round"
)]

use exploratory_training::data::gen::DatasetName;
use exploratory_training::experiments::{ConvergenceExperiment, NoRounds, PriorKind};
use exploratory_training::game::StrategyKind;
use exploratory_training::metrics::{auc, iterations_to_threshold};

fn run(label: &str, e: &ConvergenceExperiment) -> Result<(), NoRounds> {
    println!("\n--- {label} ---");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>14}",
        "method", "MAE@0", "MAE@end", "AUC", "iters to 0.25"
    );
    for m in e.run()? {
        let reach = iterations_to_threshold(&m.mae.mean, 0.25)
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>10.2} {:>14}",
            m.kind.as_str(),
            m.mae.mean[0],
            m.mae.last_mean(),
            auc(&m.mae.mean),
            reach
        );
    }
    Ok(())
}

fn main() -> Result<(), NoRounds> {
    // The two headline settings of the paper's empirical study.
    let informed = ConvergenceExperiment::paper(
        DatasetName::Omdb,
        0.10,
        PriorKind::Random,
        PriorKind::DataEstimate,
    );
    run(
        "informed learner prior (Figure 1 setting) — expect US sharpest",
        &informed,
    )?;

    let uninformed = ConvergenceExperiment::paper(
        DatasetName::Omdb,
        0.10,
        PriorKind::Random,
        PriorKind::Uniform(0.9),
    );
    run(
        "uninformed learner prior (Figure 3 setting) — expect US to lose its edge",
        &uninformed,
    )?;

    // Temperature sweep: γ interpolates between greedy and uniform.
    println!("\n--- temperature sweep (StochasticBR, informed prior) ---");
    println!("{:>8} {:>12}", "gamma", "final MAE");
    for gamma in [0.05, 0.25, 0.5, 2.0, 10.0] {
        let mut e = ConvergenceExperiment::paper(
            DatasetName::Omdb,
            0.10,
            PriorKind::Random,
            PriorKind::DataEstimate,
        );
        e.methods = vec![StrategyKind::StochasticBestResponse];
        e.gamma = gamma;
        e.runs = 3;
        let m = &e.run()?[0];
        println!("{:>8} {:>12.3}", gamma, m.mae.last_mean());
    }
    println!("\nγ → 0 approaches greedy Best; γ → ∞ approaches Random (paper §2, §4).");
    Ok(())
}
