//! Evaluation metrics for the exploratory-training experiments.
//!
//! * [`confusion`] — tuple-labeling precision/recall/F1 (Figure 7's metric:
//!   F1 of the learner's labeling on a 30% held-out test set).
//! * [`fd_f1`] — the F1 score of an FD against ground-truth clean tuples
//!   (§A.2), used by Table 3 (average f1-change between rounds) and the "+"
//!   discounting of Figure 2.
//! * [`rank`] — Reciprocal Rank and MRR@k, exact and subset/superset-
//!   discounted ("+") variants (Figure 2's metric).
//! * [`series`] — per-iteration series aggregation over seeds (mean ± std),
//!   plus convergence summaries (iterations-to-threshold, AUC) used when
//!   comparing the sampling methods of Figures 1 and 3–6.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests assert values the code computes exactly; library code stays linted"
    )
)]
#![cfg_attr(
    test,
    expect(
        clippy::cast_possible_truncation,
        reason = "unit tests cast small fixture indices and sizes; library casts state their bound at the site"
    )
)]

pub mod confusion;
pub mod fd_f1;
pub mod rank;
pub mod roc;
pub mod series;
pub mod stats;

pub use confusion::ConfusionMatrix;
pub use fd_f1::{fd_f1_score, FdScore};
pub use rank::{mrr, reciprocal_rank, reciprocal_rank_plus, RankOutcome};
pub use roc::roc_auc;
pub use series::{aggregate, auc, iterations_to_threshold, SeriesStats};
pub use stats::{bootstrap_mean_ci, kendall_tau, BootstrapCi};
