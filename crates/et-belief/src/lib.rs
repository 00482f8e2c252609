//! Belief substrate: how agents represent and revise what they know.
//!
//! Both agents of the exploratory-training game maintain a *belief* — a
//! distribution over the confidence of every FD in a hypothesis space
//! (paper §2, §C.1). Following the paper's configuration:
//!
//! * [`Beta`] — each FD's confidence is a Beta distribution, constructed
//!   from mean/standard-deviation exactly as §A.2 does (ε = 0.85 for the
//!   user's declared FD, 0.15 for unrelated FDs, 0.8 for subset/superset
//!   FDs, σ = 0.05).
//! * [`Belief`] — the FD-indexed vector of Betas with top-k ranking, MAE
//!   distance (the convergence metric of Figures 1, 3–6), discounting, and
//!   update plumbing.
//! * [`priors`] — the four prior families of the empirical study
//!   (Uniform-d, Random, Data-estimate, user-specified).
//! * [`update`] — the shared FP/Bayesian evidence rule: clean satisfying
//!   pairs support an FD, clean violating pairs count against it, violations
//!   explained by a dirty label weakly support it.
//! * [`hypothesis_testing`] — the paper's alternative human-learning model:
//!   keep the current hypothesis until it fails to explain recent data, then
//!   switch to the best-scoring alternative.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests assert values the code computes exactly; library code stays linted"
    )
)]

pub mod belief;
pub mod beta;
pub mod hypothesis_testing;
pub mod priors;
pub mod update;

pub use belief::Belief;
pub use beta::Beta;
pub use hypothesis_testing::{HypothesisTester, ScoreMode};
pub use priors::{build_prior, PriorConfig, PriorSpec};
pub use update::{
    update_from_labeled_pair, update_from_labeled_pairs, update_from_pair_relations,
    EvidenceConfig, LabeledPair,
};
