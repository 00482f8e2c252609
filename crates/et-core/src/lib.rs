//! The exploratory-training game (the paper's core contribution).
//!
//! Exploratory training models interactive labeling as a two-player game of
//! identical interest between a **trainer** (the human annotator, who
//! *learns about the data while labeling*) and a **learner** (the active-
//! learning system). Each interaction `t`:
//!
//! 1. the learner's *response model* selects `k` examples — pairs of tuples
//!    (§C.1) — according to its policy `π_t^L = R^L(θ_t^L)`;
//! 2. the trainer observes the examples, updates its belief
//!    `θ_t^T = P^T(θ_{t-1}^T, X^1..X^t)`, and labels them with its policy
//!    `π_t^T = R^T(θ_t^T)`;
//! 3. the learner consumes the labels and updates its belief
//!    `θ_t^L = P^L(θ_{t-1}^L, X^t, Y^t)`.
//!
//! Modules:
//!
//! * [`game`] — presented pairs and labels.
//! * [`payoff`] — the payoff functions `u_T`, `u_a` and the entropy-
//!   regularised learner payoff `u_L = u_a − γ Σ π ln π` (§2).
//! * [`respond`] — response strategies: `Random`, `UncertaintySampling`,
//!   the paper's `StochasticBestResponse` and
//!   `StochasticUncertaintySampling` (softmax with temperature γ), plus a
//!   deterministic `Best` and a Thompson-sampling extension.
//! * [`trainer`] — trainer agents: the FP/Bayesian trainer the user study
//!   validates, a hypothesis-testing trainer, a stationary
//!   (perfect-knowledge) trainer, and a label-noise wrapper.
//! * [`learner`] — the active learner: belief + prediction model + response
//!   strategy.
//! * [`session`] — the game loop with per-iteration metrics (MAE, held-out
//!   F1) and convergence/equilibrium tracking (Definition 2 /
//!   Proposition 1).
//! * [`candidates`] — the candidate pair pool each interaction draws from,
//!   and the fresh pool ids selection scores.

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

pub mod candidates;
pub mod game;
pub mod journal;
pub mod learner;
pub mod payoff;
pub mod respond;
pub mod session;
pub mod topk;
pub mod trainer;
pub mod weak_strong;

pub use candidates::{CandidatePool, FreshCandidates};
pub use et_fd::{PartitionCache, RelationMatrix};
pub use game::{Label, PairExample};
pub use journal::{
    recover_session, JournalConfig, LabelRecord, RecoverError, RecoverOutcome, SessionJournal,
};
pub use learner::{EvidenceScope, Learner};
pub use respond::{ResponseStrategy, ScoreBasis, ScoreCtx, Selection, StrategyKind};
pub use session::{
    run_session, sample_rows, ConfigError, ConvergenceReport, IterationMetrics, PendingInteraction,
    SessionConfig, SessionError, SessionResult, SessionState, StepError,
};
pub use topk::{top_k_indices, BoundedTopK};
pub use trainer::{FpTrainer, HtTrainer, NoisyTrainer, StationaryTrainer, Trainer};
pub use weak_strong::{run_weak_strong, WeakStrongConfig, WeakStrongResult};
