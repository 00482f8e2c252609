//! The simulated user study (paper §3, Appendix A).
//!
//! The paper ran 20 students through five FD-annotation scenarios over the
//! AIRPORT and OMDB datasets to determine *how humans learn while
//! labeling*, concluding that fictitious play / Bayesian learning explains
//! participants far better than hypothesis testing (Figure 2), and that
//! users' hypotheses move substantially between rounds (Table 3).
//!
//! Without access to the original participants we simulate them
//! (DESIGN.md §2): each synthetic annotator owns an *internal* learning
//! rule drawn from a configurable mixture — FP/Bayesian for most,
//! hypothesis testing for a minority, matching the paper's finding that all
//! but two participants were FP-like — plus decision noise. The study then
//! replays the paper's protocol: 9–15 iterations of ten random tuples,
//! violation marking, and an explicit declared FD per iteration. The
//! analyses of [`analysis`] regenerate Table 3 and Figure 2 from the
//! recorded trajectories.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests assert values the code computes exactly; library code stays linted"
    )
)]

pub mod analysis;
pub mod participant;
pub mod scenario;
pub mod study;

pub use analysis::{
    average_f1_change, per_participant_mrr, predictor_mrr, predictor_win_counts, MrrReport,
    ParticipantMrr, PredictorKind,
};
pub use participant::{LearningRule, Participant, ParticipantConfig};
pub use scenario::{scenarios, Scenario};
pub use study::{run_study, study_dataset, IterationRecord, StudyConfig, Trajectory};
