//! Functional-dependency substrate.
//!
//! Everything the exploratory-training game needs to reason about
//! (approximate) functional dependencies:
//!
//! * [`AttrSet`] — a bitmask attribute set with lattice operations.
//! * [`Fd`] — minimal/non-trivial/normalized FDs, plus the subset/superset
//!   relations the paper uses for priors and the "+" evaluation metrics.
//! * [`HypothesisSpace`] — enumeration and capping of the candidate FD set
//!   (the paper's empirical study uses 38 approximate FDs per dataset, each
//!   with at most four attributes).
//! * [`g1`] — the scaled g1 approximation measure (Kivinen & Mannila),
//!   matching the paper's Example 1 exactly.
//! * [`partitions`]/[`cache`] — stripped partitions and the per-table
//!   cache that derives every attribute set's partition by refinement.
//! * [`violations`] — pair relations, per-tuple violation flags, and
//!   cell-level violation sets.
//! * [`relmatrix`]/[`delta`] — the packed pair × FD relation matrix the
//!   learner scores candidate pairs over, and its per-round delta
//!   rescoring.
//! * [`detect`] — FD-based error detection: belief-weighted per-tuple dirty
//!   probabilities (a violating pair of an FD with confidence `c` is dirty
//!   with probability `c`, mirroring the paper's `1 - m` construction).

#![warn(missing_docs)]

pub mod attrset;
#[macro_use]
pub mod invariant;
pub mod cache;
pub mod delta;
pub mod detect;
pub mod fd;
pub mod g1;
pub mod partitions;
pub mod relmatrix;
pub mod space;
pub mod violations;

pub use attrset::AttrSet;
pub use cache::{PartitionCache, NO_CLASS};
pub use delta::{ClassScores, DeltaScorer};
pub use detect::{
    binary_entropy, pair_dirty_probs, pair_dirty_probs_with, predict_labels, tuple_dirty_prob,
    tuple_dirty_prob_with, DetectParams, Indicator,
};
pub use fd::{Fd, FdRelation};
pub use g1::{g1_of, G1};
pub use partitions::StrippedPartition;
pub use relmatrix::{violation_factors, violation_factors_into, PairScores, RelationMatrix};
pub use space::HypothesisSpace;
pub use violations::{
    cell_violations, pair_relation, PairRelation, SampleIndexer, SpaceRelations, ViolationIndex,
};
