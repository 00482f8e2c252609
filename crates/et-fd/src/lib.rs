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
//! * [`violations`] — pair relations, per-tuple violation flags, and
//!   cell-level violation sets.
//! * [`discovery`] — a levelwise (TANE-style) discovery of minimal
//!   approximate FDs under a g1 threshold.
//! * [`detect`] — FD-based error detection: belief-weighted per-tuple dirty
//!   probabilities (a violating pair of an FD with confidence `c` is dirty
//!   with probability `c`, mirroring the paper's `1 - m` construction).

#![warn(missing_docs)]

pub mod attrset;
pub mod cover;
#[macro_use]
pub mod invariant;
pub mod cache;
pub mod delta;
pub mod detect;
pub mod discovery;
pub mod fd;
pub mod g1;
pub mod keys;
pub mod measures;
pub mod partitions;
pub mod relmatrix;
pub mod repair;
pub mod space;
pub mod violations;

pub use attrset::AttrSet;
pub use cache::{PartitionCache, NO_CLASS};
pub use cover::{closure, equivalent, implies, minimal_cover};
pub use delta::{ClassScores, DeltaScorer};
pub use detect::{
    binary_entropy, pair_dirty_probs, pair_dirty_probs_with, predict_labels, tuple_dirty_prob,
    tuple_dirty_prob_with, DetectParams, Indicator,
};
pub use fd::{Fd, FdRelation};
pub use g1::{g1_of, G1};
pub use keys::{discover_keys, is_key, Ucc};
pub use measures::{g2_g3, ApproxMeasures};
pub use partitions::{discover_tane, StrippedPartition, TaneFd};
pub use relmatrix::{violation_factors, violation_factors_into, PairScores, RelationMatrix};
pub use repair::{apply_repairs, propose_repairs, Repair};
pub use space::HypothesisSpace;
pub use violations::{
    cell_violations, pair_relation, PairRelation, SpaceRelations, ViolationIndex,
};
