//! Relational data substrate for the exploratory-training reproduction.
//!
//! This crate provides everything the paper's evaluation needs below the
//! FD layer:
//!
//! * [`Schema`]/[`Table`] — a column-major, dictionary-encoded relational
//!   table. Cell values are interned per column, so equality tests (the only
//!   operation FD semantics need) are `u32` comparisons.
//! * [`gen`] — synthetic dataset generators reproducing the schemas and
//!   exact-FD structure of the paper's four datasets (OMDB, Airport,
//!   Hospital, Tax) plus a generic FD-respecting generator.
//! * [`inject`] — BART-style error injection: scrambles right-hand-side
//!   cells with respect to a set of target/alternative FDs until a requested
//!   degree of violation is reached, tracking ground-truth dirty rows/cells.
//! * [`split`] — deterministic train/test row splits (the paper holds out
//!   30% of every dataset for F1 evaluation).
//!
//! The real datasets used by the paper are replaced by generators because
//! every algorithm under test consumes only the *group structure* of the
//! data (which tuple pairs agree on which attribute sets); the generators
//! control that structure exactly. See `DESIGN.md` §2.

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

pub mod gen;
pub mod inject;
pub mod schema;
pub mod split;
pub mod table;

pub use gen::{DatasetSpec, GeneratedDataset};
pub use inject::{inject_errors, violation_degree, InjectConfig, Injection};
pub use schema::{AttrId, Schema};
pub use split::split_rows;
pub use table::{Table, TableBuilder};

/// A functional dependency expressed over attribute *indices* of a schema.
///
/// `et-data` sits below the FD crate in the dependency order, so generators
/// and the error injector describe ground-truth dependencies with this plain
/// index form; `et-fd` converts it into its bitmask representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FdSpec {
    /// Attribute indices of the left-hand side (determinant).
    pub lhs: Vec<usize>,
    /// Attribute index of the single right-hand side attribute.
    pub rhs: usize,
}

impl FdSpec {
    /// Builds an FD spec, normalising (sorting and deduplicating) the LHS.
    ///
    /// # Panics
    /// Panics if the LHS is empty or contains the RHS (the paper considers
    /// only non-trivial, normalized FDs).
    pub fn new(mut lhs: Vec<usize>, rhs: usize) -> Self {
        lhs.sort_unstable();
        lhs.dedup();
        assert!(!lhs.is_empty(), "FD must have a non-empty LHS");
        assert!(
            !lhs.contains(&rhs),
            "FD must be non-trivial (RHS not in LHS)"
        );
        Self { lhs, rhs }
    }

    /// Renders the FD using attribute names from `schema`, e.g. `Team -> City`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn display(&self, schema: &Schema) -> String {
        let lhs: Vec<&str> = self.lhs.iter().map(|&a| schema.name(a as AttrId)).collect();
        format!("{} -> {}", lhs.join(","), schema.name(self.rhs as AttrId))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_spec_normalises_lhs() {
        let fd = FdSpec::new(vec![2, 0, 2], 1);
        assert_eq!(fd.lhs, vec![0, 2]);
        assert_eq!(fd.rhs, 1);
    }

    #[test]
    #[should_panic(expected = "non-trivial")]
    fn fd_spec_rejects_trivial() {
        let _ = FdSpec::new(vec![0, 1], 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn fd_spec_rejects_empty_lhs() {
        let _ = FdSpec::new(vec![], 1);
    }
}
