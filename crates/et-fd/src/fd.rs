//! Functional dependencies and the relations between them.
//!
//! The paper restricts attention to FDs that are *minimal*, *non-trivial*
//! (`X ∩ Y = ∅`) and *normalized* (single-attribute RHS), and defines a
//! subset/superset relation used both for prior construction (§A.2,
//! "Configuration of Learning Methods") and for the "+" evaluation metrics:
//! `X -> Z` is a **superset** of `XY -> Z` (it implies it); `XY -> Z` is a
//! **subset** of `X -> Z`.

use std::fmt;

use et_data::{AttrId, FdSpec, Schema};

use crate::attrset::AttrSet;

/// A normalized, non-trivial functional dependency `lhs -> rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd {
    /// Determinant attribute set (non-empty, excludes `rhs`).
    pub lhs: AttrSet,
    /// The single dependent attribute.
    pub rhs: AttrId,
}

/// How two FDs relate under the paper's subset/superset ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdRelation {
    /// Same FD.
    Equal,
    /// `self` is a superset of the other: same RHS, strictly smaller LHS
    /// (so `self` implies the other).
    Superset,
    /// `self` is a subset of the other: same RHS, strictly larger LHS.
    Subset,
    /// No subset/superset relation.
    Unrelated,
}

impl Fd {
    /// Builds an FD.
    ///
    /// # Panics
    /// Panics when the LHS is empty or contains the RHS.
    pub fn new(lhs: AttrSet, rhs: AttrId) -> Self {
        assert!(!lhs.is_empty(), "FD must have a non-empty LHS");
        assert!(
            !lhs.contains(rhs),
            "FD must be non-trivial (RHS not in LHS)"
        );
        Self { lhs, rhs }
    }

    /// Builds an FD from attribute ids.
    pub fn from_attrs<I: IntoIterator<Item = AttrId>>(lhs: I, rhs: AttrId) -> Self {
        Self::new(AttrSet::from_attrs(lhs), rhs)
    }

    /// Converts an index-based [`FdSpec`] (the `et-data` representation).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn from_spec(spec: &FdSpec) -> Self {
        Self::new(
            AttrSet::from_indices(spec.lhs.iter().copied()),
            spec.rhs as AttrId,
        )
    }

    /// Converts back to the index-based representation.
    pub fn to_spec(&self) -> FdSpec {
        FdSpec::new(
            self.lhs.iter().map(|a| a as usize).collect(),
            self.rhs as usize,
        )
    }

    /// All attributes mentioned by the FD (LHS ∪ {RHS}).
    pub fn attrs(&self) -> AttrSet {
        self.lhs.with(self.rhs)
    }

    /// Total number of attributes mentioned (the paper caps this at four).
    pub fn size(&self) -> u32 {
        self.attrs().len()
    }

    /// LHS attribute ids as a vector.
    pub fn lhs_vec(&self) -> Vec<AttrId> {
        self.lhs.to_vec()
    }

    /// The paper's subset/superset relation between `self` and `other`.
    pub fn relation_to(&self, other: &Fd) -> FdRelation {
        if self == other {
            FdRelation::Equal
        } else if self.rhs != other.rhs {
            FdRelation::Unrelated
        } else if self.lhs.is_proper_subset_of(other.lhs) {
            FdRelation::Superset
        } else if other.lhs.is_proper_subset_of(self.lhs) {
            FdRelation::Subset
        } else {
            FdRelation::Unrelated
        }
    }

    /// True when `self` logically implies `other` (`self` is a superset of
    /// `other`, or they are equal).
    pub fn implies(&self, other: &Fd) -> bool {
        matches!(
            self.relation_to(other),
            FdRelation::Equal | FdRelation::Superset
        )
    }

    /// True when the FDs are related (equal, subset, or superset). The
    /// paper's priors treat related FDs preferentially and its "+" metrics
    /// accept them as discounted matches.
    pub fn is_related_to(&self, other: &Fd) -> bool {
        !matches!(self.relation_to(other), FdRelation::Unrelated)
    }

    /// Renders using attribute names, e.g. `Team -> City`.
    pub fn display(&self, schema: &Schema) -> String {
        format!("{} -> {}", self.lhs.display(schema), schema.name(self.rhs))
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.lhs, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(lhs: &[AttrId], rhs: AttrId) -> Fd {
        Fd::from_attrs(lhs.iter().copied(), rhs)
    }

    #[test]
    fn spec_roundtrip() {
        let spec = FdSpec::new(vec![0, 2], 3);
        let f = Fd::from_spec(&spec);
        assert_eq!(f.lhs.to_vec(), vec![0, 2]);
        assert_eq!(f.rhs, 3);
        assert_eq!(f.to_spec(), spec);
    }

    #[test]
    fn paper_superset_semantics() {
        // X -> Z is a superset of XY -> Z.
        let x_z = fd(&[0], 5);
        let xy_z = fd(&[0, 1], 5);
        assert_eq!(x_z.relation_to(&xy_z), FdRelation::Superset);
        assert_eq!(xy_z.relation_to(&x_z), FdRelation::Subset);
        assert!(x_z.implies(&xy_z));
        assert!(!xy_z.implies(&x_z));
        assert!(x_z.is_related_to(&xy_z));
    }

    #[test]
    fn unrelated_cases() {
        let a = fd(&[0], 5);
        let b = fd(&[0], 6); // different RHS
        let c = fd(&[1], 5); // incomparable LHS
        assert_eq!(a.relation_to(&b), FdRelation::Unrelated);
        assert_eq!(a.relation_to(&c), FdRelation::Unrelated);
        assert_eq!(a.relation_to(&a), FdRelation::Equal);
        assert!(a.implies(&a));
    }

    #[test]
    fn size_counts_all_attrs() {
        assert_eq!(fd(&[0, 1, 2], 7).size(), 4);
        assert_eq!(fd(&[3], 7).size(), 2);
    }

    #[test]
    #[should_panic(expected = "non-trivial")]
    fn trivial_rejected() {
        let _ = fd(&[0, 1], 1);
    }

    #[test]
    fn display_with_schema() {
        let schema = Schema::new(["Player", "Team", "City"]);
        assert_eq!(fd(&[1], 2).display(&schema), "Team -> City");
        assert_eq!(fd(&[0, 1], 2).display(&schema), "Player,Team -> City");
    }
}
