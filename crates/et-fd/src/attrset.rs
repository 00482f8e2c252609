//! Bitmask attribute sets.
//!
//! FDs over the paper's datasets involve at most 19 attributes; a `u64`
//! bitmask makes subset tests, unions and lattice walks single instructions.

use std::fmt;

use et_data::{AttrId, Schema};

/// A set of attribute ids, stored as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(u64);

impl AttrSet {
    /// Maximum representable attribute id.
    pub const MAX_ATTR: AttrId = 63;

    /// The empty set.
    pub const EMPTY: AttrSet = AttrSet(0);

    /// A single-attribute set.
    ///
    /// # Panics
    /// Panics when `a > 63`.
    pub fn singleton(a: AttrId) -> Self {
        assert!(
            a <= Self::MAX_ATTR,
            "attribute id {a} exceeds bitmask width"
        );
        AttrSet(1u64 << a)
    }

    /// Builds a set from attribute ids.
    pub fn from_attrs<I: IntoIterator<Item = AttrId>>(attrs: I) -> Self {
        attrs
            .into_iter()
            .fold(Self::EMPTY, |s, a| s.union(Self::singleton(a)))
    }

    /// Builds a set from `usize` indices (as used by [`et_data::FdSpec`]).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn from_indices<I: IntoIterator<Item = usize>>(attrs: I) -> Self {
        Self::from_attrs(attrs.into_iter().map(|a| a as AttrId))
    }

    /// Raw mask.
    pub fn mask(self) -> u64 {
        self.0
    }

    /// Number of attributes in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when `a` is in the set.
    pub fn contains(self, a: AttrId) -> bool {
        a <= Self::MAX_ATTR && self.0 & (1u64 << a) != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & !other.0)
    }

    /// Adds an attribute.
    #[must_use]
    pub fn with(self, a: AttrId) -> AttrSet {
        self.union(Self::singleton(a))
    }

    /// Removes an attribute.
    #[must_use]
    pub fn without(self, a: AttrId) -> AttrSet {
        self.difference(Self::singleton(a))
    }

    /// True when every attribute of `self` is in `other`.
    pub fn is_subset_of(self, other: AttrSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True when `self` is a subset of `other` and not equal to it.
    pub fn is_proper_subset_of(self, other: AttrSet) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Iterates over member attribute ids in ascending order.
    pub fn iter(self) -> AttrSetIter {
        AttrSetIter(self.0)
    }

    /// Member ids as a vector (ascending).
    pub fn to_vec(self) -> Vec<AttrId> {
        self.iter().collect()
    }

    /// Renders using attribute names from `schema`, e.g. `{Team,City}`.
    pub fn display(self, schema: &Schema) -> String {
        let names: Vec<&str> = self.iter().map(|a| schema.name(a)).collect();
        names.join(",")
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<String> = self.iter().map(|a| a.to_string()).collect();
        write!(f, "{{{}}}", ids.join(","))
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        Self::from_attrs(iter)
    }
}

/// Iterator over the members of an [`AttrSet`].
pub struct AttrSetIter(u64);

impl Iterator for AttrSetIter {
    type Item = AttrId;

    fn next(&mut self) -> Option<AttrId> {
        if self.0 == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the word is non-zero, so trailing_zeros is below 64"
        )]
        let a = self.0.trailing_zeros() as AttrId;
        self.0 &= self.0 - 1;
        Some(a)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrSetIter {}

/// Enumerates every non-empty subset of `universe` with at most `max_len`
/// attributes, in ascending mask order.
///
/// Gosper's hack walks the `k`-combinations of the compacted universe for
/// each size `k ≤ max_len` directly, so the cost is the output size
/// (`Σ C(n, k)`), not the `2ⁿ` masks a filtered scan would visit.
pub fn subsets_up_to(universe: AttrSet, max_len: u32) -> Vec<AttrSet> {
    let attrs = universe.to_vec();
    let n = universe.0.count_ones();
    // u128, so `1 << n` cannot overflow for a full 64-attribute universe.
    let limit: u128 = 1 << n;
    let mut masks: Vec<u128> = Vec::new();
    for k in 1..=max_len.min(n) {
        let mut mask: u128 = (1 << k) - 1;
        while mask < limit {
            masks.push(mask);
            // Next mask with the same popcount (Gosper).
            let low = mask & mask.wrapping_neg();
            let ripple = mask + low;
            mask = (((ripple ^ mask) >> 2) / low) | ripple;
        }
    }
    masks.sort_unstable();
    masks
        .into_iter()
        .map(|mask| {
            attrs
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &a)| a)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ops() {
        let s = AttrSet::from_attrs([1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert_eq!(s.to_vec(), vec![1, 3, 5]);
        assert_eq!(s.without(3).to_vec(), vec![1, 5]);
        assert_eq!(s.with(0).len(), 4);
    }

    #[test]
    fn subset_relations() {
        let small = AttrSet::from_attrs([1, 3]);
        let big = AttrSet::from_attrs([1, 3, 5]);
        assert!(small.is_subset_of(big));
        assert!(small.is_proper_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(big.is_subset_of(big));
        assert!(!big.is_proper_subset_of(big));
    }

    #[test]
    fn set_algebra() {
        let a = AttrSet::from_attrs([0, 1, 2]);
        let b = AttrSet::from_attrs([2, 3]);
        assert_eq!(a.union(b).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(a.intersect(b).to_vec(), vec![2]);
        assert_eq!(a.difference(b).to_vec(), vec![0, 1]);
    }

    #[test]
    fn subsets_enumeration() {
        let u = AttrSet::from_attrs([0, 2, 7]);
        let subs = subsets_up_to(u, 2);
        // C(3,1) + C(3,2) = 6
        assert_eq!(subs.len(), 6);
        assert!(subs.contains(&AttrSet::from_attrs([0, 7])));
        assert!(!subs.contains(&u));
        let all = subsets_up_to(u, 3);
        assert_eq!(all.len(), 7);
    }

    /// The exhaustive scan `subsets_up_to` replaced: every mask of the
    /// compacted universe, filtered by popcount.
    fn subsets_by_scan(universe: AttrSet, max_len: u32) -> Vec<AttrSet> {
        let attrs = universe.to_vec();
        let mut out = Vec::new();
        for mask in 1u64..(1u64 << attrs.len()) {
            if mask.count_ones() > max_len {
                continue;
            }
            let mut s = AttrSet::EMPTY;
            for (i, &a) in attrs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s = s.with(a);
                }
            }
            out.push(s);
        }
        out
    }

    #[test]
    fn subsets_match_exhaustive_scan() {
        for n in 0..=14u16 {
            // A sparse universe, so compaction matters.
            let universe = AttrSet::from_attrs((0..n).map(|i| i * 3 + i % 2));
            for max_len in 0..=u32::from(n) + 1 {
                assert_eq!(
                    subsets_up_to(universe, max_len),
                    subsets_by_scan(universe, max_len),
                    "n {n} max_len {max_len}"
                );
            }
        }
    }

    #[test]
    fn display_uses_schema_names() {
        let schema = et_data::Schema::new(["a", "b", "c"]);
        let s = AttrSet::from_attrs([0, 2]);
        assert_eq!(s.display(&schema), "a,c");
        assert_eq!(s.to_string(), "{0,2}");
    }

    proptest! {
        #[test]
        fn union_is_commutative_and_monotone(xs in proptest::collection::vec(0u16..32, 0..8),
                                             ys in proptest::collection::vec(0u16..32, 0..8)) {
            let a = AttrSet::from_attrs(xs);
            let b = AttrSet::from_attrs(ys);
            prop_assert_eq!(a.union(b), b.union(a));
            prop_assert!(a.is_subset_of(a.union(b)));
            prop_assert!(b.is_subset_of(a.union(b)));
            prop_assert_eq!(a.union(b).len() + a.intersect(b).len(), a.len() + b.len());
        }

        #[test]
        fn roundtrip_vec(xs in proptest::collection::vec(0u16..60, 0..10)) {
            let s = AttrSet::from_attrs(xs.clone());
            let v = s.to_vec();
            prop_assert_eq!(AttrSet::from_attrs(v.clone()), s);
            // Sorted + deduplicated.
            let mut expect = xs;
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn difference_disjoint(xs in proptest::collection::vec(0u16..32, 0..8),
                               ys in proptest::collection::vec(0u16..32, 0..8)) {
            let a = AttrSet::from_attrs(xs);
            let b = AttrSet::from_attrs(ys);
            prop_assert!(a.difference(b).intersect(b).is_empty());
            prop_assert_eq!(a.difference(b).union(a.intersect(b)), a);
        }
    }
}
