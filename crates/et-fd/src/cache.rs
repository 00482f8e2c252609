//! The partition-cache substrate: memoized stripped partitions per table.
//!
//! Every round of the trainer/learner game needs the violation structure of
//! the *same* table under the *same* hypothesis space — yet the index
//! builders used to re-hash `group_by(lhs)` from scratch per distinct LHS,
//! per round. A [`PartitionCache`] computes each single-attribute stripped
//! partition ([`StrippedPartition::of_attr`]) once and derives every
//! multi-attribute LHS partition by refining its prefix's partition (the
//! TANE product, Huhtala et al. 1999), memoized by [`AttrSet`]. Derived
//! artifacts:
//!
//! * [`PartitionCache::partition`] — the stripped partition of an attribute
//!   set, shared as an `Arc` so builds clone pointers, not row lists.
//! * [`PartitionCache::row_classes`] — the row → stripped-class lookup that
//!   makes *subsample restriction* O(|sample|): a cached full-table
//!   partition restricted to a sample's rows never re-hashes the table
//!   (see [`crate::violations::SampleIndexer`]).
//!
//! A session needs partitions only while it builds its indexes, pool and
//! relation matrix; its rounds read only the determinants' lookups.
//! [`PartitionCache::keep_lookups`] shrinks a cache to those once the
//! builds are done.
//!
//! Concurrency: the cache is `Sync` (a session shares its cache through an
//! `Arc`, and sessions move between server workers); lookups take a
//! short-lived mutex and misses are computed *outside* the lock (two
//! racing builders may compute the same partition, but both arrive at the
//! identical canonical form, so last-insert-wins is benign and results
//! stay deterministic).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use et_data::Table;

use crate::attrset::AttrSet;
use crate::partitions::StrippedPartition;

/// Sentinel class id for rows stripped out of a partition (singleton rows).
pub const NO_CLASS: u32 = u32::MAX;

/// Memoized stripped partitions (and row → class lookups) of one table.
///
/// The cache does not own the table; every method takes it by reference and
/// asserts that the row count still matches, so one cache can be shared by
/// everything deriving structure from the same immutable relation (a
/// session, its trainer, the experiment loops, the wire store).
#[derive(Debug, Default)]
pub struct PartitionCache {
    n_rows: usize,
    parts: Mutex<HashMap<AttrSet, Arc<StrippedPartition>>>,
    owners: Mutex<HashMap<AttrSet, Arc<Vec<u32>>>>,
}

/// Locks a cache map, recovering the data on poisoning (all writes are
/// single `insert` calls, so a poisoned map is still structurally sound).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl PartitionCache {
    /// Prepares an empty cache for `table`.
    pub fn new(table: &Table) -> Self {
        Self {
            n_rows: table.nrows(),
            parts: Mutex::new(HashMap::new()),
            owners: Mutex::new(HashMap::new()),
        }
    }

    /// Rows of the table this cache was built for.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of stripped partitions currently memoized.
    pub fn len(&self) -> usize {
        lock(&self.parts).len()
    }

    /// True when no partition is memoized.
    pub fn is_empty(&self) -> bool {
        lock(&self.parts).is_empty()
    }

    /// The attribute sets whose row → class lookups are memoized, in
    /// ascending order.
    pub fn lookup_sets(&self) -> Vec<AttrSet> {
        let mut sets: Vec<AttrSet> = lock(&self.owners).keys().copied().collect();
        sets.sort_unstable();
        sets
    }

    /// The stripped partition of `attrs` over `table`, memoized.
    ///
    /// Single attributes bucket the column once; larger sets refine the
    /// set's (memoized) maximal proper prefix by the last attribute's
    /// symbols, so sets sharing prefixes share work.
    ///
    /// # Panics
    /// Panics when `table` does not have the row count the cache was
    /// created with (the cache is per-table).
    pub fn partition(&self, table: &Table, attrs: AttrSet) -> Arc<StrippedPartition> {
        assert_eq!(
            table.nrows(),
            self.n_rows,
            "partition cache is bound to a {}-row table",
            self.n_rows
        );
        if let Some(p) = lock(&self.parts).get(&attrs) {
            return Arc::clone(p);
        }
        // Miss: compute outside the lock (rule L5 — never hold a guard
        // across real work). Races recompute identical canonical values.
        let computed = match attrs.len() {
            0 => StrippedPartition::full(self.n_rows),
            1 => {
                let mut it = attrs.iter();
                match it.next() {
                    Some(a) => StrippedPartition::of_attr(table, a),
                    None => StrippedPartition::full(self.n_rows),
                }
            }
            _ => {
                let last = attrs.iter().fold(0, |_, a| a);
                self.partition(table, attrs.without(last))
                    .refine(table, last)
            }
        };
        let shared = Arc::new(computed);
        lock(&self.parts).insert(attrs, Arc::clone(&shared));
        shared
    }

    /// Drops every memoized partition and row → class lookup whose
    /// attribute set fails `keep`.
    ///
    /// A lattice scorer ([`crate::HypothesisSpace::capped_with`]) leaves
    /// every determinant of the lattice memoized; pruning to the
    /// determinants a session keeps hands the session only what it reads.
    pub fn prune(&self, keep: impl Fn(AttrSet) -> bool) {
        let mut parts = lock(&self.parts);
        parts.retain(|&attrs, _| keep(attrs));
        parts.shrink_to_fit();
        drop(parts);
        let mut owners = lock(&self.owners);
        owners.retain(|&attrs, _| keep(attrs));
        owners.shrink_to_fit();
    }

    /// Drops every memoized partition, and every row → class lookup whose
    /// attribute set fails `keep`.
    ///
    /// A session calls this once its builds are done: its rounds restrict
    /// the determinants' lookups and never read a partition, so a live
    /// session holds `4·n_rows` bytes per determinant and nothing else.
    pub fn keep_lookups(&self, keep: impl Fn(AttrSet) -> bool) {
        let mut parts = lock(&self.parts);
        *parts = HashMap::new();
        drop(parts);
        let mut owners = lock(&self.owners);
        owners.retain(|&attrs, _| keep(attrs));
        owners.shrink_to_fit();
    }

    /// The row → stripped-class lookup of `attrs` over `table`, memoized:
    /// `lookup[row]` is the index of the row's class in
    /// [`PartitionCache::partition`]`(table, attrs).classes()`, or
    /// [`NO_CLASS`] when the row was stripped (it agrees with no other row
    /// on `attrs`).
    ///
    /// # Panics
    /// Panics when `table` does not match the cache's row count.
    pub fn row_classes(&self, table: &Table, attrs: AttrSet) -> Arc<Vec<u32>> {
        if let Some(o) = lock(&self.owners).get(&attrs) {
            return Arc::clone(o);
        }
        let part = self.partition(table, attrs);
        let mut owner = vec![NO_CLASS; self.n_rows];
        // Classes hold two rows or more, so their ids stay below the
        // `u32` row ids' range and never reach the sentinel.
        for (ci, class) in (0u32..).zip(part.classes()) {
            for &r in class {
                // Class rows are < n_rows: `partition` asserted the table.
                if let Some(slot) = owner.get_mut(r as usize) {
                    *slot = ci;
                }
            }
        }
        let shared = Arc::new(owner);
        lock(&self.owners).insert(attrs, Arc::clone(&shared));
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::table::paper_table1;

    #[test]
    fn partitions_match_direct_computation() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        for attrs in [
            AttrSet::from_attrs([1]),
            AttrSet::from_attrs([2]),
            AttrSet::from_attrs([1, 2]),
            AttrSet::from_attrs([2, 3]),
            AttrSet::from_attrs([1, 2, 3]),
        ] {
            let cached = cache.partition(&t, attrs);
            let direct = StrippedPartition::of_set(&t, attrs);
            assert_eq!(*cached, direct, "{attrs}");
        }
        // Memoized: asking again returns the same allocation.
        let a = cache.partition(&t, AttrSet::from_attrs([1, 2]));
        let b = cache.partition(&t, AttrSet::from_attrs([1, 2]));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!cache.is_empty());
    }

    #[test]
    fn row_classes_invert_the_partition() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let attrs = AttrSet::from_attrs([1]); // Team
        let part = cache.partition(&t, attrs);
        let owners = cache.row_classes(&t, attrs);
        assert_eq!(owners.len(), t.nrows());
        for (ci, class) in (0u32..).zip(part.classes()) {
            for &r in class {
                assert_eq!(owners[r as usize], ci);
            }
        }
        // Row 4 (Clippers) is a singleton: stripped.
        assert_eq!(owners[4], NO_CLASS);
    }

    #[test]
    fn prune_keeps_only_the_named_sets() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let kept = AttrSet::from_attrs([1, 2]);
        let before = cache.partition(&t, kept); // memoizes {1} and {1,2}
        let _ = cache.row_classes(&t, AttrSet::from_attrs([2]));
        assert_eq!(cache.len(), 3);
        cache.prune(|attrs| attrs == kept);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&before, &cache.partition(&t, kept)));
        // A pruned set is recomputed on demand, equal to the direct build.
        let team = AttrSet::from_attrs([1]);
        assert_eq!(
            *cache.partition(&t, team),
            StrippedPartition::of_set(&t, team)
        );
    }

    #[test]
    fn empty_set_is_the_full_partition() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let p = cache.partition(&t, AttrSet::EMPTY);
        assert_eq!(*p, StrippedPartition::full(t.nrows()));
    }

    #[test]
    #[should_panic(expected = "bound to a")]
    fn rejects_foreign_tables() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let other = t.subset(&[0, 1]);
        let _ = cache.partition(&other, AttrSet::from_attrs([1]));
    }

    #[test]
    fn shared_across_threads() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let p = cache.partition(&t, AttrSet::from_attrs([1, 2]));
                    assert_eq!(p.classes().collect::<Vec<_>>(), [&[2, 3][..]]);
                });
            }
        });
    }
}
