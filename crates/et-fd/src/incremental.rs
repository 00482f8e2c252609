//! Incremental subsample refinement: grow a sample's [`ViolationIndex`]
//! without rebuilding it.
//!
//! A *cumulative* sample that only ever grows can be indexed without a
//! rebuild per step. No runtime loop does this today: the session indexes
//! each presented sample on its own with
//! [`ViolationIndex::build_subsample`], and the trainers index theirs the
//! same way. [`SubsampleIndex`] is exercised by the substrate benches and
//! the property tests only. It keeps the sample's per-determinant class
//! buckets between steps; [`SubsampleIndex::grow`] looks each new row up
//! in the [`PartitionCache`]'s row → class tables (`O(1)` per row per
//! determinant), subtracts the touched classes' old pair counts, and
//! recounts only those classes. Untouched classes are never revisited,
//! yet the result is maintained bit-identical to
//! [`ViolationIndex::build_subsample`] over the same rows
//! (proptest-enforced): pair statistics are integer sums over classes, so
//! subtract-and-recount is exact, and the touched classes' member codes
//! are rewritten by the same per-class indexing routine
//! (`ViolationIndex::index_class`) every builder shares.

use std::collections::HashMap;

use et_data::Table;

use crate::attrset::AttrSet;
use crate::cache::{PartitionCache, NO_CLASS};
use crate::space::HypothesisSpace;
use crate::violations::{class_pairs, fds_by_lhs, ClassScratch, ViolationIndex};

use et_data::AttrId;

/// A growing subsample of a fixed table, with its violation index
/// maintained incrementally.
///
/// Rows are addressed by *global* id when added and by *local* position
/// (first-seen order, duplicates ignored) inside [`SubsampleIndex::index`],
/// matching the layout of [`ViolationIndex::build_subsample`].
#[derive(Debug)]
pub struct SubsampleIndex {
    /// Distinct determinants with their FD ids/RHS attrs, fixed order.
    groups: Vec<(AttrSet, Vec<(usize, AttrId)>)>,
    /// Global row ids of the sample, in first-seen order.
    rows: Vec<usize>,
    /// Global row id → already sampled?
    seen: Vec<bool>,
    /// Per determinant: full-table class id → local members (sample order).
    buckets: Vec<HashMap<usize, Vec<usize>>>,
    /// The maintained index over the current sample (local row ids).
    index: ViolationIndex,
}

impl SubsampleIndex {
    /// An empty sample of `table` under `space`.
    pub fn new(table: &Table, space: &HypothesisSpace) -> Self {
        let groups = fds_by_lhs(space);
        let n_groups = groups.len();
        Self {
            groups,
            rows: Vec::new(),
            seen: vec![false; table.nrows()],
            buckets: vec![HashMap::new(); n_groups],
            index: ViolationIndex::empty(0, space.len(), 0),
        }
    }

    /// The sampled global row ids, in first-seen order.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The maintained index over the current sample (local row ids follow
    /// [`SubsampleIndex::rows`] order).
    pub fn index(&self) -> &ViolationIndex {
        &self.index
    }

    /// Adds `new_rows` (global ids; duplicates and already-sampled rows are
    /// skipped) and refines the index in place. Returns how many rows were
    /// actually new.
    ///
    /// # Panics
    /// Panics when `table`/`cache` do not match the table this sample was
    /// created for, or a row id is out of range.
    pub fn grow(&mut self, table: &Table, cache: &PartitionCache, new_rows: &[usize]) -> usize {
        assert_eq!(
            cache.n_rows(),
            self.seen.len(),
            "subsample is bound to a {}-row table",
            self.seen.len()
        );
        let old_k = self.rows.len();
        for &r in new_rows {
            if !self.seen[r] {
                self.seen[r] = true;
                self.rows.push(r);
            }
        }
        let k = self.rows.len();
        if k == old_k {
            return 0;
        }

        self.index.grow_rows(k);

        let rows = &self.rows;
        let mut scratch = ClassScratch::default();
        for (gi, (lhs, fds)) in self.groups.iter().enumerate() {
            let owners = cache.row_classes(table, *lhs);
            // Route each new row into its full-table class bucket, noting
            // each touched class's pre-grow member count once.
            let mut touched: Vec<(usize, usize)> = Vec::new();
            for local in old_k..k {
                let class = owners[rows[local]];
                if class == NO_CLASS {
                    continue;
                }
                let members = self.buckets[gi].entry(class).or_default();
                if !touched.iter().any(|&(c, _)| c == class) {
                    touched.push((class, members.len()));
                }
                members.push(local);
            }
            touched.sort_unstable_by_key(|&(class, _)| class);
            for &(fi, rhs) in fds {
                let sym = |local: usize| table.sym(rows[local], rhs);
                for &(class, old_len) in &touched {
                    let members = match self.buckets[gi].get(&class) {
                        Some(m) => m,
                        None => continue,
                    };
                    // Subtract the class's pre-grow contribution, then
                    // recount it: `index_class` overwrites every member's
                    // code, so a minority flag that a new row flips off
                    // (by changing the majority bucket) is rewritten too.
                    let (old_pairs, old_viol) =
                        class_pairs(&members[..old_len], &sym, &mut scratch);
                    self.index.uncount_class(fi, old_pairs, old_viol);
                    self.index.index_class(fi, members, &sym, &mut scratch);
                }
            }
        }
        k - old_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use et_data::table::paper_table1;

    fn space() -> HypothesisSpace {
        HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2), // Team -> City
            Fd::from_attrs([1], 4), // Team -> Apps (same determinant)
            Fd::from_attrs([2, 3], 4),
        ])
    }

    #[test]
    fn grow_matches_fresh_subsample_build() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let mut inc = SubsampleIndex::new(&t, &sp);
        let mut cumulative: Vec<usize> = Vec::new();
        for batch in [vec![0, 2], vec![1, 2, 1], vec![4, 3]] {
            for &r in &batch {
                if !cumulative.contains(&r) {
                    cumulative.push(r);
                }
            }
            inc.grow(&t, &cache, &batch);
            let fresh = ViolationIndex::build_subsample(&t, &sp, &cache, &cumulative);
            assert_eq!(inc.rows(), &cumulative[..]);
            assert_eq!(*inc.index(), fresh);
        }
    }

    #[test]
    fn duplicates_are_ignored() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let mut inc = SubsampleIndex::new(&t, &sp);
        assert_eq!(inc.grow(&t, &cache, &[3, 3, 0]), 2);
        assert_eq!(inc.grow(&t, &cache, &[0, 3]), 0);
        assert_eq!(inc.rows(), &[3, 0]);
    }

    #[test]
    fn matches_subset_table_build() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let mut inc = SubsampleIndex::new(&t, &sp);
        inc.grow(&t, &cache, &[0, 1, 3]);
        let sub = t.subset(&[0, 1, 3]);
        let direct = ViolationIndex::build(&sub, &sp);
        assert_eq!(*inc.index(), direct);
    }
}
