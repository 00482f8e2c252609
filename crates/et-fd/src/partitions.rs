//! Stripped partitions (Huhtala et al. 1999): the rows agreeing on an
//! attribute set, grouped into classes with singletons removed.
//!
//! [`crate::g1`] counts an FD's agreeing pairs from its LHS partition and
//! [`crate::PartitionCache`] derives every attribute set's partition from
//! its parent's by [`StrippedPartition::refine`].

#![expect(
    clippy::indexing_slicing,
    reason = "row ids in partition classes are < n_rows by construction (of_attr and full write rows 0..n_rows, refine only regroups them); count/cursor are sized by dict_len, which bounds every symbol refine keys by, and by_first has n_rows slots"
)]

use et_data::{AttrId, Table};

use crate::attrset::AttrSet;

/// Sentinel for a symbol whose class has not opened yet, or a first row
/// that opens no class.
const UNSET: usize = usize::MAX;

/// A *stripped* partition: the equivalence classes of rows agreeing on some
/// attribute set, with singleton classes removed.
///
/// Classes are stored flat: every class's rows back to back in one `Vec`,
/// and the class boundaries as offsets into it, so a partition costs two
/// allocations however many classes it has, and a walk over every class
/// reads one contiguous slice. [`StrippedPartition::classes`] yields the
/// classes as slices. Canonical form: every class has two or more rows,
/// rows ascend within a class, and classes ascend by first row, so equal
/// partitions compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Rows of every class, class after class.
    rows: Vec<u32>,
    /// Class `k` is `rows[bounds[k]..bounds[k + 1]]`; `bounds[0] == 0`.
    bounds: Vec<usize>,
    /// Number of rows of the underlying relation.
    pub n_rows: usize,
}

impl StrippedPartition {
    /// Builds the stripped partition of a single attribute.
    ///
    /// Buckets rows by dictionary symbol: one pass counts each symbol's
    /// rows, a second writes every row of a repeated symbol into its
    /// class's span, opened at the symbol's first row. Classes therefore
    /// come out in first-row order with members ascending — the canonical
    /// form — and singleton symbols take no space.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row ids are u32 across the FD stack for cache density; tables beyond 4G rows are out of scope"
    )]
    pub fn of_attr(table: &Table, attr: AttrId) -> Self {
        let n_rows = table.nrows();
        let mut count = vec![0u32; table.dict_len(attr)];
        for row in 0..n_rows {
            count[table.sym(row, attr) as usize] += 1;
        }
        let kept: usize = count.iter().filter(|&&c| c >= 2).map(|&c| c as usize).sum();
        // Per symbol: the next write position in `rows` once its class opens.
        let mut cursor = vec![UNSET; count.len()];
        let mut rows = vec![0u32; kept];
        let mut bounds = vec![0];
        let mut end = 0;
        for row in 0..n_rows {
            let s = table.sym(row, attr) as usize;
            if count[s] < 2 {
                continue;
            }
            if cursor[s] == UNSET {
                cursor[s] = end;
                end += count[s] as usize;
                bounds.push(end);
            }
            rows[cursor[s]] = row as u32;
            cursor[s] += 1;
        }
        Self {
            rows,
            bounds,
            n_rows,
        }
    }

    /// The identity partition over rows that agree on the empty attribute
    /// set (all rows in one class).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row ids are u32 across the FD stack for cache density; tables beyond 4G rows are out of scope"
    )]
    pub fn full(n_rows: usize) -> Self {
        if n_rows < 2 {
            return Self {
                rows: Vec::new(),
                bounds: vec![0],
                n_rows,
            };
        }
        Self {
            rows: (0..n_rows as u32).collect(),
            bounds: vec![0, n_rows],
            n_rows,
        }
    }

    /// The classes as row slices, in canonical order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.bounds.windows(2).map(|w| &self.rows[w[0]..w[1]])
    }

    /// Rows of every class, class after class — one row per row not
    /// stripped.
    pub fn class_rows(&self) -> &[u32] {
        &self.rows
    }

    /// Unordered row pairs inside one class: `Σ |class|·(|class| − 1)/2`,
    /// the pairs agreeing on the partition's attribute set.
    pub fn pairs(&self) -> u64 {
        self.classes()
            .map(|c| {
                let g = c.len() as u64;
                g * (g - 1) / 2
            })
            .sum()
    }

    /// Number of stripped classes.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True when every class is a singleton (the attribute set is a key).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The partition of the rows agreeing on `self`'s attributes *and* on
    /// `attr`: `self · π_attr` without building `π_attr`, by splitting
    /// every class by the rows' `attr` symbols.
    ///
    /// Per class, one walk counts rows per symbol in a dense counter, a
    /// second writes every row of a repeated symbol into its split's span
    /// — opened at the symbol's first row, so rows ascend — and a third
    /// resets the counters it touched. The placement walk selects rather
    /// than branches: a row of no split goes to a spare slot, and a span
    /// record is written for every row but kept only when it opens a
    /// split. The spans are then laid out in canonical order through a
    /// dense first-row table: one pass over the rows, no comparison sort.
    ///
    /// # Panics
    /// Panics when `table` does not have the partition's row count.
    pub fn refine(&self, table: &Table, attr: AttrId) -> StrippedPartition {
        assert_eq!(
            table.nrows(),
            self.n_rows,
            "partition over a different relation"
        );
        let syms = table.syms(attr);
        let slot = |r: u32| syms[r as usize] as usize;
        let mut count = vec![0u32; table.dict_len(attr)];
        // Per symbol: the next write position of its split once opened.
        let mut cursor = vec![UNSET; count.len()];
        // Rows of no split are written to one spare slot past the end, so
        // the placement walk stores every row without branching on it.
        let spare = self.rows.len();
        let mut split = vec![0u32; spare + 1];
        // (start, end) of every split in `split`, in the order opened; a
        // split holds two or more rows, so half the rows bound the count.
        let mut spans = vec![(0, 0); spare / 2 + 1];
        let mut n_spans = 0;
        let mut end = 0;
        for class in self.classes() {
            for &r in class {
                count[slot(r)] += 1;
            }
            for &r in class {
                let k = slot(r);
                let c = count[k] as usize;
                let kept = c >= 2;
                let open = kept && cursor[k] == UNSET;
                let start = if open { end } else { cursor[k] };
                spans[n_spans] = (end, end + c);
                n_spans += usize::from(open);
                end += if open { c } else { 0 };
                split[if kept { start } else { spare }] = r;
                cursor[k] = if kept { start + 1 } else { UNSET };
            }
            for &r in class {
                let k = slot(r);
                count[k] = 0;
                cursor[k] = UNSET;
            }
        }
        spans.truncate(n_spans);
        // Span id by first row; first rows are distinct.
        let mut by_first = vec![UNSET; self.n_rows];
        for (i, &(start, _)) in spans.iter().enumerate() {
            by_first[split[start] as usize] = i;
        }
        let mut rows = Vec::with_capacity(end);
        let mut bounds = Vec::with_capacity(spans.len() + 1);
        bounds.push(0);
        for &i in by_first.iter().filter(|&&i| i != UNSET) {
            let (start, stop) = spans[i];
            rows.extend_from_slice(&split[start..stop]);
            bounds.push(rows.len());
        }
        StrippedPartition {
            rows,
            bounds,
            n_rows: self.n_rows,
        }
    }

    /// The stripped partition of an attribute set, via repeated
    /// refinement.
    ///
    /// # Panics
    /// Panics on the empty set (use [`StrippedPartition::full`]).
    pub fn of_set(table: &Table, attrs: AttrSet) -> Self {
        let ids: Vec<AttrId> = attrs.to_vec();
        assert!(
            !ids.is_empty(),
            "use StrippedPartition::full for the empty set"
        );
        let mut p = Self::of_attr(table, ids[0]);
        for &a in &ids[1..] {
            p = p.refine(table, a);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::table::paper_table1;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The classes as owned vectors, for comparing against nested layouts.
    fn nested(p: &StrippedPartition) -> Vec<Vec<u32>> {
        p.classes().map(<[u32]>::to_vec).collect()
    }

    /// Canonical nested form of raw classes: singletons stripped, rows
    /// ascending, classes by first row.
    fn canonical(classes: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        let mut kept: Vec<Vec<u32>> = classes.into_iter().filter(|c| c.len() >= 2).collect();
        for c in &mut kept {
            c.sort_unstable();
        }
        kept.sort_by_key(|c| c[0]);
        kept
    }

    /// The hash-bucketed single-attribute builder the dense one replaced,
    /// over nested classes: the oracle [`StrippedPartition::of_attr`] is
    /// pinned to.
    fn hashed_of_attr(table: &Table, attr: AttrId) -> Vec<Vec<u32>> {
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for row in 0..table.nrows() {
            groups
                .entry(table.sym(row, attr))
                .or_default()
                .push(row as u32);
        }
        canonical(groups.into_values().collect())
    }

    /// The hash-bucketed partition product, over nested classes: the
    /// oracle [`StrippedPartition::refine`] is pinned to.
    fn hashed_product(p: &[Vec<u32>], q: &[Vec<u32>], n_rows: usize) -> Vec<Vec<u32>> {
        let mut owner = vec![usize::MAX; n_rows];
        for (ci, class) in p.iter().enumerate() {
            for &r in class {
                owner[r as usize] = ci;
            }
        }
        let mut out: Vec<Vec<u32>> = Vec::new();
        let mut bucket: HashMap<usize, Vec<u32>> = HashMap::new();
        for class in q {
            bucket.clear();
            for &r in class {
                let o = owner[r as usize];
                if o != usize::MAX {
                    bucket.entry(o).or_default().push(r);
                }
            }
            out.extend(bucket.drain().map(|(_, members)| members));
        }
        canonical(out)
    }

    /// Asserts `flat` holds exactly the nested classes `expected`, and
    /// that its summaries agree with them.
    fn assert_flat_equals(flat: &StrippedPartition, expected: &[Vec<u32>]) {
        assert_eq!(nested(flat), expected);
        assert_eq!(flat.len(), expected.len());
        assert_eq!(flat.is_empty(), expected.is_empty());
        let rows: Vec<u32> = expected.concat();
        assert_eq!(flat.class_rows(), rows.as_slice());
        let pairs: u64 = expected
            .iter()
            .map(|c| (c.len() * (c.len() - 1) / 2) as u64)
            .sum();
        assert_eq!(flat.pairs(), pairs);
    }

    #[test]
    fn partition_of_team() {
        let t = paper_table1();
        let p = StrippedPartition::of_attr(&t, 1); // Team
                                                   // Lakers {0,1}, Bulls {2,3}; Clippers singleton stripped.
        assert_eq!(nested(&p), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.pairs(), 2);
    }

    #[test]
    fn refine_splits_classes() {
        let t = paper_table1();
        let both = StrippedPartition::of_attr(&t, 1).refine(&t, 2);
        // (Team, City) classes: only Bulls/Chicago {2,3} survives.
        assert_eq!(nested(&both), vec![vec![2, 3]]);
        // Refinement order does not matter.
        assert_eq!(StrippedPartition::of_attr(&t, 2).refine(&t, 1), both);
    }

    #[test]
    fn full_partition_pairs() {
        let p = StrippedPartition::full(5);
        assert_eq!(p.len(), 1);
        assert_eq!(p.pairs(), 10);
        for n in 0..2 {
            let small = StrippedPartition::full(n);
            assert!(small.is_empty());
            assert_eq!(small.len(), 0);
            assert_eq!(small.pairs(), 0);
        }
    }

    #[test]
    fn key_attribute_strips_to_empty() {
        let t = paper_table1();
        let p = StrippedPartition::of_attr(&t, 0); // Player is a key
        assert!(p.is_empty());
        assert_eq!(p.pairs(), 0);
    }

    proptest! {
        #[test]
        fn refine_shrinks_and_commutes(rows in proptest::collection::vec((0u8..4, 0u8..4), 2..40)) {
            let mut b = et_data::Table::builder(et_data::Schema::new(["x", "y"]));
            for (x, y) in &rows {
                b.push_row(&[format!("x{x}"), format!("y{y}")]);
            }
            let t = b.finish();
            let px = StrippedPartition::of_attr(&t, 0);
            let py = StrippedPartition::of_attr(&t, 1);
            let both = px.refine(&t, 1);
            // Refinement can only reduce the agreeing pairs.
            prop_assert!(both.pairs() <= px.pairs());
            prop_assert!(both.pairs() <= py.pairs());
            for c in both.classes() {
                prop_assert!(c.len() >= 2);
            }
            // Refinement order does not matter.
            prop_assert_eq!(py.refine(&t, 0), both);
        }

        /// The dense flat builders (`of_attr`, `refine`, `of_set`) equal
        /// the hash-bucketed nested ones on every attribute, every ordered
        /// pair and the three-way refinement,
        /// including after edits leave dead dictionary entries; the flat
        /// layout's slices, row list and summaries match the nested
        /// classes.
        #[test]
        fn dense_builders_equal_hashed(
            rows in proptest::collection::vec((0u8..5, 0u8..3, 0u8..12), 1..80),
            edits in proptest::collection::vec((0usize..80, 0u8..3), 0..6),
        ) {
            let mut b = et_data::Table::builder(et_data::Schema::new(["x", "y", "z"]));
            for (x, y, z) in &rows {
                b.push_row(&[format!("x{x}"), format!("y{y}"), format!("z{z}")]);
            }
            let mut t = b.finish();
            for (row, attr) in edits {
                let row = row % t.nrows();
                t.set_text(row, u16::from(attr), "edited");
            }
            let n = t.nrows();
            let singles: Vec<StrippedPartition> =
                (0..3).map(|a| StrippedPartition::of_attr(&t, a)).collect();
            let hashed: Vec<Vec<Vec<u32>>> = (0..3).map(|a| hashed_of_attr(&t, a)).collect();
            for (p, h) in singles.iter().zip(&hashed) {
                assert_flat_equals(p, h);
            }
            for (p, hp) in singles.iter().zip(&hashed) {
                for (b, hq) in (0..3).zip(&hashed) {
                    assert_flat_equals(&p.refine(&t, b), &hashed_product(hp, hq, n));
                }
            }
            let xy = singles[0].refine(&t, 1);
            let hxy = hashed_product(&hashed[0], &hashed[1], n);
            let xyz = hashed_product(&hxy, &hashed[2], n);
            assert_flat_equals(&xy.refine(&t, 2), &xyz);
            assert_flat_equals(&StrippedPartition::of_set(&t, AttrSet::from_attrs([0, 1, 2])), &xyz);
        }
    }
}
