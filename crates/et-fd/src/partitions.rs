//! Stripped partitions and the partition-product TANE core (Huhtala et al.
//! 1999).
//!
//! The paper's unsupervised baseline ("if the dataset is completely clean
//! ... its set of approximate FDs can be learned with an unsupervised
//! method, Huhtala et al.") is TANE. [`crate::discovery`] implements a
//! simple group-by levelwise search; this module implements TANE's actual
//! machinery — *stripped partitions* with partition products and the
//! `e(X)` error measure — giving an independent implementation the test
//! suite cross-checks against, and the g3-based approximation criterion
//! (`e(X) − e(X ∪ {A}) ≤ ε·n`).

use et_data::{AttrId, Table};

use crate::attrset::AttrSet;
use crate::cache::NO_CLASS;
use crate::fd::Fd;

/// Key of a row that joins no split in [`StrippedPartition::product`]: the
/// row is stripped from the other partition. Never a dictionary symbol.
const SKIP: u32 = u32::MAX;

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
    pub fn of_attr(table: &Table, attr: AttrId) -> Self {
        let n_rows = table.nrows();
        let mut count = vec![0u32; table.dict_len(attr)];
        for row in 0..n_rows {
            count[table.sym(row, attr) as usize] += 1;
        }
        let kept: usize = count.iter().filter(|&&c| c >= 2).map(|&c| c as usize).sum();
        // Per symbol: the next write position in `rows` once its class opens.
        let mut cursor = vec![NO_CLASS; count.len()];
        let mut rows = vec![0u32; kept];
        let mut bounds = vec![0];
        let mut end = 0;
        for row in 0..n_rows {
            let s = table.sym(row, attr) as usize;
            if count[s] < 2 {
                continue;
            }
            if cursor[s] == NO_CLASS {
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

    /// Builds from raw classes, stripping singletons and canonicalising.
    pub fn from_classes(classes: Vec<Vec<u32>>, n_rows: usize) -> Self {
        let mut kept: Vec<Vec<u32>> = classes
            .into_iter()
            .filter(|c| c.len() >= 2)
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        kept.sort_by_key(|c| c[0]);
        let mut rows = Vec::with_capacity(kept.iter().map(Vec::len).sum());
        let mut bounds = Vec::with_capacity(kept.len() + 1);
        bounds.push(0);
        for class in &kept {
            rows.extend_from_slice(class);
            bounds.push(rows.len());
        }
        Self {
            rows,
            bounds,
            n_rows,
        }
    }

    /// The identity partition over rows that agree on the empty attribute
    /// set (all rows in one class).
    pub fn full(n_rows: usize) -> Self {
        if n_rows < 2 {
            return Self::from_classes(Vec::new(), n_rows);
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

    /// TANE's error measure `e(X)`: the minimum number of rows to remove so
    /// that `X`'s classes become unique — `Σ (|class| − 1)` over stripped
    /// classes.
    pub fn error(&self) -> usize {
        self.rows.len() - self.len()
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

    /// The partition product `self · other`: rows equivalent under *both*
    /// partitions. Linear-time TANE product: every class of `self` is
    /// split by the `other` class of its rows (see
    /// [`StrippedPartition::refine`] for the split).
    ///
    /// # Panics
    /// Panics when the partitions cover different row counts.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        assert_eq!(
            self.n_rows, other.n_rows,
            "partitions over different relations"
        );
        // row -> class id in `other` (SKIP when stripped).
        let mut owner = vec![SKIP; self.n_rows];
        for (ci, class) in (0u32..).zip(other.classes()) {
            for &r in class {
                owner[r as usize] = ci;
            }
        }
        self.split_by(&owner, other.len())
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
        self.split_by(table.syms(attr), table.dict_len(attr))
    }

    /// Splits every class by `key[row]` (keys below `key_len`, rows keyed
    /// [`SKIP`] join no split), as [`StrippedPartition::refine`] describes.
    fn split_by(&self, key: &[u32], key_len: usize) -> StrippedPartition {
        // One slot past the keys takes the rows keyed SKIP: counted like
        // any key, then zeroed so it never opens a split.
        let sink = key_len;
        let slot = |r: u32| (key[r as usize] as usize).min(sink);
        let mut count = vec![0u32; key_len + 1];
        // Per key: the next write position of its split once opened.
        let mut cursor = vec![NO_CLASS; key_len + 1];
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
            count[sink] = 0;
            for &r in class {
                let k = slot(r);
                let c = count[k] as usize;
                let kept = c >= 2;
                let open = kept && cursor[k] == NO_CLASS;
                let start = if open { end } else { cursor[k] };
                spans[n_spans] = (end, end + c);
                n_spans += usize::from(open);
                end += if open { c } else { 0 };
                split[if kept { start } else { spare }] = r;
                cursor[k] = if kept { start + 1 } else { NO_CLASS };
            }
            for &r in class {
                let k = slot(r);
                count[k] = 0;
                cursor[k] = NO_CLASS;
            }
        }
        spans.truncate(n_spans);
        // Span id by first row; first rows are distinct.
        let mut by_first = vec![NO_CLASS; self.n_rows];
        for (i, &(start, _)) in spans.iter().enumerate() {
            by_first[split[start] as usize] = i;
        }
        let mut rows = Vec::with_capacity(end);
        let mut bounds = Vec::with_capacity(spans.len() + 1);
        bounds.push(0);
        for &i in by_first.iter().filter(|&&i| i != NO_CLASS) {
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

/// A TANE-discovered approximate FD.
#[derive(Debug, Clone)]
pub struct TaneFd {
    /// The dependency.
    pub fd: Fd,
    /// `e(X) − e(X ∪ {A})` — rows that must be removed for the FD to hold,
    /// beyond what X's own duplicates force.
    pub removal_rows: usize,
    /// `removal_rows / n` (the g3 criterion value).
    pub g3: f64,
}

/// Levelwise TANE discovery of minimal approximate FDs under the g3
/// criterion: `X → A` qualifies when `(e(X) − e(X ∪ {A})) / n ≤ epsilon`.
///
/// ```
/// use et_data::gen::airport;
/// use et_fd::discover_tane;
///
/// let ds = airport(120, 1);
/// let found = discover_tane(&ds.table, 2, 0.0);
/// assert!(!found.is_empty());
/// assert!(found.iter().all(|d| d.g3 == 0.0));
/// ```
///
/// Candidates with a qualifying proper-subset LHS are pruned (minimality);
/// key-like LHSs (empty stripped partition) are skipped — every FD from a
/// key is trivially exact and uninformative.
///
/// # Panics
/// Panics on a negative `epsilon`.
pub fn discover_tane(table: &Table, max_lhs: u32, epsilon: f64) -> Vec<TaneFd> {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let n_attrs = table.schema().len() as u16;
    let n = table.nrows().max(1);
    // Cache singleton partitions.
    let singles: Vec<StrippedPartition> = (0..n_attrs)
        .map(|a| StrippedPartition::of_attr(table, a))
        .collect();

    let mut out = Vec::new();
    for rhs in 0..n_attrs {
        let mut qualified: Vec<AttrSet> = Vec::new();
        // Frontier of (lhs, partition) pairs.
        let mut frontier: Vec<(AttrSet, StrippedPartition)> = (0..n_attrs)
            .filter(|&a| a != rhs)
            .map(|a| (AttrSet::singleton(a), singles[a as usize].clone()))
            .collect();
        let mut level = 1u32;
        while !frontier.is_empty() && level <= max_lhs {
            let mut next = Vec::new();
            for (lhs, part) in frontier {
                if qualified.iter().any(|q| q.is_proper_subset_of(lhs)) {
                    continue;
                }
                if part.is_empty() {
                    continue; // lhs is a key: nothing to learn
                }
                let joint = part.product(&singles[rhs as usize]);
                let removal = part.error() - joint.error();
                let g3 = removal as f64 / n as f64;
                if g3 <= epsilon {
                    qualified.push(lhs);
                    out.push(TaneFd {
                        fd: Fd::new(lhs, rhs),
                        removal_rows: removal,
                        g3,
                    });
                    continue;
                }
                let max_attr = lhs.iter().last().unwrap_or(0);
                for a in (max_attr + 1)..n_attrs {
                    if a != rhs {
                        let bigger = part.product(&singles[a as usize]);
                        next.push((lhs.with(a), bigger));
                    }
                }
            }
            frontier = next;
            level += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::gen::{airport, omdb};
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

    /// The hash-bucketed product the dense one replaced, over nested
    /// classes: the oracle [`StrippedPartition::product`] is pinned to.
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
        assert_eq!(flat.error(), rows.len() - expected.len());
        let pairs: u64 = expected
            .iter()
            .map(|c| (c.len() * (c.len() - 1) / 2) as u64)
            .sum();
        assert_eq!(flat.pairs(), pairs);
        assert_eq!(
            *flat,
            StrippedPartition::from_classes(expected.to_vec(), flat.n_rows)
        );
    }

    #[test]
    fn partition_of_team() {
        let t = paper_table1();
        let p = StrippedPartition::of_attr(&t, 1); // Team
                                                   // Lakers {0,1}, Bulls {2,3}; Clippers singleton stripped.
        assert_eq!(nested(&p), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.error(), 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn product_refines() {
        let t = paper_table1();
        let team = StrippedPartition::of_attr(&t, 1);
        let city = StrippedPartition::of_attr(&t, 2);
        let both = team.product(&city);
        // (Team, City) classes: only Bulls/Chicago {2,3} survives.
        assert_eq!(nested(&both), vec![vec![2, 3]]);
        // Product is commutative on stripped partitions.
        assert_eq!(city.product(&team), both);
    }

    #[test]
    fn full_partition_error() {
        let p = StrippedPartition::full(5);
        assert_eq!(p.error(), 4);
        assert!(StrippedPartition::full(1).is_empty());
    }

    #[test]
    fn key_attribute_strips_to_empty() {
        let t = paper_table1();
        let p = StrippedPartition::of_attr(&t, 0); // Player is a key
        assert!(p.is_empty());
        assert_eq!(p.error(), 0);
    }

    #[test]
    fn tane_error_semantics_match_g3() {
        // e(X) - e(XA) over the Team -> City pair: removal of one row
        // repairs it, matching measures::g2_g3's g3 = 1/5.
        let t = paper_table1();
        let team = StrippedPartition::of_attr(&t, 1);
        let joint = team.product(&StrippedPartition::of_attr(&t, 2));
        let removal = team.error() - joint.error();
        assert_eq!(removal, 1);
        let m = crate::measures::g2_g3(&t, &Fd::from_attrs([1], 2));
        assert!((m.g3 - removal as f64 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn tane_finds_generator_fds() {
        let ds = airport(200, 4);
        let found = discover_tane(&ds.table, 2, 0.0);
        for spec in &ds.exact_fds {
            let fd = Fd::from_spec(spec);
            let covered = found.iter().any(|d| d.fd == fd || d.fd.implies(&fd));
            assert!(
                covered,
                "{} not found by TANE",
                fd.display(ds.table.schema())
            );
        }
        for d in &found {
            assert_eq!(d.g3, 0.0);
            assert_eq!(d.removal_rows, 0);
        }
    }

    #[test]
    fn tane_agrees_with_groupby_discovery_on_exact_fds() {
        // Two independent implementations must find semantically equivalent
        // exact-FD sets.
        let ds = omdb(150, 6);
        let tane: Vec<Fd> = discover_tane(&ds.table, 2, 0.0)
            .into_iter()
            .map(|d| d.fd)
            .collect();
        let groupby: Vec<Fd> = crate::discovery::discover(
            &ds.table,
            &crate::discovery::DiscoveryConfig {
                max_lhs: 2,
                max_violation_rate: 0.0,
                min_support: 1,
            },
        )
        .into_iter()
        .map(|d| d.fd)
        .collect();
        // group-by discovery includes key-LHS FDs (zero at-risk pairs);
        // TANE skips keys. Compare on the overlap domain: every TANE FD
        // must be discovered (or implied) by group-by, and every group-by
        // FD with a non-key LHS must be found by TANE.
        for fd in &tane {
            assert!(
                groupby.iter().any(|g| g == fd || g.implies(fd)),
                "TANE found {fd} that group-by missed"
            );
        }
        for fd in &groupby {
            let key_lhs = StrippedPartition::of_set(&ds.table, fd.lhs).is_empty();
            if !key_lhs {
                assert!(
                    tane.iter().any(|t| t == fd || t.implies(fd)),
                    "group-by found {fd} that TANE missed"
                );
            }
        }
    }

    #[test]
    fn tane_approximate_recovers_injected_fds() {
        let mut ds = airport(250, 7);
        let specs = ds.exact_fds.clone();
        let _ = et_data::inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &et_data::InjectConfig::with_degree(0.08, 3),
        );
        let strict = discover_tane(&ds.table, 2, 0.0);
        let tolerant = discover_tane(&ds.table, 2, 0.10);
        let hits = |list: &[TaneFd]| {
            specs
                .iter()
                .map(Fd::from_spec)
                .filter(|fd| list.iter().any(|d| d.fd == *fd || d.fd.implies(fd)))
                .count()
        };
        assert!(hits(&tolerant) >= hits(&strict));
        assert_eq!(
            hits(&tolerant),
            specs.len(),
            "g3 tolerance recovers all FDs"
        );
    }

    proptest! {
        #[test]
        fn product_error_monotone(rows in proptest::collection::vec((0u8..4, 0u8..4), 2..40)) {
            let mut b = et_data::Table::builder(et_data::Schema::new(["x", "y"]));
            for (x, y) in &rows {
                b.push_row(&[format!("x{x}"), format!("y{y}")]);
            }
            let t = b.finish();
            let px = StrippedPartition::of_attr(&t, 0);
            let py = StrippedPartition::of_attr(&t, 1);
            let prod = px.product(&py);
            // Refinement can only reduce the error and the class sizes.
            prop_assert!(prod.error() <= px.error());
            prop_assert!(prod.error() <= py.error());
            for c in prod.classes() {
                prop_assert!(c.len() >= 2);
            }
            // Product is commutative.
            prop_assert_eq!(py.product(&px), prod);
        }

        /// The dense flat builders (`of_attr`, `product`, `refine`,
        /// `of_set`) equal the hash-bucketed nested ones on every
        /// attribute, every ordered pair and the three-way products,
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
                for ((b, q), hq) in (0..3).zip(&singles).zip(&hashed) {
                    let expected = hashed_product(hp, hq, n);
                    assert_flat_equals(&p.product(q), &expected);
                    assert_flat_equals(&p.refine(&t, b), &expected);
                }
            }
            let xy = singles[0].product(&singles[1]);
            let hxy = hashed_product(&hashed[0], &hashed[1], n);
            assert_flat_equals(&xy.product(&singles[2]), &hashed_product(&hxy, &hashed[2], n));
            assert_flat_equals(&singles[2].product(&xy), &hashed_product(&hashed[2], &hxy, n));
            let xyz = hashed_product(&hxy, &hashed[2], n);
            assert_flat_equals(&xy.refine(&t, 2), &xyz);
            assert_flat_equals(&StrippedPartition::of_set(&t, AttrSet::from_attrs([0, 1, 2])), &xyz);
        }
    }
}
