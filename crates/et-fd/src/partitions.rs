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

/// A *stripped* partition: the equivalence classes of rows agreeing on some
/// attribute set, with singleton classes removed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Equivalence classes (each of size >= 2), rows sorted within a class,
    /// classes sorted by first member for canonical form.
    pub classes: Vec<Vec<u32>>,
    /// Number of rows of the underlying relation.
    pub n_rows: usize,
}

impl StrippedPartition {
    /// Builds the stripped partition of a single attribute.
    ///
    /// Buckets rows by dictionary symbol: one pass counts each symbol's
    /// rows, a second appends every row of a repeated symbol to its class,
    /// opened at the symbol's first row. Classes therefore come out in
    /// first-row order with members ascending — the canonical form — and
    /// singleton symbols never allocate.
    pub fn of_attr(table: &Table, attr: AttrId) -> Self {
        let n_rows = table.nrows();
        let mut count = vec![0u32; table.dict_len(attr)];
        for row in 0..n_rows {
            count[table.sym(row, attr) as usize] += 1;
        }
        let mut slot = vec![NO_CLASS; count.len()];
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for row in 0..n_rows {
            let s = table.sym(row, attr) as usize;
            if count[s] < 2 {
                continue;
            }
            if slot[s] == NO_CLASS {
                slot[s] = classes.len();
                classes.push(Vec::with_capacity(count[s] as usize));
            }
            classes[slot[s]].push(row as u32);
        }
        Self { classes, n_rows }
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
        Self {
            classes: kept,
            n_rows,
        }
    }

    /// The identity partition over rows that agree on the empty attribute
    /// set (all rows in one class).
    pub fn full(n_rows: usize) -> Self {
        if n_rows < 2 {
            return Self {
                classes: Vec::new(),
                n_rows,
            };
        }
        Self {
            classes: vec![(0..n_rows as u32).collect()],
            n_rows,
        }
    }

    /// TANE's error measure `e(X)`: the minimum number of rows to remove so
    /// that `X`'s classes become unique — `Σ (|class| − 1)` over stripped
    /// classes.
    pub fn error(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum()
    }

    /// Number of stripped classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when every class is a singleton (the attribute set is a key).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The partition product `self · other`: rows equivalent under *both*
    /// partitions. Linear-time TANE product using dense scratch tables.
    ///
    /// Each class of `other` is split by the `self` class of its members:
    /// one walk counts members per `self` class (recording each class on a
    /// touched list the first time it is hit), classes of two or more open
    /// in first-member order, a second walk fills them, and the touched
    /// list resets the counters for the next class. Members stay ascending
    /// because `other`'s classes are; one sort by first row restores the
    /// canonical class order across classes of `other`.
    ///
    /// # Panics
    /// Panics when the partitions cover different row counts.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        assert_eq!(
            self.n_rows, other.n_rows,
            "partitions over different relations"
        );
        // row -> class id in `self` (NO_CLASS when stripped).
        let mut owner = vec![NO_CLASS; self.n_rows];
        for (ci, class) in self.classes.iter().enumerate() {
            for &r in class {
                owner[r as usize] = ci;
            }
        }
        // Per `self` class: members seen in the current `other` class, and
        // the output slot of its split once opened.
        let mut count = vec![0u32; self.classes.len()];
        let mut slot = vec![NO_CLASS; self.classes.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut out: Vec<Vec<u32>> = Vec::new();
        for class in &other.classes {
            for &r in class {
                let o = owner[r as usize];
                if o != NO_CLASS {
                    let c = &mut count[o];
                    if *c == 0 {
                        touched.push(o);
                    }
                    *c += 1;
                }
            }
            for &o in &touched {
                let c = count[o];
                if c >= 2 {
                    slot[o] = out.len();
                    out.push(Vec::with_capacity(c as usize));
                }
            }
            for &r in class {
                let o = owner[r as usize];
                if o != NO_CLASS && count[o] >= 2 {
                    out[slot[o]].push(r);
                }
            }
            for o in touched.drain(..) {
                count[o] = 0;
            }
        }
        // First rows are distinct, so the unstable sort is deterministic.
        out.sort_unstable_by_key(|c| c[0]);
        StrippedPartition {
            classes: out,
            n_rows: self.n_rows,
        }
    }

    /// The stripped partition of an attribute set, via repeated products.
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
            p = p.product(&Self::of_attr(table, a));
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

    /// The hash-bucketed single-attribute builder the dense one replaced:
    /// the oracle [`StrippedPartition::of_attr`] is pinned to.
    fn hashed_of_attr(table: &Table, attr: AttrId) -> StrippedPartition {
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for row in 0..table.nrows() {
            groups
                .entry(table.sym(row, attr))
                .or_default()
                .push(row as u32);
        }
        StrippedPartition::from_classes(groups.into_values().collect(), table.nrows())
    }

    /// The hash-bucketed product the dense one replaced: the oracle
    /// [`StrippedPartition::product`] is pinned to.
    fn hashed_product(p: &StrippedPartition, q: &StrippedPartition) -> StrippedPartition {
        let mut owner = vec![usize::MAX; p.n_rows];
        for (ci, class) in p.classes.iter().enumerate() {
            for &r in class {
                owner[r as usize] = ci;
            }
        }
        let mut out: Vec<Vec<u32>> = Vec::new();
        let mut bucket: HashMap<usize, Vec<u32>> = HashMap::new();
        for class in &q.classes {
            bucket.clear();
            for &r in class {
                let o = owner[r as usize];
                if o != usize::MAX {
                    bucket.entry(o).or_default().push(r);
                }
            }
            for (_, members) in bucket.drain() {
                if members.len() >= 2 {
                    out.push(members);
                }
            }
        }
        StrippedPartition::from_classes(out, p.n_rows)
    }

    #[test]
    fn partition_of_team() {
        let t = paper_table1();
        let p = StrippedPartition::of_attr(&t, 1); // Team
                                                   // Lakers {0,1}, Bulls {2,3}; Clippers singleton stripped.
        assert_eq!(p.classes, vec![vec![0, 1], vec![2, 3]]);
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
        assert_eq!(both.classes, vec![vec![2, 3]]);
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
            for c in &prod.classes {
                prop_assert!(c.len() >= 2);
            }
            // Product is commutative.
            prop_assert_eq!(py.product(&px), prod);
        }

        /// The dense builders equal the hash-bucketed ones on every
        /// attribute, every ordered pair and a three-way product,
        /// including after edits leave dead dictionary entries.
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
            let singles: Vec<StrippedPartition> =
                (0..3).map(|a| StrippedPartition::of_attr(&t, a)).collect();
            for (a, p) in (0..3).zip(&singles) {
                prop_assert_eq!(p, &hashed_of_attr(&t, a));
            }
            for p in &singles {
                for q in &singles {
                    prop_assert_eq!(p.product(q), hashed_product(p, q));
                }
            }
            let xy = singles[0].product(&singles[1]);
            prop_assert_eq!(xy.product(&singles[2]), hashed_product(&xy, &singles[2]));
            prop_assert_eq!(singles[2].product(&xy), hashed_product(&singles[2], &xy));
        }
    }
}
