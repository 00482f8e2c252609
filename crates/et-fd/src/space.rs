//! Hypothesis spaces: the candidate FD sets agents hold beliefs over.
//!
//! The paper's empirical study fixes, per dataset, a space of 38 approximate
//! FDs with at most four attributes each; the agents' beliefs are
//! distributions over the confidence of every FD in this space.
//! [`HypothesisSpace::enumerate`] builds the full normalized lattice up to a
//! size bound; [`HypothesisSpace::capped`] reproduces the paper's setup by
//! keeping `cap` supported candidates strided across the violation-rate
//! spectrum plus guaranteed room for explicitly pinned FDs.

#![expect(
    clippy::indexing_slicing,
    reason = "FdId is handed out by the space itself and is an index into its fds vec"
)]

use std::collections::HashMap;
use std::sync::Arc;

use et_data::Table;

use crate::attrset::{subsets_up_to, AttrSet};
use crate::cache::PartitionCache;
use crate::fd::Fd;
use crate::g1::{agreeing_on, G1};
use crate::partitions::StrippedPartition;

/// An immutable, indexable set of candidate FDs.
#[derive(Debug, Clone)]
pub struct HypothesisSpace {
    fds: Vec<Fd>,
    index: HashMap<Fd, usize>,
}

impl HypothesisSpace {
    /// Builds a space from an explicit FD list (duplicates removed, order
    /// preserved).
    ///
    /// # Panics
    /// Panics on an empty FD list.
    pub fn from_fds<I: IntoIterator<Item = Fd>>(fds: I) -> Self {
        let mut list = Vec::new();
        let mut index = HashMap::new();
        for fd in fds {
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(fd) {
                e.insert(list.len());
                list.push(fd);
            }
        }
        assert!(!list.is_empty(), "hypothesis space must not be empty");
        Self { fds: list, index }
    }

    /// Enumerates every normalized, non-trivial FD over `n_attrs` attributes
    /// with at most `max_fd_attrs` total attributes (LHS + RHS).
    ///
    /// The paper uses `max_fd_attrs = 4`.
    ///
    /// # Panics
    /// Panics unless `n_attrs >= 2` and `max_fd_attrs >= 2`.
    pub fn enumerate(n_attrs: u16, max_fd_attrs: u32) -> Self {
        assert!(n_attrs >= 2, "need at least two attributes to form an FD");
        assert!(max_fd_attrs >= 2, "an FD mentions at least two attributes");
        let universe = AttrSet::from_attrs(0..n_attrs);
        let mut fds = Vec::new();
        for rhs in 0..n_attrs {
            let rest = universe.without(rhs);
            for lhs in subsets_up_to(rest, max_fd_attrs - 1) {
                fds.push(Fd::new(lhs, rhs));
            }
        }
        Self::from_fds(fds)
    }

    /// Reproduces the paper's capped hypothesis space: enumerate candidates
    /// up to `max_fd_attrs`, drop FDs whose LHS has fewer than `min_support`
    /// at-risk pairs on `table` (nothing to learn from), rank the remainder
    /// by ascending violation rate, and keep `cap` FDs *strided across the
    /// quality spectrum* — the space must contain strong, plausible and
    /// weak hypotheses (all-near-exact spaces would make every agent's
    /// belief trivially uniform-high and uncertainty meaningless).
    ///
    /// FDs in `pinned` are always included (the ground-truth targets of an
    /// experiment must be in the space even if injection made them noisy).
    ///
    /// # Panics
    /// Panics when `cap` is smaller than the number of pinned FDs, or
    /// under the conditions of [`HypothesisSpace::enumerate`].
    pub fn capped(
        table: &Table,
        max_fd_attrs: u32,
        cap: usize,
        min_support: u64,
        pinned: &[Fd],
    ) -> Self {
        let cache = PartitionCache::new(table);
        Self::capped_with(table, &cache, max_fd_attrs, cap, min_support, pinned)
    }

    /// [`HypothesisSpace::capped`] scoring through a caller-supplied cache.
    ///
    /// The lattice is scored once per attribute set (see the TANE identity
    /// in `lattice_g1`), which leaves the partition of every determinant
    /// of at most `max_fd_attrs − 1` attributes memoized in `cache`; prune
    /// it with [`PartitionCache::prune`] before keeping it.
    ///
    /// # Panics
    /// As [`HypothesisSpace::capped`], and when `cache` was built for a
    /// table with a different row count.
    pub fn capped_with(
        table: &Table,
        cache: &PartitionCache,
        max_fd_attrs: u32,
        cap: usize,
        min_support: u64,
        pinned: &[Fd],
    ) -> Self {
        assert!(cap >= pinned.len(), "cap too small for pinned FDs");
        let mut scored: Vec<(Fd, f64)> = lattice_g1(table, cache, max_fd_attrs)
            .into_iter()
            .filter(|(fd, g)| g.lhs_pairs >= min_support && !pinned.contains(fd))
            .map(|(fd, g)| (fd, g.violation_rate()))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let keep = cap.saturating_sub(pinned.len()).min(scored.len());
        // Quantile striding over the violation-rate-sorted candidates.
        let strided = (0..keep).map(|i| {
            let pos = if keep <= 1 {
                0
            } else {
                i * (scored.len() - 1) / (keep - 1)
            };
            scored[pos].0
        });
        Self::from_fds(pinned.iter().copied().chain(strided))
    }

    /// Number of FDs in the space.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// True when the space is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// The FDs, in index order.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// The FD at `idx`.
    pub fn fd(&self, idx: usize) -> Fd {
        self.fds[idx]
    }

    /// The index of `fd`, if present.
    pub fn index_of(&self, fd: &Fd) -> Option<usize> {
        self.index.get(fd).copied()
    }

    /// True when `fd` is in the space.
    pub fn contains(&self, fd: &Fd) -> bool {
        self.index.contains_key(fd)
    }

    /// Iterates `(index, Fd)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Fd)> + '_ {
        self.fds.iter().copied().enumerate()
    }

    /// All LHS attribute-set / RHS combinations, deduplicated by LHS, useful
    /// for building group indexes once per distinct LHS.
    pub fn distinct_lhs(&self) -> Vec<AttrSet> {
        let mut seen = Vec::new();
        for fd in &self.fds {
            if !seen.contains(&fd.lhs) {
                seen.push(fd.lhs);
            }
        }
        seen
    }
}

/// [`G1`] of every FD of the lattice [`HypothesisSpace::enumerate`]
/// spans over `table` — each normalized `X → A` with `|X ∪ {A}| ≤
/// max_fd_attrs` — counted once per attribute set instead of once per FD.
///
/// By the TANE identity (Huhtala et al. 1999) a pair agreeing on `X`
/// violates `X → A` exactly when it does not also agree on `S = X ∪ {A}`,
/// so `violating(X → A) = pairs(π_X) − pairs(π_S)`, where `pairs(π)`
/// counts the row pairs inside one class of `π`. Each set `S` is scored
/// once and serves its `|S|` FDs:
///
/// * when `|S| < max_fd_attrs`, `π_S` is itself a determinant's partition,
///   memoized in `cache`, and its pairs come from its class sizes;
/// * when `|S| = max_fd_attrs`, one counting walk over the cached
///   `(|S| − 1)`-subset partition with the fewest class rows, by the
///   remaining attribute's symbol, counts the pairs that also agree on
///   that attribute.
///
/// Sets are visited in ascending mask order, so every subset is scored
/// before its supersets; FDs come out in that order, RHS ascending within
/// a set.
///
/// # Panics
/// Panics unless the table has at least two attributes and
/// `max_fd_attrs >= 2`, or when `cache` was built for another row count.
fn lattice_g1(table: &Table, cache: &PartitionCache, max_fd_attrs: u32) -> Vec<(Fd, G1)> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    let n_attrs = table.schema().len() as u16;
    assert!(n_attrs >= 2, "need at least two attributes to form an FD");
    assert!(max_fd_attrs >= 2, "an FD mentions at least two attributes");
    let rows = table.nrows() as u64;
    let sets = subsets_up_to(AttrSet::from_attrs(0..n_attrs), max_fd_attrs);
    // The sets below the size bound, ascending by mask, with their
    // partitions and pair counts: every determinant of the lattice. A
    // proper subset has a smaller mask, so it is scored before any set
    // that looks it up; the lookups fall back to the cache only to stay
    // total.
    let mut scored: Vec<(AttrSet, Arc<StrippedPartition>, u64)> = Vec::new();
    let pairs_of = |scored: &[(AttrSet, Arc<StrippedPartition>, u64)], x: AttrSet| match scored
        .binary_search_by_key(&x, |e| e.0)
    {
        Ok(i) => scored[i].2,
        Err(_) => cache.partition(table, x).pairs(),
    };
    // One dense counter per symbol, all zero between classes.
    let mut counts: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for s in sets {
        let agreeing = if s.len() < max_fd_attrs {
            let part = cache.partition(table, s);
            let pairs = part.pairs();
            scored.push((s, part, pairs));
            pairs
        } else {
            let walk = s
                .iter()
                .filter_map(|b| {
                    let i = scored.binary_search_by_key(&s.without(b), |e| e.0).ok()?;
                    Some((&scored[i].1, b))
                })
                .min_by_key(|(part, _)| part.class_rows().len());
            match walk {
                Some((part, b)) => agreeing_on(table, part, b, &mut counts),
                None => cache.partition(table, s).pairs(),
            }
        };
        if s.len() < 2 {
            continue;
        }
        for a in s.iter() {
            let lhs = s.without(a);
            let lhs_pairs = pairs_of(&scored, lhs);
            out.push((
                Fd::new(lhs, a),
                G1 {
                    violating_pairs: lhs_pairs - agreeing,
                    lhs_pairs,
                    rows,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{g1_of, g1_per_fd};
    use et_data::gen::{omdb, DatasetName};
    use proptest::prelude::*;

    /// [`HypothesisSpace::capped`] as it scored before the lattice scorer:
    /// the whole enumerated lattice, one counting walk per FD.
    fn capped_per_fd(
        table: &Table,
        max_fd_attrs: u32,
        cap: usize,
        min_support: u64,
        pinned: &[Fd],
    ) -> HypothesisSpace {
        let full = HypothesisSpace::enumerate(table.schema().len() as u16, max_fd_attrs);
        let cache = PartitionCache::new(table);
        let stats = g1_per_fd(table, full.fds(), &cache);
        let mut scored: Vec<(Fd, f64)> = full
            .fds()
            .iter()
            .zip(&stats)
            .filter(|(fd, g)| !pinned.contains(fd) && g.lhs_pairs >= min_support)
            .map(|(&fd, g)| (fd, g.violation_rate()))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let keep = cap.saturating_sub(pinned.len()).min(scored.len());
        let strided = (0..keep).map(|i| {
            let pos = if keep <= 1 {
                0
            } else {
                i * (scored.len() - 1) / (keep - 1)
            };
            scored[pos].0
        });
        HypothesisSpace::from_fds(pinned.iter().copied().chain(strided))
    }

    /// Scores the lattice per attribute set and checks every FD against
    /// [`g1_of`], and the FD list against [`HypothesisSpace::enumerate`].
    fn assert_lattice_matches_g1_of(table: &Table, max_fd_attrs: u32) {
        let cache = PartitionCache::new(table);
        let stats = lattice_g1(table, &cache, max_fd_attrs);
        let full = HypothesisSpace::enumerate(table.schema().len() as u16, max_fd_attrs);
        assert_eq!(stats.len(), full.len(), "one result per lattice FD");
        let mut seen = vec![false; full.len()];
        for (fd, g) in &stats {
            let Some(i) = full.index_of(fd) else {
                panic!("{fd} is not in the lattice");
            };
            assert!(!seen[i], "{fd} scored twice");
            seen[i] = true;
            assert_eq!(*g, g1_of(table, fd), "{fd} at max_fd_attrs {max_fd_attrs}");
        }
    }

    #[test]
    fn capped_equals_per_fd_scoring_on_served_shapes() {
        for (name, rows) in [
            (DatasetName::Hospital, 300),
            (DatasetName::Omdb, 160),
            (DatasetName::Tax, 300),
        ] {
            let mut ds = name.generate(rows, 7);
            let cfg = et_data::InjectConfig::with_degree(0.10, 11);
            let _ = et_data::inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
            let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
            for (max_fd_attrs, cap) in [(3, 20), (4, 38)] {
                let fast = HypothesisSpace::capped(&ds.table, max_fd_attrs, cap, 3, &pinned);
                let slow = capped_per_fd(&ds.table, max_fd_attrs, cap, 3, &pinned);
                assert_eq!(
                    fast.fds(),
                    slow.fds(),
                    "{name:?} at {max_fd_attrs} attributes"
                );
            }
        }
    }

    #[test]
    fn capped_with_leaves_every_determinant_memoized() {
        let ds = omdb(120, 5);
        let cache = PartitionCache::new(&ds.table);
        let s = HypothesisSpace::capped_with(&ds.table, &cache, 3, 12, 3, &[]);
        // 7 attributes: 7 singletons and 21 pairs are the determinants.
        assert_eq!(cache.len(), 28);
        let kept = s.distinct_lhs();
        cache.prune(|attrs| kept.contains(&attrs));
        assert_eq!(cache.len(), kept.len());
    }

    proptest! {
        /// The per-set scorer equals [`g1_of`] on every FD of the lattice at
        /// 2, 3 and 4 attributes, over tables with a constant column, a key
        /// column, dead dictionary entries left by edits, and fewer than
        /// two rows.
        #[test]
        fn lattice_scorer_equals_g1_of(
            rows in proptest::collection::vec((0u8..4, 0u8..3, 0u8..6), 0..40),
            edits in proptest::collection::vec((0usize..40, 0u8..5, 0u8..3), 0..6),
        ) {
            let schema = et_data::Schema::new(["x", "y", "z", "constant", "key"]);
            let mut b = Table::builder(schema);
            for (i, (x, y, z)) in rows.iter().enumerate() {
                b.push_row(&[
                    format!("x{x}"),
                    format!("y{y}"),
                    format!("z{z}"),
                    "c".to_owned(),
                    format!("k{i}"),
                ]);
            }
            let mut t = b.finish();
            for (row, attr, v) in edits {
                if t.nrows() > 0 {
                    t.set_text(row % t.nrows(), u16::from(attr), &format!("edit{v}"));
                }
            }
            for max_fd_attrs in [2, 3, 4] {
                assert_lattice_matches_g1_of(&t, max_fd_attrs);
            }
        }
    }

    #[test]
    fn enumeration_counts() {
        // 3 attributes, max 2 attrs per FD: each RHS has 2 singleton LHS
        // choices -> 6 FDs.
        let s = HypothesisSpace::enumerate(3, 2);
        assert_eq!(s.len(), 6);
        // max 3 attrs: each RHS also has C(2,2)=1 two-attr LHS -> 9 FDs.
        let s = HypothesisSpace::enumerate(3, 3);
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn enumeration_paper_scale() {
        // Hospital: 19 attributes, FDs with <= 4 attributes:
        // 19 * (C(18,1) + C(18,2) + C(18,3)) = 19 * 987 = 18753.
        let s = HypothesisSpace::enumerate(19, 4);
        assert_eq!(s.len(), 18_753);
    }

    #[test]
    fn index_roundtrip() {
        let s = HypothesisSpace::enumerate(4, 3);
        for (i, fd) in s.iter() {
            assert_eq!(s.index_of(&fd), Some(i));
            assert!(s.contains(&fd));
        }
        assert_eq!(s.index_of(&Fd::from_attrs([0, 1, 2], 3)), None);
    }

    #[test]
    fn from_fds_dedups() {
        let a = Fd::from_attrs([0], 1);
        let b = Fd::from_attrs([1], 0);
        let s = HypothesisSpace::from_fds([a, b, a]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.fd(0), a);
    }

    #[test]
    fn capped_keeps_pinned_and_cap() {
        let ds = omdb(200, 3);
        let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
        let s = HypothesisSpace::capped(&ds.table, 3, 38, 3, &pinned);
        assert_eq!(s.len(), 38, "the paper's 38-FD space");
        for fd in &pinned {
            assert!(s.contains(fd), "pinned FD {fd} missing");
        }
    }

    #[test]
    fn capped_spans_the_quality_spectrum() {
        let ds = omdb(200, 3);
        let s = HypothesisSpace::capped(&ds.table, 3, 12, 3, &[]);
        let rates: Vec<f64> = s
            .fds()
            .iter()
            .map(|fd| crate::g1::g1_of(&ds.table, fd).violation_rate())
            .collect();
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Striding keeps both near-exact and badly-violated hypotheses.
        assert!(min <= 0.05, "best FD rate {min}");
        assert!(max >= 0.5, "worst FD rate {max}");
        // Every kept FD meets the support floor.
        for fd in s.fds() {
            assert!(crate::g1::g1_of(&ds.table, fd).lhs_pairs >= 3);
        }
    }

    #[test]
    fn distinct_lhs_dedups() {
        let s = HypothesisSpace::from_fds([
            Fd::from_attrs([0], 1),
            Fd::from_attrs([0], 2),
            Fd::from_attrs([1], 0),
        ]);
        assert_eq!(s.distinct_lhs().len(), 2);
    }
}
