//! Violation structure: pair relations, per-tuple flags, cell-level
//! violations.
//!
//! FD violations are defined over *pairs* of tuples (paper §A.1), and the
//! data-cleaning literature also identifies them at cell granularity
//! (`C_v`). The exploratory-training game needs, per FD:
//!
//! * the relation of a presented pair to the FD ([`pair_relation`]),
//! * whether a tuple participates in any violating pair
//!   ([`ViolationIndex::tuple_violates`]), and
//! * the g1 statistics ([`ViolationIndex::g1`]).

#![expect(
    clippy::indexing_slicing,
    reason = "relation ids index the per-FD tables sized at SpaceRelations construction from the same space"
)]

use std::collections::HashSet;
use std::sync::Arc;

use et_data::{AttrId, Table};

use crate::cache::{PartitionCache, NO_CLASS};
use crate::fd::Fd;
use crate::g1::{count_symbol_runs, G1};
use crate::relmatrix::{FDS_PER_WORD, SATISFIES_MASK as LOW_LANE_BITS};
use crate::space::HypothesisSpace;

/// How a pair of tuples relates to one FD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRelation {
    /// The tuples disagree on the LHS: the FD says nothing about the pair.
    Irrelevant,
    /// The tuples agree on LHS and RHS: the pair supports the FD.
    Satisfies,
    /// The tuples agree on the LHS but differ on the RHS.
    Violates,
}

/// Classifies the pair `(a, b)` with respect to `fd`.
pub fn pair_relation(table: &Table, fd: &Fd, a: usize, b: usize) -> PairRelation {
    let lhs = fd.lhs_vec();
    if !table.rows_agree_on(a, b, &lhs) {
        PairRelation::Irrelevant
    } else if table.sym(a, fd.rhs) == table.sym(b, fd.rhs) {
        PairRelation::Satisfies
    } else {
        PairRelation::Violates
    }
}

/// Precomputed per-FD attribute lists for allocation-free pair-relation
/// checks over a whole hypothesis space (the evidence-update hot path).
#[derive(Debug, Clone)]
pub struct SpaceRelations {
    lhs: Vec<Vec<AttrId>>,
    rhs: Vec<AttrId>,
}

impl SpaceRelations {
    /// Prepares the helper for `space`.
    pub fn new(space: &HypothesisSpace) -> Self {
        Self {
            lhs: space.fds().iter().map(|fd| fd.lhs_vec()).collect(),
            rhs: space.fds().iter().map(|fd| fd.rhs).collect(),
        }
    }

    /// Number of FDs covered.
    pub fn len(&self) -> usize {
        self.rhs.len()
    }

    /// True when no FDs are covered.
    pub fn is_empty(&self) -> bool {
        self.rhs.is_empty()
    }

    /// The relation of pair `(a, b)` to FD `fi`.
    #[inline]
    pub fn relation(&self, table: &Table, fi: usize, a: usize, b: usize) -> PairRelation {
        if !table.rows_agree_on(a, b, &self.lhs[fi]) {
            PairRelation::Irrelevant
        } else if table.sym(a, self.rhs[fi]) == table.sym(b, self.rhs[fi]) {
            PairRelation::Satisfies
        } else {
            PairRelation::Violates
        }
    }

    /// True when the pair is relevant to (agrees on the LHS of) at least
    /// one FD of the space.
    pub fn relevant_to_any(&self, table: &Table, a: usize, b: usize) -> bool {
        (0..self.len()).any(|fi| self.relation(table, fi, a, b) != PairRelation::Irrelevant)
    }
}

/// Per-FD violation flags and statistics over a fixed table.
///
/// Built once per (table, hypothesis space); lookups are `O(1)`.
///
/// # Layout
///
/// The per-tuple flags are one 2-bit code per (row, FD), packed row-major
/// 32 FDs per `u64` word — the lane layout of
/// [`crate::RelationMatrix`]. FD `fi` of row `r` occupies bits
/// `2·(fi mod 32) .. 2·(fi mod 32)+2` of word `r · words_per_row + fi / 32`,
/// coded as a chain:
///
/// ```text
/// 0b00 = irrelevant   0b01 = relevant   0b10 = violates   0b11 = minority
/// ```
///
/// Each level implies the ones below it (minority ⇒ violates ⇒ relevant)
/// because a row sits in exactly one class per determinant, so one code
/// says everything the three flags did. A row's minority-FD mask is
/// `w & (w >> 1) & 0x5555…5`: the noisy-OR fold
/// ([`crate::detect::tuple_dirty_prob_with`]) scans only those bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationIndex {
    n_rows: usize,
    words_per_row: usize,
    /// Packed tuple codes, row-major (see the type docs).
    codes: Vec<u64>,
    /// Per FD: pair statistics.
    stats: Vec<G1>,
}

/// Tuple code: the row is in no multi-row LHS group of the FD.
const TUPLE_IRRELEVANT: u64 = 0b00;
/// Tuple code: the row is in a multi-row LHS group (any at-risk pair).
const TUPLE_RELEVANT: u64 = 0b01;
/// Tuple code: the row participates in >= 1 violating pair, on the
/// majority side of its group.
const TUPLE_VIOLATES: u64 = 0b10;
/// Tuple code: the row's RHS value is in a *minority* bucket of its mixed
/// group. Majority consensus is the standard FD-repair heuristic: when a
/// group disagrees on the RHS, the rows carrying the less-common values are
/// the likely errors. Ties mark every member.
const TUPLE_MINORITY: u64 = 0b11;

/// Reusable scratch buffers for per-class counting.
#[derive(Default)]
struct ClassScratch {
    syms: Vec<u32>,
    counts: Vec<(u32, u64)>,
}

/// Counts one class's at-risk and violating pairs: `members` are local row
/// ids, `rhs_sym` maps a local row id to its RHS symbol. Returns
/// `(lhs_pairs, violating_pairs)`; classes below two members contribute
/// nothing.
fn class_pairs(
    members: &[usize],
    rhs_sym: &dyn Fn(usize) -> u32,
    scratch: &mut ClassScratch,
) -> (u64, u64) {
    let g = members.len() as u64;
    if g < 2 {
        return (0, 0);
    }
    scratch.syms.clear();
    scratch.syms.extend(members.iter().map(|&m| rhs_sym(m)));
    count_symbol_runs(&mut scratch.syms, &mut scratch.counts);
    let sum_sq: u64 = scratch.counts.iter().map(|(_, c)| c * c).sum();
    ((g * (g - 1)) / 2, (g * g - sum_sq) / 2)
}

/// The distinct determinants of a space paired with their FD ids and RHS
/// attributes, in first-seen (deterministic) order.
fn fds_by_lhs(space: &HypothesisSpace) -> Vec<(crate::attrset::AttrSet, Vec<(usize, AttrId)>)> {
    let mut order: Vec<crate::attrset::AttrSet> = Vec::new();
    let mut groups: Vec<Vec<(usize, AttrId)>> = Vec::new();
    for (i, fd) in space.iter() {
        match order.iter().position(|&l| l == fd.lhs) {
            Some(p) => groups[p].push((i, fd.rhs)),
            None => {
                order.push(fd.lhs);
                groups.push(vec![(i, fd.rhs)]);
            }
        }
    }
    order.into_iter().zip(groups).collect()
}

impl ViolationIndex {
    /// Builds the index for every FD of `space` over `table`.
    ///
    /// Groups are computed once per *distinct LHS* (via a transient
    /// [`PartitionCache`]) and shared by all FDs with that determinant.
    /// Output is identical with or without a shared cache.
    pub fn build(table: &Table, space: &HypothesisSpace) -> Self {
        let cache = PartitionCache::new(table);
        Self::build_with(table, space, &cache)
    }

    /// Builds against a shared [`PartitionCache`], reusing any partitions
    /// already memoized for this table (the per-session / per-experiment
    /// fast path: partitions are computed once, every rebuild only counts).
    ///
    /// # Panics
    /// Panics when `table` does not match the cache's row count.
    pub fn build_with(table: &Table, space: &HypothesisSpace, cache: &PartitionCache) -> Self {
        let n = table.nrows();
        let mut out = Self::empty(n, space.len(), n as u64);
        let mut scratch = ClassScratch::default();
        let mut members: Vec<usize> = Vec::new();
        for (lhs, fds) in fds_by_lhs(space) {
            // Stripped (singleton) rows are exactly the rows a from-scratch
            // `group_by` skips, so the cached partition gives identical
            // columns.
            let part = cache.partition(table, lhs);
            for (fi, rhs) in fds {
                let sym = |row: usize| table.sym(row, rhs);
                for class in part.classes() {
                    members.clear();
                    members.extend(class.iter().map(|&r| r as usize));
                    out.index_class(fi, &members, &sym, &mut scratch);
                }
            }
        }
        out
    }

    /// An all-clean index skeleton (every code irrelevant, zero pair
    /// counts).
    fn empty(n_rows: usize, n_fds: usize, stat_rows: u64) -> Self {
        let words_per_row = n_fds.div_ceil(FDS_PER_WORD);
        Self {
            n_rows,
            words_per_row,
            codes: vec![0; n_rows * words_per_row],
            stats: vec![
                G1 {
                    violating_pairs: 0,
                    lhs_pairs: 0,
                    rows: stat_rows,
                };
                n_fds
            ],
        }
    }

    /// Counts one class of FD `fi` into its statistics *and* writes its
    /// members' codes (at the members' local ids). Shared by the fresh and
    /// subsample builders so both paths compute bit-identical codes.
    fn index_class(
        &mut self,
        fi: usize,
        members: &[usize],
        rhs_sym: &dyn Fn(usize) -> u32,
        scratch: &mut ClassScratch,
    ) {
        let (pairs, violating) = class_pairs(members, rhs_sym, scratch);
        if members.len() < 2 {
            return;
        }
        self.stats[fi].lhs_pairs += pairs;
        self.stats[fi].violating_pairs += violating;
        let mixed = scratch.counts.len() > 1;
        // Majority bucket: unique largest RHS count, if any.
        let max_count = scratch.counts.iter().map(|(_, c)| *c).max().unwrap_or(0);
        let max_ties = scratch
            .counts
            .iter()
            .filter(|(_, c)| *c == max_count)
            .count();
        for &m in members {
            // With >= 2 buckets every tuple has a cross-bucket partner, so
            // all members of a mixed class violate.
            let code = if !mixed {
                TUPLE_RELEVANT
            } else {
                let s = rhs_sym(m);
                let bucket = scratch
                    .counts
                    .binary_search_by_key(&s, |&(sym, _)| sym)
                    .ok()
                    .map(|i| scratch.counts[i].1)
                    .unwrap_or(0);
                if bucket < max_count || max_ties > 1 {
                    TUPLE_MINORITY
                } else {
                    TUPLE_VIOLATES
                }
            };
            self.set_code(fi, m, code);
        }
    }

    /// Overwrites the code of (FD `fi`, row `row`): the one write into the
    /// packed layout.
    #[inline]
    fn set_code(&mut self, fi: usize, row: usize, code: u64) {
        let shift = (fi % FDS_PER_WORD) * 2;
        let w = &mut self.codes[row * self.words_per_row + fi / FDS_PER_WORD];
        *w = (*w & !(0b11 << shift)) | (code << shift);
    }

    /// The code of (FD `fd_idx`, row `row`).
    ///
    /// # Panics
    /// Panics when `fd_idx` or `row` is out of range.
    #[inline]
    fn code(&self, fd_idx: usize, row: usize) -> u64 {
        assert!(fd_idx < self.stats.len(), "FD index {fd_idx} out of range");
        assert!(row < self.n_rows, "row {row} out of range");
        let w = self.codes[row * self.words_per_row + fd_idx / FDS_PER_WORD];
        (w >> ((fd_idx % FDS_PER_WORD) * 2)) & 0b11
    }

    /// Multiplies `keep` by `factor(f)` for every FD `f` on whose minority
    /// side `row` sits, in ascending FD order: one bit-scan over the row's
    /// packed words, never touching the FDs the row does not indict.
    ///
    /// # Panics
    /// Panics when `row` is out of range.
    #[inline]
    pub(crate) fn fold_minority(
        &self,
        row: usize,
        mut keep: f64,
        factor: impl Fn(usize) -> f64,
    ) -> f64 {
        assert!(row < self.n_rows, "row {row} out of range");
        let words = &self.codes[row * self.words_per_row..(row + 1) * self.words_per_row];
        for (wi, &w) in words.iter().enumerate() {
            let mut bits = w & (w >> 1) & LOW_LANE_BITS;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize / 2;
                bits &= bits - 1;
                keep *= factor(wi * FDS_PER_WORD + lane);
            }
        }
        keep
    }

    /// Builds the index of the *subsample* `rows` (distinct global row ids,
    /// in presentation order) from the cached full-table partitions: a
    /// one-off [`SampleIndexer`] over `cache`. The result is indexed by
    /// *local* position (`rows[i]` is local row `i`) and is bit-identical
    /// to `ViolationIndex::build(&table.subset(rows), space)`. A caller
    /// that indexes many samples of one table builds the indexer once.
    ///
    /// # Panics
    /// Panics when `table` does not match the cache's row count or a row id
    /// is out of range. `rows` must not contain duplicates (presented
    /// samples never do).
    pub fn build_subsample(
        table: &Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
        rows: &[usize],
    ) -> Self {
        SampleIndexer::new(table, space, cache).index(table, rows)
    }

    /// Number of rows indexed.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of FDs indexed.
    pub fn n_fds(&self) -> usize {
        self.stats.len()
    }

    /// Does `row` participate in a violating pair of FD `fd_idx`?
    #[inline]
    pub fn tuple_violates(&self, fd_idx: usize, row: usize) -> bool {
        self.code(fd_idx, row) >= TUPLE_VIOLATES
    }

    /// Is `row` in a multi-row LHS group of FD `fd_idx`?
    #[inline]
    pub fn tuple_relevant(&self, fd_idx: usize, row: usize) -> bool {
        self.code(fd_idx, row) != TUPLE_IRRELEVANT
    }

    /// Does `row` carry a minority RHS value within a mixed group of FD
    /// `fd_idx` (i.e. is it the likely-erroneous side of its violations)?
    #[inline]
    pub fn tuple_minority(&self, fd_idx: usize, row: usize) -> bool {
        self.code(fd_idx, row) == TUPLE_MINORITY
    }

    /// Pair statistics of FD `fd_idx`.
    pub fn g1(&self, fd_idx: usize) -> &G1 {
        &self.stats[fd_idx]
    }

    /// All pair statistics, FD-indexed.
    pub fn stats(&self) -> &[G1] {
        &self.stats
    }
}

/// One determinant of a space: its row → stripped-class lookup and the
/// `(FD id, RHS)` of every FD it determines.
#[derive(Debug)]
struct Determinant {
    classes: Arc<Vec<u32>>,
    fds: Vec<(usize, AttrId)>,
}

/// A space's determinant list over one table, for indexing samples of it:
/// per distinct LHS, its row → class lookup (the `Arc` the
/// [`PartitionCache`] memoizes, so no lookup is copied) and its FDs.
///
/// The list is fixed for a (table, space), so a session builds it once and
/// each [`SampleIndexer::index`] call only restricts: no FD grouping and
/// no cache lock per sample.
#[derive(Debug)]
pub struct SampleIndexer {
    n_fds: usize,
    determinants: Vec<Determinant>,
}

impl SampleIndexer {
    /// The determinant list of `space` over `table`, with each lookup
    /// taken from (and memoized in) `cache`.
    ///
    /// # Panics
    /// Panics when `table` does not match the cache's row count.
    pub fn new(table: &Table, space: &HypothesisSpace, cache: &PartitionCache) -> Self {
        let determinants = fds_by_lhs(space)
            .into_iter()
            .map(|(lhs, fds)| Determinant {
                classes: cache.row_classes(table, lhs),
                fds,
            })
            .collect();
        Self {
            n_fds: space.len(),
            determinants,
        }
    }

    /// The index of the *subsample* `rows` (distinct global row ids, in
    /// presentation order), restricted from the full-table lookups in
    /// `O(|rows| log |rows|)` per determinant without re-hashing. The
    /// result is indexed by *local* position (`rows[i]` is local row `i`)
    /// and is bit-identical to `ViolationIndex::build(&table.subset(rows),
    /// space)`: a row stripped from a full-table partition agrees with no
    /// other row on that determinant, so it cannot form a class inside any
    /// subsample.
    ///
    /// Per determinant, the sample's `(class, local)` pairs are sorted in
    /// one reused buffer and each run of equal classes is one class of the
    /// subsample: classes come in ascending class id, members in ascending
    /// local id, the order every other builder counts in.
    ///
    /// # Panics
    /// Panics when a row id is out of the indexer's table. `rows` must not
    /// contain duplicates (presented samples never do).
    pub fn index(&self, table: &Table, rows: &[usize]) -> ViolationIndex {
        let k = rows.len();
        let mut out = ViolationIndex::empty(k, self.n_fds, k as u64);
        let mut scratch = ClassScratch::default();
        let mut keyed: Vec<(u32, usize)> = Vec::with_capacity(k);
        let mut members: Vec<usize> = Vec::with_capacity(k);
        for det in &self.determinants {
            keyed.clear();
            keyed.extend(
                rows.iter()
                    .enumerate()
                    .map(|(local, &global)| (det.classes[global], local))
                    .filter(|&(class, _)| class != NO_CLASS),
            );
            // Locals are distinct, so the pairs are too: the unstable sort
            // is deterministic.
            keyed.sort_unstable();
            for &(fi, rhs) in &det.fds {
                let sym = |local: usize| table.sym(rows[local], rhs);
                // A one-member run is a sample singleton: no pairs, no code.
                for run in keyed.chunk_by(|x, y| x.0 == y.0).filter(|r| r.len() > 1) {
                    members.clear();
                    members.extend(run.iter().map(|&(_, local)| local));
                    out.index_class(fi, &members, &sym, &mut scratch);
                }
            }
        }
        out
    }
}

/// The cell-level violation set `C_v` of `fd`: for every violating pair,
/// the LHS and RHS cells of both tuples.
pub fn cell_violations(table: &Table, fd: &Fd) -> HashSet<(usize, AttrId)> {
    let lhs: Vec<AttrId> = fd.lhs_vec();
    let grouped = table.group_by(&lhs);
    let mut cells = HashSet::new();
    for group in &grouped.groups {
        if group.len() < 2 {
            continue;
        }
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                if table.sym(a as usize, fd.rhs) != table.sym(b as usize, fd.rhs) {
                    for row in [a as usize, b as usize] {
                        for &at in &lhs {
                            cells.insert((row, at));
                        }
                        cells.insert((row, fd.rhs));
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::table::paper_table1;

    #[test]
    fn pair_relation_paper_example() {
        let t = paper_table1();
        let fd = Fd::from_attrs([1], 2); // Team -> City
        assert_eq!(pair_relation(&t, &fd, 0, 1), PairRelation::Violates);
        assert_eq!(pair_relation(&t, &fd, 2, 3), PairRelation::Satisfies);
        assert_eq!(pair_relation(&t, &fd, 0, 4), PairRelation::Irrelevant);
    }

    #[test]
    fn index_flags_match_pair_relations() {
        let t = paper_table1();
        let space = HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2), // Team -> City
            Fd::from_attrs([2, 3], 4),
        ]);
        let idx = ViolationIndex::build(&t, &space);
        assert_eq!(idx.n_fds(), 2);
        assert_eq!(idx.n_rows(), 5);
        // Team -> City: t1, t2 violate; t3, t4 satisfy; t5 not relevant.
        assert!(idx.tuple_violates(0, 0));
        assert!(idx.tuple_violates(0, 1));
        assert!(!idx.tuple_violates(0, 2));
        assert!(idx.tuple_relevant(0, 2));
        assert!(!idx.tuple_relevant(0, 4));
        // Stats agree with g1_of.
        assert_eq!(*idx.g1(0), crate::g1::g1_of(&t, &space.fd(0)));
        assert_eq!(*idx.g1(1), crate::g1::g1_of(&t, &space.fd(1)));
    }

    #[test]
    fn index_consistency_on_generated_data() {
        let ds = et_data::gen::airport(150, 9);
        let fds: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
        let space = HypothesisSpace::from_fds(fds);
        let idx = ViolationIndex::build(&ds.table, &space);
        for (fi, fd) in space.iter() {
            assert!(idx.g1(fi).is_exact(), "{} should be exact", fd);
            for row in 0..ds.table.nrows() {
                assert!(!idx.tuple_violates(fi, row));
            }
        }
    }

    #[test]
    fn violates_implies_relevant() {
        let mut ds = et_data::gen::omdb(200, 5);
        let cfg = et_data::InjectConfig::with_degree(0.15, 3);
        let _ = et_data::inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
        let fds: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
        let space = HypothesisSpace::from_fds(fds);
        let idx = ViolationIndex::build(&ds.table, &space);
        let mut any_violation = false;
        for fi in 0..space.len() {
            for row in 0..ds.table.nrows() {
                if idx.tuple_violates(fi, row) {
                    any_violation = true;
                    assert!(idx.tuple_relevant(fi, row));
                    // Cross-check against pairwise relation.
                    let has_partner = (0..ds.table.nrows()).any(|other| {
                        other != row
                            && pair_relation(&ds.table, &space.fd(fi), row, other)
                                == PairRelation::Violates
                    });
                    assert!(has_partner, "fd {fi} row {row} flagged w/o partner");
                }
            }
        }
        assert!(any_violation, "injection should create violations");
    }

    #[test]
    fn cell_violations_cover_lhs_and_rhs() {
        let t = paper_table1();
        let fd = Fd::from_attrs([1], 2);
        let cells = cell_violations(&t, &fd);
        // Violating pair (t1, t2): Team and City cells of both rows.
        let expect: HashSet<(usize, AttrId)> =
            [(0, 1), (0, 2), (1, 1), (1, 2)].into_iter().collect();
        assert_eq!(cells, expect);
    }
}
