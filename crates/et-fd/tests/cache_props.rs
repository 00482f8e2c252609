//! Property tests pinning the partition-cache substrate to the legacy
//! semantics: cached, subsample and incremental index builds must be
//! *exactly* equal — same `G1` integer statistics, same
//! `violates`/`relevant`/`minority` flags — to a fresh build.

use proptest::prelude::*;

use et_data::{Schema, Table};
use et_fd::{
    pair_relation, Fd, HypothesisSpace, PairRelation, PartitionCache, SubsampleIndex,
    ViolationIndex,
};

/// Arbitrary small tables over three low-cardinality columns: enough to
/// produce singleton, clean and mixed LHS groups.
fn arb_rows() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 0..48)
}

fn table_of(rows: &[(u8, u8, u8)]) -> Table {
    let mut b = Table::builder(Schema::new(["x", "y", "a"]));
    for (x, y, a) in rows {
        b.push_row(&[format!("x{x}"), format!("y{y}"), format!("a{a}")]);
    }
    b.finish()
}

fn space() -> HypothesisSpace {
    HypothesisSpace::from_fds([
        Fd::from_attrs([0], 2),
        Fd::from_attrs([0], 1),    // shares determinant {x}
        Fd::from_attrs([0, 1], 2), // derived by partition product
        Fd::from_attrs([1], 0),
        Fd::from_attrs([1, 2], 0),
    ])
}

/// Distinct in-range sample rows derived from arbitrary indices.
fn sample_from(picks: &[usize], n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for &p in picks {
        if n == 0 {
            break;
        }
        let r = p % n;
        if !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

fn assert_indexes_equal(a: &ViolationIndex, b: &ViolationIndex) {
    assert_eq!(a.n_rows(), b.n_rows());
    assert_eq!(a.n_fds(), b.n_fds());
    assert_eq!(a.stats(), b.stats());
    for fi in 0..a.n_fds() {
        for row in 0..a.n_rows() {
            assert_eq!(a.tuple_violates(fi, row), b.tuple_violates(fi, row));
            assert_eq!(a.tuple_relevant(fi, row), b.tuple_relevant(fi, row));
            assert_eq!(a.tuple_minority(fi, row), b.tuple_minority(fi, row));
        }
    }
    assert_eq!(a, b);
}

proptest! {
    /// Cached builds equal the fresh build.
    #[test]
    fn cached_equals_fresh(rows in arb_rows()) {
        let t = table_of(&rows);
        let sp = space();
        let fresh = ViolationIndex::build(&t, &sp);
        let cache = PartitionCache::new(&t);
        let cached = ViolationIndex::build_with(&t, &sp, &cache);
        assert_indexes_equal(&fresh, &cached);
        // Rebuild against the now-warm cache: still identical.
        let warm = ViolationIndex::build_with(&t, &sp, &cache);
        assert_indexes_equal(&fresh, &warm);
    }

    /// The O(|sample|) subsample restriction equals building from scratch
    /// over the materialized subset table.
    #[test]
    fn subsample_equals_subset_build(rows in arb_rows(),
                                     picks in proptest::collection::vec(0usize..64, 0..24)) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let sample = sample_from(&picks, t.nrows());
        let restricted = ViolationIndex::build_subsample(&t, &sp, &cache, &sample);
        let direct = ViolationIndex::build(&t.subset(&sample), &sp);
        assert_indexes_equal(&restricted, &direct);
    }

    /// Growing a subsample incrementally in arbitrary batches equals a
    /// fresh subsample build over the cumulative rows at every step.
    #[test]
    fn incremental_growth_equals_fresh(rows in arb_rows(),
                                       batches in proptest::collection::vec(
                                           proptest::collection::vec(0usize..64, 0..8), 0..5)) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let mut inc = SubsampleIndex::new(&t, &sp);
        let mut cumulative: Vec<usize> = Vec::new();
        for batch in &batches {
            if t.nrows() == 0 {
                break;
            }
            let mapped: Vec<usize> = batch.iter().map(|&p| p % t.nrows()).collect();
            for &r in &mapped {
                if !cumulative.contains(&r) {
                    cumulative.push(r);
                }
            }
            inc.grow(&t, &cache, &mapped);
            prop_assert_eq!(inc.rows(), &cumulative[..]);
            let fresh = ViolationIndex::build_subsample(&t, &sp, &cache, &cumulative);
            assert_indexes_equal(inc.index(), &fresh);
        }
    }

    /// Brute-force anchor: cached flags and stats match pair enumeration.
    #[test]
    fn cached_flags_match_bruteforce(rows in arb_rows()) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let idx = ViolationIndex::build_with(&t, &sp, &cache);
        for (fi, fd) in sp.iter() {
            let mut viol = 0u64;
            let mut risk = 0u64;
            for a in 0..t.nrows() {
                let mut violates = false;
                let mut relevant = false;
                for b in 0..t.nrows() {
                    if a == b {
                        continue;
                    }
                    match pair_relation(&t, &fd, a, b) {
                        PairRelation::Violates => {
                            violates = true;
                            relevant = true;
                        }
                        PairRelation::Satisfies => relevant = true,
                        PairRelation::Irrelevant => {}
                    }
                }
                prop_assert_eq!(idx.tuple_violates(fi, a), violates);
                prop_assert_eq!(idx.tuple_relevant(fi, a), relevant);
                for b in (a + 1)..t.nrows() {
                    match pair_relation(&t, &fd, a, b) {
                        PairRelation::Violates => {
                            viol += 1;
                            risk += 1;
                        }
                        PairRelation::Satisfies => risk += 1,
                        PairRelation::Irrelevant => {}
                    }
                }
            }
            prop_assert_eq!(idx.g1(fi).violating_pairs, viol);
            prop_assert_eq!(idx.g1(fi).lhs_pairs, risk);
        }
    }
}
