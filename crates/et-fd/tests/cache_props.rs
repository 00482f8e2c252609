//! Property tests pinning the partition-cache substrate to the legacy
//! semantics: cached and subsample index builds must be *exactly* equal —
//! same `G1` integer statistics, same `violates`/`relevant`/`minority`
//! flags — to a fresh build, and every build's flags and tuple
//! probabilities must equal the FD-major oracle below bit for bit.

#![expect(
    clippy::indexing_slicing,
    reason = "the oracle's per-FD row tables are sized from the same table and space they are compared against"
)]

use std::collections::BTreeMap;

use proptest::prelude::*;

use et_data::{Schema, Table};
use et_fd::{
    pair_relation, predict_labels, tuple_dirty_prob_with, DetectParams, Fd, HypothesisSpace,
    Indicator, PairRelation, PartitionCache, ViolationIndex,
};

/// The per-tuple flags as the index stored them before the packed codes:
/// three FD-major `Vec<Vec<bool>>` columns, built from a fresh `group_by`
/// per FD, and the per-FD noisy-OR fold that evaluated the indicator once
/// per violated (row, FD).
struct FdMajorOracle {
    violates: Vec<Vec<bool>>,
    relevant: Vec<Vec<bool>>,
    minority: Vec<Vec<bool>>,
}

impl FdMajorOracle {
    fn build(table: &Table, space: &HypothesisSpace) -> Self {
        let n = table.nrows();
        let mut out = Self {
            violates: vec![vec![false; n]; space.len()],
            relevant: vec![vec![false; n]; space.len()],
            minority: vec![vec![false; n]; space.len()],
        };
        for (fi, fd) in space.iter() {
            for group in &table.group_by(&fd.lhs_vec()).groups {
                if group.len() < 2 {
                    continue;
                }
                let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
                for &r in group {
                    *counts.entry(table.sym(r as usize, fd.rhs)).or_default() += 1;
                }
                let mixed = counts.len() > 1;
                let max_count = counts.values().copied().max().unwrap_or(0);
                let max_ties = counts.values().filter(|&&c| c == max_count).count();
                for &r in group {
                    let r = r as usize;
                    out.relevant[fi][r] = true;
                    if mixed {
                        out.violates[fi][r] = true;
                        let bucket = counts[&table.sym(r, fd.rhs)];
                        if bucket < max_count || max_ties > 1 {
                            out.minority[fi][r] = true;
                        }
                    }
                }
            }
        }
        out
    }

    fn dirty_prob(&self, confidences: &[f64], row: usize, params: &DetectParams) -> f64 {
        let mut keep_clean = 1.0 - params.base_rate;
        for (fi, &c) in confidences.iter().enumerate() {
            if self.minority[fi][row] {
                keep_clean *= 1.0 - params.indicator.apply(c);
            }
        }
        1.0 - keep_clean
    }
}

/// Arbitrary small tables over five low-cardinality columns: enough to
/// produce singleton, clean and mixed LHS groups under every determinant.
fn arb_rows() -> impl Strategy<Value = Vec<[u8; 5]>> {
    proptest::collection::vec(
        ((0u8..4, 0u8..3, 0u8..3), (0u8..3, 0u8..2))
            .prop_map(|((x, y, a), (b, c))| [x, y, a, b, c]),
        0..48,
    )
}

fn table_of(rows: &[[u8; 5]]) -> Table {
    let mut b = Table::builder(Schema::new(["x", "y", "a", "b", "c"]));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{}{v}", ["x", "y", "a", "b", "c"][i]))
            .collect();
        b.push_row(&cells);
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

/// Spaces from the five-FD one above up to all 70 FDs of at most four
/// attributes over five columns: many span two packed words per row, and
/// the word boundary at FD 32 falls anywhere in the determinant order.
fn arb_space() -> impl Strategy<Value = HypothesisSpace> {
    let lattice = HypothesisSpace::enumerate(5, 4).fds().to_vec();
    prop_oneof![
        Just(space()),
        Just(HypothesisSpace::enumerate(5, 3)),
        proptest::collection::vec(0u8..2, 70).prop_map(move |keep| {
            let picked = lattice.iter().zip(&keep).filter(|&(_, &k)| k == 1);
            let fds: Vec<Fd> = picked.map(|(&fd, _)| fd).collect();
            HypothesisSpace::from_fds(if fds.is_empty() {
                vec![lattice[0]]
            } else {
                fds
            })
        }),
    ]
}

/// Detection parameters over both indicator kinds, with confidences drawn
/// for up to 70 FDs (callers take one per FD of their space).
fn arb_detect() -> impl Strategy<Value = (DetectParams, Vec<f64>)> {
    let indicator = prop_oneof![
        Just(Indicator::Linear),
        (0.3f64..0.95, 0.01f64..0.2).prop_map(|(pivot, slope)| Indicator::Sigmoid { pivot, slope }),
    ];
    (
        indicator,
        0.0f64..0.3,
        proptest::collection::vec(0.0f64..=1.0, 70),
    )
        .prop_map(|(indicator, base_rate, confs)| {
            (
                DetectParams {
                    base_rate,
                    indicator,
                },
                confs,
            )
        })
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

/// `idx` (over `table`'s rows, in order) against the FD-major oracle: the
/// three accessors, every tuple probability to the bit under `detect`, and
/// `predict_labels` against the oracle probabilities under its default
/// parameters.
fn assert_matches_oracle(
    idx: &ViolationIndex,
    table: &Table,
    space: &HypothesisSpace,
    detect: &(DetectParams, Vec<f64>),
) {
    let oracle = FdMajorOracle::build(table, space);
    assert_eq!(idx.n_rows(), table.nrows());
    for fi in 0..space.len() {
        for row in 0..table.nrows() {
            assert_eq!(idx.tuple_violates(fi, row), oracle.violates[fi][row]);
            assert_eq!(idx.tuple_relevant(fi, row), oracle.relevant[fi][row]);
            assert_eq!(idx.tuple_minority(fi, row), oracle.minority[fi][row]);
        }
    }
    let (params, confs) = detect;
    let confs = &confs[..space.len()];
    let rows: Vec<usize> = (0..table.nrows()).collect();
    for &row in &rows {
        assert_eq!(
            tuple_dirty_prob_with(idx, confs, row, params).to_bits(),
            oracle.dirty_prob(confs, row, params).to_bits(),
            "row {row}"
        );
    }
    let defaults = DetectParams::default();
    let expect: Vec<bool> = rows
        .iter()
        .map(|&r| oracle.dirty_prob(confs, r, &defaults) > 0.5)
        .collect();
    assert_eq!(predict_labels(idx, confs, &rows), expect);
    // Any row order, repeats included.
    let reversed: Vec<usize> = rows.iter().rev().chain(&rows).copied().collect();
    let expect: Vec<bool> = reversed
        .iter()
        .map(|&r| oracle.dirty_prob(confs, r, &defaults) > 0.5)
        .collect();
    assert_eq!(predict_labels(idx, confs, &reversed), expect);
}

proptest! {
    /// Cached builds equal the fresh build, and both equal the oracle.
    #[test]
    fn cached_equals_fresh(rows in arb_rows(), sp in arb_space(), detect in arb_detect()) {
        let t = table_of(&rows);
        let fresh = ViolationIndex::build(&t, &sp);
        assert_matches_oracle(&fresh, &t, &sp, &detect);
        let cache = PartitionCache::new(&t);
        let cached = ViolationIndex::build_with(&t, &sp, &cache);
        assert_indexes_equal(&fresh, &cached);
        // Rebuild against the now-warm cache: still identical.
        let warm = ViolationIndex::build_with(&t, &sp, &cache);
        assert_indexes_equal(&fresh, &warm);
    }

    /// The O(|sample|) subsample restriction equals building from scratch
    /// over the materialized subset table, and the oracle over that table.
    #[test]
    fn subsample_equals_subset_build(rows in arb_rows(),
                                     picks in proptest::collection::vec(0usize..64, 0..24),
                                     sp in arb_space(),
                                     detect in arb_detect()) {
        let t = table_of(&rows);
        let cache = PartitionCache::new(&t);
        let sample = sample_from(&picks, t.nrows());
        let restricted = ViolationIndex::build_subsample(&t, &sp, &cache, &sample);
        let subset = t.subset(&sample);
        let direct = ViolationIndex::build(&subset, &sp);
        assert_indexes_equal(&restricted, &direct);
        assert_matches_oracle(&restricted, &subset, &sp, &detect);
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
