//! Property tests pinning [`CandidatePool::build_with`] (partition-cache
//! enumeration with the first-occurrence test) to the legacy
//! `table.group_by` scan deduplicated through a hash set: same pair
//! sequence, same reservoir draws, bit-identical pool — including under
//! reservoir pressure (small `max_pairs`), on spaces whose determinants
//! repeat, nest and overlap so that many pairs recur across LHS, and on
//! the generated tables and capped spaces a served session uses. Tables
//! are wide enough that classes fall on both sides of
//! [`WORD_PATH_MIN_ROWS`] and cross the 64- and 128-row word edges, so
//! both first-visit tests are pinned.

#![expect(
    clippy::indexing_slicing,
    reason = "fixtures index vectors built a few lines above from the same generated rows, groups and constant LHS table"
)]

use std::collections::HashSet;

use proptest::prelude::*;

use et_core::candidates::WORD_PATH_MIN_ROWS;
use et_core::{CandidatePool, PairExample};
use et_data::gen::DatasetName;
use et_data::{inject_errors, AttrId, InjectConfig, Schema, Table};
use et_fd::{AttrSet, Fd, HypothesisSpace, PartitionCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows whose `x` is drawn half the time from two values and half the
/// time from 254, so one table holds both big `x` classes and rows alone
/// under `x` (and so under `{x, y}`) that share a later determinant's
/// class of [`WORD_PATH_MIN_ROWS`] rows or more with many others.
fn arb_rows() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((prop_oneof![0u8..2, 2u8..=255], 0u8..3, 0u8..3), 1..160)
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
        Fd::from_attrs([0], 1),    // duplicate determinant {x}
        Fd::from_attrs([0, 1], 2), // multi-attribute LHS
        Fd::from_attrs([1], 0),
        Fd::from_attrs([1, 2], 0),
    ])
}

/// The pre-PR raw enumeration, reimplemented verbatim: `group_by` per
/// distinct LHS, skip singleton groups, reservoir-sample with the same
/// seeded RNG. [`CandidatePool::build_with`] must reproduce it exactly.
fn legacy_build(
    table: &Table,
    space: &HypothesisSpace,
    max_pairs: usize,
    seed: u64,
) -> Vec<PairExample> {
    let mut seen: HashSet<PairExample> = HashSet::new();
    let mut reservoir: Vec<PairExample> = Vec::new();
    let mut n_seen = 0usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b);
    for lhs in space.distinct_lhs() {
        let attrs: Vec<AttrId> = lhs.to_vec();
        let grouped = table.group_by(&attrs);
        for group in &grouped.groups {
            if group.len() < 2 {
                continue;
            }
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let p = PairExample::new(a as usize, b as usize);
                    if !seen.insert(p) {
                        continue;
                    }
                    n_seen += 1;
                    if reservoir.len() < max_pairs {
                        reservoir.push(p);
                    } else {
                        let j = rng.gen_range(0..n_seen);
                        if j < max_pairs {
                            reservoir[j] = p;
                        }
                    }
                }
            }
        }
    }
    reservoir.sort_unstable();
    reservoir
}

proptest! {
    /// Cache-backed enumeration is bit-identical to the legacy group_by
    /// scan, with and without reservoir pressure, for arbitrary seeds.
    #[test]
    fn build_with_equals_legacy(
        rows in arb_rows(),
        seed in 0u64..1024,
        cap in prop_oneof![Just(2usize), Just(5), Just(17), Just(10_000)],
    ) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let want = legacy_build(&t, &sp, cap, seed);
        let got = CandidatePool::build_with(&t, &sp, &cache, cap, seed);
        prop_assert_eq!(got.pairs(), want.as_slice());
        // The transient-cache convenience path too.
        let direct = CandidatePool::build(&t, &sp, cap, seed);
        prop_assert_eq!(direct.pairs(), want.as_slice());
    }
}

/// Caps below, at and just above the distinct-pair count `n`.
fn caps_around(n: usize) -> Vec<usize> {
    let mut caps = vec![1, n / 3, n.saturating_sub(1), n, n + 1, 10 * n + 7];
    caps.retain(|&c| c > 0);
    caps.dedup();
    caps
}

/// Asserts `build_with` equals the legacy scan at every cap around the
/// space's distinct-pair count, for one shared (warm) cache.
fn assert_pools_match(t: &Table, sp: &HypothesisSpace, seed: u64) -> Result<(), TestCaseError> {
    let distinct = legacy_build(t, sp, usize::MAX, seed).len();
    let cache = PartitionCache::new(t);
    for cap in caps_around(distinct) {
        let want = legacy_build(t, sp, cap, seed);
        let got = CandidatePool::build_with(t, sp, &cache, cap, seed);
        prop_assert_eq!(got.pairs(), want.as_slice(), "cap {}", cap);
    }
    Ok(())
}

/// A 4–5 attribute table of up to 320 rows over small alphabets, so most
/// rows share a class with many others under several determinants, and
/// single-attribute classes range from a few rows to the whole table.
fn arb_wide_table() -> impl Strategy<Value = Table> {
    (
        4usize..=5,
        1u8..6,
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 5), 1..320),
    )
        .prop_map(|(n_attrs, alphabet, rows)| {
            let names: Vec<String> = (0..n_attrs).map(|a| format!("c{a}")).collect();
            let mut b = Table::builder(Schema::new(names));
            for row in &rows {
                let cells: Vec<String> = row[..n_attrs]
                    .iter()
                    .enumerate()
                    .map(|(a, v)| format!("{a}:{}", v % alphabet))
                    .collect();
                b.push_row(&cells);
            }
            b.finish()
        })
}

/// A random space over the first four attributes whose determinants are
/// drawn from a family that repeats (the same LHS for several RHS), nests
/// (A inside AB inside ABC) and overlaps (AB and BC share B), in any order.
fn arb_overlapping_space() -> impl Strategy<Value = HypothesisSpace> {
    const LHS: [&[AttrId]; 8] = [
        &[0],
        &[0, 1],
        &[1],
        &[1, 2],
        &[0, 1, 2],
        &[2],
        &[0, 2],
        &[3],
    ];
    proptest::collection::vec((0..LHS.len(), 0u16..4), 1..12).prop_map(|picks| {
        let fds: Vec<Fd> = picks
            .into_iter()
            .filter_map(|(li, rhs)| {
                let lhs = AttrSet::from_attrs(LHS[li].iter().copied());
                (!lhs.contains(rhs)).then(|| Fd::new(lhs, rhs))
            })
            .collect();
        if fds.is_empty() {
            HypothesisSpace::from_fds([Fd::from_attrs([0], 1)])
        } else {
            HypothesisSpace::from_fds(fds)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First-occurrence enumeration equals the hash-set scan on wide
    /// tables and overlapping spaces, at caps below, at and above the
    /// distinct-pair count.
    #[test]
    fn build_with_equals_legacy_on_overlapping_spaces(
        t in arb_wide_table(),
        sp in arb_overlapping_space(),
        seed in 0u64..1024,
    ) {
        assert_pools_match(&t, &sp, seed)?;
    }
}

/// A served session's substrate: the generated table with injected errors
/// and the capped 20-FD space `et-serve` builds for it.
fn served_case(dataset: DatasetName, rows: usize, seed: u64) -> (Table, HypothesisSpace) {
    let mut ds = dataset.generate(rows, seed);
    let specs = ds.exact_fds.clone();
    let _ = inject_errors(
        &mut ds.table,
        &specs,
        &[],
        &InjectConfig::with_degree(0.10, seed ^ 0xBE),
    );
    let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
    let space = HypothesisSpace::capped(&ds.table, 3, 20, 3, &pinned);
    (ds.table, space)
}

#[test]
fn build_with_equals_legacy_on_hospital_300() -> Result<(), TestCaseError> {
    let (t, sp) = served_case(DatasetName::Hospital, 300, 5);
    assert_pools_match(&t, &sp, 5)
}

#[test]
fn build_with_equals_legacy_on_hospital_1000() -> Result<(), TestCaseError> {
    let (t, sp) = served_case(DatasetName::Hospital, 1000, 1001);
    assert_pools_match(&t, &sp, 1001)
}

/// Classes of exactly the sizes where the word-parallel test changes
/// shape: either side of the switch and of the 64- and 128-row word
/// edges. Column `x` makes one class per size; `y` and `z` split each
/// class into sub-classes with one-row leftovers, so the earlier
/// determinants both join and leave out pairs inside every class.
#[test]
fn build_with_equals_legacy_at_word_edges() -> Result<(), TestCaseError> {
    let sizes = [
        WORD_PATH_MIN_ROWS - 1,
        WORD_PATH_MIN_ROWS,
        63,
        64,
        65,
        127,
        128,
        129,
    ];
    let mut b = Table::builder(Schema::new(["x", "y", "z", "w"]));
    let mut row = 0usize;
    for (ci, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            b.push_row(&[
                format!("x{ci}"),
                format!("y{}", row % 7),
                format!("z{}", row * row % 11),
                format!("w{row}"),
            ]);
            row += 1;
        }
    }
    let t = b.finish();
    let sp = HypothesisSpace::from_fds([
        Fd::from_attrs([1], 3),
        Fd::from_attrs([2], 3),
        Fd::from_attrs([0], 3),
        Fd::from_attrs([1, 2], 3),
    ]);
    assert_pools_match(&t, &sp, 3)
}

#[test]
fn build_with_equals_legacy_on_omdb_160() -> Result<(), TestCaseError> {
    let (t, sp) = served_case(DatasetName::Omdb, 160, 7);
    assert_pools_match(&t, &sp, 7)
}
