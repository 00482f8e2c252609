//! Property tests for violation classes: pairs that violate the same FDs
//! share one class, every pair of a class gets bit-equal `score_all`
//! scores, and the class-based delta path ([`DeltaScorer::scores_for`] and
//! its class-keyed view [`DeltaScorer::class_scores_for`]) equals a full
//! pass on every live id, over generated tables, spaces and pair lists.
//! Spaces reach past 32 FDs, so masks two words wide are covered.

#![expect(
    clippy::indexing_slicing,
    reason = "keep is non-empty when it is read (floor covers the empty case) and the lattice holds at least one FD"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "test fixtures cast small indices and sizes"
)]

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use et_data::{Schema, Table};
use et_fd::{
    ClassScores, DeltaScorer, DetectParams, HypothesisSpace, PartitionCache, RelationMatrix,
};

/// The most rows a generated table has.
const MAX_ROWS: usize = 40;

/// Rows over five low-cardinality columns.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..3, 5), 2..MAX_ROWS)
}

fn table_of(rows: &[Vec<u8>]) -> Table {
    let names = ["a", "b", "c", "d", "e"];
    let mut b = Table::builder(Schema::new(names));
    for row in rows {
        let cells: Vec<String> = names
            .iter()
            .zip(row)
            .map(|(n, v)| format!("{n}{v}"))
            .collect();
        b.push_row(&cells);
    }
    b.finish()
}

/// Every FD over the five columns with at most two LHS attributes.
fn lattice() -> HypothesisSpace {
    HypothesisSpace::enumerate(5, 3)
}

/// A space drawn from the lattice: the first `floor` FDs plus every FD
/// whose keep flag is set (at least one FD). A floor of 33 or more makes
/// the packed masks two words wide.
fn space_of(keep: &[bool], floor: usize) -> HypothesisSpace {
    let fds = lattice().fds().to_vec();
    let picked: Vec<_> = fds
        .iter()
        .enumerate()
        .filter(|&(i, _)| i < floor || keep[i % keep.len()])
        .map(|(_, &fd)| fd)
        .collect();
    if picked.is_empty() {
        HypothesisSpace::from_fds([fds[0]])
    } else {
        HypothesisSpace::from_fds(picked)
    }
}

fn arb_space() -> impl Strategy<Value = (Vec<bool>, usize)> {
    (
        proptest::collection::vec(any::<bool>(), 64),
        prop_oneof![Just(0usize), Just(33), Just(64)],
    )
}

/// Steps of sparse confidence updates, one `(touch, value)` per lattice FD.
fn arb_updates() -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u8..=255), 64),
        1..16,
    )
}

proptest! {
    #[test]
    fn classes_share_scores_and_the_class_delta_equals_a_full_pass(
        rows in arb_rows(),
        space_pick in arb_space(),
        pool_keep in proptest::collection::vec(any::<bool>(), MAX_ROWS * (MAX_ROWS - 1) / 2),
        retire in proptest::collection::vec(any::<u16>(), 1..32),
        k in 1usize..6,
        updates in arb_updates(),
    ) {
        let t = table_of(&rows);
        let (keep, floor) = space_pick;
        let sp = space_of(&keep, floor);
        let n_fds = sp.len();
        if floor >= 33 {
            prop_assert!(n_fds >= 33, "a two-word space");
        }
        let cache = PartitionCache::new(&t);
        let mut pool = Vec::new();
        for a in 0..t.nrows() {
            for b in a + 1..t.nrows() {
                pool.push((a, b));
            }
        }
        let pool: Vec<(usize, usize)> = pool
            .into_iter()
            .zip(&pool_keep)
            .filter(|&(_, &keep)| keep)
            .map(|(p, _)| p)
            .collect();
        let m = Arc::new(RelationMatrix::build(&t, &sp, &cache, &pool));

        // One class per distinct violated-FD list, ids dense.
        let ids = m.class_ids();
        let mut violated: Vec<Option<Vec<usize>>> = vec![None; m.n_classes()];
        for (pid, &c) in ids.iter().enumerate() {
            let mine: Vec<usize> = m.violated_indices(pid).collect();
            match &violated[c as usize] {
                None => violated[c as usize] = Some(mine),
                Some(first) => prop_assert_eq!(first, &mine, "pair {} in class {}", pid, c),
            }
        }
        prop_assert!(violated.iter().all(Option::is_some), "class ids are dense");
        let distinct: HashSet<&Vec<usize>> = violated.iter().flatten().collect();
        prop_assert_eq!(distinct.len(), m.n_classes());

        let mut delta = DeltaScorer::new(Arc::clone(&m));
        let mut live: Vec<u32> = (0..pool.len() as u32).collect();
        let mut picks = retire.iter().cycle();
        let mut conf = vec![0.5; n_fds];
        for step in updates {
            for (c, (touch, b)) in conf.iter_mut().zip(step) {
                if touch {
                    *c = f64::from(b) / 255.0;
                }
            }
            for params in [DetectParams::unsmoothed(), DetectParams::default()] {
                let want = m.score_all(&conf, &params);
                // Every pair of a class scores the same bits.
                let mut class_bits: Vec<Option<u64>> = vec![None; m.n_classes()];
                for (pid, &c) in ids.iter().enumerate() {
                    let bits = want.dirty[pid].to_bits();
                    match class_bits[c as usize] {
                        None => class_bits[c as usize] = Some(bits),
                        Some(first) => prop_assert_eq!(first, bits, "pair {} in class {}", pid, c),
                    }
                }
                let got = delta.scores_for(&live, &conf, &params);
                for &id in &live {
                    prop_assert_eq!(got.dirty[id as usize].to_bits(),
                        want.dirty[id as usize].to_bits(), "live pair {} diverged", id);
                }
                let ClassScores { keys, dirty, .. } = delta.class_scores_for(&live, &conf, &params);
                prop_assert_eq!(keys.len(), live.len());
                for (&id, &key) in live.iter().zip(keys) {
                    prop_assert_eq!(dirty[key as usize].to_bits(),
                        want.dirty[id as usize].to_bits(), "keyed pair {} diverged", id);
                }
            }
            // Retire up to k ids, order-preserving, as a session does.
            for _ in 0..k.min(live.len()) {
                let pos = usize::from(*picks.next().expect("cycle")) % live.len();
                live.remove(pos);
            }
        }
    }
}
