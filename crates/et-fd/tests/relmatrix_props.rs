//! Property tests pinning the [`RelationMatrix`] scoring substrate to the
//! per-pair reference path: packed relations must equal the raw-cell
//! [`pair_relation`] brute force, batch `score_all` must be bit-for-bit
//! equal to the `pair_dirty_probs_with` scan (and so its `binary_entropy`
//! too), and delta rescoring over live ids must equal a full pass on every
//! live id.

#![expect(
    clippy::indexing_slicing,
    reason = "each step holds one entry per FD of conf"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "test fixtures cast small indices and sizes"
)]

use std::sync::Arc;

use proptest::prelude::*;

use et_data::{Schema, Table};
use et_fd::{
    binary_entropy, pair_dirty_probs_with, pair_relation, violation_factors, DeltaScorer,
    DetectParams, Fd, HypothesisSpace, PairScores, PartitionCache, RelationMatrix,
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

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            out.push((a, b));
        }
    }
    out
}

/// A confidence vector of the space's width from arbitrary bytes.
fn arb_confidences() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u8..=255, 5)
        .prop_map(|bytes| bytes.into_iter().map(|b| f64::from(b) / 255.0).collect())
}

/// A sequence of `steps` sparse confidence updates: each step optionally
/// replaces some FDs' confidences (`(true, v)`) and leaves the rest
/// untouched — the shapes a labeling session produces (empty diffs,
/// single-FD nudges, wide jumps).
fn arb_update_seq(steps: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u8..=255), 5),
        steps,
    )
}

/// Applies one update step to `conf`.
fn apply_step(conf: &mut [f64], step: Vec<(bool, u8)>) {
    for (fi, (touch, b)) in step.into_iter().enumerate() {
        if touch {
            conf[fi] = f64::from(b) / 255.0;
        }
    }
}

proptest! {
    /// Every stored relation equals the raw-cell brute force, for every
    /// pair and FD; `violated_indices` and `relevant_count` agree with the
    /// per-FD scan.
    #[test]
    fn relations_equal_brute_force(rows in arb_rows()) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        prop_assert_eq!(m.n_pairs(), pairs.len());
        prop_assert_eq!(m.n_fds(), sp.len());
        for (pid, &(a, b)) in pairs.iter().enumerate() {
            let mut violated = Vec::new();
            let mut relevant = 0usize;
            for (fi, fd) in sp.iter() {
                let want = pair_relation(&t, &fd, a, b);
                prop_assert_eq!(m.relation(pid, fi), want, "pair ({},{}) fd {}", a, b, fi);
                if want == et_fd::PairRelation::Violates {
                    violated.push(fi);
                }
                if want != et_fd::PairRelation::Irrelevant {
                    relevant += 1;
                }
            }
            prop_assert_eq!(m.violated_indices(pid).collect::<Vec<_>>(), violated);
            prop_assert_eq!(m.relevant_count(pid), relevant);
        }
    }

    /// Batch `score_all` is bit-for-bit equal to the per-pair reference
    /// path, for both parameterisations the strategies use (raw and
    /// smoothed) under arbitrary confidence vectors.
    #[test]
    fn score_all_equals_reference(rows in arb_rows(), conf in arb_confidences()) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        for params in [DetectParams::unsmoothed(), DetectParams::default()] {
            let scores = m.score_all(&conf, &params);
            let factors = violation_factors(&conf, &params);
            for (pid, &(a, b)) in pairs.iter().enumerate() {
                let (pa, pb) = pair_dirty_probs_with(&t, &sp, &conf, a, b, &params);
                // The pair's two tuples share one probability by definition.
                prop_assert_eq!(pa.to_bits(), pb.to_bits());
                prop_assert_eq!(scores.dirty[pid].to_bits(), pa.to_bits(),
                    "dirty prob diverged for pair ({},{})", a, b);
                prop_assert_eq!(
                    binary_entropy(scores.dirty[pid]).to_bits(),
                    binary_entropy(pa).to_bits()
                );
                prop_assert_eq!(
                    m.dirty_prob_with_factors(pid, &factors, &params).to_bits(),
                    pa.to_bits()
                );
            }
        }
    }

    /// A [`DeltaScorer`] driven through an arbitrary sequence of sparse
    /// confidence updates stays bit-for-bit equal to a fresh full rescore
    /// at every step, for both parameterisations the strategies use
    /// (exercising slot reuse, empty diffs, single-FD nudges and wide
    /// jumps in one run).
    #[test]
    fn delta_scorer_equals_full_rescore(rows in arb_rows(), updates in arb_update_seq(1..8)) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = Arc::new(RelationMatrix::build(&t, &sp, &cache, &pairs));
        let mut delta = DeltaScorer::new(Arc::clone(&m));
        let all: Vec<u32> = (0..pairs.len() as u32).collect();
        let mut conf = vec![0.5; sp.len()];
        for step in updates {
            apply_step(&mut conf, step);
            for params in [DetectParams::unsmoothed(), DetectParams::default()] {
                let want = m.score_all(&conf, &params);
                let got = delta.scores_for(&all, &conf, &params);
                for pid in 0..pairs.len() {
                    prop_assert_eq!(got.dirty[pid].to_bits(), want.dirty[pid].to_bits(),
                        "dirty diverged at pair {}", pid);
                    prop_assert_eq!(
                        binary_entropy(got.dirty[pid]).to_bits(),
                        binary_entropy(want.dirty[pid]).to_bits(),
                        "entropy diverged at pair {}", pid);
                }
            }
        }
    }

    /// Live-id delta rescoring: a [`DeltaScorer`] asked only about a
    /// shrinking live list — a random pool, random ids retired `k` at a
    /// time — keeps every live id bit-equal to a full rescore under
    /// drifting confidences, for both parameterisations, and never writes
    /// a retired id's slot again.
    #[test]
    fn delta_scorer_over_shrinking_live_ids(
        rows in arb_rows(),
        pool_keep in proptest::collection::vec(any::<bool>(), 1128),
        retire in proptest::collection::vec(any::<u16>(), 1..64),
        k in 1usize..6,
        updates in arb_update_seq(1..24),
    ) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        // C(48, 2) = 1128 pairs at most: one keep flag per pair.
        let pool: Vec<(usize, usize)> = all_pairs(t.nrows())
            .into_iter()
            .zip(&pool_keep)
            .filter(|&(_, &keep)| keep)
            .map(|(p, _)| p)
            .collect();
        let m = Arc::new(RelationMatrix::build(&t, &sp, &cache, &pool));
        let mut delta = DeltaScorer::new(Arc::clone(&m));
        let mut live: Vec<u32> = (0..pool.len() as u32).collect();
        let mut picks = retire.iter().cycle();
        // (params slot, id, bits at retirement) of every retired id.
        let mut frozen: Vec<(usize, u32, u64)> = Vec::new();
        let mut conf = vec![0.5; sp.len()];
        for step in updates {
            apply_step(&mut conf, step);
            let all_params = [DetectParams::unsmoothed(), DetectParams::default()];
            for (slot, params) in all_params.iter().enumerate() {
                let want = m.score_all(&conf, params);
                let got = delta.scores_for(&live, &conf, params);
                for &id in &live {
                    prop_assert_eq!(got.dirty[id as usize].to_bits(),
                        want.dirty[id as usize].to_bits(), "live pair {} diverged", id);
                }
                for &(s, id, bits) in &frozen {
                    if s == slot {
                        prop_assert_eq!(got.dirty[id as usize].to_bits(), bits,
                            "retired pair {} was rewritten", id);
                    }
                }
            }
            // Retire up to k ids (order-preserving, as a session does),
            // freezing the bits each slot held for them.
            for _ in 0..k.min(live.len()) {
                let pos = usize::from(*picks.next().expect("cycle")) % live.len();
                let id = live.remove(pos);
                for (slot, params) in [DetectParams::unsmoothed(), DetectParams::default()]
                    .iter()
                    .enumerate()
                {
                    let bits = delta.scores_for(&live, &conf, params).dirty[id as usize].to_bits();
                    frozen.push((slot, id, bits));
                }
            }
        }
    }

    /// `rescore_delta` under an adversarial mask: flagging a *superset* of
    /// the FDs that actually changed must still land exactly on the full
    /// rescore (extra mask bits only widen the refolded pair set), and the
    /// exact mask from `changed_factor_mask` must as well.
    #[test]
    fn rescore_delta_superset_mask_is_exact(
        rows in arb_rows(),
        old_conf in arb_confidences(),
        new_conf in arb_confidences(),
        extra in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        let params = DetectParams::unsmoothed();

        let mut old_factors = vec![0.0; sp.len()];
        let mut scores = PairScores::zeroed(pairs.len());
        m.score_all_into(&old_conf, &params, &mut old_factors, &mut scores);

        let mut new_factors = vec![0.0; sp.len()];
        let mut want = PairScores::zeroed(pairs.len());
        m.score_all_into(&new_conf, &params, &mut new_factors, &mut want);

        let mut mask = vec![0u64; m.words_per_pair()];
        let any = m.changed_factor_mask(&old_factors, &new_factors, &mut mask);
        prop_assert_eq!(any, mask.iter().any(|&w| w != 0));
        // Widen the mask with arbitrary extra FDs; correctness must hold.
        for (fi, e) in extra.into_iter().enumerate() {
            if e {
                mask[fi / 32] |= 0b10u64 << ((fi % 32) * 2);
            }
        }
        let all: Vec<u32> = (0..pairs.len() as u32).collect();
        let mut classes = vec![0.0; m.n_classes()];
        m.rescore_delta(&all, &new_factors, &params, &mask, &mut classes, &mut scores);
        for pid in 0..pairs.len() {
            prop_assert_eq!(scores.dirty[pid].to_bits(), want.dirty[pid].to_bits());
            prop_assert_eq!(
                binary_entropy(scores.dirty[pid]).to_bits(),
                binary_entropy(want.dirty[pid]).to_bits()
            );
        }
    }
}
