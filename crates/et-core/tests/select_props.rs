//! Property tests pinning pair selection after the bounded-top-k and
//! delta-rescoring rewrite:
//!
//! * [`top_k_indices`] (the bounded heap) must equal the historical
//!   full-sort selection for arbitrary score vectors, including NaN,
//!   infinities and signed zeros;
//! * every [`StrategyKind`] must pick the same pool ids — and consume the
//!   same RNG draws — whether it scores through a cold [`DeltaScorer`]
//!   (one plain full fold of the [`et_fd::RelationMatrix`]) or through a warm
//!   one that re-folds only a delta, so the cache can never change a
//!   session's trajectory.

#![expect(
    clippy::indexing_slicing,
    reason = "sort keys are positions 0..scores.len()"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "test fixtures cast small indices and sizes"
)]

use std::cell::RefCell;
use std::sync::Arc;

use proptest::prelude::*;

use et_belief::{Belief, Beta};
use et_core::{top_k_indices, CandidatePool, ResponseStrategy, ScoreCtx, StrategyKind};
use et_data::{Schema, Table};
use et_fd::{DeltaScorer, DetectParams, Fd, HypothesisSpace, PartitionCache, ViolationIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_rows() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 4..32)
}

fn table_of(rows: &[(u8, u8, u8)]) -> Table {
    let mut b = Table::builder(Schema::new(["x", "y", "a"]));
    for (x, y, a) in rows {
        b.push_row(&[format!("x{x}"), format!("y{y}"), format!("a{a}")]);
    }
    b.finish()
}

fn space() -> Arc<HypothesisSpace> {
    Arc::new(HypothesisSpace::from_fds([
        Fd::from_attrs([0], 2),
        Fd::from_attrs([0], 1),
        Fd::from_attrs([0, 1], 2),
        Fd::from_attrs([1], 0),
        Fd::from_attrs([1, 2], 0),
    ]))
}

const ALL_KINDS: [StrategyKind; 8] = [
    StrategyKind::Random,
    StrategyKind::UncertaintySampling,
    StrategyKind::StochasticBestResponse,
    StrategyKind::StochasticUncertainty,
    StrategyKind::Best,
    StrategyKind::ThompsonSampling,
    StrategyKind::CommitteeDisagreement,
    StrategyKind::DensityWeightedUncertainty,
];

/// One arbitrary score, biased toward finite values (repeated arms — the
/// shim's `prop_oneof!` is uniform) but covering the whole total_cmp
/// order: NaN, infinities and both signed zeros.
fn arb_score() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
    ]
}

/// The pre-heap selection: sort every index by (score desc, index asc)
/// and truncate — the behaviour `top_k_indices` replaced.
fn sort_top_k(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&i, &j| scores[j].total_cmp(&scores[i]).then(i.cmp(&j)));
    idx.truncate(k.min(scores.len()));
    idx
}

proptest! {
    /// The bounded heap equals the full sort for every score vector and
    /// every k, including k = 0 and k beyond the vector length.
    #[test]
    fn heap_top_k_equals_full_sort(
        scores in proptest::collection::vec(arb_score(), 0..64),
        k in 0usize..70,
    ) {
        prop_assert_eq!(top_k_indices(&scores, k), sort_top_k(&scores, k));
    }

    /// Every strategy kind selects the same pool ids — consuming identical
    /// RNG draws — through a cold [`DeltaScorer`] (a plain full matrix
    /// fold) and through a warm one, and reports the same policy entropy.
    /// The warm scorer is pre-driven through a nudged confidence so the
    /// measured call takes the delta path; `shown_mask` retires some pool
    /// ids first, so the candidate list has gaps.
    #[test]
    fn scorer_attached_select_equals_plain_matrix(
        rows in arb_rows(),
        a in 0.6f64..8.0,
        b in 0.6f64..8.0,
        seed in any::<u64>(),
        k in 1usize..6,
        shown_mask in any::<u64>(),
    ) {
        let t = table_of(&rows);
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pool = CandidatePool::build(&t, &sp, 200, 1);
        let ids: Vec<u32> = (0..pool.len() as u32)
            .filter(|&id| shown_mask >> (id % 64) & 1 == 0 || id % 3 == 0)
            .collect();
        prop_assume!(!ids.is_empty());
        let m = Arc::new(pool.relation_matrix(&t, &sp, &cache));
        let index = ViolationIndex::build_with(&t, &sp, &cache);
        let belief = Belief::constant(sp.clone(), Beta::new(a, b));

        let cold = RefCell::new(DeltaScorer::new(Arc::clone(&m)));
        let warm = RefCell::new(DeltaScorer::new(Arc::clone(&m)));
        {
            // Warm both parameterisations with a nudged confidence vector:
            // the selects below then hit existing slots and re-fold only
            // the factor diff.
            let mut nudged = belief.confidences();
            nudged[0] = (nudged[0] * 0.5 + 0.1).min(1.0);
            let mut s = warm.borrow_mut();
            let _ = s.scores_for(&ids, &nudged, &DetectParams::unsmoothed());
            let _ = s.scores_for(&ids, &nudged, &DetectParams::default());
        }

        for kind in ALL_KINDS {
            let strategy = ResponseStrategy::paper(kind);
            // A fresh cold scorer per kind: every measured call on this
            // side is a full fold.
            *cold.borrow_mut() = DeltaScorer::new(Arc::clone(&m));
            let plain_ctx = ScoreCtx { index: &index, scorer: &cold };
            let scorer_ctx = ScoreCtx { index: &index, scorer: &warm };

            let mut rng_plain = StdRng::seed_from_u64(seed);
            let mut rng_scorer = StdRng::seed_from_u64(seed);
            let plain = strategy.select_round(plain_ctx, &belief, &ids, k, &mut rng_plain);
            let scored = strategy.select_round(scorer_ctx, &belief, &ids, k, &mut rng_scorer);
            prop_assert_eq!(&plain.picks, &scored.picks,
                "{}: selections diverged with scorer attached", kind.as_str());
            // Same residual RNG state: neither path may consume extra draws.
            prop_assert_eq!(rng_plain.state(), rng_scorer.state(),
                "{}: RNG draw streams diverged", kind.as_str());
            prop_assert_eq!(plain.h_policy.to_bits(), scored.h_policy.to_bits(),
                "{}: policy entropy diverged", kind.as_str());
            prop_assert!(plain.picks.iter().all(|id| ids.contains(id)),
                "{}: picked a retired id", kind.as_str());
        }
    }
}
