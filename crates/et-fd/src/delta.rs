//! Session-lifetime delta-rescoring cache over a [`RelationMatrix`].
//!
//! A round's belief update nudges a handful of FD confidences, yet a full
//! rescore re-folds every candidate pair from scratch each round. A
//! [`DeltaScorer`] keeps the last [`PairScores`] per [`DetectParams`]
//! together with the exact factor vector that produced them; a rescore
//! request diffs the new factors against the cached ones
//! ([`RelationMatrix::changed_factor_mask`]) and re-folds only the *live*
//! pairs (the ids the caller still reads) whose packed relation words
//! intersect the changed-FD mask ([`RelationMatrix::rescore_delta`]).
//!
//! # The delta invariant, over live ids
//!
//! For every warm slot, `slot.factors` is bit-for-bit the factor vector
//! under which the slot's live entries were last computed, and the cached
//! score of every *live* id equals a full pass. A pair's noisy-OR score
//! depends only on the factors of the FDs it violates, so any live pair
//! whose violates words miss the changed mask would re-fold to the value
//! it already holds — the skip is bit-exact by construction, not by
//! epsilon. An identical request (same confidences, same params) diffs to
//! an empty mask and returns the cached scores untouched.
//!
//! Retired ids may hold stale values and are never read. This holds as
//! long as each request's live list is a subset of every earlier one's:
//! an id live now was live at every earlier request, so it was re-folded
//! whenever one of its FDs changed. A session's candidate list only
//! shrinks (retiring picks is its one mutation), and recovery or a pool
//! swap builds a new cold scorer.
//!
//! The cache never persists: it is rebuilt lazily after recovery, and
//! because the served scores are bit-identical to the full pass, recovered
//! sessions replay the same trajectories.

use std::sync::Arc;

use crate::detect::DetectParams;
use crate::relmatrix::{violation_factors_into, PairScores, RelationMatrix};

/// Slots kept per scorer: the strategies use at most two
/// parameterisations (raw and smoothed); a couple spare slots absorb
/// ablation configs without unbounded growth.
const MAX_SLOTS: usize = 4;

/// One cached parameterisation: the scores and the factor vector they
/// were computed under.
#[derive(Debug, Clone)]
struct Slot {
    params: DetectParams,
    factors: Vec<f64>,
    scores: PairScores,
}

/// Per-session delta-rescoring cache: owns its [`RelationMatrix`] handle,
/// a bounded set of per-[`DetectParams`] score slots, and the scratch the
/// delta path needs (new-factor buffer, changed-FD mask) so steady-state
/// rescores allocate nothing.
#[derive(Debug, Clone)]
pub struct DeltaScorer {
    matrix: Arc<RelationMatrix>,
    slots: Vec<Slot>,
    scratch_factors: Vec<f64>,
    changed: Vec<u64>,
}

impl DeltaScorer {
    /// A cold scorer over `matrix`: every parameterisation's first request
    /// pays one full [`RelationMatrix::score_all_into`] pass.
    pub fn new(matrix: Arc<RelationMatrix>) -> Self {
        let n_fds = matrix.n_fds();
        let width = matrix.words_per_pair();
        Self {
            matrix,
            slots: Vec::with_capacity(MAX_SLOTS),
            scratch_factors: vec![0.0; n_fds],
            changed: vec![0; width],
        }
    }

    /// The matrix this scorer caches over.
    pub fn matrix(&self) -> &RelationMatrix {
        &self.matrix
    }

    /// Batch scores for `confidences` under `params`: for every id of
    /// `live`, `dirty[id]` is bit-identical to
    /// `self.matrix().score_all(confidences, params).dirty[id]`. Slots of
    /// other ids may be stale and must not be read.
    ///
    /// `live` must be a subset of the `live` list of every earlier request
    /// to this scorer (the module's delta invariant). Warm slots re-fold
    /// only the live pairs violating an FD whose factor changed since the
    /// previous request; an unchanged request returns the cached scores
    /// without touching a pair. Cold slots (first request for a
    /// parameterisation) run the full pass once; at most `MAX_SLOTS`
    /// parameterisations are retained, evicting the oldest.
    ///
    /// # Panics
    /// Panics when `confidences` does not have one entry per FD of the
    /// underlying matrix, or a live id is out of range.
    pub fn scores_for(
        &mut self,
        live: &[u32],
        confidences: &[f64],
        params: &DetectParams,
    ) -> &PairScores {
        violation_factors_into(confidences, params, &mut self.scratch_factors);
        if let Some(i) = self.slots.iter().position(|s| s.params == *params) {
            let slot = &mut self.slots[i];
            let any = self.matrix.changed_factor_mask(
                &slot.factors,
                &self.scratch_factors,
                &mut self.changed,
            );
            if any {
                self.matrix.rescore_delta(
                    live,
                    &self.scratch_factors,
                    params,
                    &self.changed,
                    &mut slot.scores,
                );
                slot.factors.copy_from_slice(&self.scratch_factors);
            }
            return &self.slots[i].scores;
        }
        // Cold slot: one full pass, then cached. Bounded allocation — at
        // most MAX_SLOTS slots per scorer lifetime at any moment.
        if self.slots.len() == MAX_SLOTS {
            self.slots.remove(0);
        }
        let mut factors = vec![0.0; self.matrix.n_fds()];
        let mut scores = PairScores::zeroed(self.matrix.n_pairs());
        self.matrix
            .score_all_into(confidences, params, &mut factors, &mut scores);
        self.slots.push(Slot {
            params: *params,
            factors,
            scores,
        });
        // Index, not `last()`: the push above makes the slot list non-empty
        // and keeps this branch free of unwrap/expect.
        &self.slots[self.slots.len() - 1].scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PartitionCache;
    use crate::fd::Fd;
    use crate::space::HypothesisSpace;
    use et_data::table::paper_table1;

    fn scorer() -> (DeltaScorer, Arc<RelationMatrix>, usize) {
        let t = paper_table1();
        let sp = HypothesisSpace::from_fds([Fd::from_attrs([1], 2), Fd::from_attrs([2, 3], 4)]);
        let cache = PartitionCache::new(&t);
        let mut pairs = Vec::new();
        for a in 0..t.nrows() {
            for b in (a + 1)..t.nrows() {
                pairs.push((a, b));
            }
        }
        let m = Arc::new(RelationMatrix::build(&t, &sp, &cache, &pairs));
        let n_fds = sp.len();
        (DeltaScorer::new(Arc::clone(&m)), m, n_fds)
    }

    /// The live entries of `got` equal a full pass, bit for bit.
    fn live_bits_equal(got: &PairScores, want: &PairScores, live: &[u32]) -> bool {
        live.iter()
            .all(|&id| got.dirty[id as usize].to_bits() == want.dirty[id as usize].to_bits())
    }

    #[test]
    fn matches_full_rescore_across_drifting_confidences() {
        let (mut ds, m, n_fds) = scorer();
        let mut conf = vec![0.9; n_fds];
        // The live list shrinks by one id a round, from the back and the
        // front in turn, as retired picks would.
        let mut live: Vec<u32> = (0..m.n_pairs() as u32).collect();
        for round in 0..8 {
            conf[round % n_fds] = 0.1 + 0.8 * ((round as f64) / 8.0);
            for params in [DetectParams::unsmoothed(), DetectParams::default()] {
                let want = m.score_all(&conf, &params);
                let got = ds.scores_for(&live, &conf, &params).clone();
                assert!(live_bits_equal(&got, &want, &live), "round {round}");
                // Second identical request: served from cache, still equal.
                let again = ds.scores_for(&live, &conf, &params);
                assert!(live_bits_equal(again, &want, &live), "round {round}");
            }
            if round % 2 == 0 {
                live.pop();
            } else {
                live.remove(0);
            }
        }
    }

    #[test]
    fn slot_eviction_keeps_answers_correct() {
        let (mut ds, m, n_fds) = scorer();
        let conf = vec![0.7; n_fds];
        let live: Vec<u32> = (0..m.n_pairs() as u32).collect();
        // More parameterisations than slots: the oldest is evicted, and a
        // re-request simply recomputes from cold.
        let params: Vec<DetectParams> = (0..6)
            .map(|i| DetectParams {
                base_rate: f64::from(i) * 0.05,
                ..DetectParams::default()
            })
            .collect();
        for p in &params {
            assert_eq!(ds.scores_for(&live, &conf, p), &m.score_all(&conf, p));
        }
        for p in &params {
            assert_eq!(ds.scores_for(&live, &conf, p), &m.score_all(&conf, p));
        }
    }
}
