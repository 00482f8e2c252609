//! Session-lifetime delta-rescoring cache over a [`RelationMatrix`].
//!
//! A round's belief update nudges a handful of FD confidences, yet a full
//! rescore re-folds every candidate pair from scratch each round. A
//! [`DeltaScorer`] keeps the last [`PairScores`] per [`DetectParams`]
//! together with the exact factor vector that produced them; a rescore
//! request diffs the new factors against the cached ones
//! ([`RelationMatrix::changed_factor_mask`]) and updates only the *live*
//! pairs (the ids the caller still reads) whose violated FDs meet the
//! changed-FD mask ([`RelationMatrix::rescore_delta`]).
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
//!
//! # Per class, then per id
//!
//! Pairs that violate the same FDs share every score (their violation
//! class, [`RelationMatrix::class_ids`]). The delta walk folds each class
//! that meets the changed-FD mask once, then visits the live ids and
//! copies the class value into every id whose class was re-folded: per id,
//! one class-id read, one mask test and at most one store.
//! [`DeltaScorer::class_scores_for`] hands a selection the same scores
//! keyed by class, so it can map each score once per class present.

#![expect(
    clippy::indexing_slicing,
    reason = "slot indices come from Iterator::position over the same slots vec on the lines above, and the post-push index is slots.len() - 1 of a vec that was just pushed to"
)]

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

/// Marks a class with no key yet in [`DeltaScorer::class_scores_for`].
const NO_KEY: u32 = u32::MAX;

/// A request's scores keyed by violation class
/// ([`DeltaScorer::class_scores_for`]): live id `live[i]` scores
/// `dirty[keys[i] as usize]`. All three slices are scorer-owned scratch
/// that the next request overwrites.
#[derive(Debug)]
pub struct ClassScores<'a> {
    /// One key per live id, in live order.
    pub keys: &'a [u32],
    /// One dirty probability per class present in the live list, in order
    /// of first appearance; the caller may rewrite it in place.
    pub dirty: &'a mut [f64],
    /// Free scratch for the caller, one slot per class present.
    pub spare: &'a mut [f64],
}

/// Per-session delta-rescoring cache: owns its [`RelationMatrix`] handle,
/// a bounded set of per-[`DetectParams`] score slots, and the scratch the
/// delta path and the class-keyed view need (new-factor buffer,
/// changed-FD mask, per-class values and keys) so steady-state rescores
/// and selections allocate nothing here.
#[derive(Debug, Clone)]
pub struct DeltaScorer {
    matrix: Arc<RelationMatrix>,
    slots: Vec<Slot>,
    scratch_factors: Vec<f64>,
    changed: Vec<u64>,
    /// Per-class fold scratch of [`RelationMatrix::rescore_delta`].
    class_dirty: Vec<f64>,
    /// [`DeltaScorer::class_scores_for`]: one key per live id, one value
    /// and one spare slot per class present, each class's key while a
    /// request is keyed ([`NO_KEY`] otherwise), and the classes keyed (to
    /// reset `key_of`).
    keys: Vec<u32>,
    values: Vec<f64>,
    spare: Vec<f64>,
    key_of: Vec<u32>,
    keyed: Vec<u32>,
}

impl DeltaScorer {
    /// A cold scorer over `matrix`: every parameterisation's first request
    /// pays one full [`RelationMatrix::score_all_into`] pass.
    pub fn new(matrix: Arc<RelationMatrix>) -> Self {
        let n_fds = matrix.n_fds();
        let width = matrix.words_per_pair();
        let n_classes = matrix.n_classes();
        Self {
            slots: Vec::with_capacity(MAX_SLOTS),
            scratch_factors: vec![0.0; n_fds],
            changed: vec![0; width],
            class_dirty: vec![0.0; n_classes],
            keys: Vec::with_capacity(matrix.n_pairs()),
            values: Vec::with_capacity(n_classes),
            spare: Vec::with_capacity(n_classes),
            key_of: vec![NO_KEY; n_classes],
            keyed: Vec::with_capacity(n_classes),
            matrix,
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
    /// each violation class that violates an FD whose factor changed since
    /// the previous request, once, and copy it into the live ids of the
    /// class; an unchanged request returns the cached scores without
    /// touching a pair. Cold slots (first request for a
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
        let slot = self.refresh(live, confidences, params);
        &self.slots[slot].scores
    }

    /// [`DeltaScorer::scores_for`] keyed by violation class: one key per
    /// id of `live` and one dirty probability per class present in
    /// `live`. `dirty[keys[i]]` is bit-identical to
    /// `scores_for(live, confidences, params).dirty[live[i]]`, so a caller
    /// can map each score once per class and read it per id.
    ///
    /// # Panics
    /// As [`DeltaScorer::scores_for`].
    pub fn class_scores_for(
        &mut self,
        live: &[u32],
        confidences: &[f64],
        params: &DetectParams,
    ) -> ClassScores<'_> {
        let slot = self.refresh(live, confidences, params);
        let dirty = &self.slots[slot].scores.dirty;
        let class_of = self.matrix.class_ids();
        self.keys.clear();
        self.keys.resize(live.len(), NO_KEY);
        self.values.clear();
        let mut n_keys = 0u32;
        for (out, &id) in self.keys.iter_mut().zip(live) {
            let c = class_of[id as usize];
            let key = &mut self.key_of[c as usize];
            if *key == NO_KEY {
                *key = n_keys;
                n_keys += 1;
                self.values.push(dirty[id as usize]);
                self.keyed.push(c);
            }
            *out = *key;
        }
        for &c in &self.keyed {
            self.key_of[c as usize] = NO_KEY;
        }
        self.keyed.clear();
        self.spare.clear();
        self.spare.resize(self.values.len(), 0.0);
        ClassScores {
            keys: &self.keys,
            dirty: &mut self.values,
            spare: &mut self.spare,
        }
    }

    /// Brings the slot for `params` up to date for `live` under
    /// `confidences` and returns its index (see [`DeltaScorer::scores_for`]).
    fn refresh(&mut self, live: &[u32], confidences: &[f64], params: &DetectParams) -> usize {
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
                    &mut self.class_dirty,
                    &mut slot.scores,
                );
                slot.factors.copy_from_slice(&self.scratch_factors);
            }
            return i;
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
        self.slots.len() - 1
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
    fn class_keys_read_the_live_scores() {
        let (mut ds, m, n_fds) = scorer();
        let mut conf = vec![0.6; n_fds];
        let mut live: Vec<u32> = (0..m.n_pairs() as u32).collect();
        for round in 0..4 {
            conf[round % n_fds] = 0.2 + 0.15 * round as f64;
            let params = DetectParams::unsmoothed();
            let want = m.score_all(&conf, &params);
            let ClassScores { keys, dirty, spare } = ds.class_scores_for(&live, &conf, &params);
            assert_eq!(keys.len(), live.len());
            assert_eq!(spare.len(), dirty.len());
            // One value per class present, keyed in order of first
            // appearance.
            let mut next = 0;
            for (&id, &key) in live.iter().zip(keys) {
                assert!(key <= next, "round {round}");
                next = next.max(key + 1);
                let got = dirty[key as usize];
                assert_eq!(got.to_bits(), want.dirty[id as usize].to_bits());
            }
            assert_eq!(dirty.len(), next as usize);
            live.remove(round % live.len());
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
