//! The round-invariant pair-relation matrix: precomputed, bit-packed
//! relations for batch strategy scoring.
//!
//! Every response strategy scores candidate pairs from the relation of each
//! pair to each FD of the hypothesis space — a quantity that depends only on
//! the (immutable) table, so it never changes within a session. The
//! per-call reference path ([`crate::detect::pair_dirty_probs_with`])
//! re-derives those relations from raw cells on every score: `O(rounds ×
//! candidates × |space| × |attrs|)` work. A [`RelationMatrix`] computes each
//! [`PairRelation`] exactly once and packs it into two bits, after which a
//! whole confidence-vector rescore is a linear pass over packed words.
//!
//! # Layout
//!
//! Relations are stored row-major per pair, 32 FDs per `u64` word. FD `fi`
//! of pair `pid` occupies bits `2·(fi mod 32) .. 2·(fi mod 32)+2` of word
//! `pid · words_per_pair + fi / 32`, coded
//!
//! ```text
//! 0b00 = Irrelevant    0b01 = Satisfies    0b10 = Violates
//! ```
//!
//! so the violated-FD mask of a word is `word & 0xAAAA…A` (the high lane
//! bits) and the relevant-FD count is `popcount((word | word >> 1) &
//! 0x5555…5)` — no per-FD dispatch.
//!
//! # PLI-based derivation
//!
//! LHS agreement is read from the [`PartitionCache`]'s row → class owner
//! arrays, not from raw cells: two rows agree on an attribute set iff they
//! share a (non-[`NO_CLASS`]) stripped-partition class — a stripped row's
//! value combination is unique to it, so [`NO_CLASS`] rows agree with no
//! other row. The owner arrays are memoized in the shared cache, so a
//! session pays for each distinct LHS once across the matrix, every
//! [`crate::ViolationIndex`] build and the candidate pool. RHS agreement is
//! one attribute, so two distinct rows agree on it iff their dictionary
//! symbols are equal: the matrix compares the column's symbols and adds no
//! RHS lookup to the cache. Both halves of
//! [`pair_relation`](crate::pair_relation) reduce to array reads per FD.
//!
//! # Violation classes
//!
//! A pair's noisy-OR score depends only on which FDs it violates: its
//! violated-FD mask (`word & VIOLATES_MASK`, per word). Pairs with equal
//! masks form one *violation class*, and the build gives each class a
//! dense id, in order of first appearance ([`RelationMatrix::class_ids`]).
//! A served Hospital-1000 pool holds about 2,000 pairs but only 48–69
//! classes, so [`RelationMatrix::rescore_delta`] folds each changed class
//! once and copies the value to the class's live pairs, and selection
//! maps a score once per class present. Ids come from one open-addressing
//! table keyed on a multiplicative hash of the mask words: no per-pair
//! allocation, no SipHash.
//!
//! # One serial build
//!
//! The matrix is built once per session, in one serial pass that writes
//! each pair's words in pair order. A server's parallelism is its worker
//! pool across sessions, not threads inside one session's build.

use std::sync::Arc;

use et_data::Table;

use crate::cache::{PartitionCache, NO_CLASS};
use crate::detect::DetectParams;
use crate::space::HypothesisSpace;
use crate::violations::PairRelation;

/// 2-bit relation codes per 64-bit word.
pub(crate) const FDS_PER_WORD: usize = 32;
/// Lane code for [`PairRelation::Satisfies`] (low bit of the lane).
const CODE_SATISFIES: u64 = 0b01;
/// Lane code for [`PairRelation::Violates`] (high bit of the lane).
const CODE_VIOLATES: u64 = 0b10;
/// High bit of every 2-bit lane: the per-word violated-FD mask.
const VIOLATES_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;
/// Low bit of every 2-bit lane: the per-word satisfied-FD mask.
pub(crate) const SATISFIES_MASK: u64 = 0x5555_5555_5555_5555;

/// Precomputed [`PairRelation`]s of a fixed (table, space, pair-list)
/// triple, 2-bit packed, with batch noisy-OR scoring over the packed words.
///
/// Build once per session ([`RelationMatrix::build`]), then rescore every
/// belief update with [`RelationMatrix::score_all`] — the scoring pass
/// touches only packed words and a precomputed factor table, never the
/// table itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationMatrix {
    n_fds: usize,
    words_per_pair: usize,
    /// The pair list, in build order (`pairs[pid]` is pair `pid`).
    pairs: Vec<(usize, usize)>,
    /// Packed relations, row-major per pair.
    words: Vec<u64>,
    /// The violation class of each pair: a dense id per distinct
    /// violated-FD mask, numbered in order of first appearance.
    class_of: Vec<u32>,
    /// The violated-FD mask of each class, `words_per_pair` words per class.
    class_masks: Vec<u64>,
    /// Number of classes (`class_masks` is empty when there are no FDs).
    n_classes: usize,
}

/// Batch scores of every pair of a [`RelationMatrix`], aligned by pair id.
///
/// Only the dirty probability is stored: the uncertainty strategies take
/// `binary_entropy(dirty[id])` at read time, over the ids they score,
/// which is the same pure function of the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct PairScores {
    /// Per-pair noisy-OR dirty probability (both tuples of a pair receive
    /// the same probability — pair evidence cannot tell the sides apart).
    pub dirty: Vec<f64>,
}

impl PairScores {
    /// Pre-sized scratch for [`RelationMatrix::score_all_into`]: one
    /// zero-filled slot per pair. Allocate once per round loop and reuse —
    /// the hot-path lint (L12) forbids per-round allocation downstream of
    /// scoring roots.
    pub fn zeroed(n_pairs: usize) -> Self {
        Self {
            dirty: vec![0.0; n_pairs],
        }
    }
}

/// The per-FD noisy-OR keep-clean factors `1 − indicator(c_f)` for a
/// confidence vector: precompute once, reuse across every pair of a batch.
/// Multiplying the factors of a pair's violated FDs in ascending FD order
/// reproduces [`crate::detect::pair_dirty_probs_with`] bit for bit.
pub fn violation_factors(confidences: &[f64], params: &DetectParams) -> Vec<f64> {
    confidences
        .iter()
        .map(|&c| 1.0 - params.indicator.apply(c))
        .collect()
}

/// In-place variant of [`violation_factors`]: refills a caller-owned
/// buffer (one slot per FD) with bit-identical factors instead of
/// allocating a fresh vector per round.
///
/// # Panics
/// Panics when `out` does not have one slot per confidence.
pub fn violation_factors_into(confidences: &[f64], params: &DetectParams, out: &mut [f64]) {
    assert_eq!(
        out.len(),
        confidences.len(),
        "factor buffer does not match confidence vector"
    );
    for (slot, &c) in out.iter_mut().zip(confidences) {
        *slot = 1.0 - params.indicator.apply(c);
    }
}

/// The noisy-OR keep-clean product of one packed row (a pair's words or a
/// class mask): `keep0` times the factor of every violated FD, multiplied
/// in ascending FD order.
fn keep_clean(row: &[u64], factors: &[f64], keep0: f64) -> f64 {
    let mut keep = keep0;
    for (wi, &w) in (0..).zip(row) {
        let mut bits = w & VIOLATES_MASK;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize / 2;
            bits &= bits - 1;
            keep *= factors[wi * FDS_PER_WORD + lane];
        }
    }
    keep
}

/// True when a packed row violates an FD flagged in `changed`.
fn meets(row: &[u64], changed: &[u64]) -> bool {
    std::iter::zip(row, changed).any(|(&w, &m)| w & m != 0)
}

/// Dense violation-class ids for `n_pairs` packed relation rows of `wpp`
/// words each: returns each pair's class, each class's violated-FD mask
/// (`wpp` words per class) and the class count. Classes are numbered in
/// order of first appearance. One open-addressing table of at least twice
/// `n_pairs` slots, probed linearly from a multiplicative hash of the mask
/// words, finds a row's class in one pass without allocating per pair.
fn violation_classes(words: &[u64], wpp: usize, n_pairs: usize) -> (Vec<u32>, Vec<u64>, usize) {
    const EMPTY: u32 = u32::MAX;
    let slots = (2 * n_pairs).next_power_of_two().max(2);
    let shift = 64 - slots.trailing_zeros();
    let mut table = vec![EMPTY; slots];
    let mut class_of = Vec::with_capacity(n_pairs);
    let mut class_masks = Vec::new();
    let mut n_classes = 0u32;
    for pid in 0..n_pairs {
        let row = &words[pid * wpp..(pid + 1) * wpp];
        let hash = row.iter().fold(0u64, |h, &w| {
            (h ^ (w & VIOLATES_MASK)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let mut slot = (hash >> shift) as usize;
        let class = loop {
            let c = table[slot];
            if c == EMPTY {
                table[slot] = n_classes;
                class_masks.extend(row.iter().map(|&w| w & VIOLATES_MASK));
                n_classes += 1;
                break n_classes - 1;
            }
            let mask = &class_masks[c as usize * wpp..(c as usize + 1) * wpp];
            if mask.iter().zip(row).all(|(&m, &w)| m == w & VIOLATES_MASK) {
                break c;
            }
            slot = (slot + 1) & (slots - 1);
        };
        class_of.push(class);
    }
    (class_of, class_masks, n_classes as usize)
}

impl RelationMatrix {
    /// Builds the matrix for `pairs` over `table` under `space`, reusing
    /// (and warming) the shared partition cache.
    ///
    /// Pairs may be in any order; pair id `pid` is `pairs[pid]`, the
    /// build order.
    ///
    /// # Panics
    /// Panics when `table` does not match the cache's row count, or a pair
    /// references a row outside the table.
    pub fn build(
        table: &Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
        pairs: &[(usize, usize)],
    ) -> Self {
        let n_fds = space.len();
        let words_per_pair = n_fds.div_ceil(FDS_PER_WORD);
        // Per FD: the LHS set's row → stripped-class ids, memoized in the
        // shared cache so FDs with a common determinant share one lookup,
        // and the RHS column's symbols.
        let owners: Vec<(Arc<Vec<u32>>, &[u32])> = space
            .fds()
            .iter()
            .map(|fd| (cache.row_classes(table, fd.lhs), table.syms(fd.rhs)))
            .collect();
        let mut words = vec![0u64; pairs.len() * words_per_pair];
        for (pi, &(a, b)) in pairs.iter().enumerate() {
            let base = pi * words_per_pair;
            for (fi, (lhs_owner, rhs_syms)) in owners.iter().enumerate() {
                let la = lhs_owner[a];
                if la == NO_CLASS || la != lhs_owner[b] {
                    continue; // Irrelevant = 0b00, words start zeroed.
                }
                let code = if rhs_syms[a] == rhs_syms[b] {
                    CODE_SATISFIES
                } else {
                    CODE_VIOLATES
                };
                words[base + fi / FDS_PER_WORD] |= code << ((fi % FDS_PER_WORD) * 2);
            }
        }
        let (class_of, class_masks, n_classes) =
            violation_classes(&words, words_per_pair, pairs.len());
        Self {
            n_fds,
            words_per_pair,
            pairs: pairs.to_vec(),
            words,
            class_of,
            class_masks,
            n_classes,
        }
    }

    /// Number of pairs covered.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of FDs covered.
    pub fn n_fds(&self) -> usize {
        self.n_fds
    }

    /// Packed words per pair (`n_fds.div_ceil(32)`): the width of the
    /// changed-FD masks [`RelationMatrix::changed_factor_mask`] fills and
    /// [`RelationMatrix::rescore_delta`] consumes.
    pub fn words_per_pair(&self) -> usize {
        self.words_per_pair
    }

    /// True when no pairs are covered.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pair list, in build order (`pairs()[pid]` is pair `pid`).
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The violation class of every pair (`class_ids()[pid]` is pair
    /// `pid`'s): pairs share a class iff they violate the same FDs, so
    /// they share every noisy-OR score. Ids are dense, `0..n_classes()`.
    pub fn class_ids(&self) -> &[u32] {
        &self.class_of
    }

    /// Number of distinct violation classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The stored relation of pair `pid` to FD `fi` — equal to
    /// [`pair_relation`](crate::pair_relation)`(table, fd, a, b)` for the build inputs.
    ///
    /// # Panics
    /// Panics when `pid` or `fi` is out of range.
    pub fn relation(&self, pid: usize, fi: usize) -> PairRelation {
        assert!(fi < self.n_fds, "FD index {fi} out of range");
        let w = self.words[pid * self.words_per_pair + fi / FDS_PER_WORD];
        match (w >> ((fi % FDS_PER_WORD) * 2)) & 0b11 {
            CODE_SATISFIES => PairRelation::Satisfies,
            CODE_VIOLATES => PairRelation::Violates,
            _ => PairRelation::Irrelevant,
        }
    }

    /// The FDs pair `pid` violates, in ascending FD order (the reference
    /// noisy-OR multiplication order).
    ///
    /// # Panics
    /// Panics when `pid` is out of range.
    pub fn violated_indices(&self, pid: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.words[pid * self.words_per_pair..(pid + 1) * self.words_per_pair];
        row.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w & VIOLATES_MASK;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let lane = bits.trailing_zeros() as usize / 2;
                    bits &= bits - 1;
                    Some(wi * FDS_PER_WORD + lane)
                }
            })
        })
    }

    /// How many FDs the pair is relevant to (relation ≠ Irrelevant): the
    /// representativeness weight of density-weighted uncertainty sampling.
    ///
    /// # Panics
    /// Panics when `pid` is out of range.
    pub fn relevant_count(&self, pid: usize) -> usize {
        self.words[pid * self.words_per_pair..(pid + 1) * self.words_per_pair]
            .iter()
            .map(|&w| ((w | (w >> 1)) & SATISFIES_MASK).count_ones() as usize)
            .sum()
    }

    /// Folds the noisy-OR keep-clean products of four pairs at once: a
    /// fixed-width chunk with four independent accumulators, so the
    /// compiler can keep the multiply chains in flight together (and
    /// autovectorize the 4-wide select-multiply) without reassociating any
    /// single pair's product.
    ///
    /// Bit-exact with the scalar [`RelationMatrix::dirty_prob_with_factors`]
    /// fold: lanes are visited in ascending FD order (the union bitscan
    /// yields ascending lanes) and a pair not violating a visited lane
    /// multiplies by `1.0`, which is an exact identity in IEEE-754 — each
    /// pair's own factor sequence and order are unchanged.
    #[inline]
    fn fold4(&self, pids: [usize; 4], factors: &[f64], keep0: f64) -> [f64; 4] {
        let wpp = self.words_per_pair;
        let bases = pids.map(|p| p * wpp);
        let mut keep = [keep0; 4];
        for wi in 0..wpp {
            let w = [
                self.words[bases[0] + wi] & VIOLATES_MASK,
                self.words[bases[1] + wi] & VIOLATES_MASK,
                self.words[bases[2] + wi] & VIOLATES_MASK,
                self.words[bases[3] + wi] & VIOLATES_MASK,
            ];
            let mut union = w[0] | w[1] | w[2] | w[3];
            while union != 0 {
                let lane = union.trailing_zeros() as usize / 2;
                let bit = union & union.wrapping_neg();
                union &= union - 1;
                let f = factors[wi * FDS_PER_WORD + lane];
                for j in 0..4 {
                    keep[j] *= if w[j] & bit != 0 { f } else { 1.0 };
                }
            }
        }
        keep
    }

    /// The noisy-OR dirty probability of pair `pid` given precomputed
    /// keep-clean factors (see [`violation_factors`]). Factors multiply in
    /// ascending FD order — bit-identical to the reference
    /// [`crate::detect::pair_dirty_probs_with`] scan.
    ///
    /// # Panics
    /// Panics when `pid` is out of range or `factors` does not have one
    /// entry per FD.
    pub fn dirty_prob_with_factors(
        &self,
        pid: usize,
        factors: &[f64],
        params: &DetectParams,
    ) -> f64 {
        assert_eq!(
            factors.len(),
            self.n_fds,
            "factor vector does not match hypothesis space"
        );
        let wpp = self.words_per_pair;
        1.0 - keep_clean(
            &self.words[pid * wpp..(pid + 1) * wpp],
            factors,
            1.0 - params.base_rate,
        )
    }

    /// Batch scoring: the noisy-OR dirty probability of *every* pair, in
    /// one pass over the packed words (32 FDs per word, no per-FD closure
    /// dispatch). Bit-identical to calling
    /// [`crate::detect::pair_dirty_probs_with`] per pair with the same
    /// `confidences` and `params`.
    ///
    /// # Panics
    /// Panics when `confidences` does not have one entry per FD.
    pub fn score_all(&self, confidences: &[f64], params: &DetectParams) -> PairScores {
        let mut factors = vec![0.0; self.n_fds];
        let mut out = PairScores::zeroed(self.pairs.len());
        self.score_all_into(confidences, params, &mut factors, &mut out);
        out
    }

    /// Allocation-free [`RelationMatrix::score_all`]: refills caller-owned
    /// scratch (`factors` one slot per FD, `out` sized by
    /// [`PairScores::zeroed`]) instead of allocating per call, so a round
    /// loop pays zero heap traffic after the first iteration. Bit-identical
    /// to `score_all`: same factors, same ascending-FD fold.
    ///
    /// # Panics
    /// Panics when `confidences` or `factors` do not have one entry per FD,
    /// or `out` is not sized to the pair count.
    pub fn score_all_into(
        &self,
        confidences: &[f64],
        params: &DetectParams,
        factors: &mut [f64],
        out: &mut PairScores,
    ) {
        assert_eq!(
            confidences.len(),
            self.n_fds,
            "confidence vector does not match hypothesis space"
        );
        assert_eq!(
            factors.len(),
            self.n_fds,
            "factor buffer does not match hypothesis space"
        );
        assert_eq!(
            out.dirty.len(),
            self.pairs.len(),
            "score buffer does not match pair count"
        );
        violation_factors_into(confidences, params, factors);
        let keep0 = 1.0 - params.base_rate;
        let n = self.pairs.len();
        let mut pid = 0;
        while pid + 4 <= n {
            let keep = self.fold4([pid, pid + 1, pid + 2, pid + 3], factors, keep0);
            for (j, k) in keep.into_iter().enumerate() {
                out.dirty[pid + j] = 1.0 - k;
            }
            pid += 4;
        }
        while pid < n {
            out.dirty[pid] = self.dirty_prob_with_factors(pid, factors, params);
            pid += 1;
        }
    }

    /// Diffs two per-FD factor vectors into a changed-FD mask laid out like
    /// the packed violates bits: FD `fi` changed sets bit `2·(fi mod 32)+1`
    /// of word `fi / 32`, so `pair_word & mask != 0` tests "this pair
    /// violates a changed FD" with one AND per word. Returns `true` when any
    /// factor changed. Factors compare by bit pattern (`to_bits`), the same
    /// notion of equality the bit-exactness contract is stated in.
    ///
    /// # Panics
    /// Panics when `old`/`new` do not have one entry per FD or `mask` does
    /// not have one word per packed relation word
    /// (`n_fds.div_ceil(32)` slots).
    pub fn changed_factor_mask(&self, old: &[f64], new: &[f64], mask: &mut [u64]) -> bool {
        assert_eq!(
            old.len(),
            self.n_fds,
            "old factor vector does not match hypothesis space"
        );
        assert_eq!(
            new.len(),
            self.n_fds,
            "new factor vector does not match hypothesis space"
        );
        assert_eq!(
            mask.len(),
            self.words_per_pair,
            "mask buffer does not match packed width"
        );
        for w in mask.iter_mut() {
            *w = 0;
        }
        let mut any = false;
        for fi in 0..self.n_fds {
            if old[fi].to_bits() != new[fi].to_bits() {
                mask[fi / FDS_PER_WORD] |= CODE_VIOLATES << ((fi % FDS_PER_WORD) * 2);
                any = true;
            }
        }
        any
    }

    /// Delta-rescoring over the live pair ids, one fold per violation
    /// class: re-folds each class whose mask meets `changed` (a mask from
    /// [`RelationMatrix::changed_factor_mask`]) once into `class_dirty`,
    /// then copies that value into the ids of `live` in the class,
    /// updating `out` in place.
    ///
    /// Contract (the delta invariant over live ids): for every id in
    /// `live`, `out.dirty[id]` must hold the score [`RelationMatrix::score_all_into`]
    /// computes under the *same* `params` and a factor vector that differs
    /// from `factors` only at FDs flagged in `changed`. A pair's score
    /// depends solely on the factors of the FDs it violates, so a live pair
    /// whose class misses the mask would re-fold to the bit-identical value
    /// it already holds — skipping it cannot drift. Ids outside `live` are
    /// never touched: their slots may go stale and must not be read until
    /// a full pass rewrites them. A class folds its mask with the same
    /// ascending-FD product as each of its pairs' rows, so the live entries
    /// are bit-exact against a full rescore by construction.
    ///
    /// `class_dirty` is scratch with one slot per class
    /// ([`RelationMatrix::n_classes`]); its entries for classes that meet
    /// `changed` hold their new scores on return.
    ///
    /// # Panics
    /// Panics when `factors` does not have one entry per FD, `changed` one
    /// word per packed relation word, `class_dirty` one slot per class,
    /// `out` one slot per pair, or a live id is out of range.
    pub fn rescore_delta(
        &self,
        live: &[u32],
        factors: &[f64],
        params: &DetectParams,
        changed: &[u64],
        class_dirty: &mut [f64],
        out: &mut PairScores,
    ) {
        assert_eq!(
            factors.len(),
            self.n_fds,
            "factor vector does not match hypothesis space"
        );
        assert_eq!(
            changed.len(),
            self.words_per_pair,
            "changed mask does not match packed width"
        );
        assert_eq!(
            class_dirty.len(),
            self.n_classes,
            "class scratch does not match class count"
        );
        assert_eq!(
            out.dirty.len(),
            self.pairs.len(),
            "score buffer does not match pair count"
        );
        let keep0 = 1.0 - params.base_rate;
        let wpp = self.words_per_pair;
        let class_mask = |c: usize| &self.class_masks[c * wpp..(c + 1) * wpp];
        for (c, dirty) in (0..).zip(class_dirty.iter_mut()) {
            if meets(class_mask(c), changed) {
                *dirty = 1.0 - keep_clean(class_mask(c), factors, keep0);
            }
        }
        for &id in live {
            let pid = id as usize;
            let c = self.class_of[pid] as usize;
            if meets(class_mask(c), changed) {
                out.dirty[pid] = class_dirty[c];
            }
        }
    }

    /// Test oracle: every stored relation equals the raw-cell
    /// [`pair_relation`](crate::pair_relation) (O(pairs × FDs × attrs)).
    #[cfg(test)]
    fn verify_against(&self, table: &Table, space: &HypothesisSpace) -> bool {
        self.pairs.iter().enumerate().all(|(pid, &(a, b))| {
            space
                .iter()
                .all(|(fi, fd)| self.relation(pid, fi) == crate::pair_relation(table, &fd, a, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::binary_entropy;
    use crate::fd::Fd;
    use et_data::table::paper_table1;

    fn space() -> HypothesisSpace {
        HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),    // Team -> City
            Fd::from_attrs([2, 3], 4), // City,Role -> Apps
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

    #[test]
    fn relations_match_pair_relation() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        assert!(m.verify_against(&t, &sp));
        let pid_of = |p| pairs.iter().position(|&q| q == p).expect("covered");
        // Paper anchors: (t1, t2) violates Team -> City.
        let pid = pid_of((0, 1));
        assert_eq!(m.relation(pid, 0), PairRelation::Violates);
        assert_eq!(m.violated_indices(pid).collect::<Vec<_>>(), vec![0]);
        // (t3, t4) satisfies it.
        let pid = pid_of((2, 3));
        assert_eq!(m.relation(pid, 0), PairRelation::Satisfies);
        assert_eq!(m.violated_indices(pid).count(), 0);
        assert_eq!(m.relevant_count(pid), 1);
    }

    #[test]
    fn pair_ids_follow_build_order() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let m = RelationMatrix::build(&t, &space(), &cache, &[(2, 3), (0, 1)]);
        assert_eq!(m.pairs(), &[(2, 3), (0, 1)]);
        assert_eq!(m.violated_indices(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.n_pairs(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn score_all_matches_reference() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        let conf = [0.96, 0.55];
        for params in [DetectParams::unsmoothed(), DetectParams::default()] {
            let scores = m.score_all(&conf, &params);
            for (pid, &(a, b)) in pairs.iter().enumerate() {
                let (pa, _) = crate::detect::pair_dirty_probs_with(&t, &sp, &conf, a, b, &params);
                assert_eq!(scores.dirty[pid], pa, "pair ({a},{b})");
                assert_eq!(
                    binary_entropy(scores.dirty[pid]).to_bits(),
                    binary_entropy(pa).to_bits()
                );
            }
        }
    }

    #[test]
    fn score_all_into_is_bit_identical_and_reusable() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        // Scratch allocated once, reused across rounds with changing
        // confidences — every round must match the allocating path bit
        // for bit, including stale-value overwrites.
        let mut factors = vec![0.0; sp.len()];
        let mut scores = PairScores::zeroed(pairs.len());
        for round in 0..3 {
            let shift = f64::from(round) * 0.17;
            let conf = [0.96 - shift, 0.55 + shift];
            for params in [DetectParams::unsmoothed(), DetectParams::default()] {
                m.score_all_into(&conf, &params, &mut factors, &mut scores);
                assert_eq!(scores, m.score_all(&conf, &params), "round {round}");
                assert_eq!(factors, violation_factors(&conf, &params), "round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "score buffer does not match pair count")]
    fn score_all_into_rejects_missized_scratch() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        let mut factors = vec![0.0; sp.len()];
        let mut scores = PairScores::zeroed(pairs.len() - 1);
        m.score_all_into(
            &[0.5, 0.5],
            &DetectParams::default(),
            &mut factors,
            &mut scores,
        );
    }

    #[test]
    fn changed_factor_mask_flags_exactly_the_diff() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let m = RelationMatrix::build(&t, &sp, &cache, &all_pairs(t.nrows()));
        let mut mask = vec![u64::MAX; m.words_per_pair()];
        let old = [0.3, 0.7];
        assert!(!m.changed_factor_mask(&old, &old, &mut mask));
        assert!(mask.iter().all(|&w| w == 0), "mask is cleared on no-diff");
        // FD 1 changes: bit 2·1+1 = 3 of word 0.
        assert!(m.changed_factor_mask(&old, &[0.3, 0.6], &mut mask));
        assert_eq!(mask, vec![0b1000]);
        // A bit-level change counts even when the values compare equal
        // numerically never happens for distinct bits; 0.0 vs -0.0 does.
        assert!(m.changed_factor_mask(&[0.0, 0.7], &[-0.0, 0.7], &mut mask));
        assert_eq!(mask, vec![0b10]);
    }

    #[test]
    fn rescore_delta_matches_full_rescore() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        for params in [DetectParams::unsmoothed(), DetectParams::default()] {
            let mut factors = vec![0.0; sp.len()];
            let mut scores = PairScores::zeroed(pairs.len());
            let mut conf = vec![0.96, 0.55];
            m.score_all_into(&conf, &params, &mut factors, &mut scores);
            let mut mask = vec![0u64; m.words_per_pair()];
            let mut classes = vec![0.0; m.n_classes()];
            let all: Vec<u32> = (0..pairs.len() as u32).collect();
            // Nudge one FD at a time; the delta path must stay bit-equal to
            // a from-scratch rescore after every step.
            for round in 0..6 {
                conf[round % 2] = (conf[round % 2] * 0.83).max(0.05);
                let new_factors = violation_factors(&conf, &params);
                let any = m.changed_factor_mask(&factors, &new_factors, &mut mask);
                assert!(any, "the nudge changed a factor");
                m.rescore_delta(
                    &all,
                    &new_factors,
                    &params,
                    &mask,
                    &mut classes,
                    &mut scores,
                );
                factors.copy_from_slice(&new_factors);
                assert_eq!(scores, m.score_all(&conf, &params), "round {round}");
            }
        }
    }

    #[test]
    fn rescore_delta_empty_mask_is_a_no_op() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        let params = DetectParams::default();
        let conf = [0.9, 0.4];
        let mut factors = vec![0.0; sp.len()];
        let mut scores = PairScores::zeroed(pairs.len());
        m.score_all_into(&conf, &params, &mut factors, &mut scores);
        let before = scores.clone();
        let mask = vec![0u64; m.words_per_pair()];
        // Garbage factors with an empty mask: nothing may be touched.
        let all: Vec<u32> = (0..pairs.len() as u32).collect();
        let mut classes = vec![0.0; m.n_classes()];
        m.rescore_delta(&all, &[0.123; 2], &params, &mask, &mut classes, &mut scores);
        assert_eq!(scores, before);
    }

    #[test]
    fn rescore_delta_refolds_only_live_ids_meeting_the_mask() {
        // Columns (x, y, a); FD 0 = x -> a, FD 1 = x -> y. Pair ids follow
        // `all_pairs`: FD 0 is violated by ids 0, 4 and 9, FD 1 by 1, 4, 9.
        let mut b = et_data::Table::builder(et_data::Schema::new(["x", "y", "a"]));
        for row in [
            ["0", "0", "0"],
            ["0", "0", "1"],
            ["0", "1", "0"],
            ["1", "0", "0"],
            ["1", "1", "1"],
        ] {
            b.push_row(&row.map(String::from));
        }
        let t = b.finish();
        let sp = HypothesisSpace::from_fds([Fd::from_attrs([0], 2), Fd::from_attrs([0], 1)]);
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        let params = DetectParams::default();
        let mut factors = vec![0.0; sp.len()];
        let mut scores = PairScores::zeroed(pairs.len());
        m.score_all_into(&[0.9, 0.4], &params, &mut factors, &mut scores);
        let before = scores.clone();
        // Flag FD 0 only and refold under factors that differ at both FDs:
        // live ids violating FD 0 (0 and 4) take the new fold; live id 1,
        // which violates only the unflagged FD 1, and the retired id 9
        // keep their bits.
        let garbage = [0.123, 0.456];
        let mut mask = vec![0u64; m.words_per_pair()];
        assert!(m.changed_factor_mask(&factors, &[garbage[0], factors[1]], &mut mask));
        let live: Vec<u32> = (0..9).collect();
        let mut classes = vec![0.0; m.n_classes()];
        m.rescore_delta(&live, &garbage, &params, &mask, &mut classes, &mut scores);
        for pid in 0..pairs.len() {
            let want = if pid == 0 || pid == 4 {
                m.dirty_prob_with_factors(pid, &garbage, &params)
            } else {
                before.dirty[pid]
            };
            assert_eq!(scores.dirty[pid].to_bits(), want.to_bits(), "pair {pid}");
        }
        for pid in [0, 1, 4, 9] {
            assert_ne!(
                m.dirty_prob_with_factors(pid, &garbage, &params).to_bits(),
                before.dirty[pid].to_bits(),
                "pair {pid} is sensitive to the new factors"
            );
        }
    }

    #[test]
    fn classes_group_pairs_by_violated_fds_in_first_appearance_order() {
        let t = paper_table1();
        let sp = space();
        let cache = PartitionCache::new(&t);
        let pairs = all_pairs(t.nrows());
        let m = RelationMatrix::build(&t, &sp, &cache, &pairs);
        let ids = m.class_ids();
        assert_eq!(ids.len(), pairs.len());
        let mut next = 0;
        for p in 0..pairs.len() {
            // Ids are dense and numbered in order of first appearance.
            assert!(ids[p] <= next, "pair {p}");
            next = next.max(ids[p] + 1);
            for q in 0..pairs.len() {
                let same = m.violated_indices(p).eq(m.violated_indices(q));
                assert_eq!(ids[p] == ids[q], same, "pairs {p} and {q}");
            }
        }
        assert_eq!(m.n_classes(), next as usize);
        // Table 1 has pairs violating nothing and pairs violating FD 0.
        assert_eq!(m.n_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "changed mask does not match packed width")]
    fn rescore_delta_rejects_missized_mask() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let m = RelationMatrix::build(&t, &space(), &cache, &[(0, 1)]);
        let mut scores = PairScores::zeroed(1);
        m.rescore_delta(
            &[0],
            &[0.5, 0.5],
            &DetectParams::default(),
            &[],
            &mut [0.0; 1],
            &mut scores,
        );
    }

    #[test]
    fn empty_pair_list() {
        let t = paper_table1();
        let cache = PartitionCache::new(&t);
        let m = RelationMatrix::build(&t, &space(), &cache, &[]);
        assert!(m.is_empty());
        assert_eq!(m.n_fds(), 2);
        assert_eq!(m.n_classes(), 0);
        assert!(m
            .score_all(&[0.5, 0.5], &DetectParams::default())
            .dirty
            .is_empty());
    }
}
