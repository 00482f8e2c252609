//! Candidate pair pools, and the fresh candidates that selection scores.
//!
//! The learner's policy is a distribution over examples of the dataset; for
//! FD training the informative examples are pairs of tuples that agree on
//! at least one hypothesis-space LHS (other pairs carry no evidence for any
//! FD). The pool enumerates those pairs once per session — capped by
//! uniform subsampling when the quadratic blowup gets large. A pair that
//! several determinants group counts at its first visit only; classes of
//! [`WORD_PATH_MIN_ROWS`] rows or more find their first visits 64 rows to
//! a word, smaller ones pair by pair, in the same order.
//!
//! Selection runs on pool ids. The pool's [`RelationMatrix`] is built over
//! [`CandidatePool::pairs`] in pool order, so pool id `i` is matrix pair id
//! `i`: [`FreshCandidates`] holds the not-yet-shown ids in pool order next
//! to the delta scorer over that matrix, and the response strategies score
//! `dirty[id]` (once per violation class) or the packed relation row `id`
//! directly. The scorer keeps
//! only the listed ids current: retiring picks is the list's one mutation,
//! so it only shrinks, and the slots of retired ids go stale unread.
//! This is the one runtime scoring path; the raw-cell definitions in
//! [`crate::payoff`] and [`et_fd`] are its test oracle.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use et_data::Table;
use et_fd::{
    DeltaScorer, HypothesisSpace, PartitionCache, RelationMatrix, ViolationIndex, NO_CLASS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::game::PairExample;
use crate::respond::ScoreCtx;

/// The set of candidate pairs a session draws examples from.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    pairs: Vec<PairExample>,
}

impl CandidatePool {
    /// Enumerates every pair agreeing on at least one distinct LHS of
    /// `space`; if more than `max_pairs` exist, keeps a uniform reservoir
    /// sample of `max_pairs` (deterministic in `seed`).
    ///
    /// # Panics
    /// Panics when `max_pairs` is zero.
    pub fn build(table: &Table, space: &HypothesisSpace, max_pairs: usize, seed: u64) -> Self {
        let cache = PartitionCache::new(table);
        Self::build_with(table, space, &cache, max_pairs, seed)
    }

    /// [`CandidatePool::build`] over a shared [`PartitionCache`]: walks the
    /// memoized stripped partition of each distinct LHS instead of
    /// re-grouping the table per determinant.
    ///
    /// Bit-identical to the raw `group_by` enumeration (pinned by proptest):
    /// both visit multi-row groups in ascending first-row order with members
    /// ascending — a stripped partition *is* that grouping with singleton
    /// groups removed, and singleton groups contribute no pairs — so the
    /// reservoir sees the same pair sequence and draws the same sample.
    ///
    /// A pair recurs once per determinant that puts both rows in one
    /// class, and only its first visit counts. Determinants are walked in
    /// order and a class visits each of its pairs once, so a pair met in
    /// a class of determinant `k` is new exactly when no earlier
    /// determinant `j < k` has both rows in one class — a test on the
    /// memoized [`PartitionCache::row_classes`] of the earlier
    /// determinants. A class of fewer than [`WORD_PATH_MIN_ROWS`] rows
    /// runs it per pair, with row `a`'s classes read once per `a`. A
    /// larger class of `m` rows runs it a word at a time: each earlier
    /// determinant splits the class's positions into sub-classes, each
    /// sub-class of two or more rows becomes an `m`-bit mask, and row `i`
    /// ORs the masks of its own sub-classes from its own word on. The zero
    /// bits above `i`, in ascending order, are exactly the new pairs of
    /// row `i` in visit order, at `k·m` lookups plus about `k·m²/128` word
    /// ORs instead of up to `k·m²/2` reads.
    ///
    /// # Panics
    /// Panics when `max_pairs` is zero or `cache` was built for a table
    /// with a different row count.
    pub fn build_with(
        table: &Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
        max_pairs: usize,
        seed: u64,
    ) -> Self {
        assert!(max_pairs > 0, "pool must allow at least one pair");
        let mut reservoir = Reservoir {
            pairs: Vec::new(),
            n_seen: 0,
            cap: max_pairs,
            rng: StdRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b),
        };
        let lhss = space.distinct_lhs();
        let row_classes: Vec<Arc<Vec<u32>>> = lhss
            .iter()
            .map(|&lhs| cache.row_classes(table, lhs))
            .collect();
        let mut joins = JoinMasks::new(table.nrows());
        // Row `a`'s class under each earlier determinant that keeps it.
        let mut a_classes: Vec<(&[u32], u32)> = Vec::with_capacity(lhss.len());
        for (k, &lhs) in lhss.iter().enumerate() {
            let earlier = &row_classes[..k];
            let part = cache.partition(table, lhs);
            for group in part.classes() {
                if group.len() >= WORD_PATH_MIN_ROWS {
                    joins.offer_fresh(group, earlier, &mut reservoir);
                    continue;
                }
                for (i, &a) in group.iter().enumerate() {
                    a_classes.clear();
                    a_classes.extend(
                        earlier
                            .iter()
                            .map(|owners| (owners.as_slice(), owners[a as usize]))
                            .filter(|&(_, class)| class != NO_CLASS),
                    );
                    for &b in &group[i + 1..] {
                        if !a_classes
                            .iter()
                            .any(|&(owners, class)| owners[b as usize] == class)
                        {
                            reservoir.offer(a, b);
                        }
                    }
                }
            }
        }
        let mut pairs = reservoir.pairs;
        pairs.sort_unstable();
        Self { pairs }
    }

    /// Builds a pool from explicit pairs (tests, custom workloads).
    pub fn from_pairs(mut pairs: Vec<PairExample>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// Keeps only the pairs with both rows in `keep`, in pool order.
    pub(crate) fn retain_rows(&mut self, keep: &[bool]) {
        self.pairs.retain(|p| keep[p.a] && keep[p.b]);
    }

    /// All pairs, sorted.
    pub fn pairs(&self) -> &[PairExample] {
        &self.pairs
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pool's relation matrix, built over [`CandidatePool::pairs`] in
    /// pool order: matrix pair id `i` is pool pair `i`.
    pub fn relation_matrix(
        &self,
        table: &Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
    ) -> RelationMatrix {
        let pairs: Vec<(usize, usize)> = self.pairs.iter().map(|p| (p.a, p.b)).collect();
        RelationMatrix::build(table, space, cache, &pairs)
    }
}

/// Classes of at least this many rows take the word-parallel first-visit
/// test in [`CandidatePool::build_with`]; smaller ones probe each pair.
/// Below it the mask builds cost more than the reads they save: a word
/// path on every class took the enumeration of served OMDB-160 pools
/// (session seeds 1001–1010) from 0.11 to 0.21 ms.
pub const WORD_PATH_MIN_ROWS: usize = 32;

/// A uniform reservoir sample of the distinct pairs offered to it, in
/// offer order: one `gen_range` draw per pair past the first `cap`.
struct Reservoir {
    pairs: Vec<PairExample>,
    n_seen: usize,
    cap: usize,
    rng: StdRng,
}

impl Reservoir {
    fn offer(&mut self, a: u32, b: u32) {
        let p = PairExample::new(a as usize, b as usize);
        self.n_seen += 1;
        if self.pairs.len() < self.cap {
            self.pairs.push(p);
        } else {
            let j = self.rng.gen_range(0..self.n_seen);
            if j < self.cap {
                self.pairs[j] = p;
            }
        }
    }
}

/// Marks a sub-class still holding one row, so it has no mask yet.
const NO_MASK: u32 = u32::MAX;

/// Scratch of the word-parallel first-visit test, reused across classes.
///
/// `seen`, `head` and `mask_of` are indexed by class ids of an earlier
/// determinant, which stay below the table's row count, and are cleared
/// by bumping `stamp` instead of refilling them.
struct JoinMasks {
    /// `seen[c] == stamp` once class `c` was met in the current split.
    seen: Vec<u32>,
    /// Position of class `c`'s first row in the class being split.
    head: Vec<u32>,
    /// Index of class `c`'s mask in `masks`, or [`NO_MASK`].
    mask_of: Vec<u32>,
    stamp: u32,
    /// One split's sub-class masks, `words` words each.
    masks: Vec<u64>,
    /// Position `i`'s `words` words: bit `p` is set when an earlier
    /// determinant puts positions `i` and `p` in one class. Only the
    /// words from `i / 64` on are kept current.
    joined: Vec<u64>,
}

impl JoinMasks {
    fn new(n_rows: usize) -> Self {
        Self {
            seen: vec![0; n_rows],
            head: vec![0; n_rows],
            mask_of: vec![0; n_rows],
            stamp: 0,
            masks: Vec::new(),
            joined: Vec::new(),
        }
    }

    /// Offers every pair of `group` that no `earlier` determinant joins,
    /// in the per-pair loop's order: `a` by position, then `b` ascending.
    fn offer_fresh(&mut self, group: &[u32], earlier: &[Arc<Vec<u32>>], out: &mut Reservoir) {
        let m = group.len();
        let words = m.div_ceil(64);
        self.joined.clear();
        self.joined.resize(m * words, 0);
        for owners in earlier {
            self.split(group, owners, words);
            for (p, &r) in group.iter().enumerate() {
                let c = owners[r as usize];
                if c == NO_CLASS || self.mask_of[c as usize] == NO_MASK {
                    continue;
                }
                let mask = &self.masks[self.mask_of[c as usize] as usize * words..][..words];
                let row = &mut self.joined[p * words..][..words];
                for (joined, &bits) in row.iter_mut().zip(mask).skip(p / 64) {
                    *joined |= bits;
                }
            }
        }
        // The last word's bits at and past `m` name no row.
        let tail = !0u64 >> (words * 64 - m);
        for (i, &a) in group.iter().enumerate() {
            let row = &self.joined[i * words..][..words];
            for (w, &joined) in row.iter().enumerate().skip(i / 64) {
                let mut fresh = !joined;
                if w == i / 64 {
                    fresh &= (!0u64 << (i % 64)) << 1;
                }
                if w + 1 == words {
                    fresh &= tail;
                }
                while fresh != 0 {
                    let p = w * 64 + fresh.trailing_zeros() as usize;
                    out.offer(a, group[p]);
                    fresh &= fresh - 1;
                }
            }
        }
    }

    /// Splits `group`'s positions by their class in `owners` into
    /// `masks`: one `m`-bit mask per sub-class of two or more rows, found
    /// through `mask_of`; stripped rows and one-row sub-classes get none.
    fn split(&mut self, group: &[u32], owners: &[u32], words: usize) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.masks.clear();
        let mut n_masks = 0u32;
        for (p, &r) in (0u32..).zip(group) {
            let c = owners[r as usize];
            if c == NO_CLASS {
                continue;
            }
            let c = c as usize;
            if self.seen[c] != self.stamp {
                self.seen[c] = self.stamp;
                self.head[c] = p;
                self.mask_of[c] = NO_MASK;
                continue;
            }
            if self.mask_of[c] == NO_MASK {
                self.mask_of[c] = n_masks;
                n_masks += 1;
                self.masks.resize(self.masks.len() + words, 0);
                let fresh = self.masks.len() - words;
                set_bit(&mut self.masks[fresh..], self.head[c]);
            }
            let start = self.mask_of[c] as usize * words;
            set_bit(&mut self.masks[start..start + words], p);
        }
    }
}

/// Sets bit `pos` of the multi-word mask `mask`.
fn set_bit(mask: &mut [u64], pos: u32) {
    let pos = pos as usize;
    mask[pos / 64] |= 1 << (pos % 64);
}

/// The candidates a driver still offers: the pool ids not yet shown, in
/// pool order, and the delta scorer over the pool's relation matrix.
///
/// The learner's shown set ([`crate::Learner::shown`]) stays the
/// persisted form; a driver builds this list from it whenever it
/// constructs or recovers a session, or swaps the pool. Each pick is
/// retired with an order-preserving compaction, so the list always equals
/// the pool filtered by the shown set, in pool order.
#[derive(Debug)]
pub struct FreshCandidates {
    ids: Vec<u32>,
    scorer: RefCell<DeltaScorer>,
}

impl FreshCandidates {
    /// The pair ids of `matrix` whose pairs are not in `shown`, scored
    /// through a cold [`DeltaScorer`] over `matrix`. A pool's matrix
    /// ([`CandidatePool::relation_matrix`]) holds the pool's pairs in pool
    /// order, so its ids are pool ids.
    ///
    /// # Panics
    /// Panics when the matrix outgrows `u32` ids.
    pub fn new(matrix: Arc<RelationMatrix>, shown: &HashSet<PairExample>) -> Self {
        assert!(
            u32::try_from(matrix.n_pairs()).is_ok(),
            "pool ids must fit u32"
        );
        let ids = (0u32..)
            .zip(matrix.pairs())
            .filter(|&(_, &(a, b))| !shown.contains(&PairExample { a, b }))
            .map(|(id, _)| id)
            .collect();
        Self {
            ids,
            scorer: RefCell::new(DeltaScorer::new(matrix)),
        }
    }

    /// The fresh pool ids, in pool order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The scoring context over these candidates.
    pub fn ctx<'a>(&'a self, index: &'a ViolationIndex) -> ScoreCtx<'a> {
        ScoreCtx {
            index,
            scorer: &self.scorer,
        }
    }

    /// Retires `picks` from the fresh list and returns their pairs, in
    /// pick order. The list is compacted in place by one merge pass
    /// against the sorted picks (both ascend), so it keeps its order.
    pub(crate) fn retire(&mut self, mut picks: Vec<u32>) -> Vec<PairExample> {
        let scorer = self.scorer.borrow();
        let pairs = scorer.matrix().pairs();
        let taken = picks
            .iter()
            .map(|&id| {
                let (a, b) = pairs[id as usize];
                PairExample { a, b }
            })
            .collect();
        picks.sort_unstable();
        let mut next = picks.into_iter().peekable();
        self.ids.retain(|&id| {
            while next.next_if(|&p| p < id).is_some() {}
            next.next_if_eq(&id).is_none()
        });
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::table::paper_table1;
    use et_fd::Fd;

    fn space() -> HypothesisSpace {
        HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),    // Team groups: {0,1}, {2,3}
            Fd::from_attrs([2, 3], 4), // (City,Role) group: {1,2}
        ])
    }

    #[test]
    fn enumerates_relevant_pairs() {
        let t = paper_table1();
        let pool = CandidatePool::build(&t, &space(), 100, 1);
        let expect = vec![
            PairExample::new(0, 1),
            PairExample::new(1, 2),
            PairExample::new(2, 3),
        ];
        assert_eq!(pool.pairs(), expect.as_slice());
    }

    #[test]
    fn caps_with_reservoir() {
        let t = paper_table1();
        let pool = CandidatePool::build(&t, &space(), 2, 1);
        assert_eq!(pool.len(), 2);
        // Sampled pairs come from the full relevant set.
        let full = CandidatePool::build(&t, &space(), 100, 1);
        for p in pool.pairs() {
            assert!(full.pairs().contains(p));
        }
    }

    #[test]
    fn build_deterministic() {
        let ds = et_data::gen::omdb(150, 2);
        let fds: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
        let space = HypothesisSpace::from_fds(fds);
        let a = CandidatePool::build(&ds.table, &space, 50, 9);
        let b = CandidatePool::build(&ds.table, &space, 50, 9);
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn fresh_filters_shown_and_retires_picks_in_order() {
        let t = paper_table1();
        let sp = space();
        let pool = CandidatePool::build(&t, &sp, 100, 1);
        let m = Arc::new(pool.relation_matrix(&t, &sp, &PartitionCache::new(&t)));
        let mut shown = HashSet::new();
        shown.insert(PairExample::new(1, 2));
        let mut fresh = FreshCandidates::new(m, &shown);
        // Pool order is (0,1), (1,2), (2,3): ids 0 and 2 stay fresh.
        assert_eq!(fresh.ids(), &[0, 2]);
        assert_eq!(fresh.retire(vec![2]), vec![PairExample::new(2, 3)]);
        assert_eq!(fresh.ids(), &[0]);
    }

    #[test]
    fn retire_keeps_pool_order_and_returns_pick_order() {
        let t = paper_table1();
        let sp = space();
        let mut pairs = Vec::new();
        for a in 0..t.nrows() {
            for b in a + 1..t.nrows() {
                pairs.push(PairExample::new(a, b));
            }
        }
        let pool = CandidatePool::from_pairs(pairs.clone());
        let m = Arc::new(pool.relation_matrix(&t, &sp, &PartitionCache::new(&t)));
        let mut fresh = FreshCandidates::new(m, &HashSet::new());
        // Table 1's five rows make ten pairs, ids 0..10 in pool order.
        let picked = fresh.retire(vec![9, 4, 0, 5]);
        assert_eq!(picked, vec![pairs[9], pairs[4], pairs[0], pairs[5]]);
        assert_eq!(fresh.ids(), &[1, 2, 3, 6, 7, 8]);
        assert_eq!(fresh.retire(vec![2]), vec![pairs[2]]);
        assert_eq!(fresh.ids(), &[1, 3, 6, 7, 8]);
    }

    #[test]
    fn from_pairs_dedups_and_sorts() {
        let pool = CandidatePool::from_pairs(vec![
            PairExample::new(3, 1),
            PairExample::new(0, 2),
            PairExample::new(1, 3),
        ]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.pairs()[0], PairExample::new(0, 2));
    }
}
