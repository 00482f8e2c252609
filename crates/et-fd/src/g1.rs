//! The g1 approximation measure for FDs (Kivinen & Mannila 1992), in the
//! scaled form the paper uses.
//!
//! For an FD `X -> A` over relation `r`, the paper defines
//!
//! ```text
//! g1(X -> A, r) = |{(t1,t2) | t1[X] = t2[X], t1[A] ≠ t2[A]}| / |r²|
//! ```
//!
//! and its Example 1 computes `g1(Team -> City) = 1/25` on the five-tuple
//! Table 1 — one *unordered* violating pair over `n² = 25`. We match that
//! semantics exactly ([`G1::g1`]) and additionally expose the conditional
//! violation rate among at-risk pairs ([`G1::violation_rate`]), which is the
//! quantity belief updates estimate.

#![expect(
    clippy::indexing_slicing,
    reason = "rows in part's classes are < n_rows = syms.len(), since part partitions the same table, and counts is grown to dict_len(attr) on entry, which bounds every symbol of that column"
)]

use et_data::{AttrId, Table};

use crate::fd::Fd;
use crate::partitions::StrippedPartition;

/// Sorts `syms` in place and emits `(symbol, count)` runs in ascending
/// symbol order into `out` (cleared first).
///
/// This replaces the former `O(group · distinct-RHS)` linear-scan counting
/// loop of the violation-index builders: sorting a small scratch buffer
/// and run-length counting touches each symbol `O(log g)` times and leaves
/// the counts binary-searchable by symbol.
pub(crate) fn count_symbol_runs(syms: &mut [u32], out: &mut Vec<(u32, u64)>) {
    syms.sort_unstable();
    out.clear();
    for &s in syms.iter() {
        match out.last_mut() {
            Some((sym, c)) if *sym == s => *c += 1,
            _ => out.push((s, 1)),
        }
    }
}

/// Pair statistics of one FD over one table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct G1 {
    /// Unordered pairs agreeing on the LHS but differing on the RHS.
    pub violating_pairs: u64,
    /// Unordered pairs agreeing on the LHS (at-risk pairs).
    pub lhs_pairs: u64,
    /// Number of rows in the table.
    pub rows: u64,
}

impl G1 {
    /// The paper's scaled g1: unordered violating pairs / n².
    pub fn g1(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.violating_pairs as f64 / (self.rows as f64 * self.rows as f64)
    }

    /// Violating pairs as a fraction of at-risk pairs; `0` when no pair is
    /// at risk. This conditional rate is what FP/Bayesian belief updates
    /// estimate, and `1 - violation_rate` is the natural "confidence that
    /// the FD holds".
    pub fn violation_rate(&self) -> f64 {
        if self.lhs_pairs == 0 {
            0.0
        } else {
            self.violating_pairs as f64 / self.lhs_pairs as f64
        }
    }

    /// Confidence that the FD holds: `1 - violation_rate`.
    pub fn confidence(&self) -> f64 {
        1.0 - self.violation_rate()
    }

    /// True when the FD holds exactly (no violating pair).
    pub fn is_exact(&self) -> bool {
        self.violating_pairs == 0
    }
}

/// Computes [`G1`] for `fd` over `table` by partition refinement: the
/// stripped partition of the LHS (the first attribute bucketed, each
/// further one refining it), then the pairs of each class that also agree
/// on the RHS, counted with a dense per-symbol counter (`agreeing_on`);
/// the rest of the class's pairs violate. Singleton rows are in no pair
/// and are stripped.
///
/// Runs in `O(n · |LHS|)` plus one dense array per dictionary read, with
/// no hashing and no sort.
///
/// ```
/// use et_data::table::paper_table1;
/// use et_fd::{g1_of, Fd};
///
/// let g = g1_of(&paper_table1(), &Fd::from_attrs([1], 2));
/// assert_eq!(g.violating_pairs, 1); // the Lakers pair
/// assert_eq!(g.lhs_pairs, 2);
/// ```
pub fn g1_of(table: &Table, fd: &Fd) -> G1 {
    let mut lhs = fd.lhs.iter();
    let part = match lhs.next() {
        Some(a) => lhs.fold(StrippedPartition::of_attr(table, a), |p, b| {
            p.refine(table, b)
        }),
        None => StrippedPartition::full(table.nrows()),
    };
    let lhs_pairs = part.pairs();
    let agreeing = agreeing_on(table, &part, fd.rhs, &mut Vec::new());
    let out = G1 {
        violating_pairs: lhs_pairs - agreeing,
        lhs_pairs,
        rows: table.nrows() as u64,
    };
    invariant!(
        out.violating_pairs <= out.lhs_pairs,
        "violating pairs {} exceed at-risk pairs {}",
        out.violating_pairs,
        out.lhs_pairs
    );
    invariant!(
        (0.0..=1.0).contains(&out.g1()) && (0.0..=1.0).contains(&out.violation_rate()),
        "g1 measures out of [0,1]: g1 {} rate {}",
        out.g1(),
        out.violation_rate()
    );
    out
}

/// Row pairs inside one class of `part` that also agree on `attr`: each
/// class is counted in one walk over a dense per-symbol counter and reset
/// by a second walk over the same rows. A row agrees with every earlier
/// row of its class carrying the same symbol, so summing the running count
/// before each increment gives `Σ c·(c − 1)/2` over the symbol buckets.
/// `counts` is scratch, all zero between calls.
pub(crate) fn agreeing_on(
    table: &Table,
    part: &StrippedPartition,
    attr: AttrId,
    counts: &mut Vec<u32>,
) -> u64 {
    let syms = table.syms(attr);
    let dict = table.dict_len(attr);
    if counts.len() < dict {
        counts.resize(dict, 0);
    }
    let mut agreeing = 0u64;
    for class in part.classes() {
        for &row in class {
            let c = &mut counts[syms[row as usize] as usize];
            agreeing += u64::from(*c);
            *c += 1;
        }
        for &row in class {
            counts[syms[row as usize] as usize] = 0;
        }
    }
    agreeing
}

/// The per-FD scorer the capped space used before it scored once per
/// attribute set: every FD walks its determinant's cached partition with a
/// dense per-symbol counter. Kept as the oracle the lattice scorer and
/// `HypothesisSpace::capped` are pinned to.
#[cfg(test)]
pub(crate) fn g1_per_fd(
    table: &Table,
    fds: &[Fd],
    cache: &crate::cache::PartitionCache,
) -> Vec<G1> {
    let rows = table.nrows() as u64;
    let mut counts: Vec<u32> = Vec::new();
    fds.iter()
        .map(|fd| {
            let part = cache.partition(table, fd.lhs);
            let lhs_pairs = part.pairs();
            let dict = table.dict_len(fd.rhs);
            if counts.len() < dict {
                counts.resize(dict, 0);
            }
            let mut agreeing = 0u64;
            for class in part.classes() {
                for &row in class {
                    let c = &mut counts[table.sym(row as usize, fd.rhs) as usize];
                    agreeing += u64::from(*c);
                    *c += 1;
                }
                for &row in class {
                    counts[table.sym(row as usize, fd.rhs) as usize] = 0;
                }
            }
            G1 {
                violating_pairs: lhs_pairs - agreeing,
                lhs_pairs,
                rows,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::gen::DatasetName;
    use et_data::table::paper_table1;
    use proptest::prelude::*;

    #[test]
    fn paper_example_1() {
        // g1(Team -> City) over Table 1 is 1/25 = 0.04.
        let t = paper_table1();
        let fd = Fd::from_attrs([1], 2);
        let g = g1_of(&t, &fd);
        assert_eq!(g.violating_pairs, 1);
        assert_eq!(g.lhs_pairs, 2); // {t1,t2} and {t3,t4}
        assert!((g.g1() - 0.04).abs() < 1e-12);
        assert!((g.violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_fd_has_zero_g1() {
        let t = paper_table1();
        // City,Role -> Apps: groups (Chicago,PF)={t2,t3} share Apps=4; all
        // other groups are singletons.
        let fd = Fd::from_attrs([2, 3], 4);
        let g = g1_of(&t, &fd);
        assert!(g.is_exact());
        assert_eq!(g.lhs_pairs, 1);
        assert_eq!(g.confidence(), 1.0);
    }

    #[test]
    fn key_like_lhs_has_no_pairs() {
        let t = paper_table1();
        let fd = Fd::from_attrs([0], 1); // Player is a key
        let g = g1_of(&t, &fd);
        assert_eq!(g.lhs_pairs, 0);
        assert_eq!(g.violation_rate(), 0.0);
        assert_eq!(g.g1(), 0.0);
    }

    #[test]
    fn per_fd_oracle_matches_individual() {
        let t = paper_table1();
        let fds = vec![Fd::from_attrs([1], 2), Fd::from_attrs([2, 3], 4)];
        let all = g1_per_fd(&t, &fds, &crate::cache::PartitionCache::new(&t));
        assert_eq!(all[0], g1_of(&t, &fds[0]));
        assert_eq!(all[1], g1_of(&t, &fds[1]));
        // The served dataset shapes, dirtied, over the whole lattice a
        // capped space scores (determinants of up to two attributes).
        for (name, rows) in [
            (DatasetName::Hospital, 300),
            (DatasetName::Omdb, 160),
            (DatasetName::Tax, 300),
        ] {
            let mut ds = name.generate(rows, 7);
            let cfg = et_data::InjectConfig::with_degree(0.15, 11);
            let _ = et_data::inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
            let space = crate::space::HypothesisSpace::enumerate(ds.table.schema().len() as u16, 3);
            let cache = crate::cache::PartitionCache::new(&ds.table);
            let all = g1_per_fd(&ds.table, space.fds(), &cache);
            for (fd, g) in space.fds().iter().zip(&all) {
                assert_eq!(*g, g1_of(&ds.table, fd), "{name:?} {fd}");
            }
        }
    }

    #[test]
    fn empty_table_is_zero() {
        let t = et_data::Table::builder(et_data::Schema::new(["a", "b"])).finish();
        let g = g1_of(&t, &Fd::from_attrs([0], 1));
        assert_eq!(g.g1(), 0.0);
        assert!(g.is_exact());
    }

    /// Brute-force pair enumeration for cross-checking.
    fn g1_brute(table: &Table, fd: &Fd) -> (u64, u64) {
        let lhs = fd.lhs_vec();
        let mut viol = 0;
        let mut risk = 0;
        for a in 0..table.nrows() {
            for b in (a + 1)..table.nrows() {
                if table.rows_agree_on(a, b, &lhs) {
                    risk += 1;
                    if table.sym(a, fd.rhs) != table.sym(b, fd.rhs) {
                        viol += 1;
                    }
                }
            }
        }
        (viol, risk)
    }

    proptest! {
        #[test]
        fn grouped_matches_bruteforce(rows in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 0..40)) {
            let mut b = Table::builder(et_data::Schema::new(["x", "y", "a"]));
            for (x, y, a) in &rows {
                b.push_row(&[format!("x{x}"), format!("y{y}"), format!("a{a}")]);
            }
            let t = b.finish();
            for fd in [Fd::from_attrs([0], 2), Fd::from_attrs([0, 1], 2), Fd::from_attrs([1], 0)] {
                let g = g1_of(&t, &fd);
                let (viol, risk) = g1_brute(&t, &fd);
                prop_assert_eq!(g.violating_pairs, viol);
                prop_assert_eq!(g.lhs_pairs, risk);
                prop_assert!(g.g1() >= 0.0 && g.g1() <= 1.0);
                prop_assert!(g.violation_rate() >= 0.0 && g.violation_rate() <= 1.0);
            }
        }
    }
}
