//! BART-style error injection (Arocena et al., PVLDB 2015).
//!
//! The paper introduces violations "with an error generation tool that
//! scrambles values w.r.t. the target FD", controlling both the overall
//! *degree of violation* (the fraction of tuple pairs that violate some FD —
//! the empirical study sweeps ≈5%…≈25% and up to 35%) and the *violation
//! ratio* between target and alternative FDs (the user study uses 1/3 and
//! 2/3).
//!
//! **Degree semantics.** Only pairs that agree on some FD's left-hand side
//! can violate that FD, so we define the degree of violation as
//!
//! ```text
//! degree = |pairs violating ≥ 1 FD| / |pairs agreeing on ≥ 1 FD's LHS|
//! ```
//!
//! i.e. relative to the pairs *at risk*. (Relative to all `C(n,2)` pairs the
//! paper's 25–35% degrees would be unreachable on realistic group
//! structures.) [`absolute_violation_degree`] provides the `C(n,2)`
//! denominator for diagnostics.
//!
//! [`inject_errors`] perturbs right-hand-side cells of randomly chosen
//! tuples inside left-hand-side groups until the requested degree is
//! reached, recording ground-truth dirty rows and cells for later F1
//! evaluation.
//!
//! [`PairIndex`] keeps both pair counts exact as edits arrive, so the
//! injector never recounts the table between batches.

#![expect(
    clippy::indexing_slicing,
    reason = "row ids come from the table's own LHS groupings, so they are < n_rows, the length of stamp and dirty_rows, and a row's row_group id indexes the groups built by the same group_by; the weighted pick leaves fd < all_fds.len(), the number of groupings the index holds, and callers of groups(fd) pass a position in that same FD list; multi is non-empty where multi[0] is read, and random positions are drawn from 0..len of the vec they index"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schema::AttrId;
use crate::table::{GroupedRows, Interner, Table};
use crate::FdSpec;

/// Configuration for [`inject_errors`].
#[derive(Debug, Clone)]
pub struct InjectConfig {
    /// Requested degree of violation: the fraction of *at-risk* tuple pairs
    /// (pairs agreeing on some FD's LHS) violating at least one FD.
    pub degree: f64,
    /// Relative frequency with which *target* FDs are perturbed.
    pub target_weight: f64,
    /// Relative frequency with which *alternative* FDs are perturbed. The
    /// paper's "violation ratio m/n" maps to `target_weight = m`,
    /// `alt_weight = n`.
    pub alt_weight: f64,
    /// Probability that a scrambled cell receives a brand-new noise value
    /// rather than another existing value of the column.
    pub fresh_value_prob: f64,
    /// Hard cap on cell edits (safety against unreachable degrees).
    pub max_edits: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InjectConfig {
    fn default() -> Self {
        Self {
            degree: 0.10,
            target_weight: 1.0,
            alt_weight: 1.0,
            fresh_value_prob: 0.5,
            max_edits: 20_000,
            seed: 0,
        }
    }
}

impl InjectConfig {
    /// Convenience constructor for a degree with default ratios.
    pub fn with_degree(degree: f64, seed: u64) -> Self {
        Self {
            degree,
            seed,
            ..Self::default()
        }
    }

    /// Sets the paper's violation ratio `m/n` (target violations per
    /// alternative violation).
    pub fn with_ratio(mut self, target: f64, alt: f64) -> Self {
        self.target_weight = target;
        self.alt_weight = alt;
        self
    }
}

/// Ground truth produced by [`inject_errors`].
#[derive(Debug, Clone)]
pub struct Injection {
    /// For every row, whether any of its cells were scrambled.
    pub dirty_rows: Vec<bool>,
    /// Every scrambled cell (row, attribute), deduplicated and sorted.
    pub dirty_cells: Vec<(usize, AttrId)>,
    /// Number of cell edits performed.
    pub edits: usize,
    /// The violation degree actually achieved.
    pub achieved_degree: f64,
}

impl Injection {
    /// Number of dirty rows.
    pub fn dirty_row_count(&self) -> usize {
        self.dirty_rows.iter().filter(|&&d| d).count()
    }
}

/// Violating and at-risk pair counts for a set of FDs over a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Unordered pairs violating at least one FD.
    pub violating: usize,
    /// Unordered pairs agreeing on at least one FD's LHS.
    pub at_risk: usize,
}

impl PairCounts {
    /// The degree of violation (0 when nothing is at risk).
    pub fn degree(&self) -> f64 {
        if self.at_risk == 0 {
            0.0
        } else {
            self.violating as f64 / self.at_risk as f64
        }
    }
}

/// Exact violating / at-risk pair counts over the union of a set of FDs,
/// kept current under single-cell edits.
///
/// The index holds one LHS grouping per FD. A pair `(r, s)` is at risk when
/// some FD puts both rows in one LHS group, and violating when some such FD
/// also sees different RHS values. An edit to row `r` can only change the
/// status of pairs `(r, s)` with `s` in one of `r`'s groups before or after
/// the edit, so [`PairIndex::set_text`] re-evaluates exactly that
/// neighbourhood and applies the difference (DESIGN.md §"et-data").
#[derive(Debug, Clone)]
pub struct PairIndex {
    lhs: Vec<Vec<AttrId>>,
    rhs: Vec<AttrId>,
    groupings: Vec<GroupedRows>,
    counts: PairCounts,
    /// Per-row visit stamps deduplicating a neighbourhood walk.
    stamp: Vec<u32>,
    epoch: u32,
    /// The rows of the current neighbourhood walk.
    nbrs: Vec<u32>,
}

impl PairIndex {
    /// Groups `table` by every FD's LHS and counts its pairs.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn new(table: &Table, fds: &[FdSpec]) -> Self {
        let lhs: Vec<Vec<AttrId>> = fds
            .iter()
            .map(|fd| fd.lhs.iter().map(|&a| a as AttrId).collect())
            .collect();
        let mut index = Self {
            groupings: lhs.iter().map(|l| table.group_by(l)).collect(),
            rhs: fds.iter().map(|fd| fd.rhs as AttrId).collect(),
            lhs,
            counts: PairCounts::default(),
            stamp: vec![0; table.nrows()],
            epoch: 0,
            nbrs: Vec::new(),
        };
        // Each unordered pair is counted from its smaller row.
        for row in 0..table.nrows() {
            index.start_walk(row);
            index.extend_walk(row, row as u32 + 1);
            let (at_risk, violating) = index.tally(table, row);
            index.counts.at_risk += at_risk;
            index.counts.violating += violating;
        }
        index
    }

    /// The current pair counts.
    pub fn counts(&self) -> PairCounts {
        self.counts
    }

    /// The LHS grouping of the `fd`-th FD, in first-occurrence order.
    pub fn groups(&self, fd: usize) -> &GroupedRows {
        &self.groupings[fd]
    }

    /// Overwrites cell (`row`, `attr`) of `table` with `text`, regrouping
    /// the FDs whose LHS contains `attr` and updating the counts by the
    /// change over `row`'s neighbourhood. `table` must be the table the
    /// index was built over, edited since only through this method.
    pub fn set_text(&mut self, table: &mut Table, row: usize, attr: AttrId, text: &str) {
        let sym = table.intern_by_scan(attr, text);
        self.set_sym(table, row, attr, sym);
    }

    /// [`PairIndex::set_text`] with the new cell given as a symbol of
    /// `attr`'s dictionary.
    fn set_sym(&mut self, table: &mut Table, row: usize, attr: AttrId, sym: u32) {
        self.start_walk(row);
        self.extend_walk(row, 0);
        let (at_risk_before, violating_before) = self.tally(table, row);
        table.set_sym(row, attr, sym);
        for (lhs, grouping) in self.lhs.iter().zip(&mut self.groupings) {
            if lhs.contains(&attr) {
                *grouping = table.group_by(lhs);
            }
        }
        // Rows that join `row`'s groups only now were not at risk with it
        // before, so the "before" tally above already covers them.
        self.extend_walk(row, 0);
        let (at_risk_after, violating_after) = self.tally(table, row);
        self.counts.at_risk = self.counts.at_risk + at_risk_after - at_risk_before;
        self.counts.violating = self.counts.violating + violating_after - violating_before;
    }

    /// Starts a new walk around `row`: clears the neighbourhood and marks
    /// `row` itself as visited.
    fn start_walk(&mut self, row: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.nbrs.clear();
        self.stamp[row] = self.epoch;
    }

    /// Adds the unvisited members `>= from` of `row`'s groups to the walk.
    fn extend_walk(&mut self, row: usize, from: u32) {
        for grouping in &self.groupings {
            let group = &grouping.groups[grouping.row_group[row] as usize];
            // Groups list their rows in ascending order.
            let start = group.partition_point(|&s| s < from);
            for &s in &group[start..] {
                if self.stamp[s as usize] != self.epoch {
                    self.stamp[s as usize] = self.epoch;
                    self.nbrs.push(s);
                }
            }
        }
    }

    /// `(at-risk, violating)` pair counts between `row` and the walk.
    fn tally(&self, table: &Table, row: usize) -> (usize, usize) {
        let mut at_risk = 0;
        let mut violating = 0;
        for &s in &self.nbrs {
            let s = s as usize;
            let mut risk = false;
            let mut viol = false;
            for (grouping, &rhs) in self.groupings.iter().zip(&self.rhs) {
                if grouping.row_group[row] == grouping.row_group[s] {
                    risk = true;
                    if table.sym(row, rhs) != table.sym(s, rhs) {
                        viol = true;
                        break;
                    }
                }
            }
            at_risk += usize::from(risk);
            violating += usize::from(viol);
        }
        (at_risk, violating)
    }
}

/// Computes violating / at-risk pair counts over the union of `fds`.
pub fn pair_counts(table: &Table, fds: &[FdSpec]) -> PairCounts {
    PairIndex::new(table, fds).counts()
}

/// The degree of violation of `fds` over `table`: violating pairs as a
/// fraction of at-risk pairs (pairs agreeing on some FD's LHS).
pub fn violation_degree(table: &Table, fds: &[FdSpec]) -> f64 {
    pair_counts(table, fds).degree()
}

/// Violating pairs as a fraction of *all* `C(n,2)` pairs (diagnostics).
pub fn absolute_violation_degree(table: &Table, fds: &[FdSpec]) -> f64 {
    let n = table.nrows();
    if n < 2 {
        return 0.0;
    }
    let total = n as f64 * (n as f64 - 1.0) / 2.0;
    pair_counts(table, fds).violating as f64 / total
}

/// Scrambles RHS cells of `table` until the violation degree over
/// `targets ∪ alts` reaches `cfg.degree` (or `cfg.max_edits` is hit).
///
/// Edits pick an FD (targets weighted by `target_weight`, alternatives by
/// `alt_weight`), pick a clean row inside one of that FD's multi-row LHS
/// groups, and overwrite the RHS cell with a different value. Returns the
/// dirty-row / dirty-cell ground truth.
///
/// # Panics
/// Panics when `cfg.degree` is outside `[0, 1)`, when no FDs are given, or
/// when every FD weight is zero.
pub fn inject_errors(
    table: &mut Table,
    targets: &[FdSpec],
    alts: &[FdSpec],
    cfg: &InjectConfig,
) -> Injection {
    assert!(
        (0.0..1.0).contains(&cfg.degree),
        "degree must be in [0, 1), got {}",
        cfg.degree
    );
    assert!(!targets.is_empty() || !alts.is_empty(), "no FDs to violate");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc2b2_ae3d_27d4_eb4f);
    let n = table.nrows();
    let all_fds: Vec<FdSpec> = targets.iter().chain(alts.iter()).cloned().collect();
    let weights: Vec<f64> = targets
        .iter()
        .map(|_| cfg.target_weight)
        .chain(alts.iter().map(|_| cfg.alt_weight))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    assert!(weight_sum > 0.0, "at least one FD weight must be positive");

    let mut dirty_rows = vec![false; n];
    let mut dirty_cells: Vec<(usize, AttrId)> = Vec::new();
    let mut edits = 0usize;
    let mut noise_counter = 0usize;

    let mut index = PairIndex::new(table, &all_fds);
    // Text -> symbol maps of the columns the loop writes noise into, built
    // on a column's first noise edit and dropped on return.
    let mut interner = Interner::default();
    let mut achieved = index.counts().degree();
    while achieved < cfg.degree && edits < cfg.max_edits {
        // Batch a few edits when far from the target, single-step when
        // close; the degree is read once per batch.
        let deficit_pairs = (cfg.degree - achieved) * index.counts().at_risk.max(1) as f64;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "batch size is clamped to [1, 32] on the same expression"
        )]
        let batch = ((deficit_pairs / (n as f64 * 0.2)).ceil() as usize).clamp(1, 32);
        let mut made_progress = false;
        for _ in 0..batch {
            if edits >= cfg.max_edits {
                break;
            }
            // Weighted FD choice.
            let mut pick = rng.gen::<f64>() * weight_sum;
            let mut fd = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    fd = i;
                    break;
                }
                pick -= w;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
            )]
            let rhs = all_fds[fd].rhs as AttrId;
            let multi: Vec<&Vec<u32>> = index
                .groups(fd)
                .groups
                .iter()
                .filter(|g| g.len() >= 2)
                .collect();
            if multi.is_empty() {
                continue;
            }
            // Weight groups by size so big groups absorb proportionally more
            // errors (as BART does).
            let total_rows: usize = multi.iter().map(|g| g.len()).sum();
            let mut pick_row = rng.gen_range(0..total_rows);
            let mut chosen_group = multi[0];
            for g in &multi {
                if pick_row < g.len() {
                    chosen_group = g;
                    break;
                }
                pick_row -= g.len();
            }
            // Prefer rows not yet dirtied so errors spread instead of
            // churning the same cells.
            let clean_members: Vec<u32> = chosen_group
                .iter()
                .copied()
                .filter(|&r| !dirty_rows[r as usize])
                .collect();
            let row = if clean_members.is_empty() {
                chosen_group[rng.gen_range(0..chosen_group.len())] as usize
            } else {
                clean_members[rng.gen_range(0..clean_members.len())] as usize
            };
            let old = table.sym(row, rhs);
            let existing = if rng.gen::<f64>() < cfg.fresh_value_prob {
                None
            } else {
                existing_other_value(table, rhs, old, &mut rng)
            };
            let sym = existing.unwrap_or_else(|| {
                noise_counter += 1;
                interner.intern(table, rhs, &format!("~noise_{noise_counter}"))
            });
            index.set_sym(table, row, rhs, sym);
            dirty_rows[row] = true;
            dirty_cells.push((row, rhs));
            edits += 1;
            made_progress = true;
        }
        if !made_progress {
            break; // no multi-row groups left to perturb
        }
        achieved = index.counts().degree();
    }

    interner.finish(table);
    dirty_cells.sort_unstable();
    dirty_cells.dedup();
    Injection {
        dirty_rows,
        dirty_cells,
        edits,
        achieved_degree: achieved,
    }
}

/// Picks a symbol of column `attr` other than `old` that some cell still
/// holds, if the draw lands on one.
#[expect(
    clippy::cast_possible_truncation,
    reason = "symbols are interned as u32 by Column::push_entry, so dict_len fits u32"
)]
fn existing_other_value(table: &Table, attr: AttrId, old: u32, rng: &mut StdRng) -> Option<u32> {
    let card = table.dict_len(attr);
    if card < 2 {
        return None;
    }
    let mut alt_sym = rng.gen_range(0..card) as u32;
    if alt_sym == old {
        alt_sym = (alt_sym + 1) % card as u32;
    }
    table.syms(attr).contains(&alt_sym).then_some(alt_sym)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::omdb;
    use crate::table::paper_table1;

    #[test]
    fn paper_example_pairs() {
        // Table 1 with Team -> City: only (t1, t2) violates. At-risk pairs:
        // Lakers {t1,t2} and Bulls {t3,t4} -> 2 pairs; degree = 1/2.
        let t = paper_table1();
        let fd = FdSpec::new(vec![1], 2);
        let counts = pair_counts(&t, std::slice::from_ref(&fd));
        assert_eq!(counts.at_risk, 2);
        assert_eq!(counts.violating, 1);
        assert!((violation_degree(&t, std::slice::from_ref(&fd)) - 0.5).abs() < 1e-12);
        // Absolute variant: 1 violating pair over C(5,2)=10.
        assert!((absolute_violation_degree(&t, &[fd]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn clean_data_has_zero_degree() {
        let ds = omdb(200, 1);
        assert_eq!(violation_degree(&ds.table, &ds.exact_fds), 0.0);
    }

    #[test]
    fn injection_reaches_requested_degree() {
        let mut ds = omdb(250, 2);
        let cfg = InjectConfig::with_degree(0.10, 7);
        let inj = inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
        assert!(
            inj.achieved_degree >= 0.10,
            "achieved {}",
            inj.achieved_degree
        );
        assert!(
            inj.achieved_degree < 0.20,
            "overshot: {}",
            inj.achieved_degree
        );
        assert!(inj.dirty_row_count() > 0);
        assert_eq!(
            violation_degree(&ds.table, &ds.exact_fds),
            inj.achieved_degree
        );
    }

    #[test]
    fn high_degrees_reachable() {
        let mut ds = omdb(200, 4);
        let cfg = InjectConfig::with_degree(0.30, 11);
        let inj = inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
        assert!(
            inj.achieved_degree >= 0.30,
            "achieved {}",
            inj.achieved_degree
        );
    }

    #[test]
    fn dirty_ground_truth_matches_edits() {
        let mut ds = omdb(150, 3);
        let cfg = InjectConfig::with_degree(0.05, 9);
        let inj = inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
        assert!(inj.edits >= inj.dirty_cells.len());
        for &(row, _) in &inj.dirty_cells {
            assert!(inj.dirty_rows[row]);
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let run = |seed| {
            let mut ds = omdb(120, 4);
            let cfg = InjectConfig::with_degree(0.08, seed);
            let inj = inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
            (inj.dirty_cells.clone(), inj.achieved_degree)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn ratio_skews_violations_toward_targets() {
        let mut ds = omdb(300, 8);
        let fds = ds.exact_fds.clone();
        let (target, alts) = fds.split_first().unwrap();
        let cfg = InjectConfig::with_degree(0.12, 3).with_ratio(3.0, 1.0);
        let _ = inject_errors(&mut ds.table, std::slice::from_ref(target), alts, &cfg);
        let t_deg = violation_degree(&ds.table, std::slice::from_ref(target));
        let per_alt: Vec<f64> = alts
            .iter()
            .map(|f| violation_degree(&ds.table, std::slice::from_ref(f)))
            .collect();
        let max_alt = per_alt.iter().cloned().fold(0.0, f64::max);
        assert!(
            t_deg > max_alt * 0.8,
            "target degree {t_deg} vs alternatives {per_alt:?}"
        );
    }

    #[test]
    fn zero_degree_request_is_noop() {
        let mut ds = omdb(100, 1);
        let before = ds.table.clone();
        let cfg = InjectConfig::with_degree(0.0, 1);
        let inj = inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
        assert_eq!(inj.edits, 0);
        for r in 0..before.nrows() {
            assert_eq!(before.row_texts(r), ds.table.row_texts(r));
        }
    }

    #[test]
    fn pair_counts_degree_handles_empty() {
        assert_eq!(PairCounts::default().degree(), 0.0);
    }
}
