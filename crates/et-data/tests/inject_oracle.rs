//! Property tests pinning the incremental [`inject_errors`] and
//! [`PairIndex`] to the recompute-everything implementation they replace:
//! bit-identical tables, ground truth and achieved degrees, and pair counts
//! equal to a `HashSet` union after every edit.

#![expect(
    clippy::indexing_slicing,
    reason = "the oracle keeps inject_errors' bounds: rows from the table's groups are < n_rows, fd comes from the weighted pick over all_fds, and random positions are drawn from 0..len of the vec they index"
)]
#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test fixtures cast small indices and sizes"
)]

use proptest::prelude::*;

use et_data::gen::DatasetName;
use et_data::inject::{pair_counts, PairCounts, PairIndex};
use et_data::table::paper_table1;
use et_data::{inject_errors, AttrId, FdSpec, InjectConfig, Injection, Schema, Table};

/// The pre-incremental implementation, kept verbatim as the oracle: exact
/// counts rebuilt from `HashSet` unions of every FD's at-risk pairs after
/// each batch, and a fresh `group_by` for every edit.
mod oracle {
    use std::collections::HashSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use et_data::inject::PairCounts;
    use et_data::{AttrId, FdSpec, InjectConfig, Injection, Table};

    /// Violating / at-risk pair counts over the union of `fds`.
    pub(super) fn pair_counts(table: &Table, fds: &[FdSpec]) -> PairCounts {
        let mut violating: HashSet<(u32, u32)> = HashSet::new();
        let mut at_risk: HashSet<(u32, u32)> = HashSet::new();
        for fd in fds {
            let lhs: Vec<AttrId> = fd.lhs.iter().map(|&a| a as AttrId).collect();
            let rhs = fd.rhs as AttrId;
            let grouped = table.group_by(&lhs);
            for group in &grouped.groups {
                if group.len() < 2 {
                    continue;
                }
                for (i, &a) in group.iter().enumerate() {
                    for &b in &group[i + 1..] {
                        let key = (a.min(b), a.max(b));
                        at_risk.insert(key);
                        if table.sym(a as usize, rhs) != table.sym(b as usize, rhs) {
                            violating.insert(key);
                        }
                    }
                }
            }
        }
        PairCounts {
            violating: violating.len(),
            at_risk: at_risk.len(),
        }
    }

    /// All unordered pairs `(a, b)` with `a < b` violating at least one FD.
    pub(super) fn violating_pairs(table: &Table, fds: &[FdSpec]) -> HashSet<(u32, u32)> {
        let mut out = HashSet::new();
        for fd in fds {
            let lhs: Vec<AttrId> = fd.lhs.iter().map(|&a| a as AttrId).collect();
            let rhs = fd.rhs as AttrId;
            let grouped = table.group_by(&lhs);
            for group in &grouped.groups {
                for (i, &a) in group.iter().enumerate() {
                    for &b in &group[i + 1..] {
                        if table.sym(a as usize, rhs) != table.sym(b as usize, rhs) {
                            out.insert((a.min(b), a.max(b)));
                        }
                    }
                }
            }
        }
        out
    }

    /// Error injection with counts recomputed after every batch.
    pub(super) fn inject_errors(
        table: &mut Table,
        targets: &[FdSpec],
        alts: &[FdSpec],
        cfg: &InjectConfig,
    ) -> Injection {
        assert!((0.0..1.0).contains(&cfg.degree));
        assert!(!targets.is_empty() || !alts.is_empty());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc2b2_ae3d_27d4_eb4f);
        let n = table.nrows();
        let all_fds: Vec<FdSpec> = targets.iter().chain(alts.iter()).cloned().collect();
        let weights: Vec<f64> = targets
            .iter()
            .map(|_| cfg.target_weight)
            .chain(alts.iter().map(|_| cfg.alt_weight))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        assert!(weight_sum > 0.0);

        let mut dirty_rows = vec![false; n];
        let mut dirty_cells: HashSet<(usize, AttrId)> = HashSet::new();
        let mut edits = 0usize;
        let mut noise_counter = 0usize;

        let mut counts = pair_counts(table, &all_fds);
        let mut achieved = counts.degree();
        while achieved < cfg.degree && edits < cfg.max_edits {
            let deficit_pairs = (cfg.degree - achieved) * counts.at_risk.max(1) as f64;
            let batch = ((deficit_pairs / (n as f64 * 0.2)).ceil() as usize).clamp(1, 32);
            let mut made_progress = false;
            for _ in 0..batch {
                if edits >= cfg.max_edits {
                    break;
                }
                let mut pick = rng.gen::<f64>() * weight_sum;
                let mut fd = &all_fds[0];
                for (i, w) in weights.iter().enumerate() {
                    if pick < *w {
                        fd = &all_fds[i];
                        break;
                    }
                    pick -= w;
                }
                let lhs: Vec<AttrId> = fd.lhs.iter().map(|&a| a as AttrId).collect();
                let rhs = fd.rhs as AttrId;
                let grouped = table.group_by(&lhs);
                let multi: Vec<&Vec<u32>> =
                    grouped.groups.iter().filter(|g| g.len() >= 2).collect();
                if multi.is_empty() {
                    continue;
                }
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
                let new_text = if rng.gen::<f64>() < cfg.fresh_value_prob {
                    noise_counter += 1;
                    format!("~noise_{noise_counter}")
                } else {
                    existing_other_value(table, rhs, old, &mut rng).unwrap_or_else(|| {
                        noise_counter += 1;
                        format!("~noise_{noise_counter}")
                    })
                };
                table.set_text(row, rhs, &new_text);
                dirty_rows[row] = true;
                dirty_cells.insert((row, rhs));
                edits += 1;
                made_progress = true;
            }
            if !made_progress {
                break;
            }
            counts = pair_counts(table, &all_fds);
            achieved = counts.degree();
        }

        let mut cells: Vec<(usize, AttrId)> = dirty_cells.into_iter().collect();
        cells.sort_unstable();
        Injection {
            dirty_rows,
            dirty_cells: cells,
            edits,
            achieved_degree: achieved,
        }
    }

    fn existing_other_value(
        table: &Table,
        attr: AttrId,
        old: u32,
        rng: &mut StdRng,
    ) -> Option<String> {
        let card = table.dict_len(attr);
        if card < 2 {
            return None;
        }
        let mut alt_sym = rng.gen_range(0..card) as u32;
        if alt_sym == old {
            alt_sym = (alt_sym + 1) % card as u32;
        }
        (0..table.nrows())
            .find(|&r| table.sym(r, attr) == alt_sym)
            .map(|r| table.text(r, attr).to_owned())
    }
}

fn texts(table: &Table) -> Vec<Vec<String>> {
    (0..table.nrows()).map(|r| table.row_texts(r)).collect()
}

fn assert_same_injection(got: &Injection, want: &Injection) {
    assert_eq!(got.dirty_rows, want.dirty_rows);
    assert_eq!(got.dirty_cells, want.dirty_cells);
    assert_eq!(got.edits, want.edits);
    assert_eq!(
        got.achieved_degree.to_bits(),
        want.achieved_degree.to_bits()
    );
}

#[test]
fn paper_example_counts_match_oracle() {
    // Table 1 with Team -> City: only (t1, t2) violates; the Lakers and
    // Bulls pairs are at risk.
    let t = paper_table1();
    let fd = FdSpec::new(vec![1], 2);
    let pairs = oracle::violating_pairs(&t, std::slice::from_ref(&fd));
    assert_eq!(pairs.into_iter().collect::<Vec<_>>(), vec![(0, 1)]);
    let want = PairCounts {
        violating: 1,
        at_risk: 2,
    };
    assert_eq!(oracle::pair_counts(&t, std::slice::from_ref(&fd)), want);
    assert_eq!(pair_counts(&t, std::slice::from_ref(&fd)), want);
}

/// A random table over `cols` small-cardinality columns.
fn arb_table(cols: usize) -> impl Strategy<Value = Table> {
    proptest::collection::vec(proptest::collection::vec(0u8..4, cols), 0..40).prop_map(
        move |rows| {
            let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
            let mut b = Table::builder(Schema::new(names));
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                b.push_row(&cells);
            }
            b.finish()
        },
    )
}

/// FDs over five columns that always include the chain `0 -> 1 -> 2`
/// (an RHS feeding another FD's LHS, as Hospital's `9 -> 7 -> 5`), plus
/// random extras; duplicates and multi-attribute LHSs are allowed.
fn arb_chained_fds() -> impl Strategy<Value = Vec<FdSpec>> {
    let extra = (proptest::collection::vec(0usize..5, 1..3), 0usize..5);
    proptest::collection::vec(extra, 0..4).prop_map(|extras| {
        let mut fds = vec![FdSpec::new(vec![0], 1), FdSpec::new(vec![1], 2)];
        fds.extend(
            extras
                .into_iter()
                .filter(|(lhs, rhs)| !lhs.contains(rhs))
                .map(|(lhs, rhs)| FdSpec::new(lhs, rhs)),
        );
        fds
    })
}

/// Random single-cell edits: (row seed, column, value). Values beyond the
/// table's range intern fresh symbols.
fn arb_edits() -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    proptest::collection::vec((0usize..1000, 0usize..5, 0u8..6), 0..30)
}

/// A generated dataset: Hospital, OMDB or Tax at a random size and seed.
fn arb_dataset() -> impl Strategy<Value = et_data::GeneratedDataset> {
    prop_oneof![
        (40usize..260, 0u64..1_000).prop_map(|(r, s)| DatasetName::Hospital.generate(r, s)),
        (30usize..260, 0u64..1_000).prop_map(|(r, s)| DatasetName::Omdb.generate(r, s)),
        (40usize..220, 0u64..1_000).prop_map(|(r, s)| DatasetName::Tax.generate(r, s)),
    ]
}

/// `(target_weight, alt_weight, fresh_value_prob)`.
fn arb_weights() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.5f64..3.0, 0.0f64..3.0, 0.0f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental counts equal the `HashSet` union on the initial
    /// table and after every edit, including edits to LHS columns that
    /// regroup downstream FDs.
    #[test]
    fn pair_index_matches_oracle_after_every_edit(
        table in arb_table(5),
        fds in arb_chained_fds(),
        edits in arb_edits(),
    ) {
        let mut table = table;
        let mut index = PairIndex::new(&table, &fds);
        prop_assert_eq!(index.counts(), oracle::pair_counts(&table, &fds));
        if table.nrows() == 0 {
            return Ok(());
        }
        for (row, col, v) in edits {
            let row = row % table.nrows();
            index.set_text(&mut table, row, col as AttrId, &format!("v{v}"));
            prop_assert_eq!(index.counts(), oracle::pair_counts(&table, &fds));
            for (fi, fd) in fds.iter().enumerate() {
                let lhs: Vec<AttrId> = fd.lhs.iter().map(|&a| a as AttrId).collect();
                prop_assert_eq!(&index.groups(fi).groups, &table.group_by(&lhs).groups);
            }
        }
    }

    /// Injection is bit-identical to the oracle: same table texts, same
    /// ground truth, same achieved degree bits. A small `max_edits` cuts
    /// some runs mid-batch, so the degree read there checks the running
    /// counts at an arbitrary edit, not only at a batch boundary.
    #[test]
    fn inject_matches_oracle(
        ds in arb_dataset(),
        seed in any::<u64>(),
        degree in 0.0f64..0.35,
        n_targets in 1usize..4,
        weights in arb_weights(),
        max_edits in prop_oneof![1usize..40, Just(20_000usize)],
    ) {
        let (target_weight, alt_weight, fresh_value_prob) = weights;
        // Split the exact FDs into targets and a non-empty alternative set.
        let split = n_targets.min(ds.exact_fds.len() - 1);
        let (targets, alts) = ds.exact_fds.split_at(split);
        let cfg = InjectConfig {
            degree,
            target_weight,
            alt_weight,
            fresh_value_prob,
            max_edits,
            seed,
        };
        let mut got_table = ds.table.clone();
        let got = inject_errors(&mut got_table, targets, alts, &cfg);
        let mut want_table = ds.table.clone();
        let want = oracle::inject_errors(&mut want_table, targets, alts, &cfg);
        prop_assert_eq!(texts(&got_table), texts(&want_table));
        assert_same_injection(&got, &want);
        prop_assert_eq!(
            pair_counts(&got_table, &ds.exact_fds),
            oracle::pair_counts(&want_table, &ds.exact_fds)
        );
    }
}

/// The served create shape at its real size: Hospital-1000 at degree 0.10
/// with the exact FDs as targets, over a few seeds.
#[test]
fn hospital_1000_matches_oracle() {
    for seed in 0..3u64 {
        let ds = DatasetName::Hospital.generate(1000, seed);
        let cfg = InjectConfig::with_degree(0.10, seed ^ 0xBE);
        let mut got_table = ds.table.clone();
        let got = inject_errors(&mut got_table, &ds.exact_fds, &[], &cfg);
        let mut want_table = ds.table.clone();
        let want = oracle::inject_errors(&mut want_table, &ds.exact_fds, &[], &cfg);
        assert_eq!(texts(&got_table), texts(&want_table));
        assert_same_injection(&got, &want);
    }
}
