//! Machine-readable substrate benchmarks: deterministic wall-clock stats
//! for the partition-cache fast paths, emitted as `BENCH_substrate.json`.
//!
//! ```text
//! bench_json                     # full profile, writes BENCH_substrate.json
//! bench_json --quick             # CI smoke profile (small fixture, few iters)
//! bench_json --out path.json     # alternate output path
//! bench_json --gate NAME:MIN     # exit 1 if derived NAME < MIN (repeatable)
//! ```
//!
//! Unlike the criterion benches (interactive, statistical), this binary is
//! the *perf-trajectory recorder*: a fixed fixture, a fixed bench list, and
//! a JSON file that can be checked in and diffed across PRs.
//!
//! Derived speedups are computed from **medians of interleaved runs**: the
//! two sides of a ratio alternate iteration by iteration, so a frequency
//! ramp or a noisy neighbour biases both sides alike instead of whichever
//! ran second. A derived speedup below 1.0 is flagged `"regressed": true`
//! in the emitted JSON and `--gate` turns any such floor into an exit code.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use et_bench::cli::{self, Cli};
use et_bench::fixtures::{fixture, Fixture};
use et_core::{
    recover_session, run_session, top_k_indices, CandidatePool, FpTrainer, JournalConfig, Learner,
    ResponseStrategy, SessionConfig, SessionJournal, SessionState, StrategyKind, Trainer,
};
use et_data::gen::DatasetName;
use et_data::{inject_errors, InjectConfig, Table};
use et_durable::{FsyncPolicy, Wal};
use et_fd::{
    pair_dirty_probs_with, predict_labels, DeltaScorer, DetectParams, Fd, HypothesisSpace,
    PairScores, PartitionCache, RelationMatrix, SubsampleIndex, ViolationIndex,
};
use et_serve::{build_parts, CreateSessionSpec, Json, Response, WirePair};

/// Wall-clock stats of one bench, in seconds.
struct BenchStats {
    name: &'static str,
    iters: usize,
    min: f64,
    mean: f64,
    median: f64,
    max: f64,
}

/// Runs `f` for `iters` measured iterations after `warmup` unmeasured
/// ones, returning the per-iteration wall-clock samples in run order.
fn collect_samples<R>(warmup: usize, iters: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples
}

/// Reduces samples to [`BenchStats`], dividing each sample by `scale`
/// (scale > 1 reports a per-unit latency, e.g. per round of a session).
fn stats_from(name: &'static str, samples: &[f64], scale: f64) -> BenchStats {
    let mut sorted: Vec<f64> = samples.iter().map(|s| s / scale).collect();
    sorted.sort_by(f64::total_cmp);
    let min = sorted.first().copied().unwrap_or(0.0);
    let max = sorted.last().copied().unwrap_or(0.0);
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    let median = if sorted.is_empty() {
        0.0
    } else {
        sorted[sorted.len() / 2]
    };
    eprintln!(
        "  {name}: mean {:.3} ms over {} iters",
        mean * 1e3,
        sorted.len()
    );
    BenchStats {
        name,
        iters: sorted.len(),
        min,
        mean,
        median,
        max,
    }
}

/// Times `f` for `iters` measured runs after `warmup` unmeasured ones.
fn time_bench<R>(
    name: &'static str,
    warmup: usize,
    iters: usize,
    f: impl FnMut() -> R,
) -> BenchStats {
    let samples = collect_samples(warmup, iters, f);
    stats_from(name, &samples, 1.0)
}

/// Times two benches with their iterations interleaved (a, b, a, b, …) so
/// a derived a/b ratio compares like against like under clock drift. Both
/// sides get `warmup` unmeasured alternating rounds first.
fn time_bench_interleaved<RA, RB>(
    name_a: &'static str,
    name_b: &'static str,
    warmup: usize,
    iters: usize,
    mut fa: impl FnMut() -> RA,
    mut fb: impl FnMut() -> RB,
) -> (BenchStats, BenchStats) {
    let [a, b] = time_benches_interleaved(
        [name_a, name_b],
        warmup,
        iters,
        [
            &mut || {
                black_box(fa());
            },
            &mut || {
                black_box(fb());
            },
        ],
    );
    (a, b)
}

/// [`time_bench_interleaved`] over any number of sides: each iteration
/// runs every side once, in order, timing each on its own.
fn time_benches_interleaved<const N: usize>(
    names: [&'static str; N],
    warmup: usize,
    iters: usize,
    mut sides: [&mut dyn FnMut(); N],
) -> [BenchStats; N] {
    for _ in 0..warmup {
        for f in sides.iter_mut() {
            f();
        }
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(iters));
    for _ in 0..iters {
        for (f, out) in sides.iter_mut().zip(samples.iter_mut()) {
            let t0 = Instant::now();
            f();
            out.push(t0.elapsed().as_secs_f64());
        }
    }
    std::array::from_fn(|i| stats_from(names[i], &samples[i], 1.0))
}

/// The index build as it existed before the partition cache: one
/// `group_by` hash pass per distinct LHS and an `O(group · distinct-RHS)`
/// linear-scan counting loop per group. Kept inline so the emitted JSON
/// always carries an honest before/after pair.
fn index_build_legacy(table: &Table, space: &HypothesisSpace) -> u64 {
    let mut total_violating = 0u64;
    for lhs in space.distinct_lhs() {
        let lhs_attrs: Vec<u16> = lhs.to_vec();
        let grouped = table.group_by(&lhs_attrs);
        for (_, fd) in space.iter().filter(|(_, fd)| fd.lhs == lhs) {
            let mut rhs_counts: Vec<(u32, u64)> = Vec::new();
            for group in &grouped.groups {
                let g = group.len() as u64;
                if g < 2 {
                    continue;
                }
                rhs_counts.clear();
                for &row in group {
                    let s = table.sym(row as usize, fd.rhs);
                    match rhs_counts.iter_mut().find(|(sym, _)| *sym == s) {
                        Some((_, c)) => *c += 1,
                        None => rhs_counts.push((s, 1)),
                    }
                }
                let sum_sq: u64 = rhs_counts.iter().map(|(_, c)| c * c).sum();
                total_violating += (g * g - sum_sq) / 2;
            }
        }
    }
    total_violating
}

/// Deterministic growing sample: `rounds` batches of `per_round` row ids.
fn sample_batches(n_rows: usize, rounds: usize, per_round: usize) -> Vec<Vec<usize>> {
    (0..rounds)
        .map(|t| {
            (0..per_round)
                .map(|i| (t * 17 + i * 3 + 1) % n_rows.max(1))
                .collect()
        })
        .collect()
}

fn run_benches(f: &Fixture, quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (1, 3) } else { (3, 25) };
    let session_iters = if quick { 2 } else { 5 };
    let rounds = if quick { 8 } else { 30 };
    let mut out = Vec::new();

    out.push(time_bench("index_build_legacy", warmup, iters, || {
        index_build_legacy(&f.table, &f.space)
    }));
    out.push(time_bench("index_build_fresh", warmup, iters, || {
        ViolationIndex::build(&f.table, &f.space)
    }));

    let cache = PartitionCache::new(&f.table);
    let _ = ViolationIndex::build_with(&f.table, &f.space, &cache); // warm
    out.push(time_bench("index_build_cached", warmup, iters, || {
        ViolationIndex::build_with(&f.table, &f.space, &cache)
    }));

    let batches = sample_batches(f.table.nrows(), rounds, 10);
    out.push(time_bench(
        "subsample_rebuild_rounds",
        warmup,
        iters,
        || {
            // Per-round fresh build over the materialized cumulative subset —
            // what the session layer did before the cache.
            let mut cumulative: Vec<usize> = Vec::new();
            let mut seen = vec![false; f.table.nrows()];
            let mut last = 0usize;
            for batch in &batches {
                for &r in batch {
                    if !seen[r] {
                        seen[r] = true;
                        cumulative.push(r);
                    }
                }
                let idx = ViolationIndex::build(&f.table.subset(&cumulative), &f.space);
                last = idx.n_rows();
            }
            last
        },
    ));
    out.push(time_bench(
        "subsample_restrict_rounds",
        warmup,
        iters,
        || {
            // Per-round O(|sample|) restriction of the cached partitions.
            let mut cumulative: Vec<usize> = Vec::new();
            let mut seen = vec![false; f.table.nrows()];
            let mut last = 0usize;
            for batch in &batches {
                for &r in batch {
                    if !seen[r] {
                        seen[r] = true;
                        cumulative.push(r);
                    }
                }
                let idx = ViolationIndex::build_subsample(&f.table, &f.space, &cache, &cumulative);
                last = idx.n_rows();
            }
            last
        },
    ));
    out.push(time_bench(
        "subsample_incremental_rounds",
        warmup,
        iters,
        || {
            // Incremental refinement: only the touched classes are recounted.
            let mut inc = SubsampleIndex::new(&f.table, &f.space);
            for batch in &batches {
                inc.grow(&f.table, &cache, batch);
            }
            inc.index().n_rows()
        },
    ));

    let pool = CandidatePool::build_with(&f.table, &f.space, &cache, 4000, 2);
    let pairs: Vec<(usize, usize)> = pool.pairs().iter().map(|p| (p.a, p.b)).collect();
    let conf: Vec<f64> = (0..f.space.len())
        .map(|i| 0.25 + 0.5 * ((i % 7) as f64) / 7.0)
        .collect();
    let params = DetectParams::unsmoothed();
    out.push(time_bench("scoring_naive_pool", warmup, iters, || {
        // Per-pair relation enumeration, as the strategies scored before
        // the matrix: one raw-cell scan of the space per candidate.
        let mut acc = 0.0f64;
        for &(a, b) in &pairs {
            let (pa, _) = pair_dirty_probs_with(&f.table, &f.space, &conf, a, b, &params);
            acc += pa;
        }
        acc
    }));
    out.push(time_bench("scoring_matrix_build", warmup, iters, || {
        RelationMatrix::build(&f.table, &f.space, &cache, &pairs)
    }));
    let matrix = RelationMatrix::build(&f.table, &f.space, &cache, &pairs);
    // The hot-path contract (L12): the same batch pass with caller-owned
    // scratch allocates nothing after the first round. Scores pinned
    // bit-exact against score_all by the relmatrix tests. The two sides
    // are interleaved because their ratio is a checked-in derived speedup.
    let mut factors = vec![0.0; f.space.len()];
    let mut scores = PairScores::zeroed(pairs.len());
    // Sub-millisecond sides need more than the headline iteration count
    // for a stable median; 60 interleaved runs still cost < 20ms total.
    let (with_alloc, alloc_free) = time_bench_interleaved(
        "scoring_matrix_score",
        "scoring_matrix_score_alloc_free",
        warmup.max(3),
        iters.max(60),
        || {
            let s = matrix.score_all(&conf, &params);
            s.dirty.iter().sum::<f64>()
        },
        || {
            matrix.score_all_into(&conf, &params, &mut factors, &mut scores);
            scores.dirty.iter().sum::<f64>()
        },
    );
    out.push(with_alloc);
    out.push(alloc_free);

    // k-selection over the pool-sized score vector: the bounded heap vs
    // the historical full sort (same deterministic tie-break on index, so
    // both sides return identical pairs — pinned by the et-core proptests).
    let select_scores = scores.dirty.clone();
    let k = 10usize;
    let (topk, sortk) = time_bench_interleaved(
        "round_topk_select",
        "round_sort_select",
        warmup,
        iters.max(10),
        || top_k_indices(&select_scores, k),
        || {
            let mut idx: Vec<usize> = (0..select_scores.len()).collect();
            idx.sort_by(|&i, &j| {
                select_scores[j]
                    .total_cmp(&select_scores[i])
                    .then(i.cmp(&j))
            });
            idx.truncate(k);
            idx
        },
    );
    out.push(topk);
    out.push(sortk);

    out.extend(round_latency_benches(
        f,
        [
            "round_full_rescore",
            "round_delta_rescore",
            "round_delta_rescore_live",
        ],
        4000,
        quick,
    ));

    let session_samples = collect_samples(0, session_iters, || {
        let prior_cfg = et_belief::PriorConfig {
            strength: 0.3,
            ..et_belief::PriorConfig::default()
        };
        let trainer_prior = et_belief::build_prior(
            &et_belief::PriorSpec::Random { seed: 3 },
            &prior_cfg,
            &f.space,
            &f.table,
        );
        let learner_prior = et_belief::build_prior(
            &et_belief::PriorSpec::DataEstimate,
            &prior_cfg,
            &f.space,
            &f.table,
        );
        let mut trainer =
            et_core::FpTrainer::new(trainer_prior, et_belief::EvidenceConfig::default());
        let mut learner = Learner::new(
            learner_prior,
            ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
            et_belief::EvidenceConfig::default(),
            7,
        );
        let r = run_session(
            &f.table,
            f.space.clone(),
            &f.dirty_rows,
            SessionConfig {
                iterations: rounds,
                seed: 5,
                ..SessionConfig::default()
            },
            &mut trainer,
            &mut learner,
        );
        r.metrics.len()
    });
    out.push(stats_from("session_fp_rounds", &session_samples, 1.0));
    // Per-round successor metric: the same samples scaled per iteration —
    // the unit the sub-millisecond round target is stated in.
    out.push(stats_from(
        "session_fp_round",
        &session_samples,
        rounds as f64,
    ));

    out.extend(durability_benches(f, quick));
    out
}

/// The per-round batch-rescoring cost: full, delta over the whole pool,
/// and delta over the live ids. Each iteration nudges one FD's confidence
/// (what a single labeled batch typically moves) and rescores — either the
/// whole candidate pool from scratch (`score_all_into`), or through a
/// [`DeltaScorer`], which re-folds only the pairs whose packed relation
/// words intersect the changed-FD mask, asked about every pool id or only
/// about the ids a served session still offers. All three sides score the
/// identical confidence sequence and are interleaved iteration by
/// iteration; the delta sides' live scores are pinned bit-exact to the
/// full pass by the et-fd proptests.
///
/// The live side starts halfway through a session, with every other id
/// already shown: a served Hospital-1000 session shows 5 pairs a round
/// until its ~2000-pair pool runs dry after about 410 rounds, so about
/// half its pool is live on average. Five more ids retire each round. The lists are built
/// up front, so only the rescore is timed.
fn round_latency_benches(
    f: &Fixture,
    names: [&'static str; 3],
    pool_cap: usize,
    quick: bool,
) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (2, 5) } else { (5, 50) };
    let cache = PartitionCache::new(&f.table);
    let pool = CandidatePool::build_with(&f.table, &f.space, &cache, pool_cap, 2);
    let pairs: Vec<(usize, usize)> = pool.pairs().iter().map(|p| (p.a, p.b)).collect();
    let matrix = Arc::new(RelationMatrix::build(&f.table, &f.space, &cache, &pairs));
    let params = DetectParams::unsmoothed();
    let n_fds = f.space.len();
    let conf = std::cell::RefCell::new(
        (0..n_fds)
            .map(|i| 0.25 + 0.5 * ((i % 7) as f64) / 7.0)
            .collect::<Vec<f64>>(),
    );
    let tick = std::cell::Cell::new(0usize);
    let mut factors = vec![0.0; n_fds];
    let mut scores = PairScores::zeroed(pairs.len());
    let all: Vec<u32> = (0u32..).take(pairs.len()).collect();
    let mut live: Vec<u32> = all.iter().copied().step_by(2).collect();
    let mut lives = Vec::with_capacity(warmup + iters + 1);
    for round in 0..=warmup + iters {
        lives.push(live.clone());
        for j in 0..5 {
            if live.is_empty() {
                break;
            }
            let pos = (round * 5 + j).wrapping_mul(2_654_435_761) % live.len();
            live.remove(pos);
        }
    }
    let mut delta = DeltaScorer::new(Arc::clone(&matrix));
    let mut delta_live = DeltaScorer::new(Arc::clone(&matrix));
    {
        // Seed the delta slots so every measured call takes the delta
        // path, never the cold full fold.
        let c = conf.borrow();
        let _ = delta.scores_for(&all, &c, &params);
        let _ = delta_live.scores_for(&lives[0], &c, &params);
    }
    let mut live_round = 0;
    let [full, del, del_live] = time_benches_interleaved(
        names,
        warmup,
        iters,
        [
            &mut || {
                let mut c = conf.borrow_mut();
                let fd = tick.get() % n_fds;
                tick.set(tick.get() + 1);
                // Deterministic nudge kept inside (0.25, 0.75).
                c[fd] = 0.25 + (c[fd] * 97.0 + 0.013).fract() * 0.5;
                matrix.score_all_into(&c, &params, &mut factors, &mut scores);
                black_box(scores.dirty.iter().sum::<f64>());
            },
            &mut || {
                let c = conf.borrow();
                black_box(
                    delta
                        .scores_for(&all, &c, &params)
                        .dirty
                        .iter()
                        .sum::<f64>(),
                );
            },
            &mut || {
                let c = conf.borrow();
                live_round += 1;
                let ids = &lives[live_round];
                let scores = delta_live.scores_for(ids, &c, &params);
                black_box(ids.iter().map(|&id| scores.dirty[id as usize]).sum::<f64>());
            },
        ],
    );
    vec![full, del, del_live]
}

/// Error injection in the shape a served create pays: Hospital-1000 at
/// degree 0.10 with the exact FDs as targets. Every iteration dirties a
/// fresh clone of the clean table; the clone is not timed.
fn inject_bench(quick: bool) -> BenchStats {
    let (warmup, iters) = if quick { (1, 3) } else { (3, 25) };
    let ds = DatasetName::Hospital.generate(1000, 2);
    let cfg = InjectConfig::with_degree(0.10, 2 ^ 0xBE);
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let mut table = ds.table.clone();
        let t0 = Instant::now();
        black_box(inject_errors(&mut table, &ds.exact_fds, &[], &cfg));
        if i >= warmup {
            samples.push(t0.elapsed().as_secs_f64());
        }
    }
    stats_from("inject_hospital_1000", &samples, 1.0)
}

/// The capped hypothesis space a served Hospital-1000 create scores:
/// every FD of at most three attributes, one `g1` per candidate.
fn space_capped_bench(quick: bool) -> BenchStats {
    let (warmup, iters) = if quick { (1, 3) } else { (3, 25) };
    let mut ds = DatasetName::Hospital.generate(1000, 2);
    let _ = inject_errors(
        &mut ds.table,
        &ds.exact_fds,
        &[],
        &InjectConfig::with_degree(0.10, 2 ^ 0xBE),
    );
    let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
    let samples = collect_samples(warmup, iters, || {
        HypothesisSpace::capped(&ds.table, 3, 20, 3, &pinned)
    });
    stats_from("space_capped_hospital_1000", &samples, 1.0)
}

/// The per-round held-out evaluation of a served Hospital-1000 session:
/// the learner's and the trainer's `predict_labels` over a 30% test split
/// (300 rows), against the same two passes over FD-major flags — one
/// `Vec<bool>` column per FD, probed per (row, FD), with the indicator
/// evaluated per violated (row, FD) — the layout the index used before
/// its packed tuple codes. Both sides are interleaved; their labels are
/// checked equal before timing.
fn eval_benches(quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (20, 200) } else { (100, 2000) };
    let spec = CreateSessionSpec {
        dataset: DatasetName::Hospital,
        rows: 1000,
        ..CreateSessionSpec::default()
    };
    let parts = match build_parts(&spec, 1001) {
        Ok(p) => p,
        Err(e) => fail("build Hospital-1000 session", e),
    };
    let cache = PartitionCache::new(&parts.table);
    let test_rows: Vec<usize> = (0..parts.table.nrows()).filter(|r| r % 10 < 3).collect();
    let index = ViolationIndex::build_subsample(&parts.table, &parts.space, &cache, &test_rows);
    let eval_rows: Vec<usize> = (0..test_rows.len()).collect();
    let lc = parts.learner.confidences();
    let tc = parts.trainer.confidences();
    let minority: Vec<Vec<bool>> = (0..index.n_fds())
        .map(|fi| {
            eval_rows
                .iter()
                .map(|&r| index.tuple_minority(fi, r))
                .collect()
        })
        .collect();
    let params = DetectParams::default();
    let fd_major = |conf: &[f64]| -> Vec<bool> {
        eval_rows
            .iter()
            .map(|&r| {
                let mut keep_clean = 1.0 - params.base_rate;
                for (fi, &c) in conf.iter().enumerate() {
                    if minority[fi][r] {
                        keep_clean *= 1.0 - params.indicator.apply(c);
                    }
                }
                1.0 - keep_clean > 0.5
            })
            .collect()
    };
    for conf in [&lc, &tc] {
        if predict_labels(&index, conf, &eval_rows) != fd_major(conf) {
            fail("eval bench", "packed and FD-major labels differ");
        }
    }
    let (packed, fdmajor) = time_bench_interleaved(
        "eval_test_split_hospital_1000",
        "eval_test_split_fdmajor",
        warmup,
        iters,
        || {
            (
                predict_labels(&index, &lc, &eval_rows),
                predict_labels(&index, &tc, &eval_rows),
            )
        },
        || (fd_major(&lc), fd_major(&tc)),
    );
    vec![packed, fdmajor]
}

/// The reply encoder as it stood before streaming: a [`Json`] tree per
/// reply, a `format!` per number, a char-by-char escaper into a `String`,
/// and the copy of that `String` into the connection's byte buffer. Kept
/// inline as the baseline of `reply_encode_stream_vs_tree_speedup`.
mod tree_reply {
    use et_serve::{Json, Response};

    fn num(n: usize) -> Json {
        Json::Num(n as f64)
    }

    fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    /// The tree of the two replies the bench encodes (pairs and session
    /// status); every other variant maps to `null`.
    fn tree(r: &Response) -> Json {
        let ok = |kind: &str, rest: Vec<(&str, Json)>| {
            let mut members = vec![("ok", Json::Bool(true)), ("reply", Json::str(kind))];
            members.extend(rest);
            Json::obj(members)
        };
        match r {
            Response::Pairs {
                session,
                t,
                pairs,
                sample,
                tuples,
            } => ok(
                "pairs",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("t", num(*t)),
                    (
                        "pairs",
                        Json::Arr(
                            pairs
                                .iter()
                                .map(|p| Json::Arr(vec![num(p.a), num(p.b)]))
                                .collect(),
                        ),
                    ),
                    (
                        "sample",
                        Json::Arr(sample.iter().map(|&r| num(r)).collect()),
                    ),
                    (
                        "tuples",
                        Json::Arr(tuples.iter().map(|t| Json::str(t)).collect()),
                    ),
                ],
            ),
            Response::SessionStatus {
                session,
                iterations_done,
                iterations,
                awaiting_labels,
                mae_series,
                converged_at,
                learner_confidences,
                trainer_confidences,
            } => ok(
                "session_status",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("iterations_done", num(*iterations_done)),
                    ("iterations", num(*iterations)),
                    ("awaiting_labels", Json::Bool(*awaiting_labels)),
                    ("mae_series", nums(mae_series)),
                    ("converged_at", converged_at.map_or(Json::Null, num)),
                    ("learner_confidences", nums(learner_confidences)),
                    ("trainer_confidences", nums(trainer_confidences)),
                ],
            ),
            _ => Json::Null,
        }
    }

    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn value(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    value(item, out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, item)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    value(item, out);
                }
                out.push('}');
            }
        }
    }

    /// One newline-terminated wire line, as the tree path produced it.
    pub(crate) fn line(r: &Response) -> Vec<u8> {
        let mut text = String::new();
        value(&tree(r), &mut text);
        text.push('\n');
        text.as_bytes().to_vec()
    }
}

/// One served round's replies on a Hospital-1000 session past its 150th
/// round: the `pairs` reply (tuple assembly included) and a `status`
/// reply carrying the 150-entry MAE series. The stream side renders each
/// tuple in one `String` (`Table::joined_row`) and encodes with
/// `Response::encode_into`; the tree side joins `row_texts` and encodes
/// through [`tree_reply`]. Both are interleaved; their bytes are checked
/// equal before timing.
fn reply_encode_benches(quick: bool) -> Vec<BenchStats> {
    const ROUNDS: usize = 150;
    let (warmup, iters) = if quick { (20, 200) } else { (100, 2000) };
    let spec = CreateSessionSpec {
        dataset: DatasetName::Hospital,
        rows: 1000,
        iterations: ROUNDS + 1,
        ..CreateSessionSpec::default()
    };
    let parts = match build_parts(&spec, 1001) {
        Ok(p) => p,
        Err(e) => fail("build Hospital-1000 session", e),
    };
    let mut state = match SessionState::new(
        parts.table,
        parts.space,
        &parts.dirty_rows,
        parts.cfg,
        &parts.trainer,
        &parts.learner,
    ) {
        Ok(s) => s,
        Err(e) => fail("session config", e),
    };
    let mut trainer = parts.trainer.with_cache(state.partition_cache().clone());
    let mut learner = parts.learner;
    for _ in 0..=ROUNDS {
        if let Err(e) = state.present(&mut learner) {
            fail("present", e);
        }
        if state.iterations_done() == ROUNDS {
            break;
        }
        let labels = match state.label_pending(&mut trainer) {
            Ok(l) => l,
            Err(e) => fail("label", e),
        };
        if let Err(e) = state.apply_labels(&trainer, &mut learner, &labels) {
            fail("apply labels", e);
        }
    }
    let Some(pending) = state.pending() else {
        fail("reply bench", "no pending presentation after 150 rounds")
    };
    let table = state.table();
    let replies = |tuple: &dyn Fn(usize) -> String| {
        let sample = pending.sample().to_vec();
        let pairs = Response::Pairs {
            session: 1,
            t: state.iterations_done(),
            pairs: pending
                .pairs()
                .iter()
                .map(|p| WirePair { a: p.a, b: p.b })
                .collect(),
            tuples: sample.iter().map(|&r| tuple(r)).collect(),
            sample,
        };
        let status = Response::SessionStatus {
            session: 1,
            iterations_done: state.iterations_done(),
            iterations: state.config().iterations,
            awaiting_labels: true,
            mae_series: state.metrics().iter().map(|m| m.mae).collect(),
            converged_at: state.convergence_so_far().converged_at,
            learner_confidences: learner.confidences(),
            trainer_confidences: trainer.belief().confidences(),
        };
        [pairs, status]
    };
    let stream_line = |r: &Response| {
        let mut line = Vec::new();
        r.encode_into(&mut line);
        line.push(b'\n');
        line
    };
    let stream = || replies(&|r| table.joined_row(r, " | ")).map(|r| stream_line(&r));
    let tree = || replies(&|r| table.row_texts(r).join(" | ")).map(|r| tree_reply::line(&r));
    if stream() != tree() {
        fail("reply bench", "streamed and tree-encoded replies differ");
    }
    let (stream, tree) = time_bench_interleaved(
        "reply_encode_stream",
        "reply_encode_tree",
        warmup,
        iters,
        stream,
        tree,
    );
    vec![stream, tree]
}

/// Exits loudly; benches have no error channel worth plumbing.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {e}");
    std::process::exit(1);
}

/// Builds a fresh journaling-ready session over the fixture.
fn durable_session(f: &Fixture, iterations: usize) -> (SessionState, FpTrainer, Learner) {
    let prior_cfg = et_belief::PriorConfig::weak();
    let trainer_prior = et_belief::build_prior(
        &et_belief::PriorSpec::Random { seed: 3 },
        &prior_cfg,
        &f.space,
        &f.table,
    );
    let learner_prior = et_belief::build_prior(
        &et_belief::PriorSpec::DataEstimate,
        &prior_cfg,
        &f.space,
        &f.table,
    );
    let trainer = FpTrainer::new(trainer_prior, et_belief::EvidenceConfig::default());
    let learner = Learner::new(
        learner_prior,
        ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
        et_belief::EvidenceConfig::default(),
        7,
    );
    let cfg = SessionConfig {
        iterations,
        seed: 5,
        ..SessionConfig::default()
    };
    let state = match SessionState::new(
        f.table.clone(),
        f.space.clone(),
        &f.dirty_rows,
        cfg,
        &trainer,
        &learner,
    ) {
        Ok(s) => s,
        Err(e) => fail("session config", e),
    };
    (state, trainer, learner)
}

/// The durability family: raw WAL appends (with and without fdatasync),
/// atomic snapshot writes of a mid-stream session, and full
/// snapshot-plus-replay recovery.
fn durability_benches(f: &Fixture, quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (1, 3) } else { (3, 25) };
    let driven = if quick { 5 } else { 8 };
    let mut out = Vec::new();

    let scratch = std::env::temp_dir().join(format!("et-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        fail("create scratch dir", e);
    }

    // A representative label record: ~10 row ids plus labels and framing.
    let payload = [0x5Au8; 96];
    let mut wal = match Wal::open(&scratch.join("bench-nosync.wal"), FsyncPolicy::Never) {
        Ok(o) => o.wal,
        Err(e) => fail("open wal", e),
    };
    out.push(time_bench(
        "durable_wal_append",
        warmup,
        iters.max(10),
        || {
            if let Err(e) = wal.append(1, &payload) {
                fail("wal append", e);
            }
        },
    ));
    let mut wal = match Wal::open(&scratch.join("bench-sync.wal"), FsyncPolicy::Always) {
        Ok(o) => o.wal,
        Err(e) => fail("open wal", e),
    };
    out.push(time_bench(
        "durable_wal_append_fsync",
        warmup,
        iters.max(10),
        || {
            if let Err(e) = wal.append(1, &payload) {
                fail("wal append", e);
            }
        },
    ));

    // Drive a real session mid-stream once, then measure snapshotting it.
    let journal_cfg = JournalConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every: 3,
    };
    let snap_dir = scratch.join("session");
    let (mut state, mut trainer, mut learner) = durable_session(f, driven + 4);
    let journal = match SessionJournal::create(&snap_dir, journal_cfg) {
        Ok(j) => j,
        Err(e) => fail("create journal", e),
    };
    state.attach_journal(journal);
    for _ in 0..driven {
        let mut step = || -> Result<(), String> {
            state.present(&mut learner).map_err(|e| e.to_string())?;
            let labels = state
                .label_pending(&mut trainer)
                .map_err(|e| e.to_string())?;
            state
                .apply_labels(&trainer, &mut learner, &labels)
                .map_err(|e| e.to_string())?;
            state
                .maybe_snapshot(&trainer, &learner)
                .map_err(|e| e.to_string())?;
            Ok(())
        };
        if let Err(e) = step() {
            fail("drive session", e);
        }
    }
    out.push(time_bench("durable_snapshot_write", warmup, iters, || {
        if let Err(e) = state.snapshot_now(&trainer, &learner) {
            fail("snapshot", e);
        }
    }));

    // Recovery: newest snapshot restore plus WAL-suffix replay, into a
    // fresh state and agents each time (what a restarting host pays).
    out.push(time_bench("durable_recover", warmup, iters, || {
        let (mut state, mut trainer, mut learner) = durable_session(f, driven + 4);
        match recover_session(
            &snap_dir,
            journal_cfg,
            &mut state,
            &mut trainer,
            &mut learner,
        ) {
            Ok(outcome) => outcome.replayed,
            Err(e) => fail("recover", e),
        }
    }));

    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// Whether a derived entry counts as a regression: every `*_speedup`
/// ratio is "new path over old path", so below 1.0 means the new path
/// lost ground and the JSON should say so explicitly.
fn is_regressed(name: &str, value: f64) -> bool {
    name.ends_with("_speedup") && value < 1.0
}

fn emit_json(
    cli: &Cli,
    f: &Fixture,
    rows: usize,
    tax_rows: usize,
    benches: &[BenchStats],
    derived: &[(&str, f64)],
) -> Json {
    let mut doc = vec![
        ("schema", Json::str("et-bench/substrate-v3")),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        (
            "fixture",
            Json::obj(vec![
                ("dataset", Json::str("hospital")),
                ("rows", Json::Num(rows as f64)),
                ("degree", Json::Num(0.15)),
                ("seed", Json::Num(2.0)),
                ("fds", Json::Num(f.space.len() as f64)),
                (
                    "distinct_lhs",
                    Json::Num(f.space.distinct_lhs().len() as f64),
                ),
            ]),
        ),
    ];
    doc.push((
        "tax_fixture",
        Json::obj(vec![
            ("dataset", Json::str("tax")),
            ("rows", Json::Num(tax_rows as f64)),
            ("degree", Json::Num(0.15)),
            ("seed", Json::Num(2.0)),
        ]),
    ));
    let benches = benches
        .iter()
        .map(|b| {
            Json::obj(vec![
                ("name", Json::str(b.name)),
                ("iters", Json::Num(b.iters as f64)),
                (
                    "secs",
                    Json::obj(vec![
                        ("min", Json::Num(b.min)),
                        ("mean", Json::Num(b.mean)),
                        ("median", Json::Num(b.median)),
                        ("max", Json::Num(b.max)),
                    ]),
                ),
            ])
        })
        .collect();
    let derived = derived
        .iter()
        .map(|&(name, v)| {
            let mut entry = vec![("value", Json::Num(v))];
            if is_regressed(name, v) {
                entry.push(("regressed", Json::Bool(true)));
            }
            (name.to_string(), Json::obj(entry))
        })
        .collect();
    doc.push(("benches", Json::Arr(benches)));
    doc.push(("derived", Json::Obj(derived)));
    Json::obj(doc)
}

/// Median of a named bench, for derived ratios: robust to the stray slow
/// iteration that skews a mean on shared CI hardware.
fn median_of(benches: &[BenchStats], name: &str) -> Option<f64> {
    benches
        .iter()
        .find(|b| b.name == name)
        .map(|b| b.median)
        .filter(|&m| m > 0.0)
}

fn main() {
    let cli = cli::from_env("bench_json", "BENCH_substrate.json");
    let rows = if cli.quick { 200 } else { 500 };
    eprintln!("bench_json: hospital fixture, {rows} rows, degree 0.15, seed 2");
    let f = fixture(DatasetName::Hospital, rows, 0.15, 2);
    let mut benches = run_benches(&f, cli.quick);

    benches.push(inject_bench(cli.quick));
    benches.push(space_capped_bench(cli.quick));
    benches.extend(eval_benches(cli.quick));
    benches.extend(reply_encode_benches(cli.quick));

    // Tax-scale round latencies: a second round-latency family over a much
    // larger table and candidate pool.
    let tax_rows = if cli.quick { 2_000 } else { 10_000 };
    eprintln!("bench_json: tax fixture, {tax_rows} rows, degree 0.15, seed 2");
    let t0 = Instant::now();
    let tax = fixture(DatasetName::Tax, tax_rows, 0.15, 2);
    let tax_build = t0.elapsed().as_secs_f64();
    benches.push(stats_from("fixture_build_tax", &[tax_build], 1.0));
    benches.extend(round_latency_benches(
        &tax,
        [
            "round_full_rescore_tax",
            "round_delta_rescore_tax",
            "round_delta_rescore_live_tax",
        ],
        20_000,
        cli.quick,
    ));

    let mut derived: Vec<(&str, f64)> = Vec::new();
    let ratios = [
        (
            "cached_vs_fresh_speedup",
            "index_build_fresh",
            "index_build_cached",
        ),
        (
            "cached_vs_legacy_speedup",
            "index_build_legacy",
            "index_build_cached",
        ),
        (
            "restrict_vs_rebuild_speedup",
            "subsample_rebuild_rounds",
            "subsample_restrict_rounds",
        ),
        (
            "incremental_vs_rebuild_speedup",
            "subsample_rebuild_rounds",
            "subsample_incremental_rounds",
        ),
        (
            "matrix_score_vs_naive_speedup",
            "scoring_naive_pool",
            "scoring_matrix_score",
        ),
        // Parity, not a speedup claim: the alloc-free entry point exists
        // for the L12 no-alloc hot-path contract, and on small fixtures
        // the allocating path's fresh pages can tie or edge it out. The
        // ratio is still emitted (ci gates it at >= 0.95) but it no longer
        // carries the `_speedup` suffix that would flag sub-1.0 as a
        // regression.
        (
            "alloc_free_score_parity",
            "scoring_matrix_score",
            "scoring_matrix_score_alloc_free",
        ),
        (
            "round_latency_delta_vs_full_speedup",
            "round_full_rescore",
            "round_delta_rescore",
        ),
        (
            "round_latency_delta_vs_full_speedup_tax",
            "round_full_rescore_tax",
            "round_delta_rescore_tax",
        ),
        (
            "round_latency_live_vs_pool_speedup",
            "round_delta_rescore",
            "round_delta_rescore_live",
        ),
        (
            "round_latency_live_vs_pool_speedup_tax",
            "round_delta_rescore_tax",
            "round_delta_rescore_live_tax",
        ),
        (
            "topk_vs_sort_select_speedup",
            "round_sort_select",
            "round_topk_select",
        ),
        (
            "eval_packed_vs_fdmajor_speedup",
            "eval_test_split_fdmajor",
            "eval_test_split_hospital_1000",
        ),
        (
            "reply_encode_stream_vs_tree_speedup",
            "reply_encode_tree",
            "reply_encode_stream",
        ),
        (
            "fsync_append_cost_ratio",
            "durable_wal_append_fsync",
            "durable_wal_append",
        ),
    ];
    for (name, slow, fast) in ratios {
        if let (Some(s), Some(q)) = (median_of(&benches, slow), median_of(&benches, fast)) {
            derived.push((name, s / q));
        }
    }

    let doc = emit_json(&cli, &f, rows, tax_rows, &benches, &derived);
    cli::write_or_exit(&cli.out, &doc);
    for (name, v) in &derived {
        let flag = if is_regressed(name, *v) {
            "  (regressed)"
        } else {
            ""
        };
        eprintln!("  {name}: {v:.2}x{flag}");
    }
    println!("wrote {}", cli.out);

    if !cli::gates_pass(&cli.gates, &derived) {
        std::process::exit(1);
    }
}
