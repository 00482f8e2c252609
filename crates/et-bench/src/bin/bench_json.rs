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
//!
//! The binary also counts heap bytes and allocations: its global allocator
//! tracks the live total and tallies every allocation call, the
//! `session_heap_kb_*` rows read what one served session keeps, and the
//! `round_allocs_*` rows read how often a steady round's phases allocate.
//! Those rows are counts, not timings, and do not vary run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use et_bench::cli::{self, Cli};
use et_bench::fixtures::{fixture, Fixture};
use et_core::{
    recover_session, run_session, top_k_indices, CandidatePool, FpTrainer, JournalConfig, Learner,
    PairExample, ResponseStrategy, ScoreCtx, SessionConfig, SessionJournal, SessionState,
    StrategyKind, Trainer,
};
use et_data::gen::DatasetName;
use et_data::{inject_errors, InjectConfig, Table};
use et_durable::{FsyncPolicy, Wal};
use et_fd::{
    pair_dirty_probs_with, predict_labels, DeltaScorer, DetectParams, Fd, HypothesisSpace,
    PairScores, PartitionCache, RelationMatrix, ViolationIndex, G1, NO_CLASS,
};
use et_serve::{
    build_parts, CreateSessionSpec, Json, MaeHistory, Response, SessionStore, StatusReply,
    StoreConfig, WirePair,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The system allocator, counting the bytes currently allocated and the
/// allocation calls made.
struct CountingAlloc;

/// Bytes allocated and not yet freed, over the whole process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Calls to `alloc`, `alloc_zeroed` and `realloc`, over the whole process.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates a counter besides, so `System`'s guarantees
// hold as they are.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        ALLOCS.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        ALLOCS.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        ALLOCS.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed); // ord: Relaxed, a tally read only after the counted work returns
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap bytes allocated and not yet freed, process-wide.
fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed) // ord: Relaxed, read on the thread that did the counted work
}

/// Allocation calls made so far, process-wide.
fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed) // ord: Relaxed, read on the thread that did the counted work
}

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
        let grouped = group_by_hashed(table, &lhs_attrs);
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

    out.extend(policy_benches(f, quick));
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
    out.extend(restart_benches(quick));
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

/// One round's StochasticBR policy with every step per candidate: the
/// confidence score, the max-shifted softmax, its entropy and the
/// sampler, as `select_round` computed them before it keyed scores by
/// violation class. Kept inline as the baseline of
/// `policy_class_vs_candidate_speedup`; returns the picks and `h_policy`.
fn policy_per_candidate(
    scorer: &mut DeltaScorer,
    ids: &[u32],
    conf: &[f64],
    gamma: f64,
    k: usize,
    rng: &mut StdRng,
) -> (Vec<u32>, f64) {
    let batch = scorer.scores_for(ids, conf, &DetectParams::unsmoothed());
    let scores: Vec<f64> = ids
        .iter()
        .map(|&id| {
            let d = batch.dirty[id as usize];
            let s = d.max(1.0 - d);
            s + s
        })
        .collect();
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut weights: Vec<f64> = scores.iter().map(|s| ((s - max) / gamma).exp()).collect();
    let sum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= sum;
    }
    let h_policy = weights
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum();
    let mut alive: Vec<usize> = (0..weights.len()).collect();
    let mut picks = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = alive.iter().map(|&i| weights[i]).sum();
        if total <= 0.0 || alive.is_empty() {
            break;
        }
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen = alive.len() - 1;
        for (pos, &i) in alive.iter().enumerate() {
            if pick < weights[i] {
                chosen = pos;
                break;
            }
            pick -= weights[i];
        }
        let i = alive.swap_remove(chosen);
        weights[i] = 0.0;
        picks.push(ids[i]);
    }
    (picks, h_policy)
}

/// One StochasticBR selection over a fresh Hospital pool (every id live,
/// the learner's data-estimate prior): `select_round`, which maps scores
/// and builds the softmax once per violation class present, against
/// [`policy_per_candidate`]. Both sides reuse a warm scorer under
/// unchanged confidences, so neither rescores, and draw from the same
/// seed; their picks and `h_policy` bits are checked equal before timing.
fn policy_benches(f: &Fixture, quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (5, 60) } else { (20, 400) };
    let cache = PartitionCache::new(&f.table);
    let pool = CandidatePool::build_with(&f.table, &f.space, &cache, 2000, 2);
    let pairs: Vec<(usize, usize)> = pool.pairs().iter().map(|p| (p.a, p.b)).collect();
    let matrix = Arc::new(RelationMatrix::build(&f.table, &f.space, &cache, &pairs));
    let index = ViolationIndex::build_with(&f.table, &f.space, &cache);
    let belief = et_belief::build_prior(
        &et_belief::PriorSpec::DataEstimate,
        &et_belief::PriorConfig::default(),
        &f.space,
        &f.table,
    );
    let conf = belief.confidences();
    let ids: Vec<u32> = (0u32..).take(pairs.len()).collect();
    let strategy = ResponseStrategy::paper(StrategyKind::StochasticBestResponse);
    let k = 5;
    let by_class = std::cell::RefCell::new(DeltaScorer::new(Arc::clone(&matrix)));
    let mut per_candidate = DeltaScorer::new(Arc::clone(&matrix));
    let ctx = ScoreCtx {
        index: &index,
        scorer: &by_class,
    };
    let rng = || StdRng::seed_from_u64(7);
    let keyed = strategy.select_round(ctx, &belief, &ids, k, &mut rng());
    let (picks, h_policy) = policy_per_candidate(
        &mut per_candidate,
        &ids,
        &conf,
        strategy.gamma,
        k,
        &mut rng(),
    );
    if keyed.picks != picks || keyed.h_policy.to_bits() != h_policy.to_bits() {
        fail(
            "policy_benches",
            format!(
                "class-keyed policy diverged: picks {:?} vs {picks:?}, h_policy {} vs {h_policy}",
                keyed.picks, keyed.h_policy
            ),
        );
    }
    let (class, candidate) = time_bench_interleaved(
        "round_policy_by_class",
        "round_policy_per_candidate",
        warmup,
        iters,
        || strategy.select_round(ctx, &belief, &ids, k, &mut rng()),
        || {
            policy_per_candidate(
                &mut per_candidate,
                &ids,
                &conf,
                strategy.gamma,
                k,
                &mut rng(),
            )
        },
    );
    vec![class, candidate]
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

/// `Table::group_by` as it stood before its dense ids: a SipHash map from
/// each row's projected key to the id of the group it opened. Kept inline
/// as the baseline of `group_by_dense_vs_hash_speedup`, and as the
/// grouping of `index_build_legacy`.
fn group_by_hashed(table: &Table, attrs: &[u16]) -> et_data::table::GroupedRows {
    let mut key_ids: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut row_group = Vec::with_capacity(table.nrows());
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut key = Vec::with_capacity(attrs.len());
    for (row, id) in (0..table.nrows()).zip(0u32..) {
        key.clear();
        key.extend(attrs.iter().map(|&a| table.sym(row, a)));
        let gid = match key_ids.get(&key) {
            Some(&gid) => gid,
            None => {
                let gid = u32::try_from(groups.len()).unwrap_or_else(|e| fail("group id", e));
                key_ids.insert(key.clone(), gid);
                groups.push(Vec::new());
                gid
            }
        };
        groups[gid as usize].push(id);
        row_group.push(gid);
    }
    et_data::table::GroupedRows { row_group, groups }
}

/// `g1_of` as it stood before its per-symbol counter: a hash-keyed
/// grouping by the LHS, then every group's RHS symbols sorted and
/// run-length counted, `violating = (g² − Σc²)/2`. Kept inline as the
/// baseline of `g1_counter_vs_sort_speedup`.
fn g1_sorted(table: &Table, fd: &Fd) -> G1 {
    let grouped = group_by_hashed(table, &fd.lhs_vec());
    let (mut violating, mut lhs_pairs) = (0u64, 0u64);
    let mut syms: Vec<u32> = Vec::new();
    for group in &grouped.groups {
        let g = group.len() as u64;
        if g < 2 {
            continue;
        }
        lhs_pairs += g * (g - 1) / 2;
        syms.clear();
        syms.extend(group.iter().map(|&row| table.sym(row as usize, fd.rhs)));
        syms.sort_unstable();
        let sum_sq: u64 = syms
            .chunk_by(|a, b| a == b)
            .map(|run| (run.len() as u64).pow(2))
            .sum();
        violating += (g * g - sum_sq) / 2;
    }
    G1 {
        violating_pairs: violating,
        lhs_pairs,
        rows: table.nrows() as u64,
    }
}

/// The two create steps that regroup a Hospital-1000 table (session seed
/// 1001, as served): the injector's grouping by every exact FD's LHS,
/// dense against the SipHash grouping it replaced, and the learner's
/// data-estimate prior over the session's capped space, counted per
/// symbol against the hash-and-sort `g1_of` it replaced. Each pair is
/// interleaved, its outputs checked equal before timing.
fn create_grouping_benches(quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (2, 10) } else { (3, 25) };
    let spec = CreateSessionSpec {
        dataset: DatasetName::Hospital,
        rows: 1000,
        ..CreateSessionSpec::default()
    };
    let parts = match build_parts(&spec, 1001) {
        Ok(p) => p,
        Err(e) => fail("build Hospital-1000 session", e),
    };
    let (table, space) = (&parts.table, &parts.space);
    let keys: Vec<Vec<u16>> = DatasetName::Hospital
        .generate(10, 0)
        .exact_fds
        .iter()
        .map(|fd| Fd::from_spec(fd).lhs_vec())
        .collect();
    for key in &keys {
        let (dense, hashed) = (table.group_by(key), group_by_hashed(table, key));
        if dense.row_group != hashed.row_group || dense.groups != hashed.groups {
            fail("group_by bench", "dense and hashed groupings differ");
        }
    }
    let (dense, hashed) = time_bench_interleaved(
        "group_by_dense_hospital_1000",
        "group_by_hashed",
        warmup,
        iters,
        || keys.iter().map(|k| table.group_by(k).len()).sum::<usize>(),
        || {
            keys.iter()
                .map(|k| group_by_hashed(table, k).len())
                .sum::<usize>()
        },
    );
    let cfg = et_belief::PriorConfig::weak();
    let prior = || et_belief::build_prior(&et_belief::PriorSpec::DataEstimate, &cfg, space, table);
    let prior_sorted = || {
        let params = space
            .fds()
            .iter()
            .map(|fd| {
                let mean = g1_sorted(table, fd).confidence();
                et_belief::Beta::from_mean_std(mean, cfg.std).scaled(cfg.strength)
            })
            .collect();
        et_belief::Belief::new(Arc::clone(space), params)
    };
    let bits = |b: &et_belief::Belief| -> Vec<u64> {
        (0..b.len())
            .flat_map(|i| [b.dist(i).alpha.to_bits(), b.dist(i).beta.to_bits()])
            .collect()
    };
    if bits(&prior()) != bits(&prior_sorted()) {
        fail("prior bench", "counter and sort priors differ");
    }
    let (counter, sorted) = time_bench_interleaved(
        "prior_data_estimate_hospital_1000",
        "prior_data_estimate_sorted",
        warmup,
        iters,
        prior,
        prior_sorted,
    );
    vec![dense, hashed, counter, sorted]
}

/// The capped space as it was scored before the lattice scorer: the whole
/// lattice enumerated into a `HypothesisSpace`, FDs grouped by determinant,
/// and one counting walk per FD over its determinant's cached partition.
/// Kept inline as the baseline of `space_capped_vs_per_fd_speedup`.
fn space_capped_per_fd(
    table: &Table,
    cache: &PartitionCache,
    max_fd_attrs: u32,
    cap: usize,
    min_support: u64,
    pinned: &[Fd],
) -> HypothesisSpace {
    let n_attrs = u16::try_from(table.schema().len()).unwrap_or_else(|e| fail("schema width", e));
    let full = HypothesisSpace::enumerate(n_attrs, max_fd_attrs);
    let n = table.nrows() as u64;
    let fds = full.fds();
    let mut stats = vec![
        G1 {
            violating_pairs: 0,
            lhs_pairs: 0,
            rows: n,
        };
        fds.len()
    ];
    let mut lhs_order: Vec<et_fd::AttrSet> = Vec::new();
    let mut by_lhs: HashMap<et_fd::AttrSet, Vec<usize>> = HashMap::new();
    for (i, fd) in fds.iter().enumerate() {
        by_lhs
            .entry(fd.lhs)
            .or_insert_with(|| {
                lhs_order.push(fd.lhs);
                Vec::new()
            })
            .push(i);
    }
    let mut counts: Vec<u32> = Vec::new();
    for lhs in lhs_order {
        let part = cache.partition(table, lhs);
        let lhs_pairs = part.pairs();
        for &fi in &by_lhs[&lhs] {
            let rhs = fds[fi].rhs;
            let dict = table.dict_len(rhs);
            if counts.len() < dict {
                counts.resize(dict, 0);
            }
            let mut agreeing = 0u64;
            for class in part.classes() {
                for &row in class {
                    let c = &mut counts[table.sym(row as usize, rhs) as usize];
                    agreeing += u64::from(*c);
                    *c += 1;
                }
                for &row in class {
                    counts[table.sym(row as usize, rhs) as usize] = 0;
                }
            }
            stats[fi].violating_pairs = lhs_pairs - agreeing;
            stats[fi].lhs_pairs = lhs_pairs;
        }
    }
    let mut scored: Vec<(Fd, f64)> = fds
        .iter()
        .zip(&stats)
        .filter(|(fd, g)| !pinned.contains(fd) && g.lhs_pairs >= min_support)
        .map(|(&fd, g)| (fd, g.violation_rate()))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let keep = cap.saturating_sub(pinned.len()).min(scored.len());
    let strided = (0..keep).map(|i| {
        let pos = if keep <= 1 {
            0
        } else {
            i * (scored.len() - 1) / (keep - 1)
        };
        scored[pos].0
    });
    HypothesisSpace::from_fds(pinned.iter().copied().chain(strided))
}

/// The capped hypothesis space a served Hospital-1000 create scores:
/// every FD of at most three attributes, over a fresh partition cache.
/// Then the scoring pass alone, once per attribute set against the per-FD
/// walk it replaced: both sides interleaved over one cache already holding
/// every determinant's partition, their FD lists checked equal before
/// timing.
fn space_capped_benches(quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (2, 10) } else { (3, 25) };
    let mut ds = DatasetName::Hospital.generate(1000, 2);
    let _ = inject_errors(
        &mut ds.table,
        &ds.exact_fds,
        &[],
        &InjectConfig::with_degree(0.10, 2 ^ 0xBE),
    );
    let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
    let cold = time_bench("space_capped_hospital_1000", warmup, iters, || {
        HypothesisSpace::capped(&ds.table, 3, 20, 3, &pinned)
    });
    let cache = PartitionCache::new(&ds.table);
    let per_set = || HypothesisSpace::capped_with(&ds.table, &cache, 3, 20, 3, &pinned);
    let per_fd = || space_capped_per_fd(&ds.table, &cache, 3, 20, 3, &pinned);
    if per_set().fds() != per_fd().fds() {
        fail("space bench", "per-set and per-FD capped spaces differ");
    }
    let (per_set, per_fd) = time_bench_interleaved(
        "space_capped_warm",
        "space_capped_per_fd",
        warmup,
        iters,
        per_set,
        per_fd,
    );
    vec![cold, per_set, per_fd]
}

/// The candidate-pool enumeration as it stood before the first-occurrence
/// test: every visit of a pair, under every determinant, probes a SipHash
/// set. Kept inline as the baseline of `pool_build_vs_hashset_speedup`.
fn pool_build_hashset(
    table: &Table,
    space: &HypothesisSpace,
    cache: &PartitionCache,
    max_pairs: usize,
    seed: u64,
) -> Vec<PairExample> {
    let mut seen: HashSet<PairExample> = HashSet::new();
    let mut reservoir: Vec<PairExample> = Vec::new();
    let mut n_seen = 0usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b);
    for lhs in space.distinct_lhs() {
        let part = cache.partition(table, lhs);
        for group in part.classes() {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let p = PairExample::new(a as usize, b as usize);
                    if !seen.insert(p) {
                        continue;
                    }
                    n_seen += 1;
                    if reservoir.len() < max_pairs {
                        reservoir.push(p);
                    } else {
                        let j = rng.gen_range(0..n_seen);
                        if j < max_pairs {
                            reservoir[j] = p;
                        }
                    }
                }
            }
        }
    }
    reservoir.sort_unstable();
    reservoir
}

/// The candidate-pool enumeration with the per-pair first-visit test on
/// every class: each pair probes the row→class lookups of the earlier
/// determinants, with row `a`'s classes read once per `a`. Kept inline as
/// the baseline of `pool_build_wordmask_vs_pairwise_speedup` and
/// `pool_build_small_class_parity`.
fn pool_build_pairwise(
    table: &Table,
    space: &HypothesisSpace,
    cache: &PartitionCache,
    max_pairs: usize,
    seed: u64,
) -> Vec<PairExample> {
    let mut reservoir: Vec<PairExample> = Vec::new();
    let mut n_seen = 0usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b);
    let lhss = space.distinct_lhs();
    let row_classes: Vec<Arc<Vec<u32>>> = lhss
        .iter()
        .map(|&lhs| cache.row_classes(table, lhs))
        .collect();
    let mut a_classes: Vec<(&[u32], u32)> = Vec::with_capacity(lhss.len());
    for (k, &lhs) in lhss.iter().enumerate() {
        let earlier = &row_classes[..k];
        let part = cache.partition(table, lhs);
        for group in part.classes() {
            for (i, &a) in group.iter().enumerate() {
                a_classes.clear();
                a_classes.extend(
                    earlier
                        .iter()
                        .map(|owners| (owners.as_slice(), owners[a as usize]))
                        .filter(|&(_, class)| class != NO_CLASS),
                );
                for &b in &group[i + 1..] {
                    if a_classes
                        .iter()
                        .any(|&(owners, class)| owners[b as usize] == class)
                    {
                        continue;
                    }
                    let p = PairExample::new(a as usize, b as usize);
                    n_seen += 1;
                    if reservoir.len() < max_pairs {
                        reservoir.push(p);
                    } else {
                        let j = rng.gen_range(0..n_seen);
                        if j < max_pairs {
                            reservoir[j] = p;
                        }
                    }
                }
            }
        }
    }
    reservoir.sort_unstable();
    reservoir
}

/// The table, space, pool cap and pool seed of a served create (session
/// seed 1001), with a cache warmed the way `SessionState::new` warms it:
/// every determinant's partition and row classes memoized.
fn served_pool_case(
    dataset: DatasetName,
    rows: usize,
) -> (Table, Arc<HypothesisSpace>, PartitionCache, usize, u64) {
    let spec = CreateSessionSpec {
        dataset,
        rows,
        ..CreateSessionSpec::default()
    };
    let parts = match build_parts(&spec, 1001) {
        Ok(p) => p,
        Err(e) => fail("build a served session", e),
    };
    let cache = PartitionCache::new(&parts.table);
    for lhs in parts.space.distinct_lhs() {
        let _ = cache.row_classes(&parts.table, lhs);
    }
    let (cap, seed) = (parts.cfg.pool_cap, parts.cfg.seed);
    (parts.table, parts.space, cache, cap, seed)
}

/// The candidate pool of a served Hospital-1000 create, whose large
/// classes take the word-parallel first-visit test, against the per-pair
/// test on every class and the hash-set enumeration before both; and the
/// pool of a served OMDB-160 create, whose classes are nearly all below
/// the word path's switch, against the per-pair test. Each family is
/// interleaved; its pools are checked equal before timing.
fn candidate_pool_benches(quick: bool) -> Vec<BenchStats> {
    let (warmup, iters) = if quick { (2, 10) } else { (3, 25) };
    let (table, space, cache, cap, seed) = served_pool_case(DatasetName::Hospital, 1000);
    let (table, space, cache) = (&table, &space, &cache);
    let build = || CandidatePool::build_with(table, space, cache, cap, seed);
    let pairwise = || pool_build_pairwise(table, space, cache, cap, seed);
    let hashed = || pool_build_hashset(table, space, cache, cap, seed);
    let want = build();
    if want.pairs() != pairwise().as_slice() || want.pairs() != hashed().as_slice() {
        fail(
            "pool bench",
            "word-mask, per-pair and hash-set pools differ",
        );
    }
    let [build, pairwise, hashed] = time_benches_interleaved(
        [
            "candidate_pool_hospital_1000",
            "candidate_pool_pairwise",
            "candidate_pool_hashset",
        ],
        warmup,
        iters,
        [
            &mut || {
                black_box(build());
            },
            &mut || {
                black_box(pairwise());
            },
            &mut || {
                black_box(hashed());
            },
        ],
    );

    let (warmup, iters) = if quick { (10, 100) } else { (20, 400) };
    let (table, space, cache, cap, seed) = served_pool_case(DatasetName::Omdb, 160);
    let (table, space, cache) = (&table, &space, &cache);
    let small = || CandidatePool::build_with(table, space, cache, cap, seed);
    let small_pairwise = || pool_build_pairwise(table, space, cache, cap, seed);
    if small().pairs() != small_pairwise().as_slice() {
        fail("pool bench", "OMDB-160 word-mask and per-pair pools differ");
    }
    let (small, small_pairwise) = time_bench_interleaved(
        "candidate_pool_omdb_160",
        "candidate_pool_omdb_160_pairwise",
        warmup,
        iters,
        small,
        small_pairwise,
    );
    vec![build, pairwise, hashed, small, small_pairwise]
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
    let mut trainer = parts.trainer;
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

    // The 150-round status both ways: the server's write from the session's
    // MAE history, cached up to round 149 and caught up by the one new
    // round (the clone of the cached history is timed too), against
    // `Response::SessionStatus` encoding the whole series.
    let metrics = state.metrics();
    let converged_at = state.convergence_so_far().converged_at;
    let (learner_conf, trainer_conf) = (learner.confidences(), trainer.belief().confidences());
    let mut warm = MaeHistory::default();
    warm.catch_up(&metrics[..ROUNDS - 1]);
    let reply = StatusReply {
        session: 1,
        iterations_done: state.iterations_done(),
        iterations: state.config().iterations,
        awaiting_labels: true,
        converged_at,
        learner_confidences: &learner_conf,
        trainer_confidences: &trainer_conf,
    };
    let cached = || {
        let mut history = warm.clone();
        history.catch_up(metrics);
        let mut line = Vec::new();
        reply.encode_into(&history, &mut line);
        line
    };
    let full = || {
        let mut line = Vec::new();
        Response::SessionStatus {
            session: reply.session,
            iterations_done: reply.iterations_done,
            iterations: reply.iterations,
            awaiting_labels: reply.awaiting_labels,
            mae_series: metrics.iter().map(|m| m.mae).collect(),
            converged_at,
            learner_confidences: learner_conf.clone(),
            trainer_confidences: trainer_conf.clone(),
        }
        .encode_into(&mut line);
        line
    };
    if cached() != full() {
        fail("status bench", "cached and full status encodings differ");
    }
    let (cached, full) = time_bench_interleaved(
        "status_encode_cached",
        "status_encode_full",
        warmup,
        iters,
        cached,
        full,
    );
    vec![stream, tree, cached, full]
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

/// A restart over 16 journaled OMDB-160 sessions, mid-stream at mixed
/// round counts (durable-omdb's crash set: `1 + 7i mod 29` rounds each,
/// `--fsync never`, a snapshot every 16 rounds), both ways: store
/// construction plus `recover_from_disk`, which only registers the
/// sessions, against the same work followed by one status per session,
/// which revives each. Every revived status is checked against its bytes
/// before the restart first.
fn restart_benches(quick: bool) -> Vec<BenchStats> {
    const SESSIONS: u64 = 16;
    let (warmup, iters) = if quick { (2, 10) } else { (3, 25) };
    let scratch = std::env::temp_dir().join(format!("et-bench-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cfg = StoreConfig {
        capacity: 64,
        data_dir: Some(scratch.clone()),
        journal: JournalConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 16,
        },
        ..StoreConfig::default()
    };
    let status = |store: &SessionStore, id: u64| {
        let mut line = Vec::new();
        match store.with_session(id, |live| live.write_status(&mut line)) {
            Ok(()) => line,
            Err(e) => fail("status", format!("{e:?}")),
        }
    };
    let store = SessionStore::new(cfg.clone());
    let mut before = Vec::new();
    for i in 0..SESSIONS {
        let spec = CreateSessionSpec {
            dataset: DatasetName::Omdb,
            rows: 160,
            iterations: 30,
            seed: Some(1001 + i),
            ..CreateSessionSpec::default()
        };
        let id = match store.create(&spec) {
            Ok((id, _)) => id,
            Err(e) => fail("create OMDB-160 session", format!("{e:?}")),
        };
        let driven = store.with_session(id, |live| -> Result<(), String> {
            for _ in 0..1 + (7 * i) % 29 {
                live.state
                    .present(&mut live.learner)
                    .map_err(|e| e.to_string())?;
                let labels = live
                    .state
                    .label_pending(&mut live.trainer)
                    .map_err(|e| e.to_string())?;
                live.state
                    .apply_labels(&live.trainer, &mut live.learner, &labels)
                    .map_err(|e| e.to_string())?;
                live.state
                    .maybe_snapshot(&live.trainer, &live.learner)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        if let Err(e) = driven.map_err(|e| format!("{e:?}")).and_then(|r| r) {
            fail("drive OMDB-160 session", e);
        }
        before.push((id, status(&store, id)));
    }
    // A crash: the store drops with no flush.
    drop(store);

    let ready = || {
        let store = SessionStore::new(cfg.clone());
        store.recover_from_disk();
        store
    };
    let revive_all = || {
        let store = ready();
        let lines: Vec<Vec<u8>> = before
            .iter()
            .map(|&(id, _)| match store.revive(id) {
                Ok(()) => status(&store, id),
                Err(e) => fail("revive", format!("{e:?}")),
            })
            .collect();
        (store, lines)
    };
    let (_, lines) = revive_all();
    if lines.iter().ne(before.iter().map(|(_, line)| line)) {
        fail(
            "restart bench",
            "a revived status differs from its bytes before the restart",
        );
    }
    let (ready, revive_all) = time_bench_interleaved(
        "restart_ready",
        "restart_revive_all",
        warmup,
        iters,
        ready,
        revive_all,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    vec![ready, revive_all]
}

/// What one served Hospital-1000 session keeps and allocates.
struct SessionCounts {
    /// Heap bytes kept at create, after 10 rounds and after 300.
    heap_create: usize,
    heap_round10: usize,
    heap_round300: usize,
    /// Mean allocation calls per round of `present`, `label_pending` and
    /// `apply_labels`, over rounds 10–59 (counted from 0).
    round_allocs: [f64; 3],
}

/// Rounds whose allocations [`SessionCounts::round_allocs`] averages:
/// past the first rounds' warm-up builds, well inside the session.
const STEADY_ROUNDS: std::ops::Range<usize> = 10..60;

/// Heap bytes one served Hospital-1000 session keeps, at create and after
/// 10 and 300 rounds, and the allocation calls of its steady rounds'
/// phases: the session built as the store builds one (`build_parts`, then
/// `SessionState::with_cache`), its state and agents kept and the rest of
/// the build freed. Runs on one thread before any other bench, so the
/// difference of two [`live_bytes`] or [`allocs`] reads is the session's.
fn session_counts() -> SessionCounts {
    let spec = CreateSessionSpec {
        dataset: DatasetName::Hospital,
        rows: 1000,
        iterations: 400,
        strategy: StrategyKind::StochasticBestResponse,
        ..CreateSessionSpec::default()
    };
    let base = live_bytes();
    let (mut state, mut trainer, mut learner) = {
        let parts = match build_parts(&spec, 1001) {
            Ok(p) => p,
            Err(e) => fail("build Hospital-1000 session", e),
        };
        let state = match SessionState::with_cache(
            parts.table,
            parts.space,
            parts.cache,
            &parts.dirty_rows,
            parts.cfg,
            &parts.trainer,
            &parts.learner,
        ) {
            Ok(s) => s,
            Err(e) => fail("session config", e),
        };
        (state, parts.trainer, parts.learner)
    };
    let heap_create = live_bytes() - base;
    let mut heap_round10 = 0;
    let mut phase_allocs = [0usize; 3];
    for round in 0..300 {
        if round == 10 {
            heap_round10 = live_bytes() - base;
        }
        let a0 = allocs();
        if let Err(e) = state.present(&mut learner) {
            fail("present", e);
        }
        let a1 = allocs();
        let labels = match state.label_pending(&mut trainer) {
            Ok(l) => l,
            Err(e) => fail("label", e),
        };
        let a2 = allocs();
        if let Err(e) = state.apply_labels(&trainer, &mut learner, &labels) {
            fail("apply labels", e);
        }
        let a3 = allocs();
        if STEADY_ROUNDS.contains(&round) {
            for (sum, n) in phase_allocs.iter_mut().zip([a1 - a0, a2 - a1, a3 - a2]) {
                *sum += n;
            }
        }
    }
    let heap_round300 = live_bytes() - base;
    drop((state, trainer, learner));
    SessionCounts {
        heap_create,
        heap_round10,
        heap_round300,
        round_allocs: phase_allocs.map(|n| n as f64 / STEADY_ROUNDS.len() as f64),
    }
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
    let counts = session_counts();
    let f = fixture(DatasetName::Hospital, rows, 0.15, 2);
    let mut benches = run_benches(&f, cli.quick);

    benches.push(inject_bench(cli.quick));
    benches.extend(create_grouping_benches(cli.quick));
    benches.extend(space_capped_benches(cli.quick));
    benches.extend(candidate_pool_benches(cli.quick));
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

    // Counts, not ratios: the bytes one served session keeps, how many
    // such sessions at round 300 fit in a GiB (the floor ci.sh gates), and
    // the allocation calls of a steady round's phases (ungated: a gate is
    // a floor, and these should only fall).
    let kb = |bytes: usize| bytes as f64 / 1024.0;
    let [present, label_pending, apply_labels] = counts.round_allocs;
    let mut derived: Vec<(&str, f64)> = vec![
        ("session_heap_kb_create", kb(counts.heap_create)),
        ("session_heap_kb_round10", kb(counts.heap_round10)),
        ("session_heap_kb_round300", kb(counts.heap_round300)),
        (
            "sessions_per_gib_round300",
            (1u64 << 30) as f64 / counts.heap_round300.max(1) as f64,
        ),
        ("round_allocs_present", present),
        ("round_allocs_label_pending", label_pending),
        ("round_allocs_apply_labels", apply_labels),
    ];
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
            "policy_class_vs_candidate_speedup",
            "round_policy_per_candidate",
            "round_policy_by_class",
        ),
        (
            "topk_vs_sort_select_speedup",
            "round_sort_select",
            "round_topk_select",
        ),
        (
            "group_by_dense_vs_hash_speedup",
            "group_by_hashed",
            "group_by_dense_hospital_1000",
        ),
        (
            "g1_counter_vs_sort_speedup",
            "prior_data_estimate_sorted",
            "prior_data_estimate_hospital_1000",
        ),
        (
            "space_capped_vs_per_fd_speedup",
            "space_capped_per_fd",
            "space_capped_warm",
        ),
        (
            "pool_build_vs_hashset_speedup",
            "candidate_pool_hashset",
            "candidate_pool_hospital_1000",
        ),
        (
            "pool_build_wordmask_vs_pairwise_speedup",
            "candidate_pool_pairwise",
            "candidate_pool_hospital_1000",
        ),
        // Parity, not a speedup claim: OMDB-160's classes stay on the
        // per-pair side of the word path's switch, and ci gates that the
        // switch costs them nothing (>= 0.9).
        (
            "pool_build_small_class_parity",
            "candidate_pool_omdb_160_pairwise",
            "candidate_pool_omdb_160",
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
            "status_encode_cached_vs_full_speedup",
            "status_encode_full",
            "status_encode_cached",
        ),
        (
            "restart_ready_vs_revive_all_speedup",
            "restart_revive_all",
            "restart_ready",
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
        let is_count = name.starts_with("session") || name.starts_with("round_allocs");
        let unit = if is_count { "" } else { "x" };
        eprintln!("  {name}: {v:.2}{unit}{flag}");
    }
    println!("wrote {}", cli.out);

    if !cli::gates_pass(&cli.gates, &derived) {
        std::process::exit(1);
    }
}
