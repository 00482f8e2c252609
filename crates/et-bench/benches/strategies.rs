//! Per-strategy selection cost over growing candidate pools.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use et_belief::{build_prior, PriorConfig, PriorSpec};
use et_bench::fixtures::fixture;
use et_core::{CandidatePool, FreshCandidates, ResponseStrategy, StrategyKind};
use et_data::gen::DatasetName;
use et_fd::PartitionCache;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One selection round per iteration over the whole pool, each from a
/// cold scorer: one full packed fold plus the policy and the picks.
fn bench_selection(c: &mut Criterion) {
    let f = fixture(DatasetName::Omdb, 400, 0.1, 1);
    let cache = PartitionCache::new(&f.table);
    let index = et_fd::ViolationIndex::build(&f.table, &f.space);
    let belief = build_prior(
        &PriorSpec::DataEstimate,
        &PriorConfig::default(),
        &f.space,
        &f.table,
    );
    let mut group = c.benchmark_group("select_5_pairs");
    for pool_cap in [200usize, 1000, 4000] {
        let pool = CandidatePool::build_with(&f.table, &f.space, &cache, pool_cap, 3);
        let matrix = Arc::new(pool.relation_matrix(&f.table, &f.space, &cache));
        for kind in StrategyKind::PAPER_METHODS {
            let strategy = ResponseStrategy::paper(kind);
            group.bench_with_input(
                BenchmarkId::new(kind.as_str(), pool_cap),
                &pool_cap,
                |b, _| {
                    b.iter_batched(
                        || {
                            let fresh = FreshCandidates::new(Arc::clone(&matrix), &[]);
                            (StdRng::seed_from_u64(9), fresh)
                        },
                        |(mut rng, fresh)| {
                            strategy.select_round(
                                fresh.ctx(&index),
                                black_box(&belief),
                                fresh.ids(),
                                5,
                                &mut rng,
                            )
                        },
                        criterion::BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

fn bench_pool_build(c: &mut Criterion) {
    let f = fixture(DatasetName::Hospital, 400, 0.15, 2);
    c.bench_function("pool_build_hospital_4000", |b| {
        b.iter(|| CandidatePool::build(black_box(&f.table), black_box(&f.space), 4000, 3))
    });
}

criterion_group!(benches, bench_selection, bench_pool_build);
criterion_main!(benches);
