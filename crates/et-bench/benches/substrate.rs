//! Criterion micro-benchmarks of the substrate hot paths.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use et_belief::{update_from_pair_relations, Belief, Beta};
use et_bench::fixtures::fixture;
use et_data::gen::DatasetName;
use et_data::{inject_errors, InjectConfig};
use et_fd::{g1_of, Fd, PartitionCache, ViolationIndex};
use std::sync::Arc;

fn bench_g1(c: &mut Criterion) {
    let mut group = c.benchmark_group("g1");
    for rows in [200usize, 500, 1000] {
        let f = fixture(DatasetName::Omdb, rows, 0.1, 1);
        let fd = f.space.fd(0);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| g1_of(black_box(&f.table), black_box(&fd)))
        });
    }
    group.finish();
}

fn bench_violation_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_index");
    for rows in [200usize, 500] {
        let f = fixture(DatasetName::Hospital, rows, 0.15, 2);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| ViolationIndex::build(black_box(&f.table), black_box(&f.space)))
        });
    }
    group.finish();
}

fn bench_violation_index_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_index_cached");
    for rows in [200usize, 500] {
        let f = fixture(DatasetName::Hospital, rows, 0.15, 2);
        let cache = PartitionCache::new(&f.table);
        // Warm the cache once; the bench measures steady-state rebuilds.
        let _ = ViolationIndex::build_with(&f.table, &f.space, &cache);
        group.bench_with_input(BenchmarkId::new("warm", rows), &rows, |b, _| {
            b.iter(|| ViolationIndex::build_with(black_box(&f.table), black_box(&f.space), &cache))
        });
    }
    group.finish();
}

fn bench_subsample_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("subsample");
    let f = fixture(DatasetName::Hospital, 500, 0.15, 2);
    let cache = PartitionCache::new(&f.table);
    let _ = ViolationIndex::build_with(&f.table, &f.space, &cache);
    let sample: Vec<usize> = (0..f.table.nrows()).step_by(3).collect();
    group.bench_function("subset_rebuild", |b| {
        b.iter(|| ViolationIndex::build(&f.table.subset(black_box(&sample)), &f.space))
    });
    group.bench_function("cached_restrict", |b| {
        b.iter(|| ViolationIndex::build_subsample(&f.table, &f.space, &cache, black_box(&sample)))
    });
    group.finish();
}

fn bench_belief_update(c: &mut Criterion) {
    let f = fixture(DatasetName::Omdb, 300, 0.1, 3);
    let pairs: Vec<(usize, usize)> = (0..50).map(|i| (i, i + 50)).collect();
    c.bench_function("belief_update_50_pairs", |b| {
        b.iter_batched(
            || Belief::constant(f.space.clone(), Beta::new(2.0, 2.0)),
            |mut belief| update_from_pair_relations(&mut belief, &f.table, black_box(&pairs), 1.0),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("inject");
    for degree in [0.05f64, 0.20] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("deg{degree}")),
            &degree,
            |b, &degree| {
                b.iter_batched(
                    || DatasetName::Omdb.generate(300, 7),
                    |mut ds| {
                        let specs = ds.exact_fds.clone();
                        inject_errors(
                            &mut ds.table,
                            &specs,
                            &[],
                            &InjectConfig::with_degree(degree, 9),
                        )
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_space_capping(c: &mut Criterion) {
    let ds = DatasetName::Tax.generate(300, 11);
    let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
    c.bench_function("space_capped_tax_38", |b| {
        b.iter(|| {
            Arc::new(et_fd::HypothesisSpace::capped(
                black_box(&ds.table),
                3,
                38,
                3,
                &pinned,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_g1,
    bench_violation_index,
    bench_violation_index_cached,
    bench_subsample_paths,
    bench_belief_update,
    bench_injection,
    bench_space_capping
);
criterion_main!(benches);
