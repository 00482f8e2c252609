//! Shared-cache tests, also exercised under ThreadSanitizer by
//! `scripts/ci.sh`: index and matrix builds running on many threads over
//! one [`PartitionCache`] must be data-race free and equal to a build on a
//! single thread. A session shares its cache through an `Arc`, and sessions
//! move between server workers, so the cache's locking must hold.

use std::sync::Arc;

use et_fd::{Fd, HypothesisSpace, PartitionCache, RelationMatrix, ViolationIndex};

/// Concurrent builders per test.
const BUILDERS: usize = 6;

fn fixture() -> (et_data::Table, HypothesisSpace) {
    let mut ds = et_data::gen::hospital(240, 7);
    let cfg = et_data::InjectConfig::with_degree(0.15, 11);
    let _ = et_data::inject_errors(&mut ds.table, &ds.exact_fds, &[], &cfg);
    let pinned: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
    let space = HypothesisSpace::capped(&ds.table, 3, 24, 3, &pinned);
    (ds.table, space)
}

#[test]
fn concurrent_builders_share_one_cache() {
    let (table, space) = fixture();
    let table = Arc::new(table);
    let cache = Arc::new(PartitionCache::new(&table));
    let expected = ViolationIndex::build(&table, &space);
    // Hammer the same cold cache from many threads at once: races on the
    // memo maps must neither corrupt nor change results. Handles are joined
    // explicitly (not left to the scope-exit wait) so the join edge goes
    // through pthread_join, which TSan can see with an uninstrumented std.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..BUILDERS)
            .map(|_| {
                let table = Arc::clone(&table);
                let cache = Arc::clone(&cache);
                let space = &space;
                let expected = &expected;
                s.spawn(move || {
                    let idx = ViolationIndex::build_with(&table, space, &cache);
                    assert_eq!(*expected, idx);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// All a<b pairs over a row prefix — a dense pool for the matrix builds.
fn prefix_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            out.push((a, b));
        }
    }
    out
}

#[test]
fn concurrent_matrix_builders_share_one_cache() {
    let (table, space) = fixture();
    let table = Arc::new(table);
    let cache = Arc::new(PartitionCache::new(&table));
    let pairs = prefix_pairs(48.min(table.nrows()));
    let expected = RelationMatrix::build(&table, &space, &PartitionCache::new(&table), &pairs);
    // Hammer the same cold cache from many threads at once: races on the
    // memo maps must neither corrupt nor change results. Handles are joined
    // explicitly (see above).
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..BUILDERS)
            .map(|_| {
                let table = Arc::clone(&table);
                let cache = Arc::clone(&cache);
                let space = &space;
                let pairs = &pairs;
                let expected = &expected;
                s.spawn(move || {
                    let m = RelationMatrix::build(&table, space, &cache, pairs);
                    assert_eq!(*expected, m);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[test]
fn subsample_restriction_from_concurrent_threads() {
    let (table, space) = fixture();
    let cache = PartitionCache::new(&table);
    let samples: Vec<Vec<usize>> = (0..BUILDERS)
        .map(|k| (k..table.nrows()).step_by(k + 2).collect())
        .collect();
    let expected: Vec<ViolationIndex> = samples
        .iter()
        .map(|s| ViolationIndex::build(&table.subset(s), &space))
        .collect();
    std::thread::scope(|sc| {
        let handles: Vec<_> = samples
            .iter()
            .zip(&expected)
            .map(|(sample, want)| {
                let cache = &cache;
                let table = &table;
                let space = &space;
                sc.spawn(move || {
                    let got = ViolationIndex::build_subsample(table, space, cache, sample);
                    assert_eq!(*want, got);
                })
            })
            .collect();
        // Explicit pthread_join edges, visible to TSan (see above).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}
