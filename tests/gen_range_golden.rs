//! Golden draws of the vendored `rand::Rng::gen_range`: every integer
//! range draw must consume the same words and return the same value as
//! the two-modulo rejection sampler it replaced. Seeded sessions, error
//! injection and the candidate-pool reservoir all draw through it, so a
//! drift here would move every trajectory.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The sampler as it stood: a draw `x` is accepted when `x <= zone`, the
/// zone computed with its own modulo on every call. Returns the draw and
/// how many words were rejected first.
fn two_modulo_below(rng: &mut StdRng, bound: u64) -> (u64, usize) {
    let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
    let mut rejected = 0;
    loop {
        let x = rng.next_u64();
        if x <= zone {
            return (x % bound, rejected);
        }
        rejected += 1;
    }
}

const SEEDS: [u64; 3] = [0, 1001, 0x5eed_cafe];
const DRAWS: usize = 4000;

/// Checks `draw` against the two-modulo sampler over `[start, start +
/// span)` from every seed, including the words both leave behind, and
/// returns how many words the oracle rejected.
fn assert_golden(span: u64, start: u64, mut draw: impl FnMut(&mut StdRng) -> u64) -> usize {
    let mut rejected = 0;
    for seed in SEEDS {
        let mut fast = StdRng::seed_from_u64(seed);
        let mut oracle = StdRng::seed_from_u64(seed);
        for i in 0..DRAWS {
            let (want, r) = two_modulo_below(&mut oracle, span);
            rejected += r;
            assert_eq!(
                draw(&mut fast),
                start + want,
                "span {span} start {start} seed {seed} draw {i}"
            );
        }
        assert_eq!(
            fast.next_u64(),
            oracle.next_u64(),
            "span {span} seed {seed}"
        );
    }
    rejected
}

#[test]
fn u64_draws_match_near_and_inside_the_rejection_zone() {
    // Above 2^63 at least half the words land past `u64::MAX - span + 1`,
    // where the accept test needs the zone. At 2^63 + 1 and 3·2^62 the zone
    // rejects about a half and a quarter of the words; at u64::MAX - 1 and
    // u64::MAX it rejects only the top 2 and 1 words.
    for span in [(1u64 << 63) + 1, 3 << 62] {
        let rejected = assert_golden(span, 0, |rng| rng.gen_range(0..span));
        assert!(rejected > DRAWS / 8, "span {span} rejected only {rejected}");
    }
    for span in [u64::MAX - 1, u64::MAX] {
        assert_golden(span, 0, |rng| rng.gen_range(0..span));
    }
    // `1..=u64::MAX` spans u64::MAX values from a nonzero start.
    assert_golden(u64::MAX, 1, |rng| rng.gen_range(1..=u64::MAX));
}

#[test]
fn small_spans_match() {
    for span in [1u64, 2, 3, 7, 1000, 150_000, (1 << 32) + 1] {
        assert_golden(span, 0, |rng| rng.gen_range(0..span));
    }
}

#[test]
fn usize_and_u32_ranges_with_a_nonzero_start_match() {
    assert_golden(1000, 7, |rng| rng.gen_range(7usize..1007) as u64);
    assert_golden(64_001, 5, |rng| rng.gen_range(5usize..=64_005) as u64);
    assert_golden(u64::from(u32::MAX) - 3, 3, |rng| {
        u64::from(rng.gen_range(3u32..u32::MAX))
    });
    assert_golden(40_000, 12, |rng| u64::from(rng.gen_range(12u32..40_012)));
}
