//! Property tests for the session-log CSV codec in `et_core::replay`:
//! arbitrary histories round-trip through `history_to_csv` →
//! `history_from_csv` unchanged, and malformed, mutated, or truncated input
//! always yields a typed `HistoryParseError`, never a panic.

use et_core::{history_from_csv, history_to_csv, Interaction, PairExample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an arbitrary history the way sessions do: every interaction has
/// at least one tuple row (CSV gap-filling reconstructs empty interactions,
/// but a *trailing* all-empty interaction is unrepresentable in the file,
/// so generation mirrors real logs where each round presents something).
fn arb_history(rng: &mut StdRng) -> Vec<Interaction> {
    let rounds = rng.gen_range(0..8usize);
    (0..rounds)
        .map(|t| {
            let n_selected = rng.gen_range(0..4usize);
            let selected = (0..n_selected)
                .map(|_| {
                    let a = rng.gen_range(0..500usize);
                    let mut b = rng.gen_range(0..500usize);
                    if a == b {
                        b = (b + 1) % 500;
                    }
                    PairExample::new(a, b)
                })
                .collect();
            let n_tuples = rng.gen_range(1..6usize);
            let sample: Vec<usize> = (0..n_tuples).map(|_| rng.gen_range(0..500usize)).collect();
            let labels: Vec<bool> = (0..n_tuples).map(|_| rng.gen_bool(0.3)).collect();
            Interaction {
                t,
                selected,
                sample,
                labels,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// to_csv(h) parses back to exactly h.
    #[test]
    fn histories_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let history = arb_history(&mut rng);
        let csv = history_to_csv(&history);
        let restored = match history_from_csv(&csv) {
            Ok(h) => h,
            Err(e) => return Err(proptest::TestCaseError::fail(format!(
                "round-trip parse failed: {e}\n{csv}"
            ))),
        };
        prop_assert_eq!(restored.len(), history.len());
        for (got, want) in restored.iter().zip(&history) {
            prop_assert_eq!(got.t, want.t);
            prop_assert_eq!(&got.selected, &want.selected);
            prop_assert_eq!(&got.sample, &want.sample);
            prop_assert_eq!(&got.labels, &want.labels);
        }
    }

    /// Arbitrary ASCII garbage never panics the parser.
    #[test]
    fn malformed_ascii_never_panics(bytes in proptest::collection::vec(0x20u8..0x7F, 0..96)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = history_from_csv(&text); // any Result is fine; panics fail
    }

    /// Single-character corruption of a valid file never panics: it either
    /// still parses (the flip hit a digit) or reports a typed error.
    #[test]
    fn mutated_valid_csv_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let history = arb_history(&mut rng);
        let csv = history_to_csv(&history);
        let chars: Vec<char> = csv.chars().collect();
        if chars.is_empty() {
            return Ok(());
        }
        for _ in 0..8 {
            let pos = rng.gen_range(0..chars.len());
            let replacement = match rng.gen_range(0..5) {
                0 => ',',
                1 => '\n',
                2 => 'x',
                3 => '-',
                _ => char::from(rng.gen_range(0x20u8..0x7F)),
            };
            let mut mutated = chars.clone();
            mutated[pos] = replacement;
            let _ = history_from_csv(&mutated.into_iter().collect::<String>());
        }
    }

    /// Every prefix of a valid file parses or errors — no panics on
    /// truncation (a half-written log from a crashed export).
    #[test]
    fn truncations_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let csv = history_to_csv(&arb_history(&mut rng));
        for cut in 0..csv.len() {
            if csv.is_char_boundary(cut) {
                let _ = history_from_csv(&csv[..cut]);
            }
        }
    }

    /// An adversarial `iter` field is rejected, not gap-filled: the parser
    /// must never attempt an allocation proportional to an attacker-chosen
    /// index.
    #[test]
    fn oversized_iter_is_an_error_not_an_allocation(extra in 1u64..1_000_000) {
        let t = (1u64 << 20) + extra;
        let csv = format!("iter,kind,a,b,label\n{t},tuple,3,,1\n");
        let err = history_from_csv(&csv).expect_err("oversized iter must fail");
        prop_assert!(err.reason.contains("cap"), "unexpected reason: {}", err.reason);
    }
}
