//! L12 positive fixture: the hot scoring root reaches a `format!`
//! allocation one call deep. L5–L8 cannot see this — the allocation
//! hides in a private helper and is charged to the root by reachability.

/// The per-round scoring entry (declared `[[hot]]` in et-lint.toml).
pub fn score_all(words: &[u64]) -> u64 {
    fold_words(words)
}

fn fold_words(words: &[u64]) -> u64 {
    let tag = format!("{}-lanes", words.len());
    words.iter().fold(tag.len() as u64, |acc, &w| acc ^ w)
}

/// Allocates too, but is unreachable from the hot root: must not fire.
pub fn detached(n: usize) -> Vec<u64> {
    vec![0; n]
}
