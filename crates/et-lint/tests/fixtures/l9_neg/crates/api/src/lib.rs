//! L9 positive fixture: a public entry point reaches an indexing panic
//! two calls deep. clippy::unwrap_used misses this — no unwrap/expect,
//! only a slice index that panics when `rows` is empty.

/// Public API entry point (declared in et-lint.toml).
pub fn entry(rows: &[u32]) -> u32 {
    middle(rows)
}

fn middle(rows: &[u32]) -> u32 {
    deep(rows)
}

fn deep(rows: &[u32]) -> u32 {
    rows[0]
}

/// Panics too, but is unreachable from the declared entry: must not fire.
pub fn detached(rows: &[u32]) -> u32 {
    rows[1]
}
