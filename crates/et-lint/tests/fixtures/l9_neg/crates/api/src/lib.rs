//! L9 negative fixture: the same indexing panic two calls below the
//! public entry as in l9_pos, but vetted by an et-lint.toml `[[allow]]`,
//! so the run is clean; `detached` panics too but no entry reaches it.

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
