//! End-to-end runs of the graph rules L10 and L11 and the hot-path cost rules
//! L12–L14 over the fixture trees in `tests/fixtures/`. Each tree is a
//! miniature workspace root (with its own `et-lint.toml` where the rule
//! needs entry/source/hot declarations); every rule has a known-positive
//! and a known-negative tree.

#![expect(
    clippy::panic,
    reason = "a helper outside `#[test]` panics to fail the test with context"
)]

use std::path::PathBuf;

use et_lint::{render, run, Report};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn report(name: &str) -> Report {
    run(&fixture(name)).unwrap_or_else(|e| panic!("fixture {name} must run: {e}"))
}

fn fired(report: &Report) -> Vec<&str> {
    report
        .findings
        .iter()
        .map(|f| f.violation.rule.id())
        .collect()
}

#[test]
fn l10_positive_two_lock_inversion_fires_with_witness_cycle() {
    let r = report("l10_pos");
    assert_eq!(fired(&r), ["L10"], "{r:?}");
    let f = &r.findings[0];
    assert!(
        f.violation.message.contains("lock-order cycle"),
        "{}",
        f.violation.message
    );
    assert!(
        f.violation.message.contains("Store.a") && f.violation.message.contains("Store.b"),
        "cycle names both lock classes: {}",
        f.violation.message
    );
    assert_eq!(
        f.witness.len(),
        2,
        "one hop per cycle edge: {:?}",
        f.witness
    );

    // The rendered report prints the witness chain under the finding.
    let mut sink = Vec::new();
    let code = render(&r, &fixture("l10_pos").join("et-lint.toml"), &mut sink);
    assert_eq!(code, 1);
    let text = String::from_utf8(sink).expect("utf8");
    assert!(text.contains("via "), "witness rendered: {text}");
    assert!(
        text.contains("sum_ab") && text.contains("sum_ba"),
        "both inversion sites shown: {text}"
    );
}

#[test]
fn l10_negative_consistent_order_is_clean() {
    let r = report("l10_neg");
    assert!(r.is_clean(), "{r:?}");
}

#[test]
fn l11_positive_fires_on_clock_read_with_chain() {
    let r = report("l11_pos");
    assert_eq!(fired(&r), ["L11"], "{r:?}");
    let f = &r.findings[0];
    assert!(
        f.violation.message.contains("engine::stamp")
            && f.violation.message.contains("Instant::now"),
        "{}",
        f.violation.message
    );
    assert_eq!(f.witness.len(), 2, "step → stamp: {:?}", f.witness);
    assert!(
        !r.findings
            .iter()
            .any(|f| f.violation.message.contains("metrics_tick")),
        "clock reads off the session path are fine: {r:?}"
    );
}

#[test]
fn l11_negative_pure_path_is_clean() {
    let r = report("l11_neg");
    assert!(r.is_clean(), "{r:?}");
}

#[test]
fn l12_positive_fires_on_transitive_format_with_witness() {
    let r = report("l12_pos");
    assert_eq!(fired(&r), ["L12"], "{r:?}");
    let f = &r.findings[0];
    assert!(
        f.violation.message.contains("score::fold_words")
            && f.violation.message.contains("format!"),
        "{}",
        f.violation.message
    );
    assert_eq!(
        f.witness.len(),
        2,
        "score_all → fold_words: {:?}",
        f.witness
    );
    assert!(f.witness[0].contains("score::score_all"), "{:?}", f.witness);
    assert!(
        !r.findings
            .iter()
            .any(|f| f.violation.message.contains("detached")),
        "allocation off the hot path must not fire: {r:?}"
    );
    // The cost report rides on the same run.
    assert_eq!(r.hot_roots.len(), 1, "{r:?}");
    let stat = &r.hot_roots[0];
    assert_eq!(stat.reachable_fns, 2, "{stat:?}");
    assert_eq!(stat.alloc_sites, 1, "{stat:?}");
    assert_eq!(stat.witness_depth, 2, "{stat:?}");
}

#[test]
fn l12_negative_vetted_setup_alloc_is_clean() {
    let r = report("l12_neg");
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(
        r.suppressed, 1,
        "the vetted lane table is suppressed: {r:?}"
    );
    // Vetted sites still count toward the budget and carry their bound.
    let stat = &r.hot_roots[0];
    assert_eq!(stat.alloc_sites, 1, "{stat:?}");
    assert_eq!(stat.vetted.len(), 1, "{stat:?}");
    assert!(stat.vetted[0].bound.contains("bounded"), "{stat:?}");
}

#[test]
fn l13_positive_fires_on_lock_behind_the_fold() {
    let r = report("l13_pos");
    assert_eq!(fired(&r), ["L13"], "{r:?}");
    let f = &r.findings[0];
    assert!(
        f.violation.message.contains("Store::fold") && f.violation.message.contains("lock"),
        "{}",
        f.violation.message
    );
    assert_eq!(f.witness.len(), 2, "score_all → fold: {:?}", f.witness);
    assert_eq!(r.hot_roots[0].lock_sites, 1, "{r:?}");
}

#[test]
fn l13_negative_lock_outside_hot_path_is_clean() {
    let r = report("l13_neg");
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.suppressed, 0, "nothing to vet: {r:?}");
    assert_eq!(r.hot_roots[0].lock_sites, 0, "{r:?}");
}

#[test]
fn l14_positive_fires_on_fs_write() {
    let r = report("l14_pos");
    assert_eq!(fired(&r), ["L14"], "{r:?}");
    let f = &r.findings[0];
    assert!(
        f.violation.message.contains("session::persist")
            && f.violation.message.contains("fs::write"),
        "{}",
        f.violation.message
    );
    assert_eq!(
        f.witness.len(),
        2,
        "apply_labels → persist: {:?}",
        f.witness
    );
    assert_eq!(r.hot_roots[0].io_sites, 1, "{r:?}");
}

#[test]
fn l14_negative_vetted_write_ahead_is_clean() {
    let r = report("l14_neg");
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.suppressed, 1, "the write-ahead append is vetted: {r:?}");
    let stat = &r.hot_roots[0];
    assert_eq!(stat.io_sites, 1, "vetted I/O still counted: {stat:?}");
    assert!(stat.vetted[0].bound.contains("deliberate"), "{stat:?}");
}

#[test]
fn fixtures_report_graph_statistics() {
    let r = report("l11_pos");
    assert_eq!(r.graph_fns, 3, "all fixture fns in the graph: {r:?}");
}
