//! Every registered experiment must run end to end (quick sizes) and
//! produce non-trivial output — the reproduction harness itself is under
//! test.

use exploratory_training::experiments::{all_experiments, experiment_by_id, RunOptions};

#[test]
fn all_experiments_run_in_quick_mode() {
    let opts = RunOptions::quick();
    for e in all_experiments() {
        let out = (e.run)(&opts).unwrap_or_else(|err| panic!("{}: {err}", e.id));
        assert_eq!(out.id, e.id);
        assert!(
            out.text.trim().len() > 40,
            "{}: report too small:\n{}",
            e.id,
            out.text
        );
        for (name, content) in &out.csv {
            assert!(name.ends_with(".csv"), "{}: artifact {name}", e.id);
            assert!(
                content.lines().count() >= 2,
                "{}: CSV {name} has no data rows",
                e.id
            );
        }
    }
}

#[test]
fn registry_covers_every_paper_artifact() {
    // One experiment per table and figure, plus Proposition 1.
    for id in [
        "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "prop1",
    ] {
        assert!(experiment_by_id(id).is_some(), "missing experiment {id}");
    }
}

#[test]
fn table1_is_exact() {
    // The paper's worked example must reproduce to the digit.
    let out = (experiment_by_id("table1").unwrap().run)(&RunOptions::quick()).unwrap();
    assert!(out.text.contains("1/25"), "{}", out.text);
    assert!(out.text.contains("0.040"), "{}", out.text);
    assert!(out.text.contains("0.96"), "{}", out.text);
}

#[test]
fn experiments_are_deterministic() {
    let opts = RunOptions::quick();
    let a = (experiment_by_id("fig1").unwrap().run)(&opts).unwrap();
    let b = (experiment_by_id("fig1").unwrap().run)(&opts).unwrap();
    assert_eq!(a.text, b.text);
    assert_eq!(a.csv, b.csv);
}
