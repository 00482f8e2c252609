//! The five user-study scenarios of Table 2.
//!
//! Each scenario names a small schema over one of the two study domains,
//! a *target* FD set (the FDs that hold over the clean data with the fewest
//! exceptions) and *alternative* FDs a participant might plausibly believe.
//! Violations are injected with the scenario's ratio (`m/n` target-to-
//! alternative): 1/3 for the Airport scenarios, 2/3 for the OMDB ones.

#![expect(
    clippy::indexing_slicing,
    reason = "targets[0] and alternatives[0] are the primary FDs, and every scenario that scenarios() builds lists at least one target and one alternative"
)]

use et_data::gen::{AttrGen, DatasetSpec, GeneratedDataset};
use et_data::{inject_errors, FdSpec, InjectConfig, Injection};
use et_fd::{Fd, HypothesisSpace};

/// One user-study scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario number (1–5, as in Table 2).
    pub id: usize,
    /// Source domain ("Airport" or "OMDB").
    pub domain: &'static str,
    /// Generator for the scenario's clean dataset.
    pub spec: DatasetSpec,
    /// Target FDs (hold exactly on clean data).
    pub targets: Vec<FdSpec>,
    /// Alternative FDs participants might believe.
    pub alternatives: Vec<FdSpec>,
    /// The violation ratio (m, n): m target violations per n alternative
    /// violations.
    pub ratio: (f64, f64),
    /// Extra decision noise participants exhibit on this scenario — the
    /// paper observed "significantly less monotone learning in scenario 2
    /// ... this scenario is rather more difficult than others" (§A.3).
    pub confusion: f64,
}

impl Scenario {
    /// Generates the scenario dataset with injected violations.
    ///
    /// Returns the dirty table, the injection ground truth, and the clean
    /// generated dataset's FDs.
    pub fn materialize(&self, rows: usize, degree: f64, seed: u64) -> ScenarioData {
        let mut ds: GeneratedDataset = self.spec.generate(rows, seed);
        let cfg = InjectConfig {
            degree,
            target_weight: self.ratio.0,
            alt_weight: self.ratio.1,
            seed: seed ^ 0x1f83_d9ab_fb41_bd6b,
            ..InjectConfig::default()
        };
        let injection = inject_errors(&mut ds.table, &self.targets, &self.alternatives, &cfg);
        ScenarioData {
            table: ds.table,
            injection,
        }
    }

    /// The hypothesis space participants reason over: every normalized FD
    /// of the scenario schema with at most four attributes.
    pub fn space(&self) -> HypothesisSpace {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
        )]
        let n = self.spec.attrs.len() as u16;
        HypothesisSpace::enumerate(n, 4.min(u32::from(n)))
    }

    /// The primary target FD in `et_fd` form.
    pub fn target_fd(&self) -> Fd {
        Fd::from_spec(&self.targets[0])
    }

    /// All target FDs in `et_fd` form.
    pub fn target_fds(&self) -> Vec<Fd> {
        self.targets.iter().map(Fd::from_spec).collect()
    }

    /// The primary alternative FD in `et_fd` form (what a confused
    /// participant starts out believing).
    pub fn alternative_fd(&self) -> Fd {
        Fd::from_spec(&self.alternatives[0])
    }
}

/// A materialized scenario: dirty table plus ground truth.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// The dirty table participants annotate.
    pub table: et_data::Table,
    /// Injection ground truth (dirty rows/cells, achieved degree).
    pub injection: Injection,
}

impl ScenarioData {
    /// Ground-truth clean flags per row.
    pub fn clean_rows(&self) -> Vec<bool> {
        self.injection.dirty_rows.iter().map(|&d| !d).collect()
    }
}

/// The five scenarios of Table 2.
///
/// Attribute cardinalities scale with the generated row count; the
/// generator guarantees the target FDs hold exactly on clean data while the
/// alternatives are plausible but violated.
///
/// ```
/// let all = et_userstudy::scenarios();
/// assert_eq!(all.len(), 5);
/// assert_eq!(all[0].ratio, (1.0, 3.0)); // Airport scenarios use 1/3
/// ```
pub fn scenarios() -> Vec<Scenario> {
    vec![
        // #1 Airport: (facilityname, type) -> manager vs
        //             facilityname -> (type, manager).
        // `type` almost-follows from `facilityname`, so the alternatives
        // nearly hold — plausible, but with more exceptions than the target.
        Scenario {
            id: 1,
            domain: "Airport",
            spec: DatasetSpec {
                name: "airport-s1".into(),
                attrs: vec![
                    AttrGen::base("facilityname", 24, 0.8),           // 0
                    AttrGen::noisy_derived("type", vec![0], 3, 0.10), // 1
                    AttrGen::derived("manager", vec![0, 1], 30),      // 2
                ],
            },
            targets: vec![FdSpec::new(vec![0, 1], 2)],
            alternatives: vec![FdSpec::new(vec![0], 1), FdSpec::new(vec![0], 2)],
            ratio: (1.0, 3.0),
            confusion: 0.0,
        },
        // #2 Airport: sitenumber -> (facilityname, owner, manager) vs
        //             facilityname -> (sitenumber, owner, manager).
        Scenario {
            id: 2,
            domain: "Airport",
            spec: DatasetSpec {
                name: "airport-s2".into(),
                attrs: vec![
                    AttrGen::base("sitenumber", 36, 0.8),          // 0
                    AttrGen::derived("facilityname", vec![0], 30), // 1
                    AttrGen::derived("owner", vec![0], 22),        // 2
                    AttrGen::derived("manager", vec![0], 26),      // 3
                ],
            },
            targets: vec![
                FdSpec::new(vec![0], 1),
                FdSpec::new(vec![0], 2),
                FdSpec::new(vec![0], 3),
            ],
            alternatives: vec![FdSpec::new(vec![1], 2), FdSpec::new(vec![1], 3)],
            ratio: (1.0, 3.0),
            // The alternative determinant is a near-function of the target's
            // (facilityname = f(sitenumber) with close cardinalities), which
            // is what made real participants oscillate.
            confusion: 0.30,
        },
        // #3 Airport: manager -> owner vs facilityname -> (owner, manager).
        // `manager` almost-follows from `facilityname`, making the
        // alternatives nearly hold.
        Scenario {
            id: 3,
            domain: "Airport",
            spec: DatasetSpec {
                name: "airport-s3".into(),
                attrs: vec![
                    AttrGen::base("facilityname", 28, 0.6),               // 0
                    AttrGen::derived("owner", vec![2], 18),               // 1
                    AttrGen::noisy_derived("manager", vec![0], 26, 0.08), // 2
                ],
            },
            targets: vec![FdSpec::new(vec![2], 1)],
            alternatives: vec![FdSpec::new(vec![0], 1), FdSpec::new(vec![0], 2)],
            ratio: (1.0, 3.0),
            confusion: 0.0,
        },
        // #4 OMDB: (title, year) -> (type, genre) vs
        //          title -> (year, type, genre). Movies rarely share a
        //          title across years, so title almost-determines year.
        Scenario {
            id: 4,
            domain: "OMDB",
            spec: DatasetSpec {
                name: "omdb-s4".into(),
                attrs: vec![
                    AttrGen::base("title", 40, 1.0),                   // 0
                    AttrGen::noisy_derived("year", vec![0], 20, 0.12), // 1
                    AttrGen::derived("genre", vec![0, 1], 12),         // 2
                    AttrGen::derived("type", vec![0, 1], 2),           // 3
                ],
            },
            targets: vec![FdSpec::new(vec![0, 1], 3), FdSpec::new(vec![0, 1], 2)],
            alternatives: vec![FdSpec::new(vec![0], 1), FdSpec::new(vec![0], 3)],
            ratio: (2.0, 3.0),
            confusion: 0.0,
        },
        // #5 OMDB: rating -> type vs title -> (rating, type). A title
        // almost-determines its rating.
        Scenario {
            id: 5,
            domain: "OMDB",
            spec: DatasetSpec {
                name: "omdb-s5".into(),
                attrs: vec![
                    AttrGen::base("title", 45, 0.9),                    // 0
                    AttrGen::noisy_derived("rating", vec![0], 8, 0.10), // 1
                    AttrGen::derived("type", vec![1], 2),               // 2
                ],
            },
            targets: vec![FdSpec::new(vec![1], 2)],
            alternatives: vec![FdSpec::new(vec![0], 1), FdSpec::new(vec![0], 2)],
            ratio: (2.0, 3.0),
            confusion: 0.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::violation_degree;

    #[test]
    fn five_scenarios_with_paper_ratios() {
        let all = scenarios();
        assert_eq!(all.len(), 5);
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.id, i + 1);
        }
        assert_eq!(all[0].ratio, (1.0, 3.0));
        assert_eq!(all[4].ratio, (2.0, 3.0));
        assert_eq!(all[0].domain, "Airport");
        assert_eq!(all[3].domain, "OMDB");
    }

    #[test]
    fn targets_hold_on_clean_data() {
        for s in scenarios() {
            let clean = s.spec.generate(250, 9);
            for t in &s.targets {
                let deg = violation_degree(&clean.table, std::slice::from_ref(t));
                assert_eq!(
                    deg,
                    0.0,
                    "scenario {}: target {} violated on clean data",
                    s.id,
                    t.display(clean.table.schema())
                );
            }
        }
    }

    #[test]
    fn alternatives_are_wrong_but_plausible() {
        for s in scenarios() {
            let clean = s.spec.generate(300, 9);
            for a in &s.alternatives {
                let deg = violation_degree(&clean.table, std::slice::from_ref(a));
                assert!(
                    deg > 0.0,
                    "scenario {}: alternative {} should not hold exactly",
                    s.id,
                    a.display(clean.table.schema())
                );
                assert!(
                    deg < 0.6,
                    "scenario {}: alternative {} too implausible (degree {deg})",
                    s.id,
                    a.display(clean.table.schema())
                );
            }
        }
    }

    #[test]
    fn materialize_injects_requested_violations() {
        let s = &scenarios()[0];
        let data = s.materialize(250, 0.30, 3);
        assert!(data.injection.achieved_degree >= 0.30);
        assert!(data.injection.dirty_row_count() > 0);
        let clean = data.clean_rows();
        assert_eq!(clean.len(), 250);
    }

    #[test]
    fn spaces_contain_targets_and_alternatives() {
        for s in scenarios() {
            let space = s.space();
            for fd in s.target_fds() {
                assert!(space.contains(&fd), "scenario {} missing target", s.id);
            }
            assert!(space.contains(&s.alternative_fd()));
        }
    }
}
