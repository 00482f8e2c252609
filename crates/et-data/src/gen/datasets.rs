//! The paper's four evaluation datasets, reproduced synthetically.
//!
//! Cardinalities scale with the requested row count so group sizes (and thus
//! violation-pair structure) stay realistic at any scale. Each generator
//! returns the clean table plus the exact FDs that hold by construction;
//! [`crate::inject`] is used afterwards to introduce controlled violations.

use super::spec::{AttrGen, DatasetSpec, GeneratedDataset};

/// The four datasets of the paper's empirical study (Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    /// Open Movie Database sample (user study + empirical study).
    Omdb,
    /// Alaska airports (user study + empirical study).
    Airport,
    /// Hospital quality data — 19 attributes, six exact FDs.
    Hospital,
    /// Synthetic tax records — 15 attributes, four exact FDs.
    Tax,
}

impl DatasetName {
    /// All four datasets, in the order the paper reports them.
    pub const ALL: [DatasetName; 4] = [
        DatasetName::Omdb,
        DatasetName::Airport,
        DatasetName::Hospital,
        DatasetName::Tax,
    ];

    /// Human-readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            DatasetName::Omdb => "OMDB",
            DatasetName::Airport => "Airport",
            DatasetName::Hospital => "Hospital",
            DatasetName::Tax => "Tax",
        }
    }

    /// The generator recipe of the dataset at `rows` rows.
    pub fn spec(&self, rows: usize) -> DatasetSpec {
        match self {
            DatasetName::Omdb => omdb_spec(rows),
            DatasetName::Airport => airport_spec(rows),
            DatasetName::Hospital => hospital_spec(rows),
            DatasetName::Tax => tax_spec(rows),
        }
    }

    /// Generates the dataset at the given size and seed.
    pub fn generate(&self, rows: usize, seed: u64) -> GeneratedDataset {
        self.spec(rows).generate(rows, seed)
    }
}

fn card(rows: usize, divisor: usize, min: usize) -> usize {
    (rows / divisor).max(min)
}

/// OMDB movie/TV data.
///
/// Exact FDs by construction:
/// `(title, year) -> rating`, `rating -> type`, `(title, year) -> genre`
/// (so the Table 2 scenario-4 target `(title, year) -> (type, genre)` and
/// scenario-5 target `rating -> type` both hold on clean data).
pub fn omdb(rows: usize, seed: u64) -> GeneratedDataset {
    omdb_spec(rows).generate(rows, seed)
}

fn omdb_spec(rows: usize) -> DatasetSpec {
    DatasetSpec {
        name: "OMDB".into(),
        attrs: vec![
            AttrGen::base("title", card(rows, 5, 8), 1.0),   // 0
            AttrGen::base("year", 30, 0.6),                  // 1
            AttrGen::derived("rating", vec![0, 1], 8),       // 2
            AttrGen::derived("type", vec![2], 2),            // 3
            AttrGen::derived("genre", vec![0, 1], 12),       // 4
            AttrGen::base("runtime", card(rows, 6, 6), 0.0), // 5
            AttrGen::base("language", 5, 0.8),               // 6
        ],
    }
}

/// Alaska airport facilities.
///
/// Exact FDs by construction:
/// `sitenumber -> facilityname`, `(facilityname, type) -> manager`,
/// `manager -> owner` (the Table 2 scenario-1 and scenario-3 targets).
pub fn airport(rows: usize, seed: u64) -> GeneratedDataset {
    airport_spec(rows).generate(rows, seed)
}

fn airport_spec(rows: usize) -> DatasetSpec {
    DatasetSpec {
        name: "Airport".into(),
        attrs: vec![
            AttrGen::base("sitenumber", card(rows, 8, 6), 0.9), // 0
            AttrGen::derived("facilityname", vec![0], card(rows, 10, 5)), // 1
            AttrGen::base("type", 3, 0.4),                      // 2
            AttrGen::derived("manager", vec![1, 2], card(rows, 12, 5)), // 3
            AttrGen::derived("owner", vec![3], card(rows, 16, 4)), // 4
        ],
    }
}

/// Hospital quality data — 19 attributes, six exact FDs, matching the
/// error-detection literature's real dataset structure.
///
/// Exact FDs by construction:
/// `providernumber -> hospitalname`, `zipcode -> city`, `zipcode -> state`,
/// `phonenumber -> zipcode`, `measurecode -> measurename`,
/// `measurecode -> condition`.
pub fn hospital(rows: usize, seed: u64) -> GeneratedDataset {
    hospital_spec(rows).generate(rows, seed)
}

fn hospital_spec(rows: usize) -> DatasetSpec {
    DatasetSpec {
        name: "Hospital".into(),
        attrs: vec![
            AttrGen::base("providernumber", card(rows, 8, 6), 0.8), // 0
            AttrGen::derived("hospitalname", vec![0], card(rows, 9, 5)), // 1
            AttrGen::base("address1", card(rows, 3, 8), 0.0),       // 2
            AttrGen::base("address2", 3, 1.5),                      // 3
            AttrGen::base("address3", 2, 1.5),                      // 4
            AttrGen::derived("city", vec![7], 30),                  // 5
            AttrGen::derived("state", vec![7], 15),                 // 6
            AttrGen::derived("zipcode", vec![9], 40),               // 7
            AttrGen::base("countyname", 25, 0.5),                   // 8
            AttrGen::base("phonenumber", card(rows, 6, 8), 0.8),    // 9
            AttrGen::base("hospitaltype", 4, 0.5),                  // 10
            AttrGen::base("hospitalowner", 6, 0.7),                 // 11
            AttrGen::base("emergencyservice", 2, 0.0),              // 12
            AttrGen::derived("condition", vec![14], 10),            // 13
            AttrGen::base("measurecode", 20, 0.5),                  // 14
            AttrGen::derived("measurename", vec![14], 20),          // 15
            AttrGen::base("score", 30, 0.3),                        // 16
            AttrGen::base("sample", 40, 0.0),                       // 17
            AttrGen::base("stateavg", 30, 0.2),                     // 18
        ],
    }
}

/// Synthetic tax records — 15 attributes, four exact FDs, matching the
/// error-detection literature's generator.
///
/// Exact FDs by construction:
/// `zip -> city`, `zip -> state`, `state -> singleexemp`,
/// `(state, haschild) -> childexemp`.
pub fn tax(rows: usize, seed: u64) -> GeneratedDataset {
    tax_spec(rows).generate(rows, seed)
}

fn tax_spec(rows: usize) -> DatasetSpec {
    DatasetSpec {
        name: "Tax".into(),
        attrs: vec![
            AttrGen::base("fname", card(rows, 3, 10), 0.3), // 0
            AttrGen::base("lname", card(rows, 3, 10), 0.3), // 1
            AttrGen::base("gender", 2, 0.0),                // 2
            AttrGen::base("areacode", 30, 0.5),             // 3
            AttrGen::base("phone", card(rows, 2, 10), 0.0), // 4
            AttrGen::derived("city", vec![7], 35),          // 5
            AttrGen::derived("state", vec![7], 18),         // 6
            AttrGen::base("zip", 45, 0.6),                  // 7
            AttrGen::base("maritalstatus", 2, 0.2),         // 8
            AttrGen::base("haschild", 2, 0.0),              // 9
            AttrGen::base("salary", 40, 0.3),               // 10
            AttrGen::base("rate", 15, 0.4),                 // 11
            AttrGen::derived("singleexemp", vec![6], 10),   // 12
            AttrGen::base("marriedexemp", 10, 0.4),         // 13
            AttrGen::derived("childexemp", vec![6, 9], 12), // 14
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FdSpec;

    fn fd_holds(t: &crate::Table, fd: &FdSpec) -> bool {
        let lhs: Vec<u16> = fd.lhs.iter().map(|&a| a as u16).collect();
        let g = t.group_by(&lhs);
        g.groups.iter().all(|rows| {
            let first = t.sym(rows[0] as usize, fd.rhs as u16);
            rows.iter()
                .all(|&r| t.sym(r as usize, fd.rhs as u16) == first)
        })
    }

    #[test]
    fn paper_dataset_shapes() {
        let h = hospital(200, 1);
        assert_eq!(h.table.ncols(), 19, "Hospital has 19 attributes");
        assert_eq!(h.exact_fds.len(), 6, "Hospital has six exact FDs");
        let t = tax(200, 1);
        assert_eq!(t.table.ncols(), 15, "Tax has 15 attributes");
        assert_eq!(t.exact_fds.len(), 4, "Tax has four exact FDs");
    }

    #[test]
    fn all_exact_fds_hold_on_clean_data() {
        for name in DatasetName::ALL {
            let ds = name.generate(250, 11);
            for fd in &ds.exact_fds {
                assert!(
                    fd_holds(&ds.table, fd),
                    "{}: {} must hold on clean data",
                    ds.name,
                    fd.display(ds.table.schema())
                );
            }
        }
    }

    #[test]
    fn omdb_scenario_targets_hold() {
        let ds = omdb(300, 5);
        let s = ds.table.schema();
        let ty = s.id_of("type").unwrap() as usize;
        let title = s.id_of("title").unwrap() as usize;
        let year = s.id_of("year").unwrap() as usize;
        // Scenario 4 target: (title, year) -> type (holds transitively
        // through rating).
        assert!(fd_holds(&ds.table, &FdSpec::new(vec![title, year], ty)));
    }

    #[test]
    fn datasets_have_group_structure() {
        // Approximate-FD learning needs LHS groups of size >= 2.
        for name in DatasetName::ALL {
            let ds = name.generate(300, 2);
            for fd in &ds.exact_fds {
                let lhs: Vec<u16> = fd.lhs.iter().map(|&a| a as u16).collect();
                let g = ds.table.group_by(&lhs);
                let pairs: usize = g
                    .groups
                    .iter()
                    .map(|grp| grp.len() * (grp.len() - 1) / 2)
                    .sum();
                assert!(
                    pairs >= 20,
                    "{}: {} has only {pairs} within-group pairs",
                    ds.name,
                    fd.display(ds.table.schema())
                );
            }
        }
    }

    #[test]
    fn generate_via_name_enum() {
        let ds = DatasetName::Omdb.generate(50, 3);
        assert_eq!(ds.name, "OMDB");
        assert_eq!(ds.table.nrows(), 50);
    }
}
