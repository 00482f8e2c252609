//! # Exploratory Training
//!
//! A from-scratch Rust reproduction of *Exploratory Training: When Annotators
//! Learn About Data* (SIGMOD 2023). This facade crate re-exports the whole
//! workspace; see the individual crates for details:
//!
//! * [`data`] — tables, dataset generators, error injection ([`et_data`]).
//! * [`fd`] — functional dependencies, g1, violations ([`et_fd`]).
//! * [`belief`] — Beta beliefs, priors, learning rules ([`et_belief`]).
//! * [`game`] — the exploratory-training game itself ([`et_core`]).
//! * [`metrics`] — MAE, F1, MRR ([`et_metrics`]).
//! * [`userstudy`] — the simulated user study ([`et_userstudy`]).
//! * [`experiments`] — the per-table/figure experiment registry
//!   ([`et_experiments`]).
//!
//! # Example
//!
//! Compute the paper's Example 1 (`g1(Team -> City) = 0.04` on Table 1):
//!
//! ```
//! use exploratory_training::data::table::paper_table1;
//! use exploratory_training::fd::{g1_of, Fd};
//!
//! let table = paper_table1();
//! let fd = Fd::from_attrs([1], 2); // Team -> City
//! let g = g1_of(&table, &fd);
//! assert!((g.g1() - 0.04).abs() < 1e-12);
//! ```

pub use et_belief as belief;
pub use et_core as game;
pub use et_data as data;
pub use et_experiments as experiments;
pub use et_fd as fd;
pub use et_metrics as metrics;
pub use et_serve as serve;
pub use et_userstudy as userstudy;
