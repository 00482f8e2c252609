//! Experiment registry: one entry per table and figure of the paper.
//!
//! * [`convergence`] — the shared engine behind Figures 1 and 3–7: generate
//!   a dataset, inject violations, run every sampling method over multiple
//!   seeds, and aggregate MAE / F1 curves.
//! * [`report`] — ASCII-table and CSV rendering of curve families.
//! * [`registry`] — the experiment catalogue (`table1`–`table3`,
//!   `fig1`–`fig7`, `prop1`, plus the ablations DESIGN.md calls out);
//!   each entry regenerates one artifact and explains the expected shape.
//!
//! The `repro` binary in `et-bench` drives this registry end to end:
//! `repro --list`, `repro --exp fig1`, `repro --all`.

pub mod convergence;
pub mod registry;
pub mod report;

pub use convergence::{ConvergenceExperiment, MethodRun, NoRounds, PriorKind};
pub use registry::{all_experiments, experiment_by_id, Experiment, ExperimentOutput, RunOptions};
