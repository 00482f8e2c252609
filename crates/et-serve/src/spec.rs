//! From a wire-level session request to a runnable session: dataset
//! generation, error injection, hypothesis space, agents.
//!
//! Everything here is a pure function of `(spec, seed)` so that a session
//! created over the wire is *bit-identical* to a batch [`run_session`] with
//! the same spec and seed — the server's reproducibility guarantee, and
//! what the integration tests assert.

use std::sync::Arc;

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::{
    run_session, FpTrainer, Learner, ResponseStrategy, SessionConfig, SessionResult, StrategyKind,
};
use et_data::gen::DatasetName;
use et_data::{inject_errors, InjectConfig, Table};
use et_fd::{Fd, HypothesisSpace, PartitionCache};

/// What a `create_session` request asks for; every field has a paper-shaped
/// default so the empty request is valid.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateSessionSpec {
    /// Synthetic dataset family.
    pub dataset: DatasetName,
    /// Rows to generate.
    pub rows: usize,
    /// Error-injection degree of violation, in `[0, 1)`: the fraction of
    /// at-risk tuple pairs (pairs agreeing on some exact FD's LHS) that
    /// violate at least one exact FD once injection stops. It is not a
    /// fraction of rows (see `et_data::inject`).
    pub degree: f64,
    /// The learner's selection strategy.
    pub strategy: StrategyKind,
    /// Interactions `N`, at most 10000 (the session reserves one metrics
    /// row per interaction when it is built).
    pub iterations: usize,
    /// Pairs per interaction.
    pub pairs_per_iteration: usize,
    /// Held-out fraction, in `(0, 1)`.
    pub test_frac: f64,
    /// Explicit base seed; `None` lets the server derive one from its base
    /// seed and the session id. The wire carries one number type (`f64`),
    /// so a seed crosses it exactly only at or below 2^53; derived seeds
    /// always lie below 2^53.
    pub seed: Option<u64>,
}

impl Default for CreateSessionSpec {
    fn default() -> Self {
        Self {
            dataset: DatasetName::Omdb,
            rows: 160,
            degree: 0.10,
            strategy: StrategyKind::StochasticBestResponse,
            iterations: 30,
            pairs_per_iteration: 5,
            test_frac: 0.3,
            seed: None,
        }
    }
}

impl CreateSessionSpec {
    /// The session configuration this spec induces for `session_seed`.
    pub fn session_config(&self, session_seed: u64) -> SessionConfig {
        SessionConfig {
            iterations: self.iterations,
            pairs_per_iteration: self.pairs_per_iteration,
            test_frac: self.test_frac,
            seed: session_seed,
            ..SessionConfig::default()
        }
    }

    /// Rejects specs the build pipeline cannot honor (the session-config
    /// half is covered separately by [`SessionConfig::validate`]).
    ///
    /// # Errors
    /// A human-readable description of the first bad field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.degree) {
            return Err(format!("degree must lie in [0, 1), got {}", self.degree));
        }
        if self.rows < 16 {
            return Err(format!("rows must be at least 16, got {}", self.rows));
        }
        if self.rows > 100_000 {
            return Err(format!("rows must be at most 100000, got {}", self.rows));
        }
        if self.iterations > 10_000 {
            return Err(format!(
                "iterations must be at most 10000, got {}",
                self.iterations
            ));
        }
        Ok(())
    }
}

/// A fully built session environment: the data, the space, and both agents.
pub struct SessionParts {
    /// The generated (and dirtied) table.
    pub table: Table,
    /// The FD hypothesis space.
    pub space: Arc<HypothesisSpace>,
    /// The partitions the space was scored through, pruned to the space's
    /// determinants: hand it to [`et_core::SessionState::with_cache`] so
    /// the session does not derive them again.
    pub cache: Arc<PartitionCache>,
    /// Ground-truth dirty flags (used for held-out F1 only).
    pub dirty_rows: Vec<bool>,
    /// The session configuration.
    pub cfg: SessionConfig,
    /// The simulated annotator.
    pub trainer: FpTrainer,
    /// The active learner.
    pub learner: Learner,
}

/// Splits one base seed into independent sub-streams (SplitMix64), one per
/// pipeline stage, so stages cannot correlate.
fn sub_seed(base: u64, stream: u64) -> u64 {
    let mut z = base
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for session `session_id` from the server's base seed.
/// Pure and collision-resistant in practice: concurrent sessions get
/// unrelated, reproducible streams (never unseeded; DESIGN.md §7.1).
///
/// Keeps the top 53 bits of the mix, so the seed is below 2^53 and the
/// `created` reply echoes it exactly (wire numbers are `f64`).
pub fn derive_seed(base_seed: u64, session_id: u64) -> u64 {
    sub_seed(base_seed ^ 0x5E55_105E_5510, session_id) >> 11
}

/// Builds the full session environment for `(spec, session_seed)`.
///
/// # Errors
/// A description of the spec or config problem (the server maps this to an
/// `invalid_config` reply).
pub fn build_parts(spec: &CreateSessionSpec, session_seed: u64) -> Result<SessionParts, String> {
    spec.validate()?;
    let cfg = spec.session_config(session_seed);
    cfg.validate().map_err(|e| e.to_string())?;

    let mut ds = spec.dataset.generate(spec.rows, sub_seed(session_seed, 1));
    let specs = ds.exact_fds.clone();
    let inj = inject_errors(
        &mut ds.table,
        &specs,
        &[],
        &InjectConfig::with_degree(spec.degree, sub_seed(session_seed, 2)),
    );
    let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
    let cache = PartitionCache::new(&ds.table);
    let space = Arc::new(HypothesisSpace::capped_with(
        &ds.table, &cache, 3, 20, 3, &pinned,
    ));
    // Scoring memoized every determinant of the lattice; the session reads
    // only the space's own.
    let determinants = space.distinct_lhs();
    cache.prune(|attrs| determinants.contains(&attrs));

    let prior_cfg = PriorConfig::weak();
    let trainer_prior = build_prior(
        &PriorSpec::Random {
            seed: sub_seed(session_seed, 3),
        },
        &prior_cfg,
        &space,
        &ds.table,
    );
    let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
    let trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
    let learner = Learner::new(
        learner_prior,
        ResponseStrategy::paper(spec.strategy),
        EvidenceConfig::default(),
        sub_seed(session_seed, 4),
    );
    Ok(SessionParts {
        table: ds.table,
        space,
        cache: Arc::new(cache),
        dirty_rows: inj.dirty_rows,
        cfg,
        trainer,
        learner,
    })
}

/// Runs the same `(spec, seed)` as a closed batch loop — the reference the
/// wire-driven path must match exactly.
///
/// # Errors
/// Same conditions as [`build_parts`].
pub fn run_batch(spec: &CreateSessionSpec, session_seed: u64) -> Result<SessionResult, String> {
    let mut parts = build_parts(spec, session_seed)?;
    Ok(run_session(
        &parts.table,
        parts.space.clone(),
        &parts.dirty_rows,
        parts.cfg.clone(),
        &mut parts.trainer,
        &mut parts.learner,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_and_runs() {
        let spec = CreateSessionSpec {
            iterations: 3,
            ..CreateSessionSpec::default()
        };
        let r = run_batch(&spec, 42).expect("builds");
        assert_eq!(r.metrics.len(), 3);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let bad_degree = CreateSessionSpec {
            degree: 1.0,
            ..CreateSessionSpec::default()
        };
        assert!(bad_degree.validate().is_err());
        let tiny = CreateSessionSpec {
            rows: 4,
            ..CreateSessionSpec::default()
        };
        assert!(tiny.validate().is_err());
        let endless = CreateSessionSpec {
            iterations: 10_001,
            ..CreateSessionSpec::default()
        };
        assert!(endless.validate().is_err());
        let longest = CreateSessionSpec {
            iterations: 10_000,
            ..CreateSessionSpec::default()
        };
        assert_eq!(longest.validate(), Ok(()));
        let bad_cfg = CreateSessionSpec {
            test_frac: 1.5,
            ..CreateSessionSpec::default()
        };
        assert!(build_parts(&bad_cfg, 1).is_err());
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        for id in 0..64 {
            assert!(derive_seed(u64::MAX, id) < 1 << 53);
        }
    }

    #[test]
    fn same_seed_same_curve() {
        let spec = CreateSessionSpec {
            rows: 120,
            iterations: 4,
            ..CreateSessionSpec::default()
        };
        let a = run_batch(&spec, 9).expect("runs");
        let b = run_batch(&spec, 9).expect("runs");
        assert_eq!(a.mae_series(), b.mae_series());
    }
}
