//! The exploratory-training session: the game loop plus per-iteration
//! metrics and convergence tracking.
//!
//! One session reproduces one curve of the paper's figures: `N` iterations
//! (paper: 30) of `k` examples (paper: 10 tuples = 5 pairs), recording per
//! iteration the MAE between trainer and learner models (Figures 1, 3–6)
//! and the F1 of both agents' labeling on a held-out test set (Figure 7).
//!
//! Convergence is tracked per Definition 2 / Proposition 1: the session
//! reports when both agents' beliefs (and the trainer's empirical labeling
//! frequency Φ_t) stop moving.
//!
//! Two drivers share one engine:
//!
//! * [`run_session`] — the closed batch loop the experiments use:
//!   present, label, update, `N` times.
//! * [`SessionState`] — the resumable step API: `present` → (labels arrive
//!   from *anywhere* — the in-process trainer via [`SessionState::label_pending`]
//!   or a remote annotator over the wire) → [`SessionState::apply_labels`].
//!   The batch loop is implemented on top of it, so a step-driven session
//!   with the same seed reproduces the batch metrics bit for bit.

#![expect(
    clippy::indexing_slicing,
    reason = "mask/seen/metrics are sized from n_rows and round count at state construction; the unreachable! in batch_state (run_session, run_weak_strong) follows its own asserts on the config and the dirty flags"
)]

use std::sync::Arc;

use et_data::{split_rows, Table};
use et_fd::{
    predict_labels, HypothesisSpace, PartitionCache, RelationMatrix, SampleIndexer, ViolationIndex,
};
use et_metrics::ConfusionMatrix;

use crate::candidates::{CandidatePool, FreshCandidates};
use crate::journal::SessionJournal;
use crate::learner::Learner;
use crate::trainer::{Trainer, TrainerPersist};

/// Session parameters; defaults follow the paper's empirical study.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of interactions `N` (paper: 30).
    pub iterations: usize,
    /// Pairs presented per interaction (paper: 10 tuples = 5 pairs).
    pub pairs_per_iteration: usize,
    /// Fraction of rows held out for F1 evaluation (paper: 0.3).
    pub test_frac: f64,
    /// Cap on the candidate pair pool.
    pub pool_cap: usize,
    /// Belief-drift threshold for convergence detection.
    pub eps_drift: f64,
    /// Consecutive low-drift iterations required to declare convergence.
    pub stability_window: usize,
    /// RNG seed (splits, pool subsampling).
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            pairs_per_iteration: 5,
            test_frac: 0.3,
            pool_cap: 4000,
            eps_drift: 0.005,
            stability_window: 5,
            seed: 0,
        }
    }
}

/// Why a [`SessionConfig`] was rejected by [`SessionConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `iterations` was zero: the session would end before it began.
    ZeroIterations,
    /// `pairs_per_iteration` was zero: nothing would ever be presented.
    ZeroPairsPerIteration,
    /// `test_frac` outside the open interval `(0, 1)`: either no held-out
    /// rows to evaluate on, or no training rows to present.
    TestFracOutOfRange(f64),
    /// `pool_cap` was zero: the candidate pool would be empty.
    ZeroPoolCap,
    /// `stability_window` was zero: convergence would be declared at t = 0.
    ZeroStabilityWindow,
    /// `eps_drift` was negative or not finite.
    BadEpsDrift(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroIterations => write!(f, "iterations must be positive"),
            ConfigError::ZeroPairsPerIteration => {
                write!(f, "pairs_per_iteration must be positive")
            }
            ConfigError::TestFracOutOfRange(v) => {
                write!(f, "test_frac must lie in (0, 1), got {v}")
            }
            ConfigError::ZeroPoolCap => write!(f, "pool_cap must be positive"),
            ConfigError::ZeroStabilityWindow => {
                write!(f, "stability_window must be positive")
            }
            ConfigError::BadEpsDrift(v) => {
                write!(f, "eps_drift must be finite and non-negative, got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl SessionConfig {
    /// Checks the configuration for values that would silently produce a
    /// degenerate run (no interactions, empty pools, vacuous convergence).
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.pairs_per_iteration == 0 {
            return Err(ConfigError::ZeroPairsPerIteration);
        }
        if !(self.test_frac > 0.0 && self.test_frac < 1.0) {
            return Err(ConfigError::TestFracOutOfRange(self.test_frac));
        }
        if self.pool_cap == 0 {
            return Err(ConfigError::ZeroPoolCap);
        }
        if self.stability_window == 0 {
            return Err(ConfigError::ZeroStabilityWindow);
        }
        if !self.eps_drift.is_finite() || self.eps_drift < 0.0 {
            return Err(ConfigError::BadEpsDrift(self.eps_drift));
        }
        Ok(())
    }
}

/// Why a [`SessionState`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The configuration failed [`SessionConfig::validate`].
    Config(ConfigError),
    /// The ground-truth dirty flags do not align with the table.
    DirtyRowsMismatch {
        /// Rows in the table.
        rows: usize,
        /// Flags supplied.
        flags: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "invalid session config: {e}"),
            SessionError::DirtyRowsMismatch { rows, flags } => write!(
                f,
                "dirty flags must align with the table ({rows} rows, {flags} flags)"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

/// A step called out of phase on a [`SessionState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// `present` was called while labels for the previous presentation are
    /// still outstanding.
    LabelsPending,
    /// `label_pending`/`apply_labels` was called with no presentation
    /// outstanding.
    NothingPending,
    /// `apply_labels` received the wrong number of labels.
    LabelCount {
        /// Tuples in the pending sample.
        expected: usize,
        /// Labels supplied.
        got: usize,
    },
    /// The attached journal could not durably record the labels; the
    /// presentation stays pending so the step can be retried. Labels are
    /// *not* applied: acknowledgement requires durability.
    Journal(String),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::LabelsPending => {
                write!(f, "labels for the current presentation are still pending")
            }
            StepError::NothingPending => write!(f, "no presentation is pending"),
            StepError::LabelCount { expected, got } => {
                write!(
                    f,
                    "expected {expected} labels (one per sample tuple), got {got}"
                )
            }
            StepError::Journal(e) => write!(f, "journal append failed: {e}"),
        }
    }
}

impl std::error::Error for StepError {}

/// Everything measured after one interaction.
#[derive(Debug, Clone)]
pub struct IterationMetrics {
    /// Interaction number (0-based).
    pub t: usize,
    /// Mean absolute error between trainer and learner confidences.
    pub mae: f64,
    /// F1 of the learner's labeling on the held-out test set.
    pub learner_f1: f64,
    /// Precision of the learner's labeling on the test set.
    pub learner_precision: f64,
    /// Recall of the learner's labeling on the test set.
    pub learner_recall: f64,
    /// F1 of the trainer's model on the test set (reference).
    pub trainer_f1: f64,
    /// Max confidence move of the learner since the last iteration.
    pub learner_drift: f64,
    /// Max confidence move of the trainer since the last iteration.
    pub trainer_drift: f64,
    /// Entropy of the learner's selection policy this iteration.
    pub policy_entropy: f64,
    /// Dirty labels given this iteration.
    pub dirty_labels: usize,
    /// Cumulative empirical dirty-label frequency Φ_t (trainer actions).
    pub phi_dirty: f64,
    /// Fraction of this iteration's labels the learner's pre-update belief
    /// would have predicted identically (agreement → shared belief).
    pub agreement: f64,
}

/// Convergence summary per Definition 2 / Proposition 1.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// First iteration after which both agents stayed below `eps_drift` for
    /// `stability_window` consecutive iterations.
    pub converged_at: Option<usize>,
    /// Final MAE between the agents' models.
    pub final_mae: f64,
    /// Mean drift (both agents) over the last `stability_window` iterations.
    pub tail_drift: f64,
    /// Largest change of Φ_t over the last `stability_window` iterations.
    pub tail_phi_change: f64,
}

impl ConvergenceReport {
    /// True when a stable point was reached within the session.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }
}

/// The outcome of a full session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Per-iteration metrics, one entry per executed interaction.
    pub metrics: Vec<IterationMetrics>,
    /// Convergence summary.
    pub convergence: ConvergenceReport,
    /// Trainer's final confidences.
    pub trainer_confidences: Vec<f64>,
    /// Learner's final confidences.
    pub learner_confidences: Vec<f64>,
}

impl SessionResult {
    /// The MAE curve (one value per iteration).
    pub fn mae_series(&self) -> Vec<f64> {
        self.metrics.iter().map(|m| m.mae).collect()
    }

    /// The learner-F1 curve.
    pub fn f1_series(&self) -> Vec<f64> {
        self.metrics.iter().map(|m| m.learner_f1).collect()
    }
}

/// One outstanding presentation: the pairs the learner selected and the
/// distinct tuples shown to whoever is labeling.
#[derive(Debug, Clone)]
pub struct PendingInteraction {
    pub(crate) pairs: Vec<crate::game::PairExample>,
    pub(crate) sample: Vec<usize>,
    /// The violation index of `sample` over the session's space (local row
    /// `i` is `sample[i]`): built once by `present` for the learner's
    /// prediction and handed to the trainer. Never persisted; a snapshot
    /// restore rebuilds it from the sample.
    pub(crate) index: ViolationIndex,
    pub(crate) h_policy: f64,
    pub(crate) predicted: Vec<bool>,
    /// The hosted trainer's labels for this presentation, cached on the
    /// first `label_pending` call so retries (e.g. after a journal append
    /// failure) never make the trainer observe the sample twice.
    pub(crate) hosted: Option<Vec<bool>>,
}

impl PendingInteraction {
    /// The selected pairs (global row ids).
    pub fn pairs(&self) -> &[crate::game::PairExample] {
        &self.pairs
    }

    /// The distinct tuples of the selected pairs, in presentation order.
    pub fn sample(&self) -> &[usize] {
        &self.sample
    }
}

/// A resumable session: the game loop opened up into explicit
/// present → label → update steps.
///
/// The state owns its table and all derived context (held-out evaluation
/// index, dataset-wide scoring index, the candidate pool's relation
/// matrix) but *not* the agents —
/// the trainer and learner are passed into each step, so a server can keep
/// them beside the state and a batch driver can keep borrowing its own.
///
/// Step protocol per interaction:
///
/// 1. [`SessionState::present`] — the learner selects pairs; the returned
///    [`PendingInteraction`] holds the sample to label. `Ok(None)` means the
///    session is complete (iteration budget exhausted or candidate pool dry).
/// 2. Labels are produced either by [`SessionState::label_pending`] (the
///    in-process simulated annotator) or externally (a remote annotator).
/// 3. [`SessionState::apply_labels`] — the learner absorbs the labels and
///    the per-iteration metrics are recorded.
///
/// Driving these steps with the same seeds reproduces [`run_session`]
/// exactly — it is implemented on top of this type.
pub struct SessionState {
    table: Table,
    space: Arc<HypothesisSpace>,
    cfg: SessionConfig,
    /// The partition cache of `table`, holding after create only the
    /// determinants' row → class lookups (the ones `indexer` shares).
    cache: Arc<PartitionCache>,
    /// The space's determinant list: every round's sample index and the
    /// held-out index restrict it.
    indexer: SampleIndexer,
    test_index: ViolationIndex,
    test_dirty: Vec<bool>,
    test_eval_rows: Vec<usize>,
    score_index: ViolationIndex,
    /// The pair-relation matrix over the candidate pool, in pool order
    /// (round-invariant: relations depend only on the immutable table).
    /// Its pair list is the pool; the session keeps no other copy.
    matrix: Arc<RelationMatrix>,
    /// The unshown pool ids and the delta scorer over `matrix`, built on
    /// the first `present` from the learner's shown set and dropped when a
    /// snapshot restores a different one. Never persisted: the shown set
    /// is the durable form, and the scorer is a pure cache.
    pub(crate) fresh: Option<FreshCandidates>,
    pub(crate) metrics: Vec<IterationMetrics>,
    pub(crate) prev_trainer: Vec<f64>,
    pub(crate) prev_learner: Vec<f64>,
    pub(crate) labels_total: usize,
    pub(crate) dirty_total: usize,
    pub(crate) t: usize,
    pub(crate) exhausted: bool,
    pub(crate) pending: Option<PendingInteraction>,
    /// Attached durability journal, if any (see [`crate::journal`]).
    pub(crate) journal: Option<SessionJournal>,
    /// Whether the in-process trainer observed the pending sample via
    /// [`SessionState::label_pending`] — recorded in the WAL so recovery
    /// replays the trainer's belief update exactly when (and only when) it
    /// happened live.
    pub(crate) trainer_observed: bool,
}

impl SessionState {
    /// Prepares a resumable session over an owned table.
    ///
    /// The agents are only *read* here (their initial confidences seed the
    /// drift tracking); they are not stored.
    ///
    /// # Errors
    /// Returns [`SessionError::Config`] when the configuration fails
    /// [`SessionConfig::validate`], and [`SessionError::DirtyRowsMismatch`]
    /// when `dirty_rows` does not align with the table.
    pub fn new(
        table: Table,
        space: Arc<HypothesisSpace>,
        dirty_rows: &[bool],
        cfg: SessionConfig,
        trainer: &dyn Trainer,
        learner: &Learner,
    ) -> Result<Self, SessionError> {
        let cache = Arc::new(PartitionCache::new(&table));
        Self::with_cache(table, space, cache, dirty_rows, cfg, trainer, learner)
    }

    /// [`SessionState::new`] over a partition cache of `table` that the
    /// caller already holds — say, the one [`HypothesisSpace::capped_with`]
    /// scored the space through, pruned to the space's determinants — so
    /// the session's index, pool and matrix builds reuse its partitions
    /// instead of deriving them again.
    ///
    /// The builds run in order (held-out index, scoring index, candidate
    /// pool, relation matrix), and the session then keeps only what its
    /// rounds, snapshots and recovery read: the pool lives on as the
    /// matrix's pair list, and the cache is slimmed once, to its
    /// determinants' row → class lookups with no partition
    /// ([`PartitionCache::keep_lookups`]). The session keeps that slim
    /// cache and shares it ([`SessionState::partition_cache`]).
    ///
    /// # Errors
    /// As [`SessionState::new`].
    ///
    /// # Panics
    /// Panics when `cache` was built for a table with a different row
    /// count.
    pub fn with_cache(
        table: Table,
        space: Arc<HypothesisSpace>,
        cache: Arc<PartitionCache>,
        dirty_rows: &[bool],
        cfg: SessionConfig,
        trainer: &dyn Trainer,
        learner: &Learner,
    ) -> Result<Self, SessionError> {
        assert_eq!(
            cache.n_rows(),
            table.nrows(),
            "partition cache is bound to another table"
        );
        cfg.validate()?;
        if dirty_rows.len() != table.nrows() {
            return Err(SessionError::DirtyRowsMismatch {
                rows: table.nrows(),
                flags: dirty_rows.len(),
            });
        }
        let (train_rows, test_rows) = split_rows(table.nrows(), cfg.test_frac, cfg.seed);
        let in_train = {
            let mut mask = vec![false; table.nrows()];
            for &r in &train_rows {
                mask[r] = true;
            }
            mask
        };

        // One partition cache per session: the builds below warm it (when
        // the caller has not) and share its partitions, and the
        // determinant list holds its lookups for every later restriction.
        let indexer = SampleIndexer::new(&table, &space, &cache);

        // Held-out evaluation context: violations within the test subset,
        // restricted from the full-table lookups.
        let test_index = indexer.index(&table, &test_rows);
        let test_dirty: Vec<bool> = test_rows.iter().map(|&r| dirty_rows[r]).collect();
        let test_eval_rows: Vec<usize> = (0..test_rows.len()).collect();

        // Dataset-wide violation index for strategy scoring (the paper's
        // tuple-level p(clean | θ) is judged against the whole dataset).
        let score_index = ViolationIndex::build_with(&table, &space, &cache);

        // Candidate pool restricted to training rows; enumerated from the
        // cached partitions (bit-identical to the raw group_by scan). The
        // matrix holds its pairs in pool order, so the pool is dropped.
        let mut pool = CandidatePool::build_with(&table, &space, &cache, cfg.pool_cap, cfg.seed);
        pool.retain_rows(&in_train);
        let matrix = Arc::new(pool.relation_matrix(&table, &space, &cache));
        drop(pool);

        // Rounds read only the determinants' lookups, through `indexer`.
        let determinants = space.distinct_lhs();
        cache.keep_lookups(|attrs| determinants.contains(&attrs));

        let prev_trainer = trainer.confidences();
        let prev_learner = learner.confidences();
        let metrics = Vec::with_capacity(cfg.iterations);
        Ok(Self {
            table,
            space,
            cfg,
            cache,
            indexer,
            test_index,
            test_dirty,
            test_eval_rows,
            score_index,
            matrix,
            fresh: None,
            metrics,
            prev_trainer,
            prev_learner,
            labels_total: 0,
            dirty_total: 0,
            t: 0,
            exhausted: false,
            pending: None,
            journal: None,
            trainer_observed: false,
        })
    }

    /// Attaches a durability journal: from now on every
    /// [`SessionState::apply_labels`] durably appends its label batch
    /// *before* applying it (write-ahead), and
    /// [`SessionState::maybe_snapshot`] persists state at the journal's
    /// cadence. See [`crate::journal`] for the recovery path.
    pub fn attach_journal(&mut self, journal: SessionJournal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&SessionJournal> {
        self.journal.as_ref()
    }

    /// Writes a snapshot now, unconditionally, when a journal is attached.
    /// Returns the round the snapshot covers (`iterations_done`).
    ///
    /// # Errors
    /// [`et_durable::DurableError`] when the write fails; the previous
    /// snapshot (if any) is left intact.
    pub fn snapshot_now<T: TrainerPersist>(
        &mut self,
        trainer: &T,
        learner: &Learner,
    ) -> Result<Option<usize>, et_durable::DurableError> {
        if self.journal.is_none() {
            return Ok(None);
        }
        let payload = crate::journal::encode_snapshot(self, trainer, learner);
        if let Some(j) = self.journal.as_mut() {
            j.write_snapshot(self.t as u64, &payload)?;
        }
        Ok(Some(self.t))
    }

    /// Writes a snapshot when one is due: a journal is attached, the
    /// journal's cadence divides `iterations_done`, or the session just
    /// completed. Returns whether a snapshot was written.
    ///
    /// # Errors
    /// [`et_durable::DurableError`] when the write fails.
    pub fn maybe_snapshot<T: TrainerPersist>(
        &mut self,
        trainer: &T,
        learner: &Learner,
    ) -> Result<bool, et_durable::DurableError> {
        let due = match self.journal.as_ref() {
            None => false,
            Some(j) => {
                let every = j.config().snapshot_every;
                (every > 0 && self.t > 0 && self.t.is_multiple_of(every)) || self.is_complete()
            }
        };
        if due {
            self.snapshot_now(trainer, learner)?;
        }
        Ok(due)
    }

    /// Flushes the journal to stable storage regardless of fsync policy
    /// (eviction/shutdown path under `FsyncPolicy::Never`).
    ///
    /// # Errors
    /// [`et_durable::DurableError`] when the sync fails.
    pub fn sync_journal(&mut self) -> Result<(), et_durable::DurableError> {
        match self.journal.as_mut() {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }

    /// The table this session runs over.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The hypothesis space.
    pub fn space(&self) -> &Arc<HypothesisSpace> {
        &self.space
    }

    /// The session's partition cache of [`SessionState::table`]. After
    /// create it holds only the space's determinants' row → class lookups,
    /// no partition: a caller that asks it for a partition pays for the
    /// build and grows the session's memory.
    pub fn partition_cache(&self) -> &Arc<PartitionCache> {
        &self.cache
    }

    /// The violation index of `sample` (distinct row ids) over the space:
    /// the determinants' full-table lookups restricted to the sample's
    /// rows.
    pub(crate) fn sample_index(&self, sample: &[usize]) -> ViolationIndex {
        self.indexer.index(&self.table, sample)
    }

    /// The round-invariant pair-relation matrix over the candidate pool,
    /// built at create: its pair ids are pool ids.
    pub fn relation_matrix(&self) -> Arc<RelationMatrix> {
        Arc::clone(&self.matrix)
    }

    /// The configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Interactions completed so far.
    pub fn iterations_done(&self) -> usize {
        self.t
    }

    /// Per-iteration metrics recorded so far.
    pub fn metrics(&self) -> &[IterationMetrics] {
        &self.metrics
    }

    /// The outstanding presentation, if labels are awaited.
    pub fn pending(&self) -> Option<&PendingInteraction> {
        self.pending.as_ref()
    }

    /// True once the session can make no further progress: the iteration
    /// budget is spent or a `present` call found the candidate pool dry.
    pub fn is_complete(&self) -> bool {
        self.t >= self.cfg.iterations || self.exhausted
    }

    /// Starts the next interaction: the learner selects up to
    /// `pairs_per_iteration` fresh pairs and the presented sample is fixed.
    ///
    /// Returns `Ok(None)` when the session is complete (budget spent or
    /// pool exhausted).
    ///
    /// # Errors
    /// [`StepError::LabelsPending`] when the previous presentation has not
    /// been labeled yet.
    pub fn present(
        &mut self,
        learner: &mut Learner,
    ) -> Result<Option<&PendingInteraction>, StepError> {
        if self.pending.is_some() {
            return Err(StepError::LabelsPending);
        }
        if self.is_complete() {
            return Ok(None);
        }
        let fresh = self
            .fresh
            .get_or_insert_with(|| FreshCandidates::new(Arc::clone(&self.matrix), learner.shown()));
        let (pairs, h_policy) =
            learner.select(fresh, &self.score_index, self.cfg.pairs_per_iteration);
        if pairs.is_empty() {
            self.exhausted = true; // pool dry
            return Ok(None);
        }

        // The presented sample: the distinct tuples of the selected
        // pairs (k pairs -> up to 2k tuples, the paper's k = 10).
        let sample = sample_rows(&pairs, self.table.nrows());

        // The sample's one violation index: the learner's pre-update
        // predicted labels (for the agreement metric) read it here, and
        // the trainer reads it in `label_pending`.
        let learner_conf_pre = learner.confidences();
        let index = self.sample_index(&sample);
        let local_rows: Vec<usize> = (0..sample.len()).collect();
        let predicted = predict_labels(&index, &learner_conf_pre, &local_rows);

        self.pending = Some(PendingInteraction {
            pairs,
            sample,
            index,
            h_policy,
            predicted,
            hosted: None,
        });
        Ok(self.pending.as_ref())
    }

    /// Labels the pending sample with the in-process trainer (the simulated
    /// annotator observes the sample, updates its belief, and labels it
    /// from the sample index `present` built). Does not consume the
    /// pending presentation — follow with [`SessionState::apply_labels`].
    ///
    /// # Errors
    /// [`StepError::NothingPending`] when no presentation is outstanding.
    pub fn label_pending(&mut self, trainer: &mut dyn Trainer) -> Result<Vec<bool>, StepError> {
        let Some(p) = &self.pending else {
            return Err(StepError::NothingPending);
        };
        // Idempotent per presentation: a retried call (say, after a journal
        // append failure) returns the cached verdicts instead of letting
        // the trainer observe the sample twice.
        if let Some(hosted) = &p.hosted {
            return Ok(hosted.clone());
        }
        let labels = trainer.respond(&self.table, &p.sample, &p.index);
        debug_assert_eq!(labels.len(), p.sample.len());
        self.trainer_observed = true;
        if let Some(p) = self.pending.as_mut() {
            p.hosted = Some(labels.clone());
        }
        Ok(labels)
    }

    /// Completes the interaction: the learner absorbs `labels` (one per
    /// sample tuple) and the per-iteration metrics are computed against the
    /// trainer's current model. The session keeps no transcript: the
    /// agents' beliefs, the learner's shown set and the RNG streams carry
    /// what the rounds so far taught, and a journal's WAL keeps the labels.
    ///
    /// The labels may come from [`SessionState::label_pending`] (batch
    /// mode) or from an external annotator; in the latter case call
    /// `label_pending` first anyway if the trainer's model should keep
    /// tracking the observed data.
    ///
    /// # Errors
    /// [`StepError::NothingPending`] with no outstanding presentation;
    /// [`StepError::LabelCount`] when `labels` does not align with the
    /// pending sample.
    pub fn apply_labels(
        &mut self,
        trainer: &dyn Trainer,
        learner: &mut Learner,
        labels: &[bool],
    ) -> Result<&IterationMetrics, StepError> {
        let expected = match &self.pending {
            Some(p) => p.sample.len(),
            None => return Err(StepError::NothingPending),
        };
        if labels.len() != expected {
            return Err(StepError::LabelCount {
                expected,
                got: labels.len(),
            });
        }
        // Write-ahead: the labels reach stable storage *before* they are
        // applied, so an acknowledged interaction is always recoverable.
        // On failure the presentation stays pending and no state moved.
        if let (Some(journal), Some(pending)) = (self.journal.as_mut(), self.pending.as_ref()) {
            journal
                .append_labels_parts(
                    self.t as u64,
                    self.trainer_observed,
                    &pending.sample,
                    labels,
                )
                .map_err(|e| StepError::Journal(e.to_string()))?;
        }
        self.trainer_observed = false;
        let Some(pending) = self.pending.take() else {
            return Err(StepError::NothingPending);
        };
        let PendingInteraction {
            pairs,
            sample,
            h_policy,
            predicted,
            ..
        } = pending;

        // What evidence the learner draws from the labeled sample is
        // governed by its EvidenceScope.
        learner.absorb_interaction(&self.table, &pairs, &sample, labels);

        let agreement = if sample.is_empty() {
            1.0
        } else {
            predicted.iter().zip(labels).filter(|(p, a)| p == a).count() as f64
                / sample.len() as f64
        };
        let dirty_now: usize = labels.iter().filter(|&&d| d).count();
        self.dirty_total += dirty_now;
        self.labels_total += sample.len();

        let tc = trainer.confidences();
        let lc = learner.confidences();
        let learner_pred = predict_labels(&self.test_index, &lc, &self.test_eval_rows);
        let trainer_pred = predict_labels(&self.test_index, &tc, &self.test_eval_rows);
        let lm = ConfusionMatrix::from_predictions(&learner_pred, &self.test_dirty);
        let tm = ConfusionMatrix::from_predictions(&trainer_pred, &self.test_dirty);

        self.metrics.push(IterationMetrics {
            t: self.t,
            mae: mae(&tc, &lc),
            learner_f1: lm.f1(),
            learner_precision: lm.precision(),
            learner_recall: lm.recall(),
            trainer_f1: tm.f1(),
            learner_drift: max_abs_diff(&self.prev_learner, &lc),
            trainer_drift: max_abs_diff(&self.prev_trainer, &tc),
            policy_entropy: h_policy,
            dirty_labels: dirty_now,
            phi_dirty: self.dirty_total as f64 / self.labels_total.max(1) as f64,
            agreement,
        });
        self.prev_trainer = tc;
        self.prev_learner = lc;
        self.t += 1;
        Ok(&self.metrics[self.metrics.len() - 1])
    }

    /// The convergence summary over the iterations executed so far.
    pub fn convergence_so_far(&self) -> ConvergenceReport {
        convergence_report(&self.metrics, &self.cfg)
    }

    /// Finishes the session, consuming the state.
    pub fn into_result(self) -> SessionResult {
        let convergence = convergence_report(&self.metrics, &self.cfg);
        SessionResult {
            convergence,
            trainer_confidences: self.prev_trainer,
            learner_confidences: self.prev_learner,
            metrics: self.metrics,
        }
    }
}

/// Runs the game between `trainer` and `learner` over `table` for
/// `cfg.iterations` interactions (or until the candidate pool runs dry):
/// the batch driver over [`SessionState`]'s steps.
///
/// # Panics
/// Panics when `dirty_rows` does not align with the table or the
/// configuration fails [`SessionConfig::validate`].
pub fn run_session(
    table: &Table,
    space: Arc<HypothesisSpace>,
    dirty_rows: &[bool],
    cfg: SessionConfig,
    trainer: &mut dyn Trainer,
    learner: &mut Learner,
) -> SessionResult {
    let mut st = batch_state(table, space, dirty_rows, cfg, trainer, learner);
    while let Ok(Some(_)) = st.present(learner) {
        let Ok(labels) = st.label_pending(trainer) else {
            break;
        };
        if st.apply_labels(trainer, learner, &labels).is_err() {
            break;
        }
    }
    st.into_result()
}

/// [`SessionState::new`] over a copy of `table`, for the batch drivers,
/// which treat bad input as a caller bug.
///
/// # Panics
/// Panics when `dirty_rows` does not align with the table or the
/// configuration fails [`SessionConfig::validate`].
pub(crate) fn batch_state(
    table: &Table,
    space: Arc<HypothesisSpace>,
    dirty_rows: &[bool],
    cfg: SessionConfig,
    trainer: &dyn Trainer,
    learner: &Learner,
) -> SessionState {
    assert_eq!(
        dirty_rows.len(),
        table.nrows(),
        "ground-truth dirty flags must align with the table"
    );
    let validated = cfg.validate();
    assert!(validated.is_ok(), "invalid session config: {validated:?}");
    #[expect(
        clippy::unreachable,
        reason = "the two asserts above rule out both SessionError variants, a config that fails validate and dirty flags that do not align"
    )]
    let Ok(st) = SessionState::new(table.clone(), space, dirty_rows, cfg, trainer, learner) else {
        unreachable!("batch_state validated the configuration and the dirty flags")
    };
    st
}

/// The distinct tuples of `pairs` in first-seen order: the sample presented
/// to the annotator (`k` pairs → up to `2k` tuples). A seen-bitmap over row
/// ids keeps collection `O(k)` instead of the quadratic `contains` scan.
pub fn sample_rows(pairs: &[crate::game::PairExample], n_rows: usize) -> Vec<usize> {
    let mut seen = vec![false; n_rows];
    let mut sample: Vec<usize> = Vec::with_capacity(pairs.len() * 2);
    for p in pairs {
        for r in [p.a, p.b] {
            if !seen[r] {
                seen[r] = true;
                sample.push(r);
            }
        }
    }
    sample
}

/// Mean absolute error between two confidence vectors.
///
/// # Panics
/// Panics when the vectors have different lengths.
pub fn mae(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "confidence vectors must align");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn convergence_report(metrics: &[IterationMetrics], cfg: &SessionConfig) -> ConvergenceReport {
    let w = cfg.stability_window;
    let mut converged_at = None;
    if metrics.len() >= w {
        'outer: for start in 0..=(metrics.len() - w) {
            for m in &metrics[start..start + w] {
                if m.learner_drift > cfg.eps_drift || m.trainer_drift > cfg.eps_drift {
                    continue 'outer;
                }
            }
            converged_at = Some(start);
            break;
        }
    }
    let tail = &metrics[metrics.len().saturating_sub(w)..];
    let tail_drift = if tail.is_empty() {
        0.0
    } else {
        tail.iter()
            .map(|m| (m.learner_drift + m.trainer_drift) / 2.0)
            .sum::<f64>()
            / tail.len() as f64
    };
    let tail_phi_change = tail
        .windows(2)
        .map(|w| (w[0].phi_dirty - w[1].phi_dirty).abs())
        .fold(0.0, f64::max);
    ConvergenceReport {
        converged_at,
        final_mae: metrics.last().map_or(0.0, |m| m.mae),
        tail_drift,
        tail_phi_change,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::PairExample;
    use crate::respond::{ResponseStrategy, StrategyKind};
    use crate::trainer::FpTrainer;
    use et_belief::{build_prior, Belief, Beta, EvidenceConfig, PriorConfig, PriorSpec};
    use et_data::gen::omdb;
    use et_data::{inject_errors, InjectConfig};
    use et_fd::Fd;

    pub(super) fn fixture() -> (Table, Vec<bool>, Arc<HypothesisSpace>) {
        let mut ds = omdb(200, 11);
        let specs = ds.exact_fds.clone();
        let inj = inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &InjectConfig::with_degree(0.12, 5),
        );
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 20, 3, &pinned));
        (ds.table, inj.dirty_rows, space)
    }

    use et_data::Table;

    fn agents(
        kind: StrategyKind,
        table: &Table,
        space: &Arc<HypothesisSpace>,
    ) -> (FpTrainer, Learner) {
        agents_with(ResponseStrategy::paper(kind), table, space)
    }

    pub(super) fn agents_with(
        strategy: ResponseStrategy,
        table: &Table,
        space: &Arc<HypothesisSpace>,
    ) -> (FpTrainer, Learner) {
        let prior_cfg = PriorConfig::weak();
        let trainer_prior = build_prior(&PriorSpec::Random { seed: 3 }, &prior_cfg, space, table);
        let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, space, table);
        let trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
        let learner = Learner::new(learner_prior, strategy, EvidenceConfig::default(), 7);
        (trainer, learner)
    }

    fn run_with(
        kind: StrategyKind,
        table: &Table,
        dirty: &[bool],
        space: &Arc<HypothesisSpace>,
    ) -> SessionResult {
        let (mut trainer, mut learner) = agents(kind, table, space);
        run_session(
            table,
            space.clone(),
            dirty,
            SessionConfig::default(),
            &mut trainer,
            &mut learner,
        )
    }

    /// One round as the step API shows it: the presented pairs and
    /// sample, and the labels applied.
    type Round = (Vec<PairExample>, Vec<usize>, Vec<bool>);

    /// A session driven through the step API and labeled by its own
    /// trainer, as et-serve hosts one, with every round it played.
    fn stepped(
        kind: StrategyKind,
        table: &Table,
        dirty: &[bool],
        space: &Arc<HypothesisSpace>,
    ) -> (SessionResult, Vec<Round>) {
        let (mut trainer, mut learner) = agents(kind, table, space);
        let mut st = SessionState::new(
            table.clone(),
            space.clone(),
            dirty,
            SessionConfig::default(),
            &trainer,
            &learner,
        )
        .expect("valid config");
        let mut rounds = Vec::new();
        while let Some(p) = st.present(&mut learner).expect("in phase") {
            let (pairs, sample) = (p.pairs().to_vec(), p.sample().to_vec());
            let labels = st.label_pending(&mut trainer).expect("pending");
            let _ = st
                .apply_labels(&trainer, &mut learner, &labels)
                .expect("aligned");
            rounds.push((pairs, sample, labels));
        }
        (st.into_result(), rounds)
    }

    #[test]
    fn session_produces_full_metrics() {
        let (table, dirty, space) = fixture();
        let r = run_with(StrategyKind::Random, &table, &dirty, &space);
        assert_eq!(r.metrics.len(), 30);
        for m in &r.metrics {
            assert!((0.0..=1.0).contains(&m.mae));
            assert!((0.0..=1.0).contains(&m.learner_f1));
            assert!((0.0..=1.0).contains(&m.agreement));
            assert!(m.policy_entropy >= 0.0);
        }
        assert_eq!(r.trainer_confidences.len(), space.len());
    }

    #[test]
    fn mae_decreases_over_session() {
        let (table, dirty, space) = fixture();
        for kind in StrategyKind::PAPER_METHODS {
            let r = run_with(kind, &table, &dirty, &space);
            let first = r.metrics[0].mae;
            let last = r.convergence.final_mae;
            assert!(
                last < first,
                "{}: MAE should fall ({first} -> {last})",
                kind.as_str()
            );
        }
    }

    #[test]
    fn sessions_are_deterministic() {
        let (table, dirty, space) = fixture();
        let a = run_with(StrategyKind::StochasticBestResponse, &table, &dirty, &space);
        let b = run_with(StrategyKind::StochasticBestResponse, &table, &dirty, &space);
        assert_eq!(a.mae_series(), b.mae_series());
        assert_eq!(a.learner_confidences, b.learner_confidences);
    }

    #[test]
    fn step_api_reproduces_batch_exactly() {
        let (table, dirty, space) = fixture();
        let batch = run_with(StrategyKind::StochasticBestResponse, &table, &dirty, &space);
        let (stepped, rounds) =
            stepped(StrategyKind::StochasticBestResponse, &table, &dirty, &space);
        assert_eq!(batch.mae_series(), stepped.mae_series());
        assert_eq!(batch.learner_confidences, stepped.learner_confidences);
        assert_eq!(batch.trainer_confidences, stepped.trainer_confidences);
        assert_eq!(
            batch.convergence.converged_at,
            stepped.convergence.converged_at
        );
        assert_eq!(batch.metrics.len(), rounds.len());
    }

    #[test]
    fn cache_enabled_replay_is_bit_identical_to_batch() {
        // The oracle is a stepped driver that labels externally: its
        // trainer gets a sample index built from a subset table, never the
        // one `present` restricted from the session's partition cache. The
        // batch loop and the et-serve shape (a stepped session labeled
        // through `label_pending`) must both reproduce it bit for bit.
        let (table, dirty, space) = fixture();
        let (oracle, oracle_rounds) = {
            let (mut trainer, mut learner) =
                agents(StrategyKind::StochasticBestResponse, &table, &space);
            let mut st = SessionState::new(
                table.clone(),
                space.clone(),
                &dirty,
                SessionConfig::default(),
                &trainer,
                &learner,
            )
            .expect("valid config");
            let mut rounds: Vec<Round> = Vec::new();
            while let Some(p) = st.present(&mut learner).expect("in phase") {
                let (pairs, sample) = (p.pairs().to_vec(), p.sample().to_vec());
                let index = ViolationIndex::build(&table.subset(&sample), &space);
                let labels = trainer.respond(&table, &sample, &index);
                let _ = st
                    .apply_labels(&trainer, &mut learner, &labels)
                    .expect("aligned");
                rounds.push((pairs, sample, labels));
            }
            (st.into_result(), rounds)
        };
        let (served, served_rounds) =
            stepped(StrategyKind::StochasticBestResponse, &table, &dirty, &space);
        assert_eq!(oracle_rounds, served_rounds);
        let batch = run_with(StrategyKind::StochasticBestResponse, &table, &dirty, &space);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for run in [batch, served] {
            assert_eq!(bits(&oracle.mae_series()), bits(&run.mae_series()));
            assert_eq!(bits(&oracle.f1_series()), bits(&run.f1_series()));
            assert_eq!(
                bits(&oracle.learner_confidences),
                bits(&run.learner_confidences)
            );
            assert_eq!(
                bits(&oracle.trainer_confidences),
                bits(&run.trainer_confidences)
            );
        }
    }

    #[test]
    fn step_api_enforces_phases() {
        let (table, dirty, space) = fixture();
        let (mut trainer, mut learner) = agents(StrategyKind::Random, &table, &space);
        let mut st = SessionState::new(
            table,
            space,
            &dirty,
            SessionConfig::default(),
            &trainer,
            &learner,
        )
        .expect("valid config");

        // No pending presentation yet.
        assert_eq!(
            st.label_pending(&mut trainer).err(),
            Some(StepError::NothingPending)
        );
        assert_eq!(
            st.apply_labels(&trainer, &mut learner, &[]).err(),
            Some(StepError::NothingPending)
        );

        let sample_len = {
            let p = st.present(&mut learner).expect("in phase").expect("pairs");
            p.sample().len()
        };
        // Double-present is rejected while labels are outstanding.
        assert_eq!(
            st.present(&mut learner).err(),
            Some(StepError::LabelsPending)
        );
        // Wrong label cardinality is rejected and the presentation survives.
        assert_eq!(
            st.apply_labels(&trainer, &mut learner, &[true]).err(),
            Some(StepError::LabelCount {
                expected: sample_len,
                got: 1
            })
        );
        assert!(st.pending().is_some());
        let labels = st.label_pending(&mut trainer).expect("pending");
        let m = st
            .apply_labels(&trainer, &mut learner, &labels)
            .expect("aligned");
        assert_eq!(m.t, 0);
        assert!(st.pending().is_none());
        assert_eq!(st.iterations_done(), 1);
    }

    #[test]
    fn external_labels_drive_a_session() {
        // An "annotator" that always says clean: the session still advances
        // and records metrics (the remote-annotator path of et-serve).
        let (table, dirty, space) = fixture();
        let (mut trainer, mut learner) = agents(StrategyKind::Random, &table, &space);
        let mut st = SessionState::new(
            table,
            space,
            &dirty,
            SessionConfig {
                iterations: 4,
                ..SessionConfig::default()
            },
            &trainer,
            &learner,
        )
        .expect("valid config");
        while let Some(n) = st
            .present(&mut learner)
            .expect("in phase")
            .map(|p| p.sample().len())
        {
            // Keep the trainer's model tracking the data it observes even
            // though its labels are overridden.
            let _ = st.label_pending(&mut trainer).expect("pending");
            let _ = st
                .apply_labels(&trainer, &mut learner, &vec![false; n])
                .expect("aligned");
        }
        assert_eq!(st.metrics().len(), 4);
        assert!(st.metrics().iter().all(|m| m.dirty_labels == 0));
    }

    #[test]
    fn config_validation_catches_degenerate_values() {
        let ok = SessionConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (
                SessionConfig {
                    iterations: 0,
                    ..SessionConfig::default()
                },
                ConfigError::ZeroIterations,
            ),
            (
                SessionConfig {
                    pairs_per_iteration: 0,
                    ..SessionConfig::default()
                },
                ConfigError::ZeroPairsPerIteration,
            ),
            (
                SessionConfig {
                    test_frac: 0.0,
                    ..SessionConfig::default()
                },
                ConfigError::TestFracOutOfRange(0.0),
            ),
            (
                SessionConfig {
                    test_frac: 1.5,
                    ..SessionConfig::default()
                },
                ConfigError::TestFracOutOfRange(1.5),
            ),
            (
                SessionConfig {
                    pool_cap: 0,
                    ..SessionConfig::default()
                },
                ConfigError::ZeroPoolCap,
            ),
            (
                SessionConfig {
                    stability_window: 0,
                    ..SessionConfig::default()
                },
                ConfigError::ZeroStabilityWindow,
            ),
            (
                SessionConfig {
                    eps_drift: -1.0,
                    ..SessionConfig::default()
                },
                ConfigError::BadEpsDrift(-1.0),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want.clone()), "{want:?}");
        }
        // NaN test_frac fails the open-interval check.
        assert!(SessionConfig {
            test_frac: f64::NAN,
            ..SessionConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid session config")]
    fn run_session_rejects_invalid_config() {
        let (table, dirty, space) = fixture();
        let (mut trainer, mut learner) = agents(StrategyKind::Random, &table, &space);
        let _ = run_session(
            &table,
            space,
            &dirty,
            SessionConfig {
                test_frac: 2.0,
                ..SessionConfig::default()
            },
            &mut trainer,
            &mut learner,
        );
    }

    #[test]
    fn session_state_reports_typed_errors() {
        let (table, dirty, space) = fixture();
        let (trainer, learner) = agents(StrategyKind::Random, &table, &space);
        let bad_cfg = SessionState::new(
            table.clone(),
            space.clone(),
            &dirty,
            SessionConfig {
                iterations: 0,
                ..SessionConfig::default()
            },
            &trainer,
            &learner,
        );
        assert!(matches!(
            bad_cfg.err(),
            Some(SessionError::Config(ConfigError::ZeroIterations))
        ));
        let misaligned = SessionState::new(
            table,
            space,
            &[true],
            SessionConfig::default(),
            &trainer,
            &learner,
        );
        assert!(matches!(
            misaligned.err(),
            Some(SessionError::DirtyRowsMismatch { flags: 1, .. })
        ));
    }

    #[test]
    fn fresh_examples_every_iteration() {
        let (table, dirty, space) = fixture();
        let (_, rounds) = stepped(StrategyKind::UncertaintySampling, &table, &dirty, &space);
        let mut seen = std::collections::HashSet::new();
        for (pairs, _, _) in &rounds {
            for p in pairs {
                assert!(
                    seen.insert(*p),
                    "selected pair repeated across interactions"
                );
            }
        }
    }

    #[test]
    fn mae_helper_basics() {
        assert_eq!(mae(&[0.0, 1.0], &[1.0, 1.0]), 0.5);
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn identical_agents_converge_immediately() {
        // Trainer and learner with the same prior and a stationary trainer:
        // MAE stays small and the session converges.
        let (table, dirty, space) = fixture();
        let belief = Belief::constant(space.clone(), Beta::from_mean_std(0.7, 0.05));
        let mut trainer = crate::trainer::StationaryTrainer::new(belief.clone());
        let mut learner = Learner::new(
            belief,
            ResponseStrategy::paper(StrategyKind::Random),
            EvidenceConfig::default(),
            3,
        );
        let r = run_session(
            &table,
            space,
            &dirty,
            SessionConfig::default(),
            &mut trainer,
            &mut learner,
        );
        assert!(r.metrics[0].mae < 0.05);
    }
}

/// The two-pass raw-cell selection oracle.
///
/// The reference round filters the pool by the learner's shown set into a
/// list of fresh pairs, scores them once for the policy distribution
/// (`policy_distribution`) and once more to pick (`select`). Scores come
/// from raw cells, pair by pair, through the paper's definitions
/// (`example_confidence`, `example_uncertainty`, `et_fd::pair_dirty_probs`,
/// `SpaceRelations`). Every round of a stepped session must match it:
/// presented pairs, `h_policy` bits and the learner's residual RNG state,
/// for every strategy kind under both score bases.
#[cfg(test)]
mod oracle {
    use et_belief::Belief;
    use et_data::{split_rows, Table};
    use et_fd::{
        binary_entropy, tuple_dirty_prob_with, DetectParams, PairRelation, SpaceRelations,
        ViolationIndex,
    };
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    use super::tests::{agents_with, fixture};
    use super::{SessionConfig, SessionState};
    use crate::candidates::CandidatePool;
    use crate::game::PairExample;
    use crate::learner::Learner;
    use crate::payoff::{example_confidence, example_uncertainty, policy_entropy};
    use crate::respond::{ResponseStrategy, ScoreBasis, StrategyKind};
    use crate::topk::top_k_indices;
    use crate::trainer::FpTrainer;

    const ALL_KINDS: [StrategyKind; 8] = [
        StrategyKind::Random,
        StrategyKind::UncertaintySampling,
        StrategyKind::StochasticBestResponse,
        StrategyKind::StochasticUncertainty,
        StrategyKind::Best,
        StrategyKind::ThompsonSampling,
        StrategyKind::CommitteeDisagreement,
        StrategyKind::DensityWeightedUncertainty,
    ];

    /// Per-pair reference scores from raw cells.
    fn reference_scores(
        s: &ResponseStrategy,
        table: &Table,
        index: &ViolationIndex,
        belief: &Belief,
        candidates: &[PairExample],
        thompson_draw: Option<&[f64]>,
    ) -> Vec<f64> {
        let rel = SpaceRelations::new(belief.space());
        match s.kind {
            StrategyKind::Random => return vec![0.0; candidates.len()],
            StrategyKind::CommitteeDisagreement => {
                return candidates
                    .iter()
                    .map(|p| {
                        (0..rel.len())
                            .filter(|&fi| {
                                rel.relation(table, fi, p.a, p.b) == PairRelation::Violates
                            })
                            .map(|fi| belief.dist(fi).variance())
                            .sum()
                    })
                    .collect();
            }
            StrategyKind::DensityWeightedUncertainty => {
                let n_fds = belief.len().max(1) as f64;
                return candidates
                    .iter()
                    .map(|&p| {
                        let relevant = (0..rel.len())
                            .filter(|&fi| {
                                rel.relation(table, fi, p.a, p.b) != PairRelation::Irrelevant
                            })
                            .count() as f64;
                        example_uncertainty(table, belief, p) * (relevant / n_fds)
                    })
                    .collect();
            }
            _ => {}
        }
        let mean = belief.confidences();
        let conf = thompson_draw.unwrap_or(&mean);
        let uncertainty = matches!(
            s.kind,
            StrategyKind::UncertaintySampling | StrategyKind::StochasticUncertainty
        );
        candidates
            .iter()
            .map(|&p| match s.basis {
                ScoreBasis::DatasetTuple => {
                    let params = DetectParams::default();
                    let pa = tuple_dirty_prob_with(index, conf, p.a, &params);
                    let pb = tuple_dirty_prob_with(index, conf, p.b, &params);
                    if uncertainty {
                        binary_entropy(pa) + binary_entropy(pb)
                    } else {
                        pa.max(1.0 - pa) + pb.max(1.0 - pb)
                    }
                }
                ScoreBasis::PairLocal if uncertainty => example_uncertainty(table, belief, p),
                ScoreBasis::PairLocal => match thompson_draw {
                    Some(draw) => {
                        let (pa, pb) =
                            et_fd::pair_dirty_probs(table, belief.space(), draw, p.a, p.b);
                        pa.max(1.0 - pa) + pb.max(1.0 - pb)
                    }
                    None => example_confidence(table, belief, p),
                },
            })
            .collect()
    }

    fn softmax(scores: &[f64], gamma: f64) -> Vec<f64> {
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut out: Vec<f64> = scores.iter().map(|s| ((s - max) / gamma).exp()).collect();
        let sum: f64 = out.iter().sum();
        for v in &mut out {
            *v /= sum;
        }
        out
    }

    /// First pass: the policy distribution over the fresh pairs.
    fn policy_distribution(
        s: &ResponseStrategy,
        table: &Table,
        index: &ViolationIndex,
        belief: &Belief,
        candidates: &[PairExample],
        k: usize,
    ) -> Vec<f64> {
        let n = candidates.len();
        match s.kind {
            StrategyKind::Random => vec![1.0 / n as f64; n],
            StrategyKind::StochasticBestResponse | StrategyKind::StochasticUncertainty => softmax(
                &reference_scores(s, table, index, belief, candidates, None),
                s.gamma,
            ),
            _ => {
                let scores = reference_scores(s, table, index, belief, candidates, None);
                let chosen = top_k_indices(&scores, k.min(n));
                let w = 1.0 / chosen.len() as f64;
                let mut out = vec![0.0; n];
                for i in chosen {
                    out[i] = w;
                }
                out
            }
        }
    }

    /// Second pass: score again and pick.
    fn select(
        s: &ResponseStrategy,
        table: &Table,
        index: &ViolationIndex,
        belief: &Belief,
        candidates: &[PairExample],
        k: usize,
        rng: &mut StdRng,
    ) -> Vec<PairExample> {
        let k = k.min(candidates.len());
        let top = |scores: &[f64]| {
            top_k_indices(scores, k)
                .into_iter()
                .map(|i| candidates[i])
                .collect()
        };
        match s.kind {
            StrategyKind::Random => {
                let mut pool = candidates.to_vec();
                pool.shuffle(rng);
                pool.truncate(k);
                pool
            }
            StrategyKind::ThompsonSampling => {
                let draw: Vec<f64> = (0..belief.len())
                    .map(|i| belief.dist(i).sample(rng))
                    .collect();
                top(&reference_scores(
                    s,
                    table,
                    index,
                    belief,
                    candidates,
                    Some(&draw),
                ))
            }
            StrategyKind::StochasticBestResponse | StrategyKind::StochasticUncertainty => {
                let scores = reference_scores(s, table, index, belief, candidates, None);
                let mut weights = softmax(&scores, s.gamma);
                let mut alive: Vec<usize> = (0..candidates.len()).collect();
                let mut out = Vec::with_capacity(k);
                for _ in 0..k {
                    let total: f64 = alive.iter().map(|&i| weights[i]).sum();
                    if total <= 0.0 || alive.is_empty() {
                        break;
                    }
                    let mut pick = rng.gen::<f64>() * total;
                    let mut chosen_pos = alive.len() - 1;
                    for (pos, &i) in alive.iter().enumerate() {
                        if pick < weights[i] {
                            chosen_pos = pos;
                            break;
                        }
                        pick -= weights[i];
                    }
                    let i = alive.swap_remove(chosen_pos);
                    weights[i] = 0.0;
                    out.push(candidates[i]);
                }
                out
            }
            _ => top(&reference_scores(s, table, index, belief, candidates, None)),
        }
    }

    /// The session's candidate pool, enumerated again from its table,
    /// space and config: the training-row pairs, in pool order. The
    /// session keeps them only as its matrix's pair list.
    fn oracle_pool(st: &SessionState) -> CandidatePool {
        let n = st.table.nrows();
        let (train, _) = split_rows(n, st.cfg.test_frac, st.cfg.seed);
        let mut in_train = vec![false; n];
        for r in train {
            in_train[r] = true;
        }
        let mut pool = CandidatePool::build(&st.table, &st.space, st.cfg.pool_cap, st.cfg.seed);
        pool.retain_rows(&in_train);
        pool
    }

    /// One oracle round on `twin` (a clone of the live learner): the fresh
    /// pairs by shown-set filter, the policy entropy from the first pass, the
    /// picks from the second. Advances `twin`'s RNG exactly as the round does.
    fn oracle_round(st: &SessionState, twin: &mut Learner) -> (Vec<PairExample>, f64) {
        let fresh: Vec<PairExample> = oracle_pool(st)
            .pairs()
            .iter()
            .copied()
            .filter(|p| !twin.shown().contains(&(p.a as u32, p.b as u32)))
            .collect();
        let s = twin.strategy();
        let belief = twin.belief().clone();
        let k = st.cfg.pairs_per_iteration;
        let (table, index) = (&st.table, &st.score_index);
        if fresh.is_empty() {
            return (Vec::new(), 0.0);
        }
        let h = policy_entropy(&policy_distribution(&s, table, index, &belief, &fresh, k));
        let picks = select(&s, table, index, &belief, &fresh, k, twin.rng_mut());
        (picks, h)
    }

    /// One checked round: the oracle's picks, policy entropy and RNG
    /// stream must match `present`, bit for bit. Returns the round's
    /// `h_policy`, or `None`, after checking the oracle found nothing
    /// either, when the pool is dry.
    fn checked_round(
        st: &mut SessionState,
        learner: &mut Learner,
        trainer: &mut FpTrainer,
        tag: &str,
    ) -> Option<f64> {
        let mut twin = learner.clone();
        let (want_pairs, want_h) = oracle_round(st, &mut twin);
        let Some(p) = st.present(learner).expect("in phase") else {
            assert!(want_pairs.is_empty(), "{tag}: oracle still had pairs");
            return None;
        };
        assert_eq!(p.pairs(), want_pairs.as_slice(), "{tag}: pairs");
        assert_eq!(p.h_policy.to_bits(), want_h.to_bits(), "{tag}: h_policy");
        let h_policy = p.h_policy;
        assert_eq!(
            learner.rng_mut().state(),
            twin.rng_mut().state(),
            "{tag}: RNG stream"
        );
        let labels = st.label_pending(trainer).expect("pending");
        let _ = st.apply_labels(trainer, learner, &labels).expect("aligned");
        Some(h_policy)
    }

    /// Runs every kind on both bases under `cfg` until the session is
    /// complete, checking each round against the oracle. Returns, per
    /// run, the rounds played and the pool's size if it ran dry.
    fn check_sessions(cfg: &SessionConfig) -> Vec<(usize, Option<usize>)> {
        let (table, dirty, space) = fixture();
        let mut out = Vec::new();
        for basis in [ScoreBasis::PairLocal, ScoreBasis::DatasetTuple] {
            for kind in ALL_KINDS {
                let strategy = ResponseStrategy::paper(kind).with_basis(basis);
                let (mut trainer, mut learner) = agents_with(strategy, &table, &space);
                let mut st = SessionState::new(
                    table.clone(),
                    space.clone(),
                    &dirty,
                    cfg.clone(),
                    &trainer,
                    &learner,
                )
                .expect("valid config");
                let mut rounds = 0;
                while !st.is_complete() {
                    let tag = format!("{kind:?}/{basis:?} round {rounds}");
                    if checked_round(&mut st, &mut learner, &mut trainer, &tag).is_none() {
                        break;
                    }
                    rounds += 1;
                }
                let pool = oracle_pool(&st).len();
                let drained = (learner.shown().len() == pool).then_some(pool);
                out.push((rounds, drained));
            }
        }
        out
    }

    #[test]
    fn every_round_matches_the_two_pass_reference() {
        let cfg = SessionConfig {
            iterations: 12,
            ..SessionConfig::default()
        };
        for (rounds, _) in check_sessions(&cfg) {
            assert_eq!(rounds, cfg.iterations);
        }
    }

    /// The late rounds of a session, where most of the scorer's cached
    /// slots belong to retired ids: a small pool (120 pairs, about 60 of
    /// them in the training split) drained to the last pair, every round
    /// against the raw-cell oracle.
    #[test]
    fn rounds_match_the_reference_until_the_pool_drains() {
        let cfg = SessionConfig {
            iterations: 1000,
            pool_cap: 120,
            ..SessionConfig::default()
        };
        for (rounds, drained) in check_sessions(&cfg) {
            let pool = drained.expect("the pool ran dry");
            assert!(pool > 40, "a pool of {pool} pairs is too small to drain");
            assert_eq!(rounds, pool.div_ceil(cfg.pairs_per_iteration));
        }
    }

    /// A stochastic round drawn from a single fresh pair: its policy is a
    /// point mass, whose entropy is the one term `-1 · ln 1 = -0.0`, and an
    /// `f64` sum over that term keeps its sign. The first round takes all
    /// but one pair of the pool, the second the last.
    #[test]
    fn a_single_candidate_round_has_negative_zero_entropy() {
        let (table, dirty, space) = fixture();
        let small_pool = SessionConfig {
            pool_cap: 120,
            ..SessionConfig::default()
        };
        for basis in [ScoreBasis::PairLocal, ScoreBasis::DatasetTuple] {
            for kind in [
                StrategyKind::StochasticBestResponse,
                StrategyKind::StochasticUncertainty,
            ] {
                let strategy = ResponseStrategy::paper(kind).with_basis(basis);
                let (mut trainer, mut learner) = agents_with(strategy, &table, &space);
                let new_state = |cfg: SessionConfig| {
                    SessionState::new(
                        table.clone(),
                        space.clone(),
                        &dirty,
                        cfg,
                        &trainer,
                        &learner,
                    )
                    .expect("valid config")
                };
                let pool = oracle_pool(&new_state(small_pool.clone())).len();
                let mut st = new_state(SessionConfig {
                    iterations: 2,
                    pairs_per_iteration: pool - 1,
                    ..small_pool.clone()
                });
                let tag = format!("{kind:?}/{basis:?}");
                checked_round(&mut st, &mut learner, &mut trainer, &tag).expect("first round");
                assert_eq!(learner.shown().len(), pool - 1, "{tag}: one pair left");
                let h = checked_round(&mut st, &mut learner, &mut trainer, &tag)
                    .expect("the last pair");
                assert_eq!(h.to_bits(), (-0.0f64).to_bits(), "{tag}: h_policy {h}");
            }
        }
    }
}
