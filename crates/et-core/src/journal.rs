//! Session durability: the write-ahead label log, state snapshots, and the
//! bit-identical recovery path.
//!
//! ## Why logging labels is enough
//!
//! A session is a deterministic function of `(seed, config, label
//! sequence)`: presentation order, the learner's RNG stream, the trainer's
//! belief updates — everything downstream of construction is replayable
//! (the step-API and selection-oracle tests pin this). The only inputs that
//! cannot be rederived are the submitted label batches, so those are what
//! the WAL records. Recovery rebuilds the session environment from the
//! original spec, replays the log through the *real* step API
//! (`present` → optional `label_pending` → `apply_labels`), and lands on
//! state bit-identical to the uninterrupted run.
//!
//! ## Why snapshots are only an optimization
//!
//! Replay cost grows with session length, so the journal periodically
//! writes a `encode_snapshot` blob of every mutable field (beliefs, RNG
//! state, histories, the pending presentation). Recovery restores the
//! newest *valid* snapshot and replays only the WAL suffix; a corrupt
//! snapshot (checksum failure) falls back to the next older one, down to
//! full replay. Derived structures — relation matrix, partition cache,
//! candidate pool, violation indexes — are never persisted: they are pure
//! functions of the immutable table and get rebuilt on construction. The
//! fresh pool ids derive from the learner's shown set, which the snapshot
//! does store; they are rebuilt from it on the first `present` after a
//! restore. A pending presentation's sample index is rebuilt from its
//! sample during the restore, and history keeps only `(selected, sample,
//! labels)` per round.
//!
//! ## Layout of a session directory
//!
//! ```text
//! <dir>/labels.wal          append-only label batches (et-durable framing)
//! <dir>/snap-<t:020>.bin    state snapshot covering rounds [0, t)
//! ```
//!
//! Callers that host many sessions (et-serve) add their own `meta.bin`
//! beside these to rebuild the environment; this module is agnostic to it.

use std::path::{Path, PathBuf};

use et_belief::Belief;
use et_durable::{snapshot, Dec, DurableError, Enc, FsyncPolicy, Wal};

use crate::game::{Interaction, PairExample};
use crate::learner::Learner;
use crate::session::{IterationMetrics, PendingInteraction, SessionState, StepError};
use crate::trainer::{Trainer, TrainerPersist};

/// WAL record type tag for a submitted label batch.
const REC_LABELS: u8 = 1;
/// Snapshot payload format version. Version 2 dropped each history
/// round's derived evidence pairs; version-1 payloads are refused.
const SNAPSHOT_VERSION: u8 = 2;
/// The WAL filename inside a session directory.
const WAL_FILE: &str = "labels.wal";
/// Valid snapshots retained after a new one lands (the newer one plus one
/// fallback for torn-write corruption).
const SNAPSHOTS_KEPT: usize = 2;

/// How a [`SessionJournal`] persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// When appends and snapshots reach stable storage.
    pub fsync: FsyncPolicy,
    /// Snapshot cadence in interactions (`0` = only on completion).
    pub snapshot_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            snapshot_every: 8,
        }
    }
}

/// One durably logged label batch: everything `apply_labels` consumed that
/// cannot be rederived, plus the sample for replay cross-checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelRecord {
    /// The interaction this batch completed (0-based).
    pub t: u64,
    /// Whether the in-process trainer observed the sample via
    /// `label_pending` before the labels were applied — replay must repeat
    /// the trainer's belief update exactly when it happened live.
    pub trainer_observed: bool,
    /// The presented sample (row ids); replay verifies its own presentation
    /// reproduces this exactly before applying the labels.
    pub sample: Vec<usize>,
    /// The submitted labels, aligned with `sample`.
    pub labels: Vec<bool>,
}

/// Encodes one label batch from borrowed parts — the frame
/// [`SessionJournal::append_labels_parts`] writes without materialising an
/// owned [`LabelRecord`]. Byte-identical to [`LabelRecord::encode`].
fn encode_labels(t: u64, trainer_observed: bool, sample: &[usize], labels: &[bool]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(t);
    enc.put_bool(trainer_observed);
    enc.put_usize(sample.len());
    for &r in sample {
        enc.put_usize(r);
    }
    enc.put_usize(labels.len());
    for &l in labels {
        enc.put_bool(l);
    }
    enc.into_bytes()
}

impl LabelRecord {
    fn encode(&self) -> Vec<u8> {
        encode_labels(self.t, self.trainer_observed, &self.sample, &self.labels)
    }

    fn decode(payload: &[u8]) -> Result<Self, DurableError> {
        let mut dec = Dec::new(payload);
        let t = dec.take_u64()?;
        let trainer_observed = dec.take_bool()?;
        let n = dec.take_usize()?;
        let mut sample = Vec::with_capacity(n.min(payload.len()));
        for _ in 0..n {
            sample.push(dec.take_usize()?);
        }
        let n = dec.take_usize()?;
        let mut labels = Vec::with_capacity(n.min(payload.len()));
        for _ in 0..n {
            labels.push(dec.take_bool()?);
        }
        dec.finish()?;
        Ok(Self {
            t,
            trainer_observed,
            sample,
            labels,
        })
    }
}

/// The result of [`SessionJournal::open`]: the journal plus everything the
/// existing log held.
#[derive(Debug)]
pub struct JournalOpen {
    /// The journal, ready for appends.
    pub journal: SessionJournal,
    /// All durably recorded label batches, in round order.
    pub records: Vec<LabelRecord>,
    /// Bytes the WAL discarded as a torn tail (0 on a clean file).
    pub truncated_bytes: u64,
}

/// One session's durable storage: its directory, WAL, and snapshot cadence.
#[derive(Debug)]
pub struct SessionJournal {
    dir: PathBuf,
    wal: Wal,
    cfg: JournalConfig,
}

impl SessionJournal {
    /// Creates the journal for a *new* session, creating `dir` as needed.
    ///
    /// # Errors
    /// [`DurableError::Io`] on filesystem failures, and
    /// [`DurableError::Corrupt`] when `dir` already holds label records —
    /// an existing session must go through [`SessionJournal::open`] and
    /// replay, never be silently re-logged.
    pub fn create(dir: &Path, cfg: JournalConfig) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| DurableError::io("create session dir", dir, &e))?;
        let opened = Self::open(dir, cfg)?;
        if !opened.records.is_empty() {
            return Err(DurableError::Corrupt {
                path: dir.join(WAL_FILE),
                offset: 0,
                reason: format!(
                    "journal already holds {} records; recover instead of re-creating",
                    opened.records.len()
                ),
            });
        }
        Ok(opened.journal)
    }

    /// Opens an existing session directory (or an empty one), returning the
    /// journal and every legible record. The WAL's torn tail, if any, is
    /// truncated here.
    ///
    /// # Errors
    /// [`DurableError::Io`] on filesystem failures; [`DurableError::Corrupt`]
    /// when the WAL file is not a WAL; [`DurableError::Decode`] when a
    /// checksummed record fails to parse (format skew).
    pub fn open(dir: &Path, cfg: JournalConfig) -> Result<JournalOpen, DurableError> {
        let opened = Wal::open(&dir.join(WAL_FILE), cfg.fsync)?;
        let mut records = Vec::with_capacity(opened.records.len());
        for rec in &opened.records {
            if rec.rec_type != REC_LABELS {
                return Err(DurableError::decode(format!(
                    "unknown WAL record type {}",
                    rec.rec_type
                )));
            }
            records.push(LabelRecord::decode(&rec.payload)?);
        }
        Ok(JournalOpen {
            journal: SessionJournal {
                dir: dir.to_path_buf(),
                wal: opened.wal,
                cfg,
            },
            records,
            truncated_bytes: opened.truncated_bytes,
        })
    }

    /// Durably appends one label batch (write-ahead; fsynced under
    /// [`FsyncPolicy::Always`]).
    ///
    /// # Errors
    /// [`DurableError::Io`] when the append or sync fails.
    pub fn append_labels(&mut self, record: &LabelRecord) -> Result<(), DurableError> {
        self.wal.append(REC_LABELS, &record.encode())
    }

    /// [`SessionJournal::append_labels`] from borrowed parts: writes the
    /// byte-identical frame without the caller cloning its pending sample
    /// and label slices into an owned [`LabelRecord`] first (the hot-path
    /// lint budget for `apply_labels` charges those clones).
    ///
    /// # Errors
    /// [`DurableError::Io`] when the append or sync fails.
    pub fn append_labels_parts(
        &mut self,
        t: u64,
        trainer_observed: bool,
        sample: &[usize],
        labels: &[bool],
    ) -> Result<(), DurableError> {
        self.wal.append(
            REC_LABELS,
            &encode_labels(t, trainer_observed, sample, labels),
        )
    }

    /// Atomically writes the snapshot covering rounds `[0, t)` and prunes
    /// all but the newest `SNAPSHOTS_KEPT` snapshots.
    ///
    /// # Errors
    /// [`DurableError::Io`] when the write fails (the previous snapshot
    /// survives — writes go through a tmp file + rename).
    pub fn write_snapshot(&mut self, t: u64, payload: &[u8]) -> Result<PathBuf, DurableError> {
        let sync = self.cfg.fsync == FsyncPolicy::Always;
        let path = snapshot::write_atomic(&self.dir, &snapshot::file_name(t), payload, sync)?;
        let listed = snapshot::list(&self.dir)?;
        if let Some(&(keep_from, _)) = listed.get(SNAPSHOTS_KEPT - 1) {
            let _ = snapshot::prune_older_than(&self.dir, keep_from);
        }
        Ok(path)
    }

    /// Forces buffered WAL appends to stable storage regardless of policy.
    ///
    /// # Errors
    /// [`DurableError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal configuration.
    pub fn config(&self) -> JournalConfig {
        self.cfg
    }
}

/// Appends `belief`'s Beta parameters to a snapshot payload (bit-exact).
pub(crate) fn save_belief(enc: &mut Enc, belief: &Belief) {
    enc.put_usize(belief.len());
    for i in 0..belief.len() {
        let d = belief.dist(i);
        enc.put_f64(d.alpha);
        enc.put_f64(d.beta);
    }
}

/// Restores parameters saved by [`save_belief`] into `belief`, validating
/// the hypothesis-space width and Beta positivity.
pub(crate) fn load_belief(dec: &mut Dec<'_>, belief: &mut Belief) -> Result<(), DurableError> {
    let n = dec.take_usize()?;
    if n != belief.len() {
        return Err(DurableError::decode(format!(
            "belief has {} FDs, snapshot has {n}",
            belief.len()
        )));
    }
    for i in 0..n {
        let alpha = dec.take_f64()?;
        let beta = dec.take_f64()?;
        if !(alpha > 0.0 && alpha.is_finite() && beta > 0.0 && beta.is_finite()) {
            return Err(DurableError::decode(format!(
                "non-positive Beta parameters ({alpha}, {beta}) at FD {i}"
            )));
        }
        let d = belief.dist_mut(i);
        d.alpha = alpha;
        d.beta = beta;
    }
    Ok(())
}

fn save_f64s(enc: &mut Enc, v: &[f64]) {
    enc.put_usize(v.len());
    for &x in v {
        enc.put_f64(x);
    }
}

fn load_f64s(dec: &mut Dec<'_>) -> Result<Vec<f64>, DurableError> {
    let n = dec.take_usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(dec.take_f64()?);
    }
    Ok(out)
}

fn save_usizes(enc: &mut Enc, v: &[usize]) {
    enc.put_usize(v.len());
    for &x in v {
        enc.put_usize(x);
    }
}

fn load_usizes(dec: &mut Dec<'_>) -> Result<Vec<usize>, DurableError> {
    let n = dec.take_usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(dec.take_usize()?);
    }
    Ok(out)
}

fn save_bools(enc: &mut Enc, v: &[bool]) {
    enc.put_usize(v.len());
    for &x in v {
        enc.put_bool(x);
    }
}

fn load_bools(dec: &mut Dec<'_>) -> Result<Vec<bool>, DurableError> {
    let n = dec.take_usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(dec.take_bool()?);
    }
    Ok(out)
}

fn save_pairs(enc: &mut Enc, v: &[PairExample]) {
    enc.put_usize(v.len());
    for p in v {
        enc.put_usize(p.a);
        enc.put_usize(p.b);
    }
}

fn load_pairs(dec: &mut Dec<'_>) -> Result<Vec<PairExample>, DurableError> {
    let n = dec.take_usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let a = dec.take_usize()?;
        let b = dec.take_usize()?;
        out.push(PairExample { a, b });
    }
    Ok(out)
}

/// Serializes every mutable field of a journaled session — plus the two
/// agents — into one snapshot payload. Everything else (table, indexes,
/// pool, relation matrix, partition cache) is derivable and rebuilt by
/// construction on recovery.
pub(crate) fn encode_snapshot<T: TrainerPersist>(
    state: &SessionState,
    trainer: &T,
    learner: &Learner,
) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u8(SNAPSHOT_VERSION);
    // Config echo: recovery refuses a snapshot taken under different
    // session parameters (it would not be the same deterministic function).
    let cfg = state.config();
    enc.put_usize(cfg.iterations);
    enc.put_usize(cfg.pairs_per_iteration);
    enc.put_f64(cfg.test_frac);
    enc.put_usize(cfg.pool_cap);
    enc.put_f64(cfg.eps_drift);
    enc.put_usize(cfg.stability_window);
    enc.put_u64(cfg.seed);

    enc.put_usize(state.t);
    enc.put_usize(state.labels_total);
    enc.put_usize(state.dirty_total);
    enc.put_bool(state.exhausted);
    save_f64s(&mut enc, &state.prev_trainer);
    save_f64s(&mut enc, &state.prev_learner);

    enc.put_usize(state.metrics.len());
    for m in &state.metrics {
        enc.put_usize(m.t);
        enc.put_f64(m.mae);
        enc.put_f64(m.learner_f1);
        enc.put_f64(m.learner_precision);
        enc.put_f64(m.learner_recall);
        enc.put_f64(m.trainer_f1);
        enc.put_f64(m.learner_drift);
        enc.put_f64(m.trainer_drift);
        enc.put_f64(m.policy_entropy);
        enc.put_usize(m.dirty_labels);
        enc.put_f64(m.phi_dirty);
        enc.put_f64(m.agreement);
    }

    enc.put_usize(state.history.len());
    for i in &state.history {
        enc.put_usize(i.t);
        save_pairs(&mut enc, &i.selected);
        save_usizes(&mut enc, &i.sample);
        save_bools(&mut enc, &i.labels);
    }

    match &state.pending {
        None => enc.put_bool(false),
        Some(p) => {
            enc.put_bool(true);
            save_pairs(&mut enc, &p.pairs);
            save_usizes(&mut enc, &p.sample);
            enc.put_f64(p.h_policy);
            save_bools(&mut enc, &p.predicted);
            match &p.hosted {
                None => enc.put_bool(false),
                Some(hosted) => {
                    enc.put_bool(true);
                    save_bools(&mut enc, hosted);
                }
            }
        }
    }
    // Whether the trainer has already observed the pending sample (limbo
    // between label_pending and apply_labels) — replaying it twice would
    // double-update the trainer's belief.
    enc.put_bool(state.trainer_observed);

    learner.save_durable(&mut enc);
    trainer.save_state(&mut enc);
    enc.into_bytes()
}

/// Restores a payload written by [`encode_snapshot`] into a freshly
/// constructed state and agents. On error the agents may be partially
/// written and must be discarded (recovery constructs fresh ones anyway).
pub(crate) fn restore_snapshot<T: TrainerPersist>(
    state: &mut SessionState,
    payload: &[u8],
    trainer: &mut T,
    learner: &mut Learner,
) -> Result<(), DurableError> {
    let mut dec = Dec::new(payload);
    let version = dec.take_u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(DurableError::decode(format!(
            "snapshot version {version}, expected {SNAPSHOT_VERSION}"
        )));
    }
    let cfg = state.config().clone();
    let echo_iterations = dec.take_usize()?;
    let echo_ppi = dec.take_usize()?;
    let echo_test_frac = dec.take_f64()?;
    let echo_pool_cap = dec.take_usize()?;
    let echo_eps_drift = dec.take_f64()?;
    let echo_window = dec.take_usize()?;
    let echo_seed = dec.take_u64()?;
    if echo_iterations != cfg.iterations
        || echo_ppi != cfg.pairs_per_iteration
        || echo_test_frac.to_bits() != cfg.test_frac.to_bits()
        || echo_pool_cap != cfg.pool_cap
        || echo_eps_drift.to_bits() != cfg.eps_drift.to_bits()
        || echo_window != cfg.stability_window
        || echo_seed != cfg.seed
    {
        return Err(DurableError::decode(
            "snapshot was taken under a different session config".to_string(),
        ));
    }

    let t = dec.take_usize()?;
    let labels_total = dec.take_usize()?;
    let dirty_total = dec.take_usize()?;
    let exhausted = dec.take_bool()?;
    let prev_trainer = load_f64s(&mut dec)?;
    let prev_learner = load_f64s(&mut dec)?;

    let n = dec.take_usize()?;
    let mut metrics = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        metrics.push(IterationMetrics {
            t: dec.take_usize()?,
            mae: dec.take_f64()?,
            learner_f1: dec.take_f64()?,
            learner_precision: dec.take_f64()?,
            learner_recall: dec.take_f64()?,
            trainer_f1: dec.take_f64()?,
            learner_drift: dec.take_f64()?,
            trainer_drift: dec.take_f64()?,
            policy_entropy: dec.take_f64()?,
            dirty_labels: dec.take_usize()?,
            phi_dirty: dec.take_f64()?,
            agreement: dec.take_f64()?,
        });
    }

    let n = dec.take_usize()?;
    let mut history = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let it = dec.take_usize()?;
        let selected = load_pairs(&mut dec)?;
        let sample = load_usizes(&mut dec)?;
        let labels = load_bools(&mut dec)?;
        history.push(Interaction {
            t: it,
            selected,
            sample,
            labels,
        });
    }

    let pending = if dec.take_bool()? {
        let pairs = load_pairs(&mut dec)?;
        let sample = load_usizes(&mut dec)?;
        let rows = state.table().nrows();
        if let Some(&r) = sample.iter().find(|&&r| r >= rows) {
            return Err(DurableError::decode(format!(
                "pending sample row {r} is out of range for {rows} rows"
            )));
        }
        let index = state.sample_index(&sample);
        let h_policy = dec.take_f64()?;
        let predicted = load_bools(&mut dec)?;
        let hosted = if dec.take_bool()? {
            Some(load_bools(&mut dec)?)
        } else {
            None
        };
        Some(PendingInteraction {
            pairs,
            sample,
            index,
            h_policy,
            predicted,
            hosted,
        })
    } else {
        None
    };
    let trainer_observed = dec.take_bool()?;

    learner.load_durable(&mut dec)?;
    trainer.load_state(&mut dec)?;
    dec.finish()?;

    state.t = t;
    state.labels_total = labels_total;
    state.dirty_total = dirty_total;
    state.exhausted = exhausted;
    state.prev_trainer = prev_trainer;
    state.prev_learner = prev_learner;
    state.metrics = metrics;
    state.history = history;
    state.pending = pending;
    state.trainer_observed = trainer_observed;
    // The fresh candidates derive from the shown set just restored.
    state.fresh = None;
    Ok(())
}

/// What [`recover_session`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverOutcome {
    /// The round of the snapshot that seeded recovery (`None` = full
    /// replay from round 0).
    pub snapshot_t: Option<u64>,
    /// Label batches replayed from the WAL suffix.
    pub replayed: usize,
    /// Bytes the WAL discarded as a torn tail.
    pub truncated_bytes: u64,
}

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoverError {
    /// Storage-layer failure (IO, corruption, decode).
    Durable(DurableError),
    /// Replaying a logged step failed — the rebuilt environment does not
    /// accept the logged protocol (config/dataset skew).
    Step(StepError),
    /// The log disagrees with deterministic replay: a round gap, a sample
    /// mismatch, or records beyond session completion. The stored session
    /// was produced by a different environment than the one rebuilt.
    Divergence {
        /// The interaction at which replay diverged.
        t: u64,
        /// What disagreed.
        reason: String,
    },
    /// `recover_session` needs a freshly constructed state (no iterations
    /// done, no journal attached).
    StateNotFresh,
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Durable(e) => write!(f, "durable storage: {e}"),
            RecoverError::Step(e) => write!(f, "replay step: {e}"),
            RecoverError::Divergence { t, reason } => {
                write!(f, "replay diverged from the log at t = {t}: {reason}")
            }
            RecoverError::StateNotFresh => {
                write!(f, "recovery requires a freshly constructed session state")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<DurableError> for RecoverError {
    fn from(e: DurableError) -> Self {
        RecoverError::Durable(e)
    }
}

impl From<StepError> for RecoverError {
    fn from(e: StepError) -> Self {
        RecoverError::Step(e)
    }
}

/// Recovers a session from its durable directory.
///
/// `state`, `trainer`, and `learner` must be freshly constructed from the
/// session's original `(spec, seed)` — exactly as at first creation. The
/// function restores the newest valid snapshot (falling back on checksum
/// failures, down to none), replays the WAL suffix through the real step
/// API, verifies each replayed presentation against the logged sample, and
/// finally attaches the journal so subsequent steps append as usual.
///
/// Afterwards the triple is bit-identical to the pre-crash session: same
/// beliefs, same RNG streams, same histories, same pending presentation.
///
/// # Errors
/// See [`RecoverError`]; on error the state and agents are unspecified and
/// must be discarded.
pub fn recover_session<T: Trainer + TrainerPersist>(
    dir: &Path,
    cfg: JournalConfig,
    state: &mut SessionState,
    trainer: &mut T,
    learner: &mut Learner,
) -> Result<RecoverOutcome, RecoverError> {
    if state.iterations_done() != 0 || state.journal().is_some() || state.pending.is_some() {
        return Err(RecoverError::StateNotFresh);
    }
    let opened = SessionJournal::open(dir, cfg)?;
    let mut outcome = RecoverOutcome {
        snapshot_t: None,
        replayed: 0,
        truncated_bytes: opened.truncated_bytes,
    };

    // Newest valid snapshot wins; a checksum-corrupt snapshot falls back to
    // the next older one (more WAL replay, same final state). A snapshot
    // that *validates* but fails to decode is fatal — that is format skew,
    // not a torn write.
    for (t, path) in snapshot::list(dir)? {
        let payload = match snapshot::read(&path) {
            Ok(p) => p,
            Err(_) => continue,
        };
        restore_snapshot(state, &payload, trainer, learner)?;
        outcome.snapshot_t = Some(t);
        break;
    }

    for record in &opened.records {
        let t_now = state.iterations_done() as u64;
        if record.t < t_now {
            continue; // covered by the snapshot
        }
        if record.t > t_now {
            return Err(RecoverError::Divergence {
                t: record.t,
                reason: format!("round gap: log jumps from {t_now} to {}", record.t),
            });
        }
        if state.pending.is_none() {
            match state.present(learner)? {
                Some(_) => {}
                None => {
                    return Err(RecoverError::Divergence {
                        t: record.t,
                        reason: "session completed before the log ran out".to_string(),
                    })
                }
            }
        }
        let sample_matches = state
            .pending
            .as_ref()
            .is_some_and(|p| p.sample == record.sample);
        if !sample_matches {
            return Err(RecoverError::Divergence {
                t: record.t,
                reason: "replayed presentation disagrees with the logged sample".to_string(),
            });
        }
        if record.trainer_observed {
            let _ = state.label_pending(trainer)?;
        }
        let _ = state.apply_labels(trainer, learner, &record.labels)?;
        outcome.replayed += 1;
    }

    state.journal = Some(opened.journal);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_record_round_trips() {
        let rec = LabelRecord {
            t: 9,
            trainer_observed: true,
            sample: vec![4, 0, 17],
            labels: vec![true, false, true],
        };
        assert_eq!(LabelRecord::decode(&rec.encode()).expect("decode"), rec);
    }

    #[test]
    fn label_record_rejects_garbage() {
        let rec = LabelRecord {
            t: 1,
            trainer_observed: false,
            sample: vec![2],
            labels: vec![false],
        };
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(LabelRecord::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(LabelRecord::decode(&extended).is_err(), "trailing byte");
    }

    #[test]
    fn journal_create_refuses_existing_records() {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "et-core-journal-create-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut j = SessionJournal::create(&dir, JournalConfig::default()).expect("create");
        j.append_labels(&LabelRecord {
            t: 0,
            trainer_observed: true,
            sample: vec![1, 2],
            labels: vec![false, true],
        })
        .expect("append");
        drop(j);
        assert!(matches!(
            SessionJournal::create(&dir, JournalConfig::default()),
            Err(DurableError::Corrupt { .. })
        ));
        let reopened = SessionJournal::open(&dir, JournalConfig::default()).expect("open");
        assert_eq!(reopened.records.len(), 1);
        assert_eq!(reopened.records[0].sample, vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restores_the_pending_index_and_refuses_bad_payloads() {
        use crate::respond::{ResponseStrategy, StrategyKind};
        use crate::session::SessionConfig;
        use crate::trainer::FpTrainer;
        use et_belief::{Beta, EvidenceConfig};
        use et_fd::HypothesisSpace;
        use std::sync::Arc;

        let ds = et_data::gen::omdb(80, 5);
        let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 12, 3, &[]));
        let belief = Belief::constant(space.clone(), Beta::new(2.0, 2.0));
        let agents = || {
            let trainer = FpTrainer::new(belief.clone(), EvidenceConfig::default());
            let learner = Learner::new(
                belief.clone(),
                ResponseStrategy::paper(StrategyKind::Random),
                EvidenceConfig::default(),
                1,
            );
            (trainer, learner)
        };
        let fresh_state = |trainer: &FpTrainer, learner: &Learner| {
            let dirty = vec![false; ds.table.nrows()];
            SessionState::new(
                ds.table.clone(),
                space.clone(),
                &dirty,
                SessionConfig::default(),
                trainer,
                learner,
            )
            .expect("valid config")
        };
        let (trainer, mut learner) = agents();
        let mut live = fresh_state(&trainer, &learner);
        assert!(live.present(&mut learner).expect("in phase").is_some());
        let mut payload = encode_snapshot(&live, &trainer, &learner);
        assert_eq!(payload[0], SNAPSHOT_VERSION);

        // The pending sample's index is not stored; the restore rebuilds it.
        let (mut trainer, mut learner) = agents();
        let mut restored = fresh_state(&trainer, &learner);
        restore_snapshot(&mut restored, &payload, &mut trainer, &mut learner).expect("restore");
        let (want, got) = (live.pending.as_ref(), restored.pending.as_ref());
        assert_eq!(want.map(|p| &p.index), got.map(|p| &p.index));

        // A pending row outside the table is refused, not indexed.
        if let Some(p) = live.pending.as_mut() {
            p.sample[0] = ds.table.nrows();
        }
        let bad_row = encode_snapshot(&live, &trainer, &learner);
        let (mut trainer, mut learner) = agents();
        let mut refused = fresh_state(&trainer, &learner);
        assert!(matches!(
            restore_snapshot(&mut refused, &bad_row, &mut trainer, &mut learner),
            Err(DurableError::Decode { reason }) if reason.contains("out of range")
        ));

        // A version-1 payload still carries the evidence pairs version 2
        // dropped, so it is refused before anything else is read.
        payload[0] = 1;
        let (mut trainer, mut learner) = agents();
        let mut refused = fresh_state(&trainer, &learner);
        match restore_snapshot(&mut refused, &payload, &mut trainer, &mut learner) {
            Err(DurableError::Decode { reason }) => {
                assert_eq!(reason, "snapshot version 1, expected 2");
            }
            other => panic!("expected the version error, got {other:?}"),
        }
    }

    /// A live session's partition cache holds its determinants' row →
    /// class lookups and no partition, from create on: neither the round
    /// path, a snapshot restore nor a journal recovery misses the cache
    /// and grows it back.
    #[test]
    fn a_live_session_keeps_only_its_determinants_lookups() {
        use crate::respond::{ResponseStrategy, StrategyKind};
        use crate::session::SessionConfig;
        use crate::trainer::FpTrainer;
        use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
        use et_data::gen::DatasetName;
        use et_data::{inject_errors, InjectConfig};
        use et_fd::{Fd, HypothesisSpace, PartitionCache};
        use std::sync::Arc;

        // The served create: a Hospital-1000 table, its space scored
        // through the cache, the cache pruned to the space's determinants.
        let mut ds = DatasetName::Hospital.generate(1000, 21);
        let specs = ds.exact_fds.clone();
        let _ = inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &InjectConfig::with_degree(0.15, 22),
        );
        let table = ds.table;
        let dirty = vec![false; table.nrows()];
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let scored = PartitionCache::new(&table);
        let space = Arc::new(HypothesisSpace::capped_with(
            &table, &scored, 3, 20, 3, &pinned,
        ));
        let mut determinants = space.distinct_lhs();
        determinants.sort_unstable();
        scored.prune(|attrs| determinants.contains(&attrs));
        let scored = Arc::new(scored);

        let prior = build_prior(
            &PriorSpec::DataEstimate,
            &PriorConfig::weak(),
            &space,
            &table,
        );
        let agents = || {
            let trainer = FpTrainer::new(prior.clone(), EvidenceConfig::default());
            let learner = Learner::new(
                prior.clone(),
                ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
                EvidenceConfig::default(),
                23,
            );
            (trainer, learner)
        };
        let cfg = SessionConfig {
            iterations: 400,
            seed: 24,
            ..SessionConfig::default()
        };
        let build = |cache: Arc<PartitionCache>, trainer: &FpTrainer, learner: &Learner| {
            SessionState::with_cache(
                table.clone(),
                space.clone(),
                cache,
                &dirty,
                cfg.clone(),
                trainer,
                learner,
            )
            .expect("valid config")
        };
        let lookups = |st: &SessionState| -> Vec<Arc<Vec<u32>>> {
            let cache = st.partition_cache();
            determinants
                .iter()
                .map(|&lhs| cache.row_classes(&table, lhs))
                .collect()
        };
        let assert_slim = |st: &SessionState, tag: &str| {
            let cache = st.partition_cache();
            assert_eq!(cache.len(), 0, "{tag}: the cache holds a partition");
            assert_eq!(cache.lookup_sets(), determinants, "{tag}: lookups");
        };

        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "et-core-slim-session-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let journal_cfg = JournalConfig {
            fsync: et_durable::FsyncPolicy::Never,
            snapshot_every: 20,
        };

        let (mut trainer, mut learner) = agents();
        let mut live = build(Arc::clone(&scored), &trainer, &learner);
        assert_slim(&live, "create");
        let at_create = lookups(&live);
        live.attach_journal(SessionJournal::create(&dir, journal_cfg).expect("journal"));
        for _ in 0..50 {
            assert!(live.present(&mut learner).expect("in phase").is_some());
            let labels = live.label_pending(&mut trainer).expect("pending");
            let _ = live
                .apply_labels(&trainer, &mut learner, &labels)
                .expect("aligned");
            live.maybe_snapshot(&trainer, &learner).expect("snapshot");
        }
        // One presentation left pending, so a restore indexes a sample.
        assert!(live.present(&mut learner).expect("in phase").is_some());
        live.sync_journal().expect("sync");
        assert_slim(&live, "50 rounds");
        assert!(
            std::iter::zip(&at_create, lookups(&live)).all(|(a, b)| Arc::ptr_eq(a, &b)),
            "the rounds rebuilt a lookup"
        );

        let payload = encode_snapshot(&live, &trainer, &learner);
        let (mut trainer, mut learner) = agents();
        let mut restored = build(Arc::new(PartitionCache::new(&table)), &trainer, &learner);
        restore_snapshot(&mut restored, &payload, &mut trainer, &mut learner).expect("restore");
        assert_slim(&restored, "snapshot restore");

        let (mut trainer, mut learner) = agents();
        let mut recovered = build(Arc::new(PartitionCache::new(&table)), &trainer, &learner);
        let outcome = recover_session(
            &dir,
            journal_cfg,
            &mut recovered,
            &mut trainer,
            &mut learner,
        )
        .expect("recover");
        assert_eq!(outcome.snapshot_t, Some(40));
        assert_eq!(recovered.iterations_done(), 50);
        assert_slim(&recovered, "recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Full snapshot/recovery behavior is covered end-to-end by
    // `tests/recovery_bit_identity.rs` (all 8 strategy kinds) and the
    // et-serve crash-injection harness.
}
