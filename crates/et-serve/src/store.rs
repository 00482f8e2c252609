//! The live-session store: a sharded, capacity-bounded map of resumable
//! sessions with idle-timeout eviction.
//!
//! Sharding keeps lock contention proportional to concurrent *sessions on
//! the same shard* rather than to total traffic: each session id hashes to
//! one `Mutex<HashMap>` shard, so two threads driving different sessions
//! almost never serialize on a lock. Capacity and lifetime counters live
//! in atomics beside the shards.
//!
//! With a data directory, a journaled session that is not in memory stays
//! registered as a *dormant* slot holding its directory: journaled
//! sessions are registered at start and revived on their first request
//! ([`SessionStore::revive`]), and an idle eviction leaves the slot dormant
//! instead of forgetting the id. Capacity counts only the sessions held in
//! memory.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use et_core::{recover_session, FpTrainer, JournalConfig, Learner, SessionJournal, SessionState};
use et_durable::{DurableError, FsyncPolicy};

use crate::durability::{list_session_dirs, read_meta, session_dir_name, write_meta, SessionMeta};
use crate::protocol::{MaeHistory, StatusReply};
use crate::spec::{build_parts, derive_seed, CreateSessionSpec};

/// One live session: the resumable state plus its agents and bookkeeping.
pub struct LiveSession {
    /// Session id.
    pub id: u64,
    /// The seed the session runs under.
    pub seed: u64,
    /// The resumable game state.
    pub state: SessionState,
    /// The hosted simulated annotator.
    pub trainer: FpTrainer,
    /// The active learner.
    pub learner: Learner,
    /// Last time a request touched this session (drives eviction).
    pub last_touch: Instant,
    /// Whether the terminal `done` reply has been produced.
    pub reported_done: bool,
    /// The MAE series as its `status` replies encode it, filled lazily by
    /// the `status` op: empty until a session's first status.
    pub mae_history: MaeHistory,
}

impl LiveSession {
    /// Appends the session's `session_status` line to `out`. The MAE series
    /// is copied from the session's cached encoding, after encoding into it
    /// only the rounds played since the previous status.
    pub fn write_status(&mut self, out: &mut Vec<u8>) {
        self.mae_history.catch_up(self.state.metrics());
        StatusReply {
            session: self.id,
            iterations_done: self.state.iterations_done(),
            iterations: self.state.config().iterations,
            awaiting_labels: self.state.pending().is_some(),
            converged_at: self.state.convergence_so_far().converged_at,
            learner_confidences: &self.learner.confidences(),
            trainer_confidences: &self.trainer.belief().confidences(),
        }
        .encode_into(&self.mae_history, out);
        out.push(b'\n');
    }
}

/// Store limits and seeding.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum sessions held in memory; creates and revives beyond this
    /// get `ServerBusy`. Dormant journaled sessions do not count.
    pub capacity: usize,
    /// Shard count (locks); a small power of two is plenty.
    pub shards: usize,
    /// Sessions idle longer than this are evicted lazily.
    pub idle_timeout: Duration,
    /// Base seed for per-session seed derivation.
    pub base_seed: u64,
    /// When set, sessions are journaled under this directory, registered at
    /// start and revived on their first request; `None` keeps the store
    /// purely in-memory (the default).
    pub data_dir: Option<PathBuf>,
    /// Journal fsync policy and snapshot cadence (ignored without
    /// `data_dir`).
    pub journal: JournalConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            shards: 8,
            idle_timeout: Duration::from_secs(300),
            base_seed: 0,
            data_dir: None,
            journal: JournalConfig::default(),
        }
    }
}

/// Why a create or lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store is at capacity.
    Busy,
    /// No session, live or dormant, has this id.
    Unknown(u64),
    /// The spec or derived config was rejected.
    Invalid(String),
    /// Durable storage refused the operation (the session was not created
    /// or the labels were not acknowledged).
    Durability(String),
}

/// Monotonic lifetime counters (exposed via the `status` op).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    /// Sessions created since start.
    pub created_total: u64,
    /// Dormant sessions brought back into memory since start.
    pub revived_total: u64,
    /// Sessions evicted for idleness since start.
    pub evicted_total: u64,
    /// Creates and revives refused at capacity since start.
    pub busy_rejections: u64,
}

/// Sub-buckets per power of two in [`LatencyHistogram`]: a bucket is at
/// most 1/16 of its lower bound wide, so a reported quantile is within
/// 6.25% of the true sample.
const SUB_BUCKETS: u64 = 16;
/// log₂ of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Buckets: one per nanosecond below `SUB_BUCKETS`, then `SUB_BUCKETS`
/// per octave up to `u64::MAX` nanoseconds.
const HIST_BUCKETS: usize = (SUB_BUCKETS + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Lock-free log-linear histogram of server-side per-round label
/// latencies: the `submit_labels` handling inside the session lock
/// (hosted labeling, the learner/belief update, the WAL append).
///
/// Samples are bucketed in nanoseconds, 16 linear sub-buckets per power
/// of two. Reported quantiles are bucket *upper bounds*, so a p50/p99
/// overstates the true sample by at most 6.25% — fine enough to see a
/// tail move well under 2x, while `record` stays one atomic add into a
/// fixed array, with no lock and no allocation on the submit path.
#[derive(Debug)]
pub struct LatencyHistogram {
    /// `buckets[bucket_of(ns)]` counts the samples of `ns` nanoseconds.
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket of a `ns`-nanosecond sample: `ns` itself below
/// `SUB_BUCKETS`, else its octave and the next `SUB_BITS` bits below the
/// leading one.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    (SUB_BUCKETS + u64::from(octave - SUB_BITS) * SUB_BUCKETS + sub) as usize
}

/// Exclusive upper bound, in nanoseconds, of bucket `i` (the inverse of
/// [`bucket_of`]).
fn bucket_upper_ns(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return (i + 1) as f64;
    }
    let shift = (i - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
    // u128: the top bucket's bound is 2^64.
    (u128::from(SUB_BUCKETS + sub + 1) << shift) as f64
}

impl LatencyHistogram {
    /// Creates an empty histogram. Public so load generators can reuse the
    /// same bucketing for client-side per-op latencies.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample; durations beyond `u64::MAX` nanoseconds
    /// saturate.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // Bucket before count: a concurrent reader that has seen the count
        // is guaranteed to find at least that many bucketed samples.
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed); // ord: Relaxed, monotonic diagnostic counter
        self.count.fetch_add(1, Ordering::Release); // ord: Release pairs with the Acquire in samples()
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.count.load(Ordering::Acquire) // ord: Acquire pairs with the Release in record()
    }

    /// Nearest-rank quantile in milliseconds (bucket upper bound), or
    /// `None` before the first sample. `q` is clamped to `[0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        let total = self.samples();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.load(Ordering::Relaxed)); // ord: Relaxed, diagnostic counter snapshot
            if seen >= rank {
                return Some(bucket_upper_ns(i) / 1e6);
            }
        }
        None
    }
}

/// p50/p99 summary of the round-latency histogram, as carried by
/// [`StoreSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Samples recorded so far.
    pub samples: u64,
    /// Estimated median (bucket upper bound), ms; 0 before any sample.
    pub p50_ms: f64,
    /// Estimated 99th percentile, ms; 0 before any sample.
    pub p99_ms: f64,
}

/// What [`SessionStore::recover_from_disk`] found under the data
/// directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Session directories registered as dormant sessions.
    pub registered: usize,
    /// Paths that could not be listed (left on disk for inspection).
    pub failed: Vec<(PathBuf, String)>,
}

/// Snapshot of store occupancy plus counters.
#[derive(Debug, Clone, Copy)]
pub struct StoreSnapshot {
    /// Live sessions right now.
    pub live_sessions: usize,
    /// Capacity bound.
    pub capacity: usize,
    /// Lifetime counters.
    pub counters: StoreCounters,
    /// Server-side per-round label latency summary.
    pub round_latency: LatencySummary,
}

/// One session id's entry in its store shard.
enum Slot {
    /// In memory and serving requests (boxed: a dormant slot stays small).
    Live(Box<LiveSession>),
    /// Journaled but not in memory: the session's directory.
    Dormant(PathBuf),
    /// Being revived, or flushed out by an eviction. A request for it
    /// waits on the shard's condvar until the slot settles.
    Moving,
}

/// What [`SessionStore::lookup`] found.
pub(crate) enum Lookup<R> {
    /// The session is live and the closure ran on it.
    Live(R),
    /// The session is dormant or moving: [`SessionStore::revive`] it and
    /// look again.
    Dormant,
    /// No session has this id.
    Unknown,
}

type Slots = HashMap<u64, Slot>;

/// One lock's worth of sessions.
struct Shard {
    slots: Mutex<Slots>,
    /// Notified whenever a `Moving` slot of this shard settles.
    settled: Condvar,
}

/// The sharded store.
pub struct SessionStore {
    shards: Vec<Shard>,
    cfg: StoreConfig,
    next_id: AtomicU64,
    live: AtomicUsize,
    created_total: AtomicU64,
    revived_total: AtomicU64,
    evicted_total: AtomicU64,
    busy_rejections: AtomicU64,
    round_latency: LatencyHistogram,
}

/// Recovers the guard from a poisoned mutex: shard state is a plain map,
/// valid regardless of where a holder panicked, so the data is still safe
/// to use.
fn lock_shard(shard: &Shard) -> MutexGuard<'_, Slots> {
    match shard.slots.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Builds a session's state and agents from its spec and seed: the one
/// build sequence that both a create and a revive run.
fn build_session(id: u64, spec: &CreateSessionSpec, seed: u64) -> Result<Box<LiveSession>, String> {
    let parts = build_parts(spec, seed)?;
    let state = SessionState::with_cache(
        parts.table,
        parts.space,
        parts.cache,
        &parts.dirty_rows,
        parts.cfg,
        &parts.trainer,
        &parts.learner,
    )
    .map_err(|e| e.to_string())?;
    Ok(Box::new(LiveSession {
        id,
        seed,
        state,
        trainer: parts.trainer,
        learner: parts.learner,
        last_touch: Instant::now(),
        reported_done: false,
        mae_history: MaeHistory::default(),
    }))
}

impl SessionStore {
    /// Creates an empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        let shards = (0..cfg.shards.max(1))
            .map(|_| Shard {
                slots: Mutex::new(HashMap::new()),
                settled: Condvar::new(),
            })
            .collect();
        Self {
            shards,
            cfg,
            next_id: AtomicU64::new(1),
            live: AtomicUsize::new(0),
            created_total: AtomicU64::new(0),
            revived_total: AtomicU64::new(0),
            evicted_total: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            round_latency: LatencyHistogram::new(),
        }
    }

    /// The server-side per-round label latency histogram (fed by the
    /// serve layer around `label_pending` + `apply_labels`).
    pub fn round_latency(&self) -> &LatencyHistogram {
        &self.round_latency
    }

    fn shard_of(&self, id: u64) -> &Shard {
        // SplitMix-style spread so sequential ids land on distinct shards.
        let mut z = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        &self.shards[(z as usize) % self.shards.len()]
    }

    /// Reserves one in-memory slot, atomically, so concurrent creates and
    /// revives cannot overshoot capacity between check and insert. At
    /// capacity it counts a busy rejection and returns `false`.
    fn reserve(&self) -> bool {
        let reserved = self
            .live
            // ord: AcqRel reservation RMW; Acquire on failure observes releases
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
                if live < self.cfg.capacity {
                    Some(live + 1)
                } else {
                    None
                }
            });
        if reserved.is_err() {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, monotonic diagnostic counter
        }
        reserved.is_ok()
    }

    /// Returns `n` in-memory slots.
    fn release(&self, n: usize) {
        self.live.fetch_sub(n, Ordering::AcqRel); // ord: AcqRel pairs with the reservation RMW
    }

    /// Builds and registers a new session.
    ///
    /// # Errors
    /// [`StoreError::Busy`] at capacity, [`StoreError::Invalid`] when the
    /// spec is rejected.
    pub fn create(&self, spec: &CreateSessionSpec) -> Result<(u64, u64), StoreError> {
        // Reject malformed specs before touching capacity: a bad request
        // should read as bad regardless of load. (The seed does not affect
        // validity, so 0 stands in for the not-yet-derived one.)
        spec.validate().map_err(StoreError::Invalid)?;
        spec.session_config(0)
            .validate()
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
        self.evict_idle();
        if !self.reserve() {
            return Err(StoreError::Busy);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, ids only need uniqueness
        let seed = spec
            .seed
            .unwrap_or_else(|| derive_seed(self.cfg.base_seed, id));
        let mut live = match build_session(id, spec, seed) {
            Ok(live) => live,
            Err(msg) => {
                self.release(1);
                return Err(StoreError::Invalid(msg));
            }
        };
        if let Some(data_dir) = &self.cfg.data_dir {
            let dir = data_dir.join(session_dir_name(id));
            let attach = (|| -> Result<(), DurableError> {
                let journal = SessionJournal::create(&dir, self.cfg.journal)?;
                write_meta(
                    &dir,
                    &SessionMeta {
                        id,
                        seed,
                        spec: spec.clone(),
                    },
                    self.cfg.journal.fsync == FsyncPolicy::Always,
                )?;
                live.state.attach_journal(journal);
                Ok(())
            })();
            if let Err(e) = attach {
                // A directory without a valid meta would fail its revive;
                // clear it so the id slot stays clean.
                let _ = std::fs::remove_dir_all(&dir);
                self.release(1);
                return Err(StoreError::Durability(e.to_string()));
            }
        }
        lock_shard(self.shard_of(id)).insert(id, Slot::Live(live));
        self.created_total.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, monotonic diagnostic counter
        Ok((id, seed))
    }

    /// Runs `f` over the live session `id`, refreshing its idle clock.
    ///
    /// # Errors
    /// [`StoreError::Unknown`] when no live session has this id, a dormant
    /// one included ([`SessionStore::revive`] brings that one back).
    pub fn with_session<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut LiveSession) -> R,
    ) -> Result<R, StoreError> {
        match self.lookup(id, f) {
            Lookup::Live(r) => Ok(r),
            Lookup::Dormant | Lookup::Unknown => Err(StoreError::Unknown(id)),
        }
    }

    /// [`SessionStore::with_session`] that tells a dormant id from an
    /// unknown one. Both come from the one lookup under the one shard lock,
    /// so a live session pays nothing for the distinction.
    pub(crate) fn lookup<R>(&self, id: u64, f: impl FnOnce(&mut LiveSession) -> R) -> Lookup<R> {
        let mut shard = lock_shard(self.shard_of(id));
        match shard.get_mut(&id) {
            Some(Slot::Live(live)) => {
                live.last_touch = Instant::now();
                Lookup::Live(f(live))
            }
            Some(Slot::Dormant(_) | Slot::Moving) => Lookup::Dormant,
            None => Lookup::Unknown,
        }
    }

    /// The shard of `id`, locked once no slot `id` is moving.
    fn settled(&self, id: u64) -> MutexGuard<'_, Slots> {
        let shard = self.shard_of(id);
        let slots = lock_shard(shard);
        let moving = |slots: &mut Slots| matches!(slots.get(&id), Some(Slot::Moving));
        match shard.settled.wait_while(slots, moving) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Drops the session `id`, live or dormant. An explicit close discards
    /// the session's durable directory too — closed sessions are finished,
    /// not recoverable (idle *eviction* is what preserves the directory).
    /// A close that finds the session moving waits until it settles.
    ///
    /// # Errors
    /// [`StoreError::Unknown`] when no session has this id.
    pub fn remove(&self, id: u64) -> Result<(), StoreError> {
        let removed = self.settled(id).remove(&id);
        match removed {
            Some(slot) => {
                if matches!(slot, Slot::Live(_)) {
                    self.release(1);
                }
                if let Some(data_dir) = &self.cfg.data_dir {
                    let _ = std::fs::remove_dir_all(data_dir.join(session_dir_name(id)));
                }
                Ok(())
            }
            None => Err(StoreError::Unknown(id)),
        }
    }

    /// Brings the dormant session `id` back into memory: the create's build
    /// from the directory's `meta.bin`, then the journal's snapshot restore
    /// and WAL replay. A session that is already live is left alone; one
    /// that is moving is waited for first.
    ///
    /// A revive takes an in-memory slot the way a create does. At capacity
    /// the session stays dormant, so the request is retryable. A revive
    /// that fails drops the entry (the directory stays on disk for
    /// inspection) and prints why.
    ///
    /// # Errors
    /// [`StoreError::Busy`] at capacity, [`StoreError::Unknown`] when no
    /// session has this id, [`StoreError::Durability`] when the session
    /// could not be rebuilt from its directory.
    pub fn revive(&self, id: u64) -> Result<(), StoreError> {
        self.evict_idle();
        let dir = {
            let mut slots = self.settled(id);
            let dir = match slots.get(&id) {
                Some(Slot::Dormant(dir)) => dir.clone(),
                // Revived by a request that came first.
                Some(_) => return Ok(()),
                None => return Err(StoreError::Unknown(id)),
            };
            if !self.reserve() {
                return Err(StoreError::Busy);
            }
            slots.insert(id, Slot::Moving);
            dir
        };
        let revived = self.revive_from(id, &dir);
        let shard = self.shard_of(id);
        let mut slots = lock_shard(shard);
        let outcome = match revived {
            Ok(live) => {
                slots.insert(id, Slot::Live(live));
                self.revived_total.fetch_add(1, Ordering::Relaxed); // ord: Relaxed, monotonic diagnostic counter
                Ok(())
            }
            Err(msg) => {
                slots.remove(&id);
                self.release(1);
                eprintln!(
                    "et-serve: revive of session {id} from {} failed: {msg}",
                    dir.display()
                );
                Err(StoreError::Durability(msg))
            }
        };
        drop(slots);
        shard.settled.notify_all();
        outcome
    }

    fn revive_from(&self, id: u64, dir: &std::path::Path) -> Result<Box<LiveSession>, String> {
        let meta = read_meta(dir).map_err(|e| format!("meta: {e}"))?;
        if meta.id != id {
            return Err(format!(
                "meta id {} does not match directory id {id}",
                meta.id
            ));
        }
        let mut live = build_session(id, &meta.spec, meta.seed)?;
        let LiveSession {
            state,
            trainer,
            learner,
            ..
        } = &mut *live;
        recover_session(dir, self.cfg.journal, state, trainer, learner)
            .map_err(|e| e.to_string())?;
        live.reported_done = live.state.is_complete() && live.state.pending().is_none();
        Ok(live)
    }

    /// Flushes one live session to its journal: a fresh snapshot plus a WAL
    /// sync. No-op for sessions without a journal.
    fn flush_live(live: &mut LiveSession) -> Result<(), DurableError> {
        let LiveSession {
            state,
            trainer,
            learner,
            ..
        } = live;
        state.snapshot_now(trainer, learner)?;
        state.sync_journal()
    }

    /// Snapshots and syncs every journaled live session (graceful-shutdown
    /// path). Returns how many sessions flushed cleanly; failures are
    /// counted, not fatal — the WAL already holds every acknowledged label,
    /// so a failed snapshot only costs replay time at the revive.
    pub fn flush_all(&self) -> (usize, usize) {
        let (mut ok, mut failed) = (0usize, 0usize);
        for shard in &self.shards {
            let mut slots = lock_shard(shard);
            for slot in slots.values_mut() {
                let Slot::Live(live) = slot else { continue };
                if live.state.journal().is_none() {
                    continue;
                }
                match Self::flush_live(live) {
                    Ok(()) => ok += 1,
                    Err(e) => {
                        failed += 1;
                        eprintln!("et-serve: flush of session {} failed: {e}", live.id);
                    }
                }
            }
        }
        (ok, failed)
    }

    /// Registers every session directory under the configured `data_dir`
    /// as a dormant session, and moves `next_id` past every id. Call once,
    /// before serving traffic. Nothing is rebuilt here: each session is
    /// revived on its first request, so start-up time does not grow with
    /// the number of sessions on disk.
    pub fn recover_from_disk(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Some(data_dir) = self.cfg.data_dir.clone() else {
            return report;
        };
        let dirs = match list_session_dirs(&data_dir) {
            Ok(d) => d,
            Err(e) => {
                // A missing data dir is a fresh start, not a failure.
                if !data_dir.exists() {
                    return report;
                }
                report.failed.push((data_dir, e.to_string()));
                return report;
            }
        };
        for (id, dir) in dirs {
            // Ids must never collide with registered sessions, even ones
            // whose revive later fails (their directories stay on disk).
            self.next_id.fetch_max(id + 1, Ordering::Relaxed); // ord: Relaxed, ids only need uniqueness
            lock_shard(self.shard_of(id)).insert(id, Slot::Dormant(dir));
            report.registered += 1;
        }
        report
    }

    /// Evicts every session idle longer than the configured timeout.
    /// Called lazily on each create and revive (no background reaper
    /// thread needed: a full store is the only state where eviction
    /// matters).
    ///
    /// Journaled sessions are flushed (snapshot + WAL sync) and then left
    /// dormant, so their next request revives them. The flush runs after
    /// the session's slot has turned `Moving` and the shard's lock is
    /// released, so rounds on the shard's other sessions never wait on an
    /// eviction's fsync. The evicted copy is dropped, closing its WAL,
    /// before the slot turns dormant: a request that arrives meanwhile
    /// waits, and no revive opens the WAL while this copy holds it.
    pub fn evict_idle(&self) -> usize {
        let now = Instant::now();
        let mut evicted = 0usize;
        for shard in &self.shards {
            let mut stale: Vec<Box<LiveSession>> = Vec::new();
            {
                let mut slots = lock_shard(shard);
                let ids: Vec<u64> = slots
                    .iter()
                    .filter(|(_, slot)| {
                        matches!(slot, Slot::Live(live)
                            if now.duration_since(live.last_touch) > self.cfg.idle_timeout)
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in ids {
                    let journaled = matches!(slots.get(&id),
                        Some(Slot::Live(live)) if live.state.journal().is_some());
                    let slot = if journaled {
                        slots.insert(id, Slot::Moving)
                    } else {
                        slots.remove(&id)
                    };
                    if let Some(Slot::Live(live)) = slot {
                        stale.push(live);
                    }
                }
                // Flush in id order: deterministic across HashMap layouts.
                stale.sort_unstable_by_key(|live| live.id);
            }
            if stale.is_empty() {
                continue;
            }
            let n = stale.len();
            let mut dormant: Vec<u64> = Vec::new();
            for mut live in stale {
                if live.state.journal().is_none() {
                    continue;
                }
                if let Err(e) = Self::flush_live(&mut live) {
                    // Evict anyway: the WAL already holds every
                    // acknowledged label, so only replay time (and an
                    // unlogged pending presentation, which replay
                    // re-derives) is at stake.
                    eprintln!(
                        "et-serve: eviction flush of session {} failed: {e}",
                        live.id
                    );
                }
                dormant.push(live.id);
            }
            // The slots are free before a waiting revive can see its
            // session dormant and ask for one.
            self.release(n);
            self.evicted_total.fetch_add(n as u64, Ordering::Relaxed); // ord: Relaxed, monotonic diagnostic counter
            evicted += n;
            if let (false, Some(data_dir)) = (dormant.is_empty(), &self.cfg.data_dir) {
                let mut slots = lock_shard(shard);
                for id in dormant {
                    slots.insert(id, Slot::Dormant(data_dir.join(session_dir_name(id))));
                }
                drop(slots);
                shard.settled.notify_all();
            }
        }
        evicted
    }

    /// Occupancy and counters right now.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            live_sessions: self.live.load(Ordering::Acquire), // ord: Acquire pairs with AcqRel slot updates
            capacity: self.cfg.capacity,
            counters: StoreCounters {
                created_total: self.created_total.load(Ordering::Relaxed), // ord: Relaxed, diagnostic counter snapshot
                revived_total: self.revived_total.load(Ordering::Relaxed), // ord: Relaxed, diagnostic counter snapshot
                evicted_total: self.evicted_total.load(Ordering::Relaxed), // ord: Relaxed, diagnostic counter snapshot
                busy_rejections: self.busy_rejections.load(Ordering::Relaxed), // ord: Relaxed, diagnostic counter snapshot
            },
            round_latency: LatencySummary {
                samples: self.round_latency.samples(),
                p50_ms: self.round_latency.quantile_ms(0.50).unwrap_or(0.0),
                p99_ms: self.round_latency.quantile_ms(0.99).unwrap_or(0.0),
            },
        }
    }

    /// The configured idle timeout.
    pub fn idle_timeout(&self) -> Duration {
        self.cfg.idle_timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> CreateSessionSpec {
        CreateSessionSpec {
            rows: 60,
            iterations: 2,
            ..CreateSessionSpec::default()
        }
    }

    fn quick_store(capacity: usize, idle: Duration) -> SessionStore {
        SessionStore::new(StoreConfig {
            capacity,
            shards: 4,
            idle_timeout: idle,
            base_seed: 11,
            ..StoreConfig::default()
        })
    }

    /// Every quantile of a known sample set spanning nine decades reads
    /// at or above the exact nearest-rank value and within 6.25% of it.
    #[test]
    fn histogram_quantiles_are_within_a_sixteenth_of_exact() {
        let h = LatencyHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        // Log-uniform over 1 ns .. 1 s from a fixed LCG, plus the edges.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let exp = (x >> 11) as f64 / (1u64 << 53) as f64 * 9.0;
            samples.push(10f64.powf(exp) as u64);
        }
        samples.extend([0, 1, 15, 16, 17, 31, 32, u64::MAX]);
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
        }
        samples.sort_unstable();
        assert_eq!(h.samples(), samples.len() as u64);
        for q in [
            0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1.0,
        ] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let got = h.quantile_ms(q).expect("samples recorded") * 1e6;
            assert!(
                got >= exact * (1.0 - 1e-9),
                "q={q}: {got} ns under exact {exact} ns"
            );
            assert!(
                got <= (exact + 1.0) * (1.0 + 1.0 / 16.0) * (1.0 + 1e-9),
                "q={q}: {got} ns over exact {exact} ns by more than 6.25%"
            );
        }
        // Two latencies 10% apart read apart (a log2 bucket merged them).
        let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
        a.record(Duration::from_micros(300));
        b.record(Duration::from_micros(330));
        assert!(b.quantile_ms(0.5) > a.quantile_ms(0.5));
        assert_eq!(LatencyHistogram::new().quantile_ms(0.5), None);
    }

    #[test]
    fn create_touch_remove_lifecycle() {
        let store = quick_store(4, Duration::from_secs(60));
        let (id, seed) = store.create(&quick_spec()).expect("creates");
        assert_eq!(seed, derive_seed(11, id));
        assert_eq!(store.snapshot().live_sessions, 1);
        let iters = store
            .with_session(id, |s| s.state.config().iterations)
            .expect("live");
        assert_eq!(iters, 2);
        store.remove(id).expect("removes");
        assert_eq!(store.snapshot().live_sessions, 0);
        assert!(matches!(
            store.with_session(id, |_| ()),
            Err(StoreError::Unknown(_))
        ));
        assert!(matches!(store.remove(id), Err(StoreError::Unknown(_))));
    }

    /// Threads released together to revive one dormant session all
    /// succeed, and the session is built once: the later ones wait for the
    /// first one's revive and find the session live.
    #[test]
    fn racing_revives_build_the_session_once() {
        const THREADS: usize = 4;
        let dir = std::env::temp_dir().join(format!("et-serve-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            capacity: 4,
            shards: 2,
            data_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let (id, _) = SessionStore::new(cfg.clone())
            .create(&quick_spec())
            .expect("creates");
        let store = SessionStore::new(cfg);
        assert_eq!(store.recover_from_disk().registered, 1);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let revives: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.revive(id)
                    })
                })
                .collect();
            for revive in revives {
                assert_eq!(revive.join().expect("revive thread"), Ok(()));
            }
        });
        let snap = store.snapshot();
        assert_eq!(snap.counters.revived_total, 1);
        assert_eq!(snap.live_sessions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_seed_wins_over_derivation() {
        let store = quick_store(4, Duration::from_secs(60));
        let spec = CreateSessionSpec {
            seed: Some(777),
            ..quick_spec()
        };
        let (_, seed) = store.create(&spec).expect("creates");
        assert_eq!(seed, 777);
    }

    #[test]
    fn capacity_is_enforced() {
        let store = quick_store(2, Duration::from_secs(60));
        let (first, _) = store.create(&quick_spec()).expect("first");
        store.create(&quick_spec()).expect("second");
        assert_eq!(store.create(&quick_spec()), Err(StoreError::Busy));
        assert_eq!(store.snapshot().counters.busy_rejections, 1);
        // Freeing a slot lets the next create through.
        store.remove(first).expect("removes");
        store.create(&quick_spec()).expect("after free");
    }

    #[test]
    fn invalid_spec_does_not_leak_capacity() {
        let store = quick_store(1, Duration::from_secs(60));
        let bad = CreateSessionSpec {
            degree: 2.0,
            ..quick_spec()
        };
        assert!(matches!(store.create(&bad), Err(StoreError::Invalid(_))));
        // The reserved slot was released: a valid create still fits.
        store.create(&quick_spec()).expect("slot was released");
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let store = quick_store(4, Duration::from_millis(20));
        let (id, _) = store.create(&quick_spec()).expect("creates");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(store.evict_idle(), 1);
        assert!(matches!(
            store.with_session(id, |_| ()),
            Err(StoreError::Unknown(_))
        ));
        assert_eq!(store.snapshot().counters.evicted_total, 1);
    }

    /// A journaled session evicted with rounds on it is left dormant in
    /// the same store, and revives with those rounds there or in a fresh
    /// store over the same directory.
    #[test]
    fn evicted_journaled_session_recovers() {
        let dir = std::env::temp_dir().join(format!("et-serve-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            capacity: 4,
            shards: 4,
            idle_timeout: Duration::from_millis(20),
            base_seed: 11,
            data_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let store = SessionStore::new(cfg.clone());
        let (id, _) = store.create(&quick_spec()).expect("creates");
        let done = store
            .with_session(id, |live| {
                let LiveSession {
                    state,
                    trainer,
                    learner,
                    ..
                } = live;
                state.present(learner).expect("present").expect("a round");
                let labels = state.label_pending(trainer).expect("label");
                state
                    .apply_labels(trainer, learner, &labels)
                    .expect("apply");
                state.iterations_done()
            })
            .expect("live");
        assert_eq!(done, 1);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(store.evict_idle(), 1);
        assert_eq!(store.snapshot().live_sessions, 0);
        assert!(matches!(store.lookup(id, |_| ()), Lookup::Dormant));
        store.revive(id).expect("revives in the same store");
        let revived = store
            .with_session(id, |live| live.state.iterations_done())
            .expect("revived");
        assert_eq!(revived, done);
        assert_eq!(store.snapshot().counters.revived_total, 1);
        drop(store);

        let restarted = SessionStore::new(cfg);
        let report = restarted.recover_from_disk();
        assert_eq!(report.registered, 1, "{:?}", report.failed);
        assert_eq!(
            restarted.snapshot().live_sessions,
            0,
            "nothing is built at start"
        );
        restarted.revive(id).expect("revives");
        restarted.revive(id).expect("a live session is left alone");
        let recovered = restarted
            .with_session(id, |live| live.state.iterations_done())
            .expect("recovered");
        assert_eq!(recovered, done);
        assert_eq!(restarted.snapshot().counters.revived_total, 1);
        assert_eq!(restarted.revive(id + 1), Err(StoreError::Unknown(id + 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
