//! The in-process traced pass.
//!
//! It replays a prefix of the wire run's ops through the same public layer
//! functions, in the same order, that the server's dispatch calls:
//! `LineFramer`, `Request::parse_line`, `SessionStore::create` /
//! `with_session` around `SessionState::present`, `label_pending`,
//! `apply_labels`, `maybe_snapshot` and `convergence_so_far`, then
//! `Response::encode`. Spans are taken around those calls from here, kept
//! in memory and written out at the end. Stand-alone calls then split
//! session creation, WAL appends and recovery by layer.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::{
    recover_session, FpTrainer, JournalConfig, Learner, ResponseStrategy, SessionJournal,
    SessionState,
};
use et_data::{inject_errors, split_rows, InjectConfig};
use et_durable::FsyncPolicy;
use et_fd::{Fd, HypothesisSpace, PartitionCache, ViolationIndex};
use et_serve::store::LiveSession;
use et_serve::{
    build_parts, ErrorCode, LineFramer, Request, Response, SessionStore, StoreConfig, StoreError,
    WirePair, DEFAULT_MAX_LINE_BYTES,
};

use crate::server::proc_status_kb;
use crate::stats::{median, Samples};
use crate::workload::{fingerprint, fresh_dir, mix, request_line, Kind, Op, Plan};

const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start and end (ns since the pass began), the
/// span that caused it, and the op (round) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. With `on == false` it reads no clock at all, so the
/// spans-off pass measures the replay without tracing cost.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::with_capacity(16),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        out
    }

    /// Renames the most recent span called `from` (used to mark the
    /// `maybe_snapshot` calls that actually wrote a snapshot).
    fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }
}

/// A label batch as `apply_labels` consumed it, for the stand-alone WAL
/// append pass.
struct LabelBatch {
    id: u64,
    t: u64,
    sample: Vec<usize>,
    labels: Vec<bool>,
}

/// One replay's results.
struct Replay {
    store: SessionStore,
    data_dir: Option<PathBuf>,
    tracer: Tracer,
    /// Replay time outside `create_session` ops: a create takes hundreds
    /// of milliseconds and carries few spans, so its noise would swamp
    /// the tracing overhead.
    elapsed_s: f64,
    compared: usize,
    mismatches: usize,
    batches: Vec<LabelBatch>,
    snapshot_bytes: Vec<u64>,
    rss_growth_kb: f64,
    sessions: usize,
}

fn journal_cfg(plan: &Plan) -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every: plan.snapshot_every.max(4),
    }
}

fn err(code: ErrorCode, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_string(),
    }
}

fn pairs_reply(live: &LiveSession) -> Response {
    let Some(pending) = live.state.pending() else {
        return err(ErrorCode::WrongPhase, "no pending presentation");
    };
    let pairs: Vec<WirePair> = pending
        .pairs()
        .iter()
        .map(|p| WirePair { a: p.a, b: p.b })
        .collect();
    let sample = pending.sample().to_vec();
    let tuples = sample
        .iter()
        .map(|&r| live.state.table().row_texts(r).join(" | "))
        .collect();
    Response::Pairs {
        session: live.id,
        t: live.state.iterations_done(),
        pairs,
        sample,
        tuples,
    }
}

fn done_reply(live: &LiveSession) -> Response {
    let report = live.state.convergence_so_far();
    Response::Done {
        session: live.id,
        iterations_run: live.state.iterations_done(),
        converged_at: report.converged_at,
        final_mae: report.final_mae,
    }
}

/// Runs `f` on session `id` inside a `store.with_session` span, with the
/// closure itself in a `session_fn` span so the lock cost is the
/// difference of the two.
fn on_session(
    store: &SessionStore,
    t: &mut Tracer,
    id: u64,
    f: impl FnOnce(&mut Tracer, &mut LiveSession) -> Response,
) -> Response {
    let out = t.span("store.with_session", |t| {
        store.with_session(id, |live| t.span("session_fn", |t| f(t, live)))
    });
    out.unwrap_or_else(|_| err(ErrorCode::UnknownSession, &format!("no session {id}")))
}

/// Dispatches one request line exactly as the server does for the ops the
/// benchmark sends. `close_session` only checks the session exists and
/// leaves it in the store, so recovery can be measured afterwards.
fn dispatch(
    store: &SessionStore,
    t: &mut Tracer,
    line: &str,
    batches: &mut Vec<LabelBatch>,
    snapshotted: &mut Option<u64>,
) -> Response {
    let request = match t.span("parse", |_| Request::parse_line(line)) {
        Ok(r) => r,
        Err((code, message)) => return Response::Error { code, message },
    };
    match request {
        Request::Create(spec) => match t.span("store.create", |_| store.create(&spec)) {
            Ok((session, seed)) => {
                let details = t.span("store.with_session", |_| {
                    store.with_session(session, |live| {
                        (
                            live.state.table().nrows(),
                            live.state.space().len(),
                            live.state.config().iterations,
                        )
                    })
                });
                match details {
                    Ok((rows, fds, iterations)) => Response::Created {
                        session,
                        rows,
                        fds,
                        iterations,
                        seed,
                    },
                    Err(_) => err(ErrorCode::UnknownSession, "session vanished"),
                }
            }
            Err(StoreError::Busy) => err(ErrorCode::ServerBusy, "session store at capacity"),
            Err(StoreError::Invalid(msg)) => Response::Error {
                code: ErrorCode::InvalidConfig,
                message: msg,
            },
            Err(StoreError::Durability(msg)) => Response::Error {
                code: ErrorCode::Internal,
                message: format!("durable storage refused the session: {msg}"),
            },
            Err(StoreError::Unknown(id)) => {
                err(ErrorCode::UnknownSession, &format!("no session {id}"))
            }
        },
        Request::NextPairs { session } => on_session(store, t, session, |t, live| {
            if live.state.pending().is_some() {
                return pairs_reply(live);
            }
            let outcome = {
                let LiveSession { state, learner, .. } = &mut *live;
                t.span("present", |_| state.present(learner).map(|p| p.is_some()))
            };
            match outcome {
                Ok(true) => pairs_reply(live),
                Ok(false) => {
                    live.reported_done = true;
                    done_reply(live)
                }
                Err(_) => err(ErrorCode::WrongPhase, "labels are pending"),
            }
        }),
        Request::SubmitLabels { session, labels } => on_session(store, t, session, |t, live| {
            if live.state.pending().is_none() {
                return err(
                    ErrorCode::WrongPhase,
                    "no pending presentation; call next_pairs first",
                );
            }
            let id = live.id;
            let LiveSession {
                state,
                trainer,
                learner,
                ..
            } = &mut *live;
            let hosted = match t.span("label_pending", |_| state.label_pending(trainer)) {
                Ok(l) => l,
                Err(e) => return err(ErrorCode::WrongPhase, &e.to_string()),
            };
            let applied = labels.unwrap_or(hosted);
            let round = state.iterations_done() as u64;
            let sample = state
                .pending()
                .map(|p| p.sample().to_vec())
                .unwrap_or_default();
            let applied_metrics = t.span("apply_labels", |_| {
                state.apply_labels(trainer, learner, &applied).cloned()
            });
            match applied_metrics {
                Ok(metrics) => {
                    let wrote =
                        t.span("maybe_snapshot", |_| state.maybe_snapshot(trainer, learner));
                    if matches!(wrote, Ok(true)) {
                        t.rename_last("maybe_snapshot", "snapshot");
                        *snapshotted = Some(id);
                    }
                    if state.journal().is_some() {
                        batches.push(LabelBatch {
                            id,
                            t: round,
                            sample,
                            labels: applied.clone(),
                        });
                    }
                    Response::Labeled {
                        session: id,
                        labels: applied,
                        metrics,
                    }
                }
                Err(e) => err(ErrorCode::WrongPhase, &e.to_string()),
            }
        }),
        Request::Status { session: Some(id) } => on_session(store, t, id, |t, live| {
            let report = t.span("convergence", |_| live.state.convergence_so_far());
            Response::SessionStatus {
                session: live.id,
                iterations_done: live.state.iterations_done(),
                iterations: live.state.config().iterations,
                awaiting_labels: live.state.pending().is_some(),
                mae_series: live.state.metrics().iter().map(|m| m.mae).collect(),
                converged_at: report.converged_at,
                learner_confidences: live.learner.confidences(),
                trainer_confidences: live.trainer.belief().confidences(),
            }
        }),
        Request::Close { session } => match store.with_session(session, |_| ()) {
            Ok(()) => Response::Closed { session },
            Err(_) => err(ErrorCode::UnknownSession, &format!("no session {session}")),
        },
        Request::Status { session: None } | Request::Shutdown => {
            err(ErrorCode::BadRequest, "not used by the benchmark")
        }
    }
}

fn op_span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Create => "op.create",
        Kind::NextPairs => "op.next_pairs",
        Kind::Submit => "op.submit_labels",
        Kind::Status => "op.status",
        Kind::Close => "op.close",
    }
}

fn encode_span_name(resp: &Response) -> &'static str {
    match resp {
        Response::Pairs { .. } => "encode.pairs",
        Response::Labeled { .. } => "encode.labeled",
        Response::SessionStatus { .. } => "encode.status",
        _ => "encode.other",
    }
}

/// Replays `ops` once into a fresh store.
fn replay(
    plan: &Plan,
    ops: &[Op],
    tracing: bool,
    data_dir: Option<PathBuf>,
) -> Result<Replay, String> {
    let rss_before = proc_status_kb(std::process::id(), "VmRSS:");
    let store = SessionStore::new(StoreConfig {
        capacity: 4096,
        data_dir: data_dir.clone(),
        journal: journal_cfg(plan),
        ..StoreConfig::default()
    });
    let mut tracer = Tracer::new(tracing);
    let mut framer = LineFramer::new(DEFAULT_MAX_LINE_BYTES);
    let mut batches = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let (mut compared, mut mismatches) = (0usize, 0usize);
    let mut create_s = 0.0;
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let op_start = (op.kind == Kind::Create).then(Instant::now);
        let spec = plan.session_spec(op.sess as u64);
        let mut bytes = request_line(op.kind, op.id, &spec).into_bytes();
        bytes.push(b'\n');
        tracer.op = i as u32;
        let mut snapshotted = None;
        let encoded = tracer.span(op_span_name(op.kind), |t| {
            let line = t.span("frame", |_| {
                framer.push(&bytes);
                framer.next_line()
            });
            let Ok(Some(line)) = line else {
                return String::new();
            };
            let resp = dispatch(&store, t, &line, &mut batches, &mut snapshotted);
            t.span(encode_span_name(&resp), |_| resp.encode())
        });
        if let Some(t0) = op_start {
            create_s += t0.elapsed().as_secs_f64();
        }
        // The size of a snapshot this op wrote, read off every span.
        if let (Some(dir), Some(id)) = (&data_dir, snapshotted) {
            let session_dir = dir.join(et_serve::session_dir_name(id));
            if let Ok(Some((_, path))) =
                et_durable::snapshot::list(&session_dir).map(|l| l.last().cloned())
            {
                if let Ok(meta) = std::fs::metadata(path) {
                    snapshot_bytes.push(meta.len());
                }
            }
        }
        compared += 1;
        if fingerprint(encoded.as_bytes()) != op.reply_hash {
            mismatches += 1;
            eprintln!(
                "roundbench: in-process reply to op {i} ({:?}, session {}) differs from the wire reply",
                op.kind, op.sess
            );
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64() - create_s;
    let rss_after = proc_status_kb(std::process::id(), "VmRSS:");
    let sessions = ops.iter().filter(|o| o.kind == Kind::Create).count();
    Ok(Replay {
        store,
        data_dir,
        tracer,
        elapsed_s,
        compared,
        mismatches,
        batches,
        snapshot_bytes,
        rss_growth_kb: (rss_after - rss_before).max(0.0),
        sessions,
    })
}

/// Per-layer timings collected from spans and stand-alone calls.
#[derive(Default)]
struct Layers {
    by_name: HashMap<&'static str, Samples>,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        self.by_name.entry(name).or_default().push(v);
    }

    fn get(&mut self, name: &'static str) -> &mut Samples {
        self.by_name.entry(name).or_default()
    }
}

/// Stand-alone WAL appends of the journaled replay's label batches into
/// side journals. Records the append times; returns the bytes each
/// append added.
fn wal_appends(
    plan: &Plan,
    batches: &[LabelBatch],
    dir: &Path,
    layers: &mut Layers,
) -> Result<Samples, String> {
    let mut journals: HashMap<u64, SessionJournal> = HashMap::new();
    let mut bytes = Samples::default();
    for b in batches {
        let session_dir = dir.join(et_serve::session_dir_name(b.id));
        let j = match journals.entry(b.id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(
                SessionJournal::create(&session_dir, journal_cfg(plan))
                    .map_err(|e| format!("side journal: {e}"))?,
            ),
        };
        let wal = session_dir.join("labels.wal");
        let before = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let start = Instant::now();
        j.append_labels_parts(b.t, true, &b.sample, &b.labels)
            .map_err(|e| format!("side append: {e}"))?;
        layers.add(
            "et-durable.wal_append_us",
            start.elapsed().as_secs_f64() * 1e6,
        );
        let after = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        bytes.push(after.saturating_sub(before) as f64);
    }
    Ok(bytes)
}

/// Recovers every session left in the journaled replay's data directory,
/// stand-alone, and checks the result against the live session. Returns
/// (checked, mismatches).
fn recoveries(
    plan: &Plan,
    ops: &[Op],
    replay: &Replay,
    layers: &mut Layers,
) -> Result<(usize, usize), String> {
    let Some(dir) = &replay.data_dir else {
        return Ok((0, 0));
    };
    let start = Instant::now();
    let fresh = SessionStore::new(StoreConfig {
        capacity: 4096,
        data_dir: Some(dir.clone()),
        journal: journal_cfg(plan),
        ..StoreConfig::default()
    });
    let report = fresh.recover_from_disk();
    layers.add(
        "et-serve.recover_from_disk_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    drop(fresh);
    let (mut checked, mut bad) = (0usize, report.failed.len());
    for op in ops.iter().filter(|o| o.kind == Kind::Create) {
        let spec = plan.session_spec(op.sess as u64);
        let seed = spec.seed.unwrap_or(0);
        let parts = build_parts(&spec, seed)?;
        let mut state = SessionState::new(
            parts.table,
            parts.space,
            &parts.dirty_rows,
            parts.cfg,
            &parts.trainer,
            &parts.learner,
        )
        .map_err(|e| e.to_string())?;
        let mut trainer = parts.trainer.with_cache(state.partition_cache().clone());
        let mut learner = parts.learner;
        let _ = state.relation_matrix();
        let session_dir = dir.join(et_serve::session_dir_name(op.id));
        let t0 = Instant::now();
        let outcome = recover_session(
            &session_dir,
            journal_cfg(plan),
            &mut state,
            &mut trainer,
            &mut learner,
        );
        layers.add(
            "et-durable.recover_session_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        checked += 1;
        let same = outcome.is_ok()
            && replay
                .store
                .with_session(op.id, |live| {
                    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    live.state.iterations_done() == state.iterations_done()
                        && bits(live.learner.confidences()) == bits(learner.confidences())
                        && bits(live.trainer.belief().confidences())
                            == bits(trainer.belief().confidences())
                })
                .unwrap_or(false);
        if !same {
            bad += 1;
            eprintln!(
                "roundbench: stand-alone recovery of session {} does not match the live session",
                op.sess
            );
        }
    }
    Ok((checked, bad))
}

/// Builds each replayed session stage by stage, timing every layer, and
/// checks the stage-built table is the one the store built. Returns
/// (checked, mismatches).
fn create_stages(plan: &Plan, ops: &[Op], replay: &Replay, layers: &mut Layers) -> (usize, usize) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut checked, mut bad) = (0usize, 0usize);
    for op in ops.iter().filter(|o| o.kind == Kind::Create) {
        let spec = plan.session_spec(op.sess as u64);
        let seed = spec.seed.unwrap_or(0);
        // The sub-seed streams of `et_serve::build_parts`.
        let t = Instant::now();
        let mut ds = spec.dataset.generate(spec.rows, mix(seed, 1));
        layers.add("et-data.generate_ms", ms(t));
        let fd_specs = ds.exact_fds.clone();
        let t = Instant::now();
        let inj = inject_errors(
            &mut ds.table,
            &fd_specs,
            &[],
            &InjectConfig::with_degree(spec.degree, mix(seed, 2)),
        );
        layers.add("et-data.inject_errors_ms", ms(t));
        let pinned: Vec<Fd> = fd_specs.iter().map(Fd::from_spec).collect();
        let t = Instant::now();
        let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 20, 3, &pinned));
        layers.add("et-fd.space_capped_ms", ms(t));
        let prior_cfg = PriorConfig::weak();
        let trainer = FpTrainer::new(
            build_prior(
                &PriorSpec::Random { seed: mix(seed, 3) },
                &prior_cfg,
                &space,
                &ds.table,
            ),
            EvidenceConfig::default(),
        );
        let learner = Learner::new(
            build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table),
            ResponseStrategy::paper(spec.strategy),
            EvidenceConfig::default(),
            mix(seed, 4),
        );
        let t = Instant::now();
        let cache = PartitionCache::new(&ds.table);
        layers.add("et-fd.partition_cache_ms", ms(t));
        let cfg = spec.session_config(seed);
        let t = Instant::now();
        let (_, test_rows) = split_rows(ds.table.nrows(), cfg.test_frac, cfg.seed);
        let test_index = ViolationIndex::build_subsample(&ds.table, &space, &cache, &test_rows);
        let score_index = ViolationIndex::build_with(&ds.table, &space, &cache);
        layers.add("et-fd.violation_index_ms", ms(t));
        std::hint::black_box((&test_index, &score_index));
        let table_print = table_fingerprint(&ds.table);
        let t = Instant::now();
        let state = SessionState::new(ds.table, space, &inj.dirty_rows, cfg, &trainer, &learner);
        layers.add("et-core.session_new_ms", ms(t));
        let Ok(state) = state else {
            bad += 1;
            continue;
        };
        let t = Instant::now();
        std::hint::black_box(state.relation_matrix());
        layers.add("et-fd.relation_matrix_ms", ms(t));
        checked += 1;
        let store_print = replay
            .store
            .with_session(op.id, |live| table_fingerprint(live.state.table()));
        if store_print != Ok(table_print) {
            bad += 1;
            eprintln!(
                "roundbench: stage-by-stage build of session {} differs from the store's",
                op.sess
            );
        }
    }
    (checked, bad)
}

fn table_fingerprint(table: &et_data::Table) -> u64 {
    let mut h = 0u64;
    for r in 0..table.nrows() {
        h = mix(h, fingerprint(table.row_texts(r).join("|").as_bytes()));
    }
    h
}

/// Wire latencies of the replayed ops, for the derived metrics.
struct WireSubset {
    next_pairs_us: f64,
    submit_us: f64,
    status_us: f64,
    next_pairs_n: usize,
    submit_n: usize,
    status_n: usize,
}

/// The traced pass's outcome.
pub struct TraceOutcome {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub checked: usize,
    pub mismatches: usize,
}

/// The ops the traced pass replays: those of the first `replay_sessions`
/// sessions, in wire order, at most `replay_max_ops` of them.
fn replay_ops(plan: &Plan, ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .filter(|o| o.sess < plan.replay_sessions)
        .take(plan.replay_max_ops)
        .cloned()
        .collect()
}

/// Spans-off and spans-on replays, alternated; `trace_overhead_frac`
/// compares their median elapsed times.
const REPLAY_PAIRS: usize = 3;

pub fn run(plan: &Plan, wire_ops: &[Op], work: &Path) -> Result<TraceOutcome, String> {
    let ops = replay_ops(plan, wire_ops);
    let served_dir = |name: &str| plan.durable.then(|| fresh_dir(work, name)).transpose();
    let mut layers = Layers::default();
    let (mut checked, mut mismatches) = (0usize, 0usize);
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut session_kb = 0.0;
    let mut on = None;
    for pair in 0..REPLAY_PAIRS {
        let off = replay(plan, &ops, false, served_dir("trace-off")?)?;
        if pair == 0 {
            // The process's first replay: later ones reuse freed memory.
            session_kb = off.rss_growth_kb / off.sessions.max(1) as f64;
        }
        off_s.push(off.elapsed_s);
        checked += off.compared;
        mismatches += off.mismatches;
        drop(off);
        // Dropped before the next replay reuses its data directory.
        drop(on.take());
        let r = replay(plan, &ops, true, served_dir("trace-on")?)?;
        on_s.push(r.elapsed_s);
        checked += r.compared;
        mismatches += r.mismatches;
        collect_spans(&r.tracer.spans, &mut layers);
        on = Some(r);
    }
    let on = on.ok_or("no traced replay")?;

    let mut wal_bytes = if plan.durable {
        wal_appends(plan, &on.batches, &fresh_dir(work, "trace-wal")?, &mut layers)?
    } else {
        Samples::default()
    };
    let (c, m) = recoveries(plan, &ops, &on, &mut layers)?;
    checked += c;
    mismatches += m;
    let (c, m) = create_stages(plan, &ops, &on, &mut layers);
    checked += c;
    mismatches += m;
    write_spans(&on.tracer.spans, &work.join("spans.tsv"))?;

    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let timed: [(&'static str, &'static str); 22] = [
        ("et-serve.frame_us", "us"),
        ("et-serve.parse_us", "us"),
        ("et-serve.store_lock_us", "us"),
        ("et-serve.store_create_ms", "ms"),
        ("et-serve.encode_pairs_us", "us"),
        ("et-serve.encode_labeled_us", "us"),
        ("et-serve.encode_status_us", "us"),
        ("et-serve.recover_from_disk_ms", "ms"),
        ("et-core.present_us", "us"),
        ("et-core.label_pending_us", "us"),
        ("et-core.apply_labels_us", "us"),
        ("et-core.convergence_us", "us"),
        ("et-durable.wal_append_us", "us"),
        ("et-durable.snapshot_us", "us"),
        ("et-durable.recover_session_ms", "ms"),
        ("et-data.generate_ms", "ms"),
        ("et-data.inject_errors_ms", "ms"),
        ("et-fd.space_capped_ms", "ms"),
        ("et-fd.partition_cache_ms", "ms"),
        ("et-fd.violation_index_ms", "ms"),
        ("et-core.session_new_ms", "ms"),
        ("et-fd.relation_matrix_ms", "ms"),
    ];
    for (name, unit) in timed {
        let s = layers.get(name);
        out.push((format!("{name}.p50"), s.pct(0.50), unit));
        out.push((format!("{name}.p99"), s.pct(0.99), unit));
        out.push((format!("{name}.n"), s.len() as f64, "count"));
    }

    let mut pairs_bytes = Samples::default();
    let mut status_bytes = Samples::default();
    for op in &ops {
        match op.kind {
            Kind::NextPairs => pairs_bytes.push(op.reply_bytes as f64),
            Kind::Status => status_bytes.push(op.reply_bytes as f64),
            _ => {}
        }
    }
    let mut snap_bytes = Samples::default();
    for &b in &on.snapshot_bytes {
        snap_bytes.push(b as f64);
    }
    out.push((
        "et-serve.reply_bytes.pairs".into(),
        pairs_bytes.median(),
        "bytes",
    ));
    out.push((
        "et-serve.reply_bytes.status".into(),
        status_bytes.median(),
        "bytes",
    ));
    out.push(("et-durable.wal_bytes".into(), wal_bytes.median(), "bytes"));
    out.push((
        "et-durable.snapshot_bytes".into(),
        snap_bytes.median(),
        "bytes",
    ));
    out.push(("et-serve.session_kb".into(), session_kb, "kB"));

    // Derived: what the wire adds to each op, and how much of a round the
    // in-process layers account for. Both sides cover the same ops, on the
    // same single CPU; `.n` is the wire sample count of each difference.
    let wire = wire_subset(&ops);
    for (name, span, wire_us, n) in [
        ("next_pairs", "op.next_pairs", wire.next_pairs_us, wire.next_pairs_n),
        ("submit_labels", "op.submit_labels", wire.submit_us, wire.submit_n),
        ("status", "op.status", wire.status_us, wire.status_n),
    ] {
        let inproc = layers.get(span).median();
        out.push((format!("et-serve.wire_us.{name}"), wire_us - inproc, "us"));
        out.push((format!("et-serve.wire_us.{name}.n"), n as f64, "count"));
    }
    let round_layers: f64 = [
        "et-serve.frame_us",
        "et-serve.parse_us",
        "et-serve.store_lock_us",
    ]
    .iter()
    .map(|n| 2.0 * layers.get(n).median())
    .sum::<f64>()
        + [
            "et-core.present_us",
            "et-serve.encode_pairs_us",
            "et-core.label_pending_us",
            "et-core.apply_labels_us",
            "et-serve.encode_labeled_us",
        ]
        .iter()
        .map(|n| layers.get(n).median())
        .sum::<f64>();
    out.push((
        "round_coverage".into(),
        round_layers / (wire.next_pairs_us + wire.submit_us),
        "frac",
    ));
    out.push((
        "trace_overhead_frac".into(),
        median(&on_s) / median(&off_s) - 1.0,
        "frac",
    ));
    Ok(TraceOutcome {
        metrics: out,
        checked,
        mismatches,
    })
}

fn wire_subset(ops: &[Op]) -> WireSubset {
    let mut np = Samples::default();
    let mut sb = Samples::default();
    let mut st = Samples::default();
    for op in ops.iter().filter(|o| o.measured) {
        match op.kind {
            Kind::NextPairs => np.push(op.ms * 1e3),
            Kind::Submit => sb.push(op.ms * 1e3),
            Kind::Status => st.push(op.ms * 1e3),
            _ => {}
        }
    }
    WireSubset {
        next_pairs_n: np.len(),
        submit_n: sb.len(),
        status_n: st.len(),
        next_pairs_us: np.median(),
        submit_us: sb.median(),
        status_us: st.median(),
    }
}

/// Maps spans to layer samples (µs, or ms for creates).
fn collect_spans(spans: &[Span], layers: &mut Layers) {
    let us = |s: &Span| s.dur_ns() as f64 / 1e3;
    for s in spans {
        match s.name {
            "frame" => layers.add("et-serve.frame_us", us(s)),
            "parse" => layers.add("et-serve.parse_us", us(s)),
            "store.create" => layers.add("et-serve.store_create_ms", us(s) / 1e3),
            "encode.pairs" => layers.add("et-serve.encode_pairs_us", us(s)),
            "encode.labeled" => layers.add("et-serve.encode_labeled_us", us(s)),
            "encode.status" => layers.add("et-serve.encode_status_us", us(s)),
            "present" => layers.add("et-core.present_us", us(s)),
            "label_pending" => layers.add("et-core.label_pending_us", us(s)),
            "apply_labels" => layers.add("et-core.apply_labels_us", us(s)),
            "convergence" => layers.add("et-core.convergence_us", us(s)),
            "snapshot" => layers.add("et-durable.snapshot_us", us(s)),
            "session_fn" if s.parent != NO_PARENT => {
                let outer = &spans[s.parent as usize];
                layers.add(
                    "et-serve.store_lock_us",
                    (outer.dur_ns().saturating_sub(s.dur_ns())) as f64 / 1e3,
                );
            }
            "op.next_pairs" | "op.submit_labels" | "op.status" => layers.add(s.name, us(s)),
            _ => {}
        }
    }
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 48);
    out.push_str("name\tstart_ns\tend_ns\tparent\tround\n");
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        );
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
