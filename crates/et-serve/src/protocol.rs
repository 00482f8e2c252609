//! The wire protocol: newline-delimited JSON, one request and one response
//! per line.
//!
//! Grammar (every line is one compact JSON object):
//!
//! ```text
//! request  := {"op": OP, ...op-specific members}
//! OP       := "create_session" | "next_pairs" | "submit_labels"
//!           | "status" | "close_session" | "shutdown"
//! response := {"ok": true, "reply": KIND, ...} | {"ok": false, "error": CODE, "message": STR}
//! CODE     := "parse_error" | "bad_request" | "unknown_session" | "server_busy"
//!           | "wrong_phase" | "invalid_config" | "shutting_down" | "internal"
//!           | "protocol_error"
//! ```
//!
//! See DESIGN.md §9 for the full per-op member tables and the session
//! state machine.

use et_core::{IterationMetrics, StrategyKind};
use et_data::gen::DatasetName;

use crate::json::{self, Json};
use crate::spec::CreateSessionSpec;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Create a session; missing members take paper-shaped defaults.
    Create(CreateSessionSpec),
    /// Ask the learner for the next presentation of `session`.
    NextPairs {
        /// Target session id.
        session: u64,
    },
    /// Label the pending presentation. `labels: None` delegates to the
    /// hosted simulated annotator (batch-identical); `Some` supplies the
    /// caller's own per-tuple verdicts.
    SubmitLabels {
        /// Target session id.
        session: u64,
        /// One `dirty?` verdict per presented tuple, or `None` to let the
        /// hosted trainer label.
        labels: Option<Vec<bool>>,
    },
    /// Metrics snapshot: one session (`Some`) or the whole server (`None`).
    Status {
        /// Target session id, when asking about one session.
        session: Option<u64>,
    },
    /// Drop a session.
    Close {
        /// Target session id.
        session: u64,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// Typed error codes carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    ParseError,
    /// The request was JSON but not a valid request.
    BadRequest,
    /// The session id names no live session.
    UnknownSession,
    /// The session store is at capacity.
    ServerBusy,
    /// The step was called out of phase (e.g. labels without a pending
    /// presentation).
    WrongPhase,
    /// The create spec or session config was rejected.
    InvalidConfig,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// A server-side failure (e.g. durable storage refused a write). The
    /// session is untouched; the request may be retried.
    Internal,
    /// The byte stream violated the framing contract (e.g. a request line
    /// over the configured maximum length). The server closes the
    /// connection after this reply.
    ProtocolError,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::WrongPhase => "wrong_phase",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
            ErrorCode::ProtocolError => "protocol_error",
        }
    }

    /// Parses the wire spelling.
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        [
            ErrorCode::ParseError,
            ErrorCode::BadRequest,
            ErrorCode::UnknownSession,
            ErrorCode::ServerBusy,
            ErrorCode::WrongPhase,
            ErrorCode::InvalidConfig,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::ProtocolError,
        ]
        .into_iter()
        .find(|c| c.as_str() == name)
    }
}

/// One presented pair, by global row id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePair {
    /// First row.
    pub a: usize,
    /// Second row.
    pub b: usize,
}

/// A server reply.
#[derive(Debug, Clone)]
pub enum Response {
    /// Session created.
    Created {
        /// The new session id.
        session: u64,
        /// Rows in the generated table.
        rows: usize,
        /// Hypotheses in the FD space.
        fds: usize,
        /// Iteration budget.
        iterations: usize,
        /// The seed the session runs under (echoed so callers can
        /// reproduce the run in batch). Exact on the wire: derived seeds
        /// lie below 2^53 and explicit ones are accepted only up to 2^53.
        seed: u64,
    },
    /// The next presentation: pairs to label.
    Pairs {
        /// Session id.
        session: u64,
        /// Iteration number (0-based).
        t: usize,
        /// Selected pairs (global row ids).
        pairs: Vec<WirePair>,
        /// Distinct presented rows, in order; labels align with this.
        sample: Vec<usize>,
        /// Rendered row texts, aligned with `sample`.
        tuples: Vec<String>,
    },
    /// The session has no further presentations.
    Done {
        /// Session id.
        session: u64,
        /// Interactions executed.
        iterations_run: usize,
        /// First stable iteration, when convergence was reached.
        converged_at: Option<usize>,
        /// Final trainer/learner MAE.
        final_mae: f64,
    },
    /// Labels absorbed; the iteration's metrics.
    Labeled {
        /// Session id.
        session: u64,
        /// The labels that were applied.
        labels: Vec<bool>,
        /// The full per-iteration metrics row.
        metrics: IterationMetrics,
    },
    /// Snapshot of one session.
    SessionStatus {
        /// Session id.
        session: u64,
        /// Interactions executed so far.
        iterations_done: usize,
        /// Iteration budget.
        iterations: usize,
        /// Whether a presentation awaits labels.
        awaiting_labels: bool,
        /// MAE curve so far.
        mae_series: Vec<f64>,
        /// Convergence point so far, if any.
        converged_at: Option<usize>,
        /// The learner's current per-FD confidences. f64 encoding is
        /// shortest-round-trip, so these compare *bit-exactly* across the
        /// wire — the crash-recovery harness leans on that.
        learner_confidences: Vec<f64>,
        /// The hosted trainer's current per-FD confidences.
        trainer_confidences: Vec<f64>,
    },
    /// Snapshot of the whole server.
    ServerStatus {
        /// Live sessions.
        live_sessions: usize,
        /// Capacity bound.
        capacity: usize,
        /// Sessions created since start.
        created_total: u64,
        /// Sessions evicted for idleness since start.
        evicted_total: u64,
        /// Sessions refused at capacity since start.
        busy_rejections: u64,
        /// Rounds timed by the server-side latency histogram.
        round_latency_samples: u64,
        /// Estimated p50 of `submit_labels` handling (hosted labeling +
        /// learner update + WAL append), ms; 0 before any sample.
        round_latency_p50_ms: f64,
        /// Estimated p99 of the same, ms; 0 before any sample.
        round_latency_p99_ms: f64,
    },
    /// Session dropped.
    Closed {
        /// Session id.
        session: u64,
    },
    /// Shutdown acknowledged; the listener is draining.
    ShuttingDown,
    /// Typed failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// `(code, message)` mirroring the wire error reply: `ParseError` for
    /// invalid JSON, `BadRequest` for valid JSON that is not a request.
    pub fn parse_line(line: &str) -> Result<Request, (ErrorCode, String)> {
        let v = Json::parse(line).map_err(|e| (ErrorCode::ParseError, e.to_string()))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| (ErrorCode::BadRequest, "missing \"op\" member".to_string()))?;
        match op {
            "create_session" => Ok(Request::Create(parse_create(&v)?)),
            "next_pairs" => Ok(Request::NextPairs {
                session: required_session(&v)?,
            }),
            "submit_labels" => {
                let labels = match v.get("labels") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(item.as_bool().ok_or_else(|| {
                                (
                                    ErrorCode::BadRequest,
                                    "\"labels\" must be an array of booleans".to_string(),
                                )
                            })?);
                        }
                        Some(out)
                    }
                    Some(_) => {
                        return Err((
                            ErrorCode::BadRequest,
                            "\"labels\" must be an array of booleans".to_string(),
                        ))
                    }
                };
                Ok(Request::SubmitLabels {
                    session: required_session(&v)?,
                    labels,
                })
            }
            "status" => Ok(Request::Status {
                session: optional_u64(&v, "session")?,
            }),
            "close_session" => Ok(Request::Close {
                session: required_session(&v)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((ErrorCode::BadRequest, format!("unknown op {other:?}"))),
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Create(spec) => {
                let mut members = vec![
                    ("op", Json::str("create_session")),
                    ("dataset", Json::str(spec.dataset.as_str())),
                    ("rows", Json::Num(spec.rows as f64)),
                    ("degree", Json::Num(spec.degree)),
                    ("strategy", Json::str(spec.strategy.as_str())),
                    ("iterations", Json::Num(spec.iterations as f64)),
                    (
                        "pairs_per_iteration",
                        Json::Num(spec.pairs_per_iteration as f64),
                    ),
                    ("test_frac", Json::Num(spec.test_frac)),
                ];
                if let Some(seed) = spec.seed {
                    members.push(("seed", Json::Num(seed as f64)));
                }
                Json::obj(members)
            }
            Request::NextPairs { session } => Json::obj(vec![
                ("op", Json::str("next_pairs")),
                ("session", Json::Num(*session as f64)),
            ]),
            Request::SubmitLabels { session, labels } => {
                let mut members = vec![
                    ("op", Json::str("submit_labels")),
                    ("session", Json::Num(*session as f64)),
                ];
                if let Some(labels) = labels {
                    members.push((
                        "labels",
                        Json::Arr(labels.iter().map(|&b| Json::Bool(b)).collect()),
                    ));
                }
                Json::obj(members)
            }
            Request::Status { session } => {
                let mut members = vec![("op", Json::str("status"))];
                if let Some(s) = session {
                    members.push(("session", Json::Num(*s as f64)));
                }
                Json::obj(members)
            }
            Request::Close { session } => Json::obj(vec![
                ("op", Json::str("close_session")),
                ("session", Json::Num(*session as f64)),
            ]),
            Request::Shutdown => Json::obj(vec![("op", Json::str("shutdown"))]),
        }
    }
}

fn required_session(v: &Json) -> Result<u64, (ErrorCode, String)> {
    optional_u64(v, "session")?.ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "missing \"session\" member".to_string(),
        )
    })
}

fn optional_u64(v: &Json, key: &str) -> Result<Option<u64>, (ErrorCode, String)> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(member) => member.as_u64().map(Some).ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                format!("{key:?} must be a non-negative integer"),
            )
        }),
    }
}

fn optional_usize(v: &Json, key: &str) -> Result<Option<usize>, (ErrorCode, String)> {
    optional_u64(v, key)?
        .map(|n| {
            usize::try_from(n)
                .map_err(|_| (ErrorCode::BadRequest, format!("{key:?} is out of range")))
        })
        .transpose()
}

fn optional_f64(v: &Json, key: &str) -> Result<Option<f64>, (ErrorCode, String)> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(member) => member
            .as_f64()
            .map(Some)
            .ok_or_else(|| (ErrorCode::BadRequest, format!("{key:?} must be a number"))),
    }
}

fn parse_create(v: &Json) -> Result<CreateSessionSpec, (ErrorCode, String)> {
    let mut spec = CreateSessionSpec::default();
    if let Some(name) = v.get("dataset") {
        let name = name.as_str().ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "\"dataset\" must be a string".to_string(),
            )
        })?;
        spec.dataset = DatasetName::ALL
            .into_iter()
            .find(|d| d.as_str().eq_ignore_ascii_case(name))
            .ok_or_else(|| (ErrorCode::BadRequest, format!("unknown dataset {name:?}")))?;
    }
    if let Some(name) = v.get("strategy") {
        let name = name.as_str().ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "\"strategy\" must be a string".to_string(),
            )
        })?;
        spec.strategy = StrategyKind::from_name(name)
            .ok_or_else(|| (ErrorCode::BadRequest, format!("unknown strategy {name:?}")))?;
    }
    if let Some(rows) = optional_usize(v, "rows")? {
        spec.rows = rows;
    }
    if let Some(degree) = optional_f64(v, "degree")? {
        spec.degree = degree;
    }
    if let Some(iterations) = optional_usize(v, "iterations")? {
        spec.iterations = iterations;
    }
    if let Some(pairs) = optional_usize(v, "pairs_per_iteration")? {
        spec.pairs_per_iteration = pairs;
    }
    if let Some(test_frac) = optional_f64(v, "test_frac")? {
        spec.test_frac = test_frac;
    }
    spec.seed = optional_u64(v, "seed")?;
    Ok(spec)
}

impl Response {
    /// Encodes the response as one wire line (no trailing newline); a
    /// `String` view of [`Response::encode_into`].
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        json::utf8_string(out)
    }

    /// Appends the response as one wire line (no trailing newline) to
    /// `out`, member by member, with no intermediate [`Json`] tree. The
    /// bytes equal the tree encoding of the same reply (the unit tests hold
    /// it to that oracle), so integers print as `Json::Num(n as f64)` does.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Created {
                session,
                rows,
                fds,
                iterations,
                seed,
            } => {
                let mut o = Obj::ok(out, "created");
                o.u64("session", *session);
                o.usize("rows", *rows);
                o.usize("fds", *fds);
                o.usize("iterations", *iterations);
                o.u64("seed", *seed);
                o.close();
            }
            Response::Pairs {
                session,
                t,
                pairs,
                sample,
                tuples,
            } => {
                let mut o = Obj::ok(out, "pairs");
                o.u64("session", *session);
                o.usize("t", *t);
                json::write_array(o.key("pairs"), pairs, |out, p| {
                    json::write_array(out, &[p.a, p.b], |out, &r| write_usize(out, r));
                });
                json::write_array(o.key("sample"), sample, |out, &r| write_usize(out, r));
                json::write_array(o.key("tuples"), tuples, |out, t| json::write_str(out, t));
                o.close();
            }
            Response::Done {
                session,
                iterations_run,
                converged_at,
                final_mae,
            } => {
                let mut o = Obj::ok(out, "done");
                o.u64("session", *session);
                o.usize("iterations_run", *iterations_run);
                o.opt_usize("converged_at", *converged_at);
                o.f64("final_mae", *final_mae);
                o.close();
            }
            Response::Labeled {
                session,
                labels,
                metrics: m,
            } => {
                let mut o = Obj::ok(out, "labeled");
                o.u64("session", *session);
                json::write_array(o.key("labels"), labels, |out, &b| json::write_bool(out, b));
                let mut mo = Obj::open(o.key("metrics"));
                mo.usize("t", m.t);
                mo.f64("mae", m.mae);
                mo.f64("learner_f1", m.learner_f1);
                mo.f64("learner_precision", m.learner_precision);
                mo.f64("learner_recall", m.learner_recall);
                mo.f64("trainer_f1", m.trainer_f1);
                mo.f64("learner_drift", m.learner_drift);
                mo.f64("trainer_drift", m.trainer_drift);
                mo.f64("policy_entropy", m.policy_entropy);
                mo.usize("dirty_labels", m.dirty_labels);
                mo.f64("phi_dirty", m.phi_dirty);
                mo.f64("agreement", m.agreement);
                mo.close();
                o.close();
            }
            Response::SessionStatus {
                session,
                iterations_done,
                iterations,
                awaiting_labels,
                mae_series,
                converged_at,
                learner_confidences,
                trainer_confidences,
            } => StatusReply {
                session: *session,
                iterations_done: *iterations_done,
                iterations: *iterations,
                awaiting_labels: *awaiting_labels,
                converged_at: *converged_at,
                learner_confidences,
                trainer_confidences,
            }
            .encode_with(out, |out| {
                json::write_joined(out, mae_series, |out, &n| json::write_f64(out, n));
            }),
            Response::ServerStatus {
                live_sessions,
                capacity,
                created_total,
                evicted_total,
                busy_rejections,
                round_latency_samples,
                round_latency_p50_ms,
                round_latency_p99_ms,
            } => {
                let mut o = Obj::ok(out, "server_status");
                o.usize("live_sessions", *live_sessions);
                o.usize("capacity", *capacity);
                o.u64("created_total", *created_total);
                o.u64("evicted_total", *evicted_total);
                o.u64("busy_rejections", *busy_rejections);
                o.u64("round_latency_samples", *round_latency_samples);
                o.f64("round_latency_p50_ms", *round_latency_p50_ms);
                o.f64("round_latency_p99_ms", *round_latency_p99_ms);
                o.close();
            }
            Response::Closed { session } => {
                let mut o = Obj::ok(out, "closed");
                o.u64("session", *session);
                o.close();
            }
            Response::ShuttingDown => Obj::ok(out, "shutting_down").close(),
            Response::Error { code, message } => {
                let mut o = Obj::open(out);
                json::write_bool(o.key("ok"), false);
                json::write_str(o.key("error"), code.as_str());
                json::write_str(o.key("message"), message);
                o.close();
            }
        }
    }
}

/// A session's MAE history kept encoded for its `status` replies: the
/// comma-joined JSON numbers of its first `rounds` MAEs, byte for byte the
/// elements of the `mae_series` that `Response::SessionStatus` prints.
/// A session's metrics only grow by appended rounds, so each status
/// encodes just the rounds played since the previous one.
#[derive(Debug, Clone, Default)]
pub struct MaeHistory {
    json: Vec<u8>,
    rounds: usize,
}

impl MaeHistory {
    /// Appends the MAEs of the rounds in `metrics` that the encoding does
    /// not cover yet. `metrics` is the session's whole per-round history,
    /// so it extends the one the previous call saw.
    pub fn catch_up(&mut self, metrics: &[IterationMetrics]) {
        for m in metrics.iter().skip(self.rounds) {
            if self.rounds > 0 {
                self.json.push(b',');
            }
            json::write_f64(&mut self.json, m.mae);
            self.rounds += 1;
        }
    }
}

/// The members of a `session_status` reply besides its MAE series. Its
/// encoder is the one writer of the status layout: `Response::SessionStatus`
/// passes it the whole series to encode, and the server's `status` op a
/// session's [`MaeHistory`] to copy.
#[derive(Debug, Clone, Copy)]
pub struct StatusReply<'a> {
    /// Session id.
    pub session: u64,
    /// Interactions executed so far.
    pub iterations_done: usize,
    /// Iteration budget.
    pub iterations: usize,
    /// Whether a presentation awaits labels.
    pub awaiting_labels: bool,
    /// Convergence point so far, if any.
    pub converged_at: Option<usize>,
    /// The learner's current per-FD confidences.
    pub learner_confidences: &'a [f64],
    /// The hosted trainer's current per-FD confidences.
    pub trainer_confidences: &'a [f64],
}

impl StatusReply<'_> {
    /// Appends the reply as one wire line (no trailing newline) to `out`,
    /// with `history` as its `mae_series`: the bytes of
    /// `Response::SessionStatus` over the same values.
    pub fn encode_into(&self, history: &MaeHistory, out: &mut Vec<u8>) {
        self.encode_with(out, |out| out.extend_from_slice(&history.json));
    }

    /// Appends the reply; `mae_series` writes the series' elements between
    /// the array's brackets.
    fn encode_with(&self, out: &mut Vec<u8>, mae_series: impl FnOnce(&mut Vec<u8>)) {
        let mut o = Obj::ok(out, "session_status");
        o.u64("session", self.session);
        o.usize("iterations_done", self.iterations_done);
        o.usize("iterations", self.iterations);
        json::write_bool(o.key("awaiting_labels"), self.awaiting_labels);
        let out = o.key("mae_series");
        out.push(b'[');
        mae_series(out);
        out.push(b']');
        o.opt_usize("converged_at", self.converged_at);
        o.f64s("learner_confidences", self.learner_confidences);
        o.f64s("trainer_confidences", self.trainer_confidences);
        o.close();
    }
}

/// Wire integers are JSON numbers; `usize` widens to `u64` losslessly.
fn write_usize(out: &mut Vec<u8>, n: usize) {
    json::write_u64(out, n as u64);
}

/// One JSON object being streamed into a byte buffer: members are written
/// in call order, comma-separated, and [`Obj::close`] ends the object.
struct Obj<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl<'a> Obj<'a> {
    fn open(out: &'a mut Vec<u8>) -> Obj<'a> {
        out.push(b'{');
        Obj { out, first: true }
    }

    /// Opens a success reply: `{"ok":true,"reply":KIND`.
    fn ok(out: &'a mut Vec<u8>, kind: &str) -> Obj<'a> {
        let mut o = Obj::open(out);
        json::write_bool(o.key("ok"), true);
        json::write_str(o.key("reply"), kind);
        o
    }

    /// Writes the separator and `"key":`, returning the buffer for the value.
    fn key(&mut self, key: &str) -> &mut Vec<u8> {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        json::write_str(self.out, key);
        self.out.push(b':');
        self.out
    }

    fn u64(&mut self, key: &str, n: u64) {
        json::write_u64(self.key(key), n);
    }

    fn usize(&mut self, key: &str, n: usize) {
        write_usize(self.key(key), n);
    }

    fn f64(&mut self, key: &str, n: f64) {
        json::write_f64(self.key(key), n);
    }

    fn opt_usize(&mut self, key: &str, n: Option<usize>) {
        match n {
            Some(n) => self.usize(key, n),
            None => self.key(key).extend_from_slice(b"null"),
        }
    }

    fn f64s(&mut self, key: &str, ns: &[f64]) {
        json::write_array(self.key(key), ns, |out, &n| json::write_f64(out, n));
    }

    fn close(self) {
        self.out.push(b'}');
    }
}

/// The tree encoding of a reply: the oracle the streaming encoder is
/// tested against byte for byte.
#[cfg(test)]
fn metrics_to_json(m: &IterationMetrics) -> Json {
    Json::obj(vec![
        ("t", Json::Num(m.t as f64)),
        ("mae", Json::Num(m.mae)),
        ("learner_f1", Json::Num(m.learner_f1)),
        ("learner_precision", Json::Num(m.learner_precision)),
        ("learner_recall", Json::Num(m.learner_recall)),
        ("trainer_f1", Json::Num(m.trainer_f1)),
        ("learner_drift", Json::Num(m.learner_drift)),
        ("trainer_drift", Json::Num(m.trainer_drift)),
        ("policy_entropy", Json::Num(m.policy_entropy)),
        ("dirty_labels", Json::Num(m.dirty_labels as f64)),
        ("phi_dirty", Json::Num(m.phi_dirty)),
        ("agreement", Json::Num(m.agreement)),
    ])
}

#[cfg(test)]
fn opt_num(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    }
}

#[cfg(test)]
impl Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Created {
                session,
                rows,
                fds,
                iterations,
                seed,
            } => ok_reply(
                "created",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("rows", Json::Num(*rows as f64)),
                    ("fds", Json::Num(*fds as f64)),
                    ("iterations", Json::Num(*iterations as f64)),
                    ("seed", Json::Num(*seed as f64)),
                ],
            ),
            Response::Pairs {
                session,
                t,
                pairs,
                sample,
                tuples,
            } => ok_reply(
                "pairs",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("t", Json::Num(*t as f64)),
                    (
                        "pairs",
                        Json::Arr(
                            pairs
                                .iter()
                                .map(|p| {
                                    Json::Arr(vec![Json::Num(p.a as f64), Json::Num(p.b as f64)])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "sample",
                        Json::Arr(sample.iter().map(|&r| Json::Num(r as f64)).collect()),
                    ),
                    (
                        "tuples",
                        Json::Arr(tuples.iter().map(|t| Json::str(t)).collect()),
                    ),
                ],
            ),
            Response::Done {
                session,
                iterations_run,
                converged_at,
                final_mae,
            } => ok_reply(
                "done",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("iterations_run", Json::Num(*iterations_run as f64)),
                    ("converged_at", opt_num(*converged_at)),
                    ("final_mae", Json::Num(*final_mae)),
                ],
            ),
            Response::Labeled {
                session,
                labels,
                metrics,
            } => ok_reply(
                "labeled",
                vec![
                    ("session", Json::Num(*session as f64)),
                    (
                        "labels",
                        Json::Arr(labels.iter().map(|&b| Json::Bool(b)).collect()),
                    ),
                    ("metrics", metrics_to_json(metrics)),
                ],
            ),
            Response::SessionStatus {
                session,
                iterations_done,
                iterations,
                awaiting_labels,
                mae_series,
                converged_at,
                learner_confidences,
                trainer_confidences,
            } => ok_reply(
                "session_status",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("iterations_done", Json::Num(*iterations_done as f64)),
                    ("iterations", Json::Num(*iterations as f64)),
                    ("awaiting_labels", Json::Bool(*awaiting_labels)),
                    (
                        "mae_series",
                        Json::Arr(mae_series.iter().map(|&m| Json::Num(m)).collect()),
                    ),
                    ("converged_at", opt_num(*converged_at)),
                    (
                        "learner_confidences",
                        Json::Arr(learner_confidences.iter().map(|&c| Json::Num(c)).collect()),
                    ),
                    (
                        "trainer_confidences",
                        Json::Arr(trainer_confidences.iter().map(|&c| Json::Num(c)).collect()),
                    ),
                ],
            ),
            Response::ServerStatus {
                live_sessions,
                capacity,
                created_total,
                evicted_total,
                busy_rejections,
                round_latency_samples,
                round_latency_p50_ms,
                round_latency_p99_ms,
            } => ok_reply(
                "server_status",
                vec![
                    ("live_sessions", Json::Num(*live_sessions as f64)),
                    ("capacity", Json::Num(*capacity as f64)),
                    ("created_total", Json::Num(*created_total as f64)),
                    ("evicted_total", Json::Num(*evicted_total as f64)),
                    ("busy_rejections", Json::Num(*busy_rejections as f64)),
                    (
                        "round_latency_samples",
                        Json::Num(*round_latency_samples as f64),
                    ),
                    ("round_latency_p50_ms", Json::Num(*round_latency_p50_ms)),
                    ("round_latency_p99_ms", Json::Num(*round_latency_p99_ms)),
                ],
            ),
            Response::Closed { session } => {
                ok_reply("closed", vec![("session", Json::Num(*session as f64))])
            }
            Response::ShuttingDown => ok_reply("shutting_down", vec![]),
            Response::Error { code, message } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(code.as_str())),
                ("message", Json::str(message)),
            ]),
        }
    }
}

#[cfg(test)]
fn ok_reply(kind: &str, rest: Vec<(&str, Json)>) -> Json {
    let mut members = vec![("ok", Json::Bool(true)), ("reply", Json::str(kind))];
    members.extend(rest);
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn create_round_trips_through_parse() {
        let spec = CreateSessionSpec {
            dataset: DatasetName::Hospital,
            rows: 120,
            degree: 0.2,
            strategy: StrategyKind::UncertaintySampling,
            iterations: 12,
            pairs_per_iteration: 4,
            test_frac: 0.25,
            seed: Some(99),
        };
        let line = Request::Create(spec.clone()).to_json().encode();
        let Ok(Request::Create(parsed)) = Request::parse_line(&line) else {
            panic!("create should re-parse: {line}");
        };
        assert_eq!(parsed.dataset.as_str(), spec.dataset.as_str());
        assert_eq!(parsed.rows, spec.rows);
        assert_eq!(parsed.degree, spec.degree);
        assert_eq!(parsed.strategy, spec.strategy);
        assert_eq!(parsed.iterations, spec.iterations);
        assert_eq!(parsed.pairs_per_iteration, spec.pairs_per_iteration);
        assert_eq!(parsed.test_frac, spec.test_frac);
        assert_eq!(parsed.seed, spec.seed);
    }

    #[test]
    fn empty_create_takes_defaults() {
        let Ok(Request::Create(spec)) = Request::parse_line("{\"op\":\"create_session\"}") else {
            panic!("bare create should parse");
        };
        assert_eq!(spec.rows, CreateSessionSpec::default().rows);
        assert_eq!(spec.seed, None);
    }

    #[test]
    fn bad_requests_get_typed_codes() {
        let cases = [
            ("not json", ErrorCode::ParseError),
            ("{}", ErrorCode::BadRequest),
            ("{\"op\":\"fly\"}", ErrorCode::BadRequest),
            ("{\"op\":\"next_pairs\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"next_pairs\",\"session\":-1}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"submit_labels\",\"session\":1,\"labels\":[1]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"create_session\",\"dataset\":\"Mars\"}",
                ErrorCode::BadRequest,
            ),
        ];
        for (line, want) in cases {
            match Request::parse_line(line) {
                Err((code, _)) => assert_eq!(code, want, "{line}"),
                Ok(r) => panic!("{line} should fail, got {r:?}"),
            }
        }
    }

    #[test]
    fn submit_labels_distinguishes_hosted_from_explicit() {
        let Ok(Request::SubmitLabels { labels: None, .. }) =
            Request::parse_line("{\"op\":\"submit_labels\",\"session\":3}")
        else {
            panic!("hosted submit should parse");
        };
        let Ok(Request::SubmitLabels {
            labels: Some(ls), ..
        }) =
            Request::parse_line("{\"op\":\"submit_labels\",\"session\":3,\"labels\":[true,false]}")
        else {
            panic!("explicit submit should parse");
        };
        assert_eq!(ls, vec![true, false]);
    }

    #[test]
    fn responses_encode_as_single_lines() {
        let responses = [
            Response::Created {
                session: 1,
                rows: 100,
                fds: 12,
                iterations: 30,
                seed: 42,
            },
            Response::Done {
                session: 1,
                iterations_run: 30,
                converged_at: None,
                final_mae: 0.03125,
            },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::ServerBusy,
                message: "at capacity".to_string(),
            },
        ];
        for r in responses {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            assert!(crate::json::Json::parse(&line).is_ok(), "{line}");
        }
    }

    /// The codes in wire order, for drawing one at random.
    const CODES: [ErrorCode; 9] = [
        ErrorCode::ParseError,
        ErrorCode::BadRequest,
        ErrorCode::UnknownSession,
        ErrorCode::ServerBusy,
        ErrorCode::WrongPhase,
        ErrorCode::InvalidConfig,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::ProtocolError,
    ];

    /// Integers biased to the edges of exact `f64` conversion.
    fn arb_u64(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4) {
            0 => rng.gen_range(0..1_000u64),
            1 => (1u64 << 53) - 2 + rng.gen_range(0..5u64),
            2 => u64::MAX - rng.gen_range(0..3u64),
            _ => rng.gen(),
        }
    }

    fn arb_usize(rng: &mut StdRng) -> usize {
        arb_u64(rng) as usize
    }

    /// Floats including the non-finite values the wire degrades to `null`.
    fn arb_f64(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..6) {
            0 => {
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324][rng.gen_range(0..5usize)]
            }
            1 => rng.gen::<f64>(),
            2 => arb_u64(rng) as f64,
            3 => rng.gen_range(-1.0..1.0) * 1e300,
            _ => f64::from_bits(rng.gen()),
        }
    }

    /// Strings heavy in what escaping must handle: `"`, `\`, every C0
    /// control, DEL, and multi-byte and astral scalars.
    fn arb_string(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0..12usize);
        (0..len)
            .map(|_| {
                let c = match rng.gen_range(0..7) {
                    0 => u32::from(['"', '\\', '\u{7f}'][rng.gen_range(0..3usize)]),
                    1 => rng.gen_range(0u32..0x20),
                    2 => rng.gen_range(0x20u32..0x7f),
                    3 => rng.gen_range(0x80u32..0x800),
                    4 => rng.gen_range(0x800u32..0xd800),
                    5 => rng.gen_range(0xe000u32..0x1_0000),
                    _ => rng.gen_range(0x1_0000u32..0x11_0000),
                };
                char::from_u32(c).unwrap_or('?')
            })
            .collect()
    }

    fn arb_vec<T>(rng: &mut StdRng, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
        let len = rng.gen_range(0..6usize);
        (0..len).map(|_| item(rng)).collect()
    }

    fn arb_opt(rng: &mut StdRng) -> Option<usize> {
        rng.gen::<bool>().then(|| arb_usize(rng))
    }

    fn arb_metrics(rng: &mut StdRng) -> IterationMetrics {
        IterationMetrics {
            t: arb_usize(rng),
            mae: arb_f64(rng),
            learner_f1: arb_f64(rng),
            learner_precision: arb_f64(rng),
            learner_recall: arb_f64(rng),
            trainer_f1: arb_f64(rng),
            learner_drift: arb_f64(rng),
            trainer_drift: arb_f64(rng),
            policy_entropy: arb_f64(rng),
            dirty_labels: arb_usize(rng),
            phi_dirty: arb_f64(rng),
            agreement: arb_f64(rng),
        }
    }

    /// One random value of every `Response` variant.
    fn arb_responses(rng: &mut StdRng) -> Vec<Response> {
        vec![
            Response::Created {
                session: arb_u64(rng),
                rows: arb_usize(rng),
                fds: arb_usize(rng),
                iterations: arb_usize(rng),
                seed: arb_u64(rng),
            },
            Response::Pairs {
                session: arb_u64(rng),
                t: arb_usize(rng),
                pairs: arb_vec(rng, |rng| WirePair {
                    a: arb_usize(rng),
                    b: arb_usize(rng),
                }),
                sample: arb_vec(rng, arb_usize),
                tuples: arb_vec(rng, arb_string),
            },
            Response::Done {
                session: arb_u64(rng),
                iterations_run: arb_usize(rng),
                converged_at: arb_opt(rng),
                final_mae: arb_f64(rng),
            },
            Response::Labeled {
                session: arb_u64(rng),
                labels: arb_vec(rng, |rng| rng.gen()),
                metrics: arb_metrics(rng),
            },
            Response::SessionStatus {
                session: arb_u64(rng),
                iterations_done: arb_usize(rng),
                iterations: arb_usize(rng),
                awaiting_labels: rng.gen(),
                mae_series: arb_vec(rng, arb_f64),
                converged_at: arb_opt(rng),
                learner_confidences: arb_vec(rng, arb_f64),
                trainer_confidences: arb_vec(rng, arb_f64),
            },
            Response::ServerStatus {
                live_sessions: arb_usize(rng),
                capacity: arb_usize(rng),
                created_total: arb_u64(rng),
                evicted_total: arb_u64(rng),
                busy_rejections: arb_u64(rng),
                round_latency_samples: arb_u64(rng),
                round_latency_p50_ms: arb_f64(rng),
                round_latency_p99_ms: arb_f64(rng),
            },
            Response::Closed {
                session: arb_u64(rng),
            },
            Response::ShuttingDown,
            Response::Error {
                code: CODES[rng.gen_range(0..CODES.len())],
                message: arb_string(rng),
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The streamed bytes equal the tree encoding of the same reply,
        /// and both equal the independent reference encoder's rendering
        /// of the tree; the bytes are appended after what the buffer held.
        #[test]
        fn stream_encoding_equals_tree_oracle(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for r in arb_responses(&mut rng) {
                let want = crate::json::reference_encode(&r.to_json());
                prop_assert_eq!(r.to_json().encode(), want.clone());
                let mut out = b"prefix".to_vec();
                r.encode_into(&mut out);
                prop_assert_eq!(&out[..6], b"prefix");
                prop_assert_eq!(String::from_utf8_lossy(&out[6..]), want.clone(), "{:?}", r);
                prop_assert_eq!(r.encode(), want);
            }
        }

        /// A status written from an `MaeHistory` filled over two
        /// catch-ups, then one more with no new round, equals the encoding
        /// of `Response::SessionStatus` over the whole series.
        #[test]
        fn cached_status_equals_the_full_encode(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mae_series = arb_vec(&mut rng, arb_f64);
            let (learner, trainer) = (arb_vec(&mut rng, arb_f64), arb_vec(&mut rng, arb_f64));
            let reply = StatusReply {
                session: arb_u64(&mut rng),
                iterations_done: arb_usize(&mut rng),
                iterations: arb_usize(&mut rng),
                awaiting_labels: rng.gen(),
                converged_at: arb_opt(&mut rng),
                learner_confidences: &learner,
                trainer_confidences: &trainer,
            };
            let metrics: Vec<IterationMetrics> = mae_series
                .iter()
                .map(|&mae| IterationMetrics { mae, ..arb_metrics(&mut rng) })
                .collect();
            let mut history = MaeHistory::default();
            history.catch_up(&metrics[..rng.gen_range(0..=metrics.len())]);
            history.catch_up(&metrics);
            history.catch_up(&metrics);
            let mut cached = Vec::new();
            reply.encode_into(&history, &mut cached);
            let full = Response::SessionStatus {
                session: reply.session,
                iterations_done: reply.iterations_done,
                iterations: reply.iterations,
                awaiting_labels: reply.awaiting_labels,
                mae_series,
                converged_at: reply.converged_at,
                learner_confidences: learner.clone(),
                trainer_confidences: trainer.clone(),
            };
            prop_assert_eq!(json::utf8_string(cached), full.encode());
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::ParseError,
            ErrorCode::BadRequest,
            ErrorCode::UnknownSession,
            ErrorCode::ServerBusy,
            ErrorCode::WrongPhase,
            ErrorCode::InvalidConfig,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::ProtocolError,
        ] {
            assert_eq!(ErrorCode::from_name(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_name("nope"), None);
    }
}
