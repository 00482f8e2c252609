//! The TCP server: one readiness-based transport (Linux epoll) over one
//! routing/domain layer.
//!
//! Each shard owns an epoll instance, an eventfd waker, a timer wheel, and
//! a set of non-blocking connections with per-connection read/write
//! buffers (`conn.rs`). Accepting is sharded via `SO_REUSEPORT` listeners —
//! one per shard, kernel-balanced — with a single-acceptor fallback that
//! distributes accepted streams to shards by fd hash; the fallback serves
//! every bind `reuseport_listeners` refuses, IPv6 addresses included. CPU
//! work (session step logic) is dispatched to a fixed worker pool over a
//! job channel; replies come back over per-shard completion queues plus a
//! waker edge. A shard keeps at most **one request in flight per
//! connection**, so per-session ordering is enforced at the completion
//! queue and event arrival order never reaches session logic (DESIGN.md
//! §16). Shutdown wakes every parked thread; nothing polls a stop flag.
//!
//! Worker count bounds concurrent *CPU-bound requests*; concurrent
//! *sessions* are bounded separately by the store capacity.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use et_core::StepError;

use crate::conn::{Conn, FramingError, ReadOutcome, DEFAULT_MAX_LINE_BYTES};
use crate::event::{reuseport_listeners, Event, Poller, TimerWheel, Waker};
use crate::protocol::{ErrorCode, Request, Response, WirePair};
use crate::store::{RecoveryReport, SessionStore, StoreConfig, StoreError};

/// Shard-local token of the shard's own listener.
const LISTENER_TOKEN: u64 = 0;
/// Shard-local token of the shard's eventfd waker.
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection. Tokens are monotonically
/// increasing and never reused, so a completion for a closed connection is
/// recognisably stale and dropped.
const FIRST_CONN_TOKEN: u64 = 2;

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads: the maximum number of concurrent CPU-bound
    /// requests.
    pub workers: usize,
    /// Session-store limits and seeding.
    pub store: StoreConfig,
    /// Event shards (each owns an epoll instance and, where
    /// `SO_REUSEPORT` binds, its own listener).
    pub shards: usize,
    /// Drop a connection that completes no request line for this long.
    /// Dribbled bytes without a newline do **not** refresh the clock, so
    /// this is also the slow-loris bound. Zero disables the timeout.
    pub conn_idle_timeout: Duration,
    /// Per-request-line byte ceiling; longer lines draw a typed
    /// `protocol_error` and the connection is closed.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            store: StoreConfig::default(),
            shards: 2,
            conn_idle_timeout: Duration::from_secs(300),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// A handle to a running server: its bound address and its lifecycle.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    ctl: Arc<Ctl>,
    accept_join: Option<JoinHandle<()>>,
    shard_joins: Vec<JoinHandle<()>>,
    worker_joins: Vec<JoinHandle<()>>,
    ctx: Arc<ServerCtx>,
    recovery: RecoveryReport,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What start-up recovery found under the data directory (all zeros
    /// when the store runs in-memory).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Raises the stop flag and wakes every transport thread (eventfd per
    /// shard, a self-connect for the fallback acceptor), so shutdown
    /// latency is bounded by one loop iteration rather than a poll
    /// interval. Idempotent; returns immediately — pair with
    /// [`ServerHandle::wait`].
    pub fn shutdown(&self) {
        self.ctl.begin_shutdown();
    }

    /// Blocks until every server thread has exited, then flushes every
    /// journaled session (snapshot + WAL sync) so a clean shutdown leaves
    /// recovery nothing to replay.
    pub fn wait(mut self) {
        if let Some(h) = self.accept_join.take() {
            let _ = h.join();
        }
        for h in self.shard_joins.drain(..) {
            let _ = h.join();
        }
        for h in self.worker_joins.drain(..) {
            let _ = h.join();
        }
        let _ = self.ctx.store.flush_all();
    }

    /// True once shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire) // ord: Acquire pairs with the Release store in begin_shutdown
    }
}

/// The routing/domain context shared with the worker pool — deliberately
/// transport-free so `dispatch` cannot observe event ordering.
struct ServerCtx {
    store: SessionStore,
    stop: Arc<AtomicBool>,
}

/// One request handed from a shard to the worker pool.
struct Job {
    shard: usize,
    token: u64,
    line: String,
}

/// One finished request travelling back from a worker to its shard.
struct Completion {
    token: u64,
    /// Encoded reply bytes, newline-terminated.
    payload: Vec<u8>,
    /// The reply was `shutting_down`: the shard begins server shutdown
    /// *after* queueing the reply, so the goodbye is never lost.
    shutdown: bool,
}

/// Per-shard cross-thread state: the waker plus the two queues other
/// threads feed the shard through (worker completions, acceptor handoff).
struct ShardMailbox {
    waker: Waker,
    completions: Mutex<Vec<Completion>>,
    handoff: Mutex<Vec<TcpStream>>,
}

impl ShardMailbox {
    fn new() -> std::io::Result<ShardMailbox> {
        Ok(ShardMailbox {
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            handoff: Mutex::new(Vec::new()),
        })
    }
}

fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shutdown control shared by the handle and the transport threads.
struct Ctl {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    shards: Vec<Arc<ShardMailbox>>,
    /// A fallback acceptor thread is parked in a blocking `accept()`.
    poke_acceptor: bool,
}

impl Ctl {
    /// Raises the stop flag and delivers a wake-up to every thread that
    /// could be parked, bounding shutdown latency by one loop iteration.
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Release); // ord: Release pairs with Acquire loads in shard/accept loops
        for shard in &self.shards {
            shard.waker.wake();
        }
        if self.poke_acceptor {
            // A throwaway connection unblocks the acceptor's blocking
            // accept() so it can observe the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

fn resolve_addr(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "bind address resolved to nothing",
        )
    })
}

/// Binds and starts the server; returns once the listener is live.
///
/// # Errors
/// Propagates bind/epoll/eventfd setup failures.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let shards_n = cfg.shards.max(1);
    let sock_addr = resolve_addr(&cfg.addr)?;

    // Preferred: one SO_REUSEPORT listener per shard, kernel-balanced.
    // Fallback (e.g. IPv6 bind): one acceptor thread hashing streams out.
    let (shard_listeners, fallback_listener, addr) = match reuseport_listeners(&sock_addr, shards_n)
    {
        Ok(listeners) => {
            let addr = listeners[0].local_addr()?;
            (Some(listeners), None, addr)
        }
        Err(_) => {
            let listener = TcpListener::bind(&cfg.addr)?;
            let addr = listener.local_addr()?;
            (None, Some(listener), addr)
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let store = SessionStore::new(cfg.store);
    // Recover journaled sessions before any worker can serve traffic, so a
    // client reconnecting after a crash finds its session already live.
    let recovery = store.recover_from_disk();
    let ctx = Arc::new(ServerCtx {
        store,
        stop: stop.clone(),
    });

    let mut mailboxes = Vec::with_capacity(shards_n);
    for _ in 0..shards_n {
        mailboxes.push(Arc::new(ShardMailbox::new()?));
    }
    let ctl = Arc::new(Ctl {
        stop: stop.clone(),
        addr,
        shards: mailboxes.clone(),
        poke_acceptor: fallback_listener.is_some(),
    });

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = cfg.workers.max(1);
    let mut worker_joins = Vec::with_capacity(workers);
    for _ in 0..workers {
        let job_rx = job_rx.clone();
        let ctx = ctx.clone();
        let mailboxes = mailboxes.clone();
        worker_joins.push(std::thread::spawn(move || {
            worker_pool_loop(&job_rx, &ctx, &mailboxes);
        }));
    }

    let accept_join = fallback_listener.map(|listener| {
        let mailboxes = mailboxes.clone();
        let accept_stop = stop.clone();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                // ord: Acquire sees the flag raised before the wake-up connect
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = conn {
                    let fd = stream.as_raw_fd();
                    let shard = usize::try_from(fd).unwrap_or(0) % mailboxes.len();
                    lock_or_recover(&mailboxes[shard].handoff).push(stream);
                    mailboxes[shard].waker.wake();
                }
            }
        })
    });

    let mut shard_listeners = shard_listeners;
    let mut shard_joins = Vec::with_capacity(shards_n);
    for (index, mailbox) in mailboxes.iter().enumerate() {
        let listener = shard_listeners.as_mut().and_then(|v| {
            if v.is_empty() {
                None
            } else {
                Some(v.remove(0))
            }
        });
        let params = ShardParams {
            index,
            listener,
            mailbox: mailbox.clone(),
            ctx: ctx.clone(),
            ctl: ctl.clone(),
            job_tx: job_tx.clone(),
            idle_timeout: cfg.conn_idle_timeout,
            max_line: cfg.max_line_bytes,
        };
        shard_joins.push(std::thread::spawn(move || shard_loop(params)));
    }
    // The shards own the only senders now: when the last shard exits, the
    // channel disconnects and the blocked workers drain out.
    drop(job_tx);

    Ok(ServerHandle {
        addr,
        stop,
        ctl,
        accept_join,
        shard_joins,
        worker_joins,
        ctx,
        recovery,
    })
}

fn worker_pool_loop(
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    ctx: &Arc<ServerCtx>,
    mailboxes: &[Arc<ShardMailbox>],
) {
    loop {
        let next = {
            let guard = lock_or_recover(job_rx);
            // Blocking recv: no polling. The channel disconnects (Err)
            // once every shard has exited, which is the worker's exit
            // signal.
            guard.recv()
        };
        let Ok(job) = next else { return };
        let response = dispatch(&job.line, ctx);
        let shutdown = matches!(response, Response::ShuttingDown);
        let payload = reply_line(&response);
        if let Some(mailbox) = mailboxes.get(job.shard) {
            lock_or_recover(&mailbox.completions).push(Completion {
                token: job.token,
                payload,
                shutdown,
            });
            mailbox.waker.wake();
        }
    }
}

/// Encodes `response` as one newline-terminated wire line.
fn reply_line(response: &Response) -> Vec<u8> {
    let mut line = Vec::new();
    response.encode_into(&mut line);
    line.push(b'\n');
    line
}

/// Everything one event shard needs.
struct ShardParams {
    index: usize,
    /// The shard's own `SO_REUSEPORT` listener, absent under the
    /// single-acceptor fallback.
    listener: Option<TcpListener>,
    mailbox: Arc<ShardMailbox>,
    ctx: Arc<ServerCtx>,
    ctl: Arc<Ctl>,
    job_tx: Sender<Job>,
    idle_timeout: Duration,
    max_line: usize,
}

/// Mutable per-shard state threaded through the helpers below.
struct ShardState {
    poller: Poller,
    wheel: TimerWheel,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

fn shard_loop(p: ShardParams) {
    let Ok(poller) = Poller::new() else {
        // A shard that cannot poll cannot serve; take the server down
        // loudly rather than silently shrinking capacity.
        p.ctl.begin_shutdown();
        return;
    };
    if poller
        .add(p.mailbox.waker.as_raw_fd(), WAKER_TOKEN, true, false)
        .is_err()
    {
        p.ctl.begin_shutdown();
        return;
    }
    if let Some(listener) = &p.listener {
        if listener.set_nonblocking(true).is_err()
            || poller
                .add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
                .is_err()
        {
            p.ctl.begin_shutdown();
            return;
        }
    }

    // Wheel tick: fine enough that a timeout fires within ~1/16 of the
    // configured idle window; rotation (24 slots) comfortably exceeds it.
    // A zero timeout disables expiry entirely (the wheel still paces the
    // epoll timeout so completions/wakes are never starved).
    let timeouts_enabled = !p.idle_timeout.is_zero();
    let tick = if timeouts_enabled {
        (p.idle_timeout / 16).max(Duration::from_millis(10))
    } else {
        Duration::from_secs(60)
    };
    let mut s = ShardState {
        poller,
        wheel: TimerWheel::new(tick, 24),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut expired: Vec<u64> = Vec::new();

    loop {
        events.clear();
        let timeout = s.wheel.until_next_tick(Instant::now());
        if s.poller.wait(&mut events, Some(timeout)).is_err() {
            p.ctl.begin_shutdown();
            return;
        }
        let now = Instant::now();

        for ev in events.iter().copied() {
            match ev.token {
                LISTENER_TOKEN => accept_burst(&p, &mut s, now),
                WAKER_TOKEN => {
                    p.mailbox.waker.drain();
                    let handoff = std::mem::take(&mut *lock_or_recover(&p.mailbox.handoff));
                    for stream in handoff {
                        register_conn(&p, &mut s, stream, now);
                    }
                }
                token => conn_event(&p, &mut s, token, ev, now),
            }
        }

        // Completions: queue replies, pump the next buffered request, and
        // only then act on a shutdown marker — the goodbye reply is
        // already in the write buffer (and usually on the wire) by then.
        let completions = std::mem::take(&mut *lock_or_recover(&p.mailbox.completions));
        let mut begin_shutdown = false;
        for completion in completions {
            if let Some(conn) = s.conns.get_mut(&completion.token) {
                conn.in_flight = false;
                conn.queue_write(&completion.payload);
                pump_conn(&p, conn);
                if !finish_io(&s.poller, conn) {
                    close_conn(&mut s, completion.token);
                }
            }
            begin_shutdown |= completion.shutdown;
        }
        if begin_shutdown {
            p.ctl.begin_shutdown();
        }

        // ord: Acquire pairs with the Release store in begin_shutdown
        if p.ctx.stop.load(Ordering::Acquire) {
            // Best-effort final flush so queued replies (shutdown acks in
            // particular) reach the kernel before the sockets drop.
            for conn in s.conns.values_mut() {
                let _ = conn.flush_ready();
            }
            return;
        }

        if timeouts_enabled {
            expired.clear();
            s.wheel.expire(now, &mut expired);
            for token in expired.iter().copied() {
                // Lazy cancellation: re-check the real activity clock; a
                // refreshed connection is simply rescheduled.
                let action = match s.conns.get(&token) {
                    Some(conn) => {
                        let idle = now.duration_since(conn.last_activity);
                        if idle >= p.idle_timeout {
                            None
                        } else {
                            Some(p.idle_timeout - idle)
                        }
                    }
                    None => continue,
                };
                match action {
                    None => close_conn(&mut s, token),
                    Some(remaining) => s.wheel.schedule(token, remaining),
                }
            }
        }
    }
}

fn accept_burst(p: &ShardParams, s: &mut ShardState, now: Instant) {
    let Some(listener) = &p.listener else { return };
    loop {
        match listener.accept() {
            Ok((stream, _)) => register_conn(p, s, stream, now),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn register_conn(p: &ShardParams, s: &mut ShardState, stream: TcpStream, now: Instant) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let token = s.next_token;
    s.next_token += 1;
    if s.poller
        .add(stream.as_raw_fd(), token, true, false)
        .is_err()
    {
        return;
    }
    s.conns
        .insert(token, Conn::new(stream, token, p.max_line, now));
    if !p.idle_timeout.is_zero() {
        s.wheel.schedule(token, p.idle_timeout);
    }
}

fn close_conn(s: &mut ShardState, token: u64) {
    if let Some(conn) = s.conns.remove(&token) {
        let _ = s.poller.delete(conn.stream().as_raw_fd());
        // Dropping the Conn closes the socket; the wheel entry (if any)
        // expires harmlessly against the now-absent token.
    }
}

fn conn_event(p: &ShardParams, s: &mut ShardState, token: u64, ev: Event, now: Instant) {
    let Some(conn) = s.conns.get_mut(&token) else {
        return;
    };
    if ev.hangup {
        close_conn(s, token);
        return;
    }
    if ev.readable && !conn.close_after_flush {
        match conn.read_ready(now) {
            Err(_) => {
                close_conn(s, token);
                return;
            }
            Ok(ReadOutcome::Protocol(FramingError::Oversized { max })) => {
                let reply = Response::Error {
                    code: ErrorCode::ProtocolError,
                    message: format!("request line exceeds {max} bytes"),
                };
                conn.queue_write(&reply_line(&reply));
                conn.close_after_flush = true;
            }
            Ok(ReadOutcome::Eof { .. }) => {
                conn.eof = true;
                pump_conn(p, conn);
            }
            Ok(ReadOutcome::Progress { .. }) => pump_conn(p, conn),
        }
    }
    let conn = match s.conns.get_mut(&token) {
        Some(c) => c,
        None => return,
    };
    if !finish_io(&s.poller, conn) {
        close_conn(s, token);
    }
}

/// Hands the next buffered request line to the worker pool, keeping at
/// most one in flight per connection (per-session ordering).
fn pump_conn(p: &ShardParams, conn: &mut Conn) {
    while !conn.in_flight {
        let Some(line) = conn.inbox.pop_front() else {
            return;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        conn.in_flight = true;
        // A send can only fail once the workers have exited, which only
        // happens during shutdown; the connection is torn down with the
        // shard shortly after.
        let _ = p.job_tx.send(Job {
            shard: p.index,
            token: conn.token,
            line: trimmed.to_string(),
        });
    }
}

/// Flushes queued output, maintains write interest, and decides whether
/// the connection lives on. Returns `false` when it must be closed.
fn finish_io(poller: &Poller, conn: &mut Conn) -> bool {
    let flushed = match conn.flush_ready() {
        Ok(f) => f,
        Err(_) => return false,
    };
    if flushed && conn.close_after_flush {
        return false;
    }
    if flushed && conn.eof && !conn.in_flight && conn.inbox.is_empty() {
        // Peer half-closed and everything owed has been answered.
        return false;
    }
    let want_write = conn.has_pending_output();
    if want_write != conn.want_write {
        if poller
            .modify(conn.stream().as_raw_fd(), conn.token, true, want_write)
            .is_err()
        {
            return false;
        }
        conn.want_write = want_write;
    }
    true
}

// ---------------------------------------------------------------------------
// Routing + domain logic. Nothing below this line knows how bytes arrive.
// ---------------------------------------------------------------------------

fn dispatch(line: &str, ctx: &Arc<ServerCtx>) -> Response {
    let request = match Request::parse_line(line) {
        Ok(r) => r,
        Err((code, message)) => return Response::Error { code, message },
    };
    match request {
        Request::Create(spec) => {
            // ord: Acquire pairs with the shutdown Release store
            if ctx.stop.load(Ordering::Acquire) {
                return err(ErrorCode::ShuttingDown, "server is draining");
            }
            match ctx.store.create(&spec) {
                Ok((session, seed)) => {
                    let details = ctx.store.with_session(session, |live| {
                        (
                            live.state.table().nrows(),
                            live.state.space().len(),
                            live.state.config().iterations,
                        )
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
            }
        }
        Request::NextPairs { session } => run_on_session(ctx, session, next_pairs),
        Request::SubmitLabels { session, labels } => {
            let latency = ctx.store.round_latency();
            run_on_session(ctx, session, move |live| {
                submit_labels(live, labels, Some(latency))
            })
        }
        Request::Status { session: Some(id) } => run_on_session(ctx, id, |live| {
            let report = live.state.convergence_so_far();
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
        Request::Status { session: None } => {
            let snap = ctx.store.snapshot();
            Response::ServerStatus {
                live_sessions: snap.live_sessions,
                capacity: snap.capacity,
                created_total: snap.counters.created_total,
                evicted_total: snap.counters.evicted_total,
                busy_rejections: snap.counters.busy_rejections,
                round_latency_samples: snap.round_latency.samples,
                round_latency_p50_ms: snap.round_latency.p50_ms,
                round_latency_p99_ms: snap.round_latency.p99_ms,
            }
        }
        Request::Close { session } => match ctx.store.remove(session) {
            Ok(()) => Response::Closed { session },
            Err(_) => err(ErrorCode::UnknownSession, &format!("no session {session}")),
        },
        // The transport (not this routing layer) begins shutdown once the
        // reply is queued, so the goodbye is never lost to a racing exit.
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn err(code: ErrorCode, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_string(),
    }
}

fn run_on_session(
    ctx: &Arc<ServerCtx>,
    session: u64,
    f: impl FnOnce(&mut crate::store::LiveSession) -> Response,
) -> Response {
    match ctx.store.with_session(session, f) {
        Ok(resp) => resp,
        Err(_) => err(ErrorCode::UnknownSession, &format!("no session {session}")),
    }
}

fn done_reply(live: &crate::store::LiveSession) -> Response {
    let report = live.state.convergence_so_far();
    Response::Done {
        session: live.id,
        iterations_run: live.state.iterations_done(),
        converged_at: report.converged_at,
        final_mae: report.final_mae,
    }
}

fn pairs_reply(live: &crate::store::LiveSession) -> Response {
    let Some(pending) = live.state.pending() else {
        return err(ErrorCode::WrongPhase, "no pending presentation");
    };
    let pairs: Vec<WirePair> = pending
        .pairs()
        .iter()
        .map(|p| WirePair { a: p.a, b: p.b })
        .collect();
    let sample = pending.sample().to_vec();
    let table = live.state.table();
    let tuples = sample.iter().map(|&r| table.joined_row(r, " | ")).collect();
    Response::Pairs {
        session: live.id,
        t: live.state.iterations_done(),
        pairs,
        sample,
        tuples,
    }
}

fn next_pairs(live: &mut crate::store::LiveSession) -> Response {
    // Idempotent: an unanswered presentation is re-served, so a client that
    // lost a reply can simply ask again.
    if live.state.pending().is_some() {
        return pairs_reply(live);
    }
    enum Outcome {
        Presented,
        Complete,
        OutOfPhase,
    }
    let outcome = {
        let crate::store::LiveSession { state, learner, .. } = live;
        match state.present(learner) {
            Ok(Some(_)) => Outcome::Presented,
            Ok(None) => Outcome::Complete,
            Err(_) => Outcome::OutOfPhase,
        }
    };
    match outcome {
        Outcome::Presented => pairs_reply(live),
        Outcome::Complete => {
            live.reported_done = true;
            done_reply(live)
        }
        Outcome::OutOfPhase => err(ErrorCode::WrongPhase, "labels are pending"),
    }
}

fn submit_labels(
    live: &mut crate::store::LiveSession,
    labels: Option<Vec<bool>>,
    latency: Option<&crate::store::LatencyHistogram>,
) -> Response {
    let Some(expected) = live.state.pending().map(|p| p.sample().len()) else {
        return err(
            ErrorCode::WrongPhase,
            "no pending presentation; call next_pairs first",
        );
    };
    // Validate caller-supplied labels *before* the trainer observes the
    // sample, so a rejected submit leaves the session untouched and
    // retryable.
    if let Some(supplied) = &labels {
        if supplied.len() != expected {
            return err(
                ErrorCode::WrongPhase,
                &format!(
                    "expected {expected} labels (one per sample tuple), got {}",
                    supplied.len()
                ),
            );
        }
    }
    let session = live.id;
    let crate::store::LiveSession {
        state,
        trainer,
        learner,
        ..
    } = live;
    // The hosted annotator always observes the presented sample (its belief
    // tracks the data); its labels are used unless the caller supplied
    // their own. The round timer covers exactly that core step — hosted
    // labeling plus the learner/belief update and WAL append — not the
    // cadence snapshot or reply encoding.
    let round_start = std::time::Instant::now();
    let hosted = match state.label_pending(trainer) {
        Ok(l) => l,
        Err(e) => return err(ErrorCode::WrongPhase, &e.to_string()),
    };
    let applied = labels.unwrap_or(hosted);
    match state.apply_labels(trainer, learner, &applied) {
        Ok(metrics) => {
            if let Some(h) = latency {
                h.record(round_start.elapsed());
            }
            let metrics = metrics.clone();
            // Best-effort cadence snapshot: the WAL append inside
            // apply_labels already made the batch durable, so a failed
            // snapshot costs replay time at recovery, never data.
            if let Err(e) = state.maybe_snapshot(trainer, learner) {
                eprintln!("et-serve: snapshot of session {session} failed: {e}");
            }
            Response::Labeled {
                session,
                labels: applied,
                metrics,
            }
        }
        // The journal could not durably record the batch: the presentation
        // stays pending and the submit is retryable. Do NOT acknowledge.
        Err(StepError::Journal(e)) => err(
            ErrorCode::Internal,
            &format!("labels were not durably recorded: {e}"),
        ),
        Err(e) => err(ErrorCode::WrongPhase, &e.to_string()),
    }
}
