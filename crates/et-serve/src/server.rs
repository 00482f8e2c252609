//! The TCP server: one readiness-based transport (Linux epoll) over one
//! routing/domain layer.
//!
//! Each shard owns an epoll instance, an eventfd waker, and a set of
//! non-blocking connections with per-connection read/write buffers
//! (`conn.rs`); once a tick it sweeps them and closes every connection
//! that has completed no request line for the idle timeout. Accepting is
//! sharded via `SO_REUSEPORT` listeners — one per shard, kernel-balanced,
//! for IPv4 and IPv6 binds alike; a bind they cannot make is the error
//! [`spawn`] returns.
//!
//! A shard parses each request line once and runs every request on a live
//! session to completion on its own thread: it calls `dispatch`, queues
//! the reply and moves on to the connection's next line, so a round
//! crosses no thread. A session build goes to a fixed worker pool as the
//! parsed request over a job channel: a `create_session` (session build,
//! idle eviction, journal setup — the one op whose cost grows with the
//! table), and the first request that names a journaled session not in
//! memory. Journaled sessions are registered at start, not rebuilt, and
//! the worker revives such a session before it dispatches the request.
//! The reply comes back over a per-shard completion channel plus a waker
//! edge. While a job is out, its connection's later lines wait, so every
//! connection is answered in request order and event arrival order never
//! reaches session logic (DESIGN.md §16). Shutdown wakes every parked
//! thread; nothing polls a stop flag.
//!
//! Shard count bounds concurrent *rounds*, worker count concurrent
//! *builds*; the sessions held in memory are bounded separately by the
//! store capacity.

#![expect(
    clippy::indexing_slicing,
    reason = "listeners[0] follows reuseport_listeners' n >= 1 contract (shards are clamped to >= 1 at spawn); shard/worker joins index vectors built in the same function"
)]

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
use crate::event::{reuseport_listeners, Event, Poller, Waker};
use crate::protocol::{ErrorCode, Request, Response, WirePair};
use crate::spec::CreateSessionSpec;
use crate::store::{
    LiveSession, Lookup, RecoveryReport, SessionStore, StoreConfig, StoreError, StoreSnapshot,
};

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
    /// Worker threads: the maximum number of concurrent session builds
    /// (`create_session`, and the revive of a journaled session on its
    /// first request). Every other request runs on its event shard.
    pub workers: usize,
    /// Session-store limits and seeding.
    pub store: StoreConfig,
    /// Event shards (each owns an epoll instance and its own
    /// `SO_REUSEPORT` listener, and runs its connections' rounds), so
    /// also the maximum number of concurrent rounds.
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
    ctl: Arc<Ctl>,
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

    /// What start-up registration found under the data directory (all
    /// zeros when the store runs in-memory).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The store's occupancy and lifetime counters right now.
    pub fn store_snapshot(&self) -> StoreSnapshot {
        self.ctx.store.snapshot()
    }

    /// Raises the stop flag and wakes every shard through its eventfd, so
    /// shutdown latency is bounded by one loop iteration rather than a
    /// poll interval. Idempotent; returns immediately — pair with
    /// [`ServerHandle::wait`].
    pub fn shutdown(&self) {
        self.ctl.begin_shutdown();
    }

    /// Blocks until every server thread has exited, then flushes every
    /// journaled session (snapshot + WAL sync) so a clean shutdown leaves
    /// recovery nothing to replay.
    pub fn wait(mut self) {
        for h in self.shard_joins.drain(..) {
            let _ = h.join();
        }
        for h in self.worker_joins.drain(..) {
            let _ = h.join();
        }
        let _ = self.ctx.store.flush_all();
    }
}

/// The routing/domain context shared by the shards and the worker pool —
/// deliberately transport-free so `dispatch` cannot observe event
/// ordering.
struct ServerCtx {
    store: SessionStore,
    stop: Arc<AtomicBool>,
}

/// One job for the worker pool.
enum Job {
    /// A parsed request handed over by shard `shard`: a create, or a
    /// request that names a dormant session. The reply goes back to the
    /// connection `token` on that shard.
    Answer {
        shard: usize,
        token: u64,
        request: Request,
    },
    /// Parks the worker that takes it until the other end of the channel
    /// sends or is dropped: a test's hold on the pool, which orders events
    /// without a clock.
    #[cfg(test)]
    Hold(Receiver<()>),
}

/// One finished job travelling back from a worker to its shard.
struct Completion {
    token: u64,
    /// Encoded reply bytes, newline-terminated.
    payload: Vec<u8>,
}

/// A worker's way back to one shard: the shard's completion channel and
/// the waker that makes its loop drain it.
#[derive(Clone)]
struct ShardLink {
    completions: Sender<Completion>,
    waker: Arc<Waker>,
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
    wakers: Vec<Arc<Waker>>,
}

impl Ctl {
    /// Raises the stop flag and wakes every shard, bounding shutdown
    /// latency by one loop iteration.
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Release); // ord: Release pairs with Acquire loads in the shard loops
        for waker in &self.wakers {
            waker.wake();
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
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    spawn_with(cfg, job_tx, job_rx)
}

/// [`spawn`] over a job channel the caller made: every shard sends on a
/// clone of `job_tx`, and the workers share `job_rx`.
fn spawn_with(
    cfg: ServerConfig,
    job_tx: Sender<Job>,
    job_rx: Receiver<Job>,
) -> std::io::Result<ServerHandle> {
    let shards_n = cfg.shards.max(1);
    // One SO_REUSEPORT listener per shard, kernel-balanced.
    let listeners = reuseport_listeners(&resolve_addr(&cfg.addr)?, shards_n)?;
    let addr = listeners[0].local_addr()?;

    let stop = Arc::new(AtomicBool::new(false));
    let store = SessionStore::new(cfg.store);
    // Register journaled sessions before any shard can serve traffic: each
    // one is revived on its first request, so start-up only lists them.
    let recovery = store.recover_from_disk();
    let ctx = Arc::new(ServerCtx {
        store,
        stop: stop.clone(),
    });

    // Per shard: its listener, a completion channel and a waker. Every
    // worker holds a `ShardLink` to each shard; the shard keeps the rest.
    let mut links = Vec::with_capacity(shards_n);
    let mut shard_ends = Vec::with_capacity(shards_n);
    for listener in listeners {
        let (completions, rx) = mpsc::channel::<Completion>();
        let waker = Arc::new(Waker::new()?);
        links.push(ShardLink {
            completions,
            waker: waker.clone(),
        });
        shard_ends.push((listener, rx, waker));
    }
    let ctl = Arc::new(Ctl {
        stop,
        wakers: links.iter().map(|l| l.waker.clone()).collect(),
    });

    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = cfg.workers.max(1);
    let mut worker_joins = Vec::with_capacity(workers);
    for _ in 0..workers {
        let job_rx = job_rx.clone();
        let ctx = ctx.clone();
        let links = links.clone();
        worker_joins.push(std::thread::spawn(move || {
            worker_pool_loop(&job_rx, &ctx, &links);
        }));
    }

    let mut shard_joins = Vec::with_capacity(shards_n);
    for (index, (listener, completions, waker)) in shard_ends.into_iter().enumerate() {
        let params = ShardParams {
            index,
            listener,
            waker,
            completions,
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
        ctl,
        shard_joins,
        worker_joins,
        ctx,
        recovery,
    })
}

fn worker_pool_loop(job_rx: &Arc<Mutex<Receiver<Job>>>, ctx: &Arc<ServerCtx>, links: &[ShardLink]) {
    loop {
        let next = {
            let guard = lock_or_recover(job_rx);
            // Blocking recv: no polling. The channel disconnects (Err)
            // once every shard has exited, which is the worker's exit
            // signal.
            guard.recv()
        };
        let (shard, token, request) = match next {
            Ok(Job::Answer {
                shard,
                token,
                request,
            }) => (shard, token, request),
            #[cfg(test)]
            Ok(Job::Hold(release)) => {
                let _ = release.recv();
                continue;
            }
            Err(_) => return,
        };
        let mut payload = Vec::new();
        answer(request, ctx, &mut payload);
        if let Some(link) = links.get(shard) {
            // A send fails only once the shard has exited (shutdown); the
            // reply has no connection left to go to.
            let _ = link.completions.send(Completion { token, payload });
            link.waker.wake();
        }
    }
}

/// Appends `response` to `out` as one newline-terminated wire line.
fn encode_line(response: &Response, out: &mut Vec<u8>) {
    response.encode_into(out);
    out.push(b'\n');
}

/// Everything one event shard needs.
struct ShardParams {
    index: usize,
    /// The shard's own `SO_REUSEPORT` listener.
    listener: TcpListener,
    waker: Arc<Waker>,
    /// Finished jobs from the worker pool.
    completions: Receiver<Completion>,
    ctx: Arc<ServerCtx>,
    ctl: Arc<Ctl>,
    job_tx: Sender<Job>,
    idle_timeout: Duration,
    max_line: usize,
}

/// Mutable per-shard state threaded through the helpers below.
struct ShardState {
    poller: Poller,
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
        .add(p.waker.as_raw_fd(), WAKER_TOKEN, true, false)
        .is_err()
        || p.listener.set_nonblocking(true).is_err()
        || poller
            .add(p.listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .is_err()
    {
        p.ctl.begin_shutdown();
        return;
    }

    let mut s = ShardState {
        poller,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
    };
    let mut events: Vec<Event> = Vec::new();
    let tick = sweep_tick(p.idle_timeout);
    let mut next_sweep = Instant::now() + tick;

    loop {
        events.clear();
        let timeout = next_sweep.saturating_duration_since(Instant::now());
        if s.poller.wait(&mut events, Some(timeout)).is_err() {
            p.ctl.begin_shutdown();
            return;
        }
        let now = Instant::now();

        for ev in events.iter().copied() {
            match ev.token {
                LISTENER_TOKEN => accept_burst(&p, &mut s, now),
                WAKER_TOKEN => p.waker.drain(),
                token => conn_event(&p, &mut s, token, ev, now),
            }
        }

        // Completed jobs: queue the reply, then run the connection's
        // requests that waited behind it.
        for completion in p.completions.try_iter() {
            if let Some(conn) = s.conns.get_mut(&completion.token) {
                conn.in_flight = false;
                conn.queue_write(&completion.payload);
                pump_conn(&p, conn);
                if !finish_io(&s.poller, conn) {
                    close_conn(&mut s, completion.token);
                }
            }
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

        if now >= next_sweep {
            sweep_idle(&mut s.conns, now, p.idle_timeout);
            next_sweep = now + tick;
        }
    }
}

/// How often a shard sweeps for idle connections: a sixteenth of the idle
/// timeout and at least 10 ms, so a connection closes within one tick
/// after its timeout. With a zero timeout nothing is swept, and the 60 s
/// tick only paces `epoll_wait`.
fn sweep_tick(idle_timeout: Duration) -> Duration {
    if idle_timeout.is_zero() {
        Duration::from_secs(60)
    } else {
        (idle_timeout / 16).max(Duration::from_millis(10))
    }
}

/// The shard's idle sweep: drops every connection that has completed no
/// request line in the `timeout` up to `now` (a zero timeout drops none).
/// Dropping a [`Conn`] closes its socket, which also takes it off the
/// shard's epoll interest list, since the shard never duplicates a socket.
fn sweep_idle(conns: &mut HashMap<u64, Conn>, now: Instant, timeout: Duration) {
    if !timeout.is_zero() {
        conns.retain(|_, conn| now.duration_since(conn.last_activity) < timeout);
    }
}

fn accept_burst(p: &ShardParams, s: &mut ShardState, now: Instant) {
    loop {
        match p.listener.accept() {
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
}

fn close_conn(s: &mut ShardState, token: u64) {
    if let Some(conn) = s.conns.remove(&token) {
        let _ = s.poller.delete(conn.stream().as_raw_fd());
        // Dropping the Conn closes the socket.
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
                encode_line(&reply, conn.out_buf());
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

/// Answers the connection's buffered request lines in order: each runs to
/// completion here, except a create or a request on a dormant session,
/// which goes to the worker pool and holds the lines behind it until its
/// reply is queued (per-connection, hence per-session, ordering).
fn pump_conn(p: &ShardParams, conn: &mut Conn) {
    while !conn.in_flight {
        let Some(line) = conn.inbox.pop_front() else {
            return;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match Request::parse_line(trimmed) {
            Ok(Request::Create(spec)) => {
                to_worker(p, conn, Request::Create(spec));
                return;
            }
            Ok(request) => request,
            Err((code, message)) => {
                encode_line(&Response::Error { code, message }, conn.out_buf());
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        if let Some(parked) = dispatch(request, &p.ctx, conn.out_buf()) {
            to_worker(p, conn, parked.request);
            return;
        }
        if shutdown {
            // The goodbye is queued first, so the shard's final flush
            // sends it; lines after it are never answered.
            p.ctl.begin_shutdown();
            return;
        }
    }
}

/// Hands `request` to the worker pool and holds the connection's later
/// lines until its reply is queued.
fn to_worker(p: &ShardParams, conn: &mut Conn, request: Request) {
    conn.in_flight = true;
    // A send can only fail once the workers have exited, which only happens
    // during shutdown; the connection is torn down with the shard shortly
    // after.
    let _ = p.job_tx.send(Job::Answer {
        shard: p.index,
        token: conn.token,
        request,
    });
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

/// A request whose session is dormant (on disk only) or moving: it waits
/// for a worker to revive the session ([`answer`]).
struct Parked {
    session: u64,
    request: Request,
}

/// Answers one request: appends its reply to `out` as one
/// newline-terminated wire line. A request that names a dormant session
/// writes nothing and comes back [`Parked`]; it is found dormant only when
/// the live lookup misses, so a live session's round pays nothing for it.
fn dispatch(request: Request, ctx: &ServerCtx, out: &mut Vec<u8>) -> Option<Parked> {
    let response = match request {
        Request::Create(spec) => create(&spec, ctx),
        Request::NextPairs { session } => match ctx.store.lookup(session, next_pairs) {
            Lookup::Live(response) => response,
            Lookup::Dormant => return Some(Parked { session, request }),
            Lookup::Unknown => unknown(session),
        },
        Request::SubmitLabels {
            session,
            mut labels,
        } => {
            let latency = ctx.store.round_latency();
            let found = ctx
                .store
                .lookup(session, |live| submit_labels(live, labels.take(), latency));
            match found {
                Lookup::Live(response) => response,
                Lookup::Dormant => {
                    let request = Request::SubmitLabels { session, labels };
                    return Some(Parked { session, request });
                }
                Lookup::Unknown => unknown(session),
            }
        }
        // Written while the session is still held, straight from its
        // cached MAE history into `out`.
        Request::Status { session: Some(id) } => {
            match ctx.store.lookup(id, |live| live.write_status(out)) {
                Lookup::Live(()) => return None,
                Lookup::Dormant => {
                    return Some(Parked {
                        session: id,
                        request,
                    })
                }
                Lookup::Unknown => unknown(id),
            }
        }
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
        // A dormant session closes without a revive: its directory goes.
        Request::Close { session } => match ctx.store.remove(session) {
            Ok(()) => Response::Closed { session },
            Err(_) => unknown(session),
        },
        // The shard (not this routing layer) begins shutdown once the reply
        // is queued, so the goodbye is never lost to a racing exit.
        Request::Shutdown => Response::ShuttingDown,
    };
    encode_line(&response, out);
    None
}

/// Answers one request on a worker: [`dispatch`], and when the request
/// parks on a dormant session, revive the session and dispatch again.
fn answer(mut request: Request, ctx: &ServerCtx, out: &mut Vec<u8>) {
    while let Some(parked) = dispatch(request, ctx, out) {
        let id = parked.session;
        let refused = match ctx.store.revive(id) {
            Ok(()) => {
                request = parked.request;
                continue;
            }
            Err(StoreError::Busy) => err(ErrorCode::ServerBusy, "session store at capacity"),
            Err(StoreError::Unknown(_)) => unknown(id),
            Err(StoreError::Invalid(msg) | StoreError::Durability(msg)) => Response::Error {
                code: ErrorCode::Internal,
                message: format!("session {id} could not be revived: {msg}"),
            },
        };
        encode_line(&refused, out);
        return;
    }
}

fn create(spec: &CreateSessionSpec, ctx: &ServerCtx) -> Response {
    // ord: Acquire pairs with the shutdown Release store
    if ctx.stop.load(Ordering::Acquire) {
        return err(ErrorCode::ShuttingDown, "server is draining");
    }
    match ctx.store.create(spec) {
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
        Err(StoreError::Unknown(id)) => unknown(id),
    }
}

fn err(code: ErrorCode, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_string(),
    }
}

fn unknown(session: u64) -> Response {
    err(ErrorCode::UnknownSession, &format!("no session {session}"))
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

fn next_pairs(live: &mut LiveSession) -> Response {
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
        let LiveSession { state, learner, .. } = live;
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
    live: &mut LiveSession,
    labels: Option<Vec<bool>>,
    latency: &crate::store::LatencyHistogram,
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
    let LiveSession {
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
            latency.record(round_start.elapsed());
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(store: SessionStore) -> ServerCtx {
        ServerCtx {
            store,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The reply line to `request`, answered as a worker answers it, so a
    /// request on a dormant session revives the session first.
    fn reply(ctx: &ServerCtx, request: Request) -> String {
        let mut out = b"queued\n".to_vec();
        answer(request, ctx, &mut out);
        assert_eq!(
            &out[..7],
            b"queued\n",
            "dispatch appends after queued bytes"
        );
        String::from_utf8(out[7..].to_vec()).expect("utf-8 reply")
    }

    /// The status line of `Response::SessionStatus` over the session's
    /// whole MAE series, encoded from scratch.
    fn full_status(ctx: &ServerCtx, id: u64) -> String {
        let mut line = ctx
            .store
            .with_session(id, |live| {
                Response::SessionStatus {
                    session: live.id,
                    iterations_done: live.state.iterations_done(),
                    iterations: live.state.config().iterations,
                    awaiting_labels: live.state.pending().is_some(),
                    mae_series: live.state.metrics().iter().map(|m| m.mae).collect(),
                    converged_at: live.state.convergence_so_far().converged_at,
                    learner_confidences: live.learner.confidences(),
                    trainer_confidences: live.trainer.belief().confidences(),
                }
                .encode()
            })
            .expect("live session");
        line.push('\n');
        line
    }

    /// A served status, checked byte for byte against the full encode.
    fn status(ctx: &ServerCtx, id: u64) -> String {
        let got = reply(ctx, Request::Status { session: Some(id) });
        assert_eq!(got, full_status(ctx, id));
        got
    }

    fn round(ctx: &ServerCtx, id: u64) {
        let pairs = reply(ctx, Request::NextPairs { session: id });
        assert!(pairs.contains("\"reply\":\"pairs\""), "{pairs}");
        let labeled = reply(
            ctx,
            Request::SubmitLabels {
                session: id,
                labels: None,
            },
        );
        assert!(labeled.contains("\"reply\":\"labeled\""), "{labeled}");
    }

    /// Statuses written from the cached MAE history equal the full encode
    /// of the same state: before any round, twice with no round between,
    /// after every round, mid-round, after rounds with no status between,
    /// and on a session recovered from its journal.
    #[test]
    fn cached_status_bytes_equal_the_full_encode() {
        let dir = std::env::temp_dir().join(format!("et-serve-status-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            capacity: 4,
            base_seed: 7,
            data_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let spec = CreateSessionSpec {
            rows: 60,
            iterations: 12,
            ..CreateSessionSpec::default()
        };
        let live = ctx(SessionStore::new(cfg.clone()));
        let created = reply(&live, Request::Create(spec));
        let id = crate::json::Json::parse(created.trim())
            .ok()
            .and_then(|v| v.get("session").and_then(crate::json::Json::as_u64))
            .expect("created reply names the session");

        let first = status(&live, id);
        assert!(first.contains("\"mae_series\":[]"), "{first}");
        assert_eq!(status(&live, id), first, "no round between");
        for _ in 0..3 {
            round(&live, id);
            status(&live, id);
        }
        reply(&live, Request::NextPairs { session: id });
        status(&live, id);
        round(&live, id);
        for _ in 0..3 {
            round(&live, id);
        }
        let before_crash = status(&live, id);
        assert!(
            before_crash.contains("\"iterations_done\":7"),
            "{before_crash}"
        );
        assert_eq!(status(&live, id), before_crash);

        // A restart over the same directory, with no flush: the recovered
        // session starts with an empty cache and seven rounds to encode.
        drop(live);
        let restarted = ctx(SessionStore::new(cfg));
        let report = restarted.store.recover_from_disk();
        assert_eq!(report.registered, 1, "{:?}", report.failed);
        let recovered = status(&restarted, id);
        assert!(recovered.contains("\"iterations_done\":7"), "{recovered}");
        round(&restarted, id);
        status(&restarted, id);

        let unknown = reply(&restarted, Request::Status { session: Some(999) });
        assert!(
            unknown.contains("\"error\":\"unknown_session\""),
            "{unknown}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("et-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_cfg(dir: &std::path::Path, capacity: usize) -> StoreConfig {
        StoreConfig {
            capacity,
            base_seed: 7,
            data_dir: Some(dir.to_path_buf()),
            ..StoreConfig::default()
        }
    }

    /// `key` of a reply line, as a string.
    fn member(line: &str, key: &str) -> String {
        let v = crate::json::Json::parse(line.trim()).expect("reply is JSON");
        match v.get(key) {
            Some(crate::json::Json::Str(s)) => s.clone(),
            Some(other) => other.encode(),
            None => String::new(),
        }
    }

    fn create_session(ctx: &ServerCtx, spec: CreateSessionSpec) -> u64 {
        let created = reply(ctx, Request::Create(spec));
        member(&created, "session")
            .parse()
            .expect("created names the session")
    }

    fn small_spec(iterations: usize) -> CreateSessionSpec {
        CreateSessionSpec {
            rows: 60,
            iterations,
            ..CreateSessionSpec::default()
        }
    }

    /// A journaled session of every strategy kind, dropped without a flush
    /// after three rounds, then registered and revived in a fresh store and
    /// driven to completion through the dispatch path, ends bit for bit
    /// where an uninterrupted batch run ends: MAE series and both agents'
    /// confidences.
    #[test]
    fn revived_sessions_finish_bit_identical_to_batch() {
        use et_core::StrategyKind;
        let dir = scratch("revive-batch");
        let kinds = [
            StrategyKind::Random,
            StrategyKind::UncertaintySampling,
            StrategyKind::StochasticBestResponse,
            StrategyKind::StochasticUncertainty,
            StrategyKind::Best,
            StrategyKind::ThompsonSampling,
            StrategyKind::CommitteeDisagreement,
            StrategyKind::DensityWeightedUncertainty,
        ];
        for (strategy, seed) in kinds.into_iter().zip(31..) {
            let spec = CreateSessionSpec {
                strategy,
                seed: Some(seed),
                ..small_spec(8)
            };
            let first = ctx(SessionStore::new(durable_cfg(&dir, 4)));
            let id = create_session(&first, spec.clone());
            for _ in 0..3 {
                round(&first, id);
            }
            drop(first);

            let revived = ctx(SessionStore::new(durable_cfg(&dir, 4)));
            assert_eq!(revived.store.recover_from_disk().registered, 1);
            loop {
                let next = reply(&revived, Request::NextPairs { session: id });
                if member(&next, "reply") == "done" {
                    break;
                }
                assert_eq!(member(&next, "reply"), "pairs", "{next}");
                reply(
                    &revived,
                    Request::SubmitLabels {
                        session: id,
                        labels: None,
                    },
                );
            }
            assert_eq!(revived.store.snapshot().counters.revived_total, 1);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let wire = revived
                .store
                .with_session(id, |live| {
                    (
                        bits(live.state.metrics().iter().map(|m| m.mae).collect()),
                        bits(live.learner.confidences()),
                        bits(live.trainer.belief().confidences()),
                    )
                })
                .expect("live after the revive");

            let mut parts = crate::spec::build_parts(&spec, seed).expect("batch parts");
            let batch = et_core::run_session(
                &parts.table,
                parts.space.clone(),
                &parts.dirty_rows,
                parts.cfg.clone(),
                &mut parts.trainer,
                &mut parts.learner,
            );
            let want = (
                bits(batch.metrics.iter().map(|m| m.mae).collect()),
                bits(parts.learner.confidences()),
                bits(parts.trainer.belief().confidences()),
            );
            assert_eq!(wire, want, "{}", strategy.as_str());
            reply(&revived, Request::Close { session: id });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An idle-evicted journaled session answers its next status and
    /// next_pairs in the same store, at the round it was evicted at.
    #[test]
    fn evicted_session_answers_in_the_same_store() {
        let dir = scratch("evict-same");
        let live = ctx(SessionStore::new(durable_cfg(&dir, 4)));
        let id = create_session(&live, small_spec(6));
        round(&live, id);
        round(&live, id);
        let before = status(&live, id);
        assert_eq!(live.store.evict_idle(past_idle()), 1);
        assert_eq!(live.store.snapshot().live_sessions, 0);

        assert_eq!(reply(&live, Request::Status { session: Some(id) }), before);
        let pairs = reply(&live, Request::NextPairs { session: id });
        assert_eq!(member(&pairs, "reply"), "pairs", "{pairs}");
        assert_eq!(member(&pairs, "t"), "2", "{pairs}");
        let snap = live.store.snapshot();
        assert_eq!(snap.counters.revived_total, 1);
        assert_eq!(snap.live_sessions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An instant past the default idle timeout of every session touched
    /// so far, so a test evicts without waiting.
    fn past_idle() -> Instant {
        Instant::now() + StoreConfig::default().idle_timeout + Duration::from_millis(1)
    }

    /// Sessions idle past the timeout are evicted and counted, the
    /// capacity they held is reused, and the evicted id reads
    /// `unknown_session`.
    #[test]
    fn idle_sessions_are_evicted() {
        let live = ctx(SessionStore::new(StoreConfig {
            capacity: 1,
            base_seed: 7,
            ..StoreConfig::default()
        }));
        let spec = CreateSessionSpec {
            seed: Some(9),
            ..small_spec(2)
        };
        let first = create_session(&live, spec.clone());
        let busy = reply(&live, Request::Create(spec.clone()));
        assert_eq!(member(&busy, "error"), "server_busy", "{busy}");

        assert_eq!(live.store.evict_idle(past_idle()), 1);
        let second = create_session(&live, spec);
        assert_ne!(first, second);
        let gone = reply(&live, Request::NextPairs { session: first });
        assert_eq!(member(&gone, "error"), "unknown_session", "{gone}");

        let server = reply(&live, Request::Status { session: None });
        assert_eq!(member(&server, "evicted_total"), "1", "{server}");
        assert_eq!(member(&server, "live_sessions"), "1", "{server}");
    }

    /// Capacity counts sessions in memory: with the one slot held by a
    /// busy live session, a dormant id reads `server_busy` and stays
    /// dormant; once the live session closes, the retry revives it.
    #[test]
    fn a_revive_at_capacity_is_busy_and_retryable() {
        let dir = scratch("revive-busy");
        let first = ctx(SessionStore::new(durable_cfg(&dir, 2)));
        let a = create_session(&first, small_spec(4));
        let b = create_session(&first, small_spec(4));
        round(&first, b);
        drop(first);

        let store = ctx(SessionStore::new(durable_cfg(&dir, 1)));
        assert_eq!(store.store.recover_from_disk().registered, 2);
        round(&store, a);
        let busy = reply(&store, Request::Status { session: Some(b) });
        assert_eq!(member(&busy, "error"), "server_busy", "{busy}");
        assert!(matches!(store.store.lookup(b, |_| ()), Lookup::Dormant));
        assert_eq!(store.store.snapshot().counters.busy_rejections, 1);

        let closed = reply(&store, Request::Close { session: a });
        assert_eq!(member(&closed, "reply"), "closed", "{closed}");
        let revived = reply(&store, Request::Status { session: Some(b) });
        assert_eq!(member(&revived, "iterations_done"), "1", "{revived}");
        assert_eq!(store.store.snapshot().counters.revived_total, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt `meta.bin` does not stop the store from coming up. The
    /// session's first request reads `internal` with the reason, the
    /// directory stays on disk, and the next request reads
    /// `unknown_session`.
    #[test]
    fn a_corrupt_directory_fails_its_first_request_only() {
        let dir = scratch("revive-corrupt");
        let first = ctx(SessionStore::new(durable_cfg(&dir, 2)));
        let id = create_session(&first, small_spec(4));
        drop(first);
        let session_dir = dir.join(crate::durability::session_dir_name(id));
        std::fs::write(session_dir.join("meta.bin"), b"not a meta file").expect("corrupt meta");

        let store = ctx(SessionStore::new(durable_cfg(&dir, 2)));
        assert_eq!(store.store.recover_from_disk().registered, 1);
        let failed = reply(&store, Request::NextPairs { session: id });
        assert_eq!(member(&failed, "error"), "internal", "{failed}");
        assert!(member(&failed, "message").contains("meta"), "{failed}");
        assert!(session_dir.is_dir(), "the directory stays for inspection");
        let gone = reply(&store, Request::Status { session: Some(id) });
        assert_eq!(member(&gone, "error"), "unknown_session", "{gone}");
        assert_eq!(store.store.snapshot().live_sessions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `close` on a dormant session deletes its directory without a revive.
    #[test]
    fn closing_a_dormant_session_deletes_its_directory() {
        let dir = scratch("close-dormant");
        let first = ctx(SessionStore::new(durable_cfg(&dir, 2)));
        let id = create_session(&first, small_spec(4));
        drop(first);
        let session_dir = dir.join(crate::durability::session_dir_name(id));
        assert!(session_dir.is_dir());

        let store = ctx(SessionStore::new(durable_cfg(&dir, 2)));
        assert_eq!(store.store.recover_from_disk().registered, 1);
        let closed = reply(&store, Request::Close { session: id });
        assert_eq!(member(&closed, "reply"), "closed", "{closed}");
        assert!(!session_dir.exists());
        assert_eq!(store.store.snapshot().counters.revived_total, 0);
        let gone = reply(&store, Request::NextPairs { session: id });
        assert_eq!(member(&gone, "error"), "unknown_session", "{gone}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One raw wire connection. Its reads give up after a generous bound,
    /// so a reply that never comes fails the test instead of hanging it;
    /// the bound orders nothing.
    struct Wire {
        writer: TcpStream,
        reader: std::io::BufReader<TcpStream>,
    }

    impl Wire {
        fn connect(addr: &str) -> Self {
            let writer = TcpStream::connect(addr).expect("connect");
            writer
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            let reader = std::io::BufReader::new(writer.try_clone().expect("clone"));
            Self { writer, reader }
        }

        fn send(&mut self, line: &str) {
            use std::io::Write;
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("write request");
        }

        fn read_line(&mut self) -> String {
            use std::io::BufRead;
            let mut line = String::new();
            let _ = self.reader.read_line(&mut line).expect("read reply");
            assert!(!line.is_empty(), "connection closed before the reply");
            line
        }

        fn call(&mut self, line: &str) -> String {
            self.send(line);
            self.read_line()
        }

        /// True when a reply line is waiting, without blocking for one.
        fn has_reply(&mut self) -> bool {
            use std::io::BufRead;
            self.writer.set_nonblocking(true).expect("nonblocking");
            let ready = match self.reader.fill_buf() {
                Ok(buf) => !buf.is_empty(),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(e) => panic!("probe read failed: {e}"),
            };
            self.writer.set_nonblocking(false).expect("blocking");
            ready
        }
    }

    /// Rounds run on the event shard, not the worker pool: with one shard
    /// and one worker, a connection plays its rounds while the only worker
    /// is held, and a create queued behind the hold is answered only after
    /// the release. The hold stands in for a long build, so the order is a
    /// fact the test sets up, not a race against the build's speed.
    #[test]
    fn rounds_finish_while_a_create_holds_the_only_worker() {
        const ROUNDS: usize = 3;
        let cfg = ServerConfig {
            shards: 1,
            workers: 1,
            ..ServerConfig::default()
        };
        let (job_tx, job_rx) = mpsc::channel();
        let hold_tx = job_tx.clone();
        let handle = spawn_with(cfg, job_tx, job_rx).expect("bind");
        let addr = handle.addr().to_string();

        let mut b = Wire::connect(&addr);
        let created = b.call(r#"{"op":"create_session","rows":60,"iterations":4}"#);
        let session = member(&created, "session");

        // Park the only worker, then queue A's create behind it.
        let (release, parked) = mpsc::channel();
        hold_tx.send(Job::Hold(parked)).expect("queue the hold");
        drop(hold_tx);
        let mut a = Wire::connect(&addr);
        a.send(r#"{"op":"create_session","rows":60}"#);

        for round in 0..ROUNDS {
            let pairs = b.call(&format!(r#"{{"op":"next_pairs","session":{session}}}"#));
            assert_eq!(member(&pairs, "reply"), "pairs", "round {round}: {pairs}");
            let labeled = b.call(&format!(r#"{{"op":"submit_labels","session":{session}}}"#));
            assert_eq!(
                member(&labeled, "reply"),
                "labeled",
                "round {round}: {labeled}"
            );
        }
        assert!(!a.has_reply(), "the create ran while the worker was held");

        release.send(()).expect("release the worker");
        let created = a.read_line();
        assert_eq!(member(&created, "reply"), "created", "{created}");

        let bye = b.call(r#"{"op":"shutdown"}"#);
        assert_eq!(member(&bye, "reply"), "shutting_down", "{bye}");
        handle.wait();
    }

    /// The server end of a fresh loopback connection wrapped as a shard
    /// wraps an accepted stream under `token` at `t0`, after `bytes` from
    /// the client are read as the shard reads them at `read_at`; and the
    /// client end.
    fn conn_after(token: u64, bytes: &[u8], t0: Instant, read_at: Instant) -> (Conn, TcpStream) {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        client.write_all(bytes).expect("write");
        let (stream, _) = listener.accept().expect("accept");
        // Block until every byte is readable, so one read takes them all.
        let mut peek = vec![0u8; bytes.len()];
        while stream.peek(&mut peek).expect("peek") < bytes.len() {}
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(stream, token, DEFAULT_MAX_LINE_BYTES, t0);
        conn.read_ready(read_at).expect("read");
        (conn, client)
    }

    /// The sweep closes a connection that got bytes but no newline since
    /// `t0` at `t0 + timeout`, and keeps one that completed a line later.
    /// The instants are made up, so nothing waits for the timeout.
    #[test]
    fn the_sweep_closes_a_dribbling_connection_at_its_timeout() {
        use std::io::Read;
        let timeout = Duration::from_secs(30);
        let t0 = Instant::now();
        let later = t0 + timeout / 2;
        let (dribbler, mut dribbler_client) = conn_after(2, br#"{"op":"sta"#, t0, later);
        let (talker, _talker_client) = conn_after(3, b"{\"op\":\"status\"}\n", t0, later);
        assert_eq!(dribbler.last_activity, t0, "a partial line is no activity");
        assert_eq!(talker.last_activity, later);
        let mut conns = HashMap::from([(2, dribbler), (3, talker)]);

        sweep_idle(&mut conns, t0 + timeout - Duration::from_millis(1), timeout);
        assert_eq!(conns.len(), 2, "nothing is idle before its timeout");
        sweep_idle(&mut conns, t0 + timeout, Duration::ZERO);
        assert_eq!(conns.len(), 2, "a zero timeout closes nothing");
        sweep_idle(&mut conns, t0 + timeout, timeout);
        assert_eq!(conns.keys().copied().collect::<Vec<_>>(), [3]);
        let mut buf = [0u8; 1];
        assert_eq!(dribbler_client.read(&mut buf).expect("eof"), 0, "closed");

        // The ticks: a sixteenth of the timeout, at least 10 ms, and 60 s of
        // pacing with no timeout.
        assert_eq!(
            sweep_tick(Duration::from_secs(3600)),
            Duration::from_secs(225)
        );
        assert_eq!(
            sweep_tick(Duration::from_millis(50)),
            Duration::from_millis(10)
        );
        assert_eq!(sweep_tick(Duration::ZERO), Duration::from_secs(60));
    }
}
