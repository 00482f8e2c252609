//! An open-loop load generator for et-serve, event-driven on the client
//! side so one thread can hold hundreds of mostly-idle connections — the
//! same workload shape the server's event transport exists for.
//!
//! Each connection runs the annotation dialogue (`create_session`, then
//! rounds of `next_pairs` + `submit_labels` with hosted labels) against a
//! **fixed-increment virtual schedule**: connection `i` owes round `k` at
//! `start + i/(C·rate) + k/rate`. The schedule advances regardless of
//! whether replies have arrived (open loop), so a server that cannot keep
//! up accumulates backlog instead of silently slowing the offered load —
//! and `next_pairs` latency is measured **from the round's due time**,
//! which makes the histograms coordinated-omission aware. `submit_labels`
//! latency is measured from its send time (it is issued the instant the
//! pairs reply lands). No wall-clock randomness anywhere: reruns offer
//! the identical schedule.
//!
//! Per-op p50/p99/p999 come from the store's log-linear
//! [`LatencyHistogram`], so client-side numbers are bucketed exactly like
//! the server's own round-latency telemetry.

#![expect(
    clippy::indexing_slicing,
    reason = "sim indices come from the poller tokens the harness itself registered (token = index into sims); histogram quantile ranks are clamped before indexing"
)]

use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::conn::{Conn, ReadOutcome};
use crate::event::{Event, Poller};
use crate::json::Json;
use crate::protocol::Request;
use crate::server::{spawn, ServerConfig};
use crate::spec::CreateSessionSpec;
use crate::store::LatencyHistogram;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections, each holding one session.
    pub connections: usize,
    /// Offered rounds per second **per connection**.
    pub rate: f64,
    /// Measurement window.
    pub window: Duration,
    /// Connect/create warm-up before the schedule starts.
    pub grace: Duration,
    /// Session template sent by every connection (the server derives
    /// per-session seeds from its own base seed).
    pub spec: CreateSessionSpec,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 64,
            rate: 2.0,
            window: Duration::from_secs(5),
            grace: Duration::from_secs(1),
            spec: CreateSessionSpec::default(),
        }
    }
}

/// Quantile summary of one operation's latency histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Samples recorded (completed operations).
    pub samples: u64,
    /// Estimated median, ms (bucket upper bound, within 6.25%).
    pub p50_ms: f64,
    /// Estimated 99th percentile, ms.
    pub p99_ms: f64,
    /// Estimated 99.9th percentile, ms.
    pub p999_ms: f64,
}

fn op_stats(h: &LatencyHistogram) -> OpStats {
    OpStats {
        samples: h.samples(),
        p50_ms: h.quantile_ms(0.50).unwrap_or(0.0),
        p99_ms: h.quantile_ms(0.99).unwrap_or(0.0),
        p999_ms: h.quantile_ms(0.999).unwrap_or(0.0),
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections opened.
    pub connections: usize,
    /// Offered rounds per second per connection.
    pub rate_per_conn: f64,
    /// Measurement window, seconds.
    pub window_secs: f64,
    /// Rounds (pairs + labeled) completed inside the window.
    pub rounds_completed: u64,
    /// `rounds_completed / window_secs`.
    pub throughput_rps: f64,
    /// Connections that completed at least one round.
    pub conns_served: usize,
    /// `next_pairs` latency, measured from each round's virtual due time.
    pub next_pairs: OpStats,
    /// `submit_labels` latency, measured from send.
    pub submit: OpStats,
}

enum Phase {
    AwaitCreate,
    Idle,
    AwaitPairs { due: Instant },
    AwaitLabeled { sent: Instant },
    Dead,
}

struct Sim {
    conn: Conn,
    session: u64,
    phase: Phase,
    /// Rounds owed by the schedule but not yet started (server behind).
    pending_dues: VecDeque<Instant>,
    rounds_done: u64,
    served: bool,
}

fn encode_request(req: &Request) -> String {
    let mut line = req.to_json().encode();
    line.push('\n');
    line
}

/// Runs one open-loop load test against a live server.
///
/// # Errors
/// Setup failures (poller creation, connecting the client sockets). A
/// connection dying mid-run is not an error — it just stops contributing.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let connections = cfg.connections.max(1);
    let rate = if cfg.rate > 0.001 { cfg.rate } else { 0.001 };
    let poller = Poller::new()?;
    let create_line = encode_request(&Request::Create(cfg.spec.clone()));

    let mut sims: Vec<Sim> = Vec::with_capacity(connections);
    let setup = Instant::now();
    for i in 0..connections {
        let stream = TcpStream::connect(&cfg.addr)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let token = u64::try_from(i).unwrap_or(u64::MAX);
        poller.add(stream.as_raw_fd(), token, true, false)?;
        let mut conn = Conn::new(stream, token, crate::conn::DEFAULT_MAX_LINE_BYTES, setup);
        conn.queue_write(create_line.as_bytes());
        sims.push(Sim {
            conn,
            session: 0,
            phase: Phase::AwaitCreate,
            pending_dues: VecDeque::new(),
            rounds_done: 0,
            served: false,
        });
    }
    // Kick the create requests out (interest fixes follow in the loop).
    for sim in &mut sims {
        flush_and_set_interest(&poller, &mut sim.conn);
    }

    let start = Instant::now() + cfg.grace;
    let end = start + cfg.window;
    let per_round = Duration::from_secs_f64(1.0 / rate);
    let stagger = Duration::from_secs_f64(1.0 / (rate * connections as f64));

    // The virtual schedule: every connection's round 0, staggered evenly
    // over one round interval. Firing a due immediately schedules the
    // next, so the offered load never depends on server progress.
    let mut schedule: BinaryHeap<std::cmp::Reverse<(Instant, usize)>> =
        BinaryHeap::with_capacity(connections);
    for i in 0..connections {
        schedule.push(std::cmp::Reverse((start + stagger * u32_of(i), i)));
    }

    let next_hist = LatencyHistogram::new();
    let submit_hist = LatencyHistogram::new();
    let mut rounds_completed: u64 = 0;
    let mut events: Vec<Event> = Vec::new();

    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        // Fire every due round: record the debt, advance the schedule.
        while let Some(&std::cmp::Reverse((due, i))) = schedule.peek() {
            if due > now {
                break;
            }
            schedule.pop();
            if due + per_round < end {
                schedule.push(std::cmp::Reverse((due + per_round, i)));
            }
            let sim = &mut sims[i];
            if !matches!(sim.phase, Phase::Dead) {
                sim.pending_dues.push_back(due);
                maybe_start_round(&poller, sim);
            }
        }

        let horizon = schedule
            .peek()
            .map_or(end, |std::cmp::Reverse((due, _))| (*due).min(end));
        let timeout = horizon.saturating_duration_since(now);
        events.clear();
        poller.wait(&mut events, Some(timeout.max(Duration::from_millis(1))))?;
        let now = Instant::now();
        for ev in events.iter().copied() {
            let idx = usize::try_from(ev.token).unwrap_or(0);
            let Some(sim) = sims.get_mut(idx) else {
                continue;
            };
            if matches!(sim.phase, Phase::Dead) {
                continue;
            }
            if ev.hangup {
                kill(&poller, sim);
                continue;
            }
            if ev.readable {
                match sim.conn.read_ready(now) {
                    Ok(ReadOutcome::Progress { .. }) => {}
                    Ok(ReadOutcome::Eof { .. }) | Ok(ReadOutcome::Protocol(_)) | Err(_) => {
                        // Drain whatever full replies arrived, then die.
                        process_replies(
                            sim,
                            now,
                            start,
                            &next_hist,
                            &submit_hist,
                            &mut rounds_completed,
                        );
                        kill(&poller, sim);
                        continue;
                    }
                }
                process_replies(
                    sim,
                    now,
                    start,
                    &next_hist,
                    &submit_hist,
                    &mut rounds_completed,
                );
                maybe_start_round(&poller, sim);
            }
            flush_and_set_interest(&poller, &mut sim.conn);
        }
    }

    let window_secs = cfg.window.as_secs_f64();
    Ok(LoadReport {
        connections,
        rate_per_conn: rate,
        window_secs,
        rounds_completed,
        throughput_rps: rounds_completed as f64 / window_secs,
        conns_served: sims.iter().filter(|s| s.served).count(),
        next_pairs: op_stats(&next_hist),
        submit: op_stats(&submit_hist),
    })
}

/// A load run against a fresh in-process server.
#[derive(Debug, Clone)]
pub struct InProcessLoad {
    /// Concurrent connections, each holding one session.
    pub connections: usize,
    /// Offered rounds per second **per connection**.
    pub rate: f64,
    /// Measurement window.
    pub window: Duration,
    /// Server worker threads.
    pub workers: usize,
    /// Rows per session table.
    pub rows: usize,
    /// Server base seed (per-session seeds derive from it).
    pub base_seed: u64,
}

/// Spawns a server sized for the run (store capacity `connections + 8`),
/// drives it with [`run_load`], then shuts it down and waits for it.
///
/// # Errors
/// Server bind/setup failures and [`run_load`] setup failures.
pub fn run_in_process(cfg: &InProcessLoad) -> io::Result<LoadReport> {
    let mut server = ServerConfig {
        workers: cfg.workers,
        ..ServerConfig::default()
    };
    server.store.capacity = cfg.connections + 8;
    server.store.base_seed = cfg.base_seed;
    let handle = spawn(server)?;
    // Size sessions so they cannot run out of iterations mid-window.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rate * window is a configured per-connection round budget in the low hundreds (rate <= 2, window <= 5s)"
    )]
    let iterations = (cfg.rate * cfg.window.as_secs_f64()).ceil() as usize + 16;
    let load = LoadConfig {
        addr: handle.addr().to_string(),
        connections: cfg.connections,
        rate: cfg.rate,
        window: cfg.window,
        grace: Duration::from_secs(1),
        spec: CreateSessionSpec {
            rows: cfg.rows,
            iterations,
            ..CreateSessionSpec::default()
        },
    };
    let report = run_load(&load);
    handle.shutdown();
    handle.wait();
    report
}

fn u32_of(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

fn kill(poller: &Poller, sim: &mut Sim) {
    let _ = poller.delete(sim.conn.stream().as_raw_fd());
    sim.phase = Phase::Dead;
}

/// Starts the oldest owed round if the connection is idle with a session.
fn maybe_start_round(poller: &Poller, sim: &mut Sim) {
    if !matches!(sim.phase, Phase::Idle) {
        return;
    }
    let Some(due) = sim.pending_dues.pop_front() else {
        return;
    };
    let line = encode_request(&Request::NextPairs {
        session: sim.session,
    });
    sim.conn.queue_write(line.as_bytes());
    sim.phase = Phase::AwaitPairs { due };
    flush_and_set_interest(poller, &mut sim.conn);
}

fn flush_and_set_interest(poller: &Poller, conn: &mut Conn) {
    let _ = conn.flush_ready();
    let want_write = conn.has_pending_output();
    if want_write != conn.want_write
        && poller
            .modify(conn.stream().as_raw_fd(), conn.token, true, want_write)
            .is_ok()
    {
        conn.want_write = want_write;
    }
}

fn process_replies(
    sim: &mut Sim,
    now: Instant,
    window_start: Instant,
    next_hist: &LatencyHistogram,
    submit_hist: &LatencyHistogram,
    rounds_completed: &mut u64,
) {
    while let Some(line) = sim.conn.inbox.pop_front() {
        let Ok(v) = Json::parse(line.trim()) else {
            sim.phase = Phase::Dead;
            return;
        };
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            // Typed server error (capacity, draining, …): this connection
            // is done contributing.
            sim.phase = Phase::Dead;
            return;
        }
        match v.get("reply").and_then(Json::as_str) {
            Some("created") => {
                let Some(session) = v.get("session").and_then(Json::as_u64) else {
                    sim.phase = Phase::Dead;
                    return;
                };
                sim.session = session;
                sim.phase = Phase::Idle;
            }
            Some("pairs") => {
                if let Phase::AwaitPairs { due } = sim.phase {
                    next_hist.record(now.saturating_duration_since(due));
                    // Submit immediately: hosted labels, measured from
                    // send.
                    let line = encode_request(&Request::SubmitLabels {
                        session: sim.session,
                        labels: None,
                    });
                    sim.conn.queue_write(line.as_bytes());
                    sim.phase = Phase::AwaitLabeled { sent: now };
                } else {
                    sim.phase = Phase::Dead;
                    return;
                }
            }
            Some("labeled") => {
                if let Phase::AwaitLabeled { sent } = sim.phase {
                    submit_hist.record(now.saturating_duration_since(sent));
                    if now >= window_start {
                        *rounds_completed += 1;
                    }
                    sim.rounds_done += 1;
                    sim.served = true;
                    sim.phase = Phase::Idle;
                } else {
                    sim.phase = Phase::Dead;
                    return;
                }
            }
            Some("done") => {
                // The session ran out of iterations: under-provisioned
                // spec for the offered schedule. Stop contributing rather
                // than skew the histograms.
                sim.phase = Phase::Dead;
                return;
            }
            _ => {
                sim.phase = Phase::Dead;
                return;
            }
        }
    }
}
