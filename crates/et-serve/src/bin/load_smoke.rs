//! The `load_smoke` binary: an in-process server driven by N concurrent
//! wire clients, each running one session to completion across the paper's
//! strategy set. Exits non-zero unless every session finishes its full
//! iteration budget with a falling MAE curve.
//!
//! Also a micro load-test: it measures the round-trip latency of every
//! `submit_labels` call and reports p50/p99, so the cost of durability
//! (`--data-dir` with `--fsync always` vs `never`) is directly visible.
//! With `--json` the summary is one machine-readable object on stdout and
//! the progress chatter moves to stderr.
//!
//! ```text
//! load_smoke [--sessions N] [--iterations N] [--rows N] [--seed N]
//!            [--data-dir PATH] [--fsync always|never] [--json]
//! ```
//!
//! With `--connections N` it switches to **load-generator mode**: an
//! in-process server driven by the open-loop engine in
//! `et_serve::loadgen` — N concurrent connections offering `--rate`
//! rounds/s each over a `--window`-second measurement window, reporting
//! throughput and per-op p50/p99/p999 latencies:
//!
//! ```text
//! load_smoke --connections N [--rate R] [--window SECS] [--workers N]
//!            [--rows N] [--seed N] [--json]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use et_core::StrategyKind;
use et_durable::FsyncPolicy;
use et_serve::{
    run_in_process, spawn, Client, CreateSessionSpec, InProcessLoad, Json, ServerConfig,
};

struct Options {
    sessions: usize,
    iterations: usize,
    rows: usize,
    seed: u64,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    json: bool,
    /// Load-generator mode when set: concurrent connections to hold open.
    connections: Option<usize>,
    rate: f64,
    window_secs: u64,
    workers: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            sessions: 6,
            iterations: 8,
            rows: 120,
            seed: 2026,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            json: false,
            connections: None,
            rate: 2.0,
            window_secs: 5,
            workers: 4,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--json" {
            opts.json = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value)),
            "--fsync" => {
                opts.fsync = FsyncPolicy::from_name(value).map_err(|e| format!("--fsync: {e}"))?;
            }
            "--rate" => {
                opts.rate = value
                    .parse()
                    .map_err(|_| format!("--rate must be a number, got {value:?}"))?;
            }
            _ => {
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("{flag} must be a number, got {value:?}"))?;
                match flag {
                    "--sessions" => opts.sessions = parsed as usize,
                    "--iterations" => opts.iterations = parsed as usize,
                    "--rows" => opts.rows = parsed as usize,
                    "--seed" => opts.seed = parsed,
                    "--connections" => opts.connections = Some(parsed as usize),
                    "--window" => opts.window_secs = parsed,
                    "--workers" => opts.workers = parsed as usize,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
        }
        i += 2;
    }
    if opts.sessions == 0 {
        return Err("--sessions must be positive".to_string());
    }
    Ok(opts)
}

/// One driven session: iterations run, first/last MAE, and the wall-clock
/// latency of each `submit_labels` round trip in milliseconds.
struct SessionRun {
    iterations_run: usize,
    first_mae: f64,
    last_mae: f64,
    submit_ms: Vec<f64>,
}

fn drive_one(addr: &str, spec: CreateSessionSpec) -> Result<SessionRun, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (session, _seed) = client.create_session(&spec).map_err(|e| e.to_string())?;
    let mut mae_series = Vec::new();
    let mut submit_ms = Vec::new();
    let iterations_run = loop {
        let reply = client.next_pairs(session).map_err(|e| e.to_string())?;
        match reply.get("reply").and_then(Json::as_str) {
            Some("pairs") => {
                let start = Instant::now();
                let labeled = client
                    .submit_labels(session, None)
                    .map_err(|e| e.to_string())?;
                submit_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let mae = labeled
                    .get("metrics")
                    .and_then(|m| m.get("mae"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| "labeled reply without mae".to_string())?;
                mae_series.push(mae);
            }
            Some("done") => {
                break reply
                    .get("iterations_run")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "done reply without iterations_run".to_string())?
                    as usize;
            }
            other => return Err(format!("unexpected reply kind {other:?}")),
        }
    };
    client.close_session(session).map_err(|e| e.to_string())?;
    let first_mae = mae_series
        .first()
        .copied()
        .ok_or_else(|| "empty MAE series".to_string())?;
    let last_mae = mae_series.last().copied().unwrap_or(first_mae);
    Ok(SessionRun {
        iterations_run,
        first_mae,
        last_mae,
        submit_ms,
    })
}

/// Nearest-rank percentile over a sorted slice; `q` in `[0, 1]`.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Load-generator mode: in-process server + the open-loop engine.
fn run_loadgen(opts: &Options, connections: usize) -> ExitCode {
    let load = InProcessLoad {
        connections,
        rate: opts.rate,
        window: Duration::from_secs(opts.window_secs.max(1)),
        workers: opts.workers.max(1),
        rows: opts.rows,
        base_seed: opts.seed,
    };
    eprintln!(
        "offering {} conns x {} rounds/s for {}s to an in-process server ({} workers)",
        connections, opts.rate, opts.window_secs, load.workers,
    );
    let report = match run_in_process(&load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load_smoke: load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let line = format!(
        "throughput {:.1} rounds/s ({} rounds, {}/{} conns served); \
         next_pairs p50 {:.3}ms p99 {:.3}ms p999 {:.3}ms ({} samples); \
         submit p50 {:.3}ms p99 {:.3}ms p999 {:.3}ms ({} samples)",
        report.throughput_rps,
        report.rounds_completed,
        report.conns_served,
        report.connections,
        report.next_pairs.p50_ms,
        report.next_pairs.p99_ms,
        report.next_pairs.p999_ms,
        report.next_pairs.samples,
        report.submit.p50_ms,
        report.submit.p99_ms,
        report.submit.p999_ms,
        report.submit.samples,
    );
    if opts.json {
        eprintln!("{line}");
        let op = |s: &et_serve::loadgen::OpStats| {
            Json::Obj(vec![
                ("p50".to_string(), Json::Num(s.p50_ms)),
                ("p99".to_string(), Json::Num(s.p99_ms)),
                ("p999".to_string(), Json::Num(s.p999_ms)),
                ("samples".to_string(), Json::Num(s.samples as f64)),
            ])
        };
        let fields = vec![
            ("connections".to_string(), Json::Num(connections as f64)),
            ("rate_per_conn".to_string(), Json::Num(report.rate_per_conn)),
            ("window_secs".to_string(), Json::Num(report.window_secs)),
            ("workers".to_string(), Json::Num(load.workers as f64)),
            (
                "rounds_completed".to_string(),
                Json::Num(report.rounds_completed as f64),
            ),
            (
                "throughput_rps".to_string(),
                Json::Num(report.throughput_rps),
            ),
            (
                "conns_served".to_string(),
                Json::Num(report.conns_served as f64),
            ),
            ("next_pairs_ms".to_string(), op(&report.next_pairs)),
            ("submit_ms".to_string(), op(&report.submit)),
        ];
        println!("{}", Json::Obj(fields).encode());
    } else {
        println!("{line}");
    }
    // The run is meaningful as long as someone was served; gates on the
    // numbers belong to bench_serve.
    if report.rounds_completed == 0 {
        eprintln!("load_smoke: no rounds completed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("load_smoke: {msg}");
            eprintln!(
                "usage: load_smoke [--sessions N] [--iterations N] [--rows N] [--seed N] \
                 [--data-dir PATH] [--fsync always|never] [--json] \
                 | load_smoke --connections N [--rate R] [--window SECS] \
                 [--workers N] [--rows N] [--seed N] [--json]"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(connections) = opts.connections {
        return run_loadgen(&opts, connections.max(1));
    }
    // With --json, stdout carries exactly one JSON object; everything
    // human-shaped goes to stderr.
    let chat = |line: String| {
        if opts.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    // One worker per client: every connection stays open for its whole
    // session.
    let mut cfg = ServerConfig {
        workers: opts.sessions,
        ..ServerConfig::default()
    };
    cfg.store.capacity = opts.sessions;
    cfg.store.base_seed = opts.seed;
    cfg.store.data_dir = opts.data_dir.clone();
    cfg.store.journal.fsync = opts.fsync;
    let handle = match spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("load_smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr().to_string();
    chat(format!(
        "driving {} concurrent sessions ({} iterations each) against {addr}{}",
        opts.sessions,
        opts.iterations,
        match &opts.data_dir {
            Some(dir) => format!(
                ", journaled to {} (fsync {})",
                dir.display(),
                opts.fsync.as_str()
            ),
            None => ", in-memory".to_string(),
        }
    ));

    let strategies = StrategyKind::PAPER_METHODS;
    let mut joins = Vec::with_capacity(opts.sessions);
    for i in 0..opts.sessions {
        let addr = addr.clone();
        let spec = CreateSessionSpec {
            strategy: strategies[i % strategies.len()],
            rows: opts.rows,
            iterations: opts.iterations,
            seed: Some(opts.seed.wrapping_add(i as u64)),
            ..CreateSessionSpec::default()
        };
        joins.push(std::thread::spawn(move || drive_one(&addr, spec)));
    }

    let mut failures = 0usize;
    let mut submit_ms: Vec<f64> = Vec::new();
    for (i, join) in joins.into_iter().enumerate() {
        match join.join() {
            Ok(Ok(run)) => {
                let ok = run.iterations_run == opts.iterations && run.last_mae < run.first_mae;
                chat(format!(
                    "session {i}: {} iterations, MAE {:.4} -> {:.4} {}",
                    run.iterations_run,
                    run.first_mae,
                    run.last_mae,
                    if ok { "ok" } else { "FAIL" }
                ));
                if !ok {
                    failures += 1;
                }
                submit_ms.extend(run.submit_ms);
            }
            Ok(Err(msg)) => {
                chat(format!("session {i}: FAIL ({msg})"));
                failures += 1;
            }
            Err(_) => {
                chat(format!("session {i}: FAIL (client thread panicked)"));
                failures += 1;
            }
        }
    }

    // Server-side view of the same rounds: the store's latency histogram
    // times only the labeling core (hosted labels + learner update + WAL
    // append), so the gap to the client-side p50/p99 below is wire +
    // queueing overhead. Fetched before shutdown, log-bucket estimates.
    let mut server_lat: Option<(f64, f64, f64)> = None;
    if let Ok(mut c) = Client::connect(&addr) {
        if let Ok(status) = c.status(None) {
            let g = |k: &str| status.get(k).and_then(Json::as_f64);
            if let (Some(samples), Some(p50), Some(p99)) = (
                g("round_latency_samples"),
                g("round_latency_p50_ms"),
                g("round_latency_p99_ms"),
            ) {
                server_lat = Some((samples, p50, p99));
            }
        }
        let _ = c.shutdown_server();
    }
    handle.wait();

    submit_ms.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&submit_ms, 0.50);
    let p99 = percentile(&submit_ms, 0.99);
    let mean = if submit_ms.is_empty() {
        f64::NAN
    } else {
        submit_ms.iter().sum::<f64>() / submit_ms.len() as f64
    };
    let max = submit_ms.last().copied().unwrap_or(f64::NAN);
    chat(format!(
        "submit_labels latency over {} calls: p50 {p50:.3}ms p99 {p99:.3}ms mean {mean:.3}ms max {max:.3}ms",
        submit_ms.len()
    ));
    if let Some((samples, sp50, sp99)) = server_lat {
        chat(format!(
            "server-side round latency over {samples:.0} rounds: p50 <= {sp50:.3}ms p99 <= {sp99:.3}ms (log-bucket upper bounds)"
        ));
    }

    if opts.json {
        let mut fields = vec![
            ("sessions".to_string(), Json::Num(opts.sessions as f64)),
            ("iterations".to_string(), Json::Num(opts.iterations as f64)),
            ("rows".to_string(), Json::Num(opts.rows as f64)),
            ("failures".to_string(), Json::Num(failures as f64)),
            ("durable".to_string(), Json::Bool(opts.data_dir.is_some())),
            (
                "fsync".to_string(),
                Json::Str(opts.fsync.as_str().to_string()),
            ),
            (
                "submit_latency_ms".to_string(),
                Json::Obj(vec![
                    ("p50".to_string(), Json::Num(p50)),
                    ("p99".to_string(), Json::Num(p99)),
                    ("mean".to_string(), Json::Num(mean)),
                    ("max".to_string(), Json::Num(max)),
                    ("samples".to_string(), Json::Num(submit_ms.len() as f64)),
                ]),
            ),
        ];
        if let Some((samples, sp50, sp99)) = server_lat {
            fields.push((
                "server_round_latency_ms".to_string(),
                Json::Obj(vec![
                    ("p50".to_string(), Json::Num(sp50)),
                    ("p99".to_string(), Json::Num(sp99)),
                    ("samples".to_string(), Json::Num(samples)),
                ]),
            ));
        }
        println!("{}", Json::Obj(fields).encode());
    }

    if failures > 0 {
        eprintln!(
            "load_smoke: {failures} of {} sessions failed",
            opts.sessions
        );
        return ExitCode::FAILURE;
    }
    chat(format!("all {} sessions converged", opts.sessions));
    ExitCode::SUCCESS
}
