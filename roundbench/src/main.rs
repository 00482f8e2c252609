//! `roundbench`: the end-to-end and per-layer benchmark of the session
//! service. See `README.md` in this directory for the workloads, the
//! metrics and the designs that were measured and rejected.
//!
//! ```text
//! roundbench --serve PATH --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured against
//! the `serve` binary with no tracing; with `--trace 1` the wire run is
//! followed by the in-process traced pass and the metrics are per layer.
//! Any output mismatch makes the exit code 1.

mod server;
mod speed;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use et_serve::Json;

use crate::server::Server;
use crate::stats::{median, Samples};
use crate::workload::{
    check_against_batch, check_recovered, fresh_dir, mix, Kind, Plan, Wire, Workload,
};

/// Server spawns in set-up; set-up time is their median (plus the setup
/// creates).
const SETUP_SPAWNS: usize = 15;
/// The measured phase's fixed work is sized to take about `--seconds`; it
/// fails the run if it takes longer than this many times that.
const CAP_FACTOR: u64 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload_name = get("--workload")?;
    let workload = Workload::from_name(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} must be a number, got {v:?}"))
    };
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
        serve: PathBuf::from(get("--serve")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// A fixed CPU-bound calibration loop, timed before and after each run to
/// show how fast the host was at the time. A diagnostic, not a metric.
fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x5EED_u64;
    for i in 0..20_000_000u64 {
        x = mix(x, i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let work = fresh_dir(&args.work_dir, plan.workload.name())?;
    let data_dir = work.join("data");
    let server_args = plan.server_args(&data_dir);
    let mut notes = Vec::new();

    // The wire run and the in-process pass run on one CPU (see `OneCpu`);
    // the batch checks afterwards may use every CPU.
    let pin = server::OneCpu::pin();
    if pin.is_none() {
        notes.push("could not pin to one CPU; latencies include cross-CPU wake-ups".into());
    }

    // Set-up: spawn to ready, several times, then the setup creates.
    let mut ready = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        if plan.durable {
            fresh_dir(&work, "data")?;
        }
        let s = Server::spawn(&args.serve, &server_args)?;
        ready.push(s.ready_s);
        if i + 1 == SETUP_SPAWNS {
            server = Some(s);
        } else {
            s.kill();
        }
    }
    let server = server.ok_or("no server")?;
    let mut wire = Wire::new(&plan, &server)?;
    let setup_creates_s = wire.setup()?;

    // `durable-omdb`: a second server gets the sessions to crash and is
    // SIGKILLed, leaving a data directory to restart on. Sessions must
    // come back from it exactly as they were.
    let crash_args = plan.server_args(&work.join("crash"));
    let crash = if plan.durable {
        fresh_dir(&work, "crash")?;
        let s = Server::spawn(&args.serve, &crash_args)?;
        let mut w = Wire::new(&plan, &s)?;
        let live = w.prepare_crash()?;
        let before = w.statuses(&live)?;
        s.kill();
        Some((w, live, before))
    } else {
        None
    };

    // Measured phase.
    let cpu0 = server.cpu_s();
    let client0 = server::task_cpu_s(std::process::id());
    let t0 = Instant::now();
    let probe_dir = work.join("probe");
    let probe_args = plan.server_args(&probe_dir);
    let mut probes = Vec::new();
    let mut recover = Vec::new();
    let mut recovery_mismatches = 0usize;
    let rounds = wire.measure(Duration::from_secs(args.seconds * CAP_FACTOR), &mut || {
        // Two spawns, timing the second: the first finds caches full of
        // the measured phase's data, unlike the set-up spawns.
        let mut ready_s = 0.0;
        for _ in 0..2 {
            if plan.durable {
                fresh_dir(&work, "probe")?;
            }
            let s = Server::spawn(&args.serve, &probe_args)?;
            ready_s = s.ready_s;
            s.kill();
        }
        probes.push(ready_s);
        // A restart: on the crash directory, or a bare spawn in memory.
        match &crash {
            Some((w, live, before)) => {
                let s = Server::spawn(&args.serve, &crash_args)?;
                recover.push(s.ready_s);
                if recover.len() == 1 {
                    recovery_mismatches = check_recovered(&plan, &s, &w.sessions, live, before)?;
                }
                s.kill();
            }
            None => recover.push(ready_s),
        }
        Ok(())
    })?;
    let measured_s = t0.elapsed().as_secs_f64();
    let cpu_s = server.cpu_s() - cpu0;
    let client_cpu_s = server::task_cpu_s(std::process::id()) - client0;
    let rss_mb = server.peak_rss_mb();
    // Set-up time: the median spawn over the set-up spawns and the probes,
    // plus the set-up creates.
    ready.extend_from_slice(&probes);
    let setup_s = median(&ready) + setup_creates_s;

    server.kill();
    let traced = if args.trace {
        Some(traced::run(&plan, &wire.ops, &work)?)
    } else {
        None
    };
    drop(pin);

    let (mut batch_checked, mut batch_mismatches) = check_against_batch(&plan, &wire.sessions);
    let mut attempted = wire.sent;
    let mut failed = wire.error_replies + recovery_mismatches;
    let mut live_at_kill = 0;
    if let Some((w, live, _)) = &crash {
        let (c, m) = check_against_batch(&plan, &w.sessions);
        batch_checked += c;
        batch_mismatches += m;
        attempted += w.sent + live.len();
        failed += w.error_replies;
        live_at_kill = live.len();
    }
    attempted += batch_checked;
    failed += batch_mismatches;

    let lat = |kind: Kind, measured_only: bool| -> Samples {
        let mut s = Samples::default();
        for op in wire.ops.iter().filter(|o| o.kind == kind) {
            if op.measured || !measured_only {
                s.push(op.ms);
            }
        }
        s
    };
    let mut np = lat(Kind::NextPairs, true);
    let mut sb = lat(Kind::Submit, true);
    let mut st = lat(Kind::Status, true);
    let mut cr = lat(Kind::Create, false);
    // The CPU's slowdown in the measured phase, and in set-up where set-up
    // sent requests (the `rounds-hospital` creates); a set-up without
    // requests is only spawns, which the measured phase samples too.
    let slow = wire.speed.slowdown();
    let setup_slow = if wire.setup_speed.len() > 0 {
        wire.setup_speed.slowdown()
    } else {
        slow
    };
    let mut cr_at_ref = Samples::default();
    for op in wire.ops.iter().filter(|o| o.kind == Kind::Create) {
        cr_at_ref.push(op.ms / if op.measured { slow } else { setup_slow });
    }
    notes.push(format!(
        "measured {measured_s:.2} s, {rounds} rounds, server cpu {cpu_s:.3} s, client cpu {client_cpu_s:.3} s, {} sessions, {} live at kill",
        wire.sessions.len(),
        live_at_kill
    ));
    notes.push(format!(
        "samples: next_pairs n={} submit n={} status n={} create n={}; restarts n={}; spawns n={}",
        np.len(),
        sb.len(),
        st.len(),
        cr.len(),
        recover.len(),
        ready.len()
    ));
    let ms_list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!("spawn-to-ready ms: {}", ms_list(&ready)));
    notes.push(format!("restart-to-ready ms: {}", ms_list(&recover)));
    for (phase, sp) in [
        ("measured", &mut wire.speed),
        ("set-up", &mut wire.setup_speed),
    ] {
        notes.push(format!(
            "cpu probe, {phase}: median {:.2} us, quartiles {:.2}-{:.2} us, n={}; against {} us",
            sp.pct_us(0.50),
            sp.pct_us(0.25),
            sp.pct_us(0.75),
            sp.len(),
            speed::REF_US
        ));
    }

    let mut metrics = if let Some(t) = traced {
        attempted += t.checked;
        failed += t.mismatches;
        let mut m = t.metrics;
        let mut rounds_per_session = Samples::default();
        for s in wire.sessions.iter().filter(|s| s.created) {
            rounds_per_session.push(s.maes.len() as f64);
        }
        let mut tuples = Samples::default();
        for op in wire
            .ops
            .iter()
            .filter(|o| o.kind == Kind::NextPairs && o.sample_tuples > 0)
        {
            tuples.push(op.sample_tuples as f64);
        }
        m.push((
            "et-core.rounds_per_session".into(),
            rounds_per_session.median(),
            "count",
        ));
        m.push(("et-core.sample_tuples".into(), tuples.median(), "count"));
        for (name, s) in [
            ("next_pairs", &mut np),
            ("submit", &mut sb),
            ("status", &mut st),
        ] {
            m.push((format!("wire.{name}_ms.p99"), s.pct(0.99), "ms"));
            m.push((format!("wire.{name}_ms.n"), s.len() as f64, "count"));
        }
        m
    } else {
        let raw: Vec<(String, f64, &'static str)> = vec![
            ("setup_s".into(), setup_s, "s"),
            ("rss_mb".into(), rss_mb, "MB"),
            ("rounds_per_cpu_s".into(), rounds as f64 / cpu_s, "1/s"),
            ("next_pairs_ms.p50".into(), np.pct(0.50), "ms"),
            ("next_pairs_ms.p90".into(), np.pct(0.90), "ms"),
            ("submit_ms.p50".into(), sb.pct(0.50), "ms"),
            ("submit_ms.p90".into(), sb.pct(0.90), "ms"),
            ("status_ms.p50".into(), st.pct(0.50), "ms"),
            ("create_ms.p50".into(), cr.pct(0.50), "ms"),
            ("create_ms.p90".into(), cr.pct(0.90), "ms"),
            ("recover_s".into(), median(&recover), "s"),
        ];
        // Every time and rate at the reference CPU speed (see `speed`);
        // the raw figures go to the comment lines.
        let mut out = Vec::with_capacity(raw.len());
        for (name, value, unit) in raw {
            notes.push(format!("raw {name} = {value} {unit}"));
            let at_ref = match name.as_str() {
                "rss_mb" => value,
                "rounds_per_cpu_s" => value * slow,
                "setup_s" => value / setup_slow,
                "create_ms.p50" => cr_at_ref.pct(0.50),
                "create_ms.p90" => cr_at_ref.pct(0.90),
                _ => value / slow,
            };
            out.push((name, at_ref, unit));
        }
        out
    };
    // A metric that is not a number is a broken measurement, not a value.
    for (name, value, _) in &metrics {
        attempted += 1;
        if !value.is_finite() {
            failed += 1;
            eprintln!("roundbench: metric {name} is not a finite number ({value})");
        }
    }
    metrics.retain(|(_, v, _)| v.is_finite());
    notes.push(format!(
        "failed_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    write_samples(&work, &wire)?;
    for sub in ["data", "crash", "probe", "trace-off", "trace-on", "trace-wal"] {
        let _ = std::fs::remove_dir_all(work.join(sub));
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
    })
}

/// Writes the raw latency samples of the wire run, one op a line.
fn write_samples(work: &std::path::Path, wire: &Wire) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::from("kind\tsession\tat_s\tms\tmeasured\n");
    for op in &wire.ops {
        let _ = writeln!(
            out,
            "{:?}\t{}\t{:.6}\t{:.6}\t{}",
            op.kind,
            op.sess,
            op.at_s,
            op.ms,
            u8::from(op.measured)
        );
    }
    let path = work.join("samples.tsv");
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("roundbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let probe_before = host_probe_ms();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("roundbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let probe_after = host_probe_ms();

    println!(
        "# {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("# host probe: {probe_before:.1} ms before, {probe_after:.1} ms after");
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = outcome.failed == 0;
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
