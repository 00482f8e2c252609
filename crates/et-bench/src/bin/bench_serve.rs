//! Machine-readable serving benchmarks: the event-loop server under an
//! open-loop load over a connection ladder, emitted as `BENCH_serve.json`.
//!
//! ```text
//! bench_serve                    # full profile, writes BENCH_serve.json
//! bench_serve --quick            # CI smoke profile (fewer conns, short window)
//! bench_serve --out path.json    # alternate output path
//! bench_serve --gate NAME:MIN    # exit 1 if derived NAME < MIN (repeatable)
//! ```
//!
//! Each run spawns a fresh in-process server and drives it with
//! `et_serve::loadgen`: C connections, each holding one live session and
//! offering a fixed per-connection round rate on a fixed-increment virtual
//! schedule. The workload is the signaling-game shape — long-lived,
//! mostly-idle annotation dialogues — so the server must converse with all
//! C at once on a handful of workers. The derived
//! `event_offered_load_completion` is the fraction of the offered rounds
//! completed at the largest connection count (an absolute measure: 1.0
//! means the server kept up); p99/p999 submit latency is reported per run
//! from the same log-linear histograms the server uses internally.

use std::time::Duration;

use et_bench::cli::{self, Cli};
use et_serve::loadgen::OpStats;
use et_serve::{run_in_process, InProcessLoad, Json, LoadReport};

/// Exits loudly; benches have no error channel worth plumbing.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {e}");
    std::process::exit(1);
}

/// Offered rounds per second across all connections.
fn offered_rps(r: &LoadReport) -> f64 {
    r.connections as f64 * r.rate_per_conn
}

/// Offers `load.connections` × `load.rate` rounds/s to a fresh in-process
/// server for `load.window`.
fn run_one(load: &InProcessLoad) -> LoadReport {
    eprintln!(
        "  {} conns ({} workers, {} rounds/s/conn)...",
        load.connections, load.workers, load.rate
    );
    let report = match run_in_process(load) {
        Ok(r) => r,
        Err(e) => fail("load run", e),
    };
    eprintln!(
        "    {:.1} rounds/s completed of {:.1} offered; {}/{} conns served; \
         submit p99 {:.3}ms",
        report.throughput_rps,
        offered_rps(&report),
        report.conns_served,
        report.connections,
        report.submit.p99_ms,
    );
    report
}

fn op_json(s: &OpStats) -> Json {
    Json::obj(vec![
        ("p50", Json::Num(s.p50_ms)),
        ("p99", Json::Num(s.p99_ms)),
        ("p999", Json::Num(s.p999_ms)),
        ("samples", Json::Num(s.samples as f64)),
    ])
}

fn emit_json(
    cli: &Cli,
    template: &InProcessLoad,
    runs: &[LoadReport],
    derived: &[(&str, f64)],
) -> Json {
    let runs = runs
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("connections", Json::Num(r.connections as f64)),
                ("offered_rps", Json::Num(offered_rps(r))),
                ("throughput_rps", Json::Num(r.throughput_rps)),
                ("rounds_completed", Json::Num(r.rounds_completed as f64)),
                ("conns_served", Json::Num(r.conns_served as f64)),
                ("next_pairs_ms", op_json(&r.next_pairs)),
                ("submit_ms", op_json(&r.submit)),
            ])
        })
        .collect();
    let derived = derived
        .iter()
        .map(|(name, v)| (name.to_string(), Json::obj(vec![("value", Json::Num(*v))])))
        .collect();
    Json::obj(vec![
        ("schema", Json::str("et-bench/serve-v2")),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        (
            "workload",
            Json::obj(vec![
                ("workers", Json::Num(template.workers as f64)),
                ("rate_per_conn", Json::Num(template.rate)),
                ("window_secs", Json::Num(template.window.as_secs_f64())),
                ("rows", Json::Num(template.rows as f64)),
                ("open_loop", Json::Bool(true)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
        ("derived", Json::Obj(derived)),
    ])
}

fn main() {
    let cli = cli::from_env("bench_serve", "BENCH_serve.json");
    let (ladder, window) = if cli.quick {
        (vec![32usize, 128], Duration::from_secs(2))
    } else {
        (vec![64usize, 256, 512], Duration::from_secs(5))
    };
    // Every rung shares this workload; only `connections` varies.
    let template = InProcessLoad {
        connections: 0,
        rate: 1.0,
        window,
        workers: 4,
        rows: 40,
        base_seed: 2,
    };

    eprintln!(
        "bench_serve: open-loop load, {} workers, {} rounds/s/conn, {}s window, rows {}",
        template.workers,
        template.rate,
        window.as_secs_f64(),
        template.rows
    );
    let runs: Vec<LoadReport> = ladder
        .iter()
        .map(|&connections| {
            run_one(&InProcessLoad {
                connections,
                ..template.clone()
            })
        })
        .collect();

    // The top rung carries the derived values.
    let mut derived: Vec<(&str, f64)> = Vec::new();
    if let Some(top) = runs.last() {
        derived.push(("event_p99_submit_ms", top.submit.p99_ms));
        derived.push((
            "event_offered_load_completion",
            top.throughput_rps / offered_rps(top),
        ));
    }

    cli::write_or_exit(&cli.out, &emit_json(&cli, &template, &runs, &derived));
    for (name, v) in &derived {
        eprintln!("  {name}: {v:.3}");
    }
    println!("wrote {}", cli.out);

    if !cli::gates_pass(&cli.gates, &derived) {
        std::process::exit(1);
    }
}
