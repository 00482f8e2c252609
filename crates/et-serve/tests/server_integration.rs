//! End-to-end tests over a real TCP server on an ephemeral port:
//! concurrent wire-driven sessions reproduce batch `run_session` exactly,
//! the typed error paths fire, and capacity/eviction behave as documented.

// Test helpers run outside `#[test]` fns, where the workspace
// allow-expect-in-tests carve-out does not reach.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::time::Duration;

use et_core::StrategyKind;
use et_serve::{
    derive_seed, run_batch, spawn, Client, ClientError, CreateSessionSpec, ErrorCode, Json,
    ServerConfig, StoreConfig,
};

fn test_server(capacity: usize, idle_timeout: Duration) -> (et_serve::ServerHandle, String) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        store: StoreConfig {
            capacity,
            shards: 4,
            idle_timeout,
            base_seed: 7,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = spawn(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn shut_down(handle: et_serve::ServerHandle, addr: &str) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.shutdown_server().expect("shutdown acknowledged");
    handle.wait();
}

/// Two sessions with different strategies and seeds, driven concurrently
/// over the wire by separate connections; each must match its seed-matched
/// batch run *exactly*, iteration by iteration.
#[test]
fn concurrent_wire_sessions_match_batch_exactly() {
    let (handle, addr) = test_server(8, Duration::from_secs(300));

    let specs = [
        CreateSessionSpec {
            rows: 140,
            iterations: 10,
            strategy: StrategyKind::StochasticBestResponse,
            seed: Some(41),
            ..CreateSessionSpec::default()
        },
        CreateSessionSpec {
            rows: 140,
            iterations: 10,
            strategy: StrategyKind::UncertaintySampling,
            seed: Some(42),
            ..CreateSessionSpec::default()
        },
    ];

    let mut joins = Vec::new();
    for spec in specs {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let (session, seed) = client.create_session(&spec).expect("create");
            assert_eq!(seed, spec.seed.expect("explicit seed"), "seed echoed");
            let outcome = client.drive_auto(session, seed).expect("drive");
            client.close_session(session).expect("close");
            (spec, outcome)
        }));
    }

    for join in joins {
        let (spec, outcome) = join.join().expect("client thread");
        let batch = run_batch(&spec, spec.seed.expect("explicit seed")).expect("batch runs");
        assert_eq!(outcome.iterations_run, batch.metrics.len());
        assert_eq!(
            outcome.mae_series,
            batch.mae_series(),
            "{}: wire MAE curve must equal batch bit-for-bit",
            spec.strategy.as_str()
        );
        assert_eq!(outcome.final_mae, batch.convergence.final_mae);
        assert_eq!(outcome.converged_at, batch.convergence.converged_at);
        assert!(
            outcome.final_mae < outcome.mae_series[0],
            "{}: MAE should fall over the session",
            spec.strategy.as_str()
        );
    }

    shut_down(handle, &addr);
}

/// A create without a seed runs under the store's derived seed, and the
/// `created` reply echoes it exactly: batch-running the echoed seed
/// reproduces the wire MAE curve bit for bit.
#[test]
fn seedless_create_echoes_a_reproducible_seed() {
    let (handle, addr) = test_server(2, Duration::from_secs(300));
    let mut client = Client::connect(&addr).expect("connect");
    let spec = CreateSessionSpec {
        rows: 80,
        iterations: 4,
        seed: None,
        ..CreateSessionSpec::default()
    };
    let (session, seed) = client.create_session(&spec).expect("seed-less create");
    assert_eq!(seed, derive_seed(7, session), "the store's derived seed");
    let outcome = client.drive_auto(session, seed).expect("drive");
    let batch = run_batch(&spec, seed).expect("batch runs");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&outcome.mae_series), bits(&batch.mae_series()));
    assert_eq!(
        outcome.final_mae.to_bits(),
        batch.convergence.final_mae.to_bits()
    );
    shut_down(handle, &addr);
}

/// The typed error paths: busy store, unknown session, out-of-phase steps,
/// bad label cardinality, and create-after-close.
#[test]
fn typed_error_replies() {
    let (handle, addr) = test_server(1, Duration::from_secs(300));
    let mut client = Client::connect(&addr).expect("connect");

    let spec = CreateSessionSpec {
        rows: 60,
        iterations: 2,
        seed: Some(5),
        ..CreateSessionSpec::default()
    };

    // Out-of-phase: labels before any presentation.
    let (session, _) = client.create_session(&spec).expect("create");
    match client.submit_labels(session, None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::WrongPhase),
        other => panic!("expected wrong_phase, got {other:?}"),
    }

    // Capacity 1: a second session is refused with server_busy.
    match client.create_session(&spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ServerBusy),
        other => panic!("expected server_busy, got {other:?}"),
    }

    // Wrong label cardinality leaves the presentation retryable.
    let pairs = client.next_pairs(session).expect("pairs");
    let sample_len = pairs
        .get("sample")
        .and_then(Json::as_array)
        .expect("sample member")
        .len();
    match client.submit_labels(session, Some(vec![true; sample_len + 1])) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::WrongPhase),
        other => panic!("expected wrong_phase on bad cardinality, got {other:?}"),
    }
    client
        .submit_labels(session, Some(vec![false; sample_len]))
        .expect("valid submit still lands");

    // next_pairs is idempotent: two asks, same presentation.
    let a = client.next_pairs(session).expect("pairs");
    let b = client.next_pairs(session).expect("pairs again");
    assert_eq!(
        a.get("sample").and_then(Json::as_array),
        b.get("sample").and_then(Json::as_array),
        "unanswered presentation must be re-served"
    );

    // Unknown / closed sessions.
    match client.next_pairs(9999) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown_session, got {other:?}"),
    }
    client.close_session(session).expect("close");
    match client.next_pairs(session) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown_session after close, got {other:?}"),
    }

    // The freed slot admits a new session; invalid configs get a typed reply.
    client.create_session(&spec).expect("create after close");
    let bad = CreateSessionSpec {
        test_frac: 1.5,
        ..spec
    };
    match client.create_session(&bad) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidConfig),
        other => panic!("expected invalid_config, got {other:?}"),
    }

    shut_down(handle, &addr);
}

/// Sessions idle past the timeout are evicted, counted, and the capacity
/// they held is reusable.
#[test]
fn idle_sessions_are_evicted_over_the_wire() {
    let (handle, addr) = test_server(1, Duration::from_millis(50));
    let mut client = Client::connect(&addr).expect("connect");
    let spec = CreateSessionSpec {
        rows: 60,
        iterations: 2,
        seed: Some(9),
        ..CreateSessionSpec::default()
    };
    let (first, _) = client.create_session(&spec).expect("create");
    std::thread::sleep(Duration::from_millis(120));

    // The next create evicts the idle session instead of reporting busy.
    let (second, _) = client.create_session(&spec).expect("create after idle");
    assert_ne!(first, second);
    match client.next_pairs(first) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown_session for evicted id, got {other:?}"),
    }

    let status = client.status(None).expect("server status");
    assert_eq!(
        status.get("evicted_total").and_then(Json::as_u64),
        Some(1),
        "{status:?}"
    );
    assert_eq!(
        status.get("live_sessions").and_then(Json::as_u64),
        Some(1),
        "{status:?}"
    );

    shut_down(handle, &addr);
}

/// Session status reports progress mid-flight, and malformed wire bytes
/// get parse_error without killing the connection.
#[test]
fn status_and_parse_errors() {
    use std::io::{BufRead, BufReader, Write};

    let (handle, addr) = test_server(4, Duration::from_secs(300));
    let mut client = Client::connect(&addr).expect("connect");
    let spec = CreateSessionSpec {
        rows: 60,
        iterations: 3,
        seed: Some(3),
        ..CreateSessionSpec::default()
    };
    let (session, _) = client.create_session(&spec).expect("create");
    client.next_pairs(session).expect("pairs");
    let status = client.status(Some(session)).expect("session status");
    assert_eq!(
        status.get("awaiting_labels").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        status.get("iterations_done").and_then(Json::as_u64),
        Some(0)
    );

    // Raw socket: garbage line, then a valid one on the same connection.
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(b"this is not json\n").expect("write garbage");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    let v = Json::parse(line.trim()).expect("reply is json");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("parse_error"));
    line.clear();
    raw.write_all(b"{\"op\":\"status\"}\n")
        .expect("write status");
    reader.read_line(&mut line).expect("status reply");
    let v = Json::parse(line.trim()).expect("reply is json");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    shut_down(handle, &addr);
}
