//! Integration tests for the readiness-based transport: pipelining inside
//! one TCP segment (a create and a round on the new session included),
//! pipelined lines behind the revive of a dormant journaled session, two connections racing to revive one session, the typed
//! `protocol_error` path for oversized lines, a create whose interaction
//! budget is out of range,
//! slow-loris eviction through the real serve binary, bounded shutdown
//! latency, and a bind refused on a held port. The oversize, shutdown and
//! held-port tests run on an IPv4 and an IPv6 bind; both get one
//! `SO_REUSEPORT` listener per shard.

// Test helpers run outside `#[test]` fns, where the workspace
// allow-expect-in-tests carve-out does not reach.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use et_serve::{spawn, Client, CreateSessionSpec, Json, ServerConfig, StoreConfig};

/// Bind addresses covering both address families of the `SO_REUSEPORT`
/// shard listeners.
const BIND_ADDRS: [&str; 2] = ["127.0.0.1:0", "[::1]:0"];

fn server_cfg(addr: &str) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        store: StoreConfig {
            capacity: 4,
            idle_timeout: Duration::from_secs(300),
            base_seed: 7,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply line");
    assert!(!line.is_empty(), "connection closed before reply");
    Json::parse(line.trim()).expect("reply is JSON")
}

/// A create asking for more interactions than a session may run draws a
/// typed `invalid_config` reply, as an out-of-range `rows` does, and the
/// server goes on serving: the session is never built, so nothing reserves
/// memory for the budget.
#[test]
fn an_out_of_range_iteration_budget_is_refused_and_serving_continues() {
    let handle = spawn(server_cfg("127.0.0.1:0")).expect("bind");
    let addr = handle.addr().to_string();

    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"{\"op\":\"create_session\",\"rows\":60,\"iterations\":9007199254740991}\n")
        .expect("write create");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let refused = read_reply(&mut reader);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("invalid_config"),
        "{refused:?}"
    );
    let message = refused.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("iterations"), "{refused:?}");

    // A later connection is still served.
    let mut client = Client::connect(&addr).expect("connect after the refusal");
    let spec = CreateSessionSpec {
        rows: 60,
        iterations: 2,
        seed: Some(5),
        ..CreateSessionSpec::default()
    };
    let (session, _) = client
        .create_session(&spec)
        .expect("create after the refusal");
    client
        .next_pairs(session)
        .expect("a round after the refusal");
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Several requests written in a single TCP segment are each answered, in
/// order, on the same connection — the framer must split the segment, the
/// per-connection inbox must keep arrival order, and a round on a session
/// whose create went to the worker pool must wait for that create.
#[test]
fn pipelined_requests_in_one_tcp_segment() {
    let handle = spawn(server_cfg("127.0.0.1:0")).expect("bind");
    let addr = handle.addr().to_string();

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // One write: a bad op (typed error), two statuses, garbage, a create
    // (the fresh server's session 1) and a round on it. Six replies must
    // come back in exactly this order.
    raw.write_all(
        b"{\"op\":\"nope\"}\n{\"op\":\"status\"}\n{\"op\":\"status\"}\nnot json\n\
          {\"op\":\"create_session\",\"rows\":60,\"iterations\":2}\n\
          {\"op\":\"next_pairs\",\"session\":1}\n",
    )
    .expect("pipelined write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));

    let first = read_reply(&mut reader);
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(false));
    for _ in 0..2 {
        let reply = read_reply(&mut reader);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            reply.get("reply").and_then(Json::as_str),
            Some("server_status")
        );
    }
    let garbage = read_reply(&mut reader);
    assert_eq!(
        garbage.get("error").and_then(Json::as_str),
        Some("parse_error")
    );
    let created = read_reply(&mut reader);
    assert_eq!(
        created.get("reply").and_then(Json::as_str),
        Some("created"),
        "{created:?}"
    );
    assert_eq!(created.get("session").and_then(Json::as_f64), Some(1.0));
    let pairs = read_reply(&mut reader);
    assert_eq!(
        pairs.get("reply").and_then(Json::as_str),
        Some("pairs"),
        "{pairs:?}"
    );
    assert_eq!(pairs.get("session").and_then(Json::as_f64), Some(1.0));

    let mut client = Client::connect(&addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// A server over `dir` holding one journaled session that has run
/// `rounds` rounds, shut down, and a second server over the same
/// directory, where that session is dormant. Returns the second server and
/// the session id.
fn server_with_a_dormant_session(
    dir: &std::path::Path,
    rounds: usize,
) -> (et_serve::ServerHandle, u64) {
    let mut cfg = server_cfg("127.0.0.1:0");
    cfg.store.data_dir = Some(dir.to_path_buf());
    let handle = spawn(cfg.clone()).expect("bind");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let spec = CreateSessionSpec {
        rows: 60,
        iterations: rounds + 4,
        ..CreateSessionSpec::default()
    };
    let (session, _) = client.create_session(&spec).expect("create");
    for _ in 0..rounds {
        client.next_pairs(session).expect("next_pairs");
        client.submit_labels(session, None).expect("submit_labels");
    }
    client.shutdown_server().expect("shutdown");
    handle.wait();

    let handle = spawn(cfg).expect("bind again");
    assert_eq!(handle.recovery_report().registered, 1);
    assert_eq!(handle.store_snapshot().live_sessions, 0);
    (handle, session)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("et-event-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four lines on a dormant session in one write — status, next_pairs,
/// submit_labels, status — are all answered, in order: the first goes to
/// the worker pool to revive the session, and the three behind it wait.
#[test]
fn pipelined_lines_on_a_dormant_session_are_answered_in_order() {
    let dir = scratch_dir("pipelined-dormant");
    let (handle, session) = server_with_a_dormant_session(&dir, 2);
    let addr = handle.addr().to_string();

    let mut raw = TcpStream::connect(&addr).expect("connect");
    let lines = format!(
        "{{\"op\":\"status\",\"session\":{session}}}\n\
         {{\"op\":\"next_pairs\",\"session\":{session}}}\n\
         {{\"op\":\"submit_labels\",\"session\":{session}}}\n\
         {{\"op\":\"status\",\"session\":{session}}}\n"
    );
    raw.write_all(lines.as_bytes()).expect("pipelined write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let expected = [
        ("session_status", 2),
        ("pairs", 2),
        ("labeled", 2),
        ("session_status", 3),
    ];
    for (kind, done) in expected {
        let reply = read_reply(&mut reader);
        assert_eq!(
            reply.get("reply").and_then(Json::as_str),
            Some(kind),
            "{reply:?}"
        );
        if kind == "session_status" {
            assert_eq!(
                reply.get("iterations_done").and_then(Json::as_u64),
                Some(done),
                "{reply:?}"
            );
        }
    }
    assert_eq!(handle.store_snapshot().counters.revived_total, 1);

    let mut client = Client::connect(&addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two connections that name the same dormant session at once both get
/// `ok` replies, and the session is revived exactly once: the second
/// request waits for the first one's revive instead of starting its own.
#[test]
fn two_connections_revive_a_dormant_session_once() {
    let dir = scratch_dir("race-dormant");
    let (handle, session) = server_with_a_dormant_session(&dir, 1);
    let addr = handle.addr().to_string();

    let line = format!("{{\"op\":\"status\",\"session\":{session}}}\n");
    let mut conns: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    for conn in &mut conns {
        conn.write_all(line.as_bytes()).expect("status write");
    }
    for conn in conns {
        let reply = read_reply(&mut BufReader::new(conn));
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply:?}"
        );
        assert_eq!(
            reply.get("iterations_done").and_then(Json::as_u64),
            Some(1),
            "{reply:?}"
        );
    }
    let counters = handle.store_snapshot().counters;
    assert_eq!(counters.revived_total, 1);
    assert_eq!(counters.created_total, 0);

    let mut client = Client::connect(&addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An oversized request line draws one typed `protocol_error` reply and
/// then the server closes the connection — on both address families,
/// whether or not the line ever saw its newline.
#[test]
fn oversized_line_gets_protocol_error_then_close() {
    for bind in BIND_ADDRS {
        let mut cfg = server_cfg(bind);
        cfg.max_line_bytes = 512;
        let handle = spawn(cfg).expect("bind");
        let addr = handle.addr().to_string();

        // Terminated oversized line.
        let mut raw = TcpStream::connect(&addr).expect("connect");
        let mut big = vec![b'x'; 2048];
        big.push(b'\n');
        raw.write_all(&big).expect("oversized write");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let reply = read_reply(&mut reader);
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("protocol_error"),
            "{bind}: {reply:?}"
        );
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("drain to EOF");
        assert!(
            rest.is_empty(),
            "{bind}: connection must close after the reply"
        );

        // Unterminated flood: never sends '\n', must still be rejected
        // once the ceiling is crossed instead of buffering forever.
        let mut raw = TcpStream::connect(&addr).expect("connect");
        raw.write_all(&vec![b'y'; 4096]).expect("flood write");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let reply = read_reply(&mut reader);
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("protocol_error"),
            "{bind}: {reply:?}"
        );
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("drain to EOF");
        assert!(
            rest.is_empty(),
            "{bind}: connection must close after the reply"
        );

        let mut client = Client::connect(&addr).expect("connect for shutdown");
        client.shutdown_server().expect("shutdown");
        handle.wait();
    }
}

/// Slow-loris defense through the real binary: a connection that dribbles
/// bytes without ever completing a request line is disconnected by the
/// idle timer (dribbling is NOT activity), while a well-behaved client on
/// the same server keeps getting answers.
#[test]
fn slow_loris_is_disconnected_by_the_idle_timer() {
    if !cfg!(unix) {
        eprintln!("SKIPPED: spawns the serve binary via unix process plumbing");
        return;
    }
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--conn-idle-timeout-secs",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addr = None;
    while addr.is_none() {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("read serve stdout");
        assert!(n > 0, "serve exited before listening");
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.trim().to_string());
        }
    }
    let addr = addr.unwrap();

    let mut loris = TcpStream::connect(&addr).expect("loris connect");
    loris
        .set_read_timeout(Some(Duration::from_millis(250)))
        .expect("read timeout");
    let start = Instant::now();
    let mut disconnected = false;
    // Dribble one byte every 200ms — far below any byte-level timeout,
    // but never a complete line. The 1s idle timer must still fire.
    while start.elapsed() < Duration::from_secs(6) {
        if loris.write_all(b"x").is_err() {
            disconnected = true;
            break;
        }
        let mut probe = [0u8; 16];
        match loris.read(&mut probe) {
            Ok(0) => {
                disconnected = true;
                break;
            }
            Ok(_) => {} // no reply is expected; keep dribbling
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                disconnected = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(
        disconnected,
        "slow-loris connection survived 6s against a 1s idle timer"
    );

    // The server is still healthy for real clients.
    let mut client = Client::connect(&addr).expect("healthy connect");
    let status = client.status(None).expect("status");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    client.shutdown_server().expect("shutdown");
    let code = child.wait().expect("serve exit");
    assert!(code.success(), "serve exited with {code:?}");
}

/// Shutdown is event-driven, not polled: from the shutdown request to full
/// teardown (shards and workers joined) stays well under a second on both
/// address families, even with an idle connection parked on the server.
#[test]
fn shutdown_latency_is_bounded_without_polling() {
    for bind in BIND_ADDRS {
        let handle = spawn(server_cfg(bind)).expect("bind");
        let addr = handle.addr().to_string();

        // An idle connection that never speaks: teardown must not wait on it.
        let _parked = TcpStream::connect(&addr).expect("parked connect");

        let mut client = Client::connect(&addr).expect("connect");
        let start = Instant::now();
        client.shutdown_server().expect("shutdown acknowledged");
        handle.wait();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "{bind}: shutdown took {elapsed:?}; a poll interval is hiding somewhere"
        );
    }
}

/// A port already held by a listener without `SO_REUSEPORT` cannot join a
/// reuse-port group: `spawn` returns the bind's `AddrInUse` instead of
/// serving anything.
#[test]
fn spawn_on_a_held_port_fails_with_addr_in_use() {
    for bind in BIND_ADDRS {
        let holder = std::net::TcpListener::bind(bind).expect("plain bind");
        let held = holder.local_addr().expect("held addr").to_string();
        match spawn(server_cfg(&held)) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{bind}: {e}"),
            Ok(handle) => {
                handle.shutdown();
                handle.wait();
                panic!("{bind}: spawn bound {held}, which a plain listener holds");
            }
        }
    }
}
