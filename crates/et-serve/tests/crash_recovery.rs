//! Crash-injection harness: run the *real* `serve` binary with a data
//! dir, `kill -9` it mid-stream, restart it, and prove that
//!
//! 1. no acknowledged label is lost (every `labeled` reply the client
//!    received before the kill is visible in the recovered session), and
//! 2. the session driven across two crashes finishes **bit-identical** to
//!    an uninterrupted in-process batch run of the same `(spec, seed)` —
//!    MAE curve and both agents' confidences compared via `f64::to_bits`.
//!
//! The wire makes that comparison sound: `Json::Num` encodes floats
//! shortest-round-trip, so the bits survive the protocol.
//!
//! A restarted server only registers its journaled sessions and revives
//! each on its first request, so a second test kills a server holding 16
//! sessions at mixed round counts and checks that every session's first
//! status after the restart equals, byte for byte, its last one before
//! the kill.

// Test harness: expect/unwrap over error plumbing.
#![allow(clippy::expect_used, clippy::unwrap_used)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "test fixtures cast small indices and sizes"
)]
#![expect(
    clippy::panic,
    reason = "a helper outside `#[test]` panics to fail the test with context"
)]

#[cfg(not(unix))]
#[test]
fn crash_recovery_kill9() {
    // Child::kill is only a guaranteed-uncatchable SIGKILL on unix; on
    // other platforms the "crash" would be too polite to prove anything.
    eprintln!("SKIPPED: crash_recovery_kill9 requires unix (kill -9 semantics)");
}

#[cfg(unix)]
mod kill9 {
    use std::io::{BufRead, BufReader};
    use std::path::{Path, PathBuf};
    use std::process::{Child, ChildStdout, Command, Stdio};

    use et_core::run_session;
    use et_serve::{build_parts, Client, CreateSessionSpec, Json};

    /// The serve binary under test, with its stdout pipe held open so a
    /// shutdown-time `println!` never hits a closed pipe.
    struct ServerProc {
        child: Child,
        stdout: BufReader<ChildStdout>,
        /// `recovered N sessions ...` count printed at startup.
        recovered: usize,
        addr: String,
    }

    impl ServerProc {
        fn spawn(data_dir: &Path) -> ServerProc {
            let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
                .args([
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    "2",
                    "--seed",
                    "9",
                    "--fsync",
                    "always",
                    "--snapshot-every",
                    "3",
                    "--data-dir",
                ])
                .arg(data_dir)
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn serve binary");
            let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            let mut recovered = None;
            let mut addr = None;
            // The binary prints `recovered N sessions (...)` then
            // `listening on ADDR`; stop once the listener is up. EOF
            // before that means the binary died — fail loudly.
            while addr.is_none() {
                let mut line = String::new();
                let n = stdout.read_line(&mut line).expect("read serve stdout");
                assert!(n > 0, "serve exited before listening (startup failed)");
                let line = line.trim();
                if let Some(rest) = line.strip_prefix("recovered ") {
                    let count: usize = rest
                        .split_whitespace()
                        .next()
                        .and_then(|w| w.parse().ok())
                        .expect("recovery line count");
                    recovered = Some(count);
                } else if let Some(rest) = line.strip_prefix("listening on ") {
                    addr = Some(rest.to_string());
                }
            }
            ServerProc {
                child,
                stdout,
                recovered: recovered.expect("recovery summary line"),
                addr: addr.unwrap(),
            }
        }

        /// SIGKILL — no flush, no destructors, no goodbye.
        fn kill9(mut self) {
            self.child.kill().expect("kill -9 serve");
            self.child.wait().expect("reap serve");
        }

        /// Graceful wire shutdown; asserts the flush-on-exit path ran.
        fn shutdown(mut self, client: &mut Client) {
            client.shutdown_server().expect("shutdown request");
            let status = self.child.wait().expect("reap serve");
            assert!(status.success(), "serve exited uncleanly: {status:?}");
            let mut rest = String::new();
            std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("drain stdout");
            assert!(
                rest.contains("shut down cleanly"),
                "missing clean-shutdown line in {rest:?}"
            );
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "et-crash-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// Runs `count` interactions with hosted labels, returning how many
    /// `labeled` acknowledgements came back.
    fn drive_acked(client: &mut Client, session: u64, count: usize) -> usize {
        let mut acked = 0;
        for _ in 0..count {
            let reply = client.next_pairs(session).expect("next_pairs");
            assert_eq!(
                reply.get("reply").and_then(Json::as_str),
                Some("pairs"),
                "expected a presentation"
            );
            client.submit_labels(session, None).expect("submit_labels");
            acked += 1;
        }
        acked
    }

    fn status_field_bits(status: &Json, key: &str) -> Vec<u64> {
        status
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("status missing array {key:?}"))
            .iter()
            .map(|v| v.as_f64().expect("numeric element").to_bits())
            .collect()
    }

    #[test]
    fn killed_server_recovers_every_acknowledged_label_bit_identically() {
        let spec = CreateSessionSpec {
            rows: 120,
            iterations: 10,
            seed: Some(4242),
            ..CreateSessionSpec::default()
        };
        let data_dir = scratch_dir("kill9");

        // --- run 1: create, ack 4 labels, then kill -9 mid-stream. ---
        let server = ServerProc::spawn(&data_dir);
        assert_eq!(server.recovered, 0, "fresh data dir recovers nothing");
        let mut client = Client::connect(&server.addr).expect("connect");
        let (session, seed) = client.create_session(&spec).expect("create");
        assert_eq!(seed, 4242, "explicit seed is echoed");
        let mut acked = drive_acked(&mut client, session, 4);
        server.kill9();

        // --- run 2: recover, check nothing acknowledged was lost, ack 3
        // more, kill again (this time past a snapshot boundary). ---
        let server = ServerProc::spawn(&data_dir);
        assert_eq!(server.recovered, 1, "the journaled session comes back");
        let mut client = Client::connect(&server.addr).expect("connect");
        let status = client.status(Some(session)).expect("status");
        let done = status
            .get("iterations_done")
            .and_then(Json::as_u64)
            .expect("iterations_done") as usize;
        assert!(
            done >= acked,
            "lost acknowledged labels: {done} recovered < {acked} acked"
        );
        // The server may have applied a label it never got to acknowledge;
        // resync our count to what actually survived.
        acked = done;
        acked += drive_acked(&mut client, session, 3);
        server.kill9();

        // --- run 3: recover again and drive to completion. ---
        let server = ServerProc::spawn(&data_dir);
        assert_eq!(server.recovered, 1);
        let mut client = Client::connect(&server.addr).expect("connect");
        let status = client.status(Some(session)).expect("status");
        let done = status
            .get("iterations_done")
            .and_then(Json::as_u64)
            .expect("iterations_done") as usize;
        assert!(
            done >= acked,
            "lost acknowledged labels: {done} recovered < {acked} acked"
        );
        loop {
            let reply = client.next_pairs(session).expect("next_pairs");
            match reply.get("reply").and_then(Json::as_str) {
                Some("pairs") => {
                    client.submit_labels(session, None).expect("submit_labels");
                }
                Some("done") => break,
                other => panic!("unexpected reply kind {other:?}"),
            }
        }

        // --- the money shot: twice-crashed == uninterrupted batch. ---
        let status = client.status(Some(session)).expect("final status");
        let wire_mae = status_field_bits(&status, "mae_series");
        let wire_learner = status_field_bits(&status, "learner_confidences");
        let wire_trainer = status_field_bits(&status, "trainer_confidences");

        let mut parts = build_parts(&spec, seed).expect("batch parts");
        let batch = run_session(
            &parts.table,
            parts.space.clone(),
            &parts.dirty_rows,
            parts.cfg.clone(),
            &mut parts.trainer,
            &mut parts.learner,
        );
        let batch_mae: Vec<u64> = batch.metrics.iter().map(|m| m.mae.to_bits()).collect();
        let batch_learner: Vec<u64> = parts
            .learner
            .confidences()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let batch_trainer: Vec<u64> = parts
            .trainer
            .belief()
            .confidences()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(wire_mae, batch_mae, "MAE curve diverged from batch");
        assert_eq!(wire_learner, batch_learner, "learner belief diverged");
        assert_eq!(wire_trainer, batch_trainer, "trainer belief diverged");

        // Clean exit exercises the flush-all path; closing first would
        // delete the session dir, so shut down with it still live.
        server.shutdown(&mut client);
        std::fs::remove_dir_all(&data_dir).ok();
    }

    /// One raw request line and its raw reply line, newline included.
    fn raw_call(reader: &mut BufReader<std::net::TcpStream>, line: &str) -> String {
        use std::io::Write;
        reader
            .get_mut()
            .write_all(line.as_bytes())
            .expect("write request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "connection closed: {reply:?}");
        reply
    }

    #[test]
    fn every_session_answers_its_first_status_after_a_kill_unchanged() {
        const SESSIONS: usize = 16;
        let data_dir = scratch_dir("kill9-many");
        let server = ServerProc::spawn(&data_dir);
        let stream = std::net::TcpStream::connect(&server.addr).expect("connect");
        let mut conn = BufReader::new(stream);
        let mut before = Vec::new();
        for i in 0..SESSIONS {
            let created = raw_call(
                &mut conn,
                "{\"op\":\"create_session\",\"rows\":60,\"iterations\":8}\n",
            );
            let session = Json::parse(created.trim())
                .ok()
                .and_then(|v| v.get("session").and_then(Json::as_u64))
                .unwrap_or_else(|| panic!("create failed: {created}"));
            // Mixed round counts, 0 to 5, across the snapshot cadence of 3.
            for _ in 0..i % 6 {
                let pairs = raw_call(
                    &mut conn,
                    &format!("{{\"op\":\"next_pairs\",\"session\":{session}}}\n"),
                );
                assert!(pairs.contains("\"reply\":\"pairs\""), "{pairs}");
                let labeled = raw_call(
                    &mut conn,
                    &format!("{{\"op\":\"submit_labels\",\"session\":{session}}}\n"),
                );
                assert!(labeled.contains("\"reply\":\"labeled\""), "{labeled}");
            }
            let status = format!("{{\"op\":\"status\",\"session\":{session}}}\n");
            before.push((status.clone(), raw_call(&mut conn, &status)));
        }
        server.kill9();

        let server = ServerProc::spawn(&data_dir);
        assert_eq!(server.recovered, SESSIONS, "every directory is registered");
        let stream = std::net::TcpStream::connect(&server.addr).expect("connect");
        let mut conn = BufReader::new(stream);
        for (request, want) in &before {
            assert!(want.starts_with("{\"ok\":true"), "{want}");
            assert_eq!(&raw_call(&mut conn, request), want, "{request}");
        }
        server.kill9();
        std::fs::remove_dir_all(&data_dir).ok();
    }
}
