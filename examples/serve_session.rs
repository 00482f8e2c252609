//! Service-layer walkthrough: start the session server in-process, drive
//! one exploratory-training session over TCP as a wire client, and verify
//! the reported MAE curve equals a batch `run_session` with the same seed
//! — exactly, not approximately.
//!
//! ```text
//! cargo run --release --example serve_session
//! ```
//!
//! The same dialogue works against a standalone server:
//! `cargo run --release -p et-serve --bin serve -- --addr 127.0.0.1:7171`.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "example code favours direct `expect` and `panic!` over error plumbing"
)]

use exploratory_training::game::StrategyKind;
use exploratory_training::serve::{
    run_batch, spawn, Client, CreateSessionSpec, Json, ServerConfig,
};

fn main() {
    // 1. An in-process server on an ephemeral port. The `serve` binary
    //    wraps exactly this call.
    let handle = spawn(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    println!("server listening on {addr}");

    // 2. Create a session over the wire. Every request and response is one
    //    line of JSON; the client below is a thin convenience over that.
    let spec = CreateSessionSpec {
        rows: 140,
        iterations: 8,
        strategy: StrategyKind::StochasticBestResponse,
        seed: Some(41),
        ..CreateSessionSpec::default()
    };
    println!(
        "-> {}",
        exploratory_training::serve::Request::Create(spec.clone())
            .to_json()
            .encode()
    );
    let mut client = Client::connect(&addr).expect("connect");
    let (session, seed) = client.create_session(&spec).expect("create session");
    println!("<- session {session} created (seed {seed})");

    // 3. The annotation loop: ask for pairs, look at them, submit labels.
    //    Omitting `labels` delegates to the hosted simulated annotator,
    //    which reproduces the batch loop bit for bit; a real annotator
    //    would send `{"labels": [true, false, ...]}` instead.
    let mut mae_series = Vec::new();
    loop {
        let reply = client.next_pairs(session).expect("next_pairs");
        match reply.get("reply").and_then(Json::as_str) {
            Some("pairs") => {
                let t = reply.get("t").and_then(Json::as_u64).expect("t");
                let shown = reply
                    .get("tuples")
                    .and_then(Json::as_array)
                    .map_or(0, <[Json]>::len);
                let labeled = client.submit_labels(session, None).expect("submit");
                let mae = labeled
                    .get("metrics")
                    .and_then(|m| m.get("mae"))
                    .and_then(Json::as_f64)
                    .expect("mae");
                println!("iteration {t}: {shown} tuples labeled, MAE {mae:.4}");
                mae_series.push(mae);
            }
            Some("done") => {
                let final_mae = reply
                    .get("final_mae")
                    .and_then(Json::as_f64)
                    .expect("final_mae");
                println!("session done, final MAE {final_mae:.4}");
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    client.close_session(session).expect("close");

    // 4. The reproducibility guarantee: the wire-driven curve IS the batch
    //    curve — same seed, same bits (JSON numbers encode
    //    shortest-round-trip, so no precision is lost in transit).
    let batch = run_batch(&spec, seed).expect("batch reference");
    assert_eq!(
        mae_series,
        batch.mae_series(),
        "wire and batch curves must match exactly"
    );
    println!(
        "wire curve matches batch run_session exactly ({} iterations)",
        mae_series.len()
    );

    // 5. Graceful shutdown over the wire.
    client.shutdown_server().expect("shutdown");
    handle.wait();
    println!("server shut down cleanly");
}
