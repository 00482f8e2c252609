//! `et-serve` — exploratory-training sessions as a network service.
//!
//! The paper's setting is interactive: a trainer labels the pairs an
//! active learner presents, one interaction at a time. The rest of the
//! workspace runs that dialogue as a closed in-process loop
//! ([`et_core::run_session`]); this crate opens it up over TCP so a real
//! annotator — or a remote load generator — can drive a session
//! incrementally.
//!
//! The pieces, bottom-up:
//!
//! * [`json`] — a hand-rolled JSON value/encoder/parser (the build
//!   resolves crates offline, so no serde). Number encoding is
//!   shortest-round-trip, which makes wire-reported metrics *exactly*
//!   comparable to batch results.
//! * [`protocol`] — the newline-delimited request/response grammar with
//!   typed error codes; replies stream straight into bytes
//!   ([`Response::encode_into`]), with no intermediate JSON tree.
//! * [`spec`] — `(spec, seed) → session parts`, the pure build pipeline
//!   shared by the server and the batch reference path.
//! * [`store`] — the sharded, capacity-bounded live-session map with
//!   idle-timeout eviction; journaled sessions are registered at start
//!   and revived on their first request.
//! * [`event`] — the std-only readiness machinery: an epoll FFI shim,
//!   eventfd waker, and `SO_REUSEPORT` listener fan-out.
//! * [`conn`] — per-connection state for the event loop: newline
//!   framing over non-blocking reads and a buffered write side.
//! * [`server`] — the readiness event loop, whose shards each accept on
//!   their own `SO_REUSEPORT` listener, run their connections' rounds and
//!   sweep them once a tick to close the idle ones, the worker pool that builds sessions (creates and revives), and
//!   graceful shutdown.
//! * [`client`] — a small blocking client used by the example and the
//!   integration tests.
//! * [`loadgen`] — an open-loop load generator over the same poller,
//!   feeding the `bench_serve` harness.
//!
//! The crate is Linux-only and has one transport: the epoll event loop.
//! There is no portable fallback; porting means giving [`event`] a
//! kqueue (or similar) backend.
//!
//! Protocol grammar and the session state machine are documented in
//! DESIGN.md §9; the event loop in DESIGN.md §16.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests assert values the code computes exactly; library code stays linted"
    )
)]
#![cfg_attr(
    test,
    expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "unit tests cast small fixture indices and sizes; library casts state their bound at the site"
    )
)]

pub mod client;
pub mod conn;
pub mod durability;
pub mod event;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod spec;
pub mod store;

pub use client::{Client, ClientError, DriveOutcome};
pub use conn::{LineFramer, DEFAULT_MAX_LINE_BYTES};
pub use durability::{read_meta, session_dir_name, write_meta, SessionMeta};
pub use json::{Json, JsonError};
pub use loadgen::{run_in_process, run_load, InProcessLoad, LoadConfig, LoadReport};
pub use protocol::{ErrorCode, MaeHistory, Request, Response, StatusReply, WirePair};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use spec::{build_parts, derive_seed, run_batch, CreateSessionSpec, SessionParts};
pub use store::{
    LatencyHistogram, LatencySummary, RecoveryReport, SessionStore, StoreConfig, StoreError,
};
