//! The three workloads, driven over one closed-loop connection, and the
//! checks of their outputs.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use et_core::StrategyKind;
use et_data::gen::DatasetName;
use et_serve::{run_batch, CreateSessionSpec, Json, Request};

use crate::server::{RawClient, Server};
use crate::speed::CpuSpeed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long in-memory Hospital-1000 sessions created in setup, then only
    /// `next_pairs` + `submit_labels` (and a `status` every tenth round).
    RoundsHospital,
    /// Journaled OMDB-160 sessions with a `status` after every round,
    /// beside timed restarts on the data directory of a SIGKILLed server.
    DurableOmdb,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "rounds-hospital" => Some(Workload::RoundsHospital),
            "durable-omdb" => Some(Workload::DurableOmdb),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoundsHospital => "rounds-hospital",
            Workload::DurableOmdb => "durable-omdb",
        }
    }
}

/// Everything that fixes a workload's traffic. The session seeds are a
/// pure function of the workload seed, so a seed names identical work on
/// any commit.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The create spec every session uses (its `seed` is set per session).
    pub spec: CreateSessionSpec,
    /// Journaled store (`--data-dir`, `--fsync never`, `--snapshot-every`).
    pub durable: bool,
    pub snapshot_every: usize,
    /// Sessions created before the measured phase.
    pub setup_sessions: usize,
    /// The fixed work of the measured phase, in rounds.
    pub work: usize,
    /// The in-process traced pass replays the wire ops of the first
    /// `replay_sessions` sessions, at most `replay_max_ops` of them.
    pub replay_sessions: usize,
    pub replay_max_ops: usize,
}

/// Points spread through the measured phase where spawns and restarts
/// are timed, so that those times sample the whole run, not one moment.
pub const SPAWN_PROBES: usize = 15;
/// Sessions `durable-omdb` drives side by side in the measured phase.
const OMDB_SLOTS: usize = 16;
/// Sessions open at the crash of `durable-omdb`.
const CRASH_SESSIONS: usize = 16;
/// Where in the seed list the crash sessions start.
const CRASH_SEED_BASE: u64 = 1 << 32;

/// SplitMix64 finaliser: one independent stream per `(base, index)`.
pub fn mix(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nominal measured-phase rates on a 2-vCPU host, used only to size the
/// fixed work of a run so that it takes about `--seconds` there.
const HOSPITAL_ROUNDS_PER_S: usize = 1050;
const OMDB_ROUNDS_PER_S: usize = 900;
/// Hospital-1000 sessions created in set-up, at least.
const HOSPITAL_SESSIONS: usize = 36;
/// The candidate pool of a Hospital-1000 table runs dry after about 410
/// rounds, so no session is asked for more than this.
const HOSPITAL_MAX_ROUNDS: usize = 400;

impl Plan {
    /// The plan for `workload`: a pure function of `seed` and `seconds`,
    /// so both fix identical work on any commit.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let seconds = seconds.max(1) as usize;
        let base = CreateSessionSpec {
            strategy: StrategyKind::StochasticBestResponse,
            ..CreateSessionSpec::default()
        };
        match workload {
            Workload::RoundsHospital => {
                let rounds = seconds * HOSPITAL_ROUNDS_PER_S;
                let sessions = HOSPITAL_SESSIONS.max(rounds.div_ceil(HOSPITAL_MAX_ROUNDS));
                let per_session = rounds.div_ceil(sessions).min(HOSPITAL_MAX_ROUNDS);
                Plan {
                    workload,
                    seed,
                    spec: CreateSessionSpec {
                        dataset: DatasetName::Hospital,
                        rows: 1000,
                        iterations: per_session,
                        ..base
                    },
                    durable: false,
                    snapshot_every: 0,
                    setup_sessions: sessions,
                    work: sessions * per_session,
                    replay_sessions: 2,
                    replay_max_ops: usize::MAX,
                }
            }
            Workload::DurableOmdb => Plan {
                workload,
                seed,
                spec: CreateSessionSpec {
                    dataset: DatasetName::Omdb,
                    rows: 160,
                    iterations: 30,
                    ..base
                },
                durable: true,
                // One snapshot in a 30-round session (3% of submits), so
                // submit p50 and p90 both sit on WAL appends. Snapshot
                // submits create and rename a file, and on the shared disk
                // their time follows the disk's recent load (README.md).
                snapshot_every: 16,
                setup_sessions: 0,
                work: seconds * OMDB_ROUNDS_PER_S,
                replay_sessions: 16,
                replay_max_ops: 900,
            },
        }
    }

    /// The spec of the `j`-th session of the seed list.
    pub fn session_spec(&self, j: u64) -> CreateSessionSpec {
        let salt = match self.workload {
            Workload::RoundsHospital => 0x0001_0000,
            Workload::DurableOmdb => 0x0003_0000,
        };
        CreateSessionSpec {
            seed: Some(mix(self.seed ^ salt, j) >> 11),
            ..self.spec.clone()
        }
    }

    pub fn server_args(&self, data_dir: &Path) -> Vec<String> {
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--shards",
            "1",
            "--capacity",
            "4096",
            "--idle-timeout-secs",
            "3600",
            "--conn-idle-timeout-secs",
            "3600",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.durable {
            args.extend([
                "--data-dir".to_string(),
                data_dir.display().to_string(),
                "--fsync".to_string(),
                "never".to_string(),
                "--snapshot-every".to_string(),
                self.snapshot_every.to_string(),
            ]);
        }
        args
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Create,
    NextPairs,
    Submit,
    Status,
    Close,
}

/// One wire request as sent, with its measured latency and a fingerprint of
/// its reply.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// Index into the seed list.
    pub sess: usize,
    /// Server-assigned session id (0 for a failed create).
    pub id: u64,
    pub ms: f64,
    pub reply_hash: u64,
    pub reply_bytes: usize,
    /// Tuples presented (pairs replies only).
    pub sample_tuples: usize,
    /// False for setup creates.
    pub measured: bool,
    /// Send time, seconds since the measured phase began (negative in
    /// set-up).
    pub at_s: f64,
}

/// What the client learned about one session.
#[derive(Debug, Clone, Default)]
pub struct SessionTrack {
    pub id: u64,
    /// Position in the seed list (`Plan::session_spec`).
    pub seed_index: u64,
    pub created: bool,
    /// Per-round MAE from the `labeled` replies, in order.
    pub maes: Vec<f64>,
    /// `next_pairs` answered `done`.
    pub done: bool,
    pub closed: bool,
}

/// FNV-1a over the reply bytes.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The request line for `kind` on session `id` (`spec` for creates).
pub fn request_line(kind: Kind, id: u64, spec: &CreateSessionSpec) -> String {
    let req = match kind {
        Kind::Create => Request::Create(spec.clone()),
        Kind::NextPairs => Request::NextPairs { session: id },
        Kind::Submit => Request::SubmitLabels {
            session: id,
            labels: None,
        },
        Kind::Status => Request::Status { session: Some(id) },
        Kind::Close => Request::Close { session: id },
    };
    req.to_json().encode()
}

/// Counts the elements of the `"sample"` array of a pairs reply without
/// parsing the reply.
fn sample_len(reply: &str) -> usize {
    let Some(at) = reply.find("\"sample\":[") else {
        return 0;
    };
    let rest = &reply[at + 10..];
    let body = &rest[..rest.find(']').unwrap_or(0)];
    if body.is_empty() {
        0
    } else {
        body.bytes().filter(|&b| b == b',').count() + 1
    }
}

/// The closed-loop wire client and everything it recorded.
pub struct Wire<'p> {
    plan: &'p Plan,
    client: RawClient,
    pub ops: Vec<Op>,
    pub sessions: Vec<SessionTrack>,
    pub error_replies: usize,
    /// Requests sent, logged or not.
    pub sent: usize,
    /// Whether `send` records ops (off while preparing the crash).
    logging: bool,
    measuring: bool,
    epoch: Instant,
    /// The CPU's speed, probed between logged ops of the measured phase
    /// (`speed`) and of set-up (`setup_speed`).
    pub speed: CpuSpeed,
    pub setup_speed: CpuSpeed,
}

impl<'p> Wire<'p> {
    pub fn new(plan: &'p Plan, server: &Server) -> Result<Wire<'p>, String> {
        Ok(Wire {
            plan,
            client: RawClient::connect(&server.addr)?,
            ops: Vec::new(),
            sessions: Vec::new(),
            error_replies: 0,
            sent: 0,
            logging: true,
            measuring: false,
            epoch: Instant::now(),
            speed: CpuSpeed::new(),
            setup_speed: CpuSpeed::new(),
        })
    }

    fn send(&mut self, kind: Kind, sess: usize) -> Result<String, String> {
        let (id, seed_index) = self
            .sessions
            .get(sess)
            .map_or((0, sess as u64), |s| (s.id, s.seed_index));
        let line = request_line(kind, id, &self.plan.session_spec(seed_index));
        let at_s = self.epoch.elapsed().as_secs_f64();
        let (reply, ms) = self.client.call(&line)?;
        self.sent += 1;
        // Off the clock from here on.
        let ok = reply.starts_with("{\"ok\":true");
        if !ok {
            self.error_replies += 1;
            eprintln!("roundbench: error reply to {kind:?} on session {sess}: {reply}");
        }
        if !self.logging {
            return Ok(reply);
        }
        if self.measuring {
            self.speed.tick();
        } else {
            self.setup_speed.tick();
        }
        let sample_tuples = if kind == Kind::NextPairs {
            sample_len(&reply)
        } else {
            0
        };
        self.ops.push(Op {
            kind,
            sess,
            id,
            ms,
            reply_hash: fingerprint(reply.as_bytes()),
            reply_bytes: reply.len(),
            sample_tuples,
            measured: self.measuring,
            at_s,
        });
        Ok(reply)
    }

    fn create(&mut self, sess: usize) -> Result<(), String> {
        self.create_from(sess, sess as u64)
    }

    /// Creates session `sess` with the spec at `seed_index` of the seed
    /// list.
    fn create_from(&mut self, sess: usize, seed_index: u64) -> Result<(), String> {
        if self.sessions.len() <= sess {
            self.sessions.resize(sess + 1, SessionTrack::default());
        }
        self.sessions[sess].seed_index = seed_index;
        let reply = self.send(Kind::Create, sess)?;
        let id = Json::parse(&reply)
            .ok()
            .and_then(|v| v.get("session").and_then(Json::as_u64));
        if let Some(op) = self.ops.last_mut() {
            op.id = id.unwrap_or(0);
        }
        let track = &mut self.sessions[sess];
        track.id = id.unwrap_or(0);
        track.created = id.is_some();
        track.done = id.is_none();
        Ok(())
    }

    /// One round: `next_pairs`, then `submit_labels` with the hosted
    /// annotator's labels. Returns false when the session had no more
    /// presentations.
    fn round(&mut self, sess: usize) -> Result<bool, String> {
        let reply = self.send(Kind::NextPairs, sess)?;
        if !reply.starts_with("{\"ok\":true,\"reply\":\"pairs\"") {
            self.sessions[sess].done = true;
            return Ok(false);
        }
        let reply = self.send(Kind::Submit, sess)?;
        let mae = Json::parse(&reply).ok().and_then(|v| {
            v.get("metrics")
                .and_then(|m| m.get("mae"))
                .and_then(Json::as_f64)
        });
        match mae {
            Some(m) => self.sessions[sess].maes.push(m),
            None => self.sessions[sess].done = true,
        }
        Ok(mae.is_some())
    }

    fn status(&mut self, sess: usize) -> Result<String, String> {
        self.send(Kind::Status, sess)
    }

    fn close(&mut self, sess: usize) -> Result<(), String> {
        self.send(Kind::Close, sess)?;
        self.sessions[sess].closed = true;
        Ok(())
    }

    /// Sessions created before the measured phase; returns their summed
    /// create latency in seconds.
    pub fn setup(&mut self) -> Result<f64, String> {
        let start = self.ops.len();
        for j in 0..self.plan.setup_sessions {
            self.create(j)?;
        }
        Ok(self.ops[start..].iter().map(|o| o.ms / 1e3).sum())
    }

    /// The measured phase: the plan's fixed work. `cap` is a safety limit
    /// only; a phase it cuts short is an error, since the run would then
    /// measure different work on a faster or slower commit. `probe` runs
    /// between two ops at `SPAWN_PROBES` evenly spaced points of the work.
    /// Returns completed rounds.
    pub fn measure(
        &mut self,
        cap: Duration,
        probe: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<usize, String> {
        self.measuring = true;
        self.epoch = Instant::now();
        let deadline = self.epoch + cap;
        let in_time = || -> Result<(), String> {
            if Instant::now() < deadline {
                Ok(())
            } else {
                Err(format!(
                    "the measured phase passed its {:.0} s cap before its fixed work was done",
                    cap.as_secs_f64()
                ))
            }
        };
        let plan = self.plan;
        let mut next_probe = 0usize;
        let mut probe_at = |done: usize| -> Result<(), String> {
            while next_probe < SPAWN_PROBES
                && 2 * done * SPAWN_PROBES >= (2 * next_probe + 1) * plan.work
            {
                probe()?;
                next_probe += 1;
            }
            Ok(())
        };
        let mut rounds = 0usize;
        match plan.workload {
            Workload::RoundsHospital => {
                // Every session runs to its `iterations`, round-robin.
                let mut live: Vec<usize> = (0..plan.setup_sessions)
                    .filter(|&j| self.sessions[j].created)
                    .collect();
                let mut i = 0usize;
                while !live.is_empty() {
                    in_time()?;
                    i %= live.len();
                    let j = live[i];
                    if !self.round(j)? {
                        live.remove(i);
                        continue;
                    }
                    rounds += 1;
                    probe_at(rounds)?;
                    if self.sessions[j].maes.len().is_multiple_of(10) {
                        self.status(j)?;
                    }
                    i += 1;
                }
            }
            Workload::DurableOmdb => {
                // Slot s joins at pass s, so sessions sit at every phase of
                // the snapshot cadence throughout the phase.
                let mut slots: Vec<Option<usize>> = vec![None; OMDB_SLOTS];
                let mut next = 0usize;
                let mut pass = 0usize;
                'run: loop {
                    for (s, slot) in slots.iter_mut().enumerate() {
                        if s > pass {
                            continue;
                        }
                        if rounds >= plan.work {
                            break 'run;
                        }
                        in_time()?;
                        let j = match *slot {
                            Some(j) => j,
                            None => {
                                self.create(next)?;
                                next += 1;
                                if !self.sessions[next - 1].created {
                                    continue;
                                }
                                *slot = Some(next - 1);
                                next - 1
                            }
                        };
                        if self.round(j)? {
                            rounds += 1;
                            probe_at(rounds)?;
                        }
                        self.status(j)?;
                        let t = &self.sessions[j];
                        if t.done || t.maes.len() >= plan.spec.iterations {
                            self.close(j)?;
                            *slot = None;
                        }
                    }
                    pass += 1;
                }
            }
        }
        probe_at(plan.work)?;
        self.measuring = false;
        Ok(rounds)
    }

    /// Drives a fresh server to a fixed set of sessions to crash:
    /// `CRASH_SESSIONS` sessions, from a part of the seed list the measured
    /// phase never reaches, to fixed round counts: nine before their first
    /// snapshot and seven after it. Nothing here is logged. Returns the
    /// sessions.
    pub fn prepare_crash(&mut self) -> Result<Vec<usize>, String> {
        self.logging = false;
        let mut crash = Vec::with_capacity(CRASH_SESSIONS);
        for i in 0..CRASH_SESSIONS {
            self.create_from(i, CRASH_SEED_BASE + i as u64)?;
            if !self.sessions[i].created {
                continue;
            }
            for _ in 0..1 + (7 * i) % (self.plan.spec.iterations - 1) {
                if !self.round(i)? {
                    break;
                }
            }
            crash.push(i);
        }
        self.logging = true;
        Ok(crash)
    }

    /// Status lines of `sessions`, read off the clock and not logged. Error
    /// replies are counted like any other.
    pub fn statuses(&mut self, sessions: &[usize]) -> Result<Vec<String>, String> {
        let logging = std::mem::replace(&mut self.logging, false);
        let out = sessions.iter().map(|&j| self.status(j)).collect();
        self.logging = logging;
        out
    }
}

/// Re-reads `sessions`' status from a restarted server and counts lines
/// that differ from `before`.
pub fn check_recovered(
    plan: &Plan,
    server: &Server,
    wire_sessions: &[SessionTrack],
    sessions: &[usize],
    before: &[String],
) -> Result<usize, String> {
    let mut client = RawClient::connect(&server.addr)?;
    let mut mismatches = 0usize;
    for (&j, want) in sessions.iter().zip(before) {
        let line = request_line(Kind::Status, wire_sessions[j].id, &plan.spec);
        let (got, _) = client.call(&line)?;
        // An error before the kill is no reference, even if the restarted
        // server repeats it.
        if !want.starts_with("{\"ok\":true") || &got != want {
            mismatches += 1;
            eprintln!("roundbench: session {j} status after restart differs:\n  before {want}\n  after  {got}");
        }
    }
    Ok(mismatches)
}

/// Compares every session's wire MAE series with the batch reference
/// `run_batch(spec, seed)`, on two threads. Returns (checked, mismatches).
pub fn check_against_batch(plan: &Plan, sessions: &[SessionTrack]) -> (usize, usize) {
    let todo: Vec<usize> = (0..sessions.len())
        .filter(|&j| sessions[j].created)
        .collect();
    let check = |j: usize| -> bool {
        let spec = plan.session_spec(sessions[j].seed_index);
        let seed = spec.seed.unwrap_or(0);
        let Ok(batch) = run_batch(&spec, seed) else {
            eprintln!("roundbench: batch reference for session {j} failed to build");
            return false;
        };
        let wire = &sessions[j].maes;
        let same_prefix = wire.len() <= batch.metrics.len()
            && wire
                .iter()
                .zip(&batch.metrics)
                .all(|(w, b)| w.to_bits() == b.mae.to_bits());
        let same_end = !sessions[j].done || wire.len() == batch.metrics.len();
        if !(same_prefix && same_end) {
            eprintln!(
                "roundbench: session {j} MAE series differs from batch ({} wire rounds, {} batch)",
                wire.len(),
                batch.metrics.len()
            );
        }
        same_prefix && same_end
    };
    let bad: usize = std::thread::scope(|scope| {
        let halves: Vec<_> = [0usize, 1]
            .iter()
            .map(|&h| {
                let todo = &todo;
                let check = &check;
                scope.spawn(move || {
                    todo.iter()
                        .skip(h)
                        .step_by(2)
                        .filter(|&&j| !check(j))
                        .count()
                })
            })
            .collect();
        halves
            .into_iter()
            .map(|t| t.join().unwrap_or(todo.len()))
            .sum()
    });
    (todo.len(), bad)
}

/// A fresh, empty directory under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
