//! Crash recovery is bit-identical to never crashing.
//!
//! For every strategy kind: a session journaled to disk, interrupted
//! mid-stream (state dropped, only the WAL + snapshots survive), recovered
//! via [`et_core::recover_session`], and driven to completion must produce
//! the exact same result — metric for metric, bit for bit — as the same
//! session run uninterrupted with no journal at all. The session keeps no
//! transcript, so the rounds are compared as the step API shows them: the
//! presented pairs and sample, and the labels applied.

#![expect(
    clippy::indexing_slicing,
    reason = "the resume point lies inside the baseline's rounds, and the version-2 history offset inside the payload it splits"
)]
// Test harness: expect over error plumbing.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::{
    recover_session, FpTrainer, JournalConfig, Learner, PairExample, ResponseStrategy,
    SessionConfig, SessionJournal, SessionResult, SessionState, StrategyKind,
};
use et_data::gen::omdb;
use et_data::{inject_errors, InjectConfig, Table};
use et_durable::{snapshot, Dec, Enc, FsyncPolicy};
use et_fd::{Fd, HypothesisSpace};

fn tempdir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("et-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture() -> (Table, Vec<bool>, Arc<HypothesisSpace>) {
    let mut ds = omdb(200, 11);
    let specs = ds.exact_fds.clone();
    let inj = inject_errors(
        &mut ds.table,
        &specs,
        &[],
        &InjectConfig::with_degree(0.12, 5),
    );
    let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 20, 3, &pinned));
    (ds.table, inj.dirty_rows, space)
}

fn agents(kind: StrategyKind, table: &Table, space: &Arc<HypothesisSpace>) -> (FpTrainer, Learner) {
    let prior_cfg = PriorConfig::weak();
    let trainer_prior = build_prior(&PriorSpec::Random { seed: 3 }, &prior_cfg, space, table);
    let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, space, table);
    let trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
    let learner = Learner::new(
        learner_prior,
        ResponseStrategy::paper(kind),
        EvidenceConfig::default(),
        7,
    );
    (trainer, learner)
}

fn session_cfg() -> SessionConfig {
    SessionConfig {
        iterations: 12,
        ..SessionConfig::default()
    }
}

fn journal_cfg() -> JournalConfig {
    JournalConfig {
        // Never: these tests assert logical replay, not storage durability
        // (the kill -9 harness in et-serve covers fsync semantics), and
        // skipping fdatasync keeps 8 strategy kinds fast.
        fsync: FsyncPolicy::Never,
        // Small cadence so a 12-iteration run exercises snapshot + suffix
        // replay, not just one of them.
        snapshot_every: 3,
    }
}

fn fresh_state(
    kind: StrategyKind,
    table: &Table,
    dirty: &[bool],
    space: &Arc<HypothesisSpace>,
) -> (SessionState, FpTrainer, Learner) {
    let (trainer, learner) = agents(kind, table, space);
    let state = SessionState::new(
        table.clone(),
        space.clone(),
        dirty,
        session_cfg(),
        &trainer,
        &learner,
    )
    .expect("valid config");
    (state, trainer, learner)
}

/// One round as the step API shows it: the presented pairs and sample, and
/// the labels applied.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Round {
    pairs: Vec<PairExample>,
    sample: Vec<usize>,
    labels: Vec<bool>,
}

/// Plays one round on `state` (presenting it unless a presentation is
/// already pending), labeled by `trainer`, and returns it; `None` once the
/// session is complete.
fn play_round(
    state: &mut SessionState,
    trainer: &mut FpTrainer,
    learner: &mut Learner,
) -> Option<Round> {
    if state.pending().is_none() && state.present(learner).expect("present").is_none() {
        return None;
    }
    let pending = state.pending().expect("pending");
    let (pairs, sample) = (pending.pairs().to_vec(), pending.sample().to_vec());
    let labels = state.label_pending(trainer).expect("pending");
    let _ = state
        .apply_labels(trainer, learner, &labels)
        .expect("aligned");
    Some(Round {
        pairs,
        sample,
        labels,
    })
}

/// Drives `state` to completion, snapshotting on cadence like a real host,
/// and returns the rounds it played.
fn drive_to_completion(
    state: &mut SessionState,
    trainer: &mut FpTrainer,
    learner: &mut Learner,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    while let Some(round) = play_round(state, trainer, learner) {
        rounds.push(round);
        state.maybe_snapshot(trainer, learner).expect("snapshot");
    }
    rounds
}

/// Phase 1 of a crash test: a journaled session plays `rounds` rounds,
/// snapshotting on cadence, and syncs its WAL; then state, trainer and
/// learner are all dropped, as in a crash. Returns the rounds it played.
fn journaled_then_crash(
    kind: StrategyKind,
    table: &Table,
    dirty: &[bool],
    space: &Arc<HypothesisSpace>,
    dir: &Path,
    rounds: usize,
) -> Vec<Round> {
    let (mut state, mut trainer, mut learner) = fresh_state(kind, table, dirty, space);
    let journal = SessionJournal::create(dir, journal_cfg()).expect("create journal");
    state.attach_journal(journal);
    let mut played = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        played.push(play_round(&mut state, &mut trainer, &mut learner).expect("a round to play"));
        state.maybe_snapshot(&trainer, &learner).expect("snapshot");
    }
    state.sync_journal().expect("sync");
    played
}

/// The uninterrupted run: its result and every round it played.
struct Baseline {
    result: SessionResult,
    rounds: Vec<Round>,
}

fn baseline(
    kind: StrategyKind,
    table: &Table,
    dirty: &[bool],
    space: &Arc<HypothesisSpace>,
) -> Baseline {
    let (mut state, mut trainer, mut learner) = fresh_state(kind, table, dirty, space);
    let rounds = drive_to_completion(&mut state, &mut trainer, &mut learner);
    Baseline {
        result: state.into_result(),
        rounds,
    }
}

/// Asserts that a session recovered at round `resumed_at`, which then
/// played `rounds` and ended with `got`, matches the uninterrupted run:
/// the baseline's rounds from `resumed_at` on, and the same result.
fn assert_bit_identical(
    kind: StrategyKind,
    resumed_at: usize,
    rounds: &[Round],
    got: &SessionResult,
    want: &Baseline,
) {
    assert_eq!(
        rounds,
        &want.rounds[resumed_at..],
        "{}: the rounds after recovery diverged",
        kind.as_str()
    );
    let want = &want.result;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.mae_series()),
        bits(&want.mae_series()),
        "{}: MAE series diverged",
        kind.as_str()
    );
    assert_eq!(
        bits(&got.trainer_confidences),
        bits(&want.trainer_confidences),
        "{}: trainer confidences diverged",
        kind.as_str()
    );
    assert_eq!(
        bits(&got.learner_confidences),
        bits(&want.learner_confidences),
        "{}: learner confidences diverged",
        kind.as_str()
    );
    assert_eq!(
        got.metrics.len(),
        want.metrics.len(),
        "{}: metrics length diverged",
        kind.as_str()
    );
    for (g, w) in got.metrics.iter().zip(&want.metrics) {
        assert_eq!(
            g.policy_entropy.to_bits(),
            w.policy_entropy.to_bits(),
            "{}: policy entropy at t = {}",
            kind.as_str(),
            g.t
        );
        assert_eq!(
            g.learner_f1.to_bits(),
            w.learner_f1.to_bits(),
            "{}: learner F1 at t = {}",
            kind.as_str(),
            g.t
        );
        assert_eq!(
            g.agreement.to_bits(),
            w.agreement.to_bits(),
            "{}: agreement at t = {}",
            kind.as_str(),
            g.t
        );
    }
    assert_eq!(
        got.convergence.converged_at,
        want.convergence.converged_at,
        "{}: convergence round diverged",
        kind.as_str()
    );
    assert_eq!(
        got.convergence.final_mae.to_bits(),
        want.convergence.final_mae.to_bits(),
        "{}: final MAE diverged",
        kind.as_str()
    );
}

#[test]
fn recovered_mid_stream_is_bit_identical_across_all_strategies() {
    let (table, dirty, space) = fixture();
    for kind in StrategyKind::PAPER_METHODS
        .into_iter()
        .chain(StrategyKind::EXTENSIONS)
    {
        let want = baseline(kind, &table, &dirty, &space);

        let dir = tempdir(&format!("mid-{}", kind.as_str()));
        // Phase 1: journaled session, interrupted after 5 interactions —
        // past one snapshot (t = 3) so recovery exercises snapshot restore
        // *plus* WAL-suffix replay.
        let _ = journaled_then_crash(kind, &table, &dirty, &space, &dir, 5);

        // Phase 2: recover from disk into fresh state + agents, finish.
        let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
        let outcome = recover_session(&dir, journal_cfg(), &mut state, &mut trainer, &mut learner)
            .expect("recover");
        assert_eq!(
            outcome.snapshot_t,
            Some(3),
            "{}: expected restore from the t = 3 snapshot",
            kind.as_str()
        );
        assert_eq!(
            outcome.replayed,
            2,
            "{}: expected 2 replayed WAL records",
            kind.as_str()
        );
        assert_eq!(outcome.truncated_bytes, 0, "{}: clean WAL", kind.as_str());
        assert_eq!(state.iterations_done(), 5, "{}", kind.as_str());
        let rounds = drive_to_completion(&mut state, &mut trainer, &mut learner);
        assert_bit_identical(kind, 5, &rounds, &state.into_result(), &want);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_with_pending_presentation_in_snapshot() {
    // Crash while labels are awaited, after a snapshot captured the pending
    // presentation: recovery must restore the exact outstanding sample.
    let (table, dirty, space) = fixture();
    let kind = StrategyKind::StochasticBestResponse;
    let want = baseline(kind, &table, &dirty, &space);

    let dir = tempdir("pending");
    let pending_sample;
    {
        let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
        let journal = SessionJournal::create(&dir, journal_cfg()).expect("create journal");
        state.attach_journal(journal);
        for _ in 0..4 {
            assert!(play_round(&mut state, &mut trainer, &mut learner).is_some());
        }
        // Present round 5 but never label it; snapshot the limbo state.
        assert!(state.present(&mut learner).expect("present").is_some());
        pending_sample = state.pending().expect("pending").sample().to_vec();
        state.snapshot_now(&trainer, &learner).expect("snapshot");
        state.sync_journal().expect("sync");
    }

    let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
    let outcome = recover_session(&dir, journal_cfg(), &mut state, &mut trainer, &mut learner)
        .expect("recover");
    assert_eq!(outcome.snapshot_t, Some(4));
    assert_eq!(outcome.replayed, 0, "no WAL records past the snapshot");
    assert_eq!(
        state.pending().expect("pending restored").sample(),
        pending_sample.as_slice(),
        "restored pending presentation must match the pre-crash one"
    );
    let rounds = drive_to_completion(&mut state, &mut trainer, &mut learner);
    assert_bit_identical(kind, 4, &rounds, &state.into_result(), &want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_survives_torn_wal_tail_and_corrupt_snapshot() {
    // A torn append at the WAL tail and a checksum-corrupt newest snapshot
    // (the two crash artifacts atomic writes cannot rule out) must both be
    // absorbed: recovery falls back and the completed run stays
    // bit-identical to the uninterrupted baseline.
    let (table, dirty, space) = fixture();
    let kind = StrategyKind::Random;
    let want = baseline(kind, &table, &dirty, &space);

    let dir = tempdir("torn");
    let _ = journaled_then_crash(kind, &table, &dirty, &space, &dir, 7);
    // Torn tail: half a frame of garbage after the last full record.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("labels.wal"))
            .expect("open wal");
        f.write_all(&[0xAB; 7]).expect("append garbage");
    }
    // Corrupt the newest snapshot (t = 6); the t = 3 fallback must be used.
    {
        let snaps = snapshot::list(&dir).expect("list");
        let newest = &snaps.first().expect("snapshots exist").1;
        let mut bytes = std::fs::read(newest).expect("read snapshot");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(newest, &bytes).expect("rewrite snapshot");
    }

    let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
    let outcome = recover_session(&dir, journal_cfg(), &mut state, &mut trainer, &mut learner)
        .expect("recover");
    assert_eq!(outcome.truncated_bytes, 7, "torn tail truncated");
    assert_eq!(
        outcome.snapshot_t,
        Some(3),
        "fell back past corrupt snapshot"
    );
    assert_eq!(outcome.replayed, 4, "rounds 3..7 replayed from the WAL");
    assert_eq!(state.iterations_done(), 7);
    let rounds = drive_to_completion(&mut state, &mut trainer, &mut learner);
    assert_bit_identical(kind, 7, &rounds, &state.into_result(), &want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where a snapshot payload's round history sat in the version-2 layout:
/// after the version byte, the config echo, the counters, both
/// confidence vectors and the metrics series, which version 3 keeps as
/// they were.
fn v2_history_offset(payload: &[u8]) -> usize {
    let mut dec = Dec::new(payload);
    let _version = dec.take_u8().expect("version");
    // Config echo (7 words), then t, labels_total and dirty_total.
    for _ in 0..10 {
        let _ = dec.take_u64().expect("word");
    }
    let _exhausted = dec.take_bool().expect("exhausted");
    for _confidences in 0..2 {
        let n = dec.take_usize().expect("length");
        for _ in 0..n {
            let _ = dec.take_f64().expect("confidence");
        }
    }
    let n = dec.take_usize().expect("metrics length");
    for _ in 0..n * 12 {
        let _ = dec.take_u64().expect("metric field");
    }
    payload.len() - dec.remaining()
}

/// Rewrites `payload` (version 3, no pending presentation) in the version-2
/// layout: version byte 2 and, after the metrics, the history of `rounds`
/// as `(t, selected, sample, labels)` per round.
fn as_version_2(payload: &[u8], rounds: &[Round]) -> Vec<u8> {
    let mut history = Enc::new();
    history.put_usize(rounds.len());
    for (t, round) in rounds.iter().enumerate() {
        history.put_usize(t);
        history.put_usize(round.pairs.len());
        for p in &round.pairs {
            history.put_usize(p.a);
            history.put_usize(p.b);
        }
        history.put_usize(round.sample.len());
        for &r in &round.sample {
            history.put_usize(r);
        }
        history.put_usize(round.labels.len());
        for &l in &round.labels {
            history.put_bool(l);
        }
    }
    let at = v2_history_offset(payload);
    let mut v2 = Vec::with_capacity(payload.len() + history.len());
    v2.push(2);
    v2.extend_from_slice(&payload[1..at]);
    v2.extend_from_slice(&history.into_bytes());
    v2.extend_from_slice(&payload[at..]);
    v2
}

#[test]
fn a_journal_with_version_2_snapshots_recovers_by_full_replay() {
    // A journal written before snapshots dropped the round history: every
    // snapshot in it is version 2. Recovery skips them as it skips a
    // corrupt one and replays the whole WAL, which is never compacted, to
    // the same bits as the uninterrupted run.
    let (table, dirty, space) = fixture();
    let kind = StrategyKind::StochasticBestResponse;
    let want = baseline(kind, &table, &dirty, &space);

    let dir = tempdir("v2");
    let played = journaled_then_crash(kind, &table, &dirty, &space, &dir, 7);
    let snaps = snapshot::list(&dir).expect("list");
    assert_eq!(
        snaps.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        [6, 3],
        "the newest snapshot and one fallback"
    );
    let payloads: Vec<Vec<u8>> = snaps
        .iter()
        .map(|(_, path)| snapshot::read(path).expect("read snapshot"))
        .collect();
    assert!(payloads.iter().all(|p| p[0] == 3), "written at version 3");
    let rewrite = |t: u64, payload: &[u8]| {
        let _ = snapshot::write_atomic(&dir, &snapshot::file_name(t), payload, false)
            .expect("rewrite snapshot");
    };

    // A snapshot from a newer format is skew, not a fallback: fatal.
    let mut newer = payloads[0].clone();
    newer[0] = 4;
    rewrite(6, &newer);
    let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
    let err = recover_session(&dir, journal_cfg(), &mut state, &mut trainer, &mut learner)
        .expect_err("a newer snapshot version must be rejected");
    assert!(
        err.to_string().contains("snapshot version 4, expected 3"),
        "unexpected error: {err}"
    );

    for ((t, _), payload) in snaps.iter().zip(&payloads) {
        let covered = usize::try_from(*t).expect("round fits usize");
        rewrite(*t, &as_version_2(payload, &played[..covered]));
    }
    let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
    let outcome = recover_session(&dir, journal_cfg(), &mut state, &mut trainer, &mut learner)
        .expect("recover");
    assert_eq!(outcome.snapshot_t, None, "version-2 snapshots are skipped");
    assert_eq!(outcome.replayed, 7, "the whole WAL replays");
    assert_eq!(state.iterations_done(), 7);
    let rounds = drive_to_completion(&mut state, &mut trainer, &mut learner);
    assert_bit_identical(kind, 7, &rounds, &state.into_result(), &want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_rejects_mismatched_config() {
    // A snapshot taken under one seed must not restore into a session
    // constructed with another: determinism-based recovery is only sound
    // when the environment matches.
    let (table, dirty, space) = fixture();
    let kind = StrategyKind::Random;

    let dir = tempdir("skew");
    let _ = journaled_then_crash(kind, &table, &dirty, &space, &dir, 3);

    let (trainer, learner) = agents(kind, &table, &space);
    let skewed = SessionConfig {
        seed: session_cfg().seed.wrapping_add(1),
        ..session_cfg()
    };
    let mut state = SessionState::new(
        table.clone(),
        space.clone(),
        &dirty,
        skewed,
        &trainer,
        &learner,
    )
    .expect("valid config");
    let (mut trainer, mut learner) = (trainer, learner);
    let err = recover_session(&dir, journal_cfg(), &mut state, &mut trainer, &mut learner)
        .expect_err("config skew must be rejected");
    assert!(
        err.to_string().contains("different session config"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
