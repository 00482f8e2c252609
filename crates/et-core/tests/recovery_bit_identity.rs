//! Crash recovery is bit-identical to never crashing.
//!
//! For every strategy kind: a session journaled to disk, interrupted
//! mid-stream (state dropped, only the WAL + snapshots survive), recovered
//! via [`et_core::recover_session`], and driven to completion must produce
//! the exact same result — metric for metric, bit for bit — as the same
//! session run uninterrupted with no journal at all.

// Test harness: expect over error plumbing.
#![allow(clippy::expect_used)]

use std::path::PathBuf;
use std::sync::Arc;

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::{
    recover_session, FpTrainer, JournalConfig, Learner, ResponseStrategy, SessionConfig,
    SessionJournal, SessionResult, SessionState, StrategyKind,
};
use et_data::gen::omdb;
use et_data::{inject_errors, InjectConfig, Table};
use et_durable::FsyncPolicy;
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

/// Drives `state` to completion, snapshotting on cadence like a real host.
fn drive_to_completion(state: &mut SessionState, trainer: &mut FpTrainer, learner: &mut Learner) {
    loop {
        if state.pending().is_none() && state.present(learner).expect("present").is_none() {
            break;
        }
        let labels = state.label_pending(trainer).expect("pending");
        let _ = state
            .apply_labels(trainer, learner, &labels)
            .expect("aligned");
        state.maybe_snapshot(trainer, learner).expect("snapshot");
    }
}

fn baseline(
    kind: StrategyKind,
    table: &Table,
    dirty: &[bool],
    space: &Arc<HypothesisSpace>,
) -> SessionResult {
    let (mut state, mut trainer, mut learner) = fresh_state(kind, table, dirty, space);
    drive_to_completion(&mut state, &mut trainer, &mut learner);
    state.into_result()
}

fn assert_bit_identical(kind: StrategyKind, got: &SessionResult, want: &SessionResult) {
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
        got.history.len(),
        want.history.len(),
        "{}: history length diverged",
        kind.as_str()
    );
    for (g, w) in got.history.iter().zip(&want.history) {
        assert_eq!(g.t, w.t, "{}: interaction index", kind.as_str());
        assert_eq!(g.selected, w.selected, "{}: selected pairs", kind.as_str());
        assert_eq!(g.sample, w.sample, "{}: presented sample", kind.as_str());
        assert_eq!(g.labels, w.labels, "{}: labels", kind.as_str());
    }
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
        {
            let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
            let journal = SessionJournal::create(&dir, journal_cfg()).expect("create journal");
            state.attach_journal(journal);
            for _ in 0..5 {
                assert!(state.present(&mut learner).expect("present").is_some());
                let labels = state.label_pending(&mut trainer).expect("pending");
                let _ = state
                    .apply_labels(&trainer, &mut learner, &labels)
                    .expect("aligned");
                state.maybe_snapshot(&trainer, &learner).expect("snapshot");
            }
            state.sync_journal().expect("sync");
            // Crash: state, trainer, learner all dropped here.
        }

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
        drive_to_completion(&mut state, &mut trainer, &mut learner);
        let got = state.into_result();

        assert_bit_identical(kind, &got, &want);
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
            assert!(state.present(&mut learner).expect("present").is_some());
            let labels = state.label_pending(&mut trainer).expect("pending");
            let _ = state
                .apply_labels(&trainer, &mut learner, &labels)
                .expect("aligned");
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
    drive_to_completion(&mut state, &mut trainer, &mut learner);
    assert_bit_identical(kind, &state.into_result(), &want);
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
    {
        let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
        let journal = SessionJournal::create(&dir, journal_cfg()).expect("create journal");
        state.attach_journal(journal);
        for _ in 0..7 {
            assert!(state.present(&mut learner).expect("present").is_some());
            let labels = state.label_pending(&mut trainer).expect("pending");
            let _ = state
                .apply_labels(&trainer, &mut learner, &labels)
                .expect("aligned");
            state.maybe_snapshot(&trainer, &learner).expect("snapshot");
        }
        state.sync_journal().expect("sync");
    }
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
        let snaps = et_durable::snapshot::list(&dir).expect("list");
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
    drive_to_completion(&mut state, &mut trainer, &mut learner);
    assert_bit_identical(kind, &state.into_result(), &want);
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
    {
        let (mut state, mut trainer, mut learner) = fresh_state(kind, &table, &dirty, &space);
        let journal = SessionJournal::create(&dir, journal_cfg()).expect("create journal");
        state.attach_journal(journal);
        for _ in 0..3 {
            assert!(state.present(&mut learner).expect("present").is_some());
            let labels = state.label_pending(&mut trainer).expect("pending");
            let _ = state
                .apply_labels(&trainer, &mut learner, &labels)
                .expect("aligned");
            state.maybe_snapshot(&trainer, &learner).expect("snapshot");
        }
    }

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
