//! Session replay: counterfactual reconstruction of learner beliefs.
//!
//! A [`crate::SessionResult`]'s history records exactly what was shown and
//! how it was labeled. Replaying that history through a *different* learner
//! configuration answers "what would a learner with prior/evidence/scope X
//! have concluded from the same interactions?" — separating the effect of
//! the *selection policy* (frozen in the log) from the *prediction model*
//! (varied in the replay). The session log also round-trips through CSV for
//! offline analysis.

use et_belief::{Belief, EvidenceConfig};
use et_data::Table;

use crate::game::{Interaction, PairExample};
use crate::learner::{EvidenceScope, Learner};
use crate::respond::{ResponseStrategy, StrategyKind};

/// Replays a recorded interaction history into a fresh learner built from
/// `prior`, returning its final belief.
///
/// The learner's response strategy is irrelevant during replay (selection
/// is frozen in the log); only its prediction model — evidence rule and
/// scope — matters.
pub fn replay_history(
    table: &Table,
    history: &[Interaction],
    prior: Belief,
    evidence: EvidenceConfig,
    scope: EvidenceScope,
) -> Belief {
    let mut learner = Learner::new(
        prior,
        ResponseStrategy::paper(StrategyKind::Random),
        evidence,
        0,
    )
    .with_evidence_scope(scope);
    for it in history {
        learner.absorb_interaction(table, &it.selected, &it.sample, &it.labels);
    }
    learner.belief().clone()
}

/// Serialises a history as CSV: `iter,kind,payload` rows
/// (`kind` ∈ {selected, tuple}).
pub fn history_to_csv(history: &[Interaction]) -> String {
    let mut out = String::from("iter,kind,a,b,label\n");
    for it in history {
        for p in &it.selected {
            out.push_str(&format!("{},selected,{},{},\n", it.t, p.a, p.b));
        }
        for (row, label) in it.sample.iter().zip(&it.labels) {
            out.push_str(&format!("{},tuple,{},,{}\n", it.t, row, u8::from(*label)));
        }
    }
    out
}

/// Errors raised by [`history_from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryParseError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for HistoryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for HistoryParseError {}

/// Iteration indices above this are rejected as malformed: gap-filling up
/// to `t` allocates `t` interactions, so an adversarial `iter` field must
/// not be allowed to request an unbounded allocation.
const MAX_CSV_ITER: usize = 1 << 20;

/// Restores a history from [`history_to_csv`] output.
pub fn history_from_csv(text: &str) -> Result<Vec<Interaction>, HistoryParseError> {
    let mut out: Vec<Interaction> = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 5 {
            return Err(HistoryParseError {
                line: line_no,
                reason: format!("expected 5 fields, got {}", parts.len()),
            });
        }
        let t: usize = parts[0].parse().map_err(|e| HistoryParseError {
            line: line_no,
            reason: format!("iter: {e}"),
        })?;
        if t > MAX_CSV_ITER {
            return Err(HistoryParseError {
                line: line_no,
                reason: format!("iter {t} exceeds the {MAX_CSV_ITER} cap"),
            });
        }
        while out.len() <= t {
            let next_t = out.len();
            out.push(Interaction {
                t: next_t,
                selected: Vec::new(),
                sample: Vec::new(),
                labels: Vec::new(),
            });
        }
        match parts[1] {
            "selected" => {
                let a: usize = parts[2].parse().map_err(|e| HistoryParseError {
                    line: line_no,
                    reason: format!("a: {e}"),
                })?;
                let b: usize = parts[3].parse().map_err(|e| HistoryParseError {
                    line: line_no,
                    reason: format!("b: {e}"),
                })?;
                if a == b {
                    // `PairExample::new` asserts distinct tuples; a
                    // malformed row must error, not panic.
                    return Err(HistoryParseError {
                        line: line_no,
                        reason: format!("selected pair needs two distinct tuples, got ({a}, {b})"),
                    });
                }
                out[t].selected.push(PairExample::new(a, b));
            }
            "tuple" => {
                let row: usize = parts[2].parse().map_err(|e| HistoryParseError {
                    line: line_no,
                    reason: format!("row: {e}"),
                })?;
                let label = match parts[4] {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(HistoryParseError {
                            line: line_no,
                            reason: format!("label must be 0/1, got `{other}`"),
                        })
                    }
                };
                out[t].sample.push(row);
                out[t].labels.push(label);
            }
            other => {
                return Err(HistoryParseError {
                    line: line_no,
                    reason: format!("unknown record kind `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_session, SessionConfig};
    use crate::trainer::FpTrainer;
    use et_belief::{build_prior, PriorConfig, PriorSpec};
    use et_data::gen::DatasetName;
    use et_data::{inject_errors, InjectConfig};
    use et_fd::{Fd, HypothesisSpace};
    use std::sync::Arc;

    fn fixture() -> (Table, Vec<bool>, Arc<HypothesisSpace>) {
        let mut ds = DatasetName::Omdb.generate(140, 13);
        let specs = ds.exact_fds.clone();
        let inj = inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &InjectConfig::with_degree(0.10, 1),
        );
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let space = Arc::new(HypothesisSpace::capped(&ds.table, 3, 16, 8, &pinned));
        (ds.table, inj.dirty_rows, space)
    }

    fn run_once(
        table: &Table,
        dirty: &[bool],
        space: &Arc<HypothesisSpace>,
    ) -> crate::session::SessionResult {
        let cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let mut trainer = FpTrainer::new(
            build_prior(&PriorSpec::Random { seed: 2 }, &cfg, space, table),
            EvidenceConfig::default(),
        );
        let mut learner = Learner::new(
            build_prior(&PriorSpec::DataEstimate, &cfg, space, table),
            ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
            EvidenceConfig::default(),
            3,
        );
        run_session(
            table,
            space.clone(),
            dirty,
            SessionConfig {
                iterations: 12,
                seed: 4,
                ..SessionConfig::default()
            },
            &mut trainer,
            &mut learner,
        )
    }

    #[test]
    fn replay_reproduces_the_original_learner() {
        let (table, dirty, space) = fixture();
        let r = run_once(&table, &dirty, &space);
        let cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let prior = build_prior(&PriorSpec::DataEstimate, &cfg, &space, &table);
        let replayed = replay_history(
            &table,
            &r.history,
            prior,
            EvidenceConfig::default(),
            EvidenceScope::SelectedPairs,
        );
        for (a, b) in replayed.confidences().iter().zip(&r.learner_confidences) {
            assert!((a - b).abs() < 1e-9, "replay diverged: {a} vs {b}");
        }
    }

    #[test]
    fn counterfactual_prior_differs() {
        let (table, dirty, space) = fixture();
        let r = run_once(&table, &dirty, &space);
        let cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let other_prior = build_prior(&PriorSpec::Uniform { d: 0.9 }, &cfg, &space, &table);
        let replayed = replay_history(
            &table,
            &r.history,
            other_prior,
            EvidenceConfig::default(),
            EvidenceScope::SelectedPairs,
        );
        let diff: f64 = replayed
            .confidences()
            .iter()
            .zip(&r.learner_confidences)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.1, "counterfactual prior should change conclusions");
    }

    #[test]
    fn csv_roundtrip_preserves_replay() -> Result<(), HistoryParseError> {
        let (table, dirty, space) = fixture();
        let r = run_once(&table, &dirty, &space);
        let csv = history_to_csv(&r.history);
        let restored = history_from_csv(&csv)?;
        assert_eq!(restored.len(), r.history.len());
        let cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let p1 = build_prior(&PriorSpec::DataEstimate, &cfg, &space, &table);
        let p2 = p1.clone();
        let a = replay_history(
            &table,
            &r.history,
            p1,
            EvidenceConfig::default(),
            EvidenceScope::SampleWide,
        );
        let b = replay_history(
            &table,
            &restored,
            p2,
            EvidenceConfig::default(),
            EvidenceScope::SampleWide,
        );
        assert_eq!(a.confidences(), b.confidences());
        Ok(())
    }

    #[test]
    fn csv_rejects_malformed_records() -> Result<(), HistoryParseError> {
        assert!(history_from_csv("iter,kind,a,b,label\n0,selected,1\n").is_err());
        assert!(history_from_csv("iter,kind,a,b,label\n0,weird,1,2,0\n").is_err());
        assert!(history_from_csv("iter,kind,a,b,label\n0,tuple,3,,7\n").is_err());
        assert!(history_from_csv("iter,kind,a,b,label\n")?.is_empty());
        Ok(())
    }
}
