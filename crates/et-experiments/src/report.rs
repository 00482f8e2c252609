//! Rendering: ASCII tables and CSV for curve families and summaries.

#![expect(
    clippy::indexing_slicing,
    reason = "t stays below the shortest series length (render_curves) or the series' own length (curves_to_csv), and a series' mean and std share that length; BLOCKS[idx.min(7)] indexes an 8-entry array"
)]

use std::fmt::Write as _;

use et_metrics::{auc, iterations_to_threshold, SeriesStats};

use crate::convergence::MethodRun;

/// Which per-iteration curve of a [`MethodRun`] to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// MAE between trainer and learner models.
    Mae,
    /// Learner F1 on the held-out test set.
    F1,
    /// Learner precision.
    Precision,
    /// Learner recall.
    Recall,
}

impl Metric {
    fn series<'a>(&self, m: &'a MethodRun) -> &'a SeriesStats {
        match self {
            Metric::Mae => &m.mae,
            Metric::F1 => &m.f1,
            Metric::Precision => &m.precision,
            Metric::Recall => &m.recall,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Metric::Mae => "MAE",
            Metric::F1 => "F1",
            Metric::Precision => "Precision",
            Metric::Recall => "Recall",
        }
    }
}

/// Renders one curve family as an ASCII table: one row per iteration, one
/// column per method (mean ± std).
pub fn render_curves(title: &str, methods: &[MethodRun], metric: Metric) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} [{}] ==", metric.name());
    let _ = write!(out, "{:>5}", "iter");
    for m in methods {
        let _ = write!(out, "  {:>16}", m.kind.as_str());
    }
    out.push('\n');
    let len = methods
        .iter()
        .map(|m| metric.series(m).len())
        .min()
        .unwrap_or(0);
    for t in 0..len {
        let _ = write!(out, "{t:>5}");
        for m in methods {
            let s = metric.series(m);
            let _ = write!(out, "  {:>8.4}±{:<7.4}", s.mean[t], s.std[t]);
        }
        out.push('\n');
    }
    out
}

/// Summary lines per method: final value, curve AUC, iterations to reach
/// `threshold` (for MAE curves: lower is better everywhere), and the
/// threshold-free detector ROC AUC at the end of the session.
pub fn render_summary(methods: &[MethodRun], metric: Metric, threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>16} {:>14}",
        "method",
        "final",
        "AUC",
        format!("iters to {threshold}"),
        "detector ROC"
    );
    for m in methods {
        let s = metric.series(m);
        let reach = iterations_to_threshold(&s.mean, threshold)
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<16} {:>10.4} {:>10.3} {:>16} {:>14.3}  {}",
            m.kind.as_str(),
            s.mean.last().copied().unwrap_or(f64::NAN),
            auc(&s.mean),
            reach,
            m.final_auc,
            sparkline(&s.mean)
        );
    }
    out
}

/// A unicode sparkline of a series (block characters, min–max scaled).
/// Flat series render as a run of middle blocks.
pub fn sparkline(series: &[f64]) -> String {
    const BLOCKS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if series.is_empty() {
        return String::new();
    }
    let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    series
        .iter()
        .map(|&v| {
            if span <= f64::EPSILON {
                BLOCKS[3]
            } else {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "(v - lo) / span lies in [0, 1], so the index lies in [0, 7]; .min(7) guards the rounding"
                )]
                let idx = ((v - lo) / span * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

/// CSV of one curve family: `iter,method,mean,std`.
pub fn curves_to_csv(methods: &[MethodRun], metric: Metric) -> String {
    let mut out = String::from("iter,method,mean,std\n");
    for m in methods {
        let s = metric.series(m);
        for t in 0..s.len() {
            let _ = writeln!(out, "{t},{},{},{}", m.kind.as_str(), s.mean[t], s.std[t]);
        }
    }
    out
}

/// A minimal generic ASCII table.
///
/// # Panics
/// Panics when a row's width differs from the header count.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, "| {h:<w$} ");
    }
    out.push_str("|\n");
    for w in &widths {
        let _ = write!(out, "|{:-<width$}", "", width = w + 2);
    }
    out.push_str("|\n");
    for row in rows {
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "| {cell:<w$} ");
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_core::StrategyKind;
    use et_metrics::aggregate;

    fn fake_methods() -> Vec<MethodRun> {
        let mk = |vals: Vec<f64>| aggregate(&[vals]);
        vec![
            MethodRun {
                kind: StrategyKind::Random,
                mae: mk(vec![0.4, 0.3, 0.2]),
                f1: mk(vec![0.5, 0.6, 0.7]),
                precision: mk(vec![0.5, 0.6, 0.7]),
                recall: mk(vec![0.5, 0.6, 0.7]),
                final_auc: 0.7,
            },
            MethodRun {
                kind: StrategyKind::UncertaintySampling,
                mae: mk(vec![0.4, 0.2, 0.1]),
                f1: mk(vec![0.5, 0.7, 0.8]),
                precision: mk(vec![0.5, 0.7, 0.8]),
                recall: mk(vec![0.5, 0.7, 0.8]),
                final_auc: 0.8,
            },
        ]
    }

    #[test]
    fn curves_render_all_iterations() {
        let s = render_curves("demo", &fake_methods(), Metric::Mae);
        assert!(s.contains("Random"));
        assert!(s.contains("US"));
        assert_eq!(s.lines().count(), 2 + 3);
    }

    #[test]
    fn summary_reports_threshold_crossing() {
        let s = render_summary(&fake_methods(), Metric::Mae, 0.25);
        let us_line = s.lines().find(|l| l.starts_with("US")).unwrap();
        assert!(
            us_line.contains(" 1"),
            "US reaches 0.25 at iter 1: {us_line}"
        );
    }

    #[test]
    fn csv_shape() {
        let csv = curves_to_csv(&fake_methods(), Metric::F1);
        assert_eq!(csv.lines().count(), 1 + 6);
        assert!(csv.starts_with("iter,method,mean,std"));
        assert!(csv.contains("0,Random,0.5,0"));
    }

    #[test]
    fn generic_table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["xx".into(), "yyy".into()],
            ],
        );
        assert_eq!(t.lines().count(), 4);
        for line in t.lines() {
            assert!(line.starts_with('|') && line.ends_with('|'));
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        // Monotone fall renders high-to-low blocks.
        let fall = sparkline(&[1.0, 0.5, 0.0]);
        let chars: Vec<char> = fall.chars().collect();
        assert_eq!(chars.len(), 3);
        assert!(chars[0] > chars[2], "{fall}");
        // Flat series render uniformly.
        let flat = sparkline(&[0.3, 0.3, 0.3]);
        let set: std::collections::HashSet<char> = flat.chars().collect();
        assert_eq!(set.len(), 1);
    }
}
