//! The experiment catalogue: every table and figure of the paper plus the
//! ablations DESIGN.md calls out.

use std::fmt::Write as _;
use std::sync::Arc;

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::trainer::FpTrainer;
use et_core::{run_session, Learner, ResponseStrategy, SessionConfig, StrategyKind};
use et_data::gen::DatasetName;
use et_data::{inject_errors, table::paper_table1, InjectConfig};
use et_fd::{g1_of, Fd, HypothesisSpace};
use et_userstudy::{
    average_f1_change, predictor_mrr, run_study, scenarios, PredictorKind, StudyConfig,
};

use crate::convergence::{ConvergenceExperiment, PriorKind};
use crate::report::{curves_to_csv, render_curves, render_summary, render_table, Metric};

/// Global knobs for a reproduction run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seeds averaged per configuration.
    pub runs: usize,
    /// Rows per generated dataset.
    pub rows: usize,
    /// Interactions per session.
    pub iterations: usize,
    /// Smaller hypothesis spaces and study sizes for smoke tests.
    pub quick: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            runs: 5,
            rows: 240,
            iterations: 30,
            quick: false,
        }
    }
}

impl RunOptions {
    /// A configuration small enough for integration tests.
    pub fn quick() -> Self {
        Self {
            runs: 2,
            rows: 140,
            iterations: 12,
            quick: true,
        }
    }
}

/// The result of regenerating one artifact.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (e.g. `fig1`).
    pub id: &'static str,
    /// Human-readable report (tables + expectation commentary).
    pub text: String,
    /// CSV artifacts as `(file name, content)`.
    pub csv: Vec<(String, String)>,
}

/// A registered experiment.
pub struct Experiment {
    /// Stable id used on the `repro` command line.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The paper artifact it regenerates.
    pub paper_ref: &'static str,
    /// The qualitative shape the paper reports (what "reproduced" means).
    pub expectation: &'static str,
    /// Runner.
    pub run: fn(&RunOptions) -> ExperimentOutput,
}

/// Every registered experiment, in the paper's order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Sample instance and g1 measure",
            paper_ref: "Table 1 / Examples 1-2",
            expectation: "g1(Team -> City) = 1/25 = 0.04; violating pair gets dirty prob 0.96",
            run: run_table1,
        },
        Experiment {
            id: "table2",
            title: "User-study scenarios",
            paper_ref: "Table 2",
            expectation: "five scenarios, Airport ratio 1/3, OMDB ratio 2/3",
            run: run_table2,
        },
        Experiment {
            id: "table3",
            title: "Average f1-score change between labeling rounds",
            paper_ref: "Table 3",
            expectation: "substantial per-round hypothesis movement (0.1-0.35), i.e. users learn",
            run: run_table3,
        },
        Experiment {
            id: "fig1",
            title: "MAE curves, OMDB ~10% violations, trainer=Random, learner=Data-estimate",
            paper_ref: "Figure 1",
            expectation: "US converges fastest with an informed learner prior; Random slowest; stochastic methods in between",
            run: run_fig1,
        },
        Experiment {
            id: "fig2",
            title: "MRR@5 of learning models per scenario (exact and '+')",
            paper_ref: "Figure 2",
            expectation: "Bayesian (FP) beats hypothesis testing in most scenarios; scenario 2 is hardest",
            run: run_fig2,
        },
        Experiment {
            id: "fig3",
            title: "MAE curves, OMDB ~10% violations, learner=Uniform-0.9",
            paper_ref: "Figure 3",
            expectation: "with an uninformed learner prior US loses its edge (can hurt vs Random); stochastic methods stay competitive",
            run: run_fig3,
        },
        Experiment {
            id: "fig4",
            title: "MAE curves, all four datasets, ~20% violations, learner=Data-estimate",
            paper_ref: "Figure 4",
            expectation: "same ordering as Figure 1 across OMDB/Airport/Hospital/Tax",
            run: run_fig4,
        },
        Experiment {
            id: "fig5",
            title: "MAE curves, all four datasets, ~20% violations, learner=Uniform-0.9",
            paper_ref: "Figure 5",
            expectation: "same degradation of US as Figure 3 across datasets",
            run: run_fig5,
        },
        Experiment {
            id: "fig6",
            title: "MAE vs violation degree (5%/15%/25%), OMDB, learner=Uniform-0.9",
            paper_ref: "Figure 6",
            expectation: "with mismatched priors, higher violation degrees worsen final MAE",
            run: run_fig6,
        },
        Experiment {
            id: "fig7",
            title: "Learner F1 per iteration, trainer=Random, learner=Random, ~20% violations",
            paper_ref: "Figure 7",
            expectation: "stochastic methods match or beat US and Random; Random has high recall / lower precision; US depressed recall",
            run: run_fig7,
        },
        Experiment {
            id: "prop1",
            title: "Convergence of (FP, Best) x (FP, Stochastic Best) to equilibrium",
            paper_ref: "Proposition 1",
            expectation: "belief drift and empirical label frequency stabilize; MAE settles",
            run: run_prop1,
        },
        Experiment {
            id: "ablation-gamma",
            title: "Temperature sweep for the stochastic strategies",
            paper_ref: "DESIGN.md ablation (gamma)",
            expectation: "gamma->0 approaches the greedy parent strategy, large gamma approaches Random",
            run: run_ablation_gamma,
        },
        Experiment {
            id: "ablation-prior-strength",
            title: "Prior strength sweep",
            paper_ref: "DESIGN.md ablation (prior strength)",
            expectation: "stronger priors slow belief movement and convergence",
            run: run_ablation_prior_strength,
        },
        Experiment {
            id: "ablation-thompson",
            title: "Thompson sampling / deterministic Best vs paper methods",
            paper_ref: "DESIGN.md ablation (extensions)",
            expectation: "Thompson behaves like a stochastic best response",
            run: run_ablation_thompson,
        },
        Experiment {
            id: "ablation-space",
            title: "Hypothesis-space size sweep (19/38/76 FDs)",
            paper_ref: "DESIGN.md ablation (space size)",
            expectation: "larger spaces slow convergence (more parameters to pin down)",
            run: run_ablation_space,
        },
        Experiment {
            id: "ablation-k",
            title: "Examples-per-interaction sweep (k)",
            paper_ref: "DESIGN.md ablation (k)",
            expectation: "more pairs per iteration converge in fewer iterations",
            run: run_ablation_k,
        },
        Experiment {
            id: "ablation-score-basis",
            title: "Pair-local vs dataset-wide example scoring",
            paper_ref: "DESIGN.md ablation (score basis)",
            expectation: "pair-local scoring keeps US calibrated; dataset-wide scoring blunts it",
            run: run_ablation_score_basis,
        },
        Experiment {
            id: "ablation-evidence-scope",
            title: "Learner evidence scope (selected pairs / sample-wide / +memory)",
            paper_ref: "DESIGN.md ablation (evidence scope)",
            expectation: "wider evidence floors MAE lower but dilutes strategy differences",
            run: run_ablation_evidence_scope,
        },
        Experiment {
            id: "ablation-extensions",
            title: "Extension strategies (Committee, DensityUS) vs paper methods",
            paper_ref: "DESIGN.md ablation (extensions)",
            expectation: "extensions land between US and Random",
            run: run_ablation_extensions,
        },
        Experiment {
            id: "weak-strong",
            title: "Weak/strong labeler escalation (related-work extension)",
            paper_ref: "Paper SD (Zhang & Chaudhuri combination)",
            expectation: "noisier weak labelers escalate more; escalation preserves learner F1",
            run: run_weak_strong_exp,
        },
        Experiment {
            id: "fig2-participants",
            title: "Per-participant predictor comparison",
            paper_ref: "Figure 2 (participant grouping)",
            expectation: "Bayesian (FP) wins all but a couple of participants",
            run: run_fig2_participants,
        },
        Experiment {
            id: "ablation-detect-gate",
            title: "Detection indicator gate sweep (sigmoid pivot)",
            paper_ref: "DESIGN.md ablation (detector gate)",
            expectation: "lower pivots trade precision for recall; ROC AUC is threshold-free",
            run: run_ablation_detect_gate,
        },
        Experiment {
            id: "robustness",
            title: "Bootstrap CIs for the headline method differences",
            paper_ref: "Figures 1/3 (robustness check)",
            expectation: "US-Random difference flips sign between informed and uninformed priors, CIs excluding zero",
            run: run_robustness,
        },
        Experiment {
            id: "drift",
            title: "Data evolution: discounted vs plain fictitious play",
            paper_ref: "Paper S1 motivation (data evolution extension)",
            expectation: "forgetting trades accuracy on stable FDs for faster re-learning of shifted FDs",
            run: run_drift,
        },
    ]
}

/// Looks up one experiment by id.
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

fn conv(
    opts: &RunOptions,
    dataset: DatasetName,
    degree: f64,
    trainer: PriorKind,
    learner: PriorKind,
) -> ConvergenceExperiment {
    let mut e = ConvergenceExperiment::paper(dataset, degree, trainer, learner);
    e.rows = opts.rows;
    e.runs = opts.runs;
    e.session.iterations = opts.iterations;
    if opts.quick {
        e.max_fd_attrs = 3;
        e.space_cap = 20;
    }
    e
}

fn study_cfg(opts: &RunOptions) -> StudyConfig {
    if opts.quick {
        StudyConfig {
            participants: 6,
            ht_participants: 1,
            rows: 150,
            min_iterations: 5,
            max_iterations: 7,
            seed: 7,
            ..StudyConfig::default()
        }
    } else {
        StudyConfig {
            rows: opts.rows,
            seed: 7,
            ..StudyConfig::default()
        }
    }
}

fn run_table1(_opts: &RunOptions) -> ExperimentOutput {
    let t = paper_table1();
    let fd = Fd::from_attrs([1], 2); // Team -> City
    let g = g1_of(&t, &fd);
    let mut text = String::new();
    let _ = writeln!(text, "{t}");
    let _ = writeln!(
        text,
        "g1({}) = {}/{} = {:.3}  (paper: 1/25 = 0.04)",
        fd.display(t.schema()),
        g.violating_pairs,
        t.nrows() * t.nrows(),
        g.g1()
    );
    let space = HypothesisSpace::from_fds([fd]);
    let conf = [1.0 - g.g1()];
    let raw = et_fd::DetectParams::unsmoothed();
    let (p, _) = et_fd::pair_dirty_probs_with(&t, &space, &conf, 0, 1, &raw);
    let _ = writeln!(
        text,
        "violating pair (t1, t2) dirty probability = {p:.2}  (paper Example 2: 0.96)"
    );
    ExperimentOutput {
        id: "table1",
        text,
        csv: vec![],
    }
}

fn run_table2(_opts: &RunOptions) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = scenarios()
        .iter()
        .map(|s| {
            let schema = s.spec.generate(10, 0).table.schema().clone();
            vec![
                s.id.to_string(),
                s.domain.to_string(),
                schema.names().to_vec().join(", "),
                s.targets
                    .iter()
                    .map(|f| f.display(&schema))
                    .collect::<Vec<_>>()
                    .join(" ; "),
                s.alternatives
                    .iter()
                    .map(|f| f.display(&schema))
                    .collect::<Vec<_>>()
                    .join(" ; "),
                format!("{}/{}", s.ratio.0, s.ratio.1),
            ]
        })
        .collect();
    let text = render_table(
        &[
            "#",
            "Domain",
            "Attributes",
            "Target FDs",
            "Alternative FDs",
            "ratio m/n",
        ],
        &rows,
    );
    ExperimentOutput {
        id: "table2",
        text,
        csv: vec![],
    }
}

fn run_table3(opts: &RunOptions) -> ExperimentOutput {
    let cfg = study_cfg(opts);
    let mut rows = Vec::new();
    let mut csv = String::from("scenario,avg_f1_change\n");
    for s in scenarios() {
        let trajs = run_study(&s, &cfg);
        let change = average_f1_change(&trajs);
        rows.push(vec![s.id.to_string(), format!("{change:.4}")]);
        let _ = writeln!(csv, "{},{change}", s.id);
    }
    let mut text = render_table(&["Scenario #", "Average change in f1-score"], &rows);
    let _ = writeln!(
        text,
        "\nPaper reports 0.11-0.33: hypothesis revisions are real learning, not noise."
    );
    ExperimentOutput {
        id: "table3",
        text,
        csv: vec![("table3.csv".into(), csv)],
    }
}

fn mae_figure(
    id: &'static str,
    opts: &RunOptions,
    datasets: &[DatasetName],
    degree: f64,
    trainer: PriorKind,
    learner: PriorKind,
) -> ExperimentOutput {
    let mut text = String::new();
    let mut csv = Vec::new();
    for &ds in datasets {
        let e = conv(opts, ds, degree, trainer, learner);
        let runs = e.run();
        let title = format!(
            "{} deg={degree} trainer={} learner={}",
            ds.as_str(),
            trainer.label(),
            learner.label()
        );
        text.push_str(&render_curves(&title, &runs, Metric::Mae));
        text.push('\n');
        text.push_str(&render_summary(&runs, Metric::Mae, 0.10));
        text.push('\n');
        csv.push((
            format!("{id}-{}.csv", ds.as_str().to_lowercase()),
            curves_to_csv(&runs, Metric::Mae),
        ));
    }
    ExperimentOutput { id, text, csv }
}

fn run_fig1(opts: &RunOptions) -> ExperimentOutput {
    mae_figure(
        "fig1",
        opts,
        &[DatasetName::Omdb],
        0.10,
        PriorKind::Random,
        PriorKind::DataEstimate,
    )
}

fn run_fig3(opts: &RunOptions) -> ExperimentOutput {
    mae_figure(
        "fig3",
        opts,
        &[DatasetName::Omdb],
        0.10,
        PriorKind::Random,
        PriorKind::Uniform(0.9),
    )
}

fn run_fig4(opts: &RunOptions) -> ExperimentOutput {
    mae_figure(
        "fig4",
        opts,
        &DatasetName::ALL,
        0.20,
        PriorKind::Random,
        PriorKind::DataEstimate,
    )
}

fn run_fig5(opts: &RunOptions) -> ExperimentOutput {
    mae_figure(
        "fig5",
        opts,
        &DatasetName::ALL,
        0.20,
        PriorKind::Random,
        PriorKind::Uniform(0.9),
    )
}

fn run_fig6(opts: &RunOptions) -> ExperimentOutput {
    let mut text = String::new();
    let mut csv = Vec::new();
    for degree in [0.05, 0.15, 0.25] {
        let e = conv(
            opts,
            DatasetName::Omdb,
            degree,
            PriorKind::Random,
            PriorKind::Uniform(0.9),
        );
        let runs = e.run();
        text.push_str(&render_curves(
            &format!("OMDB degree~{}%", (degree * 100.0) as u32),
            &runs,
            Metric::Mae,
        ));
        text.push('\n');
        text.push_str(&render_summary(&runs, Metric::Mae, 0.10));
        text.push('\n');
        csv.push((
            format!("fig6-deg{}.csv", (degree * 100.0) as u32),
            curves_to_csv(&runs, Metric::Mae),
        ));
    }
    ExperimentOutput {
        id: "fig6",
        text,
        csv,
    }
}

fn run_fig7(opts: &RunOptions) -> ExperimentOutput {
    let mut text = String::new();
    let mut csv = Vec::new();
    for ds in [DatasetName::Omdb, DatasetName::Hospital, DatasetName::Tax] {
        let e = conv(opts, ds, 0.20, PriorKind::Random, PriorKind::Random);
        let runs = e.run();
        for metric in [Metric::F1, Metric::Precision, Metric::Recall] {
            text.push_str(&render_curves(
                &format!("{} deg=0.20 priors Random/Random", ds.as_str()),
                &runs,
                metric,
            ));
            text.push('\n');
        }
        text.push_str(&render_summary(&runs, Metric::F1, 0.5));
        text.push('\n');
        csv.push((
            format!("fig7-{}.csv", ds.as_str().to_lowercase()),
            curves_to_csv(&runs, Metric::F1),
        ));
    }
    ExperimentOutput {
        id: "fig7",
        text,
        csv,
    }
}

fn run_fig2(opts: &RunOptions) -> ExperimentOutput {
    let cfg = study_cfg(opts);
    let mut rows = Vec::new();
    let mut csv = String::from("scenario,predictor,mrr_exact,mrr_plus\n");
    for s in scenarios() {
        let trajs = run_study(&s, &cfg);
        let data = et_userstudy::study_dataset(&s, &cfg);
        let clean = data.clean_rows();
        let space = Arc::new(s.space());
        for predictor in PredictorKind::ALL {
            let r = predictor_mrr(&data.table, &space, &trajs, &clean, predictor, 5);
            rows.push(vec![
                s.id.to_string(),
                predictor.as_str().to_string(),
                format!("{:.3}", r.mrr_exact),
                format!("{:.3}", r.mrr_plus),
            ]);
            let _ = writeln!(
                csv,
                "{},{},{},{}",
                s.id,
                predictor.as_str(),
                r.mrr_exact,
                r.mrr_plus
            );
        }
    }
    let text = render_table(&["Scenario", "Model", "MRR@5", "MRR@5 (+)"], &rows);
    ExperimentOutput {
        id: "fig2",
        text,
        csv: vec![("fig2.csv".into(), csv)],
    }
}

fn run_prop1(opts: &RunOptions) -> ExperimentOutput {
    // One long game of (FP trainer, Best-response labeling) vs
    // (FP learner, Stochastic Best Response).
    let mut ds = DatasetName::Omdb.generate(opts.rows, 0x51);
    let specs = ds.exact_fds.clone();
    let inj = inject_errors(
        &mut ds.table,
        &specs,
        &[],
        &InjectConfig::with_degree(0.10, 0x52),
    );
    let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(
        &ds.table,
        if opts.quick { 3 } else { 4 },
        if opts.quick { 20 } else { 38 },
        (opts.rows as u64 / 12).max(5),
        &pinned,
    ));
    let prior_cfg = PriorConfig {
        strength: 0.3,
        ..PriorConfig::default()
    };
    let trainer_prior = build_prior(
        &PriorSpec::Random { seed: 1 },
        &prior_cfg,
        &space,
        &ds.table,
    );
    let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
    let mut trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
    let mut learner = Learner::new(
        learner_prior,
        ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
        EvidenceConfig::default(),
        5,
    );
    let cfg = SessionConfig {
        iterations: opts.iterations.max(120),
        // Posterior drift decays like 1/t; ε-stability at this horizon.
        eps_drift: 0.015,
        stability_window: 8,
        seed: 3,
        ..SessionConfig::default()
    };
    let result = run_session(
        &ds.table,
        space,
        &inj.dirty_rows,
        cfg,
        &mut trainer,
        &mut learner,
    );
    let c = &result.convergence;
    let mut text = String::new();
    let _ = writeln!(text, "iterations executed: {}", result.metrics.len());
    let _ = writeln!(text, "converged at:        {:?}", c.converged_at);
    let _ = writeln!(text, "final MAE:           {:.4}", c.final_mae);
    let _ = writeln!(text, "tail belief drift:   {:.5}", c.tail_drift);
    let _ = writeln!(text, "tail |dPhi| (labels): {:.5}", c.tail_phi_change);
    let _ = writeln!(
        text,
        "first-iteration MAE: {:.4}",
        result.metrics.first().map_or(f64::NAN, |m| m.mae)
    );
    let mut csv = String::from("iter,mae,trainer_drift,learner_drift,phi_dirty,agreement\n");
    for m in &result.metrics {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            m.t, m.mae, m.trainer_drift, m.learner_drift, m.phi_dirty, m.agreement
        );
    }
    ExperimentOutput {
        id: "prop1",
        text,
        csv: vec![("prop1.csv".into(), csv)],
    }
}

fn run_ablation_gamma(opts: &RunOptions) -> ExperimentOutput {
    let mut rows = Vec::new();
    for kind in [
        StrategyKind::StochasticBestResponse,
        StrategyKind::StochasticUncertainty,
    ] {
        for gamma in [0.05, 0.5, 2.0, 8.0] {
            let mut e = conv(
                opts,
                DatasetName::Omdb,
                0.10,
                PriorKind::Random,
                PriorKind::DataEstimate,
            );
            e.methods = vec![kind];
            e.gamma = gamma;
            let r = &e.run()[0];
            rows.push(vec![
                kind.as_str().to_string(),
                format!("{gamma}"),
                format!("{:.4}", r.mae.last_mean()),
                format!("{:.3}", et_metrics::auc(&r.mae.mean)),
            ]);
        }
    }
    ExperimentOutput {
        id: "ablation-gamma",
        text: render_table(&["method", "gamma", "final MAE", "MAE AUC"], &rows),
        csv: vec![],
    }
}

fn run_ablation_prior_strength(opts: &RunOptions) -> ExperimentOutput {
    let mut rows = Vec::new();
    for strength in [0.1, 0.3, 1.0, 3.0] {
        let mut e = conv(
            opts,
            DatasetName::Omdb,
            0.10,
            PriorKind::Random,
            PriorKind::DataEstimate,
        );
        e.methods = vec![StrategyKind::StochasticBestResponse];
        e.prior_cfg.strength = strength;
        let r = &e.run()[0];
        rows.push(vec![
            format!("{strength}"),
            format!("{:.4}", r.mae.mean[0]),
            format!("{:.4}", r.mae.last_mean()),
        ]);
    }
    ExperimentOutput {
        id: "ablation-prior-strength",
        text: render_table(&["prior strength", "initial MAE", "final MAE"], &rows),
        csv: vec![],
    }
}

fn run_ablation_thompson(opts: &RunOptions) -> ExperimentOutput {
    let mut e = conv(
        opts,
        DatasetName::Omdb,
        0.10,
        PriorKind::Random,
        PriorKind::DataEstimate,
    );
    e.methods = vec![
        StrategyKind::Best,
        StrategyKind::StochasticBestResponse,
        StrategyKind::ThompsonSampling,
        StrategyKind::UncertaintySampling,
    ];
    let runs = e.run();
    let mut text = render_curves("Thompson ablation (OMDB)", &runs, Metric::Mae);
    text.push('\n');
    text.push_str(&render_summary(&runs, Metric::Mae, 0.10));
    ExperimentOutput {
        id: "ablation-thompson",
        text,
        csv: vec![(
            "ablation-thompson.csv".into(),
            curves_to_csv(&runs, Metric::Mae),
        )],
    }
}

fn run_ablation_space(opts: &RunOptions) -> ExperimentOutput {
    let mut rows = Vec::new();
    for cap in [19, 38, 76] {
        let mut e = conv(
            opts,
            DatasetName::Omdb,
            0.10,
            PriorKind::Random,
            PriorKind::DataEstimate,
        );
        e.methods = vec![StrategyKind::StochasticBestResponse];
        e.space_cap = cap;
        let r = &e.run()[0];
        rows.push(vec![
            cap.to_string(),
            format!("{:.4}", r.mae.mean[0]),
            format!("{:.4}", r.mae.last_mean()),
        ]);
    }
    ExperimentOutput {
        id: "ablation-space",
        text: render_table(&["|space|", "initial MAE", "final MAE"], &rows),
        csv: vec![],
    }
}

fn run_ablation_k(opts: &RunOptions) -> ExperimentOutput {
    let mut rows = Vec::new();
    for k in [2usize, 5, 10] {
        let mut e = conv(
            opts,
            DatasetName::Omdb,
            0.10,
            PriorKind::Random,
            PriorKind::DataEstimate,
        );
        e.methods = vec![StrategyKind::StochasticBestResponse];
        e.session.pairs_per_iteration = k;
        let r = &e.run()[0];
        let reach = et_metrics::iterations_to_threshold(&r.mae.mean, 0.10)
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into());
        rows.push(vec![
            k.to_string(),
            format!("{:.4}", r.mae.last_mean()),
            reach,
        ]);
    }
    ExperimentOutput {
        id: "ablation-k",
        text: render_table(&["pairs/iter", "final MAE", "iters to MAE<=0.10"], &rows),
        csv: vec![],
    }
}

fn run_ablation_score_basis(opts: &RunOptions) -> ExperimentOutput {
    let mut rows = Vec::new();
    for (label, basis) in [
        ("pair-local", et_core::ScoreBasis::PairLocal),
        ("dataset-wide", et_core::ScoreBasis::DatasetTuple),
    ] {
        for (plabel, lp) in [
            ("Data-estimate", PriorKind::DataEstimate),
            ("Uniform-0.9", PriorKind::Uniform(0.9)),
        ] {
            let mut e = conv(opts, DatasetName::Omdb, 0.10, PriorKind::Random, lp);
            e.score_basis = basis;
            let runs = e.run();
            for m in runs {
                rows.push(vec![
                    label.to_string(),
                    plabel.to_string(),
                    m.kind.as_str().to_string(),
                    format!("{:.4}", m.mae.last_mean()),
                ]);
            }
        }
    }
    ExperimentOutput {
        id: "ablation-score-basis",
        text: render_table(&["basis", "learner prior", "method", "final MAE"], &rows),
        csv: vec![],
    }
}

fn run_ablation_evidence_scope(opts: &RunOptions) -> ExperimentOutput {
    use et_core::EvidenceScope;
    let mut rows = Vec::new();
    for (label, scope) in [
        ("selected-pairs", EvidenceScope::SelectedPairs),
        ("sample-wide", EvidenceScope::SampleWide),
        ("sample+memory", EvidenceScope::SampleWideWithMemory),
    ] {
        let mut e = conv(
            opts,
            DatasetName::Omdb,
            0.10,
            PriorKind::Random,
            PriorKind::DataEstimate,
        );
        e.evidence_scope = scope;
        let runs = e.run();
        let spread = {
            let finals: Vec<f64> = runs.iter().map(|m| m.mae.last_mean()).collect();
            finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - finals.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        for m in &runs {
            rows.push(vec![
                label.to_string(),
                m.kind.as_str().to_string(),
                format!("{:.4}", m.mae.last_mean()),
                format!("{spread:.4}"),
            ]);
        }
    }
    ExperimentOutput {
        id: "ablation-evidence-scope",
        text: render_table(
            &["evidence scope", "method", "final MAE", "method spread"],
            &rows,
        ),
        csv: vec![],
    }
}

fn run_ablation_extensions(opts: &RunOptions) -> ExperimentOutput {
    let mut e = conv(
        opts,
        DatasetName::Omdb,
        0.10,
        PriorKind::Random,
        PriorKind::DataEstimate,
    );
    e.methods = vec![
        StrategyKind::Random,
        StrategyKind::UncertaintySampling,
        StrategyKind::StochasticBestResponse,
        StrategyKind::CommitteeDisagreement,
        StrategyKind::DensityWeightedUncertainty,
    ];
    let runs = e.run();
    let mut text = render_curves("extension strategies (OMDB)", &runs, Metric::Mae);
    text.push('\n');
    text.push_str(&render_summary(&runs, Metric::Mae, 0.10));
    ExperimentOutput {
        id: "ablation-extensions",
        text,
        csv: vec![(
            "ablation-extensions.csv".into(),
            curves_to_csv(&runs, Metric::Mae),
        )],
    }
}

fn run_weak_strong_exp(opts: &RunOptions) -> ExperimentOutput {
    use et_core::trainer::{NoisyTrainer, OracleTrainer};
    use et_core::{run_weak_strong, Learner, WeakStrongConfig};

    let mut ds = DatasetName::Omdb.generate(opts.rows, 0x77);
    let specs = ds.exact_fds.clone();
    let inj = inject_errors(
        &mut ds.table,
        &specs,
        &[],
        &InjectConfig::with_degree(0.12, 0x78),
    );
    let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(
        &ds.table,
        if opts.quick { 3 } else { 4 },
        if opts.quick { 20 } else { 38 },
        (opts.rows as u64 / 12).max(5),
        &pinned,
    ));
    let oracle_conf: Vec<f64> = space
        .fds()
        .iter()
        .map(|fd| if pinned.contains(fd) { 0.98 } else { 0.05 })
        .collect();
    let prior_cfg = PriorConfig {
        strength: 0.3,
        ..PriorConfig::default()
    };
    let mut rows = Vec::new();
    for flip in [0.0, 0.2, 0.4] {
        let mut weak = NoisyTrainer::new(
            OracleTrainer::new(inj.dirty_rows.clone(), oracle_conf.clone()),
            flip,
            5,
        );
        let mut strong = OracleTrainer::new(inj.dirty_rows.clone(), oracle_conf.clone());
        let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
        let mut learner = Learner::new(
            learner_prior,
            ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
            EvidenceConfig::default(),
            9,
        );
        let r = run_weak_strong(
            &ds.table,
            space.clone(),
            &inj.dirty_rows,
            &mut weak,
            &mut strong,
            &mut learner,
            &WeakStrongConfig {
                iterations: opts.iterations,
                seed: 3,
                ..WeakStrongConfig::default()
            },
        );
        let final_f1 = r.iterations.last().map_or(0.0, |i| i.learner_f1);
        rows.push(vec![
            format!("{flip:.1}"),
            format!("{:.2}", r.escalation_rate()),
            format!("{:.3}", final_f1),
        ]);
    }
    ExperimentOutput {
        id: "weak-strong",
        text: render_table(
            &["weak flip prob", "escalation rate", "final learner F1"],
            &rows,
        ),
        csv: vec![],
    }
}

fn run_fig2_participants(opts: &RunOptions) -> ExperimentOutput {
    use et_userstudy::{per_participant_mrr, predictor_win_counts};
    let cfg = study_cfg(opts);
    let mut rows = Vec::new();
    let mut total_bayes = 0;
    let mut total = 0;
    for s in scenarios() {
        let trajs = run_study(&s, &cfg);
        let data = et_userstudy::study_dataset(&s, &cfg);
        let clean = data.clean_rows();
        let space = Arc::new(s.space());
        let per = per_participant_mrr(&data.table, &space, &trajs, &clean, 5);
        let (bayes, ht) = predictor_win_counts(&per);
        total_bayes += bayes;
        total += per.len();
        rows.push(vec![s.id.to_string(), bayes.to_string(), ht.to_string()]);
    }
    let mut text = render_table(
        &["scenario", "Bayesian wins (participants)", "HT wins"],
        &rows,
    );
    let _ = writeln!(
        text,
        "\noverall: Bayesian models {total_bayes}/{total} participant-scenarios best \
         (paper: all participants but two)"
    );
    ExperimentOutput {
        id: "fig2-participants",
        text,
        csv: vec![],
    }
}

/// The paper's introduction motivates annotators who must "refresh their
/// knowledge about the data ... due to rapid and frequent data evolution".
/// This experiment injects a *second* wave of errors against a different FD
/// halfway through the session and compares a plain FP annotator against a
/// discounted-FP annotator (geometric forgetting) on how quickly each
/// re-learns the post-shift world.
fn run_drift(opts: &RunOptions) -> ExperimentOutput {
    use et_core::trainer::Trainer;
    use et_core::{sample_rows, CandidatePool, FreshCandidates, Learner};
    use et_fd::{PartitionCache, SampleIndexer, ViolationIndex};

    /// One table phase's fresh candidates: the pool's ids not yet shown to
    /// the learner, scored over the phase's relation matrix.
    fn phase_candidates(
        table: &et_data::Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
        pool: &CandidatePool,
        learner: &Learner,
    ) -> FreshCandidates {
        let matrix = Arc::new(pool.relation_matrix(table, space, cache));
        FreshCandidates::new(matrix, learner.shown())
    }

    let iterations = opts.iterations.max(45);
    let shift_at = iterations / 3;
    let mut rows = Vec::new();

    for (label, discount) in [("plain FP", None), ("discounted FP (0.9)", Some(0.9))] {
        // Phase-1 world: errors on the first ground-truth FD only.
        let mut ds = DatasetName::Omdb.generate(opts.rows, 0x99);
        let specs = ds.exact_fds.clone();
        // Generated omdb always carries FDs; skip the scenario if a future
        // generator variant produces none.
        let Some((first, rest)) = specs.split_first() else {
            continue;
        };
        let _ = inject_errors(
            &mut ds.table,
            std::slice::from_ref(first),
            &[],
            &InjectConfig::with_degree(0.15, 0x9A),
        );
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let space = Arc::new(HypothesisSpace::capped(
            &ds.table,
            if opts.quick { 3 } else { 4 },
            if opts.quick { 20 } else { 38 },
            (opts.rows as u64 / 12).max(5),
            &pinned,
        ));
        let prior_cfg = PriorConfig {
            strength: 0.3,
            ..PriorConfig::default()
        };
        let trainer_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
        let mut trainer = FpTrainer::new(trainer_prior, EvidenceConfig::default());
        if let Some(lambda) = discount {
            trainer = trainer.with_discount(lambda);
        }
        let learner_prior = build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table);
        let mut learner = Learner::new(
            learner_prior,
            ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
            EvidenceConfig::default(),
            0x9B,
        );

        // Hand-rolled loop so the table can mutate mid-session. Each table
        // phase shares one partition cache: the index build warms it, and
        // each round's sample index, handed to the trainer, restricts the
        // phase's determinant list.
        let mut table = ds.table.clone();
        let mut cache = Arc::new(PartitionCache::new(&table));
        let pool = CandidatePool::build_with(&table, &space, &cache, 4000, 1);
        let mut fresh = phase_candidates(&table, &space, &cache, &pool, &learner);
        let mut index = ViolationIndex::build_with(&table, &space, &cache);
        let mut indexer = SampleIndexer::new(&table, &space, &cache);
        let mut pre_shift_mae = 0.0;
        let mut post_shift_mae = 0.0;
        for t in 0..iterations {
            if t == shift_at {
                // The world changes wholesale: a freshly generated table
                // (old violations repaired) with a heavy error wave against
                // a *different* ground-truth FD — the evidence the annotator
                // accumulated about phase 1 is now stale. The partition
                // cache is bound to the old table, so it is replaced too.
                let mut ds2 = DatasetName::Omdb.generate(opts.rows, 0x99);
                let _ = inject_errors(
                    &mut ds2.table,
                    &[rest[0].clone()],
                    &[],
                    &InjectConfig::with_degree(0.45, 0x9C),
                );
                table = ds2.table;
                cache = Arc::new(PartitionCache::new(&table));
                let pool = CandidatePool::build_with(&table, &space, &cache, 4000, 2);
                fresh = phase_candidates(&table, &space, &cache, &pool, &learner);
                index = ViolationIndex::build_with(&table, &space, &cache);
                indexer = SampleIndexer::new(&table, &space, &cache);
            }
            let (pairs, _) = learner.select(&mut fresh, &index, 5);
            if pairs.is_empty() {
                break;
            }
            let sample = sample_rows(&pairs, table.nrows());
            let sample_index = indexer.index(&table, &sample);
            let labels = trainer.respond(&table, &sample, &sample_index);
            learner.absorb_interaction(&table, &pairs, &sample, &labels);
            let mae = et_core::session::mae(&trainer.confidences(), &learner.confidences());
            if t == shift_at.saturating_sub(1) {
                pre_shift_mae = mae;
            }
            if t == iterations - 1 {
                post_shift_mae = mae;
            }
        }

        // How well does the trainer's final belief reflect the post-shift
        // world? Split the gap between the FDs whose violation rate actually
        // shifted and the stable remainder: forgetting should pay on the
        // former and cost variance on the latter.
        let world_pre =
            build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table).confidences();
        let world_post =
            build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &table).confidences();
        let tc = trainer.confidences();
        let (mut shifted_gap, mut shifted_n) = (0.0, 0usize);
        let (mut stable_gap, mut stable_n) = (0.0, 0usize);
        for i in 0..space.len() {
            let gap = (tc[i] - world_post[i]).abs();
            if (world_pre[i] - world_post[i]).abs() > 0.05 {
                shifted_gap += gap;
                shifted_n += 1;
            } else {
                stable_gap += gap;
                stable_n += 1;
            }
        }
        let shifted = shifted_gap / shifted_n.max(1) as f64;
        let stable = stable_gap / stable_n.max(1) as f64;
        rows.push(vec![
            label.to_string(),
            format!("{pre_shift_mae:.4}"),
            format!("{post_shift_mae:.4}"),
            format!("{shifted:.4} ({shifted_n} FDs)"),
            format!("{stable:.4} ({stable_n} FDs)"),
        ]);
    }
    ExperimentOutput {
        id: "drift",
        text: render_table(
            &[
                "trainer",
                "MAE before shift",
                "MAE at end",
                "gap on shifted FDs",
                "gap on stable FDs",
            ],
            &rows,
        ),
        csv: vec![],
    }
}

/// Sweeps the sigmoid pivot of the noisy-OR detector (DESIGN.md decision 3)
/// on a fixed trained belief and reports the precision/recall/F1 trade-off
/// plus the threshold-free ROC AUC (which the gate cannot change much —
/// it is monotone in the scores).
fn run_ablation_detect_gate(opts: &RunOptions) -> ExperimentOutput {
    use et_core::Learner;
    use et_fd::{DetectParams, Indicator, ViolationIndex};
    use et_metrics::{roc_auc, ConfusionMatrix};

    let mut ds = DatasetName::Omdb.generate(opts.rows, 0xAB);
    let specs = ds.exact_fds.clone();
    let inj = inject_errors(
        &mut ds.table,
        &specs,
        &[],
        &InjectConfig::with_degree(0.15, 0xAC),
    );
    let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
    let space = Arc::new(HypothesisSpace::capped(
        &ds.table,
        if opts.quick { 3 } else { 4 },
        if opts.quick { 20 } else { 38 },
        (opts.rows as u64 / 12).max(5),
        &pinned,
    ));
    let prior_cfg = PriorConfig {
        strength: 0.3,
        ..PriorConfig::default()
    };
    // Train one learner to get a realistic belief.
    let mut trainer = FpTrainer::new(
        build_prior(
            &PriorSpec::Random { seed: 1 },
            &prior_cfg,
            &space,
            &ds.table,
        ),
        EvidenceConfig::default(),
    );
    let mut learner = Learner::new(
        build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &ds.table),
        ResponseStrategy::paper(StrategyKind::StochasticBestResponse),
        EvidenceConfig::default(),
        2,
    );
    let result = run_session(
        &ds.table,
        space.clone(),
        &inj.dirty_rows,
        SessionConfig {
            iterations: opts.iterations,
            seed: 3,
            ..SessionConfig::default()
        },
        &mut trainer,
        &mut learner,
    );
    let conf = result.learner_confidences;
    let index = ViolationIndex::build(&ds.table, &space);
    let all_rows: Vec<usize> = (0..ds.table.nrows()).collect();
    let mut rows = Vec::new();
    for pivot in [0.70, 0.80, 0.85, 0.90, 0.95] {
        let params = DetectParams {
            base_rate: 0.1,
            indicator: Indicator::Sigmoid { pivot, slope: 0.04 },
        };
        let predicted: Vec<bool> = all_rows
            .iter()
            .map(|&r| et_fd::tuple_dirty_prob_with(&index, &conf, r, &params) > 0.5)
            .collect();
        let m = ConfusionMatrix::from_predictions(&predicted, &inj.dirty_rows);
        let scores: Vec<f64> = all_rows
            .iter()
            .map(|&r| et_fd::tuple_dirty_prob_with(&index, &conf, r, &params))
            .collect();
        let auc = roc_auc(&scores, &inj.dirty_rows);
        rows.push(vec![
            format!("{pivot:.2}"),
            format!("{:.3}", m.precision()),
            format!("{:.3}", m.recall()),
            format!("{:.3}", m.f1()),
            format!("{auc:.3}"),
        ]);
    }
    ExperimentOutput {
        id: "ablation-detect-gate",
        text: render_table(&["pivot", "precision", "recall", "F1", "ROC AUC"], &rows),
        csv: vec![],
    }
}

/// Robustness of the headline claims: across many seeds, bootstrap the mean
/// final-MAE *differences* between methods (paired per seed) and report 95%
/// CIs, plus the Kendall correlation of the per-seed method rankings.
fn run_robustness(opts: &RunOptions) -> ExperimentOutput {
    use et_metrics::{bootstrap_mean_ci, kendall_tau};

    let runs = (opts.runs * 2).max(8);
    let mut text = String::new();
    for (label, learner_prior) in [
        (
            "informed (Data-estimate, Figure 1)",
            PriorKind::DataEstimate,
        ),
        (
            "uninformed (Uniform-0.9, Figure 3)",
            PriorKind::Uniform(0.9),
        ),
    ] {
        let mut e = conv(
            opts,
            DatasetName::Omdb,
            0.10,
            PriorKind::Random,
            learner_prior,
        );
        e.runs = 1;
        e.methods = StrategyKind::PAPER_METHODS.to_vec();
        // One experiment per seed so differences are paired.
        let mut finals: Vec<Vec<f64>> = vec![Vec::new(); e.methods.len()];
        for r in 0..runs {
            e.seed = 0xE7u64.wrapping_add(r as u64 * 7919);
            for (mi, m) in e.run().into_iter().enumerate() {
                finals[mi].push(m.mae.last_mean());
            }
        }
        let _ = writeln!(text, "--- {label}, {runs} seeds ---");
        // `methods` is assigned PAPER_METHODS above, so the lookup cannot
        // miss (vetted in et-lint.toml).
        #[allow(clippy::expect_used)]
        let idx = |k: StrategyKind| {
            e.methods
                .iter()
                .position(|&m| m == k)
                .expect("method present")
        };
        let pairs = [
            (
                "Random - US",
                idx(StrategyKind::Random),
                idx(StrategyKind::UncertaintySampling),
            ),
            (
                "Random - StochasticBR",
                idx(StrategyKind::Random),
                idx(StrategyKind::StochasticBestResponse),
            ),
            (
                "US - StochasticBR",
                idx(StrategyKind::UncertaintySampling),
                idx(StrategyKind::StochasticBestResponse),
            ),
        ];
        for (name, a, b) in pairs {
            let diffs: Vec<f64> = finals[a]
                .iter()
                .zip(&finals[b])
                .map(|(x, y)| x - y)
                .collect();
            let ci = bootstrap_mean_ci(&diffs, 0.95, 2000, 11);
            let sig = if ci.lo > 0.0 || ci.hi < 0.0 {
                "  *"
            } else {
                ""
            };
            let _ = writeln!(
                text,
                "{name:<24} mean {:+.4}  95% CI [{:+.4}, {:+.4}]{sig}",
                ci.mean, ci.lo, ci.hi
            );
        }
        // Ranking stability: Kendall tau between each seed's method
        // ordering and the mean ordering.
        let means: Vec<f64> = finals
            .iter()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        let mut taus = Vec::new();
        for r in 0..runs {
            let per_seed: Vec<f64> = finals.iter().map(|v| v[r]).collect();
            taus.push(kendall_tau(&per_seed, &means));
        }
        let mean_tau = taus.iter().sum::<f64>() / taus.len() as f64;
        let _ = writeln!(
            text,
            "per-seed ranking vs mean ranking: Kendall tau = {mean_tau:.2}\n"
        );
    }
    text.push_str("* = the 95% CI excludes zero (a robust ordering)\n");
    ExperimentOutput {
        id: "robustness",
        text,
        csv: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_lookup_works() {
        let all = all_experiments();
        assert!(all.len() >= 15);
        for e in &all {
            let found = experiment_by_id(e.id).expect("lookup");
            assert_eq!(found.title, e.title);
        }
        let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate experiment ids");
        assert!(experiment_by_id("nope").is_none());
    }

    #[test]
    fn table1_reproduces_paper_numbers() {
        let out = run_table1(&RunOptions::quick());
        assert!(out.text.contains("0.040"), "{}", out.text);
        assert!(out.text.contains("0.96"), "{}", out.text);
    }

    #[test]
    fn table2_lists_five_scenarios() {
        let out = run_table2(&RunOptions::quick());
        assert_eq!(out.text.matches("Airport").count(), 3);
        assert_eq!(out.text.matches("OMDB").count(), 2);
    }

    #[test]
    fn fig1_quick_produces_curves_and_csv() {
        let out = run_fig1(&RunOptions::quick());
        assert!(out.text.contains("StochasticBR"));
        assert_eq!(out.csv.len(), 1);
        assert!(out.csv[0].1.lines().count() > 10);
    }

    #[test]
    fn prop1_quick_reports_convergence_fields() {
        let out = run_prop1(&RunOptions::quick());
        assert!(out.text.contains("final MAE"));
        assert!(out.text.contains("tail belief drift"));
    }
}
