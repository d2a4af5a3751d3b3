//! The paper's evaluation protocol: labeled subsets, validation-based model selection,
//! accuracy-vs-dimension sweeps and best-dimension tables, averaged over random seeds.
//!
//! For every seed the runner (i) draws the labeled set (a fixed count for SecStr/Ads, a
//! fixed count per class for NUS-WIDE), (ii) reserves 20% of the remaining instances as
//! the validation set and treats the rest as the transductive test set, (iii) fits every
//! method at every subspace dimension, trains the base learner (RLS or kNN) on the
//! labeled rows of the produced representation, (iv) selects per-method hyper-parameters
//! (candidate sub-model for BST baselines, `k` for kNN, the dimension for the tables) on
//! validation accuracy, and (v) reports test accuracy.

use crate::methods::{
    experiment_spec, rank_dependent, run_registered, CombineRule, MethodOutput, Representation,
};
use datasets::{
    center_kernel, gram_matrix, labeled_subset, labeled_subset_per_class, validation_split, Kernel,
    MultiViewDataset,
};
use learners::{accuracy, mean_std, KnnClassifier, RlsClassifier};
use linalg::Matrix;

/// How the labeled training set is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabeledSpec {
    /// A fixed number of labeled instances overall (SecStr and Ads use 100).
    Count(usize),
    /// A fixed number of labeled instances per class (NUS-WIDE uses 4, 6 or 8).
    PerClass(usize),
}

/// Configuration of one experiment (one figure panel or table column).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Subspace dimensions to sweep (the paper sweeps 5…300; the scaled-down default
    /// grids are documented in EXPERIMENTS.md).
    pub dims: Vec<usize>,
    /// CCA/TCCA regularizer ε.
    pub epsilon: f64,
    /// Random seeds (the paper uses five draws of the labeled set).
    pub seeds: Vec<u64>,
    /// Labeled-set specification.
    pub labeled: LabeledSpec,
    /// RLS ridge γ (the paper uses 10⁻²).
    pub gamma: f64,
    /// Use kNN instead of RLS (web image annotation experiments).
    pub use_knn: bool,
    /// Candidate neighbour counts for kNN model selection.
    pub knn_candidates: Vec<usize>,
    /// ALS iteration budget for TCCA / KTCCA.
    pub tcca_iterations: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            dims: vec![5, 10, 20, 40, 80],
            epsilon: 1e-2,
            seeds: vec![0, 1],
            labeled: LabeledSpec::Count(100),
            gamma: 1e-2,
            use_knn: false,
            knn_candidates: (1..=10).collect(),
            tcca_iterations: 20,
        }
    }
}

/// Accuracy / cost curves of one method across the dimension sweep.
#[derive(Debug, Clone)]
pub struct MethodCurve {
    /// Method display name.
    pub method: String,
    /// The swept dimensions.
    pub dims: Vec<usize>,
    /// Mean test accuracy per dimension (over seeds).
    pub mean_accuracy: Vec<f64>,
    /// Standard deviation of the test accuracy per dimension.
    pub std_accuracy: Vec<f64>,
    /// Mean fit wall-clock seconds per dimension.
    pub mean_seconds: Vec<f64>,
    /// Mean modelled memory (MB) per dimension.
    pub mean_megabytes: Vec<f64>,
}

/// Best-dimension summary of one method (one row of a paper table).
#[derive(Debug, Clone)]
pub struct BestSummary {
    /// Method display name.
    pub method: String,
    /// Mean test accuracy at the validation-selected dimension.
    pub mean_accuracy: f64,
    /// Standard deviation over seeds.
    pub std_accuracy: f64,
    /// The dimension selected most often across seeds.
    pub typical_dim: usize,
}

impl BestSummary {
    /// Format as the paper's `mean±std` percentage string.
    pub fn formatted(&self) -> String {
        format!(
            "{:.2}±{:.2}",
            self.mean_accuracy * 100.0,
            self.std_accuracy * 100.0
        )
    }
}

/// The full result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Accuracy/cost curves per method (one per compared method).
    pub curves: Vec<MethodCurve>,
    /// Best-dimension rows per method.
    pub best: Vec<BestSummary>,
}

/// Render the best-dimension summaries as aligned text rows (the paper's table format).
pub fn sweep_to_table(result: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>14} {:>10}\n",
        "Method", "Accuracy (%)", "best r"
    ));
    for row in &result.best {
        out.push_str(&format!(
            "{:<12} {:>14} {:>10}\n",
            row.method,
            row.formatted(),
            row.typical_dim
        ));
    }
    out
}

struct EvalContext<'a> {
    labels: &'a [usize],
    n_classes: usize,
    labeled: &'a [usize],
    validation: &'a [usize],
    test: &'a [usize],
    config: &'a ExperimentConfig,
}

/// Run the linear-methods experiment (Figures 3–5, Tables 1–3, and the cost curves of
/// Figures 7–9) on one dataset, with the methods given by registry name (the paper's
/// set is [`crate::methods::LINEAR_METHODS`]). Any estimator registered under
/// [`crate::methods::registry`] (including ones added by downstream code) can be
/// swept without touching this crate.
pub fn linear_experiment_named(
    dataset: &MultiViewDataset,
    names: &[&str],
    config: &ExperimentConfig,
) -> ExperimentResult {
    run_experiment(dataset, config, |rank, seed| {
        let spec = experiment_spec(rank, config.epsilon, seed, config.tcca_iterations);
        names
            .iter()
            .map(|name| {
                (
                    rank_dependent(name),
                    run_registered(name, dataset.views(), &spec),
                )
            })
            .collect()
    })
}

/// Run the kernel-methods experiment (Figure 6 / Table 4 and Figure 10) on one
/// dataset, with the methods given by registry name (the paper's set is
/// [`crate::methods::KERNEL_METHODS`]).
///
/// Kernels follow the paper: the χ² distance kernel for the first (visual-word
/// histogram) view and the L2 distance kernel for the others, each centered.
pub fn kernel_experiment_named(
    dataset: &MultiViewDataset,
    names: &[&str],
    config: &ExperimentConfig,
) -> ExperimentResult {
    let kernels: Vec<Matrix> = dataset
        .views()
        .iter()
        .enumerate()
        .map(|(p, v)| {
            let kernel = if p == 0 {
                Kernel::ExpChiSquare
            } else {
                Kernel::ExpEuclidean
            };
            center_kernel(&gram_matrix(v, kernel))
        })
        .collect();
    run_experiment(dataset, config, |rank, seed| {
        let spec = experiment_spec(rank, config.epsilon, seed, config.tcca_iterations);
        names
            .iter()
            .map(|name| (rank_dependent(name), run_registered(name, &kernels, &spec)))
            .collect()
    })
}

/// Shared sweep / aggregation logic. `fit_all` produces, for a given rank and seed, the
/// outputs of every method in a fixed order together with a flag saying whether the
/// method actually depends on the rank (flat baselines are computed once and reused).
fn run_experiment<F>(
    dataset: &MultiViewDataset,
    config: &ExperimentConfig,
    mut fit_all: F,
) -> ExperimentResult
where
    F: FnMut(usize, u64) -> Vec<(bool, MethodOutput)>,
{
    assert!(!config.dims.is_empty(), "need at least one dimension");
    assert!(!config.seeds.is_empty(), "need at least one seed");
    let n = dataset.len();
    let all_indices: Vec<usize> = (0..n).collect();

    // Per method per dim: accuracies across seeds; plus per-seed best-dim test accuracy.
    let mut method_names: Vec<String> = Vec::new();
    let mut acc: Vec<Vec<Vec<f64>>> = Vec::new(); // [method][dim][seed]
    let mut secs: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut mems: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut best_acc: Vec<Vec<f64>> = Vec::new(); // [method][seed]
    let mut best_dims: Vec<Vec<usize>> = Vec::new();

    for (seed_pos, &seed) in config.seeds.iter().enumerate() {
        // Draw labeled / validation / test splits.
        let labeled_split = match config.labeled {
            LabeledSpec::Count(count) => labeled_subset(&all_indices, count, seed),
            LabeledSpec::PerClass(per_class) => labeled_subset_per_class(
                &all_indices,
                dataset.labels(),
                dataset.num_classes(),
                per_class,
                seed,
            ),
        };
        let rest = labeled_split.second.clone();
        let val_split = validation_split(&rest, 0.2, seed.wrapping_add(1000));
        let ctx = EvalContext {
            labels: dataset.labels(),
            n_classes: dataset.num_classes(),
            labeled: &labeled_split.first,
            validation: &val_split.first,
            test: &val_split.second,
            config,
        };

        // Cache for rank-independent methods: (val_acc, test_acc, secs, mem).
        let mut flat_cache: Vec<Option<(f64, f64, f64, f64)>> = Vec::new();
        // Track per-method val/test per dim for this seed.
        let mut per_dim_val: Vec<Vec<f64>> = Vec::new();
        let mut per_dim_test: Vec<Vec<f64>> = Vec::new();

        for (dim_pos, &rank) in config.dims.iter().enumerate() {
            let outputs = fit_all(rank, seed);
            if seed_pos == 0 && dim_pos == 0 {
                method_names = outputs.iter().map(|(_, o)| o.name.clone()).collect();
                let m = method_names.len();
                acc = vec![vec![Vec::new(); config.dims.len()]; m];
                secs = vec![vec![Vec::new(); config.dims.len()]; m];
                mems = vec![vec![Vec::new(); config.dims.len()]; m];
                best_acc = vec![Vec::new(); m];
                best_dims = vec![Vec::new(); m];
            }
            if dim_pos == 0 {
                flat_cache = vec![None; outputs.len()];
                per_dim_val = vec![Vec::new(); outputs.len()];
                per_dim_test = vec![Vec::new(); outputs.len()];
            }

            for (mi, (depends_on_rank, output)) in outputs.iter().enumerate() {
                let (val_acc, test_acc, fit_secs, fit_mb) =
                    if !depends_on_rank && flat_cache[mi].is_some() {
                        flat_cache[mi].expect("cached")
                    } else {
                        let (v, t) = evaluate_output(output, &ctx);
                        let tuple = (v, t, output.seconds, output.memory.total_megabytes());
                        if !depends_on_rank {
                            flat_cache[mi] = Some(tuple);
                        }
                        tuple
                    };
                acc[mi][dim_pos].push(test_acc);
                secs[mi][dim_pos].push(fit_secs);
                mems[mi][dim_pos].push(fit_mb);
                per_dim_val[mi].push(val_acc);
                per_dim_test[mi].push(test_acc);
            }
        }

        // Best dimension per method for this seed (selected on validation accuracy).
        for mi in 0..method_names.len() {
            let mut best_pos = 0;
            for (pos, &v) in per_dim_val[mi].iter().enumerate() {
                if v > per_dim_val[mi][best_pos] {
                    best_pos = pos;
                }
            }
            best_acc[mi].push(per_dim_test[mi][best_pos]);
            best_dims[mi].push(config.dims[best_pos]);
        }
    }

    let curves = method_names
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let mut mean_accuracy = Vec::new();
            let mut std_accuracy = Vec::new();
            let mut mean_seconds = Vec::new();
            let mut mean_megabytes = Vec::new();
            for dim_pos in 0..config.dims.len() {
                let (m, s) = mean_std(&acc[mi][dim_pos]);
                mean_accuracy.push(m);
                std_accuracy.push(s);
                mean_seconds.push(mean_std(&secs[mi][dim_pos]).0);
                mean_megabytes.push(mean_std(&mems[mi][dim_pos]).0);
            }
            MethodCurve {
                method: name.clone(),
                dims: config.dims.clone(),
                mean_accuracy,
                std_accuracy,
                mean_seconds,
                mean_megabytes,
            }
        })
        .collect();

    let best = method_names
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let (m, s) = mean_std(&best_acc[mi]);
            // Most frequently selected dimension.
            let mut counts = std::collections::HashMap::new();
            for &d in &best_dims[mi] {
                *counts.entry(d).or_insert(0usize) += 1;
            }
            let typical_dim = counts
                .into_iter()
                .max_by_key(|&(_, c)| c)
                .map(|(d, _)| d)
                .unwrap_or(config.dims[0]);
            BestSummary {
                method: name.clone(),
                mean_accuracy: m,
                std_accuracy: s,
                typical_dim,
            }
        })
        .collect();

    ExperimentResult { curves, best }
}

/// Evaluate one method output under the protocol: returns (validation, test) accuracy.
fn evaluate_output(output: &MethodOutput, ctx: &EvalContext<'_>) -> (f64, f64) {
    match output.combine {
        CombineRule::SelectBest => {
            let mut best = (0.0, 0.0);
            let mut best_val = f64::NEG_INFINITY;
            for candidate in &output.candidates {
                let (val_acc, test_acc) = evaluate_candidate(candidate, ctx);
                if val_acc > best_val {
                    best_val = val_acc;
                    best = (val_acc, test_acc);
                }
            }
            best
        }
        CombineRule::Average => {
            if ctx.config.use_knn {
                // Majority vote across the candidates' predictions.
                let mut val_votes: Vec<Vec<usize>> = Vec::new();
                let mut test_votes: Vec<Vec<usize>> = Vec::new();
                for candidate in &output.candidates {
                    let (vp, tp) = candidate_predictions(candidate, ctx);
                    val_votes.push(vp);
                    test_votes.push(tp);
                }
                let val_pred = majority_vote(&val_votes, ctx.n_classes);
                let test_pred = majority_vote(&test_votes, ctx.n_classes);
                (
                    accuracy(&val_pred, &select_labels(ctx.labels, ctx.validation)),
                    accuracy(&test_pred, &select_labels(ctx.labels, ctx.test)),
                )
            } else {
                // Average the RLS decision scores across candidates.
                let mut val_scores: Option<Matrix> = None;
                let mut test_scores: Option<Matrix> = None;
                for candidate in &output.candidates {
                    let (vs, ts) = candidate_scores(candidate, ctx);
                    val_scores = Some(match val_scores {
                        None => vs,
                        Some(acc) => acc.add(&vs).expect("same shape"),
                    });
                    test_scores = Some(match test_scores {
                        None => ts,
                        Some(acc) => acc.add(&ts).expect("same shape"),
                    });
                }
                let val_pred =
                    RlsClassifier::predict_from_scores(&val_scores.expect("≥1 candidate"));
                let test_pred =
                    RlsClassifier::predict_from_scores(&test_scores.expect("≥1 candidate"));
                (
                    accuracy(&val_pred, &select_labels(ctx.labels, ctx.validation)),
                    accuracy(&test_pred, &select_labels(ctx.labels, ctx.test)),
                )
            }
        }
    }
}

/// Validation and test accuracy of a single candidate representation.
fn evaluate_candidate(candidate: &Representation, ctx: &EvalContext<'_>) -> (f64, f64) {
    let (val_pred, test_pred) = candidate_predictions(candidate, ctx);
    (
        accuracy(&val_pred, &select_labels(ctx.labels, ctx.validation)),
        accuracy(&test_pred, &select_labels(ctx.labels, ctx.test)),
    )
}

/// Predictions of a single candidate on the validation and test splits.
fn candidate_predictions(
    candidate: &Representation,
    ctx: &EvalContext<'_>,
) -> (Vec<usize>, Vec<usize>) {
    let train_labels = select_labels(ctx.labels, ctx.labeled);
    if ctx.config.use_knn {
        match candidate {
            Representation::Embedding(z) => {
                let train = z.select_rows(ctx.labeled);
                let val = z.select_rows(ctx.validation);
                let test = z.select_rows(ctx.test);
                // Select k on validation, then predict both splits with it.
                let k = select_k(&train, &train_labels, &val, ctx);
                let model = KnnClassifier::fit(&train, &train_labels, ctx.n_classes, k);
                (model.predict(&val), model.predict(&test))
            }
            Representation::Distances(d) => {
                let val_block = block(d, ctx.validation, ctx.labeled);
                let test_block = block(d, ctx.test, ctx.labeled);
                let val_labels = select_labels(ctx.labels, ctx.validation);
                let mut best_k = ctx.config.knn_candidates[0];
                let mut best_acc = f64::NEG_INFINITY;
                for &k in &ctx.config.knn_candidates {
                    let model = KnnClassifier::precomputed(&train_labels, ctx.n_classes, k);
                    let a = accuracy(&model.predict_precomputed(&val_block), &val_labels);
                    if a > best_acc {
                        best_acc = a;
                        best_k = k;
                    }
                }
                let model = KnnClassifier::precomputed(&train_labels, ctx.n_classes, best_k);
                (
                    model.predict_precomputed(&val_block),
                    model.predict_precomputed(&test_block),
                )
            }
        }
    } else {
        let (val_scores, test_scores) = candidate_scores(candidate, ctx);
        (
            RlsClassifier::predict_from_scores(&val_scores),
            RlsClassifier::predict_from_scores(&test_scores),
        )
    }
}

/// RLS decision scores of a single candidate on the validation and test splits.
fn candidate_scores(candidate: &Representation, ctx: &EvalContext<'_>) -> (Matrix, Matrix) {
    let z = match candidate {
        Representation::Embedding(z) => z,
        Representation::Distances(_) => {
            panic!("RLS evaluation requires embeddings, not precomputed distances")
        }
    };
    let train_labels = select_labels(ctx.labels, ctx.labeled);
    let train = z.select_rows(ctx.labeled);
    let model = RlsClassifier::fit(&train, &train_labels, ctx.n_classes, ctx.config.gamma);
    (
        model.decision_scores(&z.select_rows(ctx.validation)),
        model.decision_scores(&z.select_rows(ctx.test)),
    )
}

fn select_k(train: &Matrix, train_labels: &[usize], val: &Matrix, ctx: &EvalContext<'_>) -> usize {
    let val_labels = select_labels(ctx.labels, ctx.validation);
    let mut best_k = ctx.config.knn_candidates[0];
    let mut best_acc = f64::NEG_INFINITY;
    for &k in &ctx.config.knn_candidates {
        let model = KnnClassifier::fit(train, train_labels, ctx.n_classes, k);
        let a = accuracy(&model.predict(val), &val_labels);
        if a > best_acc {
            best_acc = a;
            best_k = k;
        }
    }
    best_k
}

fn select_labels(labels: &[usize], indices: &[usize]) -> Vec<usize> {
    indices.iter().map(|&i| labels[i]).collect()
}

/// Sub-block of a full `N × N` distance matrix with the given rows and columns.
fn block(d: &Matrix, rows: &[usize], cols: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols.len());
    for (i, &r) in rows.iter().enumerate() {
        for (j, &c) in cols.iter().enumerate() {
            out[(i, j)] = d[(r, c)];
        }
    }
    out
}

fn majority_vote(votes: &[Vec<usize>], n_classes: usize) -> Vec<usize> {
    if votes.is_empty() {
        return Vec::new();
    }
    let n = votes[0].len();
    (0..n)
        .map(|i| {
            let mut counts = vec![0usize; n_classes];
            for v in votes {
                counts[v[i]] += 1;
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(cls, _)| cls)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{nuswide_dataset, secstr_dataset, NusWideConfig, SecStrConfig};

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            dims: vec![2, 4],
            seeds: vec![0],
            labeled: LabeledSpec::Count(40),
            tcca_iterations: 8,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn linear_experiment_produces_curves_and_table() {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: 200,
            seed: 3,
            difficulty: 0.6,
        });
        let methods = ["BSF", "CCA-LS", "TCCA"];
        let result = linear_experiment_named(&data, &methods, &quick_config());
        assert_eq!(result.curves.len(), 3);
        assert_eq!(result.best.len(), 3);
        for curve in &result.curves {
            assert_eq!(curve.dims, vec![2, 4]);
            assert_eq!(curve.mean_accuracy.len(), 2);
            for &a in &curve.mean_accuracy {
                assert!((0.0..=1.0).contains(&a), "{} accuracy {a}", curve.method);
            }
        }
        let table = sweep_to_table(&result);
        assert!(table.contains("TCCA"));
        assert!(table.contains("CCA-LS"));
    }

    #[test]
    fn multiview_reduction_beats_chance_on_planted_data() {
        // Views are trimmed to their first 40 features: the order-3 covariance tensor
        // has d₁·d₂·d₃ entries estimated from N samples, so the full 105-dim views at
        // this small N drown the planted signal in estimation noise (the full-size
        // sweeps live in the experiments harness, which uses the large pools).
        let full = secstr_dataset(&SecStrConfig {
            n_instances: 350,
            seed: 31,
            difficulty: 0.3,
        });
        let rows: Vec<usize> = (0..40).collect();
        let data = datasets::MultiViewDataset::new(
            full.views().iter().map(|v| v.select_rows(&rows)).collect(),
            full.labels().to_vec(),
            full.num_classes(),
        );
        let methods = ["TCCA"];
        let config = ExperimentConfig {
            dims: vec![4, 8],
            seeds: vec![0, 1],
            labeled: LabeledSpec::Count(100),
            tcca_iterations: 8,
            ..ExperimentConfig::default()
        };
        let result = linear_experiment_named(&data, &methods, &config);
        // Two balanced classes => chance is 0.5; the planted shared signal must help.
        assert!(
            result.best[0].mean_accuracy > 0.55,
            "TCCA accuracy {} not above chance",
            result.best[0].mean_accuracy
        );
    }

    #[test]
    fn kernel_experiment_runs_with_knn() {
        let data = nuswide_dataset(&NusWideConfig {
            n_instances: 80,
            seed: 5,
            difficulty: 1.0,
        });
        let config = ExperimentConfig {
            dims: vec![2, 4],
            seeds: vec![0],
            labeled: LabeledSpec::PerClass(2),
            use_knn: true,
            knn_candidates: vec![1, 3],
            tcca_iterations: 6,
            epsilon: 1e-1,
            ..ExperimentConfig::default()
        };
        let methods = ["BSK", "AVG", "KTCCA"];
        let result = kernel_experiment_named(&data, &methods, &config);
        assert_eq!(result.curves.len(), 3);
        for curve in &result.curves {
            for &a in &curve.mean_accuracy {
                assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn flat_methods_have_constant_curves() {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: 150,
            seed: 9,
            difficulty: 0.7,
        });
        let methods = ["BSF", "CAT"];
        let result = linear_experiment_named(&data, &methods, &quick_config());
        for curve in &result.curves {
            let first = curve.mean_accuracy[0];
            for &a in &curve.mean_accuracy {
                assert!((a - first).abs() < 1e-12, "{} should be flat", curve.method);
            }
        }
    }
}
