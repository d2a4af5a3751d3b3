//! Regenerate the TCCA paper's tables and figures.
//!
//! ```text
//! cargo run --release -p tcca-bench --bin experiments -- <id> [--seeds N] [--scale S] [--full]
//!
//!   id ∈ {fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
//!         table1, table2, table3, table4,
//!         ablation-decomposition, ablation-epsilon, ablation-unlabeled, all}
//! ```
//!
//! Every subcommand prints the same rows (tables) or series (figures) the paper reports:
//! method × accuracy for the tables, method × dimension → accuracy (or seconds / MB)
//! for the figures. Default sizes are scaled down so the whole suite runs on a laptop;
//! `--full` selects larger pools (closer to the paper's) and `--seeds` controls how many
//! random labeled draws are averaged (the paper uses five). See EXPERIMENTS.md for the
//! mapping and the recorded outputs.

use bench::methods::{KERNEL_METHODS, LINEAR_METHODS};
use bench::runner::{
    kernel_experiment_named, linear_experiment_named, sweep_to_table, ExperimentConfig,
    ExperimentResult, LabeledSpec,
};
use datasets::{
    ads_dataset, nuswide_dataset, secstr_dataset, AdsConfig, MultiViewDataset, NusWideConfig,
    SecStrConfig,
};
use std::env;

#[derive(Debug, Clone)]
struct Cli {
    command: String,
    seeds: usize,
    scale: f64,
    full: bool,
}

fn parse_cli() -> Cli {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut cli = Cli {
        command: args.first().cloned().unwrap_or_else(|| "help".into()),
        seeds: 2,
        scale: 1.0,
        full: false,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                cli.seeds = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(2);
                i += 2;
            }
            "--scale" => {
                cli.scale = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(1.0);
                i += 2;
            }
            "--full" => {
                cli.full = true;
                i += 1;
            }
            _ => i += 1,
        }
    }
    cli
}

fn seeds(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// Down-scale a list of view dimensions (used to keep the Ads covariance tensor small
/// enough for repeated fits; the paper's full 588×495×472 tensor needs ~1 GB).
fn scaled(dims: &[usize], scale: f64) -> Vec<usize> {
    dims.iter()
        .map(|&d| ((d as f64 * scale).round() as usize).max(8))
        .collect()
}

fn secstr(n: usize, seed: u64) -> MultiViewDataset {
    secstr_dataset(&SecStrConfig {
        n_instances: n,
        seed,
        difficulty: 0.8,
    })
}

/// Ads-like dataset with its views reduced to `scale ×` the paper's dimensionalities.
fn ads(n: usize, seed: u64, scale: f64) -> MultiViewDataset {
    let data = ads_dataset(&AdsConfig {
        n_instances: n,
        seed,
        difficulty: 0.55,
    });
    if (scale - 1.0).abs() < 1e-12 {
        return data;
    }
    let dims = scaled(&[588, 495, 472], scale);
    let views: Vec<linalg::Matrix> = data
        .views()
        .iter()
        .zip(dims.iter())
        .map(|(v, &d)| v.select_rows(&(0..d).collect::<Vec<_>>()))
        .collect();
    MultiViewDataset::new(views, data.labels().to_vec(), data.num_classes())
}

/// NUS-WIDE-like dataset, optionally with reduced view dimensionalities.
fn nuswide(n: usize, seed: u64, scale: f64) -> MultiViewDataset {
    let data = nuswide_dataset(&NusWideConfig {
        n_instances: n,
        seed,
        difficulty: 1.35,
    });
    if (scale - 1.0).abs() < 1e-12 {
        return data;
    }
    let dims = scaled(&[500, 144, 128], scale);
    let views: Vec<linalg::Matrix> = data
        .views()
        .iter()
        .zip(dims.iter())
        .map(|(v, &d)| v.select_rows(&(0..d).collect::<Vec<_>>()))
        .collect();
    MultiViewDataset::new(views, data.labels().to_vec(), data.num_classes())
}

fn print_accuracy_curves(title: &str, result: &ExperimentResult) {
    println!("\n=== {title} ===");
    print!("{:<12}", "dim");
    for curve in &result.curves {
        print!(" {:>12}", curve.method);
    }
    println!();
    let dims = &result.curves[0].dims;
    for (i, d) in dims.iter().enumerate() {
        print!("{:<12}", d);
        for curve in &result.curves {
            print!(" {:>12.4}", curve.mean_accuracy[i]);
        }
        println!();
    }
}

fn print_cost_curves(title: &str, result: &ExperimentResult) {
    println!("\n=== {title} (time, seconds) ===");
    print!("{:<12}", "dim");
    for curve in &result.curves {
        print!(" {:>12}", curve.method);
    }
    println!();
    let dims = &result.curves[0].dims;
    for (i, d) in dims.iter().enumerate() {
        print!("{:<12}", d);
        for curve in &result.curves {
            print!(" {:>12.4}", curve.mean_seconds[i]);
        }
        println!();
    }
    println!("\n=== {title} (memory model, MB) ===");
    print!("{:<12}", "dim");
    for curve in &result.curves {
        print!(" {:>12}", curve.method);
    }
    println!();
    for (i, d) in dims.iter().enumerate() {
        print!("{:<12}", d);
        for curve in &result.curves {
            print!(" {:>12.2}", curve.mean_megabytes[i]);
        }
        println!();
    }
}

fn print_table(title: &str, result: &ExperimentResult) {
    println!("\n=== {title} ===");
    print!("{}", sweep_to_table(result));
}

/// SecStr experiment (Fig. 3 / Table 1 / Fig. 7). Returns one result per unlabeled-pool
/// size (the paper's 84K and 1.3M panels, scaled down).
fn run_secstr(cli: &Cli) -> Vec<(String, ExperimentResult)> {
    let pools = if cli.full {
        vec![3000, 8000]
    } else {
        vec![1000, 3000]
    };
    let config = ExperimentConfig {
        dims: vec![5, 10, 20, 40, 80],
        epsilon: 1e-2,
        seeds: seeds(cli.seeds),
        labeled: LabeledSpec::Count(100),
        gamma: 1e-2,
        use_knn: false,
        tcca_iterations: 15,
        ..ExperimentConfig::default()
    };
    pools
        .into_iter()
        .map(|n| {
            let data = secstr(n, 17);
            let label = format!("SecStr, {n} unlabeled instances");
            (
                label,
                linear_experiment_named(&data, LINEAR_METHODS, &config),
            )
        })
        .collect()
}

/// Ads experiment (Fig. 4 / Table 2 / Fig. 8).
fn run_ads(cli: &Cli) -> (String, ExperimentResult) {
    let n = if cli.full { 3279 } else { 1000 };
    let scale = if cli.full { 0.5 } else { 0.25 } * cli.scale;
    let data = ads(n, 29, scale);
    let config = ExperimentConfig {
        dims: vec![5, 10, 20, 40, 80],
        epsilon: 1e-2,
        seeds: seeds(cli.seeds),
        labeled: LabeledSpec::Count(100),
        gamma: 1e-2,
        use_knn: false,
        tcca_iterations: 15,
        ..ExperimentConfig::default()
    };
    (
        format!("Ads, {n} instances, view scale {scale:.2}"),
        linear_experiment_named(&data, LINEAR_METHODS, &config),
    )
}

/// NUS-WIDE linear experiment (Fig. 5 / Table 3 / Fig. 9); one result per labeled count.
fn run_nuswide(cli: &Cli) -> Vec<(String, ExperimentResult)> {
    let n = if cli.full { 2000 } else { 700 };
    let scale = if cli.full { 0.5 } else { 0.35 } * cli.scale;
    let data = nuswide(n, 41, scale);
    [4usize, 6, 8]
        .into_iter()
        .map(|per_class| {
            let config = ExperimentConfig {
                dims: vec![5, 10, 20, 40],
                epsilon: 1e-2,
                seeds: seeds(cli.seeds),
                labeled: LabeledSpec::PerClass(per_class),
                use_knn: true,
                knn_candidates: (1..=10).collect(),
                tcca_iterations: 12,
                ..ExperimentConfig::default()
            };
            (
                format!("NUS-WIDE, {per_class} labeled per concept"),
                linear_experiment_named(&data, LINEAR_METHODS, &config),
            )
        })
        .collect()
}

/// NUS-WIDE kernel experiment (Fig. 6 / Table 4 / Fig. 10).
fn run_kernel(cli: &Cli) -> Vec<(String, ExperimentResult)> {
    let n = if cli.full { 300 } else { 150 };
    let data = nuswide(n, 43, 0.35);
    [4usize, 6, 8]
        .into_iter()
        .map(|per_class| {
            let config = ExperimentConfig {
                dims: vec![5, 10, 20],
                epsilon: 1e-1,
                seeds: seeds(cli.seeds),
                labeled: LabeledSpec::PerClass(per_class),
                use_knn: true,
                knn_candidates: (1..=10).collect(),
                tcca_iterations: 10,
                ..ExperimentConfig::default()
            };
            (
                format!("NUS-WIDE kernels, {n} samples, {per_class} labeled per concept"),
                kernel_experiment_named(&data, KERNEL_METHODS, &config),
            )
        })
        .collect()
}

/// Ablation: decomposition method (ALS vs HOPM vs power method) on SecStr-like data.
fn run_ablation_decomposition(cli: &Cli) {
    use tcca::{DecompositionMethod, Tcca, TccaOptions};
    let data = secstr(600, 17);
    println!("\n=== Ablation: rank-1 decomposition method (SecStr-like, 600 instances) ===");
    println!(
        "{:<14} {:>8} {:>16} {:>12}",
        "method", "rank", "leading |rho|", "seconds"
    );
    for rank in [1usize, 5, 10] {
        for (name, method) in [
            ("ALS", DecompositionMethod::Als),
            ("HOPM", DecompositionMethod::Hopm),
            ("Power", DecompositionMethod::PowerMethod),
        ] {
            let start = std::time::Instant::now();
            let opts = TccaOptions::with_rank(rank)
                .epsilon(1e-2)
                .method(method)
                .seed(cli.seeds as u64);
            let model = Tcca::fit(data.views(), &opts).expect("fit");
            println!(
                "{:<14} {:>8} {:>16.6} {:>12.3}",
                name,
                rank,
                model.correlations()[0].abs(),
                start.elapsed().as_secs_f64()
            );
        }
    }
}

/// Ablation: the regularizer ε.
fn run_ablation_epsilon(cli: &Cli) {
    let data = secstr(800, 17);
    println!("\n=== Ablation: regularization epsilon (SecStr-like, 800 instances) ===");
    let methods = ["TCCA"];
    for eps in [1e-4, 1e-2, 1.0] {
        let config = ExperimentConfig {
            dims: vec![10, 20],
            epsilon: eps,
            seeds: seeds(cli.seeds),
            labeled: LabeledSpec::Count(100),
            tcca_iterations: 15,
            ..ExperimentConfig::default()
        };
        let result = linear_experiment_named(&data, &methods, &config);
        println!(
            "epsilon {:>8.0e}: accuracy {}",
            eps,
            result.best[0].formatted()
        );
    }
}

/// Ablation: number of unlabeled instances (the paper's observation 3 on Table 1).
fn run_ablation_unlabeled(cli: &Cli) {
    println!("\n=== Ablation: unlabeled pool size (SecStr-like) ===");
    let methods = ["CCA (BST)", "CCA-LS", "TCCA"];
    for n in [400usize, 1200, 2400] {
        let data = secstr(n, 17);
        let config = ExperimentConfig {
            dims: vec![10, 20, 40],
            seeds: seeds(cli.seeds),
            labeled: LabeledSpec::Count(100),
            tcca_iterations: 15,
            ..ExperimentConfig::default()
        };
        let result = linear_experiment_named(&data, &methods, &config);
        print!("unlabeled {n:>6}:");
        for row in &result.best {
            print!("  {} {}", row.method, row.formatted());
        }
        println!();
    }
}

fn main() {
    let cli = parse_cli();
    match cli.command.as_str() {
        "fig3" => {
            for (label, result) in run_secstr(&cli) {
                print_accuracy_curves(&format!("Figure 3 — {label}"), &result);
            }
        }
        "table1" => {
            for (label, result) in run_secstr(&cli) {
                print_table(&format!("Table 1 — {label}"), &result);
            }
        }
        "fig4" => {
            let (label, result) = run_ads(&cli);
            print_accuracy_curves(&format!("Figure 4 — {label}"), &result);
        }
        "table2" => {
            let (label, result) = run_ads(&cli);
            print_table(&format!("Table 2 — {label}"), &result);
        }
        "fig5" => {
            for (label, result) in run_nuswide(&cli) {
                print_accuracy_curves(&format!("Figure 5 — {label}"), &result);
            }
        }
        "table3" => {
            for (label, result) in run_nuswide(&cli) {
                print_table(&format!("Table 3 — {label}"), &result);
            }
        }
        "fig6" => {
            for (label, result) in run_kernel(&cli) {
                print_accuracy_curves(&format!("Figure 6 — {label}"), &result);
            }
        }
        "table4" => {
            for (label, result) in run_kernel(&cli) {
                print_table(&format!("Table 4 — {label}"), &result);
            }
        }
        "fig7" => {
            for (label, result) in run_secstr(&cli) {
                print_cost_curves(&format!("Figure 7 — {label}"), &result);
            }
        }
        "fig8" => {
            let (label, result) = run_ads(&cli);
            print_cost_curves(&format!("Figure 8 — {label}"), &result);
        }
        "fig9" => {
            for (label, result) in run_nuswide(&cli).into_iter().take(1) {
                print_cost_curves(&format!("Figure 9 — {label}"), &result);
            }
        }
        "fig10" => {
            for (label, result) in run_kernel(&cli).into_iter().take(1) {
                print_cost_curves(&format!("Figure 10 — {label}"), &result);
            }
        }
        "ablation-decomposition" => run_ablation_decomposition(&cli),
        "ablation-epsilon" => run_ablation_epsilon(&cli),
        "ablation-unlabeled" => run_ablation_unlabeled(&cli),
        "all" => {
            for (label, result) in run_secstr(&cli) {
                print_accuracy_curves(&format!("Figure 3 — {label}"), &result);
                print_table(&format!("Table 1 — {label}"), &result);
                print_cost_curves(&format!("Figure 7 — {label}"), &result);
            }
            let (label, result) = run_ads(&cli);
            print_accuracy_curves(&format!("Figure 4 — {label}"), &result);
            print_table(&format!("Table 2 — {label}"), &result);
            print_cost_curves(&format!("Figure 8 — {label}"), &result);
            for (label, result) in run_nuswide(&cli) {
                print_accuracy_curves(&format!("Figure 5 — {label}"), &result);
                print_table(&format!("Table 3 — {label}"), &result);
            }
            for (label, result) in run_kernel(&cli) {
                print_accuracy_curves(&format!("Figure 6 — {label}"), &result);
                print_table(&format!("Table 4 — {label}"), &result);
            }
            run_ablation_decomposition(&cli);
        }
        _ => {
            println!(
                "usage: experiments <fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|\
                 table1|table2|table3|table4|ablation-decomposition|ablation-epsilon|\
                 ablation-unlabeled|all> [--seeds N] [--scale S] [--full]"
            );
        }
    }
}
