//! Benchmark and experiment harness reproducing the TCCA paper's evaluation.
//!
//! The paper's evaluation section contains four tables and eight figures; each has a
//! matching subcommand of the `experiments` binary (`cargo run --release -p tcca-bench
//! --bin experiments -- <id>`) that regenerates the same rows / series:
//!
//! | id | paper artefact |
//! |----|----------------|
//! | `fig3`, `table1` | SecStr accuracy vs subspace dimension / at the best dimension |
//! | `fig4`, `table2` | Ads accuracy vs dimension / at the best dimension |
//! | `fig5`, `table3` | NUS-WIDE accuracy vs dimension for {4,6,8} labels per class |
//! | `fig6`, `table4` | kernel methods on the 500-sample NUS-WIDE subset |
//! | `fig7`–`fig10`   | time and memory cost vs dimension on each dataset |
//! | `ablation-*`     | decomposition-method and regularization ablations (not in paper) |
//!
//! Module map: [`methods`] resolves every compared method by name through the
//! `mvcore` [`mvcore::EstimatorRegistry`] — one [`mvcore::FitSpec`] drives every fit,
//! and candidates, combine rules and memory accounting all come uniformly from the
//! fitted [`mvcore::MultiViewModel`]; [`runner`] implements the paper's evaluation
//! protocol (labeled subsets, 20% validation split, best-dimension selection,
//! mean ± std over seeds); [`memcost`] re-exports the allocation model that now lives
//! in `mvcore`.
//!
//! The `kernel_bench` binary times the hot kernels (covariance-tensor build,
//! whitening, the decomposition solvers); the `fig7`–`fig10` subcommands time
//! end-to-end fits.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod memcost;
pub mod methods;
pub mod runner;

pub use memcost::MemoryModel;
pub use methods::{registry, MethodOutput, KERNEL_METHODS, LINEAR_METHODS};
pub use runner::{
    kernel_experiment_named, linear_experiment_named, sweep_to_table, ExperimentConfig,
    ExperimentResult, MethodCurve,
};
