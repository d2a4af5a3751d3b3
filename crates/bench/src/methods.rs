//! Registry-driven method dispatch for the experiment harness.
//!
//! The experiment runner does not care how a method works internally; it needs, for a
//! given dataset and subspace dimension, one or more candidate representations of all
//! instances plus the wall-clock time and modelled memory of producing them. All of
//! that now comes uniformly from the `mvcore` estimator API: a method name resolves
//! through the [`EstimatorRegistry`], fits under one [`FitSpec`], and its fitted
//! [`mvcore::MultiViewModel`] supplies the candidates ([`Output`]), the
//! [`CombineRule`] and the [`MemoryModel`] — no per-method plumbing anywhere in this
//! crate.
//!
//! [`LINEAR_METHODS`] and [`KERNEL_METHODS`] list the paper's compared methods by
//! registry name, in table order.

use crate::memcost::MemoryModel;
use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec};
use std::sync::OnceLock;
use std::time::Instant;

pub use mvcore::{CombineRule, Output};

/// How an instance is represented for the downstream learner (re-export of
/// [`mvcore::Output`] under the harness's historical name).
pub type Representation = Output;

/// The process-wide estimator registry the harness dispatches through.
pub fn registry() -> &'static EstimatorRegistry {
    static REGISTRY: OnceLock<EstimatorRegistry> = OnceLock::new();
    REGISTRY.get_or_init(EstimatorRegistry::with_builtin)
}

/// True when a method's representation changes with the subspace dimension `r`
/// (the flat feature/kernel baselines are constant lines in the paper's figures).
pub fn rank_dependent(name: &str) -> bool {
    !matches!(name, "BSF" | "CAT" | "BSK" | "AVG")
}

/// The output of fitting one method at one operating point.
#[derive(Debug, Clone)]
pub struct MethodOutput {
    /// Display name (matches the paper's tables).
    pub name: String,
    /// One or more candidate representations covering *all* dataset instances, in
    /// dataset order.
    pub candidates: Vec<Representation>,
    /// How the candidates are combined.
    pub combine: CombineRule,
    /// Wall-clock seconds spent fitting and producing the representations.
    pub seconds: f64,
    /// Modelled memory cost.
    pub memory: MemoryModel,
}

/// Resolve `name` through the registry, fit it on the inputs (feature views or
/// centered Gram matrices, per the estimator's input kind) and collect its candidate
/// representations plus cost accounting.
pub fn run_registered(name: &str, inputs: &[Matrix], spec: &FitSpec) -> MethodOutput {
    let estimator = registry()
        .get(name)
        .unwrap_or_else(|e| panic!("resolving {name}: {e}"));
    let start = Instant::now();
    let model = estimator
        .fit(inputs, spec)
        .unwrap_or_else(|e| panic!("fitting {name}: {e}"));
    let candidates = model
        .outputs(inputs)
        .unwrap_or_else(|e| panic!("transforming {name}: {e}"));
    MethodOutput {
        name: model.name().to_string(),
        candidates,
        combine: model.combine(),
        seconds: start.elapsed().as_secs_f64(),
        memory: model.memory().clone(),
    }
}

/// The [`FitSpec`] one experiment operating point translates into. The experiment's
/// `tcca_iterations` caps only the tensor decomposition (the dominant cost); the
/// other iterative solvers (CCA-LS, SSMVD's IRLS) keep the spec's general,
/// convergence-bounded budget.
pub fn experiment_spec(rank: usize, epsilon: f64, seed: u64, tcca_iterations: usize) -> FitSpec {
    FitSpec::with_rank(rank)
        .epsilon(epsilon)
        .seed(seed)
        .decomposition_iterations(tcca_iterations)
}

/// The linear methods of the paper's Tables 1–3 / Figures 3–5 and 7–9, in table
/// order. `CCA-MAXVAR` is registered too but is not in the paper's tables.
pub const LINEAR_METHODS: &[&str] = &[
    "BSF",
    "CAT",
    "CCA (BST)",
    "CCA (AVG)",
    "CCA-LS",
    "DSE",
    "SSMVD",
    "TCCA",
];

/// The kernel methods of the paper's Table 4 / Figures 6 and 10, in table order.
pub const KERNEL_METHODS: &[&str] = &["BSK", "AVG", "KCCA (BST)", "KCCA (AVG)", "KTCCA"];

/// Convenience: two-view KCCA exposed for the ablation benches (fitting a single pair
/// instead of all pairs).
pub fn fit_single_kcca(k1: &Matrix, k2: &Matrix, rank: usize, epsilon: f64) -> baselines::Kcca {
    baselines::Kcca::fit(k1, k2, rank, epsilon).expect("KCCA fit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{
        center_kernel, gram_matrix, secstr_dataset, Kernel, MultiViewDataset, SecStrConfig,
    };

    fn tiny_dataset() -> MultiViewDataset {
        secstr_dataset(&SecStrConfig {
            n_instances: 60,
            seed: 5,
            difficulty: 0.8,
        })
    }

    #[test]
    fn names_and_paper_sets() {
        assert_eq!(LINEAR_METHODS.len(), 8);
        assert_eq!(KERNEL_METHODS.len(), 5);
        assert!(!rank_dependent("BSF"));
        assert!(rank_dependent("TCCA"));
        assert!(!rank_dependent("AVG"));
        assert!(rank_dependent("KTCCA"));
    }

    #[test]
    fn every_paper_method_resolves_through_the_registry() {
        for name in LINEAR_METHODS.iter().chain(KERNEL_METHODS) {
            assert!(registry().contains(name), "{name}");
        }
        assert_eq!(
            registry().input_kind("KTCCA"),
            Some(mvcore::InputKind::Kernels)
        );
    }

    #[test]
    fn every_linear_method_produces_representations() {
        let data = tiny_dataset();
        for name in LINEAR_METHODS {
            let out = run_registered(name, data.views(), &experiment_spec(3, 1e-2, 1, 10));
            assert!(!out.candidates.is_empty(), "{}", out.name);
            for c in &out.candidates {
                match c {
                    Representation::Embedding(z) => assert_eq!(z.rows(), data.len()),
                    Representation::Distances(d) => assert_eq!(d.rows(), data.len()),
                }
            }
            assert!(out.seconds >= 0.0);
            assert!(out.memory.total_bytes() > 0);
        }
    }

    #[test]
    fn bsf_yields_one_candidate_per_view_and_cat_one() {
        let data = tiny_dataset();
        let spec = experiment_spec(5, 1e-2, 1, 5);
        let bsf = run_registered("BSF", data.views(), &spec);
        assert_eq!(bsf.candidates.len(), 3);
        assert_eq!(bsf.combine, CombineRule::SelectBest);
        let cat = run_registered("CAT", data.views(), &spec);
        assert_eq!(cat.candidates.len(), 1);
        if let Representation::Embedding(z) = &cat.candidates[0] {
            assert_eq!(z.cols(), 315);
        } else {
            panic!("CAT must produce an embedding");
        }
    }

    #[test]
    fn cca_avg_uses_average_rule() {
        let data = tiny_dataset();
        let avg = run_registered("CCA (AVG)", data.views(), &experiment_spec(2, 1e-2, 1, 5));
        assert_eq!(avg.combine, CombineRule::Average);
        assert_eq!(avg.candidates.len(), 3); // three view pairs
    }

    #[test]
    fn kernel_methods_produce_representations() {
        let data = tiny_dataset().subset(&(0..30).collect::<Vec<_>>());
        let kernels: Vec<Matrix> = data
            .views()
            .iter()
            .map(|v| center_kernel(&gram_matrix(v, Kernel::ExpEuclidean)))
            .collect();
        for name in KERNEL_METHODS {
            let out = run_registered(name, &kernels, &experiment_spec(2, 1e-1, 1, 8));
            assert!(!out.candidates.is_empty(), "{}", out.name);
            assert!(out.memory.total_bytes() > 0);
        }
    }
}
