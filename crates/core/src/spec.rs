//! [`FitSpec`]: the single hyper-parameter bundle shared by every estimator.
//!
//! Before this type existed each method had its own positional-argument `fit`
//! signature (`Cca::fit(&v1, &v2, rank, eps)` vs `Dse::fit(&views, rank,
//! per_view_dim)` vs `Ktcca::fit(&kernels, &options)`). `FitSpec` unifies them,
//! cca_zoo-style: one builder holding the subspace rank, the regularizer, the RNG
//! seed, the iteration budget, the per-view PCA pre-reduction width and the
//! center/scale preprocessing switches. Estimators read the fields they understand
//! and ignore the rest, so one spec can drive a whole registry sweep.

use tcca::{DecompositionMethod, TccaOptions};

/// Default per-view PCA width used by DSE/SSMVD when [`FitSpec::per_view_dim`] is
/// unset (the paper reduces each view to 100 principal components).
pub const DEFAULT_PER_VIEW_DIM: usize = 100;

/// Default tensor-decomposition iteration budget when
/// [`FitSpec::decomposition_iterations`] is unset (matches `TccaOptions::default`).
pub const DEFAULT_DECOMPOSITION_ITERATIONS: usize = 60;

/// Default sketch oversampling for [`WhitenSpec::Randomized`] (extra Gaussian probe
/// columns beyond the target rank; the standard recommendation of 5–10).
pub const DEFAULT_WHITEN_OVERSAMPLE: usize = 8;

/// Default subspace (power) iterations for [`WhitenSpec::Randomized`]; two rounds
/// sharpen the recovered range enough for whitening on any decaying spectrum.
pub const DEFAULT_WHITEN_POWER_ITERS: usize = 2;

/// How (and whether) a per-view whitening stage decorrelates the features before the
/// estimator runs. This is the structured replacement for growing [`FitSpec`] one
/// flat field per whitening knob.
///
/// * `None` — no whitening stage (estimators still whiten internally where their
///   math requires it, e.g. TCCA's covariance inverse square root).
/// * `Exact` — dense eigendecomposition of the `d × d` regularized covariance
///   (`(C + εI)^{-1/2}`); exact but `O(d³)`, for small `d` only.
/// * `Randomized` — seeded Gaussian range-finder over the sketched covariance:
///   never forms the `d × d` matrix, reducing *and* whitening to the estimator's
///   per-view width in `O(d·N·ℓ)` — the path that opens `d ≈ 100k` views. On kernel
///   inputs the same spec selects the Nyström landmark factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum WhitenSpec {
    /// No whitening stage.
    #[default]
    None,
    /// Dense `(C + εI)^{-1/2}` whitening (small `d` only).
    Exact,
    /// Randomized range-finder whitening (linear views) / Nyström (kernel inputs).
    Randomized {
        /// Extra sketch columns beyond the target rank.
        oversample: usize,
        /// Subspace-iteration rounds applied to the sketch.
        power_iters: usize,
    },
}

impl WhitenSpec {
    /// The randomized variant with the default oversample / power-iteration budget.
    pub fn randomized() -> Self {
        Self::Randomized {
            oversample: DEFAULT_WHITEN_OVERSAMPLE,
            power_iters: DEFAULT_WHITEN_POWER_ITERS,
        }
    }

    /// True when no whitening stage is requested.
    pub fn is_none(&self) -> bool {
        matches!(self, WhitenSpec::None)
    }

    /// The `(oversample, power_iters)` sketch budget when the randomized mode is
    /// selected, `None` otherwise.
    pub fn randomized_budget(&self) -> Option<(usize, usize)> {
        match self {
            WhitenSpec::Randomized {
                oversample,
                power_iters,
            } => Some((*oversample, *power_iters)),
            _ => None,
        }
    }
}

/// Unified fitting parameters understood by every [`crate::MultiViewEstimator`].
///
/// The struct is `#[non_exhaustive]`: construct it through [`FitSpec::default`] /
/// [`FitSpec::with_rank`] and the builder setters, so future stages can add fields
/// without breaking every struct-literal constructor again.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FitSpec {
    /// Dimension `r` of the learned common subspace (per view where applicable).
    pub rank: usize,
    /// Ridge / PLS regularizer ε (view covariances for the linear methods, the
    /// `K² + εK` penalty for the kernel methods).
    pub epsilon: f64,
    /// RNG seed for iterative solvers and decomposition initialization.
    pub seed: u64,
    /// General iteration budget for iterative solvers (coupled LS, IRLS).
    pub max_iterations: usize,
    /// Iteration budget specifically for the tensor decomposition of TCCA / KTCCA —
    /// the dominant cost, which experiments often cap far below the general budget;
    /// `None` means [`DEFAULT_DECOMPOSITION_ITERATIONS`].
    pub decomposition_iterations: Option<usize>,
    /// Convergence tolerance for iterative solvers.
    pub tolerance: f64,
    /// Per-view PCA width for methods with a pre-reduction stage (DSE, SSMVD and any
    /// pipeline with a [`crate::PcaReduce`] stage); `None` means [`DEFAULT_PER_VIEW_DIM`].
    pub per_view_dim: Option<usize>,
    /// Tensor decomposition algorithm for TCCA / KTCCA.
    pub decomposition: DecompositionMethod,
    /// Center each feature to zero mean before fitting (applied by
    /// [`crate::Pipeline`]; estimators additionally center internally where their
    /// math requires it).
    pub center: bool,
    /// Scale each feature to unit variance before fitting (applied by
    /// [`crate::Pipeline`]).
    pub scale: bool,
    /// Per-view whitening stage (none / exact / randomized), applied by
    /// [`crate::Pipeline`] whitening stages and consulted by TCCA / KTCCA to pick
    /// their whitening path.
    pub whiten: WhitenSpec,
}

impl Default for FitSpec {
    fn default() -> Self {
        Self {
            rank: 10,
            epsilon: 1e-2,
            seed: 7,
            max_iterations: 100,
            decomposition_iterations: None,
            tolerance: 1e-7,
            per_view_dim: None,
            decomposition: DecompositionMethod::Als,
            center: false,
            scale: false,
            whiten: WhitenSpec::None,
        }
    }
}

impl FitSpec {
    /// Default spec with the given subspace rank.
    pub fn with_rank(rank: usize) -> Self {
        Self {
            rank,
            ..Self::default()
        }
    }

    /// Builder-style setter for the subspace rank.
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Builder-style setter for the regularizer ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the general iteration budget.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Builder-style setter for the tensor-decomposition iteration budget.
    pub fn decomposition_iterations(mut self, iterations: usize) -> Self {
        self.decomposition_iterations = Some(iterations);
        self
    }

    /// Builder-style setter for the convergence tolerance.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Builder-style setter for the per-view PCA pre-reduction width.
    pub fn per_view_dim(mut self, per_view_dim: usize) -> Self {
        self.per_view_dim = Some(per_view_dim);
        self
    }

    /// Builder-style setter for the tensor decomposition algorithm.
    pub fn decomposition(mut self, method: DecompositionMethod) -> Self {
        self.decomposition = method;
        self
    }

    /// Builder-style setter for the centering switch.
    pub fn center(mut self, center: bool) -> Self {
        self.center = center;
        self
    }

    /// Builder-style setter for the scaling switch.
    pub fn scale(mut self, scale: bool) -> Self {
        self.scale = scale;
        self
    }

    /// Builder-style setter for the whitening stage.
    pub fn whiten(mut self, whiten: WhitenSpec) -> Self {
        self.whiten = whiten;
        self
    }

    /// The per-view PCA width, falling back to the paper's default of 100.
    pub fn effective_per_view_dim(&self) -> usize {
        self.per_view_dim.unwrap_or(DEFAULT_PER_VIEW_DIM)
    }

    /// The iteration budget for the tensor decomposition of TCCA / KTCCA, falling
    /// back to the method's own default of 60.
    pub fn effective_decomposition_iterations(&self) -> usize {
        self.decomposition_iterations
            .unwrap_or(DEFAULT_DECOMPOSITION_ITERATIONS)
    }

    /// Project the spec onto the options understood by `Tcca` / `Ktcca`.
    pub fn tcca_options(&self) -> TccaOptions {
        TccaOptions {
            rank: self.rank,
            epsilon: self.epsilon,
            method: self.decomposition,
            max_iterations: self.effective_decomposition_iterations(),
            tolerance: self.tolerance,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_every_field() {
        let spec = FitSpec::with_rank(5)
            .epsilon(0.5)
            .seed(99)
            .max_iterations(17)
            .decomposition_iterations(9)
            .tolerance(1e-3)
            .per_view_dim(40)
            .decomposition(DecompositionMethod::Hopm)
            .center(true)
            .scale(true)
            .whiten(WhitenSpec::randomized());
        assert_eq!(spec.rank, 5);
        assert_eq!(spec.epsilon, 0.5);
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.max_iterations, 17);
        assert_eq!(spec.decomposition_iterations, Some(9));
        assert_eq!(spec.effective_decomposition_iterations(), 9);
        assert_eq!(spec.tolerance, 1e-3);
        assert_eq!(spec.per_view_dim, Some(40));
        assert_eq!(spec.effective_per_view_dim(), 40);
        assert_eq!(spec.decomposition, DecompositionMethod::Hopm);
        assert!(spec.center && spec.scale);
        assert_eq!(
            spec.whiten,
            WhitenSpec::Randomized {
                oversample: DEFAULT_WHITEN_OVERSAMPLE,
                power_iters: DEFAULT_WHITEN_POWER_ITERS
            }
        );
    }

    #[test]
    fn defaults_match_the_paper() {
        let spec = FitSpec::default();
        assert_eq!(spec.rank, 10);
        assert_eq!(spec.epsilon, 1e-2);
        assert_eq!(spec.effective_per_view_dim(), DEFAULT_PER_VIEW_DIM);
        assert_eq!(spec.decomposition, DecompositionMethod::Als);
        assert_eq!(
            spec.effective_decomposition_iterations(),
            DEFAULT_DECOMPOSITION_ITERATIONS
        );
        assert!(!spec.center && !spec.scale);
        assert!(spec.whiten.is_none());
    }

    #[test]
    fn tcca_options_projection_is_faithful() {
        let spec = FitSpec::with_rank(3)
            .epsilon(0.1)
            .seed(11)
            .max_iterations(9);
        let opts = spec.tcca_options();
        assert_eq!(opts.rank, 3);
        assert_eq!(opts.epsilon, 0.1);
        assert_eq!(opts.seed, 11);
        // Without an explicit decomposition budget the TCCA default applies…
        assert_eq!(opts.max_iterations, DEFAULT_DECOMPOSITION_ITERATIONS);
        // …and an explicit one takes precedence.
        let opts = spec.decomposition_iterations(4).tcca_options();
        assert_eq!(opts.max_iterations, 4);
        assert_eq!(opts.method, DecompositionMethod::Als);
    }
}
