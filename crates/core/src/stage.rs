//! The composable per-view preprocessing stage API.
//!
//! A [`crate::Pipeline`] used to hard-code its preamble (center/scale, then maybe
//! PCA). This module turns that preamble into a *stage list*: each [`ViewStage`] is
//! an unfitted stage description that fits one view into a [`FittedStage`] — a
//! replayable `d_in × M → d_out × M` transformation that saves and loads its state
//! through MVTC sections, so served models replay exactly the training-time
//! preprocessing at transform time.
//!
//! Built-in stages:
//!
//! | stage | fit | apply | state sections |
//! |---|---|---|---|
//! | [`Standardize`] | per-feature mean / std (driven by `spec.center` / `spec.scale`) | `(x − μ) ⊙ σ⁻¹` | `means`, `inverse_stds` |
//! | [`PcaReduce`] | top `spec.effective_per_view_dim()` principal directions | `Wᵀ(x − μ)` | `mean`, `components`, `variance` |
//! | [`Whiten`] (exact) | dense `(C + εI)^{-1/2}` | `W(x − μ)` | `mean`, `weights` |
//! | [`Whiten`] (randomized) | seeded range-finder over the sketched covariance | `Wᵀ(x − μ)`, `W = U(Λ + εI)^{-1/2}` | `mean`, `weights` |
//!
//! Every fitted stage that is a shifted projection implements
//! [`FittedStage::apply_cols`] through the zero-copy
//! [`linalg::ColsView::shifted_t_matmul`] path, so a stage-bearing pipeline still
//! projects coalesced serving batches straight out of request buffers.

use crate::estimators::{load_pca, save_pca};
use crate::{CoreError, FitSpec, ModelState, Result, WhitenSpec};
use baselines::Pca;
use linalg::{center_rows, covariance, randomized_covariance_eig, ColsView, Matrix};

/// Eigenvalue floor shared with the exact TCCA whitening path.
const WHITEN_FLOOR: f64 = 1e-12;

/// Floor below which a feature's standard deviation is treated as zero. Scaling
/// such a feature would divide by (numerical) zero, so [`Standardize`] rejects it
/// with a typed [`CoreError::DegenerateFeature`] instead of silently leaving the
/// column unscaled (which made the same pipeline mean different transforms
/// depending on the data).
const MIN_STD: f64 = 1e-12;

/// An unfitted preprocessing stage: a description that can fit any view.
///
/// A stage may be **inert** under a given [`FitSpec`] (e.g. [`Standardize`] when
/// neither `center` nor `scale` is set, or [`Whiten`] deferring to a spec that says
/// [`WhitenSpec::None`]); inert stages return `Ok(None)` and drop out of the fitted
/// pipeline entirely, so persisted state never carries identity transforms.
pub trait ViewStage: Send + Sync {
    /// Stable identifier written into persisted state and used to re-dispatch on
    /// load (`"standardize"`, `"pca"`, `"whiten"`).
    fn kind(&self) -> &'static str;

    /// Fit the stage on view `which` (`d × N`, instances as columns), or `Ok(None)`
    /// when the spec makes this stage a no-op.
    fn fit(
        &self,
        which: usize,
        view: &Matrix,
        spec: &FitSpec,
    ) -> Result<Option<Box<dyn FittedStage>>>;
}

/// A fitted, replayable per-view transformation (`d_in × M → d_out × M`).
pub trait FittedStage: Send + Sync {
    /// The same identifier as the [`ViewStage`] that produced this state.
    fn kind(&self) -> &'static str;

    /// Transform a `d_in × M` view (any instance count).
    fn apply(&self, view: &Matrix) -> Result<Matrix>;

    /// Transform the horizontal concatenation of borrowed column blocks. Projection
    /// stages override this with the zero-copy shifted-GEMM path; the default
    /// materializes the view (counted by [`linalg::input_stitches`]).
    fn apply_cols(&self, cols: &ColsView<'_>) -> Result<Matrix> {
        self.apply(&cols.to_matrix())
    }

    /// Write the fitted state under `prefix/…` sections.
    fn save(&self, state: &mut ModelState, prefix: &str);
}

/// Rebuild a fitted stage from `prefix/…` sections, dispatching on the persisted
/// `kind` string. Unknown kinds are a persistence error (a file written by a newer
/// registry), not a panic.
pub fn load_fitted_stage(
    kind: &str,
    state: &ModelState,
    prefix: &str,
) -> Result<Box<dyn FittedStage>> {
    match kind {
        "standardize" => Ok(Box::new(FittedStandardize::from_parts(
            state.vector(&format!("{prefix}/means"))?.to_vec(),
            state.vector(&format!("{prefix}/inverse_stds"))?.to_vec(),
        )?)),
        "pca" => Ok(Box::new(FittedPca(load_pca(state, prefix)?))),
        "whiten" => {
            let mean = state.vector(&format!("{prefix}/mean"))?.to_vec();
            let weights = state.matrix(&format!("{prefix}/weights"))?.clone();
            Ok(Box::new(FittedWhiten::new(mean, weights)?))
        }
        other => Err(CoreError::Persist(format!(
            "unknown preprocessing stage kind {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Standardize
// ---------------------------------------------------------------------------

/// Per-feature center/scale stage, driven by `spec.center` / `spec.scale`. Inert
/// when both switches are off.
///
/// `center` subtracts the feature mean, `scale` divides by the feature's
/// population standard deviation. When `scale` is set and a feature has
/// (numerically) zero variance, the fit fails with
/// [`CoreError::DegenerateFeature`] naming the column: no scale makes a constant
/// feature unit-variance. Drop the column or fit with `scale = false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standardize;

impl ViewStage for Standardize {
    fn kind(&self) -> &'static str {
        "standardize"
    }

    fn fit(
        &self,
        _which: usize,
        view: &Matrix,
        spec: &FitSpec,
    ) -> Result<Option<Box<dyn FittedStage>>> {
        if !spec.center && !spec.scale {
            return Ok(None);
        }
        let fitted = FittedStandardize::fit(view, spec.center, spec.scale)?;
        Ok(Some(Box::new(fitted)))
    }
}

/// Fitted per-feature means and inverse standard deviations of one view, so
/// held-out instances go through exactly the training-time transformation.
struct FittedStandardize {
    means: Vec<f64>,
    inverse_stds: Vec<f64>,
}

impl FittedStandardize {
    fn fit(view: &Matrix, center: bool, scale: bool) -> Result<Self> {
        let d = view.rows();
        let n = view.cols().max(1) as f64;
        let mut means = vec![0.0; d];
        let mut inverse_stds = vec![1.0; d];
        for i in 0..d {
            let row = view.row(i);
            let mean = row.iter().sum::<f64>() / n;
            if center {
                means[i] = mean;
            }
            if scale {
                let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
                let std = var.sqrt();
                if std <= MIN_STD {
                    return Err(CoreError::DegenerateFeature {
                        column: i,
                        reason: format!(
                            "standard deviation {std:.3e} is below {MIN_STD:.0e}; a \
                             constant feature cannot be scaled to unit variance"
                        ),
                    });
                }
                inverse_stds[i] = 1.0 / std;
            }
        }
        Ok(Self {
            means,
            inverse_stds,
        })
    }

    fn from_parts(means: Vec<f64>, inverse_stds: Vec<f64>) -> Result<Self> {
        if means.len() != inverse_stds.len() {
            return Err(CoreError::InvalidInput(format!(
                "{} means but {} inverse stds",
                means.len(),
                inverse_stds.len()
            )));
        }
        Ok(Self {
            means,
            inverse_stds,
        })
    }
}

impl FittedStage for FittedStandardize {
    fn kind(&self) -> &'static str {
        "standardize"
    }

    fn apply(&self, view: &Matrix) -> Result<Matrix> {
        if view.rows() != self.means.len() {
            return Err(CoreError::InvalidInput(format!(
                "view has {} features but the standardizer expects {}",
                view.rows(),
                self.means.len()
            )));
        }
        let mut out = view.clone();
        for i in 0..out.rows() {
            let mean = self.means[i];
            let inv = self.inverse_stds[i];
            for v in out.row_mut(i) {
                *v = (*v - mean) * inv;
            }
        }
        Ok(out)
    }

    fn save(&self, state: &mut ModelState, prefix: &str) {
        state.put_vector(format!("{prefix}/means"), &self.means);
        state.put_vector(format!("{prefix}/inverse_stds"), &self.inverse_stds);
    }
}

// ---------------------------------------------------------------------------
// PcaReduce
// ---------------------------------------------------------------------------

/// Per-view PCA reduction to `spec.effective_per_view_dim()` components (clamped by
/// the view's feature and instance counts, like the paper's DSE/SSMVD preamble).
#[derive(Debug, Clone, Copy, Default)]
pub struct PcaReduce;

impl ViewStage for PcaReduce {
    fn kind(&self) -> &'static str {
        "pca"
    }

    fn fit(
        &self,
        _which: usize,
        view: &Matrix,
        spec: &FitSpec,
    ) -> Result<Option<Box<dyn FittedStage>>> {
        let width = spec.effective_per_view_dim();
        if width == 0 {
            return Err(CoreError::InvalidInput(
                "per-view dimension must be positive".into(),
            ));
        }
        let k = width.min(view.rows()).min(view.cols().max(1));
        Ok(Some(Box::new(FittedPca(Pca::fit(view, k)?))))
    }
}

struct FittedPca(Pca);

impl FittedStage for FittedPca {
    fn kind(&self) -> &'static str {
        "pca"
    }

    fn apply(&self, view: &Matrix) -> Result<Matrix> {
        // Scores come back N × k; stages keep the d × N view layout.
        Ok(self.0.transform(view)?.transpose())
    }

    fn apply_cols(&self, cols: &ColsView<'_>) -> Result<Matrix> {
        Ok(self.0.transform_cols(cols)?.transpose())
    }

    fn save(&self, state: &mut ModelState, prefix: &str) {
        save_pca(state, prefix, &self.0);
    }
}

// ---------------------------------------------------------------------------
// Whiten
// ---------------------------------------------------------------------------

/// Per-view whitening stage. The mode comes either from the [`FitSpec`]
/// ([`Whiten::from_spec`], inert when the spec says [`WhitenSpec::None`]) or is
/// fixed at construction ([`Whiten::fixed`]).
///
/// * **Exact** — `W = (C + εI)^{-1/2}` via the dense Jacobi eigensolver: the
///   full-dimensional (`d × d`) whitening of the paper's preamble. `O(d³)`; small
///   `d` only.
/// * **Randomized** — seeded Gaussian range-finder over the sketched covariance
///   ([`linalg::randomized_covariance_eig`]): reduces *and* whitens to
///   `spec.effective_per_view_dim()` dimensions, `W = U (Λ + εI)^{-1/2}` (`d × k`),
///   without ever forming the `d × d` covariance — the path that fits `d ≈ 100k`
///   views in seconds. Bit-deterministic in `spec.seed` (each view's sketch stream
///   is derived from it) and independent of the thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Whiten {
    mode: Option<WhitenSpec>,
}

impl Whiten {
    /// A whitening stage that reads its mode from `spec.whiten` at fit time.
    pub fn from_spec() -> Self {
        Self { mode: None }
    }

    /// A whitening stage with a fixed mode, ignoring `spec.whiten`.
    pub fn fixed(mode: WhitenSpec) -> Self {
        Self { mode: Some(mode) }
    }
}

impl ViewStage for Whiten {
    fn kind(&self) -> &'static str {
        "whiten"
    }

    fn fit(
        &self,
        which: usize,
        view: &Matrix,
        spec: &FitSpec,
    ) -> Result<Option<Box<dyn FittedStage>>> {
        let mode = self.mode.unwrap_or(spec.whiten);
        match fit_whitener(view, mode, spec, stage_seed(spec.seed, which))? {
            None => Ok(None),
            Some((mean, weights)) => Ok(Some(Box::new(FittedWhiten::new(mean, weights)?))),
        }
    }
}

/// Derive a per-view sketch seed from the spec seed (distinct streams per view).
pub(crate) fn stage_seed(seed: u64, which: usize) -> u64 {
    seed ^ (which as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Compute a whitening transform `(mean, weights)` for one `d × N` view such that
/// the whitened view is `weightsᵀ · (X − mean·1ᵀ)`. Returns `None` for
/// [`WhitenSpec::None`]. Shared by the [`Whiten`] stage and the TCCA estimator's
/// high-dimensional fit path.
pub(crate) fn fit_whitener(
    view: &Matrix,
    mode: WhitenSpec,
    spec: &FitSpec,
    seed: u64,
) -> Result<Option<(Vec<f64>, Matrix)>> {
    match mode {
        WhitenSpec::None => Ok(None),
        WhitenSpec::Exact => {
            let (centered, mean) = center_rows(view);
            let mut c = covariance(&centered);
            c.add_diagonal(spec.epsilon);
            // Symmetric, so Wᵀ(X − μ) = W(X − μ): exactly the paper's whitening.
            let weights = c.inverse_sqrt_spd(WHITEN_FLOOR)?;
            Ok(Some((mean, weights)))
        }
        WhitenSpec::Randomized {
            oversample,
            power_iters,
        } => {
            let (centered, mean) = center_rows(view);
            let k = spec
                .effective_per_view_dim()
                .min(view.rows())
                .min(view.cols().max(1));
            let eig = randomized_covariance_eig(&centered, k, oversample, power_iters, seed)?;
            // W = U (Λ + εI)^{-1/2}: whitened coordinates in the recovered
            // eigenbasis (PCA whitening, truncated — reduce and whiten in one).
            let mut weights = eig.eigenvectors;
            for (j, &lambda) in eig.eigenvalues.iter().enumerate() {
                let inv = 1.0 / (lambda + spec.epsilon).max(WHITEN_FLOOR).sqrt();
                for i in 0..weights.rows() {
                    weights[(i, j)] *= inv;
                }
            }
            Ok(Some((mean, weights)))
        }
        // `WhitenSpec` is non-exhaustive; future modes must be wired here.
        #[allow(unreachable_patterns)]
        other => Err(CoreError::InvalidInput(format!(
            "unsupported whitening mode {other:?}"
        ))),
    }
}

struct FittedWhiten {
    mean: Vec<f64>,
    /// `d × k` (exact: `k = d`, symmetric; randomized: truncated eigenbasis).
    weights: Matrix,
}

impl FittedWhiten {
    fn new(mean: Vec<f64>, weights: Matrix) -> Result<Self> {
        if mean.len() != weights.rows() {
            return Err(CoreError::InvalidInput(format!(
                "whitening mean has {} entries but weights have {} rows",
                mean.len(),
                weights.rows()
            )));
        }
        Ok(Self { mean, weights })
    }
}

impl FittedStage for FittedWhiten {
    fn kind(&self) -> &'static str {
        "whiten"
    }

    fn apply(&self, view: &Matrix) -> Result<Matrix> {
        self.apply_cols(&ColsView::from_matrices([view])?)
    }

    fn apply_cols(&self, cols: &ColsView<'_>) -> Result<Matrix> {
        if cols.rows() != self.mean.len() {
            return Err(CoreError::InvalidInput(format!(
                "view has {} features but the whitener expects {}",
                cols.rows(),
                self.mean.len()
            )));
        }
        // Zero-copy: centering happens while the blocked GEMM packs.
        Ok(cols
            .shifted_t_matmul(Some(&self.mean), &self.weights)?
            .transpose())
    }

    fn save(&self, state: &mut ModelState, prefix: &str) {
        state.put_vector(format!("{prefix}/mean"), &self.mean);
        state.put_matrix(format!("{prefix}/weights"), &self.weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::SketchRng;

    fn noisy_view(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = SketchRng::new(seed);
        let mut x = Matrix::zeros(d, n);
        for j in 0..n {
            let shared = rng.standard_normal();
            for i in 0..d {
                let s = 1.0 / (i + 1) as f64;
                x[(i, j)] = 2.0 * shared * s + 0.3 * s * rng.standard_normal() + i as f64;
            }
        }
        x
    }

    fn toy_view() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 11.0, 9.0, 10.0]]).unwrap()
    }

    fn standardize(view: &Matrix, center: bool, scale: bool) -> Result<Box<dyn FittedStage>> {
        let spec = FitSpec::with_rank(1).center(center).scale(scale);
        Ok(Standardize.fit(0, view, &spec)?.expect("an active stage"))
    }

    #[test]
    fn centers_and_scales_features() {
        let v = toy_view();
        let t = standardize(&v, true, true).unwrap().apply(&v).unwrap();
        for i in 0..2 {
            let mean: f64 = t.row(i).iter().sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12, "row {i} mean {mean}");
            let var: f64 = t.row(i).iter().map(|x| x * x).sum::<f64>() / 4.0;
            assert!((var - 1.0).abs() < 1e-12, "row {i} variance {var}");
        }
    }

    #[test]
    fn scaling_a_constant_feature_is_a_typed_error() {
        let v =
            Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 10.0, 10.0, 10.0]]).unwrap();
        // Centering alone is fine — the constant row just becomes zero.
        let centered = standardize(&v, true, false).unwrap().apply(&v).unwrap();
        assert!(centered.row(1).iter().all(|&x| x == 0.0));
        // Scaling it names the offending column.
        match standardize(&v, true, true) {
            Err(CoreError::DegenerateFeature { column, .. }) => assert_eq!(column, 1),
            Err(other) => panic!("expected DegenerateFeature, got {other:?}"),
            Ok(_) => panic!("expected DegenerateFeature, got a fitted stage"),
        }
    }

    #[test]
    fn center_only_and_scale_only() {
        let v = toy_view();
        let centered = standardize(&v, true, false).unwrap().apply(&v).unwrap();
        assert!((centered[(0, 0)] + 1.5).abs() < 1e-12);
        let scaled = standardize(&v, false, true).unwrap().apply(&v).unwrap();
        // Mean is untouched when only scaling.
        let mean: f64 = scaled.row(0).iter().sum::<f64>() / 4.0;
        assert!(mean > 0.0);
    }

    #[test]
    fn rejects_wrong_dimensionality() {
        let s = standardize(&toy_view(), true, true).unwrap();
        assert!(s.apply(&Matrix::zeros(3, 4)).is_err());
        // Same feature count, different instance count is fine (out-of-sample use).
        assert!(s.apply(&Matrix::zeros(2, 9)).is_ok());
    }

    #[test]
    fn inert_stages_fit_to_none() {
        let spec = FitSpec::with_rank(2);
        let v = noisy_view(4, 30, 1);
        assert!(Standardize.fit(0, &v, &spec).unwrap().is_none());
        assert!(Whiten::from_spec().fit(0, &v, &spec).unwrap().is_none());
        assert!(Whiten::fixed(WhitenSpec::None)
            .fit(0, &v, &spec)
            .unwrap()
            .is_none());
        // PCA is always active.
        assert!(PcaReduce.fit(0, &v, &spec).unwrap().is_some());
    }

    #[test]
    fn exact_whitening_decorrelates() {
        let spec = FitSpec::with_rank(2)
            .epsilon(1e-6)
            .whiten(WhitenSpec::Exact);
        let v = noisy_view(5, 400, 2);
        let fitted = Whiten::from_spec().fit(0, &v, &spec).unwrap().unwrap();
        let z = fitted.apply(&v).unwrap();
        assert_eq!(z.shape(), (5, 400));
        let c = covariance(&linalg::center_rows(&z).0);
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (c[(i, j)] - want).abs() < 0.05,
                    "whitened covariance [{i}][{j}] = {}",
                    c[(i, j)]
                );
            }
        }
    }

    #[test]
    fn randomized_whitening_reduces_and_decorrelates() {
        let spec = FitSpec::with_rank(2)
            .epsilon(1e-6)
            .per_view_dim(3)
            .whiten(WhitenSpec::randomized());
        let v = noisy_view(24, 500, 3);
        let fitted = Whiten::from_spec().fit(0, &v, &spec).unwrap().unwrap();
        let z = fitted.apply(&v).unwrap();
        assert_eq!(z.shape(), (3, 500));
        let c = covariance(&linalg::center_rows(&z).0);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (c[(i, j)] - want).abs() < 0.1,
                    "whitened covariance [{i}][{j}] = {}",
                    c[(i, j)]
                );
            }
        }
    }

    #[test]
    fn stage_state_round_trips_bit_identically() {
        let spec = FitSpec::with_rank(2)
            .center(true)
            .scale(true)
            .per_view_dim(3)
            .whiten(WhitenSpec::randomized());
        let v = noisy_view(10, 60, 4);
        let probe = noisy_view(10, 7, 5);
        for stage in [
            Box::new(Standardize) as Box<dyn ViewStage>,
            Box::new(PcaReduce),
            Box::new(Whiten::from_spec()),
            Box::new(Whiten::fixed(WhitenSpec::Exact)),
        ] {
            let fitted = stage.fit(0, &v, &spec).unwrap().unwrap();
            let mut state = ModelState::new();
            fitted.save(&mut state, "s");
            let reloaded = load_fitted_stage(fitted.kind(), &state, "s").unwrap();
            assert_eq!(
                fitted.apply(&probe).unwrap(),
                reloaded.apply(&probe).unwrap(),
                "stage {} did not round-trip bit-identically",
                fitted.kind()
            );
        }
        assert!(load_fitted_stage("nope", &ModelState::new(), "s").is_err());
    }

    #[test]
    fn apply_cols_matches_apply() {
        let spec = FitSpec::with_rank(2)
            .per_view_dim(4)
            .whiten(WhitenSpec::randomized());
        let v = noisy_view(8, 40, 6);
        let a = noisy_view(8, 3, 7);
        let b = noisy_view(8, 5, 8);
        let stitched = a.hstack(&b).unwrap();
        for stage in [
            Box::new(PcaReduce) as Box<dyn ViewStage>,
            Box::new(Whiten::from_spec()),
        ] {
            let fitted = stage.fit(0, &v, &spec).unwrap().unwrap();
            let cols = ColsView::from_matrices([&a, &b]).unwrap();
            assert_eq!(
                fitted.apply_cols(&cols).unwrap(),
                fitted.apply(&stitched).unwrap(),
                "stage {}",
                fitted.kind()
            );
        }
    }
}
