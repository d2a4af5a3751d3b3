//! Linear-method estimators: pairwise CCA, CCA-LS, CCA-MAXVAR, PCA and TCCA.

use crate::model::check_same_instances;
use crate::stage::{fit_whitener, stage_seed};
use crate::{
    CombineRule, CoreError, FitSpec, MemoryModel, ModelState, MultiViewEstimator, MultiViewModel,
    Output, Result,
};
use baselines::cca_ls::CcaLsOptions;
use baselines::{Cca, CcaLs, CcaMaxVar, PairwiseCca, Pca};
use linalg::Matrix;
use tcca::{DecompositionMethod, Tcca, TccaOptions};

/// Encode a decomposition method as a stable on-disk discriminant.
pub(crate) fn decomposition_to_int(method: DecompositionMethod) -> u64 {
    match method {
        DecompositionMethod::Als => 0,
        DecompositionMethod::Hopm => 1,
        DecompositionMethod::PowerMethod => 2,
    }
}

/// Decode a decomposition-method discriminant written by [`decomposition_to_int`].
pub(crate) fn decomposition_from_int(v: u64) -> Result<DecompositionMethod> {
    match v {
        0 => Ok(DecompositionMethod::Als),
        1 => Ok(DecompositionMethod::Hopm),
        2 => Ok(DecompositionMethod::PowerMethod),
        other => Err(CoreError::Persist(format!(
            "unknown decomposition method discriminant {other}"
        ))),
    }
}

/// Store a fitted per-view PCA's parts under `prefix/…`.
pub(crate) fn save_pca(state: &mut ModelState, prefix: &str, pca: &Pca) {
    state.put_vector(format!("{prefix}/mean"), pca.mean());
    state.put_matrix(format!("{prefix}/components"), pca.components());
    state.put_vector(format!("{prefix}/variance"), pca.explained_variance());
}

/// Rebuild a fitted per-view PCA from `prefix/…`.
pub(crate) fn load_pca(state: &ModelState, prefix: &str) -> Result<Pca> {
    Ok(Pca::from_parts(
        state.vector(&format!("{prefix}/mean"))?.to_vec(),
        state.matrix(&format!("{prefix}/components"))?.clone(),
        state.vector(&format!("{prefix}/variance"))?.to_vec(),
    )?)
}

/// Memory model and embedding dimension of a pairwise-CCA model, shared by the batch
/// fit and the streaming finalize path so both produce identical models.
fn pairwise_cca_memory(inner: &PairwiseCca, dims: &[usize], n: usize) -> (MemoryModel, usize) {
    let mut memory = MemoryModel::new();
    let mut dim = 0;
    for (index, &(p, q)) in inner.pairs().iter().enumerate() {
        memory.add_matrix(format!("C{p}{p}"), dims[p], dims[p]);
        memory.add_matrix(format!("C{q}{q}"), dims[q], dims[q]);
        memory.add_matrix(format!("C{p}{q}"), dims[p], dims[q]);
        let pair_dim = 2 * inner.models()[index].projections()[0].cols();
        memory.add_matrix(format!("embedding {p}-{q}"), n, pair_dim);
        dim += pair_dim;
    }
    (memory, dim)
}

/// Wrap per-pair fitted [`Cca`] models into the registry's "CCA (BST)"/"CCA (AVG)"
/// model (the streaming finalize path). `models` must be in
/// [`baselines::pairwise::view_pairs`] order; `n` is the number of training
/// instances the stats were accumulated over. Produces exactly what
/// [`PairwiseCcaEstimator::fit`] builds from the same per-pair models.
pub fn pairwise_cca_model_from_parts(
    best: bool,
    dims: &[usize],
    models: Vec<Cca>,
    n: usize,
) -> Result<Box<dyn MultiViewModel>> {
    let inner = PairwiseCca::from_models(dims.len(), models)?;
    let (memory, dim) = pairwise_cca_memory(&inner, dims, n);
    Ok(Box::new(PairwiseCcaModel {
        rule: if best {
            CombineRule::SelectBest
        } else {
            CombineRule::Average
        },
        num_views: dims.len(),
        inner,
        dim,
        memory,
    }))
}

/// CCA fitted on every pair of views — the paper's "CCA (BST)" / "CCA (AVG)".
#[derive(Debug, Clone, Copy)]
pub struct PairwiseCcaEstimator {
    rule: CombineRule,
}

impl PairwiseCcaEstimator {
    /// The "CCA (BST)" variant: keep the best pair on validation data.
    pub fn best() -> Self {
        Self {
            rule: CombineRule::SelectBest,
        }
    }

    /// The "CCA (AVG)" variant: combine the predictions of all pairs.
    pub fn average() -> Self {
        Self {
            rule: CombineRule::Average,
        }
    }
}

impl MultiViewEstimator for PairwiseCcaEstimator {
    fn name(&self) -> &str {
        match self.rule {
            CombineRule::SelectBest => "CCA (BST)",
            CombineRule::Average => "CCA (AVG)",
        }
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        let dims: Vec<usize> = views.iter().map(Matrix::rows).collect();
        let inner = PairwiseCca::fit(views, spec.rank, spec.epsilon)?;
        let (memory, dim) = pairwise_cca_memory(&inner, &dims, n);
        Ok(Box::new(PairwiseCcaModel {
            rule: self.rule,
            num_views: views.len(),
            inner,
            dim,
            memory,
        }))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        let num_views = state.index("num_views")?;
        let pairs = state.index("pairs/len")?;
        let mut models = Vec::with_capacity(pairs);
        for i in 0..pairs {
            models.push(Cca::from_parts(
                [
                    state.vector(&format!("pairs/{i}/mean0"))?.to_vec(),
                    state.vector(&format!("pairs/{i}/mean1"))?.to_vec(),
                ],
                [
                    state.matrix(&format!("pairs/{i}/proj0"))?.clone(),
                    state.matrix(&format!("pairs/{i}/proj1"))?.clone(),
                ],
                state.vector(&format!("pairs/{i}/correlations"))?.to_vec(),
            )?);
        }
        Ok(Box::new(PairwiseCcaModel {
            rule: self.rule,
            num_views,
            inner: PairwiseCca::from_models(num_views, models)?,
            dim: state.index("dim")?,
            memory: state.memory()?,
        }))
    }
}

struct PairwiseCcaModel {
    rule: CombineRule,
    num_views: usize,
    inner: PairwiseCca,
    dim: usize,
    memory: MemoryModel,
}

impl MultiViewModel for PairwiseCcaModel {
    fn name(&self) -> &str {
        match self.rule {
            CombineRule::SelectBest => "CCA (BST)",
            CombineRule::Average => "CCA (AVG)",
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        let mut out: Option<Matrix> = None;
        for z in self.inner.transform_all(views)? {
            out = Some(match out {
                None => z,
                Some(acc) => acc.hstack(&z)?,
            });
        }
        out.ok_or_else(|| CoreError::InvalidInput("pairwise CCA fitted on no pairs".into()))
    }

    fn transform_view(&self, _which: usize, _view: &Matrix) -> Result<Matrix> {
        Err(CoreError::InvalidInput(
            "pairwise CCA defines projections per view pair, not per view; use outputs()".into(),
        ))
    }

    fn outputs(&self, views: &[Matrix]) -> Result<Vec<Output>> {
        Ok(self
            .inner
            .transform_all(views)?
            .into_iter()
            .map(Output::Embedding)
            .collect())
    }

    fn output_labels(&self) -> Vec<String> {
        self.inner
            .pairs()
            .iter()
            .map(|(p, q)| format!("pair({p},{q})"))
            .collect()
    }

    fn combine(&self) -> CombineRule {
        self.rule
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.num_views
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_int("num_views", self.num_views as u64);
        state.put_int("dim", self.dim as u64);
        state.put_int("pairs/len", self.inner.models().len() as u64);
        for (i, cca) in self.inner.models().iter().enumerate() {
            state.put_vector(format!("pairs/{i}/mean0"), &cca.means()[0]);
            state.put_vector(format!("pairs/{i}/mean1"), &cca.means()[1]);
            state.put_matrix(format!("pairs/{i}/proj0"), &cca.projections()[0]);
            state.put_matrix(format!("pairs/{i}/proj1"), &cca.projections()[1]);
            state.put_vector(format!("pairs/{i}/correlations"), cca.correlations());
        }
        state.put_memory(&self.memory);
        Ok(state)
    }
}

/// CCA-LS — multiset CCA via coupled least squares (Vía et al. 2007).
#[derive(Debug, Clone, Copy, Default)]
pub struct CcaLsEstimator;

impl MultiViewEstimator for CcaLsEstimator {
    fn name(&self) -> &str {
        "CCA-LS"
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        let options = CcaLsOptions {
            epsilon: spec.epsilon,
            max_iterations: spec.max_iterations.max(1),
            tolerance: spec.tolerance,
            seed: spec.seed,
        };
        let inner = CcaLs::fit_with_options(views, spec.rank, options)?;
        let mut memory = MemoryModel::new();
        for (p, v) in views.iter().enumerate() {
            memory.add_matrix(format!("gram {p}"), v.rows(), v.rows());
        }
        let dim: usize = inner.projections().iter().map(Matrix::cols).sum();
        memory.add_matrix("embedding", n, dim);
        Ok(Box::new(CcaLsModel { inner, dim, memory }))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        let inner = CcaLs::from_parts(
            state.vectors("means")?,
            state.matrices("projections")?,
            state.vector("alignments")?.to_vec(),
            state.index("iterations")?,
        )?;
        Ok(Box::new(CcaLsModel {
            inner,
            dim: state.index("dim")?,
            memory: state.memory()?,
        }))
    }
}

struct CcaLsModel {
    inner: CcaLs,
    dim: usize,
    memory: MemoryModel,
}

impl MultiViewModel for CcaLsModel {
    fn name(&self) -> &str {
        "CCA-LS"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        Ok(self.inner.transform(views)?)
    }

    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        if which >= self.inner.projections().len() {
            return Err(CoreError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.inner.projections().len()
            )));
        }
        Ok(self.inner.transform_view(which, view)?)
    }

    fn transform_view_cols(&self, which: usize, cols: &linalg::ColsView<'_>) -> Result<Matrix> {
        if which >= self.inner.projections().len() {
            return Err(CoreError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.inner.projections().len()
            )));
        }
        Ok(self.inner.transform_view_cols(which, cols)?)
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.inner.projections().len()
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_int("dim", self.dim as u64);
        state.put_vectors("means", self.inner.means());
        state.put_matrices("projections", self.inner.projections());
        state.put_vector("alignments", self.inner.alignments());
        state.put_int("iterations", self.inner.iterations() as u64);
        state.put_memory(&self.memory);
        Ok(state)
    }
}

/// CCA-MAXVAR — multiset CCA via the SVD of stacked whitened views (Kettenring 1971).
#[derive(Debug, Clone, Copy, Default)]
pub struct CcaMaxVarEstimator;

impl MultiViewEstimator for CcaMaxVarEstimator {
    fn name(&self) -> &str {
        "CCA-MAXVAR"
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        let inner = CcaMaxVar::fit(views, spec.rank, spec.epsilon)?;
        let dims: Vec<usize> = views.iter().map(Matrix::rows).collect();
        Ok(cca_maxvar_model_from_parts(inner, &dims, n))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        let inner = CcaMaxVar::from_parts(
            state.vectors("means")?,
            state.matrices("projections")?,
            state.vector("singular_values")?.to_vec(),
        )?;
        Ok(Box::new(CcaMaxVarModel {
            inner,
            dim: state.index("dim")?,
            memory: state.memory()?,
        }))
    }
}

/// Wrap a fitted [`CcaMaxVar`] into the registry's "CCA-MAXVAR" model (the streaming
/// finalize path). `n` is the number of training instances the stats were accumulated
/// over. Produces exactly what [`CcaMaxVarEstimator::fit`] builds from the same inner
/// model.
pub fn cca_maxvar_model_from_parts(
    inner: CcaMaxVar,
    dims: &[usize],
    n: usize,
) -> Box<dyn MultiViewModel> {
    let total: usize = dims.iter().sum();
    let mut memory = MemoryModel::new();
    memory.add_matrix("stacked whitened views", n, total);
    let dim: usize = inner.projections().iter().map(Matrix::cols).sum();
    memory.add_matrix("embedding", n, dim);
    Box::new(CcaMaxVarModel { inner, dim, memory })
}

struct CcaMaxVarModel {
    inner: CcaMaxVar,
    dim: usize,
    memory: MemoryModel,
}

impl MultiViewModel for CcaMaxVarModel {
    fn name(&self) -> &str {
        "CCA-MAXVAR"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        Ok(self.inner.transform(views)?)
    }

    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        if which >= self.inner.projections().len() {
            return Err(CoreError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.inner.projections().len()
            )));
        }
        Ok(self.inner.transform_view(which, view)?)
    }

    fn transform_view_cols(&self, which: usize, cols: &linalg::ColsView<'_>) -> Result<Matrix> {
        if which >= self.inner.projections().len() {
            return Err(CoreError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.inner.projections().len()
            )));
        }
        Ok(self.inner.transform_view_cols(which, cols)?)
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.inner.projections().len()
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_int("dim", self.dim as u64);
        state.put_vectors("means", self.inner.means());
        state.put_matrices("projections", self.inner.projections());
        state.put_vector("singular_values", self.inner.singular_values());
        state.put_memory(&self.memory);
        Ok(state)
    }
}

/// Per-view PCA to `spec.rank` components, concatenated across views. Not one of the
/// paper's compared methods on its own, but the building block of DSE/SSMVD and the
/// natural unsupervised reference point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcaEstimator;

impl MultiViewEstimator for PcaEstimator {
    fn name(&self) -> &str {
        "PCA"
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        if spec.rank == 0 {
            return Err(CoreError::InvalidInput("rank must be positive".into()));
        }
        let pcas = views
            .iter()
            .map(|v| Pca::fit(v, spec.rank))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(pca_model_from_parts(pcas, n))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        let n = state.index("pcas/len")?;
        let pcas = (0..n)
            .map(|i| load_pca(state, &format!("pcas/{i}")))
            .collect::<Result<Vec<_>>>()?;
        Ok(Box::new(PcaModel {
            pcas,
            dim: state.index("dim")?,
            memory: state.memory()?,
        }))
    }
}

/// Wrap per-view fitted [`Pca`] models into the registry's "PCA" model (the streaming
/// finalize path). `n` is the number of training instances the stats were accumulated
/// over. Produces exactly what [`PcaEstimator::fit`] builds from the same per-view
/// models.
pub fn pca_model_from_parts(pcas: Vec<Pca>, n: usize) -> Box<dyn MultiViewModel> {
    let mut memory = MemoryModel::new();
    let mut dim = 0;
    for (p, pca) in pcas.iter().enumerate() {
        let k = pca.components().cols();
        memory.add_matrix(format!("components {p}"), pca.components().rows(), k);
        memory.add_matrix(format!("scores {p}"), n, k);
        dim += k;
    }
    Box::new(PcaModel { pcas, dim, memory })
}

struct PcaModel {
    pcas: Vec<Pca>,
    dim: usize,
    memory: MemoryModel,
}

impl MultiViewModel for PcaModel {
    fn name(&self) -> &str {
        "PCA"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        if views.len() != self.pcas.len() {
            return Err(CoreError::InvalidInput(format!(
                "expected {} views, got {}",
                self.pcas.len(),
                views.len()
            )));
        }
        let mut out: Option<Matrix> = None;
        for (pca, v) in self.pcas.iter().zip(views.iter()) {
            let z = pca.transform(v)?;
            out = Some(match out {
                None => z,
                Some(acc) => acc.hstack(&z)?,
            });
        }
        out.ok_or_else(|| CoreError::InvalidInput("PCA fitted on no views".into()))
    }

    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        let pca = self.pcas.get(which).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.pcas.len()
            ))
        })?;
        Ok(pca.transform(view)?)
    }

    fn transform_view_cols(&self, which: usize, cols: &linalg::ColsView<'_>) -> Result<Matrix> {
        let pca = self.pcas.get(which).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.pcas.len()
            ))
        })?;
        Ok(pca.transform_cols(cols)?)
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.pcas.len()
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_int("dim", self.dim as u64);
        state.put_int("pcas/len", self.pcas.len() as u64);
        for (i, pca) in self.pcas.iter().enumerate() {
            save_pca(&mut state, &format!("pcas/{i}"), pca);
        }
        state.put_memory(&self.memory);
        Ok(state)
    }
}

/// TCCA — the paper's linear tensor CCA.
#[derive(Debug, Clone, Copy, Default)]
pub struct TccaEstimator;

impl MultiViewEstimator for TccaEstimator {
    fn name(&self) -> &str {
        "TCCA"
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        let dims: Vec<usize> = views.iter().map(Matrix::rows).collect();
        if spec.whiten.is_none() {
            let inner = Tcca::fit(views, &spec.tcca_options())?;
            return Ok(tcca_model_from_parts(inner, &dims, n));
        }

        // Spec-driven whitening path: decorrelate (and, for the randomized mode,
        // reduce) each view up front, fit TCCA on the whitened views — whose
        // internal `(C + εI)^{-1/2}` is now a cheap k × k problem — and fold the
        // whitener into the projection. The fitted model keeps the exact same
        // shape as the plain path (`d × r` projections plus per-view means), so
        // persistence and serving's zero-copy `transform_view_cols` are
        // untouched.
        let mut means = Vec::with_capacity(views.len());
        let mut whiteners = Vec::with_capacity(views.len());
        let mut whitened = Vec::with_capacity(views.len());
        for (p, v) in views.iter().enumerate() {
            let (mean, weights) = fit_whitener(v, spec.whiten, spec, stage_seed(spec.seed, p))?
                .ok_or_else(|| CoreError::InvalidInput("whitening mode resolved to none".into()))?;
            // Z = Wᵀ(X − μ·1ᵀ), k × N — centering happens while the GEMM packs.
            let z = linalg::ColsView::from_matrices([v])?
                .shifted_t_matmul(Some(&mean), &weights)?
                .transpose();
            means.push(mean);
            whiteners.push(weights);
            whitened.push(z);
        }
        let inner = Tcca::fit(&whitened, &spec.tcca_options())?;
        // transform_view(x) = H_pᵀ · W_pᵀ · (x − μ_p): composite projections
        // W_p H_p (the inner means of the whitened views are exactly zero).
        let projections = whiteners
            .iter()
            .zip(inner.projections())
            .map(|(w, h)| w.matmul(h))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let mut memory = MemoryModel::new();
        let inner_dims: Vec<usize> = whitened.iter().map(Matrix::rows).collect();
        memory.add_tensor("covariance tensor", &inner_dims);
        let mut dim = 0;
        for (p, proj) in projections.iter().enumerate() {
            memory.add_matrix(format!("whitener {p}"), dims[p], inner_dims[p]);
            memory.add_matrix(format!("factor {p}"), proj.rows(), proj.cols());
            dim += proj.cols();
        }
        memory.add_matrix("embedding", n, dim);
        let composed = Tcca::from_parts(
            means,
            projections,
            inner.correlations().to_vec(),
            spec.tcca_options(),
        )?;
        Ok(Box::new(TccaModel {
            inner: composed,
            dim,
            memory,
        }))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        let options = TccaOptions {
            rank: state.index("options/rank")?,
            epsilon: state.scalar("options/epsilon")?,
            method: decomposition_from_int(state.int("options/method")?)?,
            max_iterations: state.index("options/max_iterations")?,
            tolerance: state.scalar("options/tolerance")?,
            seed: state.int("options/seed")?,
        };
        let mut inner = Tcca::from_parts(
            state.vectors("means")?,
            state.matrices("projections")?,
            state.vector("correlations")?.to_vec(),
            options,
        )?;
        // Files persisted before streaming refits existed carry no CP factors; they
        // load fine and simply cannot warm-start a refit.
        if state.contains("factors/len") {
            inner = inner.with_factors(state.matrices("factors")?)?;
        }
        Ok(Box::new(TccaModel {
            inner,
            dim: state.index("dim")?,
            memory: state.memory()?,
        }))
    }
}

/// Wrap a fitted [`Tcca`] into the registry's "TCCA" model (the streaming finalize
/// path). `n` is the number of training instances the stats were accumulated over.
/// Produces exactly what [`TccaEstimator::fit`] builds from the same inner model.
pub fn tcca_model_from_parts(inner: Tcca, dims: &[usize], n: usize) -> Box<dyn MultiViewModel> {
    let mut memory = MemoryModel::new();
    memory.add_tensor("covariance tensor", dims);
    let mut dim = 0;
    for (p, d) in dims.iter().enumerate() {
        let r = inner.projections()[p].cols();
        memory.add_matrix(format!("whitener {p}"), *d, *d);
        memory.add_matrix(format!("factor {p}"), *d, r);
        dim += r;
    }
    memory.add_matrix("embedding", n, dim);
    Box::new(TccaModel { inner, dim, memory })
}

struct TccaModel {
    inner: Tcca,
    dim: usize,
    memory: MemoryModel,
}

impl MultiViewModel for TccaModel {
    fn name(&self) -> &str {
        "TCCA"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        Ok(self.inner.transform(views)?)
    }

    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        Ok(self.inner.transform_view(which, view)?)
    }

    fn transform_view_cols(&self, which: usize, cols: &linalg::ColsView<'_>) -> Result<Matrix> {
        Ok(self.inner.transform_view_cols(which, cols)?)
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.inner.num_views()
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_int("dim", self.dim as u64);
        state.put_vectors("means", self.inner.means());
        state.put_matrices("projections", self.inner.projections());
        state.put_vector("correlations", self.inner.correlations());
        let options = self.inner.options();
        state.put_int("options/rank", options.rank as u64);
        state.put_scalar("options/epsilon", options.epsilon);
        state.put_int("options/method", decomposition_to_int(options.method));
        state.put_int("options/max_iterations", options.max_iterations as u64);
        state.put_scalar("options/tolerance", options.tolerance);
        state.put_int("options/seed", options.seed);
        if !self.inner.factors().is_empty() {
            state.put_matrices("factors", self.inner.factors());
        }
        state.put_memory(&self.memory);
        Ok(state)
    }
}
