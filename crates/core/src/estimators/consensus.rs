//! Consensus estimators: the second stage of DSE and SSMVD.
//!
//! Both methods are *transductive*: they learn an `N × r` consensus of the training
//! instances and define no out-of-sample projection (the paper runs them on
//! subsampled pools for exactly this reason). Their models therefore return the
//! training-time consensus from `transform` when called with matching instance
//! counts, and a descriptive error otherwise — the uniform surface the rest of the
//! stack relies on, replacing the old `embedding()`-only accessors.
//!
//! The paper's full methods are these estimators wrapped in a
//! standardize-then-PCA [`crate::Pipeline`] (see [`crate::estimators::dse_pipeline`] and
//! [`crate::estimators::ssmvd_pipeline`]), which contributes the per-view PCA
//! pre-reduction that used to be hand-rolled inside `Dse::fit` / `Ssmvd::fit`.

use crate::model::check_same_instances;
use crate::{
    CoreError, FitSpec, MemoryModel, ModelState, MultiViewEstimator, MultiViewModel, Result,
};
use baselines::dse::consensus_embedding;
use baselines::ssmvd::{irls_consensus, SsmvdOptions};
use linalg::Matrix;

fn transpose_to_instance_rows(views: &[Matrix]) -> Vec<Matrix> {
    views.iter().map(Matrix::transpose).collect()
}

fn transductive_error(name: &str) -> CoreError {
    CoreError::InvalidInput(format!(
        "{name} is transductive: it embeds only the instances it was fitted on and has \
         no out-of-sample projection"
    ))
}

/// Cheap exact signature of one input view, recorded at fit time so `transform` can
/// tell "the training views again" (legal for a transductive method) apart from a
/// *different* batch that merely has the same instance count. All operations in the
/// stack are deterministic, so replaying the training inputs reproduces these values
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
struct ViewFingerprint {
    rows: usize,
    cols: usize,
    frobenius: f64,
    first: f64,
    last: f64,
}

fn fingerprint(view: &Matrix) -> ViewFingerprint {
    let (rows, cols) = (view.rows(), view.cols());
    let (first, last) = if rows > 0 && cols > 0 {
        (view[(0, 0)], view[(rows - 1, cols - 1)])
    } else {
        (0.0, 0.0)
    };
    ViewFingerprint {
        rows,
        cols,
        frobenius: view.frobenius_norm(),
        first,
        last,
    }
}

struct ConsensusModel {
    name: &'static str,
    embedding: Matrix,
    fingerprints: Vec<ViewFingerprint>,
    memory: MemoryModel,
}

impl MultiViewModel for ConsensusModel {
    fn name(&self) -> &str {
        self.name
    }

    fn dim(&self) -> usize {
        self.embedding.cols()
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        check_same_instances(views)?;
        if views.len() != self.fingerprints.len() {
            return Err(CoreError::InvalidInput(format!(
                "expected {} views, got {}",
                self.fingerprints.len(),
                views.len()
            )));
        }
        let same_batch = views
            .iter()
            .zip(self.fingerprints.iter())
            .all(|(v, fp)| &fingerprint(v) == fp);
        if !same_batch {
            return Err(transductive_error(self.name));
        }
        Ok(self.embedding.clone())
    }

    fn transform_view(&self, _which: usize, _view: &Matrix) -> Result<Matrix> {
        Err(transductive_error(self.name))
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.fingerprints.len()
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_matrix("embedding", &self.embedding);
        state.put_int("fingerprints/len", self.fingerprints.len() as u64);
        for (i, fp) in self.fingerprints.iter().enumerate() {
            // Shape counts are exact in f64 far beyond any realistic view size; the
            // three statistics are stored as their exact bit patterns, so the loaded
            // model accepts exactly the same training batches the original did.
            state.put_vector(
                format!("fingerprints/{i}"),
                &[
                    fp.rows as f64,
                    fp.cols as f64,
                    fp.frobenius,
                    fp.first,
                    fp.last,
                ],
            );
        }
        state.put_memory(&self.memory);
        Ok(state)
    }
}

/// Shared loader for the two consensus models ([`DseConsensus`] / [`SsmvdConsensus`]
/// produce the same model shape and differ only in name).
fn load_consensus(name: &'static str, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
    let len = state.index("fingerprints/len")?;
    let mut fingerprints = Vec::with_capacity(len);
    for i in 0..len {
        let raw = state.vector(&format!("fingerprints/{i}"))?;
        if raw.len() != 5 {
            return Err(CoreError::Persist(format!(
                "fingerprint {i} has {} entries, expected 5",
                raw.len()
            )));
        }
        fingerprints.push(ViewFingerprint {
            rows: raw[0] as usize,
            cols: raw[1] as usize,
            frobenius: raw[2],
            first: raw[3],
            last: raw[4],
        });
    }
    Ok(Box::new(ConsensusModel {
        name,
        embedding: state.matrix("embedding")?.clone(),
        fingerprints,
        memory: state.memory()?,
    }))
}

/// The consensus stage of DSE (Long et al. 2008): unit-Frobenius normalization of the
/// per-view embeddings followed by the top-`rank` left singular subspace of their
/// column stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct DseConsensus;

impl MultiViewEstimator for DseConsensus {
    fn name(&self) -> &str {
        "DSE"
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        let embeddings = transpose_to_instance_rows(views);
        let (embedding, _residual) = consensus_embedding(&embeddings, spec.rank)?;
        let mut memory = MemoryModel::new();
        memory.add_matrix("consensus", n, embedding.cols());
        Ok(Box::new(ConsensusModel {
            name: "DSE",
            embedding,
            fingerprints: views.iter().map(fingerprint).collect(),
            memory,
        }))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        load_consensus("DSE", state)
    }
}

/// The consensus stage of SSMVD (Han et al. 2012): the IRLS-reweighted consensus that
/// down-weights poorly-agreeing views (the group-sparse behaviour).
///
/// The IRLS loop runs under the spec's *general* iteration budget
/// ([`FitSpec::max_iterations`], default 100) — deliberately superseding the legacy
/// `SsmvdOptions::default()` budget of 10. The loop is convergence-bounded (it stops
/// once the weight change drops below 1e-8), so the larger budget only matters for
/// slow-converging inputs, where it trades time for a properly converged consensus.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsmvdConsensus;

impl MultiViewEstimator for SsmvdConsensus {
    fn name(&self) -> &str {
        "SSMVD"
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        let n = check_same_instances(views)?;
        let embeddings = transpose_to_instance_rows(views);
        let options = SsmvdOptions {
            per_view_dim: spec.effective_per_view_dim(),
            max_iterations: spec.max_iterations.max(1),
            ..SsmvdOptions::default()
        };
        let (embedding, _weights, _iterations) = irls_consensus(&embeddings, spec.rank, &options)?;
        let mut memory = MemoryModel::new();
        memory.add_matrix("consensus", n, embedding.cols());
        Ok(Box::new(ConsensusModel {
            name: "SSMVD",
            embedding,
            fingerprints: views.iter().map(fingerprint).collect(),
            memory,
        }))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        load_consensus("SSMVD", state)
    }
}
