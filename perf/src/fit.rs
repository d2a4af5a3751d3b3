//! The fitting side: seeded inputs, the timed `EstimatorRegistry::fit` +
//! embedding operation with its output checks, and the traced phase replay.
//!
//! The replay calls the same public layer functions TCCA's fit is built from
//! (`linalg` whitening and sketching, `tcca::whitened_covariance_tensor`,
//! `tensor::CpAls`) with a span around each call, then checks that it reproduced
//! the registry fit's correlations bit for bit — so the phase times describe the
//! computation the end-to-end `fit_s` measures.

use crate::schedule::{derive, Rng};
use crate::trace::Tracer;
use crate::Res;
use linalg::{center_rows, covariance, randomized_covariance_eig, ColsView, Matrix};
use mvcore::{EstimatorRegistry, FitSpec, MultiViewModel, WhitenSpec};
use std::time::Instant;
use tensor::{CpAls, CpOptions, DenseTensor};

/// Floor under eigenvalues when inverting square roots, as in `mvcore`'s
/// whitening stage and `tcca::Tcca::fit`.
const WHITEN_FLOOR: f64 = 1e-12;

/// Which seeded views a fit runs on.
#[derive(Debug, Clone)]
pub enum Data {
    /// The SecStr stand-in of `datasets`: three binary views of 105 features.
    SecStr {
        /// Training instances.
        n: usize,
    },
    /// Wide linear views from a skewed low-rank latent model plus noise.
    Wide {
        /// Feature count per view.
        dims: Vec<usize>,
        /// Training instances.
        n: usize,
    },
}

/// Training views plus held-out instances drawn from the same model, used as
/// serving inputs.
pub struct Views {
    /// `d_p × N` training views.
    pub train: Vec<Matrix>,
    /// `d_p × H` held-out views.
    pub held_out: Vec<Matrix>,
}

impl Data {
    /// Generate training and `held_out` extra instances from `seed`.
    pub fn generate(&self, seed: u64, held_out: usize) -> Res<Views> {
        match self {
            Data::SecStr { n } => {
                let d = datasets::secstr_dataset(&datasets::SecStrConfig {
                    n_instances: n + held_out,
                    seed,
                    ..datasets::SecStrConfig::default()
                });
                let train_idx: Vec<usize> = (0..*n).collect();
                let held_idx: Vec<usize> = (*n..n + held_out).collect();
                Ok(Views {
                    train: d
                        .views()
                        .iter()
                        .map(|v| v.select_columns(&train_idx))
                        .collect(),
                    held_out: d
                        .views()
                        .iter()
                        .map(|v| v.select_columns(&held_idx))
                        .collect(),
                })
            }
            Data::Wide { dims, n } => wide_views(dims, *n, held_out, seed),
        }
    }
}

/// `X_p = A_p T + σ E_p`: a 10-dimensional right-skewed latent code `T`
/// (centred exponential entries, so the third-order moment TCCA reads is
/// non-zero) seen through dense random loadings, plus uniform noise of unit
/// variance scaled by `σ = 0.5`. The loadings are fixed (one population);
/// the seed draws the instances, latent codes and noise. Training and
/// held-out columns are built separately so the wide views are never held
/// twice.
fn wide_views(dims: &[usize], n: usize, held_out: usize, seed: u64) -> Res<Views> {
    const LATENT: usize = 10;
    let mut rng = Rng::new(derive(seed, 0x57));
    let mut latent = |cols: usize| {
        let data: Vec<f64> = (0..LATENT * cols)
            .map(|_| rng.exponential(1.0) - 1.0)
            .collect();
        Matrix::from_vec(LATENT, cols, data).map_err(|e| e.to_string())
    };
    let (t_train, t_held) = (latent(n)?, latent(held_out)?);
    let scale = 1.0 / (LATENT as f64).sqrt();
    let noise = 0.5 * 3f64.sqrt();
    let mut views = Views {
        train: Vec::with_capacity(dims.len()),
        held_out: Vec::with_capacity(dims.len()),
    };
    for (p, &d) in dims.iter().enumerate() {
        let mut fixed = Rng::new(derive(0x5eed, 0x100 + p as u64));
        let loadings: Vec<f64> = (0..d * LATENT)
            .map(|_| (2.0 * fixed.unit() - 1.0) * scale)
            .collect();
        let mut rng = Rng::new(derive(seed, 0x200 + p as u64));
        let a = Matrix::from_vec(d, LATENT, loadings).map_err(|e| e.to_string())?;
        for (t, out) in [(&t_train, &mut views.train), (&t_held, &mut views.held_out)] {
            let mut x = a.matmul(t).map_err(|e| e.to_string())?;
            for v in x.as_mut_slice() {
                *v += (2.0 * rng.unit() - 1.0) * noise;
            }
            out.push(x);
        }
    }
    Ok(views)
}

/// One timed fit: `EstimatorRegistry::fit("TCCA")` followed by the training
/// embedding, with the outputs the checks need.
pub struct FitOutcome {
    /// The fitted model.
    pub model: Box<dyn MultiViewModel>,
    /// Wall time of fit plus embedding, seconds.
    pub seconds: f64,
    /// The CP weights (canonical correlations) of the fit.
    pub correlations: Vec<f64>,
    /// Whether the embedding was finite and `N × m·r`.
    pub embedding_ok: bool,
}

/// The model's canonical correlations, read from its persisted state.
pub fn correlations(model: &dyn MultiViewModel) -> Res<Vec<f64>> {
    let state = model.save_state().map_err(|e| e.to_string())?;
    Ok(state
        .vector("correlations")
        .map_err(|e| e.to_string())?
        .to_vec())
}

/// Run the timed fit operation, under `core.fit` / `core.embed` spans when
/// tracing.
pub fn fit_once(
    registry: &EstimatorRegistry,
    train: &[Matrix],
    spec: &FitSpec,
    tracer: &Tracer,
) -> Res<FitOutcome> {
    let start = Instant::now();
    let (res, _) = tracer.span("core.fit", None, |root| -> Res<_> {
        let (model, _) = tracer.span("core.registry_fit", root, |_| {
            registry.fit("TCCA", train, spec)
        });
        let model = model.map_err(|e| e.to_string())?;
        let (z, _) = tracer.span("core.embed", root, |_| model.transform(train));
        Ok((model, z.map_err(|e| e.to_string())?))
    });
    let seconds = start.elapsed().as_secs_f64();
    let (model, z) = res?;
    let n = train[0].cols();
    let embedding_ok = z.rows() == n
        && z.cols() == spec.rank * train.len()
        && z.as_slice().iter().all(|v| v.is_finite());
    let correlations = correlations(model.as_ref())?;
    Ok(FitOutcome {
        model,
        seconds,
        correlations,
        embedding_ok,
    })
}

/// Σ|ρ_k|: the quality guard reported beside the fit time.
pub fn corr_sum(correlations: &[f64]) -> f64 {
    correlations.iter().map(|r| r.abs()).sum()
}

/// What the traced replay found.
pub struct Replay {
    /// Correlations of the replayed decomposition.
    pub correlations: Vec<f64>,
    /// CP-ALS sweeps run.
    pub sweeps: usize,
    /// Computed flops of the covariance-tensor build (whitening GEMMs plus the
    /// moment accumulation).
    pub tensor_flops: f64,
}

/// Replay the phases of [`fit_once`]'s fit through public layer functions,
/// one span per call: `linalg.whiten` (with `linalg.sketch` inside it on the
/// randomized path), `tcca.tensor_build`, `tensor.cp_als` and
/// `core.project`, all under a `core.replay` root. Also times `tensor.mttkrp`
/// on the built tensor.
pub fn replay(train: &[Matrix], spec: &FitSpec, tracer: &Tracer) -> Res<Replay> {
    let (out, _) = tracer.span("core.replay", None, |root| {
        replay_inner(train, spec, tracer, root)
    });
    out
}

fn replay_inner(
    train: &[Matrix],
    spec: &FitSpec,
    tracer: &Tracer,
    root: Option<u64>,
) -> Res<Replay> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // Outer (spec-driven) whitening: the randomized range-finder path.
    let mut outer: Vec<Matrix> = Vec::new();
    let inner_views: Vec<Matrix> = match spec.whiten.randomized_budget() {
        Some((oversample, power_iters)) => {
            let mut views = Vec::with_capacity(train.len());
            for (p, v) in train.iter().enumerate() {
                let (z, _) = tracer.span("linalg.whiten", root, |w| -> Res<Matrix> {
                    let (centered, mean) = center_rows(v);
                    let k = spec
                        .effective_per_view_dim()
                        .min(v.rows())
                        .min(v.cols().max(1));
                    let (eig, _) = tracer.span("linalg.sketch", w, |_| {
                        randomized_covariance_eig(
                            &centered,
                            k,
                            oversample,
                            power_iters,
                            stage_seed(spec.seed, p),
                        )
                    });
                    let eig = eig.map_err(|e| err(&e))?;
                    let mut weights = eig.eigenvectors;
                    for (j, &lambda) in eig.eigenvalues.iter().enumerate() {
                        let inv = 1.0 / (lambda + spec.epsilon).max(WHITEN_FLOOR).sqrt();
                        for i in 0..weights.rows() {
                            weights[(i, j)] *= inv;
                        }
                    }
                    let z = ColsView::from_matrices([v])
                        .and_then(|c| c.shifted_t_matmul(Some(&mean), &weights))
                        .map_err(|e| err(&e))?
                        .transpose();
                    outer.push(weights);
                    Ok(z)
                });
                views.push(z?);
            }
            views
        }
        None if spec.whiten == WhitenSpec::None => train.to_vec(),
        None => return Err(format!("replay does not cover whitening {:?}", spec.whiten)),
    };

    // Tcca::fit: center, regularize, whiten (exact inverse square roots).
    let (inner, _) = tracer.span("linalg.whiten", root, |_| -> Res<_> {
        let mut centered = Vec::with_capacity(inner_views.len());
        let mut whiteners = Vec::with_capacity(inner_views.len());
        for v in &inner_views {
            let (x, _) = center_rows(v);
            let mut c = covariance(&x);
            c.add_diagonal(spec.epsilon);
            whiteners.push(c.inverse_sqrt_spd(WHITEN_FLOOR).map_err(|e| err(&e))?);
            centered.push(x);
        }
        Ok((centered, whiteners))
    });
    let (centered, whiteners) = inner?;

    let (m, _) = tracer.span("tcca.tensor_build", root, |_| {
        tcca::whitened_covariance_tensor(&centered, &whiteners)
    });
    let m = m.map_err(|e| err(&e))?;
    let n = centered[0].cols() as f64;
    let dims: Vec<f64> = centered.iter().map(|c| c.rows() as f64).collect();
    let tensor_flops =
        2.0 * n * dims.iter().product::<f64>() + dims.iter().map(|d| 2.0 * d * d * n).sum::<f64>();

    let options = spec.tcca_options();
    let (cp, _) = tracer.span("tensor.cp_als", root, |_| {
        CpAls::new(CpOptions {
            max_iterations: options.max_iterations,
            tolerance: options.tolerance,
            seed: options.seed,
            hosvd_init: true,
        })
        .decompose_detailed(&m, spec.rank)
    });
    let (cp, sweeps, _) = cp.map_err(|e| err(&e))?;

    let (projections, _) = tracer.span("core.project", root, |_| -> Res<Vec<Matrix>> {
        let mut out = Vec::with_capacity(whiteners.len());
        for (p, w) in whiteners.iter().enumerate() {
            let h = w.matmul(&cp.factors[p]).map_err(|e| err(&e))?;
            out.push(match outer.get(p) {
                Some(o) => o.matmul(&h).map_err(|e| err(&e))?,
                None => h,
            });
        }
        Ok(out)
    });
    projections?;

    mttkrp_probe(&m, &cp.factors, tracer, root)?;
    Ok(Replay {
        correlations: cp.weights,
        sweeps,
        tensor_flops,
    })
}

/// Time the fused MTTKRP kernel once per mode on the fitted tensor, the
/// kernel each ALS sweep calls once per mode.
fn mttkrp_probe(
    m: &DenseTensor,
    factors: &[Matrix],
    tracer: &Tracer,
    root: Option<u64>,
) -> Res<()> {
    let refs: Vec<&Matrix> = factors.iter().collect();
    for mode in 0..m.order() {
        let (r, _) = tracer.span("tensor.mttkrp", root, |_| m.mttkrp(mode, &refs));
        std::hint::black_box(r.map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Time the randomized range-finder on a workload's first view, for
/// workloads whose own fit does not sketch.
pub fn sketch_probe(train: &[Matrix], spec: &FitSpec, tracer: &Tracer) -> Res<()> {
    let v = &train[0];
    let (centered, _) = center_rows(v);
    let k = spec
        .effective_per_view_dim()
        .min(v.rows())
        .min(v.cols().max(1));
    let (eig, _) = tracer.span("linalg.sketch", None, |_| {
        randomized_covariance_eig(&centered, k, 8, 2, stage_seed(spec.seed, 0))
    });
    std::hint::black_box(eig.map_err(|e| e.to_string())?);
    Ok(())
}

/// Per-view sketch seed, the derivation `mvcore`'s whitening stage uses.
fn stage_seed(seed: u64, which: usize) -> u64 {
    seed ^ (which as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Persist a model to bytes and load it back through the registry, timing
/// both under `core.save` / `core.load` spans. Returns the bytes and the
/// loaded model.
pub fn save_load(
    registry: &EstimatorRegistry,
    model: &dyn MultiViewModel,
    tracer: &Tracer,
) -> Res<(Vec<u8>, Box<dyn MultiViewModel>)> {
    let (bytes, _) = tracer.span("core.save", None, |_| {
        let mut bytes = Vec::new();
        model.save(&mut bytes).map(|_| bytes)
    });
    let bytes = bytes.map_err(|e| e.to_string())?;
    let (loaded, _) = tracer.span("core.load", None, |_| {
        registry.load_model(&mut bytes.as_slice())
    });
    Ok((bytes, loaded.map_err(|e| e.to_string())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_registry_fit_bit_for_bit() {
        let registry = EstimatorRegistry::with_builtin();
        let off = Tracer::new(false);
        let on = Tracer::new(true);
        for (data, spec) in [
            (
                Data::SecStr { n: 300 },
                FitSpec::with_rank(3).seed(5).decomposition_iterations(8),
            ),
            (
                Data::Wide {
                    dims: vec![64, 48, 32],
                    n: 120,
                },
                FitSpec::with_rank(3)
                    .per_view_dim(6)
                    .whiten(WhitenSpec::randomized())
                    .seed(9)
                    .decomposition_iterations(8),
            ),
        ] {
            let views = data.generate(11, 8).unwrap();
            let fit = fit_once(&registry, &views.train, &spec, &off).unwrap();
            assert!(fit.embedding_ok);
            let replay = replay(&views.train, &spec, &on).unwrap();
            assert_eq!(replay.correlations, fit.correlations);
            assert!(replay.sweeps >= 1);
        }
        assert!(!on.durations_s("tcca.tensor_build").is_empty());
        assert!(!on.durations_s("linalg.sketch").is_empty());
    }

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        let data = Data::Wide {
            dims: vec![20, 10],
            n: 30,
        };
        let a = data.generate(3, 4).unwrap();
        let b = data.generate(3, 4).unwrap();
        let c = data.generate(4, 4).unwrap();
        assert_eq!(a.train, b.train);
        assert_eq!(a.held_out, b.held_out);
        assert_ne!(a.train, c.train);
        assert_eq!(a.held_out[0].shape(), (20, 4));
    }
}
