//! Streaming-fit benchmark: refit latency, warm-start sweep counts, and the
//! live-swap blackout window — the numbers behind `BENCH_6.json`.
//!
//! ```text
//! cargo run --release -p tcca-bench --bin stream_bench [-- --samples N] [--out FILE]
//! ```
//!
//! Four measurements, one JSON object:
//!
//! * **streaming vs one-shot (PCA)** — accumulate chunks into exact-moment
//!   sufficient statistics and finalize, against the one-shot fit on the same
//!   sample; asserts the transforms are bit-identical before reporting times.
//! * **partial_fit throughput** — instances folded per second into PCA and
//!   TCCA statistics (the cost a serving tap adds per observed chunk).
//! * **cold vs warm TCCA refit** — CP-ALS sweeps and wall time for a cold fit
//!   against a warm start from the previous model's factors.
//! * **live-swap blackout** — a real [`serve::TrainerService`] refit cycle:
//!   the `trainer/last_refit_micros` (off-event-loop work) and
//!   `trainer/last_swap_micros` (rename + store rescan — the only serving-
//!   visible window) counters after each swap.

use datasets::GaussianRng;
use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec};
use serve::{
    BatchConfig, BatchEngine, ModelStore, TrainerConfig, TrainerService, TransformService,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use stream::StreamingRegistry;

/// Deterministic two-latent multi-view sample (no RNG: the fixture must make
/// CP-ALS converge, and these phases are known-good).
fn signal_views(dims: &[usize], n: usize, seed: u64) -> Vec<Matrix> {
    let mix = |k: u64| ((seed.wrapping_mul(0x9e37_79b9).wrapping_add(k) % 997) as f64) / 997.0;
    dims.iter()
        .enumerate()
        .map(|(p, &d)| {
            let mut v = Matrix::zeros(d, n);
            for j in 0..n {
                let s = ((j as f64) * 0.37 + mix(p as u64)).sin();
                let t = ((j as f64) * 0.11 + 1.3).cos();
                for i in 0..d {
                    let noise = (mix((p * d * n + i * n + j) as u64) - 0.5) * 0.3;
                    v[(i, j)] = s * (0.5 + i as f64) + t * ((i as f64) * 1.3).cos() + noise;
                }
            }
            v
        })
        .collect()
}

fn chunked(views: &[Matrix], chunk: usize) -> Vec<Vec<Matrix>> {
    let n = views[0].cols();
    (0..n)
        .step_by(chunk)
        .map(|start| {
            let cols: Vec<usize> = (start..(start + chunk).min(n)).collect();
            views.iter().map(|v| v.select_columns(&cols)).collect()
        })
        .collect()
}

fn min_ns<F: FnMut() -> u128>(samples: usize, mut f: F) -> u128 {
    (0..samples).map(|_| f()).min().unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut samples = 5usize;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--samples" => {
                i += 1;
                samples = args[i].parse().expect("--samples takes an integer");
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            other => panic!("unknown argument {other}; use --samples N / --out FILE"),
        }
        i += 1;
    }

    let mut json = String::from("{\n  \"schema\": \"tcca-stream-bench/v1\",\n");

    // ---- streaming vs one-shot (PCA, exact moments) -------------------------
    let dims = [48usize, 40, 32];
    let n = 600;
    let views = signal_views(&dims, n, 3);
    let spec = FitSpec::with_rank(4).epsilon(1e-2).seed(5);
    let registry = EstimatorRegistry::with_builtin();
    let streaming = StreamingRegistry::with_builtin();

    let oneshot_ns = min_ns(samples, || {
        let t = Instant::now();
        std::hint::black_box(registry.fit("PCA", &views, &spec).unwrap());
        t.elapsed().as_nanos()
    });
    let chunks = chunked(&views, 50);
    let streamed_ns = min_ns(samples, || {
        let t = Instant::now();
        let mut stats = streaming.new_stats("PCA", &dims, &spec).unwrap();
        for chunk in &chunks {
            stats.partial_fit(chunk).unwrap();
        }
        std::hint::black_box(stats.finalize().unwrap());
        t.elapsed().as_nanos()
    });
    // The contract the timings ride on: bit-identical embeddings.
    let reference = registry.fit("PCA", &views, &spec).unwrap();
    let mut stats = streaming.new_stats("PCA", &dims, &spec).unwrap();
    for chunk in &chunks {
        stats.partial_fit(chunk).unwrap();
    }
    let finalized = stats.finalize().unwrap();
    let bit_identical = reference.transform(&views).unwrap().as_slice()
        == finalized.transform(&views).unwrap().as_slice();
    assert!(bit_identical, "streaming PCA diverged from one-shot");
    let _ = writeln!(
        json,
        "  \"streaming_vs_oneshot_pca\": {{\"dims\": \"48x40x32\", \"n\": {n}, \
         \"chunk\": 50, \"oneshot_ns\": {oneshot_ns}, \"streamed_ns\": {streamed_ns}, \
         \"transform_bit_identical\": {bit_identical}}},"
    );

    // ---- partial_fit throughput --------------------------------------------
    let mut throughput = Vec::new();
    for method in ["PCA", "TCCA"] {
        let per_chunk_ns = min_ns(samples, || {
            let mut stats = streaming.new_stats(method, &dims, &spec).unwrap();
            let t = Instant::now();
            for chunk in &chunks {
                stats.partial_fit(chunk).unwrap();
            }
            t.elapsed().as_nanos()
        });
        let instances_per_sec = (n as f64) / (per_chunk_ns as f64 / 1e9);
        throughput.push(format!(
            "{{\"method\": \"{method}\", \"accumulate_ns_total\": {per_chunk_ns}, \
             \"instances_per_sec\": {instances_per_sec:.0}}}"
        ));
    }
    let _ = writeln!(
        json,
        "  \"partial_fit_throughput\": [{}],",
        throughput.join(", ")
    );

    // ---- cold vs warm TCCA refit -------------------------------------------
    // Two overlapping Gaussian latents plus noise (the fixture of the stream
    // crate's warm-start tests): not exactly rank-2 after whitening, so cold
    // ALS has to grind down to the tolerance while the warm start begins there.
    let warm_dims = [4usize, 3, 3];
    let warm_views: Vec<Matrix> = {
        let n = 120;
        let mut rng = GaussianRng::new(41);
        let mut views: Vec<Matrix> = warm_dims.iter().map(|&d| Matrix::zeros(d, n)).collect();
        for j in 0..n {
            let s = rng.standard_normal();
            let t = rng.standard_normal();
            for v in views.iter_mut() {
                for i in 0..v.rows() {
                    v[(i, j)] = s * (0.5 + i as f64)
                        + t * ((i as f64 * 1.3).cos())
                        + 0.6 * rng.standard_normal();
                }
            }
        }
        views
    };
    let warm_spec = FitSpec::with_rank(2)
        .epsilon(1e-2)
        .seed(17)
        .tolerance(1e-10);
    let mut tcca_stats = streaming.new_stats("TCCA", &warm_dims, &warm_spec).unwrap();
    for chunk in chunked(&warm_views, 30) {
        tcca_stats.partial_fit(&chunk).unwrap();
    }
    let (cold_ns, (cold_model, cold_sweeps)) = {
        let t = Instant::now();
        let r = streaming.refit("TCCA", None, tcca_stats.as_ref()).unwrap();
        (t.elapsed().as_nanos(), r)
    };
    let (warm_ns, warm_sweeps) = {
        let t = Instant::now();
        let (_, sweeps) = streaming
            .refit("TCCA", Some(cold_model.as_ref()), tcca_stats.as_ref())
            .unwrap();
        (t.elapsed().as_nanos(), sweeps)
    };
    let _ = writeln!(
        json,
        "  \"tcca_cold_vs_warm\": {{\"dims\": \"4x3x3\", \"n\": 120, \"rank\": 2, \
         \"cold_ns\": {cold_ns}, \"cold_sweeps\": {cold_sweeps}, \
         \"warm_ns\": {warm_ns}, \"warm_sweeps\": {warm_sweeps}}},"
    );

    // ---- live-swap blackout through a real trainer -------------------------
    let dir = std::env::temp_dir().join(format!("tcca-stream-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let swap_views = signal_views(&[16usize, 12, 10], 80, 9);
    let swap_spec = FitSpec::with_rank(2).epsilon(1e-2).seed(5);
    let seed_model = registry.fit("PCA", &swap_views, &swap_spec).unwrap();
    ModelStore::new(EstimatorRegistry::with_builtin())
        .save(&dir, "live", seed_model.as_ref())
        .unwrap();
    let store = Arc::new(ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap());
    let engine = Arc::new(BatchEngine::start(
        store,
        BatchConfig {
            max_batch: 32,
            ..BatchConfig::default()
        },
    ));
    let svc = TrainerService::start(engine, &dir, TrainerConfig::watching("live", swap_spec));
    let counter = |name: &str| {
        TransformService::stats(&svc)
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap()
    };
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    svc.submit_transform(
        "live",
        Arc::new(swap_views.clone()),
        None,
        Box::new(move |r| drop(tx.send(r.map(|_| ())))),
    );
    rx.recv().unwrap().unwrap();
    let mut refit_micros = Vec::new();
    let mut swap_micros = Vec::new();
    for _ in 0..samples.max(3) {
        svc.refit_now().unwrap();
        refit_micros.push(counter("trainer/last_refit_micros"));
        swap_micros.push(counter("trainer/last_swap_micros"));
    }
    let generations = counter("trainer/model_version");
    let _ = writeln!(
        json,
        "  \"live_swap\": {{\"dims\": \"16x12x10\", \"reservoir_instances\": 80, \
         \"generations\": {generations}, \
         \"refit_micros_min\": {}, \"swap_blackout_micros_min\": {}, \
         \"swap_blackout_micros_max\": {}}}",
        refit_micros.iter().min().unwrap(),
        swap_micros.iter().min().unwrap(),
        swap_micros.iter().max().unwrap()
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);

    json.push_str("}\n");
    match out_path {
        Some(path) => std::fs::write(&path, &json).expect("write --out file"),
        None => print!("{json}"),
    }
}
