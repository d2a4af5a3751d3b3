//! Zero-copy accounting for the serving path.
//!
//! "Zero input copies" is asserted, not claimed: `linalg` counts every deep
//! [`Matrix`] clone and every stitch materialization process-wide, and this file
//! measures the deltas across the paths under test. The whole file is a **single**
//! `#[test]` so no concurrently running test in the same process can touch the
//! global counters mid-measurement (integration-test files are separate processes;
//! tests *within* a file share one).

mod common;

use common::{gated, Gate, WAIT};
use linalg::{input_stitches, matrix_clones, Matrix};
use mvcore::{EstimatorRegistry, FitSpec};
use parallel::Pool;
use serve::{BatchConfig, BatchEngine, ModelStore, RouterConfig, TransformService};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

fn fixture_views() -> Vec<Matrix> {
    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: 32,
        seed: 23,
        difficulty: 0.8,
    });
    data.views()
        .iter()
        .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
        .collect()
}

/// Hold `engine`'s only slot with a `transform_view` request for the gated
/// model `model` (a singleton batch: no stitch, no clone), so work submitted
/// next queues and coalesces once the gate opens.
fn hold_slot(engine: &BatchEngine, model: &str, gate: &Gate, slice: &Arc<Matrix>) {
    let precision = serve::Precision::F64;
    engine.submit_transform_view(model, 1, Arc::clone(slice), precision, None, Box::new(drop));
    gate.wait_entered();
}

/// Submit `slices` as concurrent `transform_view` requests and wait for all
/// replies, returning them in request order. `gate`, if given, is opened once
/// every request is queued.
fn submit_view_burst(
    service: &dyn TransformService,
    model: &str,
    which: usize,
    slices: &[Arc<Matrix>],
    gate: Option<&mut Gate>,
) -> Vec<Matrix> {
    let (tx, rx) = sync_channel(slices.len());
    for (i, slice) in slices.iter().enumerate() {
        let tx = tx.clone();
        service.submit_transform_view(
            model,
            which,
            Arc::clone(slice),
            serve::Precision::F64,
            None,
            Box::new(move |r| drop(tx.send((i, r)))),
        );
    }
    if let Some(gate) = gate {
        gate.open();
    }
    let mut out: Vec<(usize, Matrix)> = (0..slices.len())
        .map(|_| {
            let (i, r) = rx.recv_timeout(WAIT).expect("engine reply");
            (i, r.expect("transform_view succeeds"))
        })
        .collect();
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, z)| z).collect()
}

#[test]
fn serving_happy_paths_copy_no_input_matrices() {
    let views = fixture_views();
    let registry = EstimatorRegistry::with_builtin();
    let model = registry
        .fit("PCA", &views, &FitSpec::with_rank(2).seed(2))
        .unwrap();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("pca", model);
    // One worker, so a request held in a gated model parks everything behind
    // it. A gate stays open once opened: one per parked burst.
    let gate = |name: &str| {
        let (model, gate) = gated(
            registry
                .fit("PCA", &views, &FitSpec::with_rank(2).seed(2))
                .unwrap(),
        );
        store.insert(name, model);
        gate
    };
    let (mut gate_views, mut gate_full) = (gate("gate-views"), gate("gate-full"));
    let engine = BatchEngine::start_with_pool(
        store,
        BatchConfig {
            max_batch: 64,
            ..BatchConfig::default()
        },
        Arc::new(Pool::new(1)),
    );
    let direct = engine
        .store()
        .get("pca")
        .unwrap()
        .transform_view(1, &views[1])
        .unwrap();

    // Everything the measurement needs is allocated up front, and a warm-up
    // request settles any lazy state, so the deltas below cover request handling
    // alone.
    let slices: Vec<Arc<Matrix>> = (0..8)
        .map(|c| Arc::new(views[1].select_columns(&(4 * c..4 * (c + 1)).collect::<Vec<_>>())))
        .collect();
    let warm = engine.transform_view("pca", 1, views[1].clone()).unwrap();
    assert_eq!(warm, direct);

    // --- Coalesced transform_view burst through the engine: ColsView path. ---
    let clones0 = matrix_clones();
    let stitches0 = input_stitches();
    hold_slot(&engine, "gate-views", &gate_views, &slices[0]);
    let results = submit_view_burst(&engine, "pca", 1, &slices, Some(&mut gate_views));
    for (c, z) in results.iter().enumerate() {
        let expected = direct.select_rows(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
        assert_eq!(z, &expected, "zero-copy result diverged for request {c}");
    }
    assert_eq!(
        matrix_clones() - clones0,
        0,
        "coalesced view path deep-copied an input matrix"
    );
    assert_eq!(
        input_stitches() - stitches0,
        0,
        "coalesced view path stitched the input"
    );
    let stats = engine.stats();
    assert!(
        stats.zero_copy_batches >= 1,
        "burst never took the ColsView path: {stats:?}"
    );
    assert_eq!(stats.fallbacks, 0, "zero-copy batch fell back: {stats:?}");

    // --- Singleton bypass: one lone request never touches the coalescing
    // machinery — no stitch, and (because the projection models' transform_view
    // itself centers during GEMM packing) no clone either.
    let singletons0 = engine.stats().singleton_batches;
    let clones1 = matrix_clones();
    let stitches1 = input_stitches();
    let z = submit_view_burst(&engine, "pca", 1, &slices[..1], None);
    assert_eq!(z[0], direct.select_rows(&(0..4).collect::<Vec<_>>()));
    assert_eq!(matrix_clones() - clones1, 0, "singleton cloned its input");
    assert_eq!(input_stitches() - stitches1, 0, "singleton stitched");
    assert!(engine.stats().singleton_batches > singletons0);

    // --- Router happy path: Arc-shared inputs, zero failovers, zero copies. ---
    let router_store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    router_store.insert(
        "pca",
        registry
            .fit("PCA", &views, &FitSpec::with_rank(2).seed(2))
            .unwrap(),
    );
    let router = serve::RouterBuilder::new(RouterConfig {
        replication: 1,
        ..RouterConfig::default()
    })
    .local_shard(
        router_store,
        BatchConfig {
            max_batch: 64,
            ..BatchConfig::default()
        },
    )
    .build();
    let warm = submit_view_burst(&router, "pca", 1, &slices[..1], None);
    assert_eq!(warm[0], direct.select_rows(&(0..4).collect::<Vec<_>>()));

    let clones2 = matrix_clones();
    let stitches2 = input_stitches();
    let results = submit_view_burst(&router, "pca", 1, &slices, None);
    for (c, z) in results.iter().enumerate() {
        let expected = direct.select_rows(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
        assert_eq!(z, &expected, "routed result diverged for request {c}");
    }
    assert_eq!(router.stats().failovers, 0, "happy path must not fail over");
    assert_eq!(
        matrix_clones() - clones2,
        0,
        "router happy path deep-copied an input matrix"
    );
    assert_eq!(
        input_stitches() - stitches2,
        0,
        "router happy path stitched the input"
    );

    // --- Control: a coalesced *full* transform still stitches (and is counted),
    // proving the counter observes the non-zero-copy path. ---
    let full_inputs: Vec<Arc<Vec<Matrix>>> = (0..2)
        .map(|c| {
            Arc::new(
                views
                    .iter()
                    .map(|v| v.select_columns(&(8 * c..8 * (c + 1)).collect::<Vec<_>>()))
                    .collect::<Vec<Matrix>>(),
            )
        })
        .collect();
    let coalesced0 = engine.stats().coalesced_requests;
    let stitches3 = input_stitches();
    hold_slot(&engine, "gate-full", &gate_full, &slices[0]);
    let (tx, rx) = sync_channel(2);
    for inputs in &full_inputs {
        let tx = tx.clone();
        engine.submit_transform(
            "pca",
            Arc::clone(inputs),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
    }
    gate_full.open();
    let a = rx.recv_timeout(WAIT).unwrap().unwrap();
    let b = rx.recv_timeout(WAIT).unwrap().unwrap();
    assert_eq!(a.rows() + b.rows(), 16);
    // The two requests queued behind the held slot and coalesced: the
    // full-transform path stitches each of the m views exactly once.
    assert_eq!(engine.stats().coalesced_requests, coalesced0 + 2);
    assert_eq!(input_stitches() - stitches3, views.len());
}
