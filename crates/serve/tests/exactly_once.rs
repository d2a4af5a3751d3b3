//! Exactly-once replies: every request gets one reply under its own id — even
//! when the model or a control op panics, and even after an earlier call on
//! the same connection gave up waiting.

mod common;

use common::{gated, WAIT};
use linalg::Matrix;
use mvcore::{CoreError, EstimatorRegistry, FitSpec, MemoryModel, ModelState, MultiViewModel};
use parallel::Pool;
use serve::wire::{ModelInfo, RescanReport};
use serve::{
    BatchConfig, BatchEngine, Client, ErrorClass, ModelStore, OutputsCallback, Precision,
    ReplyCallback, RouterBuilder, RouterConfig, ServeError, Server, TransformService,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture_views() -> Vec<Matrix> {
    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: 24,
        seed: 3,
        difficulty: 0.8,
    });
    data.views()
        .iter()
        .map(|v| v.select_rows(&(0..6.min(v.rows())).collect::<Vec<_>>()))
        .collect()
}

fn fit_pca(views: &[Matrix]) -> Box<dyn MultiViewModel> {
    EstimatorRegistry::with_builtin()
        .fit("PCA", views, &FitSpec::with_rank(2).seed(7))
        .unwrap()
}

fn start(engine: Arc<BatchEngine>) -> (SocketAddr, impl FnOnce()) {
    let server = Server::bind_service("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, move || {
        shutdown.shutdown();
        thread.join().unwrap();
    })
}

/// A fitted model whose projections panic.
struct Panicking(Box<dyn MultiViewModel>);

impl MultiViewModel for Panicking {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn num_views(&self) -> usize {
        self.0.num_views()
    }

    fn transform(&self, _views: &[Matrix]) -> Result<Matrix, CoreError> {
        panic!("injected transform panic")
    }

    fn transform_view(&self, _which: usize, _view: &Matrix) -> Result<Matrix, CoreError> {
        panic!("injected transform_view panic")
    }

    fn memory(&self) -> &MemoryModel {
        self.0.memory()
    }

    fn save_state(&self) -> Result<ModelState, CoreError> {
        self.0.save_state()
    }
}

#[test]
fn panicking_model_gets_an_in_band_error_and_the_connection_survives() {
    let views = fixture_views();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("boom", Box::new(Panicking(fit_pca(&views))));
    store.insert("pca", fit_pca(&views));
    let (addr, stop) = start(Arc::new(BatchEngine::start(store, BatchConfig::default())));

    let op_timeout = Duration::from_secs(10);
    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(op_timeout));
    let started = Instant::now();
    match client.transform("boom", &views) {
        Err(ServeError::Remote(msg)) => assert!(
            msg.contains(r#"model "boom" panicked: injected transform panic"#),
            "{msg}"
        ),
        other => panic!("expected an in-band error, got {other:?}"),
    }
    assert!(started.elapsed() < op_timeout);
    // The same connection, and the engine behind it, keep serving.
    client.ping().unwrap();
    assert_eq!(client.transform("pca", &views).unwrap().rows(), 24);
    stop();
}

/// The engine's answer to a call into the panicking model.
fn assert_panic_reply<T: std::fmt::Debug>(result: serve::Result<T>, call: &str) {
    match result {
        Err(e @ ServeError::ModelPanicked { .. }) => {
            assert_eq!(e.class(), ErrorClass::Terminal);
            let msg = e.to_string();
            assert!(
                msg.contains(r#"model "boom" panicked: injected"#),
                "{call}: {msg}"
            );
        }
        other => panic!("{call}: expected ModelPanicked, got {other:?}"),
    }
}

#[test]
fn blocking_engine_calls_return_the_panic_not_engine_stopped() {
    let views = fixture_views();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("boom", Box::new(Panicking(fit_pca(&views))));
    // A request held in the gated model takes the one-worker engine's only
    // slot, so the requests submitted behind it coalesce.
    let (model, mut gate) = gated(fit_pca(&views));
    store.insert("gate", model);
    let engine = BatchEngine::start_with_pool(
        store,
        BatchConfig {
            max_batch: 1024,
            ..BatchConfig::default()
        },
        Arc::new(Pool::new(1)),
    );
    // Singleton batches, one per op.
    assert_panic_reply(engine.transform("boom", views.clone()), "transform");
    assert_panic_reply(
        engine.transform_view("boom", 0, views[0].clone()),
        "transform_view",
    );
    assert_panic_reply(engine.outputs("boom", views.clone()), "outputs");

    // A coalesced batch panics, and so does every member's fallback call: each
    // member still gets its own reply.
    let fallbacks = engine.stats().fallbacks;
    engine.submit_transform("gate", Arc::new(views.clone()), None, Box::new(drop));
    gate.wait_entered();
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..3 {
        let tx = tx.clone();
        engine.submit_transform(
            "boom",
            Arc::new(views.clone()),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
    }
    gate.open();
    drop(tx);
    // Ends once every callback is consumed; a stranded one times out.
    let replies: Vec<_> = std::iter::from_fn(|| rx.recv_timeout(WAIT).ok()).collect();
    assert_eq!(replies.len(), 3, "every member gets exactly one reply");
    for r in replies {
        assert_panic_reply(r, "coalesced transform");
    }
    assert!(engine.stats().fallbacks > fallbacks);
    assert!(!engine.is_stopped());
}

#[test]
fn a_panic_behind_a_router_is_terminal_and_releases_the_shard() {
    let views = fixture_views();
    let shard_store = || {
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert("boom", Box::new(Panicking(fit_pca(&views))));
        store
    };
    let config = RouterConfig::default();
    let drain_timeout = config.drain_timeout;
    let router = RouterBuilder::new(config)
        .local_shard(shard_store(), BatchConfig::default())
        .local_shard(shard_store(), BatchConfig::default())
        .build();

    let (tx, rx) = std::sync::mpsc::channel();
    router.submit_transform(
        "boom",
        Arc::new(views.clone()),
        None,
        Box::new(move |r| drop(tx.send(r))),
    );
    let reply = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the router must call the reply callback");
    assert_panic_reply(reply, "routed transform");

    // Terminal: no failover, nobody marked dead, nothing left in flight.
    assert_eq!(router.stats().failovers, 0);
    assert_eq!(router.live_shards().len(), 2);
    for shard in router.shards() {
        assert_eq!(shard.inflight(), 0, "shard {}", shard.label());
    }
    // So draining a shard does not wait out the drain timeout.
    let started = Instant::now();
    router.remove_shard(0).unwrap();
    assert!(started.elapsed() < drain_timeout / 2);
}

#[test]
fn a_timed_out_call_does_not_shift_later_replies() {
    let views = fixture_views();
    let model = fit_pca(&views);
    let expected = model.transform(&views).unwrap();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("pca", model);
    // A transform of the gated model stays in the model until the gate opens.
    let (model, mut gate) = gated(fit_pca(&views));
    store.insert("gate", model);
    let (addr, stop) = start(Arc::new(BatchEngine::start_with_pool(
        store,
        BatchConfig {
            max_batch: 64,
            ..BatchConfig::default()
        },
        Arc::new(Pool::new(1)),
    )));

    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(Duration::from_millis(100)));
    let err = client.transform("gate", &views).unwrap_err();
    assert_eq!(err.class(), serve::ErrorClass::Transport, "got {err:?}");

    // Its embedding is on the way once the gate opens. The next calls must
    // each get their own reply, never the stale one.
    gate.open();
    client.set_op_timeout(Some(Duration::from_secs(10)));
    client.ping().unwrap();
    assert_eq!(client.transform("pca", &views).unwrap(), expected);
    client.ping().unwrap();
    stop();
}

/// A service whose `rescan` panics; its other ops answer at once.
struct PanickingRescan;

impl TransformService for PanickingRescan {
    fn submit_transform(
        &self,
        _model: &str,
        _inputs: Arc<Vec<Matrix>>,
        _deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        reply(Err(ServeError::Remote("no models".into())));
    }

    fn submit_transform_view(
        &self,
        _model: &str,
        _which: usize,
        _input: Arc<Matrix>,
        _precision: Precision,
        _deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        reply(Err(ServeError::Remote("no models".into())));
    }

    fn submit_outputs(
        &self,
        _model: &str,
        _inputs: Arc<Vec<Matrix>>,
        _deadline: Option<Instant>,
        reply: OutputsCallback,
    ) {
        reply(Err(ServeError::Remote("no models".into())));
    }

    fn catalog(&self) -> serve::Result<Vec<ModelInfo>> {
        Ok(Vec::new())
    }

    fn rescan(&self) -> serve::Result<RescanReport> {
        panic!("injected rescan panic")
    }
}

#[test]
fn a_panicking_control_op_leaves_later_control_ops_answered() {
    let server = Server::bind_service("127.0.0.1:0", Arc::new(PanickingRescan)).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(Duration::from_secs(2)));
    match client.rescan() {
        Err(ServeError::Remote(msg)) => {
            assert!(msg.contains("dropped without a reply"), "{msg}")
        }
        other => panic!("expected an in-band error, got {other:?}"),
    }
    // The control thread outlived the panic: later control ops on the same
    // server are answered, not left to time out.
    assert!(client.list_models().unwrap().is_empty());
    let stats = client.stats().unwrap();
    assert!(
        stats.iter().any(|(name, _)| name == "server/wakeups"),
        "{stats:?}"
    );

    shutdown.shutdown();
    server_thread.join().unwrap();
}
