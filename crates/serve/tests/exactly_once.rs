//! Exactly-once replies: every request gets one reply under its own id — even
//! when the model panics mid-batch, and even after an earlier call on the same
//! connection gave up waiting.

use linalg::Matrix;
use mvcore::{CoreError, EstimatorRegistry, FitSpec, MemoryModel, ModelState, MultiViewModel};
use serve::{BatchConfig, Client, ModelStore, ServeError, Server};
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

fn start(store: Arc<ModelStore>, batch: BatchConfig) -> (SocketAddr, impl FnOnce()) {
    let server = Server::bind("127.0.0.1:0", store, batch).unwrap();
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
    let (addr, stop) = start(store, BatchConfig::default());

    let op_timeout = Duration::from_secs(10);
    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(op_timeout));
    let started = Instant::now();
    match client.transform("boom", &views) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("without a reply"), "{msg}"),
        other => panic!("expected an in-band error, got {other:?}"),
    }
    assert!(started.elapsed() < op_timeout);
    // The same connection, and the engine behind it, keep serving.
    client.ping().unwrap();
    assert_eq!(client.transform("pca", &views).unwrap().rows(), 24);
    stop();
}

#[test]
fn a_timed_out_call_does_not_shift_later_replies() {
    let views = fixture_views();
    let model = fit_pca(&views);
    let expected = model.transform(&views).unwrap();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("pca", model);
    // A lone transform waits out the whole 400 ms batching window.
    let (addr, stop) = start(
        store,
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(400),
            ..BatchConfig::default()
        },
    );

    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(Duration::from_millis(100)));
    let err = client.transform("pca", &views).unwrap_err();
    assert_eq!(err.class(), serve::ErrorClass::Transport, "got {err:?}");

    // Its embedding is still on the way. The next calls must each get their
    // own reply, never the stale one.
    client.set_op_timeout(Some(Duration::from_secs(10)));
    client.ping().unwrap();
    assert_eq!(client.transform("pca", &views).unwrap(), expected);
    client.ping().unwrap();
    stop();
}
