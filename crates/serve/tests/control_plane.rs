//! Live control-plane integration tests: runtime shard membership over the
//! wire (protocol v5), drain-before-remove under concurrent traffic, and the
//! health probe tracking shards that join or leave after startup.

use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec, MultiViewModel};
use serve::wire::{Request, Response};
use serve::{
    BatchConfig, Client, ModelStore, Router, RouterBuilder, RouterConfig, Server, TransformService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture_views() -> Vec<Matrix> {
    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: 24,
        seed: 11,
        difficulty: 0.8,
    });
    data.views()
        .iter()
        .map(|v| v.select_rows(&(0..6.min(v.rows())).collect::<Vec<_>>()))
        .collect()
}

/// Deterministic fit: every call returns a bit-identical model, so embeddings
/// computed on any shard (or in process) must match exactly.
fn fixture_model(views: &[Matrix]) -> Box<dyn MultiViewModel> {
    EstimatorRegistry::with_builtin()
        .fit("PCA", views, &FitSpec::with_rank(2).seed(13))
        .unwrap()
}

fn fixture_store(views: &[Matrix]) -> Arc<ModelStore> {
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("pca", fixture_model(views));
    store
}

/// An in-process backend shard the router can dial over loopback.
struct Backend {
    addr: std::net::SocketAddr,
    shutdown: serve::ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

impl Backend {
    fn start(addr: &str, views: &[Matrix]) -> Self {
        let server = Server::bind(
            addr,
            fixture_store(views),
            BatchConfig {
                max_batch: 16,
                ..BatchConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run().unwrap());
        Backend {
            addr,
            shutdown,
            thread,
        }
    }

    fn kill(self) -> std::net::SocketAddr {
        self.shutdown.shutdown();
        self.thread.join().unwrap();
        self.addr
    }
}

/// A router with one local shard, fronted by a wire server.
fn front_router(views: &[Matrix]) -> (Arc<Router>, std::net::SocketAddr, serve::ShutdownHandle) {
    let router = Arc::new(
        RouterBuilder::new(RouterConfig {
            replication: 2,
            probe_interval: Duration::ZERO,
            drain_timeout: Duration::from_secs(5),
            ..RouterConfig::default()
        })
        .local_shard(
            fixture_store(views),
            BatchConfig {
                max_batch: 16,
                ..BatchConfig::default()
            },
        )
        .build(),
    );
    let front = Server::bind_service("127.0.0.1:0", Arc::clone(&router) as _).unwrap();
    let addr = front.local_addr().unwrap();
    let shutdown = front.shutdown_handle();
    std::thread::spawn(move || front.run().unwrap());
    (router, addr, shutdown)
}

#[test]
fn add_cluster_remove_roundtrip_over_the_wire() {
    let views = fixture_views();
    let expected = fixture_model(&views).transform(&views).unwrap();
    let (_router, addr, shutdown) = front_router(&views);
    let mut client = Client::connect(addr).unwrap();

    // The starting table: one local shard, alive, not draining.
    let cluster = client.cluster_info().unwrap();
    assert_eq!(cluster.len(), 1);
    assert!(cluster[0].alive && !cluster[0].draining);

    // Admit a remote shard; the reply is the post-op table, labelled by address.
    let backend = Backend::start("127.0.0.1:0", &views);
    let cluster = client.add_shard(&backend.addr.to_string()).unwrap();
    assert_eq!(cluster.len(), 2);
    let added = cluster
        .iter()
        .find(|s| s.label == backend.addr.to_string())
        .expect("the admitted shard is in the table");
    assert!(added.alive && !added.draining);
    assert_ne!(added.id, cluster[0].id, "shard ids are distinct");

    // Traffic keeps flowing, bit-identically, through the grown cluster.
    for _ in 0..6 {
        assert_eq!(client.transform("pca", &views).unwrap(), expected);
    }

    // Drain and remove the admitted shard; the table shrinks back.
    let cluster = client.remove_shard(added.id).unwrap();
    assert_eq!(cluster.len(), 1);
    assert!(cluster.iter().all(|s| s.label != backend.addr.to_string()));
    assert_eq!(client.cluster_info().unwrap().len(), 1);
    assert_eq!(client.transform("pca", &views).unwrap(), expected);

    // Removing an id that is not in the table is an in-band error, and ids are
    // never reused, so the removed id stays invalid forever.
    let err = client.remove_shard(added.id).unwrap_err();
    assert!(err.to_string().contains("no shard"), "got: {err}");
    let err = client.add_shard("127.0.0.1:1").unwrap_err();
    assert!(
        !err.to_string().is_empty(),
        "unreachable shard address must be refused"
    );

    backend.kill();
    shutdown.shutdown();
}

#[test]
fn drain_before_remove_drops_no_replies() {
    let views = fixture_views();
    let expected = fixture_model(&views).transform(&views).unwrap();
    let (_router, addr, shutdown) = front_router(&views);
    let mut control = Client::connect(addr).unwrap();
    let mut traffic = Client::connect(addr).unwrap();

    // Two add → burst → remove cycles: tagged transforms are pipelined deep
    // enough that the RemoveShard lands while many are still in flight. Drain
    // semantics require every one of them to come back exactly once,
    // bit-identical — no drops, no duplicates, no errors.
    for cycle in 0..2 {
        let backend = Backend::start("127.0.0.1:0", &views);
        let table = control.add_shard(&backend.addr.to_string()).unwrap();
        let added_id = table
            .iter()
            .find(|s| s.label == backend.addr.to_string())
            .unwrap()
            .id;

        let mut sent = std::collections::BTreeSet::new();
        for _ in 0..48 {
            let id = traffic
                .send(&Request::Transform {
                    model: "pca".into(),
                    inputs: views.clone(),
                })
                .unwrap();
            assert!(sent.insert(id), "client reused a request id");
        }

        // Remove mid-burst: this blocks until the draining shard's in-flight
        // work completes (or fails over), then drops it from the table.
        let table = control.remove_shard(added_id).unwrap();
        assert!(
            table.iter().all(|s| s.id != added_id),
            "cycle {cycle}: removed shard still in the table"
        );

        let mut got = std::collections::BTreeSet::new();
        for _ in 0..sent.len() {
            let (id, resp) = traffic.recv().unwrap();
            assert!(got.insert(id), "cycle {cycle}: duplicate reply for {id}");
            match resp {
                Response::Embedding(z) => assert_eq!(z, expected, "cycle {cycle}: wrong bits"),
                other => panic!("cycle {cycle}: request {id} failed in-band: {other:?}"),
            }
        }
        assert_eq!(got, sent, "cycle {cycle}: dropped replies");
        backend.kill();
    }

    shutdown.shutdown();
}

#[test]
fn probe_tracks_shards_added_and_removed_at_runtime() {
    let views = fixture_views();
    let router = Arc::new(
        RouterBuilder::new(RouterConfig {
            replication: 2,
            probe_interval: Duration::ZERO, // probe runs only via probe_now()
            drain_timeout: Duration::from_secs(2),
            ..RouterConfig::default()
        })
        .local_shard(
            fixture_store(&views),
            BatchConfig {
                max_batch: 16,
                ..BatchConfig::default()
            },
        )
        .build(),
    );

    // Admit a shard at runtime, then knock it out: probing while the backend
    // is down must leave it dead.
    let backend = Backend::start("127.0.0.1:0", &views);
    let table = router.add_shard(&backend.addr.to_string()).unwrap();
    let added = table
        .iter()
        .find(|s| s.label == backend.addr.to_string())
        .unwrap()
        .clone();
    let dead_addr = backend.kill();
    router.mark_dead(added.id as usize);
    router.probe_now();
    let snapshot = router.cluster_snapshot();
    let entry = snapshot.iter().find(|s| s.id == added.id).unwrap();
    assert!(!entry.alive, "probe revived a shard whose backend is down");

    // The backend comes back on its old port: the probe must return the
    // *runtime-added* shard to rotation (the original bug only revived shards
    // known at startup).
    let mut revived = None;
    let rebind_by = Instant::now() + Duration::from_secs(10);
    while revived.is_none() && Instant::now() < rebind_by {
        let server = Server::bind(
            dead_addr.to_string(),
            fixture_store(&views),
            BatchConfig::default(),
        );
        match server {
            Ok(s) => {
                revived = Some(Backend {
                    addr: s.local_addr().unwrap(),
                    shutdown: s.shutdown_handle(),
                    thread: {
                        let (tx, rx) = std::sync::mpsc::channel();
                        tx.send(s).unwrap();
                        std::thread::spawn(move || rx.recv().unwrap().run().unwrap())
                    },
                })
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let revived = revived.expect("could not rebind the dead shard's port");
    router.probe_now();
    let snapshot = router.cluster_snapshot();
    let entry = snapshot.iter().find(|s| s.id == added.id).unwrap();
    assert!(entry.alive, "probe never revived the runtime-added shard");

    // Remove it: the probe walks the current table, so a removed shard is
    // forgotten — probing again neither resurrects it nor panics.
    router.remove_shard(added.id).unwrap();
    router.probe_now();
    assert!(
        router.cluster_snapshot().iter().all(|s| s.id != added.id),
        "removed shard reappeared after a probe pass"
    );
    revived.kill();
}
