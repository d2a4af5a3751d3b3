//! Overload-protection contract tests: a server under pressure must shed,
//! throttle or reject *in band* — never hang, never buffer without bound,
//! never silently drop a request that was admitted.

mod common;

use common::{gated, Gate, WAIT};
use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec};
use parallel::Pool;
use serve::wire::{read_frame, write_frame, Request, Response};
use serve::{BatchConfig, BatchEngine, Client, ModelStore, ServeError, Server, ServerTuning};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
        .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
        .collect()
}

/// A store serving one rank-2 PCA model under each of `names`.
fn fixture_store(names: &[String]) -> Arc<ModelStore> {
    let views = fixture_views();
    let registry = EstimatorRegistry::with_builtin();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    for name in names {
        let model = registry
            .fit("PCA", &views, &FitSpec::with_rank(2).seed(7))
            .unwrap();
        store.insert(name.as_str(), model);
    }
    store
}

/// `store` plus a PCA model `name` behind a gate, served by a one-worker
/// engine: a request for `name` holds the engine's only slot until the gate
/// opens, and everything admitted meanwhile stays queued.
fn parked_engine(store: Arc<ModelStore>, name: &str) -> (Arc<BatchEngine>, Gate) {
    let (model, gate) = gated(
        EstimatorRegistry::with_builtin()
            .fit("PCA", &fixture_views(), &FitSpec::with_rank(2).seed(7))
            .unwrap(),
    );
    store.insert(name, model);
    let batch = BatchConfig {
        max_batch: 64,
        ..BatchConfig::default()
    };
    let engine = BatchEngine::start_with_pool(store, batch, Arc::new(Pool::new(1)));
    (Arc::new(engine), gate)
}

fn start_tuned(engine: Arc<BatchEngine>, tuning: ServerTuning) -> (SocketAddr, impl FnOnce()) {
    let server = Server::bind_service_tuned("127.0.0.1:0", engine, tuning).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, move || {
        shutdown.shutdown();
        thread.join().unwrap();
    })
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} missing from {stats:?}"))
}

/// A connection whose replies pile up unread must trip the write-buffer
/// high-water mark (visible in `server/throttled`) instead of growing buffers
/// without bound — and still receive every reply exactly once when it reads
/// again. Throttling is backpressure, not loss.
///
/// The jam is made of unread replies: 4 KiB model names make every catalog
/// reply ~16 KiB while its request stays 18 bytes, and the client keeps
/// pipelining until the mark trips — which takes more reply bytes than the
/// loopback socket buffers absorb, whatever their size on the host.
#[test]
fn slow_reader_is_throttled_not_buffered_unboundedly() {
    let names: Vec<String> = (0..4).map(|i| format!("{i}").repeat(4096)).collect();
    let (addr, stop) = start_tuned(
        Arc::new(BatchEngine::start(
            fixture_store(&names),
            BatchConfig::default(),
        )),
        ServerTuning {
            wbuf_high_water: 64 * 1024,
            ..ServerTuning::default()
        },
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Pipeline rounds of catalog requests, never reading, until a second
    // connection sees the throttle counter move. Its `Stats` queues behind the
    // catalogs already read, so each round waits for the previous one to be
    // answered into the jam. The counter is cumulative (it counts excursions),
    // so there is no race with the jam clearing before we look.
    let mut observer = Client::connect(addr).unwrap();
    let mut sent = 0u64;
    while counter(&observer.stats().unwrap(), "server/throttled") == 0 {
        assert!(
            sent < 4096,
            "high-water mark never tripped with {sent} replies (~{} MiB) unread",
            sent * 16 / 1024
        );
        for _ in 0..64 {
            write_frame(&mut stream, &Request::ListModels.tagged(sent).encode()).unwrap();
            sent += 1;
        }
    }

    // Reading resumes: every request is answered, exactly once.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut seen = BTreeSet::new();
    for i in 0..sent {
        let payload = read_frame(&mut stream)
            .unwrap()
            .unwrap_or_else(|| panic!("reply stream ended after {i} of {sent} replies"));
        match Response::decode(&payload).unwrap() {
            Response::Tagged { id, inner } => {
                assert!(matches!(*inner, Response::Models(ref m) if m.len() == 4));
                assert!(seen.insert(id), "duplicate reply for request {id}");
            }
            other => panic!("expected a tagged reply, got {other:?}"),
        }
    }
    assert_eq!(seen, (0..sent).collect(), "every request must be answered");
    stop();
}

/// Pipelining past the per-connection in-flight limit gets the excess shed
/// with an in-band `Overloaded` reply — every request is answered, none hang.
#[test]
fn pipelined_flood_beyond_inflight_limit_is_shed_in_band() {
    let requests: u64 = 64;
    // The gate parks admitted work so the in-flight count stays up while the
    // flood arrives.
    let (engine, mut gate) = parked_engine(fixture_store(&[]), "pca");
    let (addr, stop) = start_tuned(
        engine,
        ServerTuning {
            max_inflight_per_conn: 4,
            ..ServerTuning::default()
        },
    );
    let views = fixture_views();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for id in 0..requests {
        let frame = Request::Transform {
            model: "pca".into(),
            inputs: views.clone(),
        }
        .tagged(id)
        .encode();
        write_frame(&mut stream, &frame).unwrap();
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (mut served, mut shed) = (0u64, 0u64);
    let mut seen = BTreeSet::new();
    for _ in 0..requests {
        let payload = read_frame(&mut stream)
            .unwrap()
            .expect("reply stream ended early");
        // Nothing admitted can finish while the gate is shut, so the first
        // reply is a shed: the flood has met the limit, and the parked work may
        // run.
        gate.open();
        match Response::decode(&payload).unwrap() {
            Response::Tagged { id, inner } => {
                assert!(seen.insert(id), "duplicate reply for request {id}");
                match *inner {
                    Response::Embedding(_) => served += 1,
                    Response::Overloaded(_) => shed += 1,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            other => panic!("expected a tagged reply, got {other:?}"),
        }
    }
    assert_eq!(
        seen.len() as u64,
        requests,
        "every request must be answered"
    );
    assert!(served >= 1, "the in-flight window must serve something");
    assert!(
        shed >= 1,
        "a 64-deep pipeline against a 4-deep limit must shed ({served} served)"
    );
    let mut observer = Client::connect(addr).unwrap();
    assert!(
        counter(&observer.stats().unwrap(), "server/shed_inflight") >= shed,
        "sheds must be visible in server/shed_inflight"
    );
    stop();
}

/// A wire deadline budget that runs out while the request is parked behind a
/// busy engine gets an in-band `DeadlineExceeded` — the work is discarded, not
/// computed late.
#[test]
fn expired_wire_deadline_is_answered_in_band() {
    let (engine, mut gate) = parked_engine(fixture_store(&["pca".into()]), "gate");
    let (addr, stop) = start_tuned(Arc::clone(&engine), ServerTuning::default());
    let views = fixture_views();
    // A request held in the gated model takes the engine's only slot.
    let holder = {
        let views = views.clone();
        std::thread::spawn(move || Client::connect(addr)?.transform("gate", &views))
    };
    gate.wait_entered();
    // Open the gate once the request below has queued and its 1 ms budget has
    // run out.
    let opener = std::thread::spawn(move || {
        let queued_by = Instant::now() + WAIT;
        while engine.queue_depth() == 0 {
            assert!(Instant::now() < queued_by, "the request never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        gate.open();
    });
    let mut client = Client::connect(addr).unwrap();
    let request = Request::Transform {
        model: "pca".into(),
        inputs: views.clone(),
    };
    match client.call(request, 1) {
        Err(ServeError::DeadlineExceeded(_)) => {}
        other => panic!("expected an in-band deadline verdict, got {other:?}"),
    }
    opener.join().unwrap();
    holder.join().unwrap().unwrap();
    // A deadline-free request on the same connection still works: the expired
    // one was discarded cleanly, not left to poison the stream.
    client.transform("pca", &views).unwrap();
    assert!(
        counter(&client.stats().unwrap(), "deadline_dropped") >= 1,
        "the engine must count the dropped-deadline request"
    );
    stop();
}

/// The client's per-operation timeout bounds every socket wait: a server that
/// accepts and then stalls forever surfaces as a transport error in bounded
/// time, not a hung caller.
#[test]
fn per_op_timeout_bounds_a_stalled_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let stall = std::thread::spawn(move || {
        // Accept and hold the socket open without ever replying.
        let conn = listener.accept().map(|(s, _)| s);
        let _ = done_rx.recv();
        drop(conn);
    });
    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(Duration::from_millis(300)));
    let started = Instant::now();
    let err = client.ping().expect_err("a stalled server cannot pong");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the op timeout must bound the wait (took {:?})",
        started.elapsed()
    );
    assert_eq!(err.class(), serve::ErrorClass::Transport, "got {err:?}");
    done_tx.send(()).unwrap();
    stall.join().unwrap();
}
