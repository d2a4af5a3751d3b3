//! Live-swap smoke: clients hammer a served model while the trainer refits and
//! swaps it several times underneath them. The zero-downtime contract under
//! test, end to end over TCP:
//!
//! * **no request ever fails or blocks** across a swap — in-flight requests
//!   finish on the old generation's `Arc`, new requests load the new one;
//! * the catalog's model **version advances monotonically** with every swap;
//! * replies stay **bit-identical** throughout: the hammers always send the
//!   same views, so the reservoir only ever holds copies of the fit sample,
//!   and the exact-moment streaming PCA reproduces the one-shot model
//!   bit-for-bit at every generation.
//!
//! CI runs this as the live-swap smoke job.

use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec};
use serve::{
    BatchConfig, BatchEngine, Client, ModelStore, Server, TrainerConfig, TrainerService,
    TransformService,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture_views(n: usize, seed: u64) -> Vec<Matrix> {
    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: n,
        seed,
        difficulty: 0.8,
    });
    // Trim each ~105-dim view to 8 rows: exact-moment accumulation is O(D²)
    // per instance, and this smoke is about swap behaviour, not throughput.
    data.views()
        .iter()
        .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
        .collect()
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing counter {name}: {counters:?}"))
}

#[test]
fn hammered_model_survives_repeated_live_swaps() {
    const SWAPS: u64 = 5;
    const HAMMERS: usize = 4;

    let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(5);
    let views = fixture_views(40, 29);
    let dir = std::env::temp_dir().join(format!("tcca-live-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Seed the store with a one-shot PCA fit of the hammer sample.
    let registry = EstimatorRegistry::with_builtin();
    let model = registry.fit("PCA", &views, &spec).unwrap();
    ModelStore::new(EstimatorRegistry::with_builtin())
        .save(&dir, "live", model.as_ref())
        .unwrap();

    // Serve through a trainer-wrapped engine: transform traffic feeds the
    // reservoir, wire-level Refit triggers the background refresh.
    let store = Arc::new(ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap());
    let engine = Arc::new(BatchEngine::start(
        store,
        BatchConfig {
            max_batch: 32,
            ..BatchConfig::default()
        },
    ));
    let mut trainer_config = TrainerConfig::watching("live", spec);
    // A short window keeps each refit's accumulation pass well under the poll
    // deadline even on a loaded CI box.
    trainer_config.reservoir_chunks = 8;
    let service = Arc::new(TrainerService::start(engine, &dir, trainer_config));
    let server = Server::bind_service(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn TransformService>,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut control = Client::connect(addr).unwrap();
    let baseline = control.transform("live", &views).unwrap();

    // Hammer threads: same views forever, count replies, fail loudly on any
    // error or any bit that differs from the baseline embedding.
    let stop = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    let hammers: Vec<_> = (0..HAMMERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let successes = Arc::clone(&successes);
            let failures = Arc::clone(&failures);
            let views = views.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    match client.transform("live", &views) {
                        Ok(z) if z.as_slice() == baseline.as_slice() => {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // Drive SWAPS refresh cycles while the hammers run. Each trigger is
    // asynchronous; poll the Stats op until the refit lands, then check the
    // catalog's version advanced.
    for round in 1..=SWAPS {
        // Make sure the reservoir has seen traffic this round.
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter(&control.stats().unwrap(), "trainer/reservoir_chunks") == 0 {
            assert!(
                Instant::now() < deadline,
                "no traffic reached the reservoir"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        control.refit().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = control.stats().unwrap();
            assert_eq!(counter(&stats, "trainer/errors"), 0, "refit errored");
            if counter(&stats, "trainer/refits") >= round {
                break;
            }
            assert!(Instant::now() < deadline, "refit {round} never landed");
            std::thread::sleep(Duration::from_millis(10));
        }
        let catalog = control.list_models().unwrap();
        let live = catalog.iter().find(|m| m.name == "live").unwrap();
        assert_eq!(live.version, round, "version must advance with every swap");
    }

    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().unwrap();
    }

    let served = successes.load(Ordering::Relaxed);
    let failed = failures.load(Ordering::Relaxed);
    assert_eq!(failed, 0, "a request failed or changed bits during a swap");
    assert!(
        served > 0,
        "hammers must actually have exercised the server"
    );

    // The swap window the trainer measured (rename + rescan) is microseconds,
    // not milliseconds — sanity-bound it so a regression to payload-deep
    // rescans shows up here.
    let stats = control.stats().unwrap();
    assert!(counter(&stats, "trainer/last_swap_micros") > 0);
    assert_eq!(counter(&stats, "trainer/model_version"), SWAPS);

    shutdown.shutdown();
    server_thread.join().unwrap();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
