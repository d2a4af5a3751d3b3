//! Chaos soak harness: drive the full serving stack through a seeded failure
//! schedule and prove the overload contract held.
//!
//! The harness builds a production-shaped topology *in one process*:
//! [`SoakConfig::local_shards`] in-process shards plus
//! [`SoakConfig::remote_shards`] loopback "remote" shards (real [`Server`]s
//! reached over TCP) behind a [`crate::Router`], behind a front [`Server`] —
//! then runs three phases of seeded client traffic (Zipf model popularity,
//! bursty arrivals, mixed op types, wire deadlines):
//!
//! 1. **pre** — steady state, the throughput baseline;
//! 2. **chaos** — one remote shard is killed outright (its process gone, its
//!    port refusing), a [`FaultPlan`] is installed against the other remote's
//!    link (connect refusals, stalls, truncated frames), a local shard is
//!    marked dead as a failover false positive, a churn thread hammers
//!    `Rescan`, and one surviving shard's payload budget is squeezed to force
//!    evictions;
//! 3. **recovery** — faults cleared, the killed shard restarts on its old
//!    port, the probe returns both remotes to rotation, and throughput must
//!    return to ≥ 90% of the baseline. Mid-phase, a **control-plane cycle**
//!    runs against the live front: a fresh shard is started, admitted with the
//!    `AddShard` op, serves rebalanced traffic for a third of the phase,
//!    and is then drained and removed with `RemoveShard` — all while the
//!    seeded clients hammer the front, proving zero requests drop across a
//!    membership change.
//!
//! The contract asserted ([`SoakReport::violations`]): **zero** protocol
//! violations and **zero** transport errors on front connections (every
//! rejected request gets an in-band `Overloaded`/`DeadlineExceeded`/error
//! verdict — nothing hangs, nothing is silently dropped), and post-fault
//! throughput recovers. Every random decision — fault firing, model choice,
//! burst pacing — derives from one recorded seed, so a failing run replays.

use crate::client;
use crate::faults::{self, FaultPlan};
use crate::wire::Request;
use crate::{
    BatchConfig, Client, ModelStore, Result as ServeResult, RouterBuilder, RouterConfig,
    ServeError, Server, ServerTuning,
};
use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Soak workload and topology knobs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed: fault schedule, model popularity, burst pacing and the
    /// router's retry jitter all derive from it. Recorded in the report.
    pub seed: u64,
    /// Models in the fleet (Zipf-popular: model 0 is hottest).
    pub models: usize,
    /// Concurrent front connections.
    pub clients: usize,
    /// Wall-clock per phase.
    pub phase: Duration,
    /// Per-request deadline carried on the wire; `0` sends none.
    pub deadline_ms: u32,
    /// Engine admission cap per shard (total queued requests).
    pub max_queue: usize,
    /// Per-model admission cap per shard.
    pub max_per_model: usize,
    /// Local shards (one is crashed in the chaos phase). Clamped to ≥ 2.
    pub local_shards: usize,
    /// Loopback remote shards. Clamped to ≥ 2: the chaos phase needs one to
    /// kill and one to fault; any extras just serve.
    pub remote_shards: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            models: 6,
            clients: 8,
            phase: Duration::from_millis(1500),
            deadline_ms: 250,
            max_queue: 256,
            max_per_model: 64,
            local_shards: 3,
            remote_shards: 2,
        }
    }
}

/// Outcome counts and latency percentiles for one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Phase name (`pre`, `chaos`, `recovery`).
    pub name: String,
    /// Requests issued.
    pub requests: u64,
    /// Requests answered with a payload.
    pub ok: u64,
    /// In-band `Overloaded` sheds.
    pub overloaded: u64,
    /// In-band `DeadlineExceeded` verdicts.
    pub deadline_exceeded: u64,
    /// Other in-band rejections (remote error strings: unknown model, …).
    pub rejected_in_band: u64,
    /// Transport-level failures on a FRONT connection — must stay zero.
    pub transport_errors: u64,
    /// Protocol violations on a FRONT connection — must stay zero.
    pub protocol_violations: u64,
    /// Requests per second over the phase.
    pub rps: f64,
    /// Latency percentiles over *answered* requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
}

impl PhaseReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"requests\": {}, \"ok\": {}, \"overloaded\": {}, \
             \"deadline_exceeded\": {}, \"rejected_in_band\": {}, \"transport_errors\": {}, \
             \"protocol_violations\": {}, \"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \
             \"p99_us\": {}}}",
            self.name,
            self.requests,
            self.ok,
            self.overloaded,
            self.deadline_exceeded,
            self.rejected_in_band,
            self.transport_errors,
            self.protocol_violations,
            self.rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
        )
    }
}

/// The full soak result: per-phase metrics plus the final counter snapshot.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The seed the run derived every random decision from — replay with it.
    pub seed: u64,
    /// Per-phase metrics: `pre`, `chaos`, `recovery`.
    pub phases: Vec<PhaseReport>,
    /// `recovery.rps / pre.rps`.
    pub recovery_ratio: f64,
    /// Failures of the mid-run control-plane cycle (shard add → rebalance →
    /// drain → remove under live traffic) — must stay empty.
    pub control_errors: Vec<String>,
    /// Final server/engine/router counters (`Stats` wire op) after recovery.
    pub stats: Vec<(String, u64)>,
}

impl SoakReport {
    /// The overload-contract violations this run committed; empty means the
    /// run passed.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for phase in &self.phases {
            if phase.protocol_violations > 0 {
                out.push(format!(
                    "{}: {} protocol violation(s) on front connections",
                    phase.name, phase.protocol_violations
                ));
            }
            if phase.transport_errors > 0 {
                out.push(format!(
                    "{}: {} transport error(s) on front connections",
                    phase.name, phase.transport_errors
                ));
            }
            if phase.requests == 0 {
                out.push(format!("{}: no requests completed", phase.name));
            }
        }
        if self.recovery_ratio < 0.9 {
            out.push(format!(
                "recovery throughput is {:.0}% of pre-chaos (< 90%)",
                self.recovery_ratio * 100.0
            ));
        }
        out.extend(self.control_errors.iter().cloned());
        out
    }

    /// Render the report as JSON (the `BENCH_7.json` / CI artifact format).
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("    {}", p.to_json()))
            .collect();
        let counters: Vec<String> = self
            .stats
            .iter()
            .map(|(name, value)| format!("    \"{name}\": {value}"))
            .collect();
        let string_list = |items: &[String]| {
            if items.is_empty() {
                "[]".to_string()
            } else {
                let quoted: Vec<String> = items
                    .iter()
                    .map(|v| format!("    \"{}\"", v.replace('"', "'")))
                    .collect();
                format!("[\n{}\n  ]", quoted.join(",\n"))
            }
        };
        format!(
            "{{\n  \"fault_seed\": {},\n  \"recovery_ratio\": {:.3},\n  \"phases\": [\n{}\n  ],\n  \
             \"counters\": {{\n{}\n  }},\n  \"control_errors\": {},\n  \"violations\": {}\n}}",
            self.seed,
            self.recovery_ratio,
            phases.join(",\n"),
            counters.join(",\n"),
            string_list(&self.control_errors),
            string_list(&self.violations()),
        )
    }
}

/// xorshift64* — the workload's deterministic RNG (independent of the fault
/// layer's SplitMix64 decision hash).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Zipf-ish popularity: model `i` is drawn with weight `1/(i+1)`.
fn zipf_pick(rng: &mut Rng, cdf: &[f64]) -> usize {
    let roll = rng.below(1_000_000) as f64 / 1_000_000.0;
    cdf.iter().position(|&c| roll < c).unwrap_or(cdf.len() - 1)
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

struct ClientTally {
    latencies_us: Vec<u64>,
    report: PhaseReport,
}

/// One client connection's loop for one phase: Zipf model choice, bursty
/// pacing, mixed op types, every outcome classified. The client carries a
/// 10-second per-op budget, so a server that silently dropped a request would
/// surface as a transport error here — the "zero hung connections" assertion.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    seed: u64,
    names: Arc<Vec<String>>,
    views: Arc<Vec<Matrix>>,
    cdf: Arc<Vec<f64>>,
    deadline_ms: u32,
    until: Instant,
) -> ClientTally {
    let mut rng = Rng::new(seed);
    let mut tally = ClientTally {
        latencies_us: Vec::new(),
        report: PhaseReport::default(),
    };
    let mut client: Option<Client> = None;
    while Instant::now() < until {
        // Bursty arrivals: bursts of 4–12 requests, then a seeded pause.
        let burst = 4 + rng.below(9);
        for _ in 0..burst {
            if Instant::now() >= until {
                break;
            }
            let c = match client.as_mut() {
                Some(c) => c,
                None => match Client::connect(addr) {
                    Ok(mut fresh) => {
                        fresh.set_op_timeout(Some(Duration::from_secs(10)));
                        client = Some(fresh);
                        client.as_mut().expect("just set")
                    }
                    Err(_) => {
                        tally.report.transport_errors += 1;
                        tally.report.requests += 1;
                        continue;
                    }
                },
            };
            let model = &names[zipf_pick(&mut rng, &cdf)];
            let op = rng.below(100);
            let started = Instant::now();
            let outcome: ServeResult<()> = if op < 70 {
                let request = Request::Transform {
                    model: model.clone(),
                    inputs: views.to_vec(),
                };
                c.call(request, deadline_ms)
                    .and_then(client::embedding)
                    .map(|_| ())
            } else if op < 85 {
                c.transform_view(model, 0, &views[0]).map(|_| ())
            } else if op < 95 {
                c.outputs(model, &views).map(|_| ())
            } else {
                c.stats().map(|_| ())
            };
            let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            tally.report.requests += 1;
            match outcome {
                Ok(()) => {
                    tally.report.ok += 1;
                    tally.latencies_us.push(elapsed_us);
                }
                Err(ServeError::Overloaded(_)) => tally.report.overloaded += 1,
                Err(ServeError::DeadlineExceeded(_)) => tally.report.deadline_exceeded += 1,
                Err(ServeError::Remote(_))
                | Err(ServeError::UnknownModel { .. })
                | Err(ServeError::Core(_))
                | Err(ServeError::NoLiveShards)
                | Err(ServeError::ModelPanicked { .. }) => tally.report.rejected_in_band += 1,
                Err(ServeError::Protocol(_)) => {
                    tally.report.protocol_violations += 1;
                    client = None; // resync on a fresh connection
                }
                Err(ServeError::Io(_)) | Err(ServeError::EngineStopped) => {
                    tally.report.transport_errors += 1;
                    client = None;
                }
            }
        }
        std::thread::sleep(Duration::from_micros(200 + rng.below(1_800)));
    }
    tally
}

/// Run one phase of seeded traffic against the front.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &str,
    addr: SocketAddr,
    config: &SoakConfig,
    names: &Arc<Vec<String>>,
    views: &Arc<Vec<Matrix>>,
    cdf: &Arc<Vec<f64>>,
    phase_salt: u64,
) -> PhaseReport {
    let until = Instant::now() + config.phase;
    let started = Instant::now();
    let handles: Vec<_> = (0..config.clients.max(1))
        .map(|i| {
            let names = Arc::clone(names);
            let views = Arc::clone(views);
            let cdf = Arc::clone(cdf);
            let seed = config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(phase_salt * 1_000 + i as u64);
            let deadline_ms = config.deadline_ms;
            std::thread::spawn(move || {
                client_loop(addr, seed, names, views, cdf, deadline_ms, until)
            })
        })
        .collect();
    let mut merged = PhaseReport {
        name: name.to_string(),
        ..PhaseReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        let tally = handle.join().expect("soak client thread panicked");
        merged.requests += tally.report.requests;
        merged.ok += tally.report.ok;
        merged.overloaded += tally.report.overloaded;
        merged.deadline_exceeded += tally.report.deadline_exceeded;
        merged.rejected_in_band += tally.report.rejected_in_band;
        merged.transport_errors += tally.report.transport_errors;
        merged.protocol_violations += tally.report.protocol_violations;
        latencies.extend(tally.latencies_us);
    }
    let secs = started.elapsed().as_secs_f64();
    merged.rps = if secs > 0.0 {
        merged.requests as f64 / secs
    } else {
        0.0
    };
    latencies.sort_unstable();
    merged.p50_us = percentile(&latencies, 0.50);
    merged.p95_us = percentile(&latencies, 0.95);
    merged.p99_us = percentile(&latencies, 0.99);
    merged
}

/// Fit `n` small PCA models into a fresh temp directory. Returns
/// `(dir, names, request views)` — the request is a small column slice so one
/// transform is cheap and batching/shedding dominate.
fn soak_fixture(n: usize, seed: u64) -> Result<(PathBuf, Vec<String>, Vec<Matrix>), String> {
    let dir = std::env::temp_dir().join(format!("tcca-soak-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: 48,
        seed: 13,
        difficulty: 0.8,
    });
    let views: Vec<Matrix> = data
        .views()
        .iter()
        .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
        .collect();
    let registry = EstimatorRegistry::with_builtin();
    let store = ModelStore::new(EstimatorRegistry::with_builtin());
    let mut names = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("m{i}");
        let model = registry
            .fit(
                "PCA",
                &views,
                &FitSpec::with_rank(2)
                    .epsilon(1e-2)
                    .seed(seed.wrapping_add(i as u64)),
            )
            .map_err(|e| format!("fitting {name}: {e}"))?;
        store
            .save(&dir, &name, model.as_ref())
            .map_err(|e| format!("saving {name}: {e}"))?;
        names.push(name);
    }
    let slice: Vec<Matrix> = views
        .iter()
        .map(|v| v.select_columns(&(0..4).collect::<Vec<_>>()))
        .collect();
    Ok((dir, names, slice))
}

/// One loopback "remote" shard: a real [`Server`] over TCP, so the
/// router→shard link exists as an actual socket the fault layer can chew on —
/// and so "kill the shard" means the listener genuinely goes away.
struct RemoteShard {
    addr: SocketAddr,
    shutdown: crate::server::ShutdownHandle,
    thread: std::thread::JoinHandle<ServeResult<()>>,
}

impl RemoteShard {
    fn start(addr: &str, dir: &Path, batch: BatchConfig) -> Result<Self, String> {
        let store = Arc::new(
            ModelStore::open(EstimatorRegistry::with_builtin(), dir)
                .map_err(|e| format!("indexing remote shard: {e}"))?,
        );
        let server =
            Server::bind(addr, store, batch).map_err(|e| format!("binding remote shard: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            thread,
        })
    }

    /// Kill the shard outright: stop the event loop and join it. The port now
    /// refuses connections like a dead process.
    fn kill(self) -> SocketAddr {
        self.shutdown.shutdown();
        let _ = self.thread.join();
        self.addr
    }
}

/// Run the full three-phase chaos soak. The returned report carries the seed;
/// [`SoakReport::violations`] is the pass/fail verdict.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, String> {
    let (dir, names, views) = soak_fixture(config.models.max(1), config.seed)?;
    let batch = BatchConfig {
        max_batch: 64,
        max_queue: config.max_queue,
        max_per_model: config.max_per_model,
    };

    // The remote fleet: the first is killed and restarted, the second keeps
    // running but gets its link faulted; any extras just serve.
    let n_remotes = config.remote_shards.max(2);
    let mut remotes = Vec::with_capacity(n_remotes);
    for _ in 0..n_remotes {
        remotes.push(RemoteShard::start("127.0.0.1:0", &dir, batch)?);
    }
    let doomed = remotes.remove(0);
    let faulted = remotes.remove(0);

    // Local shards + the remotes, behind one router with a fast probe and the
    // seeded retry discipline.
    let mut builder = RouterBuilder::new(RouterConfig {
        replication: 2,
        connections_per_shard: 2,
        remote_timeout: Duration::from_secs(2),
        probe_interval: Duration::from_millis(100),
        retry_base: Duration::from_millis(2),
        retry_max: Duration::from_millis(50),
        retry_seed: config.seed,
        retry_budget: 64,
        drain_timeout: Duration::from_secs(2),
    });
    let mut shard_stores = Vec::new();
    for _ in 0..config.local_shards.max(2) {
        let store = Arc::new(
            ModelStore::open(EstimatorRegistry::with_builtin(), &dir)
                .map_err(|e| format!("indexing shard: {e}"))?,
        );
        shard_stores.push(Arc::clone(&store));
        builder = builder.local_shard(store, batch);
    }
    builder = builder.remote_shard(doomed.addr.to_string());
    builder = builder.remote_shard(faulted.addr.to_string());
    for extra in &remotes {
        builder = builder.remote_shard(extra.addr.to_string());
    }
    let router = Arc::new(builder.build());
    let remote_ids = router.shards().len() - n_remotes..router.shards().len();

    // The front everything is judged at.
    let front = Server::bind_service_tuned(
        "127.0.0.1:0",
        Arc::clone(&router) as _,
        ServerTuning {
            max_inflight_per_conn: 64,
            ..ServerTuning::default()
        },
    )
    .map_err(|e| format!("binding front: {e}"))?;
    let front_addr = front.local_addr().map_err(|e| e.to_string())?;
    let front_shutdown = front.shutdown_handle();
    let front_thread = std::thread::spawn(move || front.run());

    let names = Arc::new(names);
    let views = Arc::new(views);
    let cdf = {
        let weights: Vec<f64> = (0..names.len()).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Arc::new(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect::<Vec<f64>>(),
        )
    };

    // Phase 1: steady state.
    let pre = run_phase("pre", front_addr, config, &names, &views, &cdf, 1);

    // Phase 2: chaos. One remote shard dies outright (port refusing); the
    // other remote's link gets seeded refusals/stalls/truncations; a local
    // shard is marked dead as a failover false positive; a churn thread
    // hammers rescan; one survivor's payload budget is squeezed to force
    // eviction pressure.
    let doomed_addr = doomed.kill();
    router.mark_dead(0);
    faults::install(FaultPlan {
        seed: config.seed,
        target_port: Some(faulted.addr.port()),
        connect_refuse: 300,
        read_delay: 150,
        read_delay_ms: 20,
        write_trunc: 100,
        write_delay: 150,
        write_delay_ms: 10,
    });
    if let Some(store) = shard_stores.get(1) {
        store.set_payload_budget(64 * 1024);
    }
    let churn_stop = Arc::new(AtomicBool::new(false));
    let churn_thread = {
        let stop = Arc::clone(&churn_stop);
        std::thread::spawn(move || {
            let mut client = match Client::connect(front_addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            client.set_op_timeout(Some(Duration::from_secs(10)));
            while !stop.load(Ordering::Relaxed) {
                let _ = client.rescan();
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let chaos = run_phase("chaos", front_addr, config, &names, &views, &cdf, 2);

    // Phase 3: recovery. Faults off, eviction pressure off, the killed shard
    // restarts on its old port ("the process came back"), and the probe must
    // return every shard to rotation before the measured window.
    faults::clear();
    churn_stop.store(true, Ordering::Relaxed);
    let _ = churn_thread.join();
    if let Some(store) = shard_stores.get(1) {
        store.set_payload_budget(0);
    }
    let mut revived = None;
    let rebind_by = Instant::now() + Duration::from_secs(3);
    while revived.is_none() && Instant::now() < rebind_by {
        match RemoteShard::start(&doomed_addr.to_string(), &dir, batch) {
            Ok(shard) => revived = Some(shard),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let revived = revived.ok_or_else(|| format!("could not rebind {doomed_addr} for recovery"))?;
    let revive_by = Instant::now() + Duration::from_secs(3);
    while router.shards()[remote_ids.clone()]
        .iter()
        .any(|s| !s.is_alive())
        && Instant::now() < revive_by
    {
        router.probe_now();
        std::thread::sleep(Duration::from_millis(20));
    }

    // Mid-recovery control-plane cycle, concurrent with live traffic: start a
    // fresh shard, admit it through the wire (AddShard), let rebalanced
    // traffic hit it for a third of the phase, then drain and remove it
    // (RemoveShard). The front's zero-transport-error contract holding across
    // the membership change is the "no dropped requests" proof.
    let control_errors: Arc<std::sync::Mutex<Vec<String>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let control_thread = {
        let errors = Arc::clone(&control_errors);
        let dir = dir.clone();
        let dwell = config.phase / 3;
        std::thread::spawn(move || {
            let note = |msg: String| errors.lock().expect("control errors lock").push(msg);
            let joiner = match RemoteShard::start("127.0.0.1:0", &dir, batch) {
                Ok(shard) => shard,
                Err(e) => return note(format!("control: starting joiner shard: {e}")),
            };
            let joiner_label = joiner.addr.to_string();
            let mut client = match Client::connect(front_addr) {
                Ok(c) => c,
                Err(e) => {
                    note(format!("control: connecting to the front: {e}"));
                    joiner.kill();
                    return;
                }
            };
            client.set_op_timeout(Some(Duration::from_secs(10)));
            let cluster = match client.add_shard(&joiner_label) {
                Ok(cluster) => cluster,
                Err(e) => {
                    note(format!("control: AddShard {joiner_label}: {e}"));
                    joiner.kill();
                    return;
                }
            };
            let Some(added) = cluster.iter().find(|s| s.label == joiner_label) else {
                note(format!(
                    "control: admitted shard {joiner_label} missing from the cluster snapshot"
                ));
                joiner.kill();
                return;
            };
            let id = added.id;
            std::thread::sleep(dwell);
            match client.remove_shard(id) {
                Ok(cluster) => {
                    if cluster.iter().any(|s| s.id == id) {
                        note(format!("control: removed shard {id} still in the table"));
                    }
                }
                Err(e) => note(format!("control: RemoveShard {id}: {e}")),
            }
            joiner.kill();
        })
    };
    let recovery = run_phase("recovery", front_addr, config, &names, &views, &cdf, 3);
    let _ = control_thread.join();

    // Final counter snapshot through the wire, like an operator would take it.
    let stats = Client::connect(front_addr)
        .and_then(|mut c| {
            c.set_op_timeout(Some(Duration::from_secs(10)));
            c.stats()
        })
        .unwrap_or_default();

    front_shutdown.shutdown();
    let _ = front_thread.join();
    revived.kill();
    faulted.kill();
    for extra in remotes {
        extra.kill();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let recovery_ratio = if pre.rps > 0.0 {
        recovery.rps / pre.rps
    } else {
        0.0
    };
    let control_errors = control_errors.lock().expect("control errors lock").clone();
    Ok(SoakReport {
        seed: config.seed,
        phases: vec![pre, chaos, recovery],
        recovery_ratio,
        control_errors,
        stats,
    })
}
