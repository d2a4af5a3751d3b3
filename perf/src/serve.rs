//! The serving side: model files, the serving stacks, the open-loop load
//! generator with its reply checks, and the per-layer probes.
//!
//! The generator is open loop over one connection: one sender thread writes
//! pipelined tagged frames at their scheduled instants, one receiver thread
//! reads replies in whatever order they come. Every request is timed from the
//! instant it was due, so a stall charges the requests queued behind it, and
//! the sender's own lateness is recorded.

use crate::schedule::{Arrival, Mix, Op};
use crate::stats::{median, quantile};
use crate::trace::{Span, Tracer};
use crate::Res;
use linalg::Matrix;
use mvcore::{EstimatorRegistry, MultiViewModel};
use serve::wire::{read_frame, Request, Response};
use serve::{
    BatchConfig, BatchEngine, Client, EngineStats, ModelStore, Precision, Router, RouterBuilder,
    RouterConfig, Server, ShutdownHandle, TransformService,
};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Instances per request.
pub const BLOCK: usize = 4;

/// Longest a step waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// One served name: its generations as file bytes plus the in-process model
/// each reply is checked against. Generation 0 is on disk at start.
pub struct Served {
    /// Store name (file stem).
    pub name: String,
    /// `(file bytes, model)` per generation.
    pub gens: Vec<(Vec<u8>, Arc<dyn MultiViewModel>)>,
}

/// Everything a workload serves.
pub struct Catalog {
    /// Directory the stores index.
    pub dir: PathBuf,
    /// Served names, in Zipf rank order.
    pub models: Vec<Served>,
    /// Name index whose file flips between generations, if any.
    pub flip: Option<usize>,
    /// Input blocks: per block, one `d_p × BLOCK` matrix per view.
    pub blocks: Vec<Vec<Matrix>>,
    /// The request mix over these models and blocks.
    pub mix: Mix,
}

impl Catalog {
    /// Write generation 0 of every model into `dir` (created fresh).
    pub fn write(&self) -> Res<()> {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        for m in &self.models {
            write_atomic(&self.dir, &m.name, &m.gens[0].0)?;
        }
        Ok(())
    }
}

/// Replace `dir/name.mvm` atomically (write a temporary, then rename).
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Res<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    let dst = dir.join(format!("{name}.{}", serve::MODEL_EXTENSION));
    std::fs::write(&tmp, bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &dst).map_err(|e| format!("{}: {e}", dst.display()))
}

/// Split held-out views into `count` blocks of [`BLOCK`] instances.
pub fn blocks(held_out: &[Matrix], count: usize) -> Vec<Vec<Matrix>> {
    (0..count)
        .map(|b| {
            let cols: Vec<usize> = (b * BLOCK..(b + 1) * BLOCK).collect();
            held_out.iter().map(|v| v.select_columns(&cols)).collect()
        })
        .collect()
}

/// Pre-built requests and the outputs each may legitimately get back.
pub struct Templates {
    /// The untagged request per template.
    pub requests: Vec<Request>,
    /// The tagged payload with id 0; the id is patched in at send time.
    pub payloads: Vec<Vec<u8>>,
    /// Acceptable replies: the in-process output of each generation.
    pub expected: Vec<Vec<Matrix>>,
}

/// Byte offset of the request id inside a tagged payload (after the opcode).
const ID_AT: usize = 1;

impl Templates {
    /// Build every template of the catalog's mix and its expected outputs.
    pub fn build(catalog: &Catalog) -> Res<Self> {
        let mix = &catalog.mix;
        let mut out = Templates {
            requests: Vec::with_capacity(mix.templates()),
            payloads: Vec::with_capacity(mix.templates()),
            expected: Vec::with_capacity(mix.templates()),
        };
        for t in 0..mix.templates() {
            let (model, op, block) = mix.decode(t);
            let served = &catalog.models[model];
            let inputs = &catalog.blocks[block];
            let request = match op {
                Op::View(v) => Request::TransformView {
                    model: served.name.clone(),
                    view: v as u32,
                    input: inputs[v].clone(),
                    precision: Precision::F64,
                },
                Op::Full => Request::Transform {
                    model: served.name.clone(),
                    inputs: inputs.clone(),
                },
            };
            let expected = served
                .gens
                .iter()
                .map(|(_, m)| match op {
                    Op::View(v) => m.transform_view(v, &inputs[v]),
                    Op::Full => m.transform(inputs),
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            out.payloads.push(request.clone().tagged(0).encode());
            out.requests.push(request);
            out.expected.push(expected);
        }
        // The id patch must produce exactly what the wire encoder would.
        let probe = out.requests[0]
            .clone()
            .tagged(0x0102_0304_0506_0708)
            .encode();
        if out.payload_with(0, 0x0102_0304_0506_0708) != probe {
            return Err("tagged envelope layout changed: id patch disagrees with encode".into());
        }
        Ok(out)
    }

    /// Template `t`'s payload carrying request id `id`.
    pub fn payload_with(&self, t: usize, id: u64) -> Vec<u8> {
        let mut p = self.payloads[t].clone();
        p[ID_AT..ID_AT + 8].copy_from_slice(&id.to_le_bytes());
        p
    }

    /// Whether `z` is, bit for bit, one of template `t`'s expected outputs.
    pub fn accepts(&self, t: usize, z: &Matrix) -> bool {
        self.expected[t].iter().any(|e| bit_equal(e, z))
    }
}

/// Shape and every bit equal.
pub fn bit_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Which serving stack a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One engine-backed `Server`.
    Direct,
    /// A front `Server` over a `Router` over two loopback shard `Server`s.
    Routed,
}

/// A running serving stack; [`Stack::down`] stops and joins every server.
pub struct Stack {
    /// Address clients send to.
    pub front: SocketAddr,
    /// Shard addresses (routed only).
    pub shards: Vec<SocketAddr>,
    /// The router behind the front (routed only).
    pub router: Option<Arc<Router>>,
    servers: Vec<(ShutdownHandle, std::thread::JoinHandle<serve::Result<()>>)>,
}

fn spawn(
    server: Server,
) -> Res<(
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<serve::Result<()>>,
)> {
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Ok((addr, handle, thread))
}

fn open_store(dir: &Path) -> Res<Arc<ModelStore>> {
    ModelStore::open(EstimatorRegistry::with_builtin(), dir)
        .map(Arc::new)
        .map_err(|e| format!("indexing {}: {e}", dir.display()))
}

impl Stack {
    /// Bring a stack up over the models in `dir` with the default batching.
    pub fn up(dir: &Path, topology: Topology) -> Res<Self> {
        let mut servers = Vec::new();
        let mut shards = Vec::new();
        let mut router = None;
        let front = match topology {
            Topology::Direct => {
                let server = Server::bind("127.0.0.1:0", open_store(dir)?, BatchConfig::default())
                    .map_err(|e| e.to_string())?;
                let (addr, h, t) = spawn(server)?;
                servers.push((h, t));
                addr
            }
            Topology::Routed => {
                let mut builder = RouterBuilder::new(RouterConfig::default());
                for _ in 0..2 {
                    let server =
                        Server::bind("127.0.0.1:0", open_store(dir)?, BatchConfig::default())
                            .map_err(|e| e.to_string())?;
                    let (addr, h, t) = spawn(server)?;
                    servers.push((h, t));
                    shards.push(addr);
                    builder = builder.remote_shard(addr.to_string());
                }
                let r = Arc::new(builder.build());
                let server = Server::bind_service(
                    "127.0.0.1:0",
                    Arc::clone(&r) as Arc<dyn TransformService>,
                )
                .map_err(|e| e.to_string())?;
                router = Some(r);
                let (addr, h, t) = spawn(server)?;
                // The front stops first, so it goes to the head of the list.
                servers.insert(0, (h, t));
                addr
            }
        };
        Ok(Self {
            front,
            shards,
            router,
            servers,
        })
    }

    /// Stop every server (front first) and join its thread.
    pub fn down(self) -> Res<()> {
        let mut first_err = None;
        for (handle, thread) in self.servers {
            handle.shutdown();
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(format!("server exited with {e}"));
                }
                Err(_) => {
                    first_err.get_or_insert("server thread panicked".to_string());
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Ask every served name for one reply and check it: the stack's first
/// answers (lazy model loads included).
pub fn warm(addr: SocketAddr, catalog: &Catalog, templates: &Templates) -> Res<()> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for model in 0..catalog.models.len() {
        let t = catalog.mix.template(model, Op::View(0), 0);
        let Request::TransformView { model, input, .. } = &templates.requests[t] else {
            unreachable!("view template");
        };
        let z = client
            .transform_view(model, 0, input)
            .map_err(|e| format!("warm-up of {model}: {e}"))?;
        if !templates.accepts(t, &z) {
            return Err(format!(
                "warm-up reply of {model} differs from the in-process transform"
            ));
        }
    }
    Ok(())
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// Reply matched an expected output bit for bit.
    Ok,
    /// Reply was an embedding that matched no expected output.
    Mismatch,
    /// In-band overload verdict.
    Shed,
    /// In-band deadline verdict.
    Deadline,
    /// In-band error.
    Error,
    /// No reply before the drain deadline.
    Missing,
}

/// What one open-loop step measured.
pub struct StepResult {
    /// Requests sent.
    pub sent: usize,
    /// Per request: latency from its due instant in ms (`∞` if it failed).
    pub latency_ms: Vec<f64>,
    /// Per request: how late the sender wrote it, ms.
    pub late_ms: Vec<f64>,
    /// Per request outcome.
    pub status: Vec<Status>,
    /// Share of the host's CPU time the hypervisor stole during the step.
    pub steal_share: f64,
}

impl StepResult {
    /// Whether the step measured the host rather than the server: the
    /// generator's lateness p99 exceeded 1 ms or more than 2% of CPU time
    /// was stolen. Such a step is re-run, not reported as slow.
    pub fn disturbed(&self) -> bool {
        self.late_p99() > crate::LATE_LIMIT_MS || self.steal_share > crate::STEAL_LIMIT
    }

    /// Requests that did not end [`Status::Ok`].
    pub fn failed(&self) -> usize {
        self.status.iter().filter(|s| **s != Status::Ok).count()
    }

    /// Replies whose bits disagreed with every expected output.
    pub fn mismatched(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s == Status::Mismatch)
            .count()
    }

    /// Latency quantile over all requests sent, failures counting as ∞.
    pub fn latency(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q).unwrap_or(f64::INFINITY)
    }

    /// The generator's lateness p99, ms.
    pub fn late_p99(&self) -> f64 {
        quantile(&self.late_ms, 0.99).unwrap_or(0.0)
    }

    /// Whether latency grew over the step: the last quarter's median exceeds
    /// twice the first quarter's plus 5 ms.
    pub fn backlog_grew(&self) -> bool {
        let q = self.latency_ms.len() / 4;
        if q < 10 {
            return false;
        }
        let first = median(&self.latency_ms[..q]).unwrap_or(0.0);
        let last = median(&self.latency_ms[self.latency_ms.len() - q..]).unwrap_or(0.0);
        last > 2.0 * first + 5.0
    }

    /// Counts per outcome, for diagnostics.
    pub fn outcomes(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for s in &self.status {
            *m.entry(format!("{s:?}")).or_insert(0) += 1;
        }
        m
    }
}

/// Sleep until `due`: a coarse sleep to ~200 µs before it, then yield.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Give the calling thread nice −10, so the generator's threads wake on
/// schedule even when the server under test keeps both cores busy — as a
/// client on its own machine would. Returns whether the kernel allowed it
/// (it needs `CAP_SYS_NICE`); without it the lateness check still guards.
pub fn prioritize_current_thread() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        // SAFETY: `setpriority` takes integers only and reads no memory of
        // ours; `PRIO_PROCESS` (0) with `who` 0 targets the calling thread.
        unsafe { setpriority(0, 0, -10) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Drive `arrivals` open loop against `addr` and check every reply. With a
/// recording tracer, each request gets a `client.request` span (due → reply)
/// with a `client.send` child, sharing the request id.
pub fn open_loop(
    addr: SocketAddr,
    arrivals: &[Arrival],
    templates: &Templates,
    tracer: &Tracer,
) -> Res<StepResult> {
    let n = arrivals.len();
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let received = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let traced = tracer.enabled();
    let ticks = crate::host::cpu_ticks();

    let (replies, late_ms, sends) = std::thread::scope(|s| -> Res<_> {
        let receiver = s.spawn(|| {
            prioritize_current_thread();
            let mut replies: Vec<Option<(Instant, Status)>> = vec![None; n];
            let mut reader = BufReader::with_capacity(1 << 18, read_half);
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                let at = Instant::now();
                let Ok(Response::Tagged { id, inner }) = Response::decode(&payload) else {
                    break;
                };
                let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < n) else {
                    break;
                };
                let status = match *inner {
                    Response::Embedding(z) if templates.accepts(arrivals[i].template, &z) => {
                        Status::Ok
                    }
                    Response::Embedding(_) => Status::Mismatch,
                    Response::Overloaded(_) => Status::Shed,
                    Response::DeadlineExceeded(_) => Status::Deadline,
                    _ => Status::Error,
                };
                if replies[i].is_none() {
                    replies[i] = Some((at, status));
                    received.fetch_add(1, Ordering::Release);
                }
            }
            replies
        });

        let sender = s.spawn(|| {
            prioritize_current_thread();
            let mut late_ms = vec![0.0; n];
            let mut sends: Vec<(Instant, Instant)> = Vec::with_capacity(if traced { n } else { 0 });
            let mut sent = n;
            let mut writer = &stream;
            let mut frame = Vec::new();
            for (i, a) in arrivals.iter().enumerate() {
                let due = t0 + a.at;
                wait_until(due);
                let start = Instant::now();
                late_ms[i] = (start - due).as_secs_f64() * 1e3;
                let payload = templates.payload_with(a.template, i as u64 + 1);
                frame.clear();
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(&payload);
                if writer.write_all(&frame).is_err() {
                    sent = i;
                    break;
                }
                if traced {
                    sends.push((start, Instant::now()));
                }
            }
            (sent, late_ms, sends)
        });
        let (sent, late_ms, sends) = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?;
        // Half-close: the server answers everything owed, then closes.
        let _ = stream.shutdown(Shutdown::Write);
        let deadline = Instant::now() + DRAIN;
        while received.load(Ordering::Acquire) < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = stream.shutdown(Shutdown::Both);
        let replies = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())?;
        Ok((replies, late_ms, sends))
    })?;

    let mut latency_ms = Vec::with_capacity(n);
    let mut status = Vec::with_capacity(n);
    let mut spans = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        let due = t0 + a.at;
        match replies[i] {
            Some((at, st)) => {
                status.push(st);
                latency_ms.push(if st == Status::Ok {
                    (at - due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                });
                if tracer.enabled() && i < sends.len() {
                    let root = tracer.next_id();
                    let request = Some(i as u64 + 1);
                    spans.push(Span {
                        id: root,
                        parent: None,
                        name: "client.request",
                        start_ns: tracer.ns(due),
                        end_ns: tracer.ns(at),
                        request,
                    });
                    spans.push(Span {
                        id: tracer.next_id(),
                        parent: Some(root),
                        name: "client.send",
                        start_ns: tracer.ns(sends[i].0),
                        end_ns: tracer.ns(sends[i].1),
                        request,
                    });
                }
            }
            None => {
                status.push(Status::Missing);
                latency_ms.push(f64::INFINITY);
            }
        }
    }
    tracer.extend(spans);
    Ok(StepResult {
        steal_share: crate::host::steal_share(ticks, crate::host::cpu_ticks()),
        sent: n,
        latency_ms,
        late_ms,
        status,
    })
}

/// Flips one model's file between its generations once a second and sends a
/// `Rescan` through the front after each flip, until stopped.
pub struct Flipper {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Res<usize>>>,
}

impl Flipper {
    /// Start flipping `catalog.flip` (no-op without one).
    pub fn start(catalog: &Catalog, front: SocketAddr) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let Some(which) = catalog.flip else {
            return Self { stop, thread: None };
        };
        let dir = catalog.dir.clone();
        let name = catalog.models[which].name.clone();
        let gens: Vec<Vec<u8>> = catalog.models[which]
            .gens
            .iter()
            .map(|g| g.0.clone())
            .collect();
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || -> Res<usize> {
            let mut client = Client::connect(front).map_err(|e| e.to_string())?;
            let mut flips = 0usize;
            let mut next = Instant::now() + Duration::from_secs(1);
            while !flag.load(Ordering::Acquire) {
                if Instant::now() < next {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                next += Duration::from_secs(1);
                flips += 1;
                write_atomic(&dir, &name, &gens[flips % gens.len()])?;
                client.rescan().map_err(|e| format!("rescan: {e}"))?;
            }
            Ok(flips)
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop and join; returns the number of flips made.
    pub fn stop(mut self) -> Res<usize> {
        self.stop.store(true, Ordering::Release);
        match self.thread.take() {
            None => Ok(0),
            Some(t) => t.join().map_err(|_| "flipper panicked".to_string())?,
        }
    }
}

/// The offered-rate ladder: highest rate whose step keeps p99 ≤ `limit_ms`,
/// fails ≤ 0.1% and shows no growing backlog. From `start` it probes a fixed
/// geometric grid (`start · factor^k`) upward until two probes in a row miss
/// the limit, or downward until one meets it; every run of a workload
/// therefore probes the same rates. The reported rate comes from
/// [`Ladder::estimate`] over every probe, including the workload's fixed
/// rate steps.
pub struct Ladder {
    /// Latency limit on p99, ms.
    pub limit_ms: f64,
    /// Requests each probe aims at.
    pub requests: f64,
    /// Longest probe, s (at least 0.3 s).
    pub probe_s: f64,
    /// Lowest rate tried.
    pub floor: f64,
    /// Highest rate tried.
    pub ceiling: f64,
    /// Step between probe rates.
    pub factor: f64,
    /// Disturbed probes are re-run only before this instant.
    pub rerun_until: Instant,
}

/// One ladder probe.
pub struct Probe {
    /// Offered rate.
    pub rate: f64,
    /// Whether it met the limits.
    pub pass: bool,
    /// Its step.
    pub step: StepResult,
}

impl Ladder {
    /// Whether a step meets the ladder's limits. A late generator is not
    /// excused: latency counts from the due instant, so lateness can only
    /// make a step fail, never pass.
    pub fn passes(&self, step: &StepResult) -> bool {
        step.latency(0.99) <= self.limit_ms && Self::sound(step)
    }

    /// No errors beyond 0.1% and no growing backlog.
    fn sound(step: &StepResult) -> bool {
        step.failed() as f64 <= 0.001 * step.sent as f64 && !step.backlog_grew()
    }

    /// Search for the maximum rate; `run(rate, duration)` runs one step.
    /// `known` are steps already run (they join the estimate; those at
    /// `start` decide the direction). The grid is walked `passes` times,
    /// and each rate's p99 is the median over the passes that reached it.
    /// Then the geometric midpoint of the grid rates on either side of the
    /// limit is probed `passes` times as well. A disturbed probe is re-run
    /// once, before `rerun_until`.
    pub fn search(
        &self,
        known: Vec<Probe>,
        start: f64,
        passes: usize,
        mut run: impl FnMut(f64, Duration) -> Res<StepResult>,
    ) -> Res<(f64, Vec<Probe>)> {
        let mut probes = known;
        for _ in 0..passes {
            self.walk(&mut probes, start, &mut run)?;
        }
        let points = self.points(&probes);
        let below = points.iter().rposition(|p| p.1 <= self.limit_ms);
        if let Some(i) = below.filter(|&i| i + 1 < points.len()) {
            let mid = (points[i].0 * points[i + 1].0).sqrt();
            for _ in 0..passes {
                self.probe(mid, &mut probes, &mut run)?;
            }
        }
        Ok((self.estimate(&probes), probes))
    }

    /// Run one probe at `rate` and record it; returns whether it passed.
    fn probe(
        &self,
        rate: f64,
        probes: &mut Vec<Probe>,
        run: &mut impl FnMut(f64, Duration) -> Res<StepResult>,
    ) -> Res<bool> {
        let dur = Duration::from_secs_f64((self.requests / rate).clamp(0.3, self.probe_s.max(0.3)));
        let mut step = run(rate, dur)?;
        if step.disturbed() && Instant::now() < self.rerun_until {
            step = run(rate, dur)?;
        }
        let pass = self.passes(&step);
        probes.push(Probe { rate, pass, step });
        std::thread::sleep(Duration::from_millis(50));
        Ok(pass)
    }

    /// One walk of the grid from `start`.
    fn walk(
        &self,
        probes: &mut Vec<Probe>,
        start: f64,
        run: &mut impl FnMut(f64, Duration) -> Res<StepResult>,
    ) -> Res<()> {
        let start_pass = match self.points(probes).iter().find(|p| p.0 == start) {
            Some(p) => p.1 <= self.limit_ms,
            None => self.probe(start, probes, run)?,
        };
        let mut rate = start;
        if start_pass {
            let mut misses = 0;
            while misses < 2 && rate * self.factor <= self.ceiling {
                rate *= self.factor;
                misses = if self.probe(rate, probes, run)? {
                    0
                } else {
                    misses + 1
                };
            }
        } else {
            while rate / self.factor >= self.floor {
                rate /= self.factor;
                if self.probe(rate, probes, run)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// One `(rate, p99, weight)` point per probed rate, ascending: the median
    /// p99 of the probes at that rate, weighted by every request they sent.
    /// Probes that failed on errors or backlog count as infinitely slow.
    fn points(&self, probes: &[Probe]) -> Vec<(f64, f64, f64)> {
        let mut by_rate: BTreeMap<u64, (f64, Vec<f64>, f64)> = BTreeMap::new();
        for p in probes {
            let p99 = if Self::sound(&p.step) {
                p.step.latency(0.99).min(BIG_MS)
            } else {
                BIG_MS
            };
            let e = by_rate
                .entry(p.rate.to_bits())
                .or_insert((p.rate, Vec::new(), 0.0));
            e.1.push(p99);
            e.2 += p.step.sent.max(1) as f64;
        }
        let mut points: Vec<(f64, f64, f64)> = by_rate
            .into_values()
            .map(|(rate, p99s, w)| (rate, median(&p99s).unwrap_or(BIG_MS), w))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    }

    /// The rate at which p99 crosses the limit. A monotone (isotonic,
    /// sample-weighted) fit of p99 against offered rate finds the crossing;
    /// where p99 climbs slowly through the limit, a sample-weighted line of
    /// p99 against `log(rate)` through every rate between half and twice the
    /// limit places it, so no single noisy tail sets the figure.
    pub fn estimate(&self, probes: &[Probe]) -> f64 {
        let points = self.points(probes);
        let rates: Vec<f64> = points.iter().map(|p| p.0).collect();
        let fitted = isotonic(&points.iter().map(|p| (p.1, p.2)).collect::<Vec<_>>());
        let near: Vec<(f64, f64, f64)> = points
            .iter()
            .filter(|p| p.1 >= 0.5 * self.limit_ms && p.1 <= 2.0 * self.limit_ms)
            .copied()
            .collect();
        let interpolated = crossing(&rates, &fitted, self.limit_ms);
        match log_line_crossing(&near, self.limit_ms) {
            // The line may not leave the span of the probes it was fitted to.
            Some(r) if interpolated > 0.0 => {
                let lo = near.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
                let hi = near.iter().map(|p| p.0).fold(0.0, f64::max);
                r.clamp(lo, hi)
            }
            _ => interpolated,
        }
    }
}

/// Where a sample-weighted least-squares line of p99 against `log(rate)`
/// through `(rate, p99, weight)` points reaches `limit`; `None` with fewer
/// than two distinct rates or a line that does not rise.
pub fn log_line_crossing(points: &[(f64, f64, f64)], limit: f64) -> Option<f64> {
    let w: f64 = points.iter().map(|p| p.2).sum();
    if points.len() < 2 || w <= 0.0 {
        return None;
    }
    let mx = points.iter().map(|p| p.2 * p.0.ln()).sum::<f64>() / w;
    let my = points.iter().map(|p| p.2 * p.1).sum::<f64>() / w;
    let sxx: f64 = points.iter().map(|p| p.2 * (p.0.ln() - mx).powi(2)).sum();
    let sxy: f64 = points
        .iter()
        .map(|p| p.2 * (p.0.ln() - mx) * (p.1 - my))
        .sum();
    if sxx <= 0.0 || sxy <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    Some((mx + (limit - my) / slope).exp())
}

/// Stand-in for an infinite p99 in the isotonic fit.
const BIG_MS: f64 = 1e6;

/// Weighted pool-adjacent-violators: the non-decreasing sequence closest to
/// `values` (pairs of value and weight) in weighted least squares.
pub fn isotonic(values: &[(f64, f64)]) -> Vec<f64> {
    // Blocks of (weighted sum, weight, length).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new();
    for &(v, w) in values {
        blocks.push((v * w, w, 1));
        while blocks.len() > 1 {
            let (s2, w2, n2) = blocks[blocks.len() - 1];
            let (s1, w1, n1) = blocks[blocks.len() - 2];
            if s1 / w1 <= s2 / w2 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks") = (s1 + s2, w1 + w2, n1 + n2);
        }
    }
    blocks
        .iter()
        .flat_map(|&(s, w, n)| std::iter::repeat_n(s / w, n))
        .collect()
}

/// Largest rate at which the non-decreasing `fitted` p99 is within `limit`,
/// interpolated in `log(rate)` toward the next point; 0 when none is.
pub fn crossing(rates: &[f64], fitted: &[f64], limit: f64) -> f64 {
    let Some(i) = fitted.iter().rposition(|&p| p <= limit) else {
        return 0.0;
    };
    let Some(j) = (i + 1..rates.len()).find(|&j| fitted[j] > fitted[i] && rates[j] > rates[i])
    else {
        return rates[i];
    };
    if fitted[j] >= BIG_MS {
        return rates[i];
    }
    let frac = ((limit - fitted[i]) / (fitted[j] - fitted[i])).clamp(0.0, 1.0);
    rates[i] * (rates[j] / rates[i]).powf(frac)
}

/// Per-request inputs for the in-process engine, shared like the server's
/// decoded frames are.
enum EngineInput {
    View(String, usize, Arc<Matrix>),
    Full(String, Arc<Vec<Matrix>>),
}

/// What the in-process engine run measured.
pub struct EngineRun {
    /// Latency from due instant to callback, µs, per request (∞ on failure).
    pub latency_us: Vec<f64>,
    /// The engine's counters after the run.
    pub stats: EngineStats,
    /// Replies that failed or mismatched.
    pub failed: usize,
}

/// Drive the same arrival stream into an in-process `BatchEngine` over a
/// fresh store of `dir` (no sockets), timing each request from its due
/// instant to its callback.
pub fn engine_run(
    dir: &Path,
    catalog: &Catalog,
    templates: &Templates,
    arrivals: &[Arrival],
) -> Res<EngineRun> {
    let store = open_store(dir)?;
    for m in &catalog.models {
        store.get(&m.name).map_err(|e| e.to_string())?;
    }
    let engine = BatchEngine::start(Arc::clone(&store), BatchConfig::default());
    let inputs: Vec<EngineInput> = templates
        .requests
        .iter()
        .map(|r| match r {
            Request::TransformView {
                model, view, input, ..
            } => EngineInput::View(model.clone(), *view as usize, Arc::new(input.clone())),
            Request::Transform { model, inputs } => {
                EngineInput::Full(model.clone(), Arc::new(inputs.clone()))
            }
            _ => unreachable!("templates are transforms"),
        })
        .collect();
    let n = arrivals.len();
    let done: Arc<Mutex<Vec<(usize, Instant, bool)>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let t0 = Instant::now() + Duration::from_millis(5);
    for (i, a) in arrivals.iter().enumerate() {
        wait_until(t0 + a.at);
        let sink = Arc::clone(&done);
        let expected = templates.expected[a.template].clone();
        let reply: serve::ReplyCallback = Box::new(move |r| {
            let at = Instant::now();
            let ok = r.is_ok_and(|z| expected.iter().any(|e| bit_equal(e, &z)));
            sink.lock().expect("engine sink lock").push((i, at, ok));
        });
        match &inputs[a.template] {
            EngineInput::View(model, v, m) => {
                engine.submit_transform_view(model, *v, Arc::clone(m), Precision::F64, None, reply)
            }
            EngineInput::Full(model, views) => {
                engine.submit_transform(model, Arc::clone(views), None, reply)
            }
        }
    }
    let deadline = Instant::now() + DRAIN;
    while done.lock().expect("engine sink lock").len() < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = engine.stats();
    engine.stop();
    drop(engine);
    let mut latency_us = vec![f64::INFINITY; n];
    let mut failed = n;
    for &(i, at, ok) in done.lock().expect("engine sink lock").iter() {
        if ok {
            latency_us[i] = (at - (t0 + arrivals[i].at)).as_secs_f64() * 1e6;
            failed -= 1;
        }
    }
    Ok(EngineRun {
        latency_us,
        stats,
        failed,
    })
}

/// Direct model compute per request: `ModelStore::get` plus the model's
/// `transform_view` / `transform`, timed one request at a time (µs). Returns
/// the times and the number of outputs that mismatched.
pub fn compute_probe(
    dir: &Path,
    catalog: &Catalog,
    templates: &Templates,
    arrivals: &[Arrival],
    tracer: &Tracer,
) -> Res<(Vec<f64>, usize)> {
    let store = open_store(dir)?;
    for m in &catalog.models {
        store.get(&m.name).map_err(|e| e.to_string())?;
    }
    let mut times = Vec::new();
    let mut bad = 0;
    for a in arrivals.iter().take(512) {
        let start = Instant::now();
        let (z, _) = tracer.span("batch.compute", None, |_| {
            let r = &templates.requests[a.template];
            match r {
                Request::TransformView {
                    model, view, input, ..
                } => store
                    .get(model)
                    .and_then(|m| m.transform_view(*view as usize, input).map_err(Into::into)),
                Request::Transform { model, inputs } => store
                    .get(model)
                    .and_then(|m| m.transform(inputs).map_err(Into::into)),
                _ => unreachable!("templates are transforms"),
            }
        });
        times.push(start.elapsed().as_secs_f64() * 1e6);
        match z {
            Ok(z) if templates.accepts(a.template, &z) => {}
            _ => bad += 1,
        }
    }
    Ok((times, bad))
}

/// Wire cost per request: encode and decode of the tagged request and of its
/// reply (µs each way), and the framed bytes both directions.
pub struct WireCost {
    /// Request encode + reply encode, µs per request.
    pub encode_us: Vec<f64>,
    /// Request decode + reply decode, µs per request.
    pub decode_us: Vec<f64>,
    /// Framed request + reply bytes per request.
    pub bytes: Vec<f64>,
}

/// Measure [`WireCost`] over the first requests of a stream.
pub fn wire_probe(templates: &Templates, arrivals: &[Arrival], tracer: &Tracer) -> Res<WireCost> {
    let mut cost = WireCost {
        encode_us: Vec::new(),
        decode_us: Vec::new(),
        bytes: Vec::new(),
    };
    for (i, a) in arrivals.iter().take(512).enumerate() {
        let id = i as u64 + 1;
        let request = templates.requests[a.template].clone().tagged(id);
        let reply = Response::Embedding(templates.expected[a.template][0].clone()).tagged(id);
        let t = Instant::now();
        let (enc, _) = tracer.span("wire.encode", None, |_| (request.encode(), reply.encode()));
        let e = t.elapsed();
        let t = Instant::now();
        let (dec, _) = tracer.span("wire.decode", None, |_| {
            (Request::decode(&enc.0), Response::decode(&enc.1))
        });
        let d = t.elapsed();
        if dec.0.as_ref().ok() != Some(&request) || dec.1.as_ref().ok() != Some(&reply) {
            return Err("wire round trip changed a request or reply".into());
        }
        cost.encode_us.push(e.as_secs_f64() * 1e6);
        cost.decode_us.push(d.as_secs_f64() * 1e6);
        cost.bytes.push((enc.0.len() + enc.1.len() + 8) as f64);
    }
    Ok(cost)
}

/// Closed-loop round trips of the stream's view requests against `addr`, µs.
pub fn round_trips(
    addr: SocketAddr,
    templates: &Templates,
    arrivals: &[Arrival],
    count: usize,
) -> Res<Vec<f64>> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(count);
    for a in arrivals.iter().take(count) {
        let start = Instant::now();
        let z = match &templates.requests[a.template] {
            Request::TransformView {
                model, view, input, ..
            } => client.transform_view(model, *view as usize, input),
            Request::Transform { model, inputs } => client.transform(model, inputs),
            _ => unreachable!("templates are transforms"),
        }
        .map_err(|e| e.to_string())?;
        out.push(start.elapsed().as_secs_f64() * 1e6);
        if !templates.accepts(a.template, &z) {
            return Err("round-trip reply differs from the in-process transform".into());
        }
    }
    Ok(out)
}

/// `ModelStore::rescan` after a model file changed, then the lazy reload on
/// the next `get`, in a private copy of the first model (ms each).
pub fn store_probe(
    work: &Path,
    catalog: &Catalog,
    reps: usize,
    tracer: &Tracer,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let dir = work.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let gens = &catalog.models[0].gens;
    write_atomic(&dir, "probe", &gens[0].0)?;
    let store = open_store(&dir)?;
    store.get("probe").map_err(|e| e.to_string())?;
    let path = dir.join(format!("probe.{}", serve::MODEL_EXTENSION));
    let (mut rescans, mut reloads) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        write_atomic(&dir, "probe", &gens[(rep + 1) % gens.len()].0)?;
        // Same bytes on single-generation catalogs: move the mtime on so the
        // rescan sees a changed file.
        let stamp = std::time::SystemTime::now() + Duration::from_secs(rep as u64 + 1);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(stamp))
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (report, _) = tracer.span("store.rescan", None, |_| store.rescan());
        rescans.push(t.elapsed().as_secs_f64() * 1e3);
        if report.map_err(|e| e.to_string())?.reloaded != 1 {
            return Err("rescan did not see the rewritten model".into());
        }
        let t = Instant::now();
        let (model, _) = tracer.span("store.reload", None, |_| store.get("probe"));
        reloads.push(t.elapsed().as_secs_f64() * 1e3);
        model.map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((rescans, reloads))
}

/// Counters from a `Stats` request.
pub fn counters(addr: SocketAddr) -> Res<BTreeMap<String, u64>> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    Ok(client
        .stats()
        .map_err(|e| e.to_string())?
        .into_iter()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotonic_pools_violators_by_weight() {
        let fit = isotonic(&[(1.0, 1.0), (3.0, 1.0), (2.0, 1.0), (4.0, 2.0)]);
        assert_eq!(fit, vec![1.0, 2.5, 2.5, 4.0]);
        let fit = isotonic(&[(5.0, 3.0), (1.0, 1.0)]);
        assert_eq!(fit, vec![4.0, 4.0]);
    }

    #[test]
    fn crossing_interpolates_in_log_rate() {
        let rates = [100.0, 200.0, 400.0];
        // Limit 20 lies halfway between 10 at 200 and 30 at 400.
        let r = crossing(&rates, &[5.0, 10.0, 30.0], 20.0);
        assert!((r - 200.0 * 2f64.sqrt()).abs() < 1e-9, "{r}");
        assert_eq!(crossing(&rates, &[25.0, 30.0, 40.0], 20.0), 0.0);
        assert_eq!(crossing(&rates, &[5.0, 6.0, 7.0], 20.0), 400.0);
        assert_eq!(crossing(&rates, &[5.0, 6.0, BIG_MS], 20.0), 200.0);
    }

    #[test]
    fn ladder_walks_a_fixed_grid_and_probes_the_midpoint() {
        // p99 = 10 + 20·log2(rate / 350) ms: the limit 20 is met at 350·√2.
        let p99 = |rate: f64| 10.0 + 20.0 * (rate / 350.0).log2();
        let ladder = Ladder {
            limit_ms: 20.0,
            requests: 100.0,
            probe_s: 1.0,
            floor: 50.0,
            ceiling: 5600.0,
            factor: 1.25,
            rerun_until: Instant::now(),
        };
        for passes in [1, 2] {
            let mut rates = Vec::new();
            let (max_rate, probes) = ladder
                .search(Vec::new(), 350.0, passes, |rate, _| {
                    rates.push(rate);
                    Ok(StepResult {
                        sent: 100,
                        latency_ms: vec![p99(rate); 100],
                        late_ms: vec![0.0; 100],
                        status: vec![Status::Ok; 100],
                        steal_share: 0.0,
                    })
                })
                .unwrap();
            // Up the grid until two probes in a row miss, per pass; then the
            // midpoint of 437.5 (pass) and 546.875 (miss), once per pass.
            // Later passes find the start rate already probed.
            let walk = [350.0, 437.5, 546.875, 683.59375];
            let mut want = walk.to_vec();
            for _ in 1..passes {
                want.extend(&walk[1..]);
            }
            want.extend(std::iter::repeat_n((437.5f64 * 546.875).sqrt(), passes));
            assert_eq!(rates, want, "passes {passes}");
            assert_eq!(probes.len(), want.len());
            let exact = 350.0 * 2f64.sqrt();
            assert!((max_rate - exact).abs() < 1e-6, "{max_rate} vs {exact}");
        }
    }

    #[test]
    fn log_line_crossing_fits_every_point() {
        // p99 = 10 + 10·log2(rate / 100): the limit 20 is reached at 200.
        let pts: Vec<(f64, f64, f64)> = [100.0, 150.0, 300.0, 400.0]
            .iter()
            .map(|&r| (r, 10.0 + 10.0 * (r / 100.0f64).log2(), 1.0))
            .collect();
        let r = log_line_crossing(&pts, 20.0).unwrap();
        assert!((r - 200.0).abs() < 1e-9, "{r}");
        assert_eq!(log_line_crossing(&pts[..1], 20.0), None);
        let flat = [(100.0, 30.0, 1.0), (200.0, 10.0, 1.0)];
        assert_eq!(log_line_crossing(&flat, 20.0), None);
    }
}
