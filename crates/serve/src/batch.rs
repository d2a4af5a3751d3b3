//! [`BatchEngine`]: micro-batching transform execution on a bounded thread pool.
//!
//! Transform requests are tiny (often a handful of instances) while the dense kernels
//! amortize best over many columns. The engine therefore **coalesces** concurrent
//! requests for the same model into one batched call:
//!
//! 1. a dispatcher thread pops the oldest pending request, opening a batch for that
//!    request's `(model, op)` key — full transforms and per-view projections batch
//!    separately,
//! 2. it keeps absorbing queued requests for the *same* key until the batch holds
//!    [`BatchConfig::max_batch`] instances or [`BatchConfig::max_wait`] has elapsed
//!    since the batch opened,
//! 3. the batch is joined along the instance axis and executed as **one** model
//!    call on the engine's [`parallel::Pool`] ([`Pool::shared`] by default, a
//!    dedicated pool per router shard), so concurrent fits and transforms share
//!    bounded pools instead of oversubscribing the machine. A coalesced
//!    `transform_view` batch of feature views is the **zero-copy** path: the
//!    request matrices are wrapped in a borrowed [`linalg::ColsView`] and the
//!    model's blocked GEMM packs its panels straight from them — no stitched
//!    copy is ever materialized ([`EngineStats::zero_copy_batches`] counts these,
//!    and [`linalg::matrix_clones`] / [`linalg::input_stitches`] let tests assert
//!    the absence of copies). Full `transform` batches and kernel-block batches
//!    still stitch (`hstack` of per-view matrices / `vstack` of kernel rows),
//! 4. the embedding rows are split back per request.
//!
//! Singleton batches — the window closed with one request — bypass the
//! coalescing machinery entirely: the model is called directly on the borrowed
//! request input, with no stitch and no copy regardless of the op or input kind.
//!
//! Submission is **callback-based** ([`BatchEngine::submit_transform`] and
//! friends) and inputs arrive `Arc`-shared: the router's retryable submissions
//! and the engine's queue all hold the same buffers the server decoded off the
//! wire, so the happy path never deep-copies a request matrix. Blocking wrappers
//! ([`BatchEngine::transform`], …) remain for direct callers.
//!
//! A `transform_view` batch has one compute path: the model's `f64` projection,
//! fed by the blocked GEMM engine and returned to the wire unchanged. The
//! request's `Precision` byte has the single value `F64` and takes no part in
//! batching.
//!
//! If a batched call fails (e.g. a transductive DSE model that only accepts its
//! exact training batch, or one malformed request in the batch), the engine falls
//! back to executing the batch's requests individually so a bad request cannot
//! poison its neighbours. A model call that **panics** is caught where it runs
//! and answered in band with [`ServeError::ModelPanicked`], naming the model, so
//! every request still gets exactly one reply and a router neither fails over nor
//! marks the shard dead. Requests for *different* models never wait on each other
//! beyond queue order: each batch is dispatched to the pool asynchronously and the
//! dispatcher immediately opens the next one.

use crate::wire::{CandidateKind, NamedOutput, Precision};
use crate::{ModelStore, Result, ServeError};
use linalg::{ColsView, Matrix};
use mvcore::{InputKind, MultiViewModel, Output};
use parallel::Pool;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Completion callback for an asynchronously submitted transform. Invoked exactly
/// once, from a pool worker (or from the dispatcher/submitter on fast-fail paths).
pub type ReplyCallback = Box<dyn FnOnce(Result<Matrix>) + Send + 'static>;

/// Completion callback for an `outputs` request: the model's named candidates.
pub type OutputsCallback = Box<dyn FnOnce(Result<Vec<NamedOutput>>) + Send + 'static>;

/// Micro-batching and admission-control knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum instances coalesced into one `transform` call.
    pub max_batch: usize,
    /// Maximum time a batch stays open waiting for more same-model requests.
    pub max_wait: Duration,
    /// Total queued requests the engine admits before shedding with
    /// [`ServeError::Overloaded`] (0 = unbounded). A full queue means the
    /// execution pool is behind; admitting more work only grows latency for
    /// answers nobody is still waiting on.
    pub max_queue: usize,
    /// Queued requests one model may hold before its *additional* requests are
    /// shed (0 = unbounded). Bounds how far a single hot tenant can starve the
    /// rest of the queue.
    pub max_per_model: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            max_wait: Duration::from_millis(2),
            max_queue: 4096,
            max_per_model: 1024,
        }
    }
}

/// Counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transform requests accepted.
    pub requests: usize,
    /// Batched `transform` executions (≤ `requests` when coalescing happens).
    pub batches: usize,
    /// Requests that were coalesced into a batch with at least one other request.
    pub coalesced_requests: usize,
    /// Batches that failed as a whole and were retried request by request.
    pub fallbacks: usize,
    /// Batches of exactly one request, executed directly on the borrowed input
    /// with no stitching or copying of any kind.
    pub singleton_batches: usize,
    /// Coalesced `transform_view` batches that completed through the zero-copy
    /// [`linalg::ColsView`] path without materializing any stitched input —
    /// verified against the stitch counter, so a model that falls back to the
    /// stitching default impl is never miscounted as zero-copy.
    pub zero_copy_batches: usize,
    /// Requests shed at admission because the whole queue was full.
    pub shed_queue_full: usize,
    /// Requests shed at admission because their model hit its per-model cap.
    pub shed_model_limit: usize,
    /// Requests dropped (in-band, with [`ServeError::DeadlineExceeded`]) because
    /// their deadline passed before execution.
    pub deadline_dropped: usize,
}

impl EngineStats {
    /// The counters as name/value pairs, the shape the wire-level `Stats` op
    /// reports (and a router sums across shards).
    pub fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("requests".into(), self.requests as u64),
            ("batches".into(), self.batches as u64),
            ("coalesced_requests".into(), self.coalesced_requests as u64),
            ("fallbacks".into(), self.fallbacks as u64),
            ("singleton_batches".into(), self.singleton_batches as u64),
            ("zero_copy_batches".into(), self.zero_copy_batches as u64),
            ("shed_queue_full".into(), self.shed_queue_full as u64),
            ("shed_model_limit".into(), self.shed_model_limit as u64),
            ("deadline_dropped".into(), self.deadline_dropped as u64),
        ]
    }
}

/// What a pending request asks the model to do — part of the batching key, so
/// full transforms and per-view projections never coalesce with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchOp {
    /// `model.transform(all views)`.
    Transform,
    /// `model.transform_view(v, view)` — single-view requests carry exactly one
    /// matrix, so batching them stitches **one** view instead of all `m`.
    View(usize),
}

/// A request's input matrices, `Arc`-shared with the submitter (the server's
/// decoded frames, or the router's retry state) so queueing never copies them.
enum PendingInputs {
    /// All views of a full `transform` request.
    Full(Arc<Vec<Matrix>>),
    /// The single matrix of a `transform_view` request.
    View(Arc<Matrix>),
}

impl PendingInputs {
    /// The matrix whose shape defines the request's instance count.
    fn first(&self) -> Option<&Matrix> {
        match self {
            PendingInputs::Full(views) => views.first(),
            PendingInputs::View(m) => Some(m),
        }
    }

    /// Input matrix `v` of the request: view `v` of a full transform, or the single
    /// matrix (`v == 0`) of a `transform_view` request.
    fn part(&self, v: usize) -> &Matrix {
        match self {
            PendingInputs::Full(views) => &views[v],
            PendingInputs::View(m) => {
                debug_assert_eq!(v, 0, "single-view requests carry one matrix");
                m
            }
        }
    }
}

struct Pending {
    model: String,
    op: BatchOp,
    inputs: PendingInputs,
    /// Point past which the answer is dead: the engine replies
    /// [`ServeError::DeadlineExceeded`] instead of computing it.
    deadline: Option<Instant>,
    reply: ReplyCallback,
}

impl Pending {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// The pending queue plus the per-model admission census. Both live under one
/// mutex so a shed decision and the push it guards are atomic.
#[derive(Default)]
struct AdmissionQueue {
    q: VecDeque<Pending>,
    /// Queued request count per model name; entries are removed at zero so the
    /// census cannot outgrow the set of currently queued models.
    per_model: BTreeMap<String, usize>,
}

impl AdmissionQueue {
    fn push(&mut self, p: Pending) {
        *self.per_model.entry(p.model.clone()).or_insert(0) += 1;
        self.q.push_back(p);
    }

    fn note_removed(&mut self, model: &str) {
        if let Some(n) = self.per_model.get_mut(model) {
            *n -= 1;
            if *n == 0 {
                self.per_model.remove(model);
            }
        }
    }

    fn pop_front(&mut self) -> Option<Pending> {
        let p = self.q.pop_front()?;
        self.note_removed(&p.model);
        Some(p)
    }

    fn drain_all(&mut self) -> Vec<Pending> {
        self.per_model.clear();
        self.q.drain(..).collect()
    }
}

struct Shared {
    store: Arc<ModelStore>,
    config: BatchConfig,
    pool: Arc<Pool>,
    queue: Mutex<AdmissionQueue>,
    wake: Condvar,
    stop: AtomicBool,
    /// Behind its own `Arc` so pool jobs can record fallbacks after the dispatcher
    /// has moved on.
    stats: Arc<Mutex<EngineStats>>,
}

/// The micro-batching transform engine. Cheap to clone handles are not provided;
/// share it behind an [`Arc`].
pub struct BatchEngine {
    shared: Arc<Shared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl BatchEngine {
    /// Start the engine's dispatcher thread over a store, executing batches on the
    /// process-wide [`Pool::shared`].
    pub fn start(store: Arc<ModelStore>, config: BatchConfig) -> Self {
        Self::start_with_pool(store, config, Pool::shared())
    }

    /// Start the engine on a dedicated execution pool. A sharded router gives each
    /// in-process shard its own pool so one shard's heavy batch cannot starve its
    /// siblings' execution slots.
    pub fn start_with_pool(store: Arc<ModelStore>, config: BatchConfig, pool: Arc<Pool>) -> Self {
        let shared = Arc::new(Shared {
            store,
            config: BatchConfig {
                max_batch: config.max_batch.max(1),
                ..config
            },
            pool,
            queue: Mutex::new(AdmissionQueue::default()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            stats: Arc::new(Mutex::new(EngineStats::default())),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tcca-batch-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawning the batch dispatcher")
        };
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Enqueue an op, or fast-fail the callback without queueing. Admission
    /// control happens here: a request that would overflow the queue (or its
    /// model's share of it) is shed with [`ServeError::Overloaded`] *before* any
    /// work is spent on it, and a request whose deadline already passed is
    /// answered [`ServeError::DeadlineExceeded`] — in-band, never silently.
    fn enqueue(
        &self,
        model: &str,
        op: BatchOp,
        inputs: PendingInputs,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        // Resolve the name eagerly so unknown models fail fast with the catalog.
        if let Err(e) = self.shared.store.entry(model) {
            return reply(Err(e));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.shared
                .stats
                .lock()
                .expect("engine stats lock")
                .deadline_dropped += 1;
            return reply(Err(ServeError::DeadlineExceeded(
                "deadline passed before the request was admitted".into(),
            )));
        }
        {
            let mut queue = self.shared.queue.lock().expect("engine queue lock");
            // The stop check happens *under the queue lock*: the dispatcher drains
            // the queue under this lock before exiting, so a request either lands
            // in the queue in time to be failed by that drain, or observes the
            // flag here — it can never be pushed after the drain and stranded with
            // its callback forever uncalled.
            if self.shared.stop.load(Ordering::SeqCst) {
                drop(queue);
                return reply(Err(ServeError::EngineStopped));
            }
            let cfg = &self.shared.config;
            if cfg.max_queue > 0 && queue.q.len() >= cfg.max_queue {
                let depth = queue.q.len();
                drop(queue);
                self.shared
                    .stats
                    .lock()
                    .expect("engine stats lock")
                    .shed_queue_full += 1;
                return reply(Err(ServeError::Overloaded(format!(
                    "engine queue full ({depth} pending)"
                ))));
            }
            if cfg.max_per_model > 0
                && queue.per_model.get(model).copied().unwrap_or(0) >= cfg.max_per_model
            {
                let held = queue.per_model.get(model).copied().unwrap_or(0);
                drop(queue);
                self.shared
                    .stats
                    .lock()
                    .expect("engine stats lock")
                    .shed_model_limit += 1;
                return reply(Err(ServeError::Overloaded(format!(
                    "model {model:?} at its admission limit ({held} pending)"
                ))));
            }
            queue.push(Pending {
                model: model.to_string(),
                op,
                inputs,
                deadline,
                reply,
            });
            self.shared
                .stats
                .lock()
                .expect("engine stats lock")
                .requests += 1;
        }
        self.shared.wake.notify_one();
    }

    /// Asynchronously project instances through a stored model, transparently
    /// coalescing with concurrent requests for the same model. The callback runs
    /// when the result is ready — the submitting thread never blocks, which is what
    /// the event-loop server needs. The inputs are `Arc`-shared: the engine only
    /// ever borrows them. A `deadline` bounds how long the answer stays worth
    /// computing: work still queued past it is failed in-band instead of run.
    pub fn submit_transform(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        self.enqueue(
            model,
            BatchOp::Transform,
            PendingInputs::Full(inputs),
            deadline,
            reply,
        );
    }

    /// Asynchronously project a *single* view through the model's per-view
    /// projection. Concurrent single-view requests for the same `(model, view)`
    /// coalesce into one `transform_view` call that — for feature views — addresses
    /// every request's columns in place through a [`linalg::ColsView`]: no stitched
    /// copy, no per-view `hstack`, zero input copies. The projection always runs
    /// in `f64`: [`Precision`] has the one value `F64`.
    pub fn submit_transform_view(
        &self,
        model: &str,
        which: usize,
        input: Arc<Matrix>,
        _precision: Precision,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        self.enqueue(
            model,
            BatchOp::View(which),
            PendingInputs::View(input),
            deadline,
            reply,
        );
    }

    /// Asynchronously compute all named candidate outputs. Multi-candidate requests
    /// are comparatively rare and heterogeneous, so they skip the micro-batcher and
    /// run directly on the pool.
    pub fn submit_outputs(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: OutputsCallback,
    ) {
        if self.shared.stop.load(Ordering::SeqCst) {
            return reply(Err(ServeError::EngineStopped));
        }
        if let Err(e) = self.shared.store.entry(model) {
            return reply(Err(e));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.shared
                .stats
                .lock()
                .expect("engine stats lock")
                .deadline_dropped += 1;
            return reply(Err(ServeError::DeadlineExceeded(
                "deadline passed before the request was admitted".into(),
            )));
        }
        self.shared
            .stats
            .lock()
            .expect("engine stats lock")
            .requests += 1;
        let store = Arc::clone(&self.shared.store);
        let stats = Arc::clone(&self.shared.stats);
        let model = model.to_string();
        self.shared.pool.spawn(move || {
            // Re-check on the worker: the pool may have been backed up past the
            // budget, and a dead answer is not worth the model call.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                stats.lock().expect("engine stats lock").deadline_dropped += 1;
                return reply(Err(ServeError::DeadlineExceeded(
                    "deadline passed while queued for execution".into(),
                )));
            }
            reply(guarded(&model, || {
                named_outputs(store.get(&model)?.as_ref(), &inputs)
            }));
        });
    }

    /// Project instances through a stored model, transparently coalescing with
    /// concurrent requests for the same model. Blocks until the result is ready.
    /// (Do not call from a pool worker of this engine's own pool — batches execute
    /// there, and blocking a worker on its own queue can deadlock.)
    pub fn transform(&self, model: &str, inputs: Vec<Matrix>) -> Result<Matrix> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_transform(
            model,
            Arc::new(inputs),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
        rx.recv().map_err(|_| ServeError::EngineStopped)?
    }

    /// Blocking counterpart of [`BatchEngine::submit_transform_view`].
    pub fn transform_view(&self, model: &str, which: usize, input: Matrix) -> Result<Matrix> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_transform_view(
            model,
            which,
            Arc::new(input),
            Precision::F64,
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
        rx.recv().map_err(|_| ServeError::EngineStopped)?
    }

    /// Blocking counterpart of [`BatchEngine::submit_outputs`].
    pub fn outputs(&self, model: &str, inputs: Vec<Matrix>) -> Result<Vec<NamedOutput>> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_outputs(
            model,
            Arc::new(inputs),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
        rx.recv().map_err(|_| ServeError::EngineStopped)?
    }

    /// Requests currently queued (admitted but not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("engine queue lock").q.len()
    }

    /// Stop accepting work and fail queued requests with
    /// [`ServeError::EngineStopped`]. Used by the router to simulate/realize shard
    /// death; idempotent.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Whether [`BatchEngine::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Counters since start.
    pub fn stats(&self) -> EngineStats {
        *self.shared.stats.lock().expect("engine stats lock")
    }

    /// The store the engine serves from.
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.shared.store
    }

    /// The pool batches execute on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.shared.pool
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// Attach the model's labels to its candidates (positional fallback on mismatch).
fn named_outputs(model: &dyn MultiViewModel, inputs: &[Matrix]) -> Result<Vec<NamedOutput>> {
    let outputs = model.outputs(inputs)?;
    let labels = model.output_labels();
    let labelled = labels.len() == outputs.len();
    Ok(outputs
        .into_iter()
        .enumerate()
        .map(|(i, out)| {
            let label = if labelled {
                labels[i].clone()
            } else {
                format!("candidate{i}")
            };
            let (kind, matrix) = match out {
                Output::Embedding(m) => (CandidateKind::Embedding, m),
                Output::Distances(d) => (CandidateKind::Distances, d),
            };
            NamedOutput {
                label,
                kind,
                matrix,
            }
        })
        .collect())
}

/// Number of instances a request contributes, along the model's batching axis.
fn request_instances(kind: InputKind, inputs: &PendingInputs) -> usize {
    match (kind, inputs.first()) {
        (InputKind::Views, Some(m)) => m.cols(),
        (InputKind::Kernels, Some(m)) => m.rows(),
        (_, None) => 0,
    }
}

fn dispatch_loop(shared: &Shared) {
    loop {
        // Wait for the first request of the next batch. On stop, fail everything
        // still queued with `EngineStopped` *under the queue lock* (paired with the
        // in-lock stop check in `enqueue`) so no callback is ever stranded.
        let first = {
            let mut queue = shared.queue.lock().expect("engine queue lock");
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    let drained = queue.drain_all();
                    drop(queue);
                    for pending in drained {
                        (pending.reply)(Err(ServeError::EngineStopped));
                    }
                    return;
                }
                if let Some(p) = queue.pop_front() {
                    break p;
                }
                queue = shared.wake.wait(queue).expect("engine queue lock");
            }
        };

        // A request whose deadline passed while queued must not open a batch
        // window (the window would make *later* requests late too). Answer it
        // in-band and move on.
        if first.expired(Instant::now()) {
            shared
                .stats
                .lock()
                .expect("engine stats lock")
                .deadline_dropped += 1;
            (first.reply)(Err(ServeError::DeadlineExceeded(
                "deadline passed while queued for dispatch".into(),
            )));
            continue;
        }

        // The batching axis comes from the header metadata alone — a *cold* model's
        // payload is deserialized inside the pool job below, never on the
        // dispatcher thread, so a slow first load of one model cannot head-of-line
        // block batching for every other model.
        let kind = match shared.store.entry(&first.model) {
            Ok(entry) => entry.meta().input_kind,
            Err(e) => {
                (first.reply)(Err(e));
                continue;
            }
        };

        // Absorb same-(model, op) requests until the batch is full or the window
        // closes.
        let mut batch = vec![first];
        let mut instances = request_instances(kind, &batch[0].inputs);
        let deadline = Instant::now() + shared.config.max_wait;
        {
            let mut queue = shared.queue.lock().expect("engine queue lock");
            loop {
                while instances < shared.config.max_batch {
                    let next = queue
                        .q
                        .iter()
                        .position(|p| p.model == batch[0].model && p.op == batch[0].op)
                        .and_then(|i| queue.q.remove(i));
                    match next {
                        Some(p) => {
                            queue.note_removed(&p.model);
                            instances += request_instances(kind, &p.inputs);
                            batch.push(p);
                        }
                        None => break,
                    }
                }
                if instances >= shared.config.max_batch || shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                // Woken by a new request or the window closing; the next loop
                // iteration sweeps the queue again either way.
                let (q, _timeout) = shared
                    .wake
                    .wait_timeout(queue, deadline - now)
                    .expect("engine queue lock");
                queue = q;
            }
        }

        // Execute asynchronously on the engine's pool; the dispatcher moves on.
        {
            let mut stats = shared.stats.lock().expect("engine stats lock");
            stats.batches += 1;
            if batch.len() > 1 {
                stats.coalesced_requests += batch.len();
            }
        }
        let stats = Arc::clone(&shared.stats);
        let store = Arc::clone(&shared.store);
        shared
            .pool
            .spawn(move || execute_batch(&store, kind, batch, &stats));
    }
}

/// Run one model call, turning a panic into an in-band
/// [`ServeError::ModelPanicked`] that names the model. The pool would catch the
/// unwind too, but only by dropping the job — and with it the reply callbacks
/// the call was supposed to answer.
fn guarded<T>(model: &str, call: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(ServeError::ModelPanicked {
            model: model.to_string(),
            message,
        })
    })
}

/// Run one request alone (the singleton-bypass and fallback path): the model reads
/// the borrowed `Arc`'d input directly — no stitch, no copy.
fn run_single(model: &dyn MultiViewModel, op: BatchOp, inputs: &PendingInputs) -> Result<Matrix> {
    match (op, inputs) {
        (BatchOp::Transform, PendingInputs::Full(views)) => {
            model.transform(views).map_err(ServeError::from)
        }
        (BatchOp::View(v), PendingInputs::View(input)) => {
            model.transform_view(v, input).map_err(ServeError::from)
        }
        _ => Err(ServeError::Protocol(
            "request inputs do not match its operation".into(),
        )),
    }
}

fn execute_batch(
    store: &ModelStore,
    kind: InputKind,
    batch: Vec<Pending>,
    stats: &Arc<Mutex<EngineStats>>,
) {
    // Deadlines are re-checked at execution: the pool may be backed up, and a
    // batch member whose budget ran out while waiting gets an in-band
    // DeadlineExceeded instead of a dead answer (its neighbours still run).
    let now = Instant::now();
    let (batch, expired): (Vec<Pending>, Vec<Pending>) =
        batch.into_iter().partition(|p| !p.expired(now));
    if !expired.is_empty() {
        stats.lock().expect("engine stats lock").deadline_dropped += expired.len();
        for pending in expired {
            (pending.reply)(Err(ServeError::DeadlineExceeded(
                "deadline passed while queued for execution".into(),
            )));
        }
    }
    if batch.is_empty() {
        return;
    }
    let name = batch[0].model.clone();
    let model: Arc<dyn MultiViewModel> = match guarded(&name, || store.get(&name)) {
        Ok(m) => m,
        Err(e) => {
            // ServeError is not Clone (it can wrap io::Error); forward the load
            // failure to every waiter as a persistence error message.
            let msg = e.to_string();
            for pending in batch {
                (pending.reply)(Err(mvcore::CoreError::Persist(msg.clone()).into()));
            }
            return;
        }
    };
    if batch.len() == 1 {
        // Singleton bypass: the coalescing path (and any stitching it might do) is
        // skipped entirely — the model reads the request's own matrices in place.
        stats.lock().expect("engine stats lock").singleton_batches += 1;
        let Pending {
            op, inputs, reply, ..
        } = batch.into_iter().next().expect("one request");
        reply(guarded(&name, || run_single(model.as_ref(), op, &inputs)));
        return;
    }

    // A View batch over feature views *attempts* the ColsView path, but a model
    // that does not override `transform_view_cols` still stitches in the default
    // impl — so the batch only counts as zero-copy if the process-wide stitch
    // counter did not move while it ran. (Under concurrent stitching elsewhere
    // this can undercount, never overcount: the stat stays honest.)
    let view_batch = matches!(batch[0].op, BatchOp::View(..)) && kind == InputKind::Views;
    let stitches_before = linalg::input_stitches();
    match guarded(&name, || run_coalesced(model.as_ref(), kind, &batch)) {
        Ok(embeddings) => {
            if view_batch && linalg::input_stitches() == stitches_before {
                stats.lock().expect("engine stats lock").zero_copy_batches += 1;
            }
            for (pending, z) in batch.into_iter().zip(embeddings) {
                (pending.reply)(Ok(z));
            }
        }
        Err(_) => {
            // One bad (or transductive, or panicking) request must not fail its
            // neighbours: retry individually.
            stats.lock().expect("engine stats lock").fallbacks += 1;
            for pending in batch {
                let result = guarded(&name, || {
                    run_single(model.as_ref(), pending.op, &pending.inputs)
                });
                (pending.reply)(result);
            }
        }
    }
}

/// Concatenate view `v` of every request along the instance axis into one
/// preallocated matrix (columns for feature views, rows for kernel blocks). Each
/// request's block is copied exactly once — no repeated pairwise `hstack`/`vstack`
/// whose data movement would grow quadratically with the batch size. Every call
/// materializes request data, so it counts against [`linalg::input_stitches`].
fn stitch_view(kind: InputKind, batch: &[Pending], v: usize) -> Result<Matrix> {
    linalg::note_input_stitch();
    let shape_err = |what: String| ServeError::Protocol(what);
    let head = batch[0].inputs.part(v);
    match kind {
        InputKind::Views => {
            let d = head.rows();
            let mut total = 0usize;
            for p in batch {
                let part = p.inputs.part(v);
                if part.rows() != d {
                    return Err(shape_err(format!(
                        "view {v}: request has {} features, batch peer has {d}",
                        part.rows()
                    )));
                }
                total += part.cols();
            }
            let mut out = Matrix::zeros(d, total);
            let mut col = 0usize;
            for p in batch {
                let part = p.inputs.part(v);
                for i in 0..d {
                    out.row_mut(i)[col..col + part.cols()].copy_from_slice(part.row(i));
                }
                col += part.cols();
            }
            Ok(out)
        }
        InputKind::Kernels => {
            let n = head.cols();
            let mut total = 0usize;
            for p in batch {
                let part = p.inputs.part(v);
                if part.cols() != n {
                    return Err(shape_err(format!(
                        "kernel block {v}: request has {} columns, batch peer has {n}",
                        part.cols()
                    )));
                }
                total += part.rows();
            }
            let mut out = Matrix::zeros(total, n);
            let mut row = 0usize;
            for p in batch {
                let part = p.inputs.part(v);
                out.as_mut_slice()[row * n..row * n + part.as_slice().len()]
                    .copy_from_slice(part.as_slice());
                row += part.rows();
            }
            Ok(out)
        }
    }
}

/// Join the batch along the instance axis, run one model call, split the rows.
///
/// * [`BatchOp::View`] over feature views is the zero-copy path: the requests'
///   matrices become the parts of a borrowed [`ColsView`] and the model's blocked
///   GEMM packs straight from them — bit-identical to the stitched path, with no
///   input copy at all.
/// * [`BatchOp::Transform`] stitches every view; [`BatchOp::View`] over kernel
///   blocks stitches the one block row-wise (kernel models need the contiguous
///   block). Both count against [`linalg::input_stitches`].
fn run_coalesced(
    model: &dyn MultiViewModel,
    kind: InputKind,
    batch: &[Pending],
) -> Result<Vec<Matrix>> {
    let z = match batch[0].op {
        BatchOp::Transform => {
            let views = model.num_views();
            for p in batch {
                let PendingInputs::Full(inputs) = &p.inputs else {
                    return Err(ServeError::Protocol(
                        "full-transform batch holds a single-view request".into(),
                    ));
                };
                if inputs.len() != views {
                    return Err(ServeError::Protocol(format!(
                        "request has {} inputs, model expects {views}",
                        inputs.len()
                    )));
                }
            }
            let mut stitched = Vec::with_capacity(views);
            for v in 0..views {
                stitched.push(stitch_view(kind, batch, v)?);
            }
            model.transform(&stitched)?
        }
        BatchOp::View(which) => match kind {
            InputKind::Views => {
                let cols = ColsView::from_matrices(batch.iter().map(|p| p.inputs.part(0)))
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                model.transform_view_cols(which, &cols)?
            }
            InputKind::Kernels => model.transform_view(which, &stitch_view(kind, batch, 0)?)?,
        },
    };

    let mut out = Vec::with_capacity(batch.len());
    let mut row = 0usize;
    for p in batch {
        let n = request_instances(kind, &p.inputs);
        if row + n > z.rows() {
            return Err(ServeError::Protocol(format!(
                "batched embedding has {} rows, expected at least {}",
                z.rows(),
                row + n
            )));
        }
        out.push(z.select_rows(&(row..row + n).collect::<Vec<_>>()));
        row += n;
    }
    if row != z.rows() {
        return Err(ServeError::Protocol(format!(
            "batched embedding has {} rows, requests account for {row}",
            z.rows()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{secstr_dataset, SecStrConfig};
    use mvcore::{EstimatorRegistry, FitSpec};

    fn fixture_views() -> Vec<Matrix> {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: 32,
            seed: 17,
            difficulty: 0.8,
        });
        data.views()
            .iter()
            .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
            .collect()
    }

    fn engine_with(name: &str, method: &str, views: &[Matrix]) -> BatchEngine {
        let registry = EstimatorRegistry::with_builtin();
        let model = registry
            .fit(method, views, &FitSpec::with_rank(2).seed(2))
            .unwrap();
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert(name, model);
        BatchEngine::start(
            store,
            BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(20),
                ..BatchConfig::default()
            },
        )
    }

    /// Two fast PCA models behind one engine with the given admission config.
    fn two_model_engine(config: BatchConfig) -> (BatchEngine, Vec<Matrix>) {
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        for name in ["a", "b"] {
            let model = registry
                .fit("PCA", &views, &FitSpec::with_rank(2).seed(2))
                .unwrap();
            store.insert(name, model);
        }
        (BatchEngine::start(store, config), views)
    }

    /// Wait until the dispatcher has drained the queue (popped everything into
    /// an open batch window or onto the pool).
    fn wait_queue_empty(engine: &BatchEngine) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.queue_depth() > 0 {
            assert!(Instant::now() < deadline, "queue never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn single_requests_match_direct_transform() {
        let views = fixture_views();
        let engine = engine_with("tcca", "TCCA", &views);
        let direct = engine
            .store()
            .get("tcca")
            .unwrap()
            .transform(&views)
            .unwrap();
        let served = engine.transform("tcca", views.clone()).unwrap();
        assert_eq!(served, direct);
        assert!(matches!(
            engine.transform("missing", views),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn concurrent_requests_coalesce_and_split_correctly() {
        let views = fixture_views();
        let engine = Arc::new(engine_with("pca", "PCA", &views));
        let direct = engine
            .store()
            .get("pca")
            .unwrap()
            .transform(&views)
            .unwrap();

        // 8 clients each asking for a distinct 4-instance slice.
        let mut handles = Vec::new();
        for c in 0..8usize {
            let engine = Arc::clone(&engine);
            let slice: Vec<Matrix> = views
                .iter()
                .map(|v| v.select_columns(&(4 * c..4 * (c + 1)).collect::<Vec<_>>()))
                .collect();
            handles.push(std::thread::spawn(move || {
                (c, engine.transform("pca", slice).unwrap())
            }));
        }
        for h in handles {
            let (c, z) = h.join().unwrap();
            let expected = direct.select_rows(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
            assert_eq!(z, expected, "client {c}");
        }

        let stats = engine.stats();
        assert_eq!(stats.requests, 8);
        assert!(
            stats.batches <= stats.requests,
            "batches {} > requests {}",
            stats.batches,
            stats.requests
        );
    }

    #[test]
    fn transductive_batches_fall_back_to_individual_execution() {
        let views = fixture_views();
        let engine = Arc::new(engine_with("dse", "DSE", &views));
        // Two concurrent requests for the exact training batch: coalescing doubles
        // the instance count, the fingerprint check rejects it, and the fallback
        // serves both individually.
        let mut handles = Vec::new();
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let inputs = views.clone();
            handles.push(std::thread::spawn(move || {
                engine.transform("dse", inputs).unwrap()
            }));
        }
        let results: Vec<Matrix> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].rows(), 32);
    }

    #[test]
    fn concurrent_single_view_requests_coalesce_without_full_stitch() {
        let views = fixture_views();
        let engine = Arc::new(engine_with("ccals", "CCA-LS", &views));
        let model = engine.store().get("ccals").unwrap();
        let direct = model.transform_view(1, &views[1]).unwrap();

        // 8 clients each projecting a distinct 4-instance slice of view 1 only.
        let mut handles = Vec::new();
        for c in 0..8usize {
            let engine = Arc::clone(&engine);
            let slice = views[1].select_columns(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
            handles.push(std::thread::spawn(move || {
                (c, engine.transform_view("ccals", 1, slice).unwrap())
            }));
        }
        for h in handles {
            let (c, z) = h.join().unwrap();
            let expected = direct.select_rows(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
            assert_eq!(z, expected, "client {c}");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 8);
        assert!(stats.batches <= stats.requests);

        // Full-transform and single-view requests never coalesce with each other:
        // a full transform interleaved with view requests still matches direct.
        let full = engine.transform("ccals", views.clone()).unwrap();
        assert_eq!(full, model.transform(&views).unwrap());

        // Out-of-range view indexes fail in-band.
        let err = engine
            .transform_view("ccals", 99, views[0].clone())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn outputs_are_served_with_model_labels() {
        let views = fixture_views();
        let engine = engine_with("bsf", "BSF", &views);
        let outputs = engine.outputs("bsf", views.clone()).unwrap();
        assert_eq!(outputs.len(), views.len());
        for (p, candidate) in outputs.iter().enumerate() {
            assert_eq!(candidate.label, format!("view{p}"));
            assert_eq!(candidate.kind, crate::wire::CandidateKind::Embedding);
            assert_eq!(candidate.matrix.rows(), views[p].cols());
        }
        // BSF rejects plain transform by design — but outputs() serves it.
        assert!(engine.transform("bsf", views).is_err());
    }

    #[test]
    fn stopped_engine_fails_fast() {
        let views = fixture_views();
        let engine = engine_with("pca2", "PCA", &views);
        engine.stop();
        assert!(matches!(
            engine.transform("pca2", views.clone()),
            Err(ServeError::EngineStopped)
        ));
        assert!(matches!(
            engine.outputs("pca2", views),
            Err(ServeError::EngineStopped)
        ));
        assert!(engine.is_stopped());
    }

    #[test]
    fn stopped_engine_rejects_new_requests() {
        let views = fixture_views();
        let engine = engine_with("cat", "CAT", &views);
        drop(engine);
        // A fresh engine whose store lacks the model reports the catalog.
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        let engine = BatchEngine::start(store, BatchConfig::default());
        let err = engine.transform("cat", views).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
    }

    #[test]
    fn per_model_cap_sheds_the_hot_tenant_in_band() {
        // A long batch window for model "a" holds the dispatcher while "b"
        // requests pile up in the queue; the per-model cap bounds the pile.
        let (engine, views) = two_model_engine(BatchConfig {
            max_batch: 10_000,
            max_wait: Duration::from_millis(400),
            max_queue: 0,
            max_per_model: 2,
        });
        let inputs = Arc::new(views.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        let submit = |model: &str| {
            let tx = tx.clone();
            engine.submit_transform(
                model,
                Arc::clone(&inputs),
                None,
                Box::new(move |r| drop(tx.send(r))),
            );
        };
        submit("a"); // opens the window
        for _ in 0..5 {
            submit("b"); // 2 admitted, 3 shed
        }
        drop(tx);
        let results: Vec<_> = rx.iter().collect();
        assert_eq!(results.len(), 6, "every request must get exactly one reply");
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded(_))))
            .count();
        assert_eq!(
            (ok, shed),
            (3, 3),
            "sheds must be typed, not generic errors"
        );
        assert_eq!(engine.stats().shed_model_limit, 3);
        assert_eq!(engine.stats().shed_queue_full, 0);
    }

    #[test]
    fn full_queue_sheds_in_band() {
        let (engine, views) = two_model_engine(BatchConfig {
            max_batch: 10_000,
            max_wait: Duration::from_millis(400),
            max_queue: 3,
            max_per_model: 0,
        });
        let inputs = Arc::new(views.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        let submit = |model: &str| {
            let tx = tx.clone();
            engine.submit_transform(
                model,
                Arc::clone(&inputs),
                None,
                Box::new(move |r| drop(tx.send(r))),
            );
        };
        submit("a");
        wait_queue_empty(&engine); // "a" popped: its batch window is open
        for _ in 0..5 {
            submit("b"); // 3 fill the queue, 2 shed
        }
        drop(tx);
        let results: Vec<_> = rx.iter().collect();
        assert_eq!(results.len(), 6);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded(_))))
            .count();
        assert_eq!((ok, shed), (4, 2));
        assert_eq!(engine.stats().shed_queue_full, 2);
    }

    #[test]
    fn expired_deadlines_are_failed_in_band_never_computed() {
        let (engine, views) = two_model_engine(BatchConfig::default());
        let inputs = Arc::new(views.clone());

        // Already expired at submission: rejected synchronously.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        engine.submit_transform(
            "a",
            Arc::clone(&inputs),
            Some(Instant::now()),
            Box::new(move |r| drop(tx.send(r))),
        );
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServeError::DeadlineExceeded(_))
        ));

        // Same for the outputs path.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        engine.submit_outputs(
            "a",
            Arc::clone(&inputs),
            Some(Instant::now()),
            Box::new(move |r| drop(tx.send(r))),
        );
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServeError::DeadlineExceeded(_))
        ));
        assert_eq!(engine.stats().deadline_dropped, 2);

        // A generous deadline still computes normally.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        engine.submit_transform(
            "a",
            Arc::clone(&inputs),
            Some(Instant::now() + Duration::from_secs(30)),
            Box::new(move |r| drop(tx.send(r))),
        );
        assert!(rx.recv().unwrap().is_ok());
    }

    #[test]
    fn deadline_expiring_in_queue_is_dropped_at_dispatch() {
        // "a" holds the dispatcher's batch window open longer than "b"'s
        // budget; when "b" is finally popped its deadline has passed.
        let (engine, views) = two_model_engine(BatchConfig {
            max_batch: 10_000,
            max_wait: Duration::from_millis(300),
            ..BatchConfig::default()
        });
        let inputs = Arc::new(views.clone());
        let (tx_a, rx_a) = std::sync::mpsc::sync_channel(1);
        engine.submit_transform(
            "a",
            Arc::clone(&inputs),
            None,
            Box::new(move |r| drop(tx_a.send(r))),
        );
        wait_queue_empty(&engine);
        let (tx_b, rx_b) = std::sync::mpsc::sync_channel(1);
        engine.submit_transform(
            "b",
            Arc::clone(&inputs),
            Some(Instant::now() + Duration::from_millis(30)),
            Box::new(move |r| drop(tx_b.send(r))),
        );
        assert!(rx_a.recv().unwrap().is_ok(), "the window holder succeeds");
        assert!(matches!(
            rx_b.recv().unwrap(),
            Err(ServeError::DeadlineExceeded(_))
        ));
        assert!(engine.stats().deadline_dropped >= 1);
    }
}
