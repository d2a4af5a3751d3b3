//! [`BatchEngine`]: micro-batching transform execution on a bounded thread pool.
//!
//! Transform requests are tiny (often a handful of instances) while the dense kernels
//! amortize best over many columns. The engine therefore **batches while busy** —
//! the policy of Clipper (Crankshaw et al., NSDI 2017) — with no batching timer:
//!
//! 1. the engine runs at most `pool.workers()` batch jobs at once on its
//!    [`parallel::Pool`] ([`Pool::shared`] by default, a dedicated pool per router
//!    shard). An admitted request that finds one of these slots free starts a job
//!    at once, so a request that arrives while a worker is idle waits for nothing,
//! 2. a job takes the oldest queued request plus every queued request with the same
//!    `(model, op)` key — full transforms and per-view projections batch separately
//!    — up to [`BatchConfig::max_batch`] instances, in one pass over the queue. Only
//!    work that queued behind busy workers coalesces,
//! 3. the batch is joined along the instance axis and executed as **one** model
//!    call, so concurrent fits and transforms share bounded pools instead of
//!    oversubscribing the machine. A coalesced `transform_view` batch of feature
//!    views is the **zero-copy** path: the request matrices are wrapped in a
//!    borrowed [`linalg::ColsView`] and the model's blocked GEMM packs its panels
//!    straight from them — no stitched copy is ever materialized
//!    ([`EngineStats::zero_copy_batches`] counts these, and
//!    [`linalg::matrix_clones`] / [`linalg::input_stitches`] let tests assert the
//!    absence of copies). Full `transform` batches and kernel-block batches still
//!    stitch (`hstack` of per-view matrices / `vstack` of kernel rows),
//! 4. the embedding rows are split back per request. If requests remain queued,
//!    the job re-spawns itself at the back of the pool's queue — engines sharing
//!    one pool take turns — and otherwise it releases its slot.
//!
//! Singleton batches bypass the coalescing machinery entirely: the model is called
//! directly on the borrowed request input, with no stitch and no copy regardless of
//! the op or input kind.
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
//! beyond queue order: each job runs one batch, and the other slots keep taking
//! the next oldest request.

use crate::wire::{CandidateKind, NamedOutput, Precision};
use crate::{ModelStore, Result, ServeError};
use linalg::{ColsView, Matrix};
use mvcore::{InputKind, MultiViewModel, Output};
use parallel::Pool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Completion callback for an asynchronously submitted transform. Invoked exactly
/// once, from a pool worker (or from the submitter on fast-fail paths, or from
/// the caller of [`BatchEngine::stop`] for work still queued).
pub type ReplyCallback = Box<dyn FnOnce(Result<Matrix>) + Send + 'static>;

/// Completion callback for an `outputs` request: the model's named candidates.
pub type OutputsCallback = Box<dyn FnOnce(Result<Vec<NamedOutput>>) + Send + 'static>;

/// Micro-batching and admission-control knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum instances coalesced into one `transform` call.
    pub max_batch: usize,
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
    /// The model's batching axis, from its header metadata at admission.
    kind: InputKind,
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

/// The pending queue, the per-model admission census and the slot count. All
/// live under one mutex so a shed decision and the push it guards are atomic,
/// and so a job never releases its slot while a request is left queued.
#[derive(Default)]
struct AdmissionQueue {
    /// Admitted requests, oldest first.
    q: Vec<Pending>,
    /// Queued request count per model name; entries are removed at zero so the
    /// census cannot outgrow the set of currently queued models.
    per_model: BTreeMap<String, usize>,
    /// Batch jobs holding a slot, queued on the pool or running; at most
    /// `pool.workers()`.
    busy: usize,
}

impl AdmissionQueue {
    fn push(&mut self, p: Pending) {
        *self.per_model.entry(p.model.clone()).or_insert(0) += 1;
        self.q.push(p);
    }

    /// Take the oldest request plus every queued request with its `(model, op)`
    /// key, up to `max_batch` instances, in one pass over the queue.
    fn take_batch(&mut self, max_batch: usize) -> Vec<Pending> {
        let Some(head) = self.q.first() else {
            return Vec::new();
        };
        let (model, op) = (head.model.clone(), head.op);
        let mut instances = 0;
        let batch: Vec<Pending> = self
            .q
            .extract_if(.., |p| {
                let take = instances < max_batch && p.model == model && p.op == op;
                if take {
                    instances += request_instances(p.kind, &p.inputs);
                }
                take
            })
            .collect();
        if let Some(n) = self.per_model.get_mut(&model) {
            *n -= batch.len();
            if *n == 0 {
                self.per_model.remove(&model);
            }
        }
        batch
    }

    fn drain_all(&mut self) -> Vec<Pending> {
        self.per_model.clear();
        std::mem::take(&mut self.q)
    }
}

struct Shared {
    store: Arc<ModelStore>,
    config: BatchConfig,
    pool: Arc<Pool>,
    queue: Mutex<AdmissionQueue>,
    stop: AtomicBool,
    stats: Mutex<EngineStats>,
}

/// The micro-batching transform engine. Cheap to clone handles are not provided;
/// share it behind an [`Arc`].
pub struct BatchEngine {
    shared: Arc<Shared>,
}

impl BatchEngine {
    /// Start the engine over a store, executing batches on the process-wide
    /// [`Pool::shared`].
    pub fn start(store: Arc<ModelStore>, config: BatchConfig) -> Self {
        Self::start_with_pool(store, config, Pool::shared())
    }

    /// Start the engine on a dedicated execution pool. A sharded router gives each
    /// in-process shard its own pool so one shard's heavy batch cannot starve its
    /// siblings' execution slots. The engine runs at most `pool.workers()` batches
    /// at once.
    pub fn start_with_pool(store: Arc<ModelStore>, config: BatchConfig, pool: Arc<Pool>) -> Self {
        Self {
            shared: Arc::new(Shared {
                store,
                config: BatchConfig {
                    max_batch: config.max_batch.max(1),
                    ..config
                },
                pool,
                queue: Mutex::new(AdmissionQueue::default()),
                stop: AtomicBool::new(false),
                stats: Mutex::new(EngineStats::default()),
            }),
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
        // The batching axis comes from the header metadata alone — a *cold*
        // model's payload is deserialized inside the pool job, never here.
        let kind = match self.shared.store.entry(model) {
            Ok(entry) => entry.meta().input_kind,
            Err(e) => return reply(Err(e)),
        };
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
            // The stop check happens *under the queue lock*: `stop` drains the
            // queue under this lock, so a request either lands in the queue in
            // time to be failed by that drain, or observes the flag here — it can
            // never be pushed after the drain and stranded with its callback
            // forever uncalled.
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
                kind,
                inputs,
                deadline,
                reply,
            });
            self.shared
                .stats
                .lock()
                .expect("engine stats lock")
                .requests += 1;
            // Start a batch job if one of the engine's slots is free.
            if queue.busy < self.shared.pool.workers() {
                queue.busy += 1;
                let shared = Arc::clone(&self.shared);
                self.shared.pool.spawn(move || run_batch(shared));
            }
        }
    }

    /// Asynchronously project instances through a stored model, coalescing with
    /// requests for the same model that queued while the engine was busy. The
    /// callback runs when the result is ready — the submitting thread never
    /// blocks, which is what the event-loop server needs. The inputs are
    /// `Arc`-shared: the engine only ever borrows them. A `deadline` bounds how
    /// long the answer stays worth computing: work still queued past it is failed
    /// in-band instead of run.
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
    /// projection. Queued single-view requests for the same `(model, view)`
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
        let shared = Arc::clone(&self.shared);
        let model = model.to_string();
        self.shared.pool.spawn(move || {
            // Re-check on the worker: the pool may have been backed up past the
            // budget, and a dead answer is not worth the model call.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                shared
                    .stats
                    .lock()
                    .expect("engine stats lock")
                    .deadline_dropped += 1;
                return reply(Err(ServeError::DeadlineExceeded(
                    "deadline passed while queued for execution".into(),
                )));
            }
            reply(guarded(&model, || {
                named_outputs(shared.store.get(&model)?.as_ref(), &inputs)
            }));
        });
    }

    /// Project instances through a stored model, coalescing with requests for the
    /// same model that queued while the engine was busy. Blocks until the result
    /// is ready. (Do not call from a pool worker of this engine's own pool —
    /// batches execute there, and blocking a worker on its own queue can
    /// deadlock.)
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

    /// Requests currently queued (admitted but not yet taken into a batch).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("engine queue lock").q.len()
    }

    /// Stop accepting work and fail queued requests with
    /// [`ServeError::EngineStopped`]. Used by the router to simulate/realize shard
    /// death; idempotent. Batches already taken by a job still complete.
    pub fn stop(&self) {
        let drained = {
            let mut queue = self.shared.queue.lock().expect("engine queue lock");
            self.shared.stop.store(true, Ordering::SeqCst);
            queue.drain_all()
        };
        for pending in drained {
            (pending.reply)(Err(ServeError::EngineStopped));
        }
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

/// One batch job: take one batch off the queue and execute it. The job holds
/// one of the engine's slots from the moment it is spawned; its [`Slot`] hands
/// the slot on when the job ends.
fn run_batch(shared: Arc<Shared>) {
    let slot = Slot(shared);
    let shared = &slot.0;
    let batch = shared
        .queue
        .lock()
        .expect("engine queue lock")
        .take_batch(shared.config.max_batch);
    if batch.is_empty() {
        // A sibling job already took the request this job was spawned for.
        return;
    }
    {
        let mut stats = shared.stats.lock().expect("engine stats lock");
        stats.batches += 1;
        if batch.len() > 1 {
            stats.coalesced_requests += batch.len();
        }
    }
    execute_batch(shared, batch);
}

/// A batch job's hold on one of its engine's slots. Dropping it — when the job
/// returns *or unwinds* — re-spawns the job at the back of the pool's queue if
/// requests remain, so queued work is never stranded without a job, and
/// otherwise releases the slot.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        // Recover a poisoned guard rather than panic inside a panicking job: every
        // update under this lock leaves the queue valid at every step.
        let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.q.is_empty() {
            queue.busy -= 1;
        } else {
            let shared = Arc::clone(&self.0);
            self.0.pool.spawn(move || run_batch(shared));
        }
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

fn execute_batch(shared: &Shared, batch: Vec<Pending>) {
    let (store, stats) = (&shared.store, &shared.stats);
    // Deadlines are re-checked at execution: the pool may be backed up, and a
    // batch member whose budget ran out while queued gets an in-band
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
    let (name, kind) = (batch[0].model.clone(), batch[0].kind);
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
    use crate::test_gate::{gated, Gate, WAIT};
    use datasets::{secstr_dataset, SecStrConfig};
    use mvcore::{EstimatorRegistry, FitSpec};
    use std::sync::mpsc;
    use std::time::Duration;

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

    fn fit(method: &str, views: &[Matrix], rank: usize) -> Box<dyn MultiViewModel> {
        EstimatorRegistry::with_builtin()
            .fit(method, views, &FitSpec::with_rank(rank).seed(2))
            .unwrap()
    }

    fn engine_with(name: &str, method: &str, views: &[Matrix]) -> BatchEngine {
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert(name, fit(method, views, 2));
        BatchEngine::start(
            store,
            BatchConfig {
                max_batch: 64,
                ..BatchConfig::default()
            },
        )
    }

    /// PCA model "a" behind a gate and an identical plain PCA model "b", on a
    /// one-worker engine: a request for "a" holds the engine's only slot until
    /// the gate opens, and everything submitted meanwhile stays queued.
    fn parked_engine(config: BatchConfig) -> (BatchEngine, Vec<Matrix>, Gate) {
        let views = fixture_views();
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        let (model, gate) = gated(fit("PCA", &views, 2));
        store.insert("a", model);
        store.insert("b", fit("PCA", &views, 2));
        let engine = BatchEngine::start_with_pool(store, config, Arc::new(Pool::new(1)));
        (engine, views, gate)
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
        let (engine, views, mut gate) = parked_engine(BatchConfig::default());
        let direct = engine.store().get("b").unwrap().transform(&views).unwrap();

        // 8 clients each asking for a distinct 4-instance slice, queued behind
        // the engine's only slot, which a request for "a" holds.
        engine.submit_transform("a", Arc::new(views.clone()), None, Box::new(drop));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        for c in 0..8usize {
            let tx = tx.clone();
            let slice: Vec<Matrix> = views
                .iter()
                .map(|v| v.select_columns(&(4 * c..4 * (c + 1)).collect::<Vec<_>>()))
                .collect();
            let reply = Box::new(move |r| drop(tx.send((c, r))));
            engine.submit_transform("b", Arc::new(slice), None, reply);
        }
        gate.open();
        for _ in 0..8 {
            let (c, z) = rx.recv_timeout(WAIT).expect("a reply per request");
            let expected = direct.select_rows(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
            assert_eq!(z.unwrap(), expected, "client {c}");
        }

        let stats = engine.stats();
        assert_eq!(stats.requests, 9, "8 clients and the slot holder");
        assert!(stats.coalesced_requests >= 2, "{stats:?}");
    }

    #[test]
    fn transductive_batches_fall_back_to_individual_execution() {
        let (engine, views, mut gate) = parked_engine(BatchConfig::default());
        engine.store().insert("dse", fit("DSE", &views, 2));
        // Two requests for the exact training batch queue behind the slot a
        // request for "a" holds: coalescing doubles the instance count, the
        // fingerprint check rejects it, and the fallback serves both individually.
        engine.submit_transform("a", Arc::new(views.clone()), None, Box::new(drop));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let tx = tx.clone();
            let reply = Box::new(move |r| drop(tx.send(r)));
            engine.submit_transform("dse", Arc::new(views.clone()), None, reply);
        }
        gate.open();
        let results: Vec<Matrix> = (0..2)
            .map(|_| rx.recv_timeout(WAIT).expect("a reply per request").unwrap())
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].rows(), 32);
        assert_eq!(engine.stats().fallbacks, 1);
    }

    #[test]
    fn concurrent_single_view_requests_coalesce_without_full_stitch() {
        let (engine, views, mut gate) = parked_engine(BatchConfig::default());
        engine.store().insert("ccals", fit("CCA-LS", &views, 2));
        let model = engine.store().get("ccals").unwrap();
        let direct = model.transform_view(1, &views[1]).unwrap();

        // 8 clients each projecting a distinct 4-instance slice of view 1 only,
        // queued behind the engine's only slot, which a request for "a" holds.
        engine.submit_transform("a", Arc::new(views.clone()), None, Box::new(drop));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        for c in 0..8usize {
            let tx = tx.clone();
            let slice = views[1].select_columns(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
            let reply = Box::new(move |r| drop(tx.send((c, r))));
            engine.submit_transform_view("ccals", 1, Arc::new(slice), Precision::F64, None, reply);
        }
        gate.open();
        for _ in 0..8 {
            let (c, z) = rx.recv_timeout(WAIT).expect("a reply per request");
            let expected = direct.select_rows(&(4 * c..4 * (c + 1)).collect::<Vec<_>>());
            assert_eq!(z.unwrap(), expected, "client {c}");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 9, "8 clients and the slot holder");
        assert!(stats.coalesced_requests >= 2, "{stats:?}");

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
        // A gated request for model "a" holds the engine's only slot while "b"
        // requests pile up in the queue; the per-model cap bounds the pile.
        let (engine, views, mut gate) = parked_engine(BatchConfig {
            max_batch: 10_000,
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
        submit("a"); // takes the slot
        for _ in 0..5 {
            submit("b"); // 2 admitted, 3 shed
        }
        gate.open();
        drop(tx);
        // Ends once every callback is consumed; a stranded one times out.
        let results: Vec<_> = std::iter::from_fn(|| rx.recv_timeout(WAIT).ok()).collect();
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
        let (engine, views, mut gate) = parked_engine(BatchConfig {
            max_batch: 10_000,
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
        gate.wait_entered(); // "a" left the queue: it holds the only slot
        for _ in 0..5 {
            submit("b"); // 3 fill the queue, 2 shed
        }
        gate.open();
        drop(tx);
        // Ends once every callback is consumed; a stranded one times out.
        let results: Vec<_> = std::iter::from_fn(|| rx.recv_timeout(WAIT).ok()).collect();
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
        let views = fixture_views();
        let engine = engine_with("a", "PCA", &views);
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
        // "a" holds the engine's only slot past "b"'s budget; when "b" is
        // finally taken into a batch its deadline has passed.
        let (engine, views, mut gate) = parked_engine(BatchConfig {
            max_batch: 10_000,
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
        gate.wait_entered();
        let budget = Duration::from_millis(30);
        let (tx_b, rx_b) = std::sync::mpsc::sync_channel(1);
        engine.submit_transform(
            "b",
            Arc::clone(&inputs),
            Some(Instant::now() + budget),
            Box::new(move |r| drop(tx_b.send(r))),
        );
        std::thread::sleep(budget); // "b"'s deadline passes while it is queued
        gate.open();
        assert!(
            rx_a.recv_timeout(WAIT).unwrap().is_ok(),
            "the slot holder succeeds"
        );
        assert!(matches!(
            rx_b.recv_timeout(WAIT).unwrap(),
            Err(ServeError::DeadlineExceeded(_))
        ));
        assert!(engine.stats().deadline_dropped >= 1);
    }

    #[test]
    fn a_lone_request_on_an_idle_engine_runs_without_company() {
        let (engine, views, mut gate) = parked_engine(BatchConfig::default());
        let (tx, rx) = mpsc::channel();
        engine.submit_transform(
            "a",
            Arc::new(views.clone()),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
        // No second request is ever submitted: the lone one must reach the
        // model on its own.
        gate.wait_entered();
        gate.open();
        let z = rx.recv_timeout(WAIT).expect("the lone request is answered");
        let direct = engine.store().get("b").unwrap().transform(&views).unwrap();
        assert_eq!(z.unwrap(), direct);
        let stats = engine.stats();
        assert_eq!(
            (stats.requests, stats.batches, stats.singleton_batches),
            (1, 1, 1)
        );
    }

    #[test]
    fn slots_answer_every_request_exactly_once_under_stress() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 250;
        let views = fixture_views();
        let names = ["m0", "m1", "m2"];
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        for (rank, name) in (1..).zip(names) {
            store.insert(name, fit("PCA", &views, rank));
        }
        let models: Vec<_> = names.map(|name| store.get(name).unwrap()).to_vec();
        // Eight 4-instance slices, shared as full-transform and per-view inputs.
        let full: Vec<Arc<Vec<Matrix>>> = (0..8)
            .map(|c| {
                let cols: Vec<usize> = (4 * c..4 * (c + 1)).collect();
                Arc::new(views.iter().map(|v| v.select_columns(&cols)).collect())
            })
            .collect();
        let parts: Vec<Vec<Arc<Matrix>>> = full
            .iter()
            .map(|f| f.iter().cloned().map(Arc::new).collect())
            .collect();
        // Request `i`: model `i % 3`, slice `i % 8`, a full transform when
        // `i % 4 == 0` and otherwise view `i % 4 - 1`.
        let request = |i: usize| (i % 3, (i % 4).checked_sub(1), i % 8);
        let direct = |i: usize| {
            let (m, view, c) = request(i);
            match view {
                None => models[m].transform(&full[c]),
                Some(v) => models[m].transform_view(v, &parts[c][v]),
            }
            .unwrap()
        };
        let engine =
            BatchEngine::start_with_pool(store, BatchConfig::default(), Arc::new(Pool::new(2)));

        let (tx, rx) = mpsc::channel();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (engine, tx, barrier) = (&engine, tx.clone(), &barrier);
                let (full, parts) = (&full, &parts);
                scope.spawn(move || {
                    barrier.wait();
                    for i in t * PER_THREAD..(t + 1) * PER_THREAD {
                        let tx = tx.clone();
                        let reply: ReplyCallback = Box::new(move |r| drop(tx.send((i, r))));
                        let (m, view, c) = request(i);
                        match view {
                            None => {
                                engine.submit_transform(names[m], Arc::clone(&full[c]), None, reply)
                            }
                            Some(v) => engine.submit_transform_view(
                                names[m],
                                v,
                                Arc::clone(&parts[c][v]),
                                Precision::F64,
                                None,
                                reply,
                            ),
                        }
                    }
                });
            }
        });
        drop(tx);

        let mut answered = vec![false; THREADS * PER_THREAD];
        for _ in 0..answered.len() {
            let (i, z) = rx.recv_timeout(WAIT).expect("every request is answered");
            assert!(!answered[i], "request {i} answered twice");
            answered[i] = true;
            assert_eq!(z.unwrap(), direct(i), "request {i}");
        }
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.stats().requests, THREADS * PER_THREAD);
    }
}
