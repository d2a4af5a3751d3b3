//! The TCP front of the serving stack: a poll(2) event loop.
//!
//! One thread owns every socket. The loop multiplexes the listener and all
//! client connections through nonblocking, level-triggered readiness on one
//! poll(2) reactor. Each connection's interest is diffed against what the
//! reactor holds and modified only when the connection's state changes
//! (backpressure, pending writes, closing).
//!
//! Every request arrives in the tagged envelope (see [`crate::wire`]) and is
//! answered exactly once under its id. Nothing slow runs on the loop. Transform
//! work is submitted to a [`TransformService`] (a [`BatchEngine`] or a
//! [`crate::Router`]) with a completion callback that encodes the reply, pushes
//! it onto a completion queue and pokes the waker. Metadata and control-plane
//! ops (`ListModels`, `Rescan`, `Stats`, `Refit`, `AddShard`, `RemoveShard`,
//! `ClusterInfo`) run on a dedicated **control thread** through the same
//! completion-queue handoff — a rescan fanning out to slow remote shards, or a
//! drain-before-remove that waits for in-flight work, can never stall
//! transform traffic. Only `Ping` is answered inline. The callback is a guard:
//! a service that drops it uncalled (a model panicked and unwound its batch)
//! still answers the request, with an in-band [`Response::Error`]; so does a
//! control op that panics, and the control thread goes on serving. A
//! connection that half-closes after sending requests stays alive until every
//! owed reply has been written.
//!
//! An untagged or undecodable frame gets one untagged in-band
//! [`Response::Error`] instead of a dropped connection wherever the frame
//! boundary is still trustworthy; only framing-level violations (oversized
//! declared length, EOF mid frame) close the connection — after an error reply
//! is flushed where possible.

use crate::reactor::{Event, Interest, PollReactor, Waker};
use crate::service::TransformService;
use crate::wire::{Request, Response, MAX_FRAME_LEN};
use crate::{BatchConfig, BatchEngine, ModelStore, Result, ServeError};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Connections accepted at once; beyond this the listener's read interest is
/// dropped until a slot frees up (pending connections wait in the OS backlog).
const MAX_CONNS: usize = 4096;

/// Read-buffer chunk size for one `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Bytes read per readiness event per socket before yielding back to the loop, so
/// one firehose connection cannot starve its neighbours (the reactor is
/// level-triggered: leftover bytes re-report readiness on the next pass).
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Write-buffer high-water mark: while a connection has this many unflushed reply
/// bytes, the loop stops reading (and so parsing) new requests from it. A client
/// that pipelines requests but never reads its replies gets backpressure instead
/// of growing `wbuf` without bound.
const WBUF_HIGH_WATER: usize = 8 * 1024 * 1024;

/// Default cap on async replies owed to a single connection before further
/// transform submissions are shed with an in-band [`Response::Overloaded`].
const MAX_INFLIGHT_PER_CONN: usize = 1024;

/// Token the listener is registered under; connection tokens are slot indices,
/// far below this.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Tunable per-connection limits for a bound server. The defaults match the
/// historical constants; tests and the soak harness shrink them to provoke
/// backpressure and shedding deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ServerTuning {
    /// Write-buffer high-water mark: while a connection holds this many
    /// unflushed reply bytes, the loop stops reading new requests from it.
    pub wbuf_high_water: usize,
    /// Maximum async replies owed to one connection. A request that would
    /// exceed it is answered with an in-band [`Response::Overloaded`] instead
    /// of being submitted — bounding per-connection queue memory no matter how
    /// aggressively a client pipelines.
    pub max_inflight_per_conn: usize,
}

impl Default for ServerTuning {
    fn default() -> Self {
        Self {
            wbuf_high_water: WBUF_HIGH_WATER,
            max_inflight_per_conn: MAX_INFLIGHT_PER_CONN,
        }
    }
}

/// Map a service error to its wire response: overload and deadline verdicts
/// travel as their own opcodes so clients can apply retry policy without
/// string-matching; everything else stays a plain error.
fn error_response(e: ServeError) -> Response {
    match e {
        ServeError::Overloaded(msg) => Response::Overloaded(msg),
        ServeError::DeadlineExceeded(msg) => Response::DeadlineExceeded(msg),
        other => Response::Error(other.to_string()),
    }
}

/// Merge counters by name (used when layering this front's counters over the
/// service's: a front server over a router sees the same counter names again
/// from remote shards' servers).
fn merge_counters(counters: &mut Vec<(String, u64)>, extra: Vec<(String, u64)>) {
    for (name, value) in extra {
        match counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => counters.push((name, value)),
        }
    }
}

/// A completed reply waiting to be copied into a connection's write buffer:
/// `(connection slot, slot generation, encoded tagged response)`.
type Completion = (usize, u64, Vec<u8>);

/// Where worker threads hand finished replies to the event loop.
struct Outbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Outbox {
    fn push(&self, completion: Completion) {
        // Every update is one push or one take, so the queue is valid even
        // after a panic elsewhere poisoned the lock; a `Reply` dropped during
        // unwinding must still get its error out.
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        self.waker.wake();
    }
}

/// The one reply owed to one request. [`Reply::send`] queues it under the
/// request's id; a `Reply` dropped unsent — its callback was dropped without
/// being called, as when a model panics and unwinds its batch — queues an
/// in-band [`Response::Error`] instead, so every request is answered exactly
/// once.
struct Reply {
    outbox: Arc<Outbox>,
    slot: usize,
    gen: u64,
    id: u64,
    sent: bool,
}

impl Reply {
    fn send(mut self, resp: Response) {
        self.sent = true;
        self.outbox
            .push((self.slot, self.gen, resp.tagged(self.id).encode()));
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.sent {
            let resp = Response::Error(
                "internal error: the request was dropped without a reply (the model may have panicked)"
                    .into(),
            );
            self.outbox
                .push((self.slot, self.gen, resp.tagged(self.id).encode()));
        }
    }
}

/// One queued metadata/control job: runs on the control thread, replies
/// through the completion queue.
type ControlJob = Box<dyn FnOnce() + Send>;

/// The control thread's work queue. Metadata and control-plane requests are
/// pushed here by the event loop and executed off-loop, so an op that talks to
/// slow remote shards (rescan fan-out, drain-before-remove) can never stall
/// socket traffic.
struct ControlQueue {
    state: Mutex<(VecDeque<ControlJob>, bool)>,
    cv: Condvar,
}

impl ControlQueue {
    fn new() -> Self {
        ControlQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: ControlJob) {
        let mut st = self.state.lock().expect("control queue lock");
        st.0.push_back(job);
        self.cv.notify_one();
    }

    fn stop(&self) {
        let mut st = self.state.lock().expect("control queue lock");
        st.1 = true;
        self.cv.notify_all();
    }

    /// Worker loop: run jobs until stopped *and* drained (queued ops still get
    /// their in-band replies attempted during shutdown).
    fn run(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().expect("control queue lock");
                loop {
                    if let Some(job) = st.0.pop_front() {
                        break job;
                    }
                    if st.1 {
                        return;
                    }
                    st = self.cv.wait(st).expect("control queue lock");
                }
            };
            // A panicking op answers its own request through its `Reply`
            // guard as it unwinds; catching the unwind keeps this thread
            // alive for every later control op. The job holds no lock here.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        }
    }
}

/// A bound serving endpoint running a poll(2) event loop.
pub struct Server {
    listener: TcpListener,
    service: Arc<dyn TransformService>,
    engine: Option<Arc<BatchEngine>>,
    stop: Arc<AtomicBool>,
    outbox: Arc<Outbox>,
    tuning: ServerTuning,
    control: Arc<ControlQueue>,
    /// Connections that crossed the write-buffer high-water mark (counted once
    /// per excursion, not per loop pass).
    throttled: AtomicU64,
    /// Requests shed at the per-connection in-flight cap.
    shed_inflight: AtomicU64,
    /// Times the reactor's `wait` returned.
    wakeups: AtomicU64,
    /// Readiness events delivered across all wakeups.
    loop_events: AtomicU64,
    /// The reactor, parked here between bind and run (`run` takes it).
    reactor: Mutex<Option<PollReactor>>,
}

impl Server {
    /// Bind a listener and start a batch engine over the store. Use port 0 to let
    /// the OS pick a free port (see [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<ModelStore>,
        config: BatchConfig,
    ) -> Result<Self> {
        Self::bind_tuned(addr, store, config, ServerTuning::default())
    }

    /// [`Server::bind`] with explicit per-connection limits.
    pub fn bind_tuned(
        addr: impl ToSocketAddrs,
        store: Arc<ModelStore>,
        config: BatchConfig,
        tuning: ServerTuning,
    ) -> Result<Self> {
        let engine = Arc::new(BatchEngine::start(store, config));
        let mut server = Self::bind_service_tuned(
            addr,
            Arc::clone(&engine) as Arc<dyn TransformService>,
            tuning,
        )?;
        server.engine = Some(engine);
        Ok(server)
    }

    /// Bind a listener over any [`TransformService`] — the entry point the sharded
    /// router uses to put the same wire protocol in front of many shards.
    pub fn bind_service(
        addr: impl ToSocketAddrs,
        service: Arc<dyn TransformService>,
    ) -> Result<Self> {
        Self::bind_service_tuned(addr, service, ServerTuning::default())
    }

    /// [`Server::bind_service`] with explicit per-connection limits.
    pub fn bind_service_tuned(
        addr: impl ToSocketAddrs,
        service: Arc<dyn TransformService>,
        tuning: ServerTuning,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let reactor = PollReactor::new()?;
        Ok(Self {
            listener,
            service,
            engine: None,
            stop: Arc::new(AtomicBool::new(false)),
            outbox: Arc::new(Outbox {
                completions: Mutex::new(Vec::new()),
                waker: reactor.waker(),
            }),
            tuning,
            control: Arc::new(ControlQueue::new()),
            throttled: AtomicU64::new(0),
            shed_inflight: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            loop_events: AtomicU64::new(0),
            reactor: Mutex::new(Some(reactor)),
        })
    }

    /// This front's own counters (merged over the service's by `Stats`).
    fn own_counters(&self) -> Vec<(String, u64)> {
        let wakeups = self.wakeups.load(Ordering::Relaxed);
        let events = self.loop_events.load(Ordering::Relaxed);
        vec![
            (
                "server/throttled".into(),
                self.throttled.load(Ordering::Relaxed),
            ),
            (
                "server/shed_inflight".into(),
                self.shed_inflight.load(Ordering::Relaxed),
            ),
            ("server/wakeups".into(), wakeups),
            (
                "server/events_per_wakeup".into(),
                events.checked_div(wakeups).unwrap_or(0),
            ),
        ]
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// The engine requests are routed through, when the server was built with
    /// [`Server::bind`] (a router-backed server has no single engine).
    pub fn engine(&self) -> Option<&Arc<BatchEngine>> {
        self.engine.as_ref()
    }

    /// A handle that makes [`Server::run`] return.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            waker: self.outbox.waker.clone(),
        }
    }

    /// Run the event loop until shut down. Blocks the calling thread; every
    /// connection is serviced by this one thread plus the service's workers and
    /// the control thread.
    pub fn run(&self) -> Result<()> {
        let mut reactor = self
            .reactor
            .lock()
            .expect("reactor lock")
            .take()
            .ok_or_else(|| {
                ServeError::Io(std::io::Error::other(
                    "server event loop already ran; bind a fresh server",
                ))
            })?;

        // The control thread lives exactly as long as the loop: metadata and
        // control-plane ops queued by the loop run here, off the socket path.
        let control = Arc::clone(&self.control);
        let worker = std::thread::Builder::new()
            .name("tcca-serve-control".into())
            .spawn(move || control.run())
            .map_err(ServeError::Io)?;

        let result = self.event_loop(&mut reactor);
        self.control.stop();
        let _ = worker.join();
        result
    }

    /// Dispatch one request unwrapped from its envelope. `Ping` and an in-flight
    /// shed are answered inline; everything else replies through the completion
    /// queue — transforms via the service's workers, metadata and control-plane
    /// ops via the control thread.
    fn dispatch(&self, slot: usize, conn: &mut Conn, id: u64, deadline_ms: u32, inner: Request) {
        let inline = match &inner {
            Request::Ping => Some(Response::Pong),
            // Decode rejects nested envelopes.
            Request::Tagged { .. } => Some(Response::Error("nested tagged request".into())),
            // Admission control: a connection already owed its full in-flight
            // quota of async replies gets an in-band shed instead of another
            // engine submission. Metadata and control ops are exempt —
            // observability must stay responsive on a loaded connection.
            Request::Transform { .. } | Request::TransformView { .. } | Request::Outputs { .. }
                if conn.inflight >= self.tuning.max_inflight_per_conn =>
            {
                self.shed_inflight.fetch_add(1, Ordering::Relaxed);
                Some(Response::Overloaded(format!(
                    "connection at its in-flight limit ({} pending)",
                    conn.inflight
                )))
            }
            _ => None,
        };
        if let Some(resp) = inline {
            conn.queue_frame(&resp.tagged(id).encode());
            return;
        }
        conn.inflight += 1;
        let reply = Reply {
            outbox: Arc::clone(&self.outbox),
            slot,
            gen: conn.gen,
            id,
            sent: false,
        };
        // The wire deadline is a relative budget: the clock starts at receipt.
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        let embedding = |reply: Reply| -> crate::ReplyCallback {
            Box::new(move |result| {
                reply.send(result.map_or_else(error_response, Response::Embedding))
            })
        };
        match inner {
            Request::Transform { model, inputs } => {
                self.service
                    .submit_transform(&model, Arc::new(inputs), deadline, embedding(reply))
            }
            Request::TransformView {
                model,
                view,
                input,
                precision,
            } => self.service.submit_transform_view(
                &model,
                view as usize,
                Arc::new(input),
                precision,
                deadline,
                embedding(reply),
            ),
            Request::Outputs { model, inputs } => self.service.submit_outputs(
                &model,
                Arc::new(inputs),
                deadline,
                Box::new(move |result| {
                    reply.send(result.map_or_else(error_response, Response::Outputs))
                }),
            ),
            Request::ListModels => self.control(reply, |s| s.catalog().map(Response::Models)),
            Request::Rescan => self.control(reply, |s| s.rescan().map(Response::Rescanned)),
            Request::Refit => self.control(reply, |s| s.trigger_refit().map(Response::Stats)),
            Request::ClusterInfo => self.control(reply, |s| s.cluster().map(Response::Cluster)),
            Request::AddShard { addr } => {
                self.control(reply, move |s| s.add_shard(&addr).map(Response::Cluster))
            }
            // Blocks the control thread for the drain, not the loop.
            Request::RemoveShard { shard } => {
                self.control(reply, move |s| s.remove_shard(shard).map(Response::Cluster))
            }
            Request::Stats => {
                // Snapshot this front's counters on the loop; the service's
                // counters (which may fan out to remote shards) off it.
                let own = self.own_counters();
                self.control(reply, move |s| {
                    let mut counters = s.stats();
                    merge_counters(&mut counters, own);
                    Ok(Response::Stats(counters))
                })
            }
            Request::Ping | Request::Tagged { .. } => unreachable!("answered inline"),
        }
    }

    /// Run a metadata or control-plane op on the control thread and send its
    /// outcome as the reply.
    fn control(
        &self,
        reply: Reply,
        op: impl FnOnce(&dyn TransformService) -> Result<Response> + Send + 'static,
    ) {
        let service = Arc::clone(&self.service);
        self.control.push(Box::new(move || {
            reply.send(op(service.as_ref()).unwrap_or_else(error_response))
        }));
    }
}

/// Makes a running [`Server::run`] loop return.
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    waker: Waker,
}

impl ShutdownHandle {
    /// Signal the event loop to exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// One client connection's event-loop state.
struct Conn {
    stream: TcpStream,
    /// Slot generation: completions for a previous tenant of this slot are dropped.
    gen: u64,
    /// The interest currently registered with the reactor (diffed each pass so
    /// unchanged connections cost no `modify`, which scans the registrations).
    interest: Interest,
    /// Received, not yet parsed bytes.
    rbuf: Vec<u8>,
    /// Encoded frames not yet written to the socket.
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    /// Peer hung up (or a framing violation): flush `wbuf`, then drop.
    closing: bool,
    /// Fatal socket error: drop immediately.
    dead: bool,
    /// Async replies still owed to this connection. A half-closed connection
    /// (client sent its requests, then `shutdown(SHUT_WR)`, and is reading) stays
    /// alive until every owed reply has been queued.
    inflight: usize,
    /// Whether the last loop pass had this connection above the write-buffer
    /// high-water mark — lets the server count excursions, not loop passes.
    was_throttled: bool,
}

impl Conn {
    fn queue_frame(&mut self, payload: &[u8]) {
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Write as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) {
        use std::io::Write;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
    }

    fn has_pending_writes(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

impl Server {
    fn event_loop(&self, reactor: &mut PollReactor) -> Result<()> {
        use std::os::unix::io::AsRawFd;

        self.listener.set_nonblocking(true)?;
        reactor.register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let mut listener_active = true;

        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut next_gen: u64 = 1;
        let mut events: Vec<Event> = Vec::new();

        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }

            // 1. Drain completions into per-connection write buffers.
            let ready: Vec<Completion> = std::mem::take(
                &mut *self
                    .outbox
                    .completions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            for (slot, gen, payload) in ready {
                if let Some(Some(conn)) = conns.get_mut(slot) {
                    if conn.gen == gen && !conn.dead {
                        conn.inflight = conn.inflight.saturating_sub(1);
                        conn.queue_frame(&payload);
                    }
                }
            }

            // 2. Opportunistic flush (skips a wait round-trip for small replies).
            for conn in conns.iter_mut().flatten() {
                if conn.has_pending_writes() {
                    conn.flush();
                }
            }
            self.reap(reactor, &mut conns);

            // 3. Interest maintenance: diff each connection's desired interest
            //    against what the reactor has, and modify only on change.
            let mut live = 0usize;
            for (slot, conn) in conns.iter_mut().enumerate() {
                let Some(conn) = conn else { continue };
                live += 1;
                // Backpressure: stop reading while the peer owes us a drain.
                let throttled =
                    conn.wbuf.len().saturating_sub(conn.wpos) >= self.tuning.wbuf_high_water;
                if throttled && !conn.was_throttled {
                    self.throttled.fetch_add(1, Ordering::Relaxed);
                }
                conn.was_throttled = throttled;
                let desired = Interest {
                    read: !(conn.closing || throttled),
                    write: conn.has_pending_writes(),
                };
                if desired != conn.interest {
                    match reactor.modify(conn.stream.as_raw_fd(), slot as u64, desired) {
                        Ok(()) => conn.interest = desired,
                        Err(_) => conn.dead = true,
                    }
                }
            }
            let want_listener = live < MAX_CONNS;
            if want_listener != listener_active {
                let interest = if want_listener {
                    Interest::READ
                } else {
                    Interest::NONE
                };
                reactor.modify(self.listener.as_raw_fd(), TOKEN_LISTENER, interest)?;
                listener_active = want_listener;
            }

            // 4. Wait for readiness (bounded so the stop flag is honoured).
            reactor.wait(&mut events, 250)?;
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.loop_events
                .fetch_add(events.len() as u64, Ordering::Relaxed);

            // 5. Dispatch. Tokens are stable across the pass: nothing is reaped
            //    between wait and dispatch, and connections accepted during the
            //    pass can have no events yet.
            for ev in &events {
                if ev.token == TOKEN_LISTENER {
                    self.accept_ready(reactor, &mut conns, &mut next_gen);
                    continue;
                }
                let slot = ev.token as usize;
                let Some(Some(conn)) = conns.get_mut(slot) else {
                    continue;
                };
                if ev.error {
                    conn.dead = true;
                    continue;
                }
                if ev.readable {
                    self.read_ready(slot, conn);
                }
                if (ev.writable || ev.hangup) && !conn.dead {
                    conn.flush();
                }
            }
            self.reap(reactor, &mut conns);
        }
    }

    /// Accept everything the listener has ready, registering each connection
    /// with the reactor under its slot token.
    fn accept_ready(
        &self,
        reactor: &mut PollReactor,
        conns: &mut Vec<Option<Conn>>,
        next_gen: &mut u64,
    ) {
        use std::os::unix::io::AsRawFd;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = Conn {
                        stream,
                        gen: *next_gen,
                        interest: Interest::READ,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        closing: false,
                        dead: false,
                        inflight: 0,
                        was_throttled: false,
                    };
                    *next_gen += 1;
                    let slot = match conns.iter().position(Option::is_none) {
                        Some(slot) => slot,
                        None => {
                            conns.push(None);
                            conns.len() - 1
                        }
                    };
                    if reactor
                        .register(conn.stream.as_raw_fd(), slot as u64, Interest::READ)
                        .is_err()
                    {
                        // Registration failed (fd pressure): drop the socket.
                        continue;
                    }
                    conns[slot] = Some(conn);
                    if conns.iter().flatten().count() >= MAX_CONNS {
                        break; // interest maintenance mutes the listener next pass
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // A failed accept (peer vanished) is not fatal.
                    eprintln!("tcca_serve: accept failed: {e}");
                    break;
                }
            }
        }
    }

    /// Drop connections that are dead, or closing with nothing left to flush and
    /// no replies still owed (a half-closed peer is still waiting to read them).
    /// Deregisters each reaped socket before closing it.
    fn reap(&self, reactor: &mut PollReactor, conns: &mut [Option<Conn>]) {
        use std::os::unix::io::AsRawFd;
        for conn in conns.iter_mut() {
            let drop_it = match conn {
                Some(c) => c.dead || (c.closing && !c.has_pending_writes() && c.inflight == 0),
                None => false,
            };
            if drop_it {
                let c = conn.take().expect("reaped conn exists");
                let _ = reactor.deregister(c.stream.as_raw_fd());
            }
        }
    }

    /// Read up to [`READ_BUDGET`] bytes, then parse and dispatch complete frames.
    fn read_ready(&self, slot: usize, conn: &mut Conn) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        let mut taken = 0usize;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    if taken >= READ_BUDGET {
                        break; // level-triggered readiness re-reports the leftovers
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }

        // Parse complete frames off the front of rbuf.
        let mut pos = 0usize;
        while conn.rbuf.len() - pos >= 4 && !conn.closing {
            let len =
                u32::from_le_bytes(conn.rbuf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len as u64 > u64::from(MAX_FRAME_LEN) {
                // Framing is lost: reply in-band, then close after flushing
                // (and after every reply still owed has been written).
                conn.queue_frame(
                    &Response::Error(format!(
                        "protocol violation: frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
                    ))
                    .encode(),
                );
                conn.closing = true;
                break;
            }
            if conn.rbuf.len() - pos - 4 < len {
                break; // incomplete frame: wait for more bytes
            }
            let decoded = Request::decode(&conn.rbuf[pos + 4..pos + 4 + len]);
            pos += 4 + len;
            // The frame boundary held, so anything wrong with the *content* is
            // answered in-band (untagged: there is no trustworthy id) and the
            // connection keeps serving.
            match decoded {
                Ok(Request::Tagged {
                    id,
                    deadline_ms,
                    inner,
                }) => self.dispatch(slot, conn, id, deadline_ms, *inner),
                Ok(_) => conn.queue_frame(
                    &Response::Error(
                        "protocol violation: untagged request (every request travels in the tagged envelope)"
                            .into(),
                    )
                    .encode(),
                ),
                Err(e) => conn.queue_frame(&Response::Error(e.to_string()).encode()),
            }
        }
        conn.rbuf.drain(..pos);

        if eof {
            if !conn.rbuf.is_empty() && !conn.closing {
                // Peer hung up mid-frame; tell it (it may still read) and close.
                conn.queue_frame(
                    &Response::Error("protocol violation: connection closed mid frame".into())
                        .encode(),
                );
            }
            conn.closing = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use datasets::{secstr_dataset, SecStrConfig};
    use linalg::Matrix;
    use mvcore::{EstimatorRegistry, FitSpec, InputKind};

    fn fixture_views() -> Vec<Matrix> {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: 24,
            seed: 31,
            difficulty: 0.8,
        });
        data.views()
            .iter()
            .map(|v| v.select_rows(&(0..6.min(v.rows())).collect::<Vec<_>>()))
            .collect()
    }

    fn bound_server(store: Arc<ModelStore>) -> (Server, SocketAddr) {
        let engine = Arc::new(BatchEngine::start(
            store,
            BatchConfig {
                max_batch: 16,
                ..BatchConfig::default()
            },
        ));
        let server =
            Server::bind_service("127.0.0.1:0", engine as Arc<dyn TransformService>).unwrap();
        let addr = server.local_addr().unwrap();
        (server, addr)
    }

    #[test]
    fn tcp_roundtrip_matches_in_process_transform() {
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let model = registry
            .fit("TCCA", &views, &FitSpec::with_rank(2).seed(6))
            .unwrap();
        let expected = model.transform(&views).unwrap();

        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert("tcca", model);
        let (server, addr) = bound_server(store);
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();

        let catalog = client.list_models().unwrap();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].name, "tcca");
        assert_eq!(catalog[0].method, "TCCA");
        assert_eq!(catalog[0].input_kind, InputKind::Views);

        let served = client.transform("tcca", &views).unwrap();
        assert_eq!(served, expected, "wire transport must be bit-exact");

        // Request errors arrive in-band and the connection survives them.
        let err = client.transform("missing", &views).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        let err = client
            .transform("tcca", &views[..1])
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("view"), "{err}");
        client.ping().unwrap();

        shutdown.shutdown();
        server_thread.join().unwrap();
    }

    #[test]
    fn pipelined_tagged_requests_complete_out_of_order() {
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let model = registry
            .fit("PCA", &views, &FitSpec::with_rank(2).seed(5))
            .unwrap();
        let expected = model.transform(&views).unwrap();

        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert("pca", model);
        let (server, addr) = bound_server(store);
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        // Fire three tagged requests back to back without reading, then collect
        // replies by id: the transform is free to complete after the pings.
        let mut client = Client::connect(addr).unwrap();
        let id_a = client
            .send(&Request::Transform {
                model: "pca".into(),
                inputs: views.clone(),
            })
            .unwrap();
        let id_b = client.send(&Request::Ping).unwrap();
        let id_c = client.send(&Request::ListModels).unwrap();
        let mut replies = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let (id, resp) = client.recv().unwrap();
            replies.insert(id, resp);
        }
        assert_eq!(replies.len(), 3);
        match replies.remove(&id_a) {
            Some(Response::Embedding(z)) => assert_eq!(z, expected),
            other => panic!("unexpected transform reply: {other:?}"),
        }
        assert_eq!(replies.remove(&id_b), Some(Response::Pong));
        match replies.remove(&id_c) {
            Some(Response::Models(models)) => assert_eq!(models.len(), 1),
            other => panic!("unexpected catalog reply: {other:?}"),
        }

        shutdown.shutdown();
        server_thread.join().unwrap();
    }

    #[test]
    fn many_idle_connections_do_not_block_service() {
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let model = registry
            .fit("PCA", &views, &FitSpec::with_rank(2).seed(9))
            .unwrap();
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert("pca", model);
        let (server, addr) = bound_server(store);
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        // Park a pile of idle connections, then serve a request through a fresh
        // one — the event loop must not be pinned by the idlers.
        let idle: Vec<Client> = (0..64).map(|_| Client::connect(addr).unwrap()).collect();
        let mut client = Client::connect(addr).unwrap();
        assert!(client.transform("pca", &views).is_ok());
        drop(idle);
        client.ping().unwrap();

        shutdown.shutdown();
        server_thread.join().unwrap();
    }

    #[test]
    fn one_server_reply_is_bit_identical_and_counts_wakeups() {
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let model = registry
            .fit("TCCA", &views, &FitSpec::with_rank(2).seed(6))
            .unwrap();
        let expected = model.transform(&views).unwrap();
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        store.insert("tcca", model);
        let (server, addr) = bound_server(store);
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        let mut client = Client::connect(addr).unwrap();
        let served = client.transform("tcca", &views).unwrap();
        let stats = client.stats().unwrap();
        shutdown.shutdown();
        server_thread.join().unwrap();
        assert_eq!(served, expected, "the served reply must be bit-exact");

        // Loop observability: wakeups and events/wakeup surface through Stats.
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert!(get("server/wakeups") > 0);
        let _ = get("server/events_per_wakeup");
    }

    #[test]
    fn control_ops_error_in_band_on_engine_backed_server() {
        let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
        let (server, addr) = bound_server(store);
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        // A plain engine has no shard table: control ops answer with an
        // in-band error and the connection survives.
        let mut client = Client::connect(addr).unwrap();
        let err = client.cluster_info().unwrap_err();
        assert!(err.to_string().contains("control plane"), "{err}");
        let err = client.add_shard("127.0.0.1:1").unwrap_err();
        assert!(err.to_string().contains("control plane"), "{err}");
        let err = client.remove_shard(0).unwrap_err();
        assert!(err.to_string().contains("control plane"), "{err}");
        client.ping().unwrap();

        shutdown.shutdown();
        server_thread.join().unwrap();
    }
}
