//! Blocking TCP client for the `tcca_serve` wire protocol (see [`crate::wire`]).
//!
//! Every call goes out in the tagged envelope. [`Client::call`] is the one
//! blocking path: it sends a [`Request`] with an optional deadline budget and
//! waits for the reply carrying the same id, skipping late replies to earlier
//! calls that timed out. The typed methods ([`Client::transform`],
//! [`Client::ping`], …) are thin wrappers over it. [`Client::send`] /
//! [`Client::recv`] pipeline instead: `send` fires a request *without waiting*,
//! and `recv` returns the next `(id, response)` pair the server produced —
//! possibly out of request order — which keeps the socket full instead of
//! paying a round trip per request.
//!
//! ## Timeouts
//!
//! [`Client::connect_timeout`] used to arm one socket timeout for the life of
//! the connection, which let a long-lived connection accumulate slack: a write
//! that burned most of the budget left the read with a full, fresh timeout.
//! The client now carries a per-**operation** budget ([`Client::set_op_timeout`]):
//! each call re-arms the socket with the time *remaining* in that operation's
//! budget before every write and read, so one call can never take more than its
//! budget end to end.
//!
//! ## Fault injection
//!
//! When a [`crate::FaultPlan`] targeting this connection's port is installed,
//! each connect/read/write consults the deterministic fault layer
//! ([`crate::faults`]) — injected refusals, stalls and truncated frames exercise
//! exactly the failure paths the router's retry discipline must survive. With no
//! plan installed the entire cost is one relaxed atomic load per connection.

use crate::faults::{self, Site};
use crate::wire::{
    read_frame, write_frame, ModelInfo, NamedOutput, Precision, Request, RescanReport, Response,
    ShardInfo,
};
use crate::{Result, ServeError};
use linalg::Matrix;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One connection to a serving endpoint.
pub struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    next_id: u64,
    /// Per-operation time budget; `None` waits indefinitely.
    op_timeout: Option<Duration>,
    /// Whether this connection's peer port was in the installed fault plan's
    /// blast radius at connect time (re-checked against the layer's activity
    /// flag on every use, so clearing the plan instantly restores clean I/O).
    faulty: bool,
}

impl Client {
    /// Connect to a serving endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let resolved = resolve(addr)?;
        let faulty = check_connect_fault(resolved.port())?;
        let stream = TcpStream::connect(resolved)?;
        Self::from_stream(stream, None, faulty)
    }

    /// Connect with a deadline on the connect and a per-operation budget on
    /// every subsequent call. The router uses this for its shard links: a hung
    /// shard then surfaces as an I/O error (and fails over) instead of wedging
    /// a worker forever.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self> {
        let resolved = resolve(addr)?;
        let faulty = check_connect_fault(resolved.port())?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        Self::from_stream(stream, Some(timeout), faulty)
    }

    fn from_stream(stream: TcpStream, op_timeout: Option<Duration>, faulty: bool) -> Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: std::io::BufReader::new(stream.try_clone()?),
            writer: std::io::BufWriter::new(stream),
            next_id: 1,
            op_timeout,
            faulty,
        })
    }

    /// Set the per-operation time budget (`None` waits indefinitely). Each
    /// subsequent call gets a fresh budget; the socket is re-armed with the
    /// remaining slice before every write and read inside the call.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        self.op_timeout = timeout;
    }

    /// This operation's absolute deadline under the current budget.
    fn op_deadline(&self) -> Option<Instant> {
        self.op_timeout.map(|t| Instant::now() + t)
    }

    fn faults_armed(&self) -> bool {
        self.faulty && faults::active()
    }

    /// Time left before `deadline`, or the in-band timeout error.
    fn remaining(deadline: Instant) -> Result<Duration> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "operation deadline elapsed",
            )));
        }
        Ok(left)
    }

    /// Write one request frame, re-arming the write timeout with the remaining
    /// budget (and consulting the fault layer when this connection is in a
    /// plan's blast radius).
    fn write_request(&mut self, payload: &[u8], deadline: Option<Instant>) -> Result<()> {
        if self.faults_armed() {
            if let Some(delay) = faults::fires(Site::WriteDelay) {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            if faults::fires(Site::WriteTrunc).is_some() {
                // Emit half a length prefix, then fail: the peer is left
                // holding an unfinishable frame, exactly like a sender dying
                // mid-write.
                use std::io::Write;
                let len = (payload.len() as u32).to_le_bytes();
                let _ = self.writer.write_all(&len[..2]);
                let _ = self.writer.flush();
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected truncated frame (fault layer)",
                )));
            }
        }
        if let Some(d) = deadline {
            self.writer
                .get_ref()
                .set_write_timeout(Some(Self::remaining(d)?))?;
        }
        write_frame(&mut self.writer, payload)?;
        Ok(())
    }

    /// Read one reply frame, re-arming the read timeout with the remaining
    /// budget.
    fn read_reply(&mut self, deadline: Option<Instant>) -> Result<Vec<u8>> {
        if self.faults_armed() {
            if let Some(delay) = faults::fires(Site::ReadDelay) {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
        if let Some(d) = deadline {
            self.reader
                .get_ref()
                .set_read_timeout(Some(Self::remaining(d)?))?;
        }
        read_frame(&mut self.reader)?.ok_or_else(|| {
            ServeError::Protocol("server closed the connection before replying".into())
        })
    }

    /// Write `request` in the tagged envelope under a fresh id and return the id.
    fn send_tagged(
        &mut self,
        request: Request,
        budget_ms: u32,
        deadline: Option<Instant>,
    ) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.write_request(&request.tagged_deadline(id, budget_ms).encode(), deadline)?;
        Ok(id)
    }

    /// One blocking call: send `request` with `budget_ms` of deadline on the
    /// wire (`0` = none; the server drops work it cannot start in time) and
    /// wait, under the per-operation timeout, for the reply carrying its id.
    /// Replies to earlier requests on this connection — late answers to calls
    /// that timed out — are skipped, so one lost reply never shifts every
    /// later call by one. In-band `Error`, `Overloaded` and `DeadlineExceeded`
    /// verdicts come back as the matching [`ServeError`] variant.
    pub fn call(&mut self, request: Request, budget_ms: u32) -> Result<Response> {
        let deadline = self.op_deadline();
        let id = self.send_tagged(request, budget_ms, deadline)?;
        let reply = loop {
            match Response::decode(&self.read_reply(deadline)?)? {
                Response::Tagged { id: rid, .. } if rid < id => continue,
                Response::Tagged { id: rid, inner } if rid == id => break *inner,
                // Untagged: the server could not decode one of our frames.
                error @ Response::Error(_) => break error,
                other => {
                    return Err(ServeError::Protocol(format!(
                        "expected the reply tagged {id}, got {other:?}"
                    )))
                }
            }
        };
        match reply {
            Response::Error(msg) => Err(ServeError::Remote(msg)),
            Response::Overloaded(msg) => Err(ServeError::Overloaded(msg)),
            Response::DeadlineExceeded(msg) => Err(ServeError::DeadlineExceeded(msg)),
            other => Ok(other),
        }
    }

    /// Pipelined send: wrap `request` in the tagged envelope with a fresh id,
    /// write it, and return the id without waiting for the reply.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let deadline = self.op_deadline();
        self.send_tagged(request.clone(), 0, deadline)
    }

    /// Pipelined receive: the next tagged reply as `(id, response)`. Replies
    /// may arrive out of request order; match them by id.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        let deadline = self.op_deadline();
        let payload = self.read_reply(deadline)?;
        match Response::decode(&payload)? {
            Response::Tagged { id, inner } => Ok((id, *inner)),
            other => Err(ServeError::Protocol(format!(
                "expected a tagged reply, got {other:?}"
            ))),
        }
    }

    /// Project instances through a stored model; the reply is bit-exact against the
    /// in-process `transform` of the same model.
    pub fn transform(&mut self, model: &str, inputs: &[Matrix]) -> Result<Matrix> {
        let request = Request::Transform {
            model: model.to_string(),
            inputs: inputs.to_vec(),
        };
        embedding(self.call(request, 0)?)
    }

    /// Project a single view through the model's per-view projection.
    pub fn transform_view(&mut self, model: &str, view: usize, input: &Matrix) -> Result<Matrix> {
        let request = Request::TransformView {
            model: model.to_string(),
            view: view as u32,
            input: input.clone(),
            precision: Precision::F64,
        };
        embedding(self.call(request, 0)?)
    }

    /// All named candidate outputs of a stored model — the serving path for
    /// the multi-candidate baselines whose `transform` rejects by design.
    pub fn outputs(&mut self, model: &str, inputs: &[Matrix]) -> Result<Vec<NamedOutput>> {
        let request = Request::Outputs {
            model: model.to_string(),
            inputs: inputs.to_vec(),
        };
        candidates(self.call(request, 0)?)
    }

    /// Ask the server to re-scan its model directory. Returns what changed.
    pub fn rescan(&mut self) -> Result<RescanReport> {
        match self.call(Request::Rescan, 0)? {
            Response::Rescanned(report) => Ok(report),
            other => Err(unexpected("Rescan", other)),
        }
    }

    /// The server's observability counters: engine statistics plus trainer
    /// counters when a live-refresh trainer is attached.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        match self.call(Request::Stats, 0)? {
            Response::Stats(counters) => Ok(counters),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// Trigger an asynchronous model refresh from live-traffic statistics.
    /// Returns the counter snapshot at trigger time; poll [`Client::stats`] for
    /// `trainer/refits` to watch the refresh land.
    pub fn refit(&mut self) -> Result<Vec<(String, u64)>> {
        match self.call(Request::Refit, 0)? {
            Response::Stats(counters) => Ok(counters),
            other => Err(unexpected("Refit", other)),
        }
    }

    /// The server's model catalog.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>> {
        match self.call(Request::ListModels, 0)? {
            Response::Models(models) => Ok(models),
            other => Err(unexpected("ListModels", other)),
        }
    }

    /// The cluster membership table of a router-backed server.
    pub fn cluster_info(&mut self) -> Result<Vec<ShardInfo>> {
        match self.call(Request::ClusterInfo, 0)? {
            Response::Cluster(shards) => Ok(shards),
            other => Err(unexpected("ClusterInfo", other)),
        }
    }

    /// Admit a new remote shard at `addr` into a router-backed server.
    /// The server validates the shard (connect + ping) before admitting it;
    /// returns the updated cluster snapshot.
    pub fn add_shard(&mut self, addr: &str) -> Result<Vec<ShardInfo>> {
        let request = Request::AddShard {
            addr: addr.to_string(),
        };
        match self.call(request, 0)? {
            Response::Cluster(shards) => Ok(shards),
            other => Err(unexpected("AddShard", other)),
        }
    }

    /// Drain and remove the shard with the given stable id. Blocks until
    /// in-flight work on the shard completed (or the server's drain timeout
    /// expired); returns the updated cluster snapshot.
    pub fn remove_shard(&mut self, shard: u64) -> Result<Vec<ShardInfo>> {
        match self.call(Request::RemoveShard { shard }, 0)? {
            Response::Cluster(shards) => Ok(shards),
            other => Err(unexpected("RemoveShard", other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(Request::Ping, 0)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Ping", other)),
        }
    }
}

/// A reply of the wrong kind for `op`.
fn unexpected(op: &str, reply: Response) -> ServeError {
    ServeError::Protocol(format!("unexpected reply to {op}: {reply:?}"))
}

/// The embedding a `Transform` or `TransformView` reply carries.
pub(crate) fn embedding(reply: Response) -> Result<Matrix> {
    match reply {
        Response::Embedding(z) => Ok(z),
        other => Err(unexpected("a transform", other)),
    }
}

/// The candidates an `Outputs` reply carries.
pub(crate) fn candidates(reply: Response) -> Result<Vec<NamedOutput>> {
    match reply {
        Response::Outputs(candidates) => Ok(candidates),
        other => Err(unexpected("Outputs", other)),
    }
}

fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ))
    })
}

/// Fault hook at connect time: decide whether this connection is in the
/// installed plan's blast radius, and if so whether this particular connect is
/// refused outright.
fn check_connect_fault(port: u16) -> Result<bool> {
    let faulty = faults::targets_port(port);
    if faulty && faults::fires(Site::ConnectRefuse).is_some() {
        return Err(ServeError::Io(faults::refusal()));
    }
    Ok(faulty)
}
