//! The binary wire protocol spoken by [`crate::Server`] and [`crate::Client`].
//!
//! Every message travels in one **frame**: a `u32` little-endian payload length
//! followed by that many payload bytes (capped at 1 GiB — a corrupt length must not
//! drive a huge allocation). The payload's first byte is an opcode; matrices are
//! `u64 rows, u64 cols` followed by row-major IEEE-754 `f64` bit patterns, exactly
//! like the `MVTC` persistence format, so embeddings survive the wire bit-for-bit.
//!
//! ## The envelope
//!
//! Every request travels in one fixed header, and its reply comes back in a
//! `Tagged` response carrying the same id:
//!
//! | payload bytes | field |
//! |---|---|
//! | 0 | opcode `16` |
//! | 1..9 | `u64` request id, echoed around the reply |
//! | 9..13 | `u32` deadline budget in milliseconds from receipt, `0` = none |
//! | 13.. | the inner request (any opcode below except `16`) |
//!
//! Replies may arrive out of request order — cheap ops like `Ping` overtake
//! in-flight transforms, and different models complete independently — so
//! clients match them by id. The budget is relative because absolute clocks do
//! not survive the wire: work still queued when it runs out is answered with
//! `DeadlineExceeded` instead of being computed. A frame that is not an
//! envelope, or that fails to decode, gets exactly one *untagged* `Error`
//! reply, and the connection survives whenever the frame boundary held.
//!
//! Inner requests:
//!
//! | opcode | message | layout |
//! |---|---|---|
//! | 1 | `Transform` | name (`u32` + UTF-8), `u32` input count, matrices |
//! | 2 | `ListModels` | — |
//! | 3 | `Ping` | — |
//! | 4 | `Outputs` | name, `u32` input count, matrices |
//! | 5 | `TransformView` | name, `u32` view index, `u8` [`Precision`] (0 = f64, the only value), one matrix |
//! | 6 | `Rescan` | — |
//! | 7 | `Stats` | — |
//! | 8 | `Refit` | — |
//! | 9 | `AddShard` | address (`u32` + UTF-8) |
//! | 10 | `RemoveShard` | `u64` shard id |
//! | 11 | `ClusterInfo` | — |
//!
//! Responses:
//!
//! | opcode | message | layout |
//! |---|---|---|
//! | 0 | `Embedding` | one matrix |
//! | 1 | `Error` | message (`u32` + UTF-8) |
//! | 2 | `Models` | `u32` count, then per model: name, method, `u64` dim, `u32` views, `u8` kind, `u64` version |
//! | 3 | `Pong` | — |
//! | 4 | `Outputs` | `u32` count, then per candidate: label, `u8` kind, one matrix |
//! | 5 | `Rescanned` | `u32` added, `u32` removed, `u32` reloaded, `u32` corrupt skipped |
//! | 6 | `Stats` | `u32` count, then per counter: name (`u32` + UTF-8), `u64` value |
//! | 7 | `Overloaded` | reason (`u32` + UTF-8) |
//! | 8 | `DeadlineExceeded` | reason (`u32` + UTF-8) |
//! | 9 | `Cluster` | `u32` count, then per shard: `u64` id, label, `u8` flags (bit 0 alive, bit 1 draining), `u64` in-flight, `u64` routed |
//! | 16 | `Tagged` | `u64` request id, then the inner response |
//!
//! A `TransformView` is projected in `f64` and its embedding returned bit-exact;
//! any precision byte other than 0 is answered `Error` (`unknown transform
//! precision`).
//!
//! Rejection is **in-band and typed**: a request shed by admission control (a
//! full queue, a per-model cap, a per-connection in-flight cap) is answered
//! with `Overloaded`, so callers can tell *retry elsewhere* from *the request
//! itself is bad* (`Error`). The control-plane ops (`AddShard`, `RemoveShard`,
//! `ClusterInfo`) sent to a server without a shard table are answered with an
//! in-band `Error`.

use crate::{Result, ServeError};
use linalg::Matrix;
use mvcore::InputKind;
use std::io::{Read, Write};

/// Maximum accepted frame payload (1 GiB).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Opcode of the `Tagged` envelope (shared by requests and responses).
pub const TAGGED_OPCODE: u8 = 16;

/// The precision byte of a `TransformView` request. It has one value: the
/// projection runs in `f64`, bit-exact against the in-process transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full double precision (wire byte 0).
    #[default]
    F64 = 0,
}

/// A request from client to server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Project instances through the named model.
    Transform {
        /// Store name of the model.
        model: String,
        /// One matrix per view (features × instances) or per kernel block
        /// (instances × train instances), matching the model's input kind.
        inputs: Vec<Matrix>,
    },
    /// Ask for the store's model catalog.
    ListModels,
    /// Liveness probe.
    Ping,
    /// All named candidate representations of the given instances. This is the
    /// serving path for multi-candidate methods (BSF/BSK/AVG, pairwise CCA/KCCA)
    /// whose `transform` rejects by design.
    Outputs {
        /// Store name of the model.
        model: String,
        /// One matrix per view or kernel block, as for `Transform`.
        inputs: Vec<Matrix>,
    },
    /// Project instances of a *single* view through the model's per-view projection.
    /// Batched without stitching the other `m − 1` views.
    TransformView {
        /// Store name of the model.
        model: String,
        /// Which view the matrix belongs to.
        view: u32,
        /// The view matrix (features × instances, or a kernel block).
        input: Matrix,
        /// The precision byte; always [`Precision::F64`].
        precision: Precision,
    },
    /// Re-scan the server's model directory for new/changed/removed `.mvm` files.
    /// A router forwards this to every live shard.
    Rescan,
    /// Ask for the server's counters: batch-engine statistics plus trainer
    /// counters when a live-refresh trainer is attached. A router sums counters
    /// across its live shards.
    Stats,
    /// Trigger a model refresh from accumulated live-traffic statistics. The
    /// trigger is asynchronous: the reply is the counter snapshot at trigger time.
    Refit,
    /// Admit a new remote shard at the given address. The server validates
    /// the address with a connect + ping before it joins the rendezvous table;
    /// the reply is the updated cluster snapshot.
    AddShard {
        /// `host:port` of a running serving endpoint.
        addr: String,
    },
    /// Drain and remove the shard with this id. The shard stops receiving
    /// new placements immediately; the reply is sent once in-flight work has
    /// completed (or the drain timeout expired) and the shard left the table.
    RemoveShard {
        /// The shard's stable id, as reported by `ClusterInfo`.
        shard: u64,
    },
    /// Read the cluster membership table.
    ClusterInfo,
    /// The envelope every request travels in: an id the server echoes around
    /// its reply, enabling pipelining and out-of-order completion.
    Tagged {
        /// Client-chosen request id.
        id: u64,
        /// Remaining time budget in milliseconds, relative to server receipt;
        /// `0` means no deadline. Work still queued when the budget runs out is
        /// answered with [`Response::DeadlineExceeded`] instead of being
        /// computed.
        deadline_ms: u32,
        /// The wrapped (untagged) request.
        inner: Box<Request>,
    },
}

/// Catalog entry returned by [`Response::Models`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Store name (file stem).
    pub name: String,
    /// Method display name (registry key).
    pub method: String,
    /// Embedding width.
    pub dim: usize,
    /// Number of input matrices `transform` expects.
    pub num_views: usize,
    /// Input kind expected by `transform`.
    pub input_kind: InputKind,
    /// Lineage version of the backing file: `0` for freshly fitted or
    /// pre-lineage models, incremented by every live refresh.
    pub version: u64,
}

/// Whether a served candidate is an embedding or a precomputed distance matrix
/// (the wire-level mirror of `mvcore::Output`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// An `N × dim` embedding.
    Embedding,
    /// An `N × N` squared-distance matrix.
    Distances,
}

/// One labelled candidate in a [`Response::Outputs`] reply.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedOutput {
    /// Model-provided candidate name (`view0`, `pair(0,2)`, …).
    pub label: String,
    /// Embedding or distance matrix.
    pub kind: CandidateKind,
    /// The candidate's values.
    pub matrix: Matrix,
}

/// Counters reported by a [`Response::Rescanned`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RescanReport {
    /// Files indexed for the first time.
    pub added: usize,
    /// Entries dropped because their backing file vanished.
    pub removed: usize,
    /// Entries whose file changed on disk (header re-read, cached payload dropped).
    pub reloaded: usize,
    /// Files skipped because their header failed to parse. Non-zero means
    /// the directory holds models the store silently cannot serve.
    pub corrupt_skipped: usize,
}

impl RescanReport {
    /// Element-wise sum (a router accumulates per-shard reports).
    pub fn merge(&mut self, other: RescanReport) {
        self.added += other.added;
        self.removed += other.removed;
        self.reloaded += other.reloaded;
        self.corrupt_skipped += other.corrupt_skipped;
    }
}

/// One shard's entry in a [`Response::Cluster`] membership snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Stable shard id. Ids are assigned once and never reused, so a client
    /// holding an id across a remove/add cycle can never address the wrong
    /// shard.
    pub id: u64,
    /// Human-readable label: `local-N` for in-process shards, the socket
    /// address for remote ones.
    pub label: String,
    /// Whether the shard is currently considered live by the health tracker.
    pub alive: bool,
    /// Whether the shard is draining: excluded from new placements, finishing
    /// in-flight work before removal.
    pub draining: bool,
    /// Requests currently in flight against this shard.
    pub inflight: u64,
    /// Requests routed to this shard since it joined.
    pub routed: u64,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The embedding produced by a `Transform` request.
    Embedding(Matrix),
    /// The request failed; human-readable reason.
    Error(String),
    /// The store catalog.
    Models(Vec<ModelInfo>),
    /// Reply to `Ping`.
    Pong,
    /// The named candidates produced by an `Outputs` request.
    Outputs(Vec<NamedOutput>),
    /// Reply to `Rescan`.
    Rescanned(RescanReport),
    /// Reply to `Stats` and `Refit`: counter name/value pairs.
    Stats(Vec<(String, u64)>),
    /// Admission control shed the request; human-readable reason. The
    /// request was rejected before any computation — retrying elsewhere is safe.
    Overloaded(String),
    /// The request's deadline passed before the work ran; reason.
    DeadlineExceeded(String),
    /// Cluster membership snapshot: the reply to `ClusterInfo` and to a
    /// completed `AddShard` / `RemoveShard`.
    Cluster(Vec<ShardInfo>),
    /// The envelope echoing a `Tagged` request's id.
    Tagged {
        /// The id of the request this reply answers.
        id: u64,
        /// The wrapped (untagged) reply.
        inner: Box<Response>,
    },
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    push_u64(out, m.rows() as u64);
    push_u64(out, m.cols() as u64);
    out.reserve(m.as_slice().len() * 8);
    for &x in m.as_slice() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        match end {
            Some(end) => {
                let s = &self.data[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ServeError::Protocol(format!(
                "frame truncated while reading {what}"
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self, what: &str) -> Result<String> {
        let n = self.u32(what)? as usize;
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| ServeError::Protocol(format!("{what} is not valid UTF-8")))
    }

    fn matrix(&mut self, what: &str) -> Result<Matrix> {
        let rows = self.u64(what)? as usize;
        let cols = self.u64(what)? as usize;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n as u64 * 8 <= u64::from(MAX_FRAME_LEN))
            .ok_or_else(|| ServeError::Protocol(format!("{what} shape is absurd")))?;
        let bytes = self.take(n * 8, what)?;
        let data = bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| ServeError::Protocol(format!("bad {what}: {e}")))
    }

    fn finish(self, what: &str) -> Result<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after {what}",
                self.data.len() - self.pos
            )))
        }
    }
}

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Transform { model, inputs } => {
                out.push(1);
                push_str(out, model);
                push_u32(out, inputs.len() as u32);
                for m in inputs {
                    push_matrix(out, m);
                }
            }
            Request::ListModels => out.push(2),
            Request::Ping => out.push(3),
            Request::Outputs { model, inputs } => {
                out.push(4);
                push_str(out, model);
                push_u32(out, inputs.len() as u32);
                for m in inputs {
                    push_matrix(out, m);
                }
            }
            Request::TransformView {
                model,
                view,
                input,
                precision,
            } => {
                out.push(5);
                push_str(out, model);
                push_u32(out, *view);
                out.push(*precision as u8);
                push_matrix(out, input);
            }
            Request::Rescan => out.push(6),
            Request::Stats => out.push(7),
            Request::Refit => out.push(8),
            Request::AddShard { addr } => {
                out.push(9);
                push_str(out, addr);
            }
            Request::RemoveShard { shard } => {
                out.push(10);
                push_u64(out, *shard);
            }
            Request::ClusterInfo => out.push(11),
            Request::Tagged {
                id,
                deadline_ms,
                inner,
            } => {
                out.push(TAGGED_OPCODE);
                push_u64(out, *id);
                push_u32(out, *deadline_ms);
                inner.encode_into(out);
            }
        }
    }

    /// Wrap this request in a [`Request::Tagged`] envelope with no deadline.
    pub fn tagged(self, id: u64) -> Request {
        self.tagged_deadline(id, 0)
    }

    /// Wrap this request in a [`Request::Tagged`] envelope whose work the
    /// server drops with [`Response::DeadlineExceeded`] if it is still queued
    /// `deadline_ms` milliseconds after receipt (`0` = no deadline).
    pub fn tagged_deadline(self, id: u64, deadline_ms: u32) -> Request {
        Request::Tagged {
            id,
            deadline_ms,
            inner: Box::new(self),
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut c = Cursor {
            data: payload,
            pos: 0,
        };
        let req = Self::decode_cursor(&mut c, true)?;
        c.finish("request")?;
        Ok(req)
    }

    fn decode_cursor(c: &mut Cursor<'_>, allow_tag: bool) -> Result<Self> {
        let req = match c.u8("request opcode")? {
            1 => {
                let model = c.string("model name")?;
                let count = c.u32("input count")? as usize;
                let inputs = (0..count)
                    .map(|_| c.matrix("input matrix"))
                    .collect::<Result<Vec<_>>>()?;
                Request::Transform { model, inputs }
            }
            2 => Request::ListModels,
            3 => Request::Ping,
            4 => {
                let model = c.string("model name")?;
                let count = c.u32("input count")? as usize;
                let inputs = (0..count)
                    .map(|_| c.matrix("input matrix"))
                    .collect::<Result<Vec<_>>>()?;
                Request::Outputs { model, inputs }
            }
            5 => {
                let model = c.string("model name")?;
                let view = c.u32("view index")?;
                let precision = match c.u8("transform precision")? {
                    0 => Precision::F64,
                    p => {
                        return Err(ServeError::Protocol(format!(
                            "unknown transform precision {p}"
                        )))
                    }
                };
                let input = c.matrix("view matrix")?;
                Request::TransformView {
                    model,
                    view,
                    input,
                    precision,
                }
            }
            6 => Request::Rescan,
            7 => Request::Stats,
            8 => Request::Refit,
            9 => Request::AddShard {
                addr: c.string("shard address")?,
            },
            10 => Request::RemoveShard {
                shard: c.u64("shard id")?,
            },
            11 => Request::ClusterInfo,
            TAGGED_OPCODE if allow_tag => {
                let id = c.u64("request id")?;
                let deadline_ms = c.u32("request deadline")?;
                let inner = Box::new(Self::decode_cursor(c, false)?);
                Request::Tagged {
                    id,
                    deadline_ms,
                    inner,
                }
            }
            TAGGED_OPCODE => {
                return Err(ServeError::Protocol(
                    "tagged request nested inside a tagged request".into(),
                ))
            }
            op => return Err(ServeError::Protocol(format!("unknown request opcode {op}"))),
        };
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Embedding(m) => {
                out.push(0);
                push_matrix(out, m);
            }
            Response::Error(msg) => {
                out.push(1);
                push_str(out, msg);
            }
            Response::Models(models) => {
                out.push(2);
                push_u32(out, models.len() as u32);
                for info in models {
                    push_str(out, &info.name);
                    push_str(out, &info.method);
                    push_u64(out, info.dim as u64);
                    push_u32(out, info.num_views as u32);
                    out.push(match info.input_kind {
                        InputKind::Views => 0,
                        InputKind::Kernels => 1,
                    });
                    push_u64(out, info.version);
                }
            }
            Response::Pong => out.push(3),
            Response::Outputs(candidates) => {
                out.push(4);
                push_u32(out, candidates.len() as u32);
                for c in candidates {
                    push_str(out, &c.label);
                    out.push(match c.kind {
                        CandidateKind::Embedding => 0,
                        CandidateKind::Distances => 1,
                    });
                    push_matrix(out, &c.matrix);
                }
            }
            Response::Rescanned(report) => {
                out.push(5);
                push_u32(out, report.added as u32);
                push_u32(out, report.removed as u32);
                push_u32(out, report.reloaded as u32);
                push_u32(out, report.corrupt_skipped as u32);
            }
            Response::Stats(counters) => {
                out.push(6);
                push_u32(out, counters.len() as u32);
                for (name, value) in counters {
                    push_str(out, name);
                    push_u64(out, *value);
                }
            }
            Response::Overloaded(msg) => {
                out.push(7);
                push_str(out, msg);
            }
            Response::DeadlineExceeded(msg) => {
                out.push(8);
                push_str(out, msg);
            }
            Response::Cluster(shards) => {
                out.push(9);
                push_u32(out, shards.len() as u32);
                for s in shards {
                    push_u64(out, s.id);
                    push_str(out, &s.label);
                    out.push(u8::from(s.alive) | (u8::from(s.draining) << 1));
                    push_u64(out, s.inflight);
                    push_u64(out, s.routed);
                }
            }
            Response::Tagged { id, inner } => {
                out.push(TAGGED_OPCODE);
                push_u64(out, *id);
                inner.encode_into(out);
            }
        }
    }

    /// Wrap this response in a [`Response::Tagged`] envelope.
    pub fn tagged(self, id: u64) -> Response {
        Response::Tagged {
            id,
            inner: Box::new(self),
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut c = Cursor {
            data: payload,
            pos: 0,
        };
        let resp = Self::decode_cursor(&mut c, true)?;
        c.finish("response")?;
        Ok(resp)
    }

    fn decode_cursor(c: &mut Cursor<'_>, allow_tag: bool) -> Result<Self> {
        let resp = match c.u8("response opcode")? {
            0 => Response::Embedding(c.matrix("embedding")?),
            1 => Response::Error(c.string("error message")?),
            2 => {
                let count = c.u32("model count")? as usize;
                let mut models = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = c.string("model name")?;
                    let method = c.string("method name")?;
                    let dim = c.u64("dim")? as usize;
                    let num_views = c.u32("num_views")? as usize;
                    let input_kind = match c.u8("input kind")? {
                        0 => InputKind::Views,
                        1 => InputKind::Kernels,
                        k => {
                            return Err(ServeError::Protocol(format!(
                                "unknown input-kind byte {k}"
                            )))
                        }
                    };
                    let version = c.u64("model version")?;
                    models.push(ModelInfo {
                        name,
                        method,
                        dim,
                        num_views,
                        input_kind,
                        version,
                    });
                }
                Response::Models(models)
            }
            3 => Response::Pong,
            4 => {
                let count = c.u32("candidate count")? as usize;
                let mut candidates = Vec::with_capacity(count);
                for _ in 0..count {
                    let label = c.string("candidate label")?;
                    let kind = match c.u8("candidate kind")? {
                        0 => CandidateKind::Embedding,
                        1 => CandidateKind::Distances,
                        k => {
                            return Err(ServeError::Protocol(format!(
                                "unknown candidate-kind byte {k}"
                            )))
                        }
                    };
                    let matrix = c.matrix("candidate matrix")?;
                    candidates.push(NamedOutput {
                        label,
                        kind,
                        matrix,
                    });
                }
                Response::Outputs(candidates)
            }
            5 => Response::Rescanned(RescanReport {
                added: c.u32("rescan added")? as usize,
                removed: c.u32("rescan removed")? as usize,
                reloaded: c.u32("rescan reloaded")? as usize,
                corrupt_skipped: c.u32("rescan corrupt skipped")? as usize,
            }),
            6 => {
                let count = c.u32("counter count")? as usize;
                let mut counters = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = c.string("counter name")?;
                    let value = c.u64("counter value")?;
                    counters.push((name, value));
                }
                Response::Stats(counters)
            }
            7 => Response::Overloaded(c.string("overload reason")?),
            8 => Response::DeadlineExceeded(c.string("deadline reason")?),
            9 => {
                let count = c.u32("shard count")? as usize;
                let mut shards = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = c.u64("shard id")?;
                    let label = c.string("shard label")?;
                    let flags = c.u8("shard flags")?;
                    if flags & !0b11 != 0 {
                        return Err(ServeError::Protocol(format!(
                            "unknown shard-flag bits {flags:#04x}"
                        )));
                    }
                    let inflight = c.u64("shard inflight")?;
                    let routed = c.u64("shard routed")?;
                    shards.push(ShardInfo {
                        id,
                        label,
                        alive: flags & 1 != 0,
                        draining: flags & 2 != 0,
                        inflight,
                        routed,
                    });
                }
                Response::Cluster(shards)
            }
            TAGGED_OPCODE if allow_tag => {
                let id = c.u64("response id")?;
                let inner = Box::new(Self::decode_cursor(c, false)?);
                Response::Tagged { id, inner }
            }
            TAGGED_OPCODE => {
                return Err(ServeError::Protocol(
                    "tagged response nested inside a tagged response".into(),
                ))
            }
            op => {
                return Err(ServeError::Protocol(format!(
                    "unknown response opcode {op}"
                )))
            }
        };
        Ok(resp)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> Result<()> {
    if payload.len() as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame. Returns `None` on a clean EOF at a frame
/// boundary (the peer closed the connection).
pub fn read_frame(r: &mut dyn Read) -> Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(ServeError::Protocol(
                    "connection closed mid frame header".into(),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Protocol("connection closed mid frame payload".into())
        } else {
            ServeError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[vec![1.5, -2.0, 0.0], vec![f64::MIN_POSITIVE, 7.0, -0.0]]).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Transform {
                model: "tcca-prod".into(),
                inputs: vec![sample_matrix(), Matrix::zeros(1, 3)],
            },
            Request::ListModels,
            Request::Ping,
            Request::Outputs {
                model: "bsf".into(),
                inputs: vec![sample_matrix()],
            },
            Request::TransformView {
                model: "cca-ls".into(),
                view: 2,
                input: sample_matrix(),
                precision: Precision::F64,
            },
            Request::Rescan,
            Request::Stats,
            Request::Refit,
            Request::AddShard {
                addr: "10.0.0.7:7878".into(),
            },
            Request::RemoveShard { shard: 3 },
            Request::ClusterInfo,
            Request::RemoveShard { shard: u64::MAX }.tagged(12),
            Request::Ping.tagged(u64::MAX),
            Request::Transform {
                model: "m".into(),
                inputs: vec![sample_matrix()],
            }
            .tagged(7),
            Request::Transform {
                model: "m".into(),
                inputs: vec![sample_matrix()],
            }
            .tagged_deadline(8, 250),
            Request::Ping.tagged_deadline(9, 1),
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn nested_tags_are_rejected() {
        let req = Request::Ping.tagged(1).tagged(2);
        assert!(Request::decode(&req.encode()).is_err());
        let req = Request::Ping.tagged_deadline(1, 5).tagged(2);
        assert!(Request::decode(&req.encode()).is_err());
        let resp = Response::Pong.tagged(1).tagged(2);
        assert!(Response::decode(&resp.encode()).is_err());
    }

    #[test]
    fn envelope_header_is_id_then_budget_then_inner_request() {
        // Load generators patch ids into pre-encoded payloads at these offsets.
        let payload = Request::Ping
            .tagged_deadline(0x0102_0304_0506_0708, 1500)
            .encode();
        assert_eq!(payload[0], TAGGED_OPCODE);
        assert_eq!(&payload[1..9], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&payload[9..13], &1500u32.to_le_bytes());
        assert_eq!(&payload[13..], &Request::Ping.encode()[..]);
        assert_eq!(
            &Request::Ping.tagged(7).encode()[9..13],
            &0u32.to_le_bytes()
        );
    }

    #[test]
    fn retired_opcodes_decode_as_unknown() {
        // 12 was the f32 TransformView and 17 the deadline envelope.
        for op in [12u8, 17] {
            let err = Request::decode(&[op]).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unknown request opcode {op}")),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_precision_byte_is_a_protocol_error() {
        // 1 was the retired f32 path; 9 never meant anything.
        for byte in [1u8, 9] {
            let mut payload = vec![5u8];
            push_str(&mut payload, "m");
            push_u32(&mut payload, 0);
            payload.push(byte);
            push_matrix(&mut payload, &sample_matrix());
            let err = Request::decode(&payload).unwrap_err();
            assert!(
                err.to_string().contains("unknown transform precision"),
                "byte {byte}: {err}"
            );
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Embedding(sample_matrix()),
            Response::Error("boom".into()),
            Response::Models(vec![ModelInfo {
                name: "m".into(),
                method: "KTCCA".into(),
                dim: 6,
                num_views: 3,
                input_kind: InputKind::Kernels,
                version: 41,
            }]),
            Response::Pong,
            Response::Outputs(vec![
                NamedOutput {
                    label: "view0".into(),
                    kind: CandidateKind::Embedding,
                    matrix: sample_matrix(),
                },
                NamedOutput {
                    label: "kernel1".into(),
                    kind: CandidateKind::Distances,
                    matrix: Matrix::zeros(2, 2),
                },
            ]),
            Response::Rescanned(RescanReport {
                added: 2,
                removed: 1,
                reloaded: 3,
                corrupt_skipped: 4,
            }),
            Response::Overloaded("queue full (64 pending)".into()),
            Response::DeadlineExceeded("expired 12ms before dispatch".into()),
            Response::Stats(vec![
                ("requests".into(), 12),
                ("trainer/model_version".into(), u64::MAX),
            ]),
            Response::Stats(Vec::new()),
            Response::Cluster(vec![
                ShardInfo {
                    id: 0,
                    label: "local-0".into(),
                    alive: true,
                    draining: false,
                    inflight: 2,
                    routed: 917,
                },
                ShardInfo {
                    id: 5,
                    label: "127.0.0.1:40123".into(),
                    alive: false,
                    draining: true,
                    inflight: 0,
                    routed: u64::MAX,
                },
            ]),
            Response::Cluster(Vec::new()),
            Response::Embedding(sample_matrix()).tagged(99),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_control_ops_are_rejected() {
        // AddShard whose declared address length exceeds the payload.
        let mut payload = vec![9u8];
        payload.extend_from_slice(&100u32.to_le_bytes());
        payload.extend_from_slice(b"short");
        assert!(Request::decode(&payload).is_err());
        // RemoveShard with a truncated id.
        assert!(Request::decode(&[10u8, 1, 2, 3]).is_err());
        // Cluster reply with undefined flag bits.
        let mut payload = vec![9u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.push(0b100);
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Length field says 8 bytes but only 3 follow.
        let mut buf = 8u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut buf.as_slice()).is_err());

        // Oversized length is refused before allocating.
        let buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        assert!(read_frame(&mut buf.as_slice()).is_err());

        // Unknown opcode and trailing junk.
        assert!(Request::decode(&[99]).is_err());
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
    }
}
