//! `serve` — model persistence store and batched transform serving.
//!
//! The fitting side of this workspace is offline; the *serving* side — projecting new
//! instances through an already-fitted model — is the hot path of any deployment.
//! This crate turns the registry's uniform `Box<dyn MultiViewModel>` surface into a
//! small serving stack:
//!
//! * [`ModelStore`] — maps model names to lazily-loaded models backed by `.mvm` files
//!   (the `MVTC` format of `mvcore::persist`), with header-only metadata for cheap
//!   directory indexing, mtime-based [`ModelStore::rescan`] (new files become
//!   servable without a restart) and LRU payload eviction under a byte budget.
//! * [`BatchEngine`] — a micro-batching transform engine that batches while busy: a
//!   request runs as soon as a worker of its [`parallel::Pool`] is free, and requests
//!   for the same model that queued behind busy workers are coalesced (up to
//!   `max_batch` instances) into one batched `transform`, so many clients share
//!   bounded thread pools instead of oversubscribing the machine. Submission is
//!   callback-based ([`BatchEngine::submit_transform`]) so the event-loop server
//!   never blocks; batched `transform_view` requests stitch a single view.
//! * [`Router`] — a sharded serving tier: N in-process or child-process shards,
//!   rendezvous-hash placement by model name with a replicated hot set, and
//!   mid-request failover when a shard dies.
//! * [`Server`] / [`Client`] — an event-loop TCP server multiplexing all sockets
//!   on one poll(2) readiness loop, speaking the length-prefixed frame
//!   protocol of [`wire`]: every request travels in one tagged envelope (id plus
//!   deadline budget) and is answered exactly once under its id, possibly out of
//!   request order. The `tcca_serve` binary also offers one-shot CLI modes for
//!   offline embedding and routing.
//!
//! The stack protects itself under overload rather than degrading silently:
//! bounded admission queues shed excess work with in-band
//! [`ServeError::Overloaded`] verdicts (never a dropped connection), request
//! deadlines propagate down to the engine and across shard hops so dead work is
//! discarded instead of computed, the router's failover pays from per-shard
//! retry budgets with jittered exponential backoff, and a deterministic fault
//! layer ([`faults`]) plus the `tcca_serve soak` chaos harness prove the whole
//! thing under seeded, replayable failure schedules.
//!
//! The crate is unix-only: the event loop runs on poll(2).
//!
//! ```no_run
//! use mvcore::EstimatorRegistry;
//! use serve::{BatchConfig, ModelStore, Server};
//! use std::sync::Arc;
//!
//! let store = Arc::new(ModelStore::open(
//!     EstimatorRegistry::with_builtin(),
//!     "models/",
//! ).unwrap());
//! let server = Server::bind("127.0.0.1:7878", store, BatchConfig::default()).unwrap();
//! server.run().unwrap(); // event loop
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

#[cfg(not(unix))]
compile_error!("tcca-serve is unix-only: its event loop runs on poll(2)");

mod batch;
mod client;
mod error;
pub mod faults;
mod reactor;
mod router;
mod server;
mod service;
pub mod soak;
mod store;
/// The integration tests' gated model, shared with the unit tests.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_gate;
mod trainer;
pub mod wire;

pub use batch::{BatchConfig, BatchEngine, EngineStats, OutputsCallback, ReplyCallback};
pub use client::Client;
pub use error::{ErrorClass, ServeError};
pub use faults::{FaultPlan, Site};
pub use reactor::ReactorKind;
pub use router::{Router, RouterBuilder, RouterConfig, RouterStats, Shard};
pub use server::{Server, ServerTuning, ShutdownHandle};
pub use service::TransformService;
pub use store::{ModelStore, StoredModel, MODEL_EXTENSION};
pub use trainer::{TrainerConfig, TrainerService};
pub use wire::Precision;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
