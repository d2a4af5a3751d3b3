//! [`TransformService`] — the uniform asynchronous interface the TCP front speaks.
//!
//! The event-loop server in [`crate::Server`] never blocks on model execution: it
//! submits work with a completion callback and keeps polling sockets. Anything that
//! can answer those submissions can sit behind the server — a single
//! [`BatchEngine`] (one-process serving) or a [`crate::Router`] fanning out to
//! shards. Catalog and rescan are synchronous: they are cheap metadata operations
//! served from headers, never from payloads.

use crate::batch::{OutputsCallback, ReplyCallback};
use crate::wire::{ModelInfo, Precision, RescanReport, ShardInfo};
use crate::{BatchEngine, ModelStore, Result};
use linalg::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// An asynchronous transform backend: the [`crate::Server`] submits requests and
/// returns to its poll loop; the backend invokes each callback exactly once.
///
/// Inputs are `Arc`-shared end to end: the server wraps each decoded request once,
/// and every layer below (router failover retries, engine queueing, coalescing)
/// clones the handle, never the matrices.
///
/// Every submission carries an optional **deadline**: the instant past which the
/// caller no longer wants the answer. Backends drop expired work in-band (with
/// [`crate::ServeError::DeadlineExceeded`]) rather than computing dead answers,
/// and forward the remaining budget across process boundaries (the router
/// re-encodes it as the wire envelope's deadline budget).
pub trait TransformService: Send + Sync {
    /// Project instances through the named model (all views).
    fn submit_transform(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    );

    /// Project a single view through the model's per-view projection, in
    /// `f64` ([`Precision`] has the one value `F64`).
    fn submit_transform_view(
        &self,
        model: &str,
        which: usize,
        input: Arc<Matrix>,
        precision: Precision,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    );

    /// Compute all named candidate outputs of the model.
    fn submit_outputs(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: OutputsCallback,
    );

    /// The model catalog (header metadata only).
    fn catalog(&self) -> Result<Vec<ModelInfo>>;

    /// Re-scan backing model directories for new/changed/removed files.
    fn rescan(&self) -> Result<RescanReport>;

    /// Observability counters as name/value pairs (engine statistics, and
    /// `trainer/*` counters when a live-refresh trainer sits in the stack). A
    /// router sums them across live shards.
    fn stats(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Trigger an asynchronous model refresh from accumulated live-traffic
    /// statistics, returning the counter snapshot at trigger time. Backends
    /// without a trainer report an error.
    fn trigger_refit(&self) -> Result<Vec<(String, u64)>> {
        Err(crate::ServeError::Remote(
            "this serving backend has no trainer attached".into(),
        ))
    }

    /// The cluster membership table. Backends without a shard table — a
    /// plain [`BatchEngine`] — report an error; the [`crate::Router`]
    /// overrides all three control-plane ops.
    fn cluster(&self) -> Result<Vec<ShardInfo>> {
        Err(crate::ServeError::Remote(
            "this serving backend has no shard control plane".into(),
        ))
    }

    /// Validate and admit a new remote shard at `addr`, returning the updated
    /// cluster snapshot.
    fn add_shard(&self, addr: &str) -> Result<Vec<ShardInfo>> {
        let _ = addr;
        Err(crate::ServeError::Remote(
            "this serving backend has no shard control plane".into(),
        ))
    }

    /// Drain and remove the shard with the given stable id, returning the
    /// updated cluster snapshot. Blocks until in-flight work on the shard
    /// has completed (or the backend's drain timeout expired).
    fn remove_shard(&self, shard: u64) -> Result<Vec<ShardInfo>> {
        let _ = shard;
        Err(crate::ServeError::Remote(
            "this serving backend has no shard control plane".into(),
        ))
    }
}

/// Catalog of one store, from header metadata alone.
pub fn store_catalog(store: &ModelStore) -> Vec<ModelInfo> {
    store
        .names()
        .into_iter()
        .filter_map(|name| store.entry(&name).ok())
        .map(|entry| ModelInfo {
            name: entry.name().to_string(),
            method: entry.meta().method.clone(),
            dim: entry.meta().dim,
            num_views: entry.meta().num_views,
            input_kind: entry.meta().input_kind,
            version: entry.meta().model_version,
        })
        .collect()
}

impl TransformService for BatchEngine {
    fn submit_transform(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        BatchEngine::submit_transform(self, model, inputs, deadline, reply);
    }

    fn submit_transform_view(
        &self,
        model: &str,
        which: usize,
        input: Arc<Matrix>,
        precision: Precision,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        BatchEngine::submit_transform_view(self, model, which, input, precision, deadline, reply);
    }

    fn submit_outputs(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: OutputsCallback,
    ) {
        BatchEngine::submit_outputs(self, model, inputs, deadline, reply);
    }

    fn catalog(&self) -> Result<Vec<ModelInfo>> {
        Ok(store_catalog(self.store()))
    }

    fn rescan(&self) -> Result<RescanReport> {
        self.store().rescan()
    }

    fn stats(&self) -> Vec<(String, u64)> {
        let mut counters = BatchEngine::stats(self).counters();
        counters.extend(self.store().counters());
        // Kernel-level observability: how many B-panel packs the shared
        // arena saved other row bands, and which kernel mode this process
        // resolved to (0 = strict, 1 = fma) — a gauge, reported through the
        // same name/value pairs the Stats op merges by name.
        counters.push((
            "engine/shared_pack_hits".into(),
            linalg::gemm::shared_pack_hits(),
        ));
        counters.push(("kernel/mode".into(), linalg::gemm::kernel_mode() as u64));
        counters
    }
}
