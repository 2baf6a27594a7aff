//! Pluggable full-model inference behind the [`Router`](crate::Router).
//!
//! The serving tier's original contract was *row lookups*: N ids in,
//! N embedding rows out. The paper's end task is on-device **model
//! inference** over those compressed rows — embed → pool → dense
//! forward, N ids in, K scores out. This module closes that gap with
//! one seam:
//!
//! * [`InferBackend`] — the trait a scoring pipeline implements. A
//!   backend receives the request's ids, the model's current
//!   [`ShardedStore`] snapshot, and its shard's reusable
//!   [`InferScratch`]; it writes its [`out_len`](InferBackend::out_len)
//!   output values into the caller's slab.
//! * [`BackendRegistry`] — named backends, pre-seeded with
//!   [`LookupBackend`] under `"lookup"` (the default: exactly the
//!   legacy row-lookup behavior, zero regression). Operators register
//!   model-specific backends (e.g. a [`RankNetBackend`] holding trained
//!   head weights) and then bind a router model to one by name.
//!
//! Score requests flow through the **same** machinery as lookups — a
//! lookup is a request the router fills through [`LookupBackend`] — so
//! they share the per-shard micro-batching queues, the same
//! [`AdmissionPolicy`](crate::AdmissionPolicy) shedding and deadlines,
//! the same `issued >= requests + shed + expired` counter contract, and
//! a dedicated `forward` telemetry stage next to decode/slab_write.
//!
//! # Example: registry + score round-trip
//!
//! ```
//! use std::sync::Arc;
//! use memcom_core::MethodSpec;
//! use memcom_models::{ModelConfig, RecModel};
//! use memcom_serve::infer::RankNetBackend;
//! use memcom_serve::{Dtype, Router, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A trained (here: freshly initialized) pointwise ranker.
//! let config = ModelConfig::pointwise(1_000, 16, 4, 1);
//! let spec = MethodSpec::MemCom { hash_size: 100, bias: false };
//! let model = RecModel::new(&config, &spec)?;
//!
//! let router = Router::start(ServeConfig::with_shards(2))?;
//!
//! // Register the model's head as a named backend, then bind a served
//! // model (its embedding rows, quantized however you like) to it.
//! let backend = Arc::new(RankNetBackend::from_model(&model)?);
//! router.backends().register("ranknet", backend)?;
//! router.register_with_backend("scorer", model.embedding(), Dtype::F32, "ranknet")?;
//!
//! // N item ids in, K scores out — through the shard queues.
//! let scores = router.handle("scorer")?.score(&[1, 2, 3, 4])?;
//! assert_eq!(scores.len(), 1); // pointwise ranker: one score
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use memcom_ondevice::HeadScratch;
use parking_lot::RwLock;

use crate::store::ShardedStore;
use crate::{Result, ServeError};

mod lookup;
mod ranknet;

pub use lookup::LookupBackend;
pub use ranknet::RankNetBackend;

/// The registry name of the default row-lookup backend.
pub const LOOKUP_BACKEND: &str = "lookup";

/// A scoring pipeline servable behind the [`Router`](crate::Router).
///
/// Implementations are called by whichever thread serves a shard — a
/// submitting caller that found the shard idle, or one whose queued
/// request the shard's turn passed to — so they
/// must be `Send + Sync` and must not allocate per call at a steady
/// request shape: every intermediate belongs in the caller-provided
/// [`InferScratch`], which each shard owns and reuses.
pub trait InferBackend: Send + Sync + std::fmt::Debug {
    /// Output values produced for a request of `n_ids` ids over
    /// `store` — the `K` in "N ids in, K scores out". The serving layer
    /// sizes the response slab to exactly this.
    fn out_len(&self, n_ids: usize, store: &ShardedStore) -> usize;

    /// Validates that this backend can serve over `store` (called once
    /// at model registration, not per request).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] when the store is incompatible
    /// (e.g. its row width differs from the backend's embedding width).
    fn check_store(&self, store: &ShardedStore) -> Result<()>;

    /// Scores `ids` over `store`, writing exactly
    /// [`out_len`](Self::out_len)`(ids.len(), store)` values into
    /// `out`.
    ///
    /// `ids` are pre-validated against the store's vocabulary and
    /// non-empty; `scratch` is the shard's reusable buffer set.
    ///
    /// # Errors
    ///
    /// Propagates store read failures and returns
    /// [`ServeError::BadConfig`] on internal shape mismatches; on error
    /// the contents of `out` are unspecified.
    fn score_into(
        &self,
        store: &ShardedStore,
        ids: &[usize],
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) -> Result<()>;
}

/// Named [`InferBackend`]s, shared by every model of one router.
///
/// A fresh registry always contains [`LookupBackend`] under
/// [`LOOKUP_BACKEND`] (`"lookup"`) — the backend every model gets
/// unless registered with
/// [`Router::register_with_backend`](crate::Router::register_with_backend).
/// Registration resolves the backend name once and binds the `Arc` into
/// the model entry, so per-request serving never touches the registry
/// lock.
#[derive(Debug)]
pub struct BackendRegistry {
    backends: RwLock<HashMap<String, Arc<dyn InferBackend>>>,
}

impl BackendRegistry {
    /// A registry holding only the default `"lookup"` backend.
    pub fn new() -> Self {
        let mut backends: HashMap<String, Arc<dyn InferBackend>> = HashMap::new();
        backends.insert(LOOKUP_BACKEND.to_string(), Arc::new(LookupBackend));
        BackendRegistry {
            backends: RwLock::new(backends),
        }
    }

    /// Registers `backend` under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] when `name` is already taken
    /// (including the built-in `"lookup"`).
    pub fn register(&self, name: &str, backend: Arc<dyn InferBackend>) -> Result<()> {
        let mut backends = self.backends.write();
        if backends.contains_key(name) {
            return Err(ServeError::BadConfig {
                context: format!("an inference backend named {name:?} is already registered"),
            });
        }
        backends.insert(name.to_string(), backend);
        Ok(())
    }

    /// The backend registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for unknown names.
    pub fn get(&self, name: &str) -> Result<Arc<dyn InferBackend>> {
        self.backends
            .read()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::BadConfig {
                context: format!("no inference backend named {name:?} is registered"),
            })
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable per-shard buffers for [`InferBackend::score_into`].
///
/// Each shard owns one scratch for its whole lifetime, used by whichever
/// caller holds its serve turn; at a
/// steady request shape every buffer reaches capacity once and the
/// scoring path stops allocating — the same O(1)-allocations-per-call
/// discipline `tests/alloc_count.rs` certifies for the lookup path.
#[derive(Debug, Default)]
pub struct InferScratch {
    /// The store read's second-operand buffer
    /// ([`ShardedStore::lookup_into`]).
    pub(crate) operand: Vec<f32>,
    /// Head-executor intermediates
    /// ([`memcom_ondevice::InferenceSession::forward_head`]).
    pub(crate) head: HeadScratch,
    /// The head's final activation before the copy into the caller's
    /// response slab.
    pub(crate) logits: Vec<f32>,
}

impl InferScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A reusable client-side buffer set for the allocation-free score
/// path
/// ([`RouterHandle::score_batch_into`](crate::RouterHandle::score_batch_into)).
///
/// The request carries this batch's own id and score buffers to the
/// thread serving its shard and back, so they stay warm and at a steady
/// request shape a score call allocates only its response-slot `Arc`,
/// the same discipline as the lookup batch path's
/// [`EmbedBatch`](crate::EmbedBatch).
#[derive(Debug, Default)]
pub struct ScoreBatch {
    /// The most recent call's scores.
    pub(crate) scores: Vec<f32>,
    /// The most recent call's ids.
    pub(crate) ids: Vec<usize>,
}

impl ScoreBatch {
    /// An empty batch; buffers warm up over the first calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scores of the last successful
    /// [`score_batch_into`](crate::RouterHandle::score_batch_into)
    /// call (unspecified after a failed one).
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_defaults_and_errors() {
        let registry = BackendRegistry::new();
        registry.get(LOOKUP_BACKEND).unwrap();
        assert!(matches!(
            registry.get("missing"),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(matches!(
            registry.register(LOOKUP_BACKEND, Arc::new(LookupBackend)),
            Err(ServeError::BadConfig { .. })
        ));
        registry
            .register("lookup2", Arc::new(LookupBackend))
            .unwrap();
        registry.get("lookup2").unwrap();
    }
}
