//! Single-model serving facade over the multi-model [`Router`].
//!
//! [`EmbedServer`] is the original (PR 1) serving API, kept
//! source-compatible: it starts a [`Router`], registers one model under
//! [`DEFAULT_MODEL`], and hands out that model's [`RouterHandle`] (under
//! its PR-1 name, [`ServeHandle`]). New code that needs several models,
//! snapshot swaps, or per-model statistics should use [`Router`]
//! directly — [`EmbedServer::router`] is the escape hatch from an
//! existing server.

use std::sync::Arc;

use crate::router::{Router, RouterHandle, DEFAULT_MODEL};
use crate::store::ShardedStore;
use crate::{Result, ServeConfig};

pub use crate::router::ServeStats;

/// A sharded, micro-batching embedding server for a single model.
///
/// One worker thread per shard pops coalesced batches from its queue and
/// answers through each request's response slot. Construction spawns
/// the workers; [`shutdown`](EmbedServer::shutdown) (or drop) closes the
/// queues, drains in-flight work, and joins them.
///
/// Overload behavior follows [`ServeConfig::admission`]: the default
/// [`crate::AdmissionPolicy::Block`] backpressures producers on full
/// queues, while [`crate::AdmissionPolicy::Shed`] bounds enqueue waits
/// and enforces per-request deadlines at dequeue — see
/// [`ServeStats::shed`]/[`ServeStats::expired`] for the counters.
#[derive(Debug)]
pub struct EmbedServer {
    router: Router,
    /// Pinned at construction so the facade stays panic-free even if the
    /// default model is deregistered through [`router`](EmbedServer::router).
    handle: RouterHandle,
}

impl EmbedServer {
    /// Builds a store from `emb` with `config` and starts serving.
    ///
    /// `config.n_shards` decides both the store partitioning and the
    /// worker count. The config is validated unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::BadConfig`] for invalid configs and
    /// propagates store-construction failures.
    pub fn start(emb: &dyn memcom_core::EmbeddingCompressor, config: ServeConfig) -> Result<Self> {
        let router = Router::start(config)?;
        router.register(DEFAULT_MODEL, emb)?;
        let handle = router.handle(DEFAULT_MODEL)?;
        Ok(EmbedServer { router, handle })
    }

    /// Starts serving an already-built store.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::BadConfig`] when the config is
    /// invalid or its shard count disagrees with the store's.
    pub fn start_with_store(store: ShardedStore, config: ServeConfig) -> Result<Self> {
        let router = Router::start(config)?;
        router.register_store(DEFAULT_MODEL, store)?;
        let handle = router.handle(DEFAULT_MODEL)?;
        Ok(EmbedServer { router, handle })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        self.router.config()
    }

    /// The underlying router, for graduating to the multi-model API
    /// (register more models, swap snapshots, per-model stats).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The served store snapshot (for footprint/cost inspection). Keeps
    /// answering from the final snapshot even after a deregistration
    /// through [`router`](EmbedServer::router).
    pub fn store(&self) -> Arc<ShardedStore> {
        self.handle.snapshot()
    }

    /// A cloneable client handle. Handles stay valid across shutdown —
    /// requests after shutdown fail with
    /// [`crate::ServeError::ShuttingDown`].
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Current aggregated statistics.
    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    /// A telemetry snapshot (see [`crate::TelemetryConfig`]), renderable
    /// as Prometheus text or JSON.
    pub fn metrics(&self) -> crate::MetricsSnapshot {
        self.router.metrics()
    }

    /// Stops accepting requests, drains queued work, joins the workers,
    /// and returns the final statistics.
    pub fn shutdown(self) -> ServeStats {
        let EmbedServer { router, handle } = self;
        drop(router.shutdown());
        handle.stats()
    }
}

/// A cheap, cloneable, thread-safe client to an [`EmbedServer`]: the
/// [`RouterHandle`] bound to [`DEFAULT_MODEL`].
pub type ServeHandle = RouterHandle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmbedBatch, ServeError};
    use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn server(n_shards: usize, max_batch: usize, max_wait_ms: u64) -> (MemCom, EmbedServer) {
        let mut rng = StdRng::seed_from_u64(21);
        let emb = MemCom::new(MemComConfig::new(200, 8, 20), &mut rng).unwrap();
        let config = ServeConfig {
            n_shards,
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
            ..ServeConfig::default()
        };
        let server = EmbedServer::start(&emb, config).unwrap();
        (emb, server)
    }

    #[test]
    fn single_request_round_trip() {
        let (emb, server) = server(4, 8, 2);
        let handle = server.handle();
        let got = handle.get(17).unwrap();
        assert_eq!(got.as_slice(), emb.lookup(&[17]).unwrap().as_slice());
        let stats = server.shutdown();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.shed, 0, "Block policy never sheds");
        assert_eq!(stats.expired, 0, "Block policy never expires");
    }

    #[test]
    fn get_many_spans_shards() {
        let (emb, server) = server(4, 8, 2);
        let handle = server.handle();
        let ids: Vec<usize> = (0..32).map(|i| (i * 13) % 200).collect();
        let rows = handle.get_many(&ids).unwrap();
        for (&id, row) in ids.iter().zip(&rows) {
            assert_eq!(
                row.as_slice(),
                emb.lookup(&[id]).unwrap().as_slice(),
                "id {id}"
            );
        }
    }

    #[test]
    fn get_batch_into_reuses_one_slab() {
        let (emb, server) = server(4, 8, 2);
        let handle = server.handle();
        let mut batch = EmbedBatch::new();
        for round in 0..3 {
            let ids: Vec<usize> = (0..24).map(|i| (i * 7 + round) % 200).collect();
            handle.get_batch_into(&ids, &mut batch).unwrap();
            assert_eq!(batch.len(), ids.len());
            assert_eq!(batch.dim(), 8);
            assert_eq!(batch.ids(), ids.as_slice());
            for (k, &id) in ids.iter().enumerate() {
                assert_eq!(
                    batch.row(k),
                    emb.lookup(&[id]).unwrap().as_slice(),
                    "round {round} id {id}"
                );
            }
        }
        // Duplicates and an empty batch are fine too.
        handle.get_batch_into(&[5, 5, 5], &mut batch).unwrap();
        assert_eq!(batch.row(0), batch.row(2));
        handle.get_batch_into(&[], &mut batch).unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn bad_id_fails_fast_without_hanging() {
        let (_, server) = server(2, 4, 2);
        let handle = server.handle();
        assert!(matches!(
            handle.get(5_000),
            Err(ServeError::IdOutOfVocab {
                id: 5_000,
                vocab: 200
            })
        ));
        let mut batch = EmbedBatch::new();
        assert!(matches!(
            handle.get_batch_into(&[1, 5_000], &mut batch),
            Err(ServeError::IdOutOfVocab { .. })
        ));
        // The server still works afterwards.
        assert!(handle.get(3).is_ok());
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let (_, server) = server(2, 4, 2);
        let handle = server.handle();
        handle.get(1).unwrap();
        let stats = server.shutdown();
        assert!(stats.requests >= 1);
        assert!(matches!(handle.get(2), Err(ServeError::ShuttingDown)));
        let mut batch = EmbedBatch::new();
        assert!(matches!(
            handle.get_batch_into(&[1, 2], &mut batch),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn shard_count_must_match_config() {
        let mut rng = StdRng::seed_from_u64(2);
        let emb = MemCom::new(MemComConfig::new(50, 4, 10), &mut rng).unwrap();
        let store = ShardedStore::build(&emb, 2, 8, 4096).unwrap();
        let config = ServeConfig::with_shards(4);
        assert!(matches!(
            EmbedServer::start_with_store(store, config),
            Err(ServeError::BadConfig { .. })
        ));
    }

    #[test]
    fn facade_survives_deregistration_via_escape_hatch() {
        let (_, server) = server(2, 4, 2);
        let handle = server.handle();
        handle.get(1).unwrap();
        // The router escape hatch can retire the default model; the
        // facade must degrade to errors, not panics.
        server.router().deregister(crate::DEFAULT_MODEL).unwrap();
        assert!(matches!(
            handle.get(1),
            Err(ServeError::ModelNotFound { .. })
        ));
        assert!(server.store().stored_bytes() > 0);
        assert_eq!(server.stats().requests, 1);
        assert_eq!(server.handle().dim(), 8);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn start_validates_config_unconditionally() {
        let mut rng = StdRng::seed_from_u64(2);
        let emb = MemCom::new(MemComConfig::new(50, 4, 10), &mut rng).unwrap();
        for broken in [
            ServeConfig {
                n_shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(
                matches!(
                    EmbedServer::start(&emb, broken.clone()),
                    Err(ServeError::BadConfig { .. })
                ),
                "{broken:?} must be rejected by start"
            );
            assert!(
                matches!(
                    crate::Router::start(broken.clone()),
                    Err(ServeError::BadConfig { .. })
                ),
                "{broken:?} must be rejected by the router"
            );
        }
    }
}
