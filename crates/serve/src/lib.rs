//! # memcom-serve — a sharded, micro-batching, multi-model embedding-serving engine
//!
//! The paper compresses embedding tables so recommendation models fit
//! on-device; this crate takes the next step toward the repository's
//! north star and *serves* those tables under concurrent lookup traffic,
//! for any number of named models behind one router.
//!
//! ## The layers
//!
//! Bottom-up, each module is one layer of the engine:
//!
//! * [`store`] — **storage**: [`ShardedStore`] is a trained model's
//!   [`memcom_ondevice::EmbeddingTables`] — the embedding front end the
//!   on-device engine reads through too: one column per table of the
//!   model's [`memcom_core::Recipe`], in structurally-shared pages — plus
//!   routing, a certified error bound and delta snapshots. It serves a
//!   row by running the recipe over the pages, the only copy of a row
//!   the store keeps. Its slab API ([`ShardedStore::lookup_into`])
//!   writes the rows of `ids` straight into a caller-owned flat buffer,
//!   in request order — no lock, no per-row allocation.
//! * [`delta`] — **incremental refresh**: [`StoreDelta`] batches
//!   row-level upserts/removals; [`ShardedStore::apply_delta`] turns
//!   one into a new snapshot that copy-on-writes only the touched
//!   pages, and [`Router::apply_delta`] flips it in atomically under
//!   traffic.
//! * [`batcher`] — **queueing**: bounded per-shard [`batcher::ShardQueue`]s
//!   coalesce concurrent requests into micro-batches (a serve turn takes
//!   up to `max_batch` of whatever is queued and never waits for more;
//!   a push onto an idle shard hands its producer the turn, so a
//!   request that finds its shard idle is served on the submitting
//!   thread, and a turn that ends on a backlog passes to the caller of
//!   its oldest request — no thread exists only to serve),
//!   answered through [`batcher::SlabSlot`], a first-write-wins
//!   [`ReplySlot`] that round-trips the request buffers. Overload
//!   behavior is an [`AdmissionPolicy`]: block
//!   producers on full queues (backpressure), or shed with bounded
//!   enqueue waits and per-request deadlines enforced at dequeue.
//! * [`router`] — **routing**: the [`Router`] owns the shard queues and
//!   a registry of named models, and spawns no thread. Lookups and scores are one request
//!   shape through one door, [`RouterHandle::submit`], whose
//!   [`RequestKind`] picks the backend and whose optional deadline
//!   tightens the admission policy's; `get`, `get_many`,
//!   `get_batch_into`, `score` and `score_batch_into` are one-line calls
//!   of it. Each call is one request on its first id's shard, filled by
//!   one [`InferBackend::score_into`] call (a lookup's backend is
//!   [`LookupBackend`]) that reads the rows of all its ids from the one
//!   store. Requests capture their model's current
//!   store `Arc` at enqueue time, so [`Router::swap`] (whole-table) and
//!   [`Router::apply_delta`] (row-level) refresh tables atomically
//!   while in-flight lookups finish on the old snapshot, and one set of
//!   shard queues serves every model. Per-model stats via [`Router::stats`].
//! * [`infer`] — **full-model scoring**: an [`InferBackend`] turns a
//!   registered model from a row store into a scoring pipeline (embed →
//!   pool → dense forward; N item ids in, K scores out). Backends live
//!   in a per-router [`BackendRegistry`]; [`LookupBackend`] (the
//!   default) keeps plain row serving, [`RankNetBackend`] runs the
//!   trained head via `memcom-ondevice`'s executor over served rows.
//!   Score requests ride the same shard queues, admission policy, and
//!   counters as lookups ([`RequestKind::Score`]).
//! * [`batch`] — **client buffers**: [`EmbedBatch`], the reusable
//!   response slab for the zero-copy batch API
//!   ([`RouterHandle::get_batch_into`]), and [`ScoreBatch`], its
//!   score-path counterpart ([`RouterHandle::score_batch_into`]).
//! * [`loadgen`] — **traffic**: one open/closed-loop Zipf load driver
//!   ([`drive`]: schedule, pacing, traffic digest, and a [`LoadReport`]
//!   with per-model outcome counts and latency) that submits through a
//!   caller-supplied closure; [`run_load`] points it at a router's
//!   models, `memcom-net` points it at a socket. [`histogram`] holds the
//!   mergeable latency histogram.
//! * [`telemetry`] — **observability**: a dependency-free metrics
//!   registry behind [`TelemetryConfig`] (off / full), with
//!   per-stage latency histograms, sampled request tracing, and the
//!   one Prometheus/JSON exporter — for [`Router::metrics`]'s
//!   [`MetricsSnapshot`] and for `memcom-net`'s snapshot alike, each
//!   metric named once, as a row of its entity's table.
//!
//! Shards are request queues, not storage: a store holds each recipe
//! table once, whatever the shard count, so a served model costs what
//! its tables cost, and serving threads read it without a lock. Costs plug into
//! the on-device compute-unit model: a store's tables report
//! ([`EmbeddingTables::run_stats`](memcom_ondevice::EmbeddingTables::run_stats))
//! the same [`memcom_ondevice::RunStats`] the single-inference engines
//! report.
//!
//! ```
//! use memcom_core::{MemCom, MemComConfig};
//! use memcom_serve::{
//!     run_load, EmbedBatch, LoadGenConfig, Router, ServeConfig, DEFAULT_MODEL,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let emb = MemCom::new(MemComConfig::new(10_000, 32, 1_000), &mut rng)?;
//! let router = Router::start(ServeConfig::with_shards(4))?;
//! router.register(DEFAULT_MODEL, &emb)?;
//!
//! // Direct lookups from any number of threads…
//! let handle = router.handle(DEFAULT_MODEL)?;
//! let row = handle.get(123)?;
//! assert_eq!(row.len(), 32);
//!
//! // …zero-copy batches into a reusable slab…
//! let mut batch = EmbedBatch::new();
//! handle.get_batch_into(&[1, 2, 3], &mut batch)?;
//! assert_eq!(batch.row(0).len(), 32);
//!
//! // …or a Zipf load run over any weighted mix of registered models.
//! let config = LoadGenConfig { clients: 2, requests_per_client: 200, ..Default::default() };
//! let report = run_load(&router, &[(DEFAULT_MODEL, 1.0)], &config)?;
//! assert_eq!(report.requests, 400);
//! println!("{} served, p99 {} ns", report.requests, report.histogram.p99());
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod batcher;
pub mod config;
pub mod delta;
pub mod error;
pub mod histogram;
pub mod infer;
pub mod loadgen;
pub mod router;
pub mod store;
pub mod telemetry;

pub use batch::EmbedBatch;
pub use batcher::{PushError, ReplySlot};
pub use config::{AdmissionPolicy, ServeConfig, TelemetryConfig, TelemetryLevel};
pub use delta::StoreDelta;
pub use error::ServeError;
pub use histogram::LatencyHistogram;
pub use infer::{
    BackendRegistry, InferBackend, InferScratch, LookupBackend, RankNetBackend, ScoreBatch,
    LOOKUP_BACKEND,
};
pub use loadgen::{drive, run_load, LoadGenConfig, LoadMode, LoadReport, Outcome};
pub use router::{RequestKind, Router, RouterHandle, ServeStats, DEFAULT_MODEL};
pub use store::{CacheStats, ShardedStore};
pub use telemetry::{
    MetricsSnapshot, ModelMetrics, ShardStageMetrics, SizeStats, Span, SpanOutcome,
};

/// Storage dtype for shard row bytes (re-exported from
/// [`memcom_ondevice`]): [`ShardedStore::build_quantized`] and
/// [`Router::register_with_dtype`] accept sub-fp32 dtypes, trading a
/// certified per-row error bound ([`ShardedStore::error_bound`]) for a
/// proportionally smaller resident store.
pub use memcom_ondevice::Dtype;

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
