//! Multi-model routing: one set of shard queues, many named models.
//!
//! The [`Router`] owns the serving machinery — per-shard bounded queues
//! and serve turns, and no thread of its own — while a registry maps
//! model names to [`ShardedStore`] snapshots. Registering a model costs
//! nothing at the serving level: every request captures an `Arc` of its
//! model's current store at enqueue time, so serving threads are
//! stateless dispatchers and a
//! [`swap`](Router::swap) is a single atomic `Arc` flip. In-flight
//! requests finish against the snapshot they were routed to; the next
//! request sees the new table — online refresh without stopping traffic.
//!
//! One request shape flows through the queues: an id list answered by
//! writing f32s into a caller-provided flat buffer that round-trips
//! through a [`SlabSlot`], so no call performs per-row heap allocation
//! at a steady shape. Every call is one [`RouterHandle::submit`] of a
//! [`RequestKind`] — a lookup or a score — and so exactly one such
//! request on its first id's shard; the thread that serves it fills it
//! with one [`InferBackend::score_into`] call, reading rows from
//! whichever shards own them: a lookup carries the router's
//! [`LookupBackend`], a score its model's bound backend.
//!
//! A shard is served by one thread at a time, the holder of its queue's
//! [`Turn`]: a `submit` whose push finds the shard idle yields the CPU
//! once, so that runnable threads may push behind its turn, then serves
//! the batch holding its own request on its own thread, so an
//! uncontended call makes no thread hand-off. Requests that queue while
//! a turn is out form a backlog, served in micro-batches by the callers
//! that submitted them: the ending turn passes to the caller of the
//! oldest queued request, which serves one batch holding its own
//! request and passes the turn on. A shard is only ever served by a
//! thread with a request in it, and no caller serves more than one
//! batch.
//! Validation, `issued` counting, admission, deadlines, buffer
//! round-trips and serving are written once, in `submit`, `serve_turn`
//! and `serve_batch`, whichever thread serves.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memcom_ondevice::engine::RunStats;
use parking_lot::RwLock;

use crate::batcher::{Caller, FlushReason, PushError, ShardQueue, SlabOutcome, SlabSlot, Turn};
use crate::config::AdmissionPolicy;
use crate::infer::{
    BackendRegistry, InferBackend, InferScratch, LookupBackend, ScoreBatch, LOOKUP_BACKEND,
};
use crate::store::ShardedStore;
use crate::telemetry::{
    dtype_idx, MetricsRegistry, MetricsSnapshot, ModelMetrics, PendingSpan, Span, SpanOutcome,
    SIZE_SCALE,
};
use crate::{EmbedBatch, Result, ServeConfig, ServeError, StoreDelta};

/// The conventional name for a single-model deployment's model.
pub const DEFAULT_MODEL: &str = "default";

/// What a request asks of its model (see [`RouterHandle::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// The ids' embedding rows, in request order, filled through the
    /// router's [`LookupBackend`].
    Lookup,
    /// The output of the model's bound [`InferBackend`] over the ids.
    Score,
}

/// Per-model row counters (issued at handle entry; served, shed at
/// admission, expired at dequeue — all in rows, like `requests`).
///
/// # Consistency contract
///
/// The counters are updated from many threads with atomic adds and read
/// individually at snapshot time, so a snapshot is *eventually exact*
/// but not linearizable: it can lag in-flight increments, and the three
/// outcome counters need not yet account for every issued row. One
/// inequality is guaranteed in **every** snapshot:
///
/// ```text
/// issued >= requests + shed + expired
/// ```
///
/// because `issued` is incremented before any outcome can be recorded,
/// outcome increments use `Release`, and snapshots read the outcomes
/// with `Acquire` *before* reading `issued` — so an observed outcome
/// implies its issue is observed too. The inequality is strict while
/// rows are in flight, and stays strict for rows that terminate without
/// an outcome counter: rows rejected at shutdown
/// ([`ServeError::ShuttingDown`]) and rows whose store read failed.
#[derive(Debug, Default)]
pub(crate) struct ModelCounters {
    pub(crate) issued: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) expired: AtomicU64,
}

impl ModelCounters {
    /// The reader side of the contract: `(issued, requests, shed,
    /// expired)` with the outcomes read first under `Acquire`, then
    /// `issued`, so the inequality holds in what is returned.
    fn read(&self) -> (u64, u64, u64, u64) {
        let requests = self.requests.load(Ordering::Acquire);
        let shed = self.shed.load(Ordering::Acquire);
        let expired = self.expired.load(Ordering::Acquire);
        // ORDERING: Relaxed is sufficient for `issued` *after* the
        // Acquire loads above — every outcome increment was published
        // with Release after its issue increment, so this load already
        // observes at least the issues behind the outcomes read above.
        let issued = self.issued.load(Ordering::Relaxed);
        debug_assert!(
            issued >= requests + shed + expired,
            "counter contract violated: issued={issued} < requests={requests} + shed={shed} + expired={expired}"
        );
        (issued, requests, shed, expired)
    }
}

/// Admission metadata every request carries: under
/// [`AdmissionPolicy::Shed`] with a `request_deadline`, when the
/// request was issued (stamped *before* the admission wait — the
/// deadline is end to end, so the admission wait consumes it) and when
/// it stops being worth serving. The serving thread evaluates
/// `expires_at` at dequeue, *before* touching the store, so an expired
/// request costs a timestamp comparison instead of a store read.
/// Policies without a deadline ([`AdmissionPolicy::Block`], or `Shed`
/// with `request_deadline: None`) carry `None` — the stamp is lazy, so
/// the default hot path pays no clock read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admission {
    /// The issue stamp — present when a deadline is in force *or* when
    /// full telemetry asked for queue-wait timing.
    issued_at: Option<Instant>,
    /// When the request stops being worth serving; `None` when no
    /// deadline is in force (or the deadline overflows `Instant`).
    expires_at: Option<Instant>,
}

impl Admission {
    /// Stamps the issue clock when a deadline is in force or when the
    /// caller asked to track the issue instant (full telemetry's
    /// queue-wait timing); otherwise both fields stay `None` and the
    /// default hot path pays no clock read.
    ///
    /// `override_deadline` is the per-request deadline: under
    /// [`AdmissionPolicy::Shed`] the tightest of the policy deadline
    /// and the override wins; under [`AdmissionPolicy::Block`] the
    /// override is ignored — a blocking router never expires requests,
    /// so `expired` stays 0 regardless of per-request hints.
    // memcom-lint: hot-path
    fn stamp_with(
        policy: AdmissionPolicy,
        track_issue: bool,
        override_deadline: Option<std::time::Duration>,
    ) -> Self {
        let deadline = match policy {
            AdmissionPolicy::Shed {
                request_deadline, ..
            } => match (request_deadline, override_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            AdmissionPolicy::Block => None,
        };
        if deadline.is_none() && !track_issue {
            return Admission {
                issued_at: None,
                expires_at: None,
            };
        }
        // memcom-lint: allow(L002) -- reached only past the early return above, i.e. when a deadline or full-telemetry queue-wait timing requires a stamp
        let issued_at = Instant::now();
        Admission {
            issued_at: Some(issued_at),
            // A deadline too far out to represent as a point in time
            // (e.g. `Duration::MAX`) never expires.
            expires_at: deadline.and_then(|d| issued_at.checked_add(d)),
        }
    }
    // memcom-lint: end-hot-path

    /// When the request was issued, if the stamp was taken.
    fn issued_at(&self) -> Option<Instant> {
        self.issued_at
    }

    /// The expiry instant, when a deadline is in force.
    fn expires_at(&self) -> Option<Instant> {
        self.expires_at
    }

    /// The deadline error for a request found expired at `now`.
    ///
    /// # Panics
    ///
    /// Panics when no deadline is in force — unreachable, since only
    /// requests with an expiry can be found expired.
    fn deadline_error(&self, now: Instant) -> ServeError {
        let issued_at = self.issued_at.expect("expired without a deadline");
        let expires_at = self.expires_at.expect("expired without a deadline");
        ServeError::DeadlineExceeded {
            queued: now - issued_at,
            deadline: expires_at - issued_at,
        }
    }
}

/// Router-global batching counters.
#[derive(Debug, Default)]
struct BatchCounters {
    rows: AtomicU64,
    batches: AtomicU64,
    flushes_full: AtomicU64,
    flushes_emptied: AtomicU64,
    flushes_drain: AtomicU64,
    max_batch_observed: AtomicU64,
}

/// Aggregated serving statistics for one model (see [`Router::stats`]).
///
/// `issued`, `requests`, `shed`, and `expired` count rows for *this*
/// model; the batching counters (`batched_rows`, `batches`,
/// `flushes_*`, `max_batch_observed`) are router-wide since a shard's
/// batches mix models; `run_stats` describes the model's
/// *current* store snapshot (it restarts from zero after a
/// [`Router::swap`]).
///
/// # Consistency
///
/// The row counters are maintained with atomic adds from many threads
/// (`issued` relaxed, the three outcomes `Release`) and read
/// individually per snapshot, so a snapshot taken mid-traffic is
/// *eventually exact*, not linearizable: it may lag in-flight
/// increments. Every snapshot does guarantee
/// `issued >= requests + shed + expired` — an outcome is never visible
/// before the issue that produced it (outcome increments are
/// `Release`, snapshots read outcomes with `Acquire` before `issued`).
/// The inequality is strict while rows are in flight, and permanently
/// strict for rows that end without an outcome: rows rejected at
/// shutdown and rows whose store read failed.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Rows that entered this model's serving path, counted at handle
    /// entry after id validation, before admission.
    pub issued: u64,
    /// Rows served for this model through batches.
    pub requests: u64,
    /// Rows shed at admission for this model: the shard queue stayed
    /// full past the enqueue budget of [`AdmissionPolicy::Shed`], so the
    /// producer got [`ServeError::Overloaded`] instead of blocking.
    /// Always `0` under [`AdmissionPolicy::Block`].
    ///
    /// A request is admitted or shed whole, whichever shards its ids
    /// live on: a shed lookup or score counts every one of its rows here
    /// and none as served.
    pub shed: u64,
    /// Rows dropped at dequeue for this model: accepted, but older than
    /// their end-to-end `request_deadline` by the time a serve turn
    /// picked them up, so it answered [`ServeError::DeadlineExceeded`]
    /// without reading the store.
    pub expired: u64,
    /// Rows in batches executed across the router, every model's and
    /// expired rows included.
    pub batched_rows: u64,
    /// Batches executed across the router.
    pub batches: u64,
    /// Batches that reached `max_batch` requests.
    pub flushes_full: u64,
    /// Batches that took every queued request.
    pub flushes_emptied: u64,
    /// Batches flushed while draining at shutdown.
    pub flushes_drain: u64,
    /// Largest batch observed, in rows.
    pub max_batch_observed: usize,
    /// Counted work + resident footprint of the current store snapshot,
    /// in the on-device cost model's terms.
    pub run_stats: RunStats,
}

impl ServeStats {
    /// Mean rows per batch across the router (`0` before any traffic).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_rows as f64 / self.batches as f64
        }
    }
}

/// Always-on control-plane counters for one model: snapshot updates are
/// operator-rare, so these cost nothing on the serving path and survive
/// snapshot swaps (unlike the per-snapshot run stats).
#[derive(Debug, Default)]
struct ControlStats {
    /// Full store swaps ([`Router::swap`]).
    snapshot_swaps: AtomicU64,
    /// Incremental refreshes ([`Router::apply_delta`]).
    delta_applies: AtomicU64,
    /// Bytes physically copied by CoW page updates across delta applies.
    delta_cow_bytes: AtomicU64,
    /// Pages copied before first write across delta applies.
    delta_pages_touched: AtomicU64,
}

/// One registered model: a swappable store snapshot plus counters that
/// survive snapshot swaps.
#[derive(Debug)]
struct ModelEntry {
    name: String,
    store: RwLock<Arc<ShardedStore>>,
    /// The inference backend score requests for this model execute
    /// (resolved from the [`BackendRegistry`] once, at registration).
    backend: Arc<dyn InferBackend>,
    counters: Arc<ModelCounters>,
    control: ControlStats,
    /// Serializes snapshot updaters ([`Router::swap`] /
    /// [`Router::apply_delta`]) so a delta is always built against the
    /// snapshot it replaces, while readers only ever block on the `store`
    /// write lock for the duration of the `Arc` flip itself.
    update_lock: parking_lot::Mutex<()>,
    /// Set by [`Router::deregister`]; handles then fail fast instead of
    /// serving a model the operator retired.
    retired: AtomicBool,
}

impl ModelEntry {
    fn snapshot(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.store.read())
    }
}

/// What shard queues carry: `ids` in, `out` filled by `backend`, both
/// buffers round-tripped through the [`SlabSlot`] for reuse. The whole
/// id list rides one shard queue (its first id's), whichever shards own
/// the rows; a lookup's backend is the router's [`LookupBackend`], a
/// score's its model's bound one.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) ids: Vec<usize>,
    pub(crate) out: Vec<f32>,
    pub(crate) store: Arc<ShardedStore>,
    pub(crate) backend: Arc<dyn InferBackend>,
    /// Read only by telemetry, which records a lookup's fill as store
    /// decode and a score's as forward.
    pub(crate) kind: RequestKind,
    pub(crate) counters: Arc<ModelCounters>,
    pub(crate) slot: Arc<SlabSlot>,
    pub(crate) admission: Admission,
    /// Sampled-tracing stamp (full telemetry only).
    pub(crate) span: Option<PendingSpan>,
}

impl Caller for Request {
    fn pass_turn(&self) {
        self.slot.pass_turn();
    }
}

/// One shard: its bounded queue and the scratch whoever holds the
/// queue's [`Turn`] serves with — a caller that found it idle or one the
/// turn was passed to.
#[derive(Debug)]
struct Shard {
    queue: ShardQueue<Request>,
    /// Locked only by the turn holder, so never contended; every turn
    /// reuses the same buffers and allocates nothing.
    scratch: parking_lot::Mutex<ServeScratch>,
}

/// Reusable serve buffers: the popped batch, its panic-blanket slot list
/// (refilled per batch), and the inference-backend scratch — serving
/// allocates nothing per batch at a steady shape.
#[derive(Debug, Default)]
struct ServeScratch {
    batch: Vec<Request>,
    slots: Vec<Arc<SlabSlot>>,
    infer: InferScratch,
}

#[derive(Debug)]
struct RouterInner {
    shards: Vec<Shard>,
    batch: BatchCounters,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    backends: BackendRegistry,
    /// The backend every lookup fills through.
    lookup: Arc<dyn InferBackend>,
    config: ServeConfig,
    telemetry: MetricsRegistry,
}

impl RouterInner {
    fn entry(&self, model: &str) -> Result<Arc<ModelEntry>> {
        self.models
            .read()
            .get(model)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::ModelNotFound {
                name: model.to_string(),
            })
    }

    fn stats_for(&self, entry: &ModelEntry) -> ServeStats {
        let b = &self.batch;
        let store = entry.snapshot();
        let (issued, requests, shed, expired) = entry.counters.read();
        ServeStats {
            issued,
            requests,
            shed,
            expired,
            batched_rows: b.rows.load(Ordering::Relaxed),
            batches: b.batches.load(Ordering::Relaxed),
            flushes_full: b.flushes_full.load(Ordering::Relaxed),
            flushes_emptied: b.flushes_emptied.load(Ordering::Relaxed),
            flushes_drain: b.flushes_drain.load(Ordering::Relaxed),
            max_batch_observed: b.max_batch_observed.load(Ordering::Relaxed) as usize,
            run_stats: store.run_stats(),
        }
    }

    /// Enqueues `request` on `shard` under the configured admission
    /// policy: [`AdmissionPolicy::Block`] waits for queue space,
    /// [`AdmissionPolicy::Shed`] waits at most `enqueue_timeout` and
    /// then sheds. Returns the shard's [`Turn`] when nobody was serving
    /// it. A rejected request is handed back alongside the
    /// error so the caller can salvage the buffers it owns — that
    /// hand-back (not an oversight) is what makes the Err variant
    /// large, and it only travels one internal frame.
    #[allow(clippy::result_large_err)]
    fn admit(
        &self,
        shard: usize,
        request: Request,
    ) -> std::result::Result<Option<Turn<'_, Request>>, (ServeError, Request)> {
        // memcom-lint: hot-path
        // Admission wait is timed from a fresh stamp here, so it holds
        // the push alone.
        let admit_t0 = self.telemetry.gate.stages_on().then(Instant::now);
        let wait = match self.config.admission {
            AdmissionPolicy::Block => None,
            AdmissionPolicy::Shed {
                enqueue_timeout, ..
            } => Some(enqueue_timeout),
        };
        let outcome = self.shards[shard].queue.push(request, wait);
        if let Some(t0) = admit_t0 {
            self.telemetry
                .shard(shard)
                .record_admission_wait(t0.elapsed().as_nanos() as u64);
        }
        match outcome {
            Ok(turn) => Ok(turn),
            Err(PushError::Closed(request)) => Err((ServeError::ShuttingDown, request)),
            Err(PushError::Full(request)) => {
                request
                    .counters
                    .shed
                    .fetch_add(request.ids.len() as u64, Ordering::Release);
                // A sampled shed completes its span client-side: it
                // never reaches a serve turn. `queue_wait` is the time
                // spent failing admission; there is no service time.
                if let (Some(t0), Some(pending)) = (admit_t0, request.span) {
                    let total = request
                        .admission
                        .issued_at()
                        .map(|issued_at| issued_at.elapsed())
                        .unwrap_or_else(|| t0.elapsed());
                    self.telemetry.complete(Span {
                        seq: pending.seq,
                        shard,
                        rows: request.ids.len(),
                        queue_wait_nanos: t0.elapsed().as_nanos() as u64,
                        service_nanos: 0,
                        total_nanos: total.as_nanos() as u64,
                        outcome: SpanOutcome::Shed,
                    });
                }
                let waited = match self.config.admission {
                    AdmissionPolicy::Shed {
                        enqueue_timeout, ..
                    } => enqueue_timeout,
                    // `push` never reports Full.
                    AdmissionPolicy::Block => Duration::ZERO,
                };
                // Queue depth ÷ calibrated shard capacity: how long the
                // backlog ahead of a retry needs to drain.
                let retry_after = self
                    .config
                    .suggested_backoff(self.shards[shard].queue.depth());
                Err((
                    ServeError::Overloaded {
                        waited,
                        retry_after,
                    },
                    request,
                ))
            }
        }
    }
    // memcom-lint: end-hot-path

    fn check_store(&self, store: &ShardedStore) -> Result<()> {
        if store.n_shards() != self.config.n_shards {
            return Err(ServeError::BadConfig {
                context: format!(
                    "store has {} shards but router runs {}",
                    store.n_shards(),
                    self.config.n_shards
                ),
            });
        }
        Ok(())
    }
}

/// A multi-model embedding router: shared shard queues serving any
/// number of named, atomically swappable model snapshots on the threads
/// that submit to them.
///
/// ```
/// use memcom_core::{MemCom, MemComConfig};
/// use memcom_serve::{Router, ServeConfig, ShardedStore};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let us = MemCom::new(MemComConfig::new(10_000, 32, 1_000), &mut rng)?;
/// let de = MemCom::new(MemComConfig::new(5_000, 32, 500), &mut rng)?;
///
/// let router = Router::start(ServeConfig::with_shards(2))?;
/// router.register("country/us", &us)?;
/// router.register("country/de", &de)?;
///
/// let row = router.handle("country/us")?.get(123)?;
/// assert_eq!(row.len(), 32);
///
/// // Online table refresh: an atomic snapshot swap, no restart.
/// let retrained = MemCom::new(MemComConfig::new(5_000, 32, 500), &mut rng)?;
/// let store = ShardedStore::build(&retrained, 2, 1024, 16 * 1024)?;
/// let _old = router.swap("country/de", store)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Router {
    inner: Arc<RouterInner>,
}

impl Router {
    /// Validates `config` and builds the shard queues (no models yet).
    /// It starts no thread: callers serve.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for invalid configs — this is
    /// unconditional, callers cannot skip validation.
    pub fn start(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let shards = (0..config.n_shards)
            .map(|_| Shard {
                queue: ShardQueue::new(config.queue_depth),
                scratch: parking_lot::Mutex::new(ServeScratch::default()),
            })
            .collect();
        let telemetry = MetricsRegistry::new(&config.telemetry, config.n_shards);
        let inner = Arc::new(RouterInner {
            shards,
            batch: BatchCounters::default(),
            models: RwLock::new(HashMap::new()),
            backends: BackendRegistry::new(),
            lookup: Arc::new(LookupBackend),
            config,
            telemetry,
        });
        Ok(Router { inner })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Builds an fp32 store from `emb` (using the router's config for
    /// shard count and page size) and registers it as
    /// `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelExists`] for duplicate names and
    /// propagates store-construction failures.
    pub fn register(&self, name: &str, emb: &dyn memcom_core::EmbeddingCompressor) -> Result<()> {
        self.register_with_dtype(name, emb, memcom_ondevice::Dtype::F32)
    }

    /// Like [`register`](Self::register), but stores `name`'s rows as
    /// `dtype` — so fp32 and int8 variants of the *same* model can
    /// coexist under one router for an A/B:
    ///
    /// ```
    /// # use memcom_core::{MemCom, MemComConfig};
    /// # use memcom_serve::{Dtype, Router, ServeConfig};
    /// # use rand::{rngs::StdRng, SeedableRng};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let mut rng = StdRng::seed_from_u64(0);
    /// # let emb = MemCom::new(MemComConfig::new(1_000, 16, 100), &mut rng)?;
    /// # let router = Router::start(ServeConfig::with_shards(2))?;
    /// router.register("emb/fp32", &emb)?;
    /// router.register_with_dtype("emb/int8", &emb, Dtype::Int8)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`register`](Self::register).
    pub fn register_with_dtype(
        &self,
        name: &str,
        emb: &dyn memcom_core::EmbeddingCompressor,
        dtype: memcom_ondevice::Dtype,
    ) -> Result<()> {
        self.register_with_backend(name, emb, dtype, LOOKUP_BACKEND)
    }

    /// The router's [`BackendRegistry`]: register named
    /// [`InferBackend`]s here, then bind models to them with
    /// [`register_with_backend`](Self::register_with_backend).
    pub fn backends(&self) -> &BackendRegistry {
        &self.inner.backends
    }

    /// Builds a `dtype`-quantized store from `emb` and registers it as
    /// `name`, serving score requests through the backend registered
    /// under `backend` — the full-model counterpart of
    /// [`register_with_dtype`](Self::register_with_dtype). The name is
    /// resolved (and the backend's
    /// [`check_store`](InferBackend::check_store) validated) once,
    /// here — serving never touches the registry again.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelExists`] for duplicate model names,
    /// [`ServeError::BadConfig`] for unknown backend names or a
    /// store/backend incompatibility, and propagates store-construction
    /// failures.
    pub fn register_with_backend(
        &self,
        name: &str,
        emb: &dyn memcom_core::EmbeddingCompressor,
        dtype: memcom_ondevice::Dtype,
        backend: &str,
    ) -> Result<()> {
        let config = &self.inner.config;
        let store =
            ShardedStore::build_quantized(emb, config.n_shards, 0, config.page_size, dtype)?;
        self.insert(name, store, backend)
    }

    /// Registers a built store as `name`, bound to the backend registered
    /// under `backend`: the one insert behind every register door. It
    /// refuses a store whose shard count disagrees with the router's.
    fn insert(&self, name: &str, store: ShardedStore, backend: &str) -> Result<()> {
        self.inner.check_store(&store)?;
        let backend = self.inner.backends.get(backend)?;
        backend.check_store(&store)?;
        let mut models = self.inner.models.write();
        if models.contains_key(name) {
            return Err(ServeError::ModelExists {
                name: name.to_string(),
            });
        }
        models.insert(
            name.to_string(),
            Arc::new(ModelEntry {
                name: name.to_string(),
                store: RwLock::new(Arc::new(store)),
                backend,
                counters: Arc::new(ModelCounters::default()),
                control: ControlStats::default(),
                update_lock: parking_lot::Mutex::new(()),
                retired: AtomicBool::new(false),
            }),
        );
        Ok(())
    }

    /// Atomically swaps `name`'s store snapshot (`Arc` flip), returning
    /// the previous snapshot. Requests already enqueued finish against
    /// the old snapshot — which stays fully readable through the returned
    /// `Arc` — while every subsequent request reads the new one; traffic
    /// never stops.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names and
    /// [`ServeError::BadConfig`] on a shard-count mismatch or a store
    /// the model's bound backend cannot serve (its
    /// [`check_store`](InferBackend::check_store), as at registration);
    /// a refused swap leaves the current snapshot serving.
    pub fn swap(&self, name: &str, new_store: ShardedStore) -> Result<Arc<ShardedStore>> {
        self.inner.check_store(&new_store)?;
        let entry = self.inner.entry(name)?;
        entry.backend.check_store(&new_store)?;
        let _updating = entry.update_lock.lock();
        entry.control.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
        let mut slot = entry.store.write();
        Ok(std::mem::replace(&mut *slot, Arc::new(new_store)))
    }

    /// Applies a row-level [`StoreDelta`] to `name`'s current snapshot
    /// and atomically flips the result in, returning the superseded
    /// snapshot — the incremental counterpart of [`swap`](Self::swap).
    ///
    /// The new snapshot is built by [`ShardedStore::apply_delta`]:
    /// untouched pages stay physically shared with the old snapshot
    /// (`Arc`s, not copies) and the certified error bound is
    /// re-certified over the re-encoded rows — so refreshing 0.1% of
    /// a table costs ~0.1% of a rebuild in bytes and time instead of
    /// O(table) work and 2× peak memory.
    ///
    /// The flip preserves the same guarantee as `swap`: requests already
    /// enqueued finish against the old snapshot (fully readable through
    /// the returned `Arc` until the last in-flight request drops it),
    /// every subsequent request reads the new one, and traffic never
    /// stops. Concurrent updaters for the same model are serialized, so
    /// a delta is always applied to the snapshot it was built against.
    ///
    /// ```
    /// # use memcom_core::{FullEmbedding, EmbeddingCompressor};
    /// # use memcom_serve::{Router, ServeConfig, StoreDelta, DEFAULT_MODEL};
    /// # use rand::{rngs::StdRng, SeedableRng};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let mut rng = StdRng::seed_from_u64(0);
    /// # let emb = FullEmbedding::new(1_000, 16, &mut rng)?;
    /// # let router = Router::start(ServeConfig::with_shards(2))?;
    /// # router.register(DEFAULT_MODEL, &emb)?;
    /// let mut delta = StoreDelta::new(16);
    /// delta.upsert_row(42, &[0.5; 16])?;            // refreshed entity
    /// delta.upsert_row(1_000, &[0.25; 16])?;        // brand-new entity
    /// let old = router.apply_delta(DEFAULT_MODEL, &delta)?;
    /// assert_eq!(router.snapshot(DEFAULT_MODEL)?.vocab(), 1_001);
    /// assert_eq!(old.vocab(), 1_000); // superseded snapshot intact
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names and
    /// propagates [`ShardedStore::apply_delta`] failures (row-width
    /// mismatch, removal past the vocabulary).
    pub fn apply_delta(&self, name: &str, delta: &StoreDelta) -> Result<Arc<ShardedStore>> {
        let entry = self.inner.entry(name)?;
        let _updating = entry.update_lock.lock();
        let old_store = entry.snapshot();
        let new_store = old_store.apply_delta(delta)?;
        // The fresh snapshot's CoW counters start at zero on the shared
        // clone, so after the apply they describe exactly this delta.
        let control = &entry.control;
        control.delta_applies.fetch_add(1, Ordering::Relaxed);
        control
            .delta_cow_bytes
            .fetch_add(new_store.cow_copied_bytes(), Ordering::Relaxed);
        control
            .delta_pages_touched
            .fetch_add(new_store.cow_touched_pages(), Ordering::Relaxed);
        let mut slot = entry.store.write();
        Ok(std::mem::replace(&mut *slot, Arc::new(new_store)))
    }

    /// Removes `name` from the registry. Existing handles fail fast with
    /// [`ServeError::ModelNotFound`]; requests already in flight still
    /// complete against their captured snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn deregister(&self, name: &str) -> Result<()> {
        let entry =
            self.inner
                .models
                .write()
                .remove(name)
                .ok_or_else(|| ServeError::ModelNotFound {
                    name: name.to_string(),
                })?;
        entry.retired.store(true, Ordering::Release);
        Ok(())
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.models.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// A cloneable client handle bound to `name`. Handles stay valid
    /// across shutdown and swaps; after [`deregister`](Self::deregister)
    /// lookups fail with [`ServeError::ModelNotFound`], while the
    /// metadata accessors ([`RouterHandle::vocab`]/[`RouterHandle::dim`]/
    /// [`RouterHandle::snapshot`]/[`RouterHandle::stats`]) keep
    /// reporting the final snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn handle(&self, name: &str) -> Result<RouterHandle> {
        let model = self.inner.entry(name)?;
        Ok(RouterHandle {
            inner: Arc::clone(&self.inner),
            model,
        })
    }

    /// The current store snapshot of `name` (footprint/cost inspection).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn snapshot(&self, name: &str) -> Result<Arc<ShardedStore>> {
        Ok(self.inner.entry(name)?.snapshot())
    }

    /// Current statistics for `name` (see [`ServeStats`] for which
    /// fields are per-model vs router-wide).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn stats(&self, name: &str) -> Result<ServeStats> {
        let entry = self.inner.entry(name)?;
        Ok(self.inner.stats_for(&entry))
    }

    /// A point-in-time [`MetricsSnapshot`] across every registered
    /// model: always-on row and control-plane counters at any
    /// [`crate::TelemetryLevel`], plus per-stage histograms and sampled
    /// traces at [`crate::TelemetryLevel::Full`]. Render it with
    /// [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let entries: Vec<Arc<ModelEntry>> = self.inner.models.read().values().cloned().collect();
        let mut models: Vec<ModelMetrics> = entries
            .iter()
            .map(|entry| {
                let (issued, requests, shed, expired) = entry.counters.read();
                let control = &entry.control;
                ModelMetrics {
                    name: entry.name.clone(),
                    issued,
                    requests,
                    shed,
                    expired,
                    snapshot_swaps: control.snapshot_swaps.load(Ordering::Relaxed),
                    delta_applies: control.delta_applies.load(Ordering::Relaxed),
                    delta_cow_bytes: control.delta_cow_bytes.load(Ordering::Relaxed),
                    delta_pages_touched: control.delta_pages_touched.load(Ordering::Relaxed),
                    lru_invalidations: 0,
                }
            })
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let telemetry = &self.inner.telemetry;
        let (traced_spans, recent_traces, slowest_traces) = telemetry.traces_snapshot();
        MetricsSnapshot {
            level: telemetry.gate.level(),
            uptime: telemetry.gate.uptime(),
            traced_spans,
            models,
            stages: telemetry.stage_metrics(),
            recent_traces,
            slowest_traces,
        }
    }

    /// Stops accepting requests, waits until every queue is drained
    /// (in-flight requests of **all** models are answered by their
    /// callers, none dropped or misrouted, and no serve turn is out) and
    /// returns final per-model statistics sorted by name.
    pub fn shutdown(self) -> Vec<(String, ServeStats)> {
        let inner = Arc::clone(&self.inner);
        drop(self);
        let entries: Vec<Arc<ModelEntry>> = inner.models.read().values().cloned().collect();
        let mut stats: Vec<(String, ServeStats)> = entries
            .iter()
            .map(|e| (e.name.clone(), inner.stats_for(e)))
            .collect();
        stats.sort_by(|a, b| a.0.cmp(&b.0));
        stats
    }
}

impl Drop for Router {
    /// Closes every queue, then waits until each is drained: the one
    /// shutdown path, for [`Router::shutdown`] and a plain drop alike.
    fn drop(&mut self) {
        for shard in &self.inner.shards {
            shard.queue.close();
        }
        for shard in &self.inner.shards {
            shard.queue.wait_drained();
        }
    }
}

/// A cheap, cloneable, thread-safe client bound to one model of a
/// [`Router`].
#[derive(Debug, Clone)]
pub struct RouterHandle {
    inner: Arc<RouterInner>,
    model: Arc<ModelEntry>,
}

impl RouterHandle {
    /// The model this handle routes to.
    pub fn model_name(&self) -> &str {
        &self.model.name
    }

    /// The model's current store snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] once the model is
    /// deregistered.
    pub fn store(&self) -> Result<Arc<ShardedStore>> {
        if self.model.retired.load(Ordering::Acquire) {
            return Err(ServeError::ModelNotFound {
                name: self.model.name.clone(),
            });
        }
        Ok(self.model.snapshot())
    }

    /// The model's current store snapshot regardless of registration
    /// state — deregistration fails *lookups*, but footprint and cost
    /// inspection stay available on the final snapshot.
    pub fn snapshot(&self) -> Arc<ShardedStore> {
        self.model.snapshot()
    }

    /// Current statistics for this handle's model (available even after
    /// deregistration; see [`ServeStats`] for per-model vs router-wide
    /// fields).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats_for(&self.model)
    }

    /// Served vocabulary size of the current snapshot (still answers
    /// after deregistration, from the final snapshot).
    pub fn vocab(&self) -> usize {
        self.model.snapshot().vocab()
    }

    /// Embedding dimensionality of the current snapshot (still answers
    /// after deregistration, from the final snapshot).
    pub fn dim(&self) -> usize {
        self.model.snapshot().dim()
    }

    /// Looks up one embedding row, blocking until the answer arrives.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn get(&self, id: usize) -> Result<Vec<f32>> {
        let mut row = Vec::new();
        self.submit(RequestKind::Lookup, &mut vec![id], None, &mut row)?;
        Ok(row)
    }

    /// Looks up many ids as one request and returns owned per-row
    /// vectors.
    ///
    /// For the allocation-free variant feed a reusable [`EmbedBatch`] to
    /// [`get_batch_into`](Self::get_batch_into).
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn get_many(&self, ids: &[usize]) -> Result<Vec<Vec<f32>>> {
        let mut rows = Vec::new();
        let dim = self.submit(RequestKind::Lookup, &mut ids.to_vec(), None, &mut rows)?;
        Ok(rows.chunks_exact(dim.max(1)).map(<[f32]>::to_vec).collect())
    }

    /// Looks up many ids into the caller-owned, reusable `batch` slab —
    /// the zero-copy batch path. On success `batch` holds the rows in
    /// request order; at a steady batch shape the call performs **no
    /// per-row heap allocation** end to end (the response-slot `Arc` is
    /// the only steady-state allocation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit); on error the batch's
    /// contents are unspecified but the buffer stays reusable.
    pub fn get_batch_into(&self, ids: &[usize], batch: &mut EmbedBatch) -> Result<()> {
        // `submit` sizes the slab; `begin` only records the ids here.
        batch.begin(ids, 0);
        batch.dim = self.submit(RequestKind::Lookup, &mut batch.ids, None, &mut batch.data)?;
        Ok(())
    }

    /// Scores `ids` through the model's [`InferBackend`] — N item ids
    /// in, K values out (K = the backend's
    /// [`out_len`](InferBackend::out_len); for the default lookup
    /// backend this is the flattened rows, for a ranking backend the
    /// head's scores).
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn score(&self, ids: &[usize]) -> Result<Vec<f32>> {
        let mut scores = Vec::new();
        self.submit(RequestKind::Score, &mut ids.to_vec(), None, &mut scores)?;
        Ok(scores)
    }

    /// Scores `ids` into the caller-owned, reusable `batch` — the
    /// allocation-free score path. On success [`ScoreBatch::scores`]
    /// holds the backend's output; at a steady request shape the call
    /// performs **no per-id heap allocation** end to end (the response
    /// slot `Arc` is the only steady-state allocation, as on the lookup
    /// batch path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit); on error the batch's
    /// contents are unspecified but its buffers stay reusable.
    pub fn score_batch_into(&self, ids: &[usize], batch: &mut ScoreBatch) -> Result<()> {
        batch.ids.clear();
        batch.ids.extend_from_slice(ids);
        self.submit(RequestKind::Score, &mut batch.ids, None, &mut batch.scores)?;
        Ok(())
    }

    /// The one request door every entry point above wraps: validate →
    /// count `issued` → admit → wait. Returns the row width of `out`:
    /// the store's `dim` for a lookup, the whole output for a score.
    ///
    /// `kind` picks the backend that fills the request — the router's
    /// [`LookupBackend`] for a lookup, the model's bound backend for a
    /// score — and `out` is resized to what that backend writes for
    /// `ids`. Both buffers ride one `Request` on the first id's shard —
    /// the thread that serves it reads rows from every shard (the store
    /// is thread-safe) — and come back as the served, shed or failed
    /// request's buffers, so the caller's next call reuses them. An
    /// empty lookup answers `Ok` without enqueuing; a score needs at
    /// least one id.
    ///
    /// `deadline` overrides the policy's per request: under
    /// [`AdmissionPolicy::Shed`] the tightest of the policy's
    /// `request_deadline` and `deadline` wins; under
    /// [`AdmissionPolicy::Block`] it is ignored, so a blocking router
    /// never expires requests. The `memcom-net` tier maps wire-level
    /// deadlines onto admission control through it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] for bad ids,
    /// [`ServeError::ModelNotFound`] after deregistration,
    /// [`ServeError::ShuttingDown`] after shutdown, and
    /// [`ServeError::BadConfig`] for a score without ids. Under
    /// [`AdmissionPolicy::Shed`] a full queue sheds the request with
    /// [`ServeError::Overloaded`] after at most `enqueue_timeout`, and a
    /// request whose deadline passes while queued is answered with
    /// [`ServeError::DeadlineExceeded`] instead of an output.
    // memcom-lint: hot-path
    pub fn submit(
        &self,
        kind: RequestKind,
        ids: &mut Vec<usize>,
        deadline: Option<Duration>,
        out: &mut Vec<f32>,
    ) -> Result<usize> {
        let store = self.store()?;
        let backend = match kind {
            RequestKind::Lookup => &self.inner.lookup,
            RequestKind::Score => &self.model.backend,
        };
        out.clear();
        out.resize(backend.out_len(ids.len(), &store), 0.0);
        let width = match kind {
            RequestKind::Lookup => store.dim(),
            RequestKind::Score => out.len(),
        };
        let Some(&first) = ids.first() else {
            return match kind {
                RequestKind::Lookup => Ok(width),
                RequestKind::Score => Err(ServeError::BadConfig {
                    context: "a score request needs at least one id".to_string(),
                }),
            };
        };
        for &id in ids.iter() {
            store.check_id(id)?;
        }
        let counters = &self.model.counters;
        // ORDERING: issue increments stay Relaxed; the matching outcome
        // (request/shed/expired) is Release-published after this, and
        // snapshot readers load outcomes with Acquire before `issued`,
        // which keeps `issued >= requests + shed + expired` observable.
        counters
            .issued
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let shard = store.shard_of(first);
        let slot = Arc::new(SlabSlot::new());
        let request = Request {
            ids: std::mem::take(ids),
            out: std::mem::take(out),
            store,
            backend: Arc::clone(backend),
            kind,
            counters: Arc::clone(counters),
            slot: Arc::clone(&slot),
            admission: Admission::stamp_with(
                self.inner.config.admission,
                self.inner.telemetry.gate.stages_on(),
                deadline,
            ),
            span: self.inner.telemetry.sample(),
        };
        match self.inner.admit(shard, request) {
            // The shard was idle: serve it here, no thread round trip.
            // Yield once first, so that threads a busy CPU runs one after
            // another still push behind this turn and batch with it; with
            // nothing else runnable the yield returns at once.
            Ok(Some(turn)) => {
                std::thread::yield_now();
                serve_turn(&self.inner, shard, turn);
            }
            // The shard is being served: this request waits in its queue.
            Ok(None) => {}
            Err((e, rejected)) => {
                // A shed (or shutdown-rejected) request comes back whole —
                // keep its buffers so the shedding hot path allocates nothing.
                (*ids, *out) = (rejected.ids, rejected.out);
                return Err(e);
            }
        }
        // A queued request's caller may be passed the shard's turn before
        // its answer: its request then heads the queue, so the one batch
        // it serves holds it. A worker-lost blanket returns empty buffers
        // (the real ones died with the panicking batch); the next call
        // regrows them.
        let queue = &self.inner.shards[shard].queue;
        let outcome = loop {
            match slot.wait_or_turn() {
                Some(outcome) => break outcome,
                None => serve_turn(&self.inner, shard, queue.take_turn()),
            }
        };
        (*ids, *out) = (outcome.ids, outcome.out);
        outcome.result.map(|()| width)
    }
    // memcom-lint: end-hot-path
}

/// The one serving function, for a caller that found its shard idle and
/// for one passed a backlog's turn alike: takes one batch with `turn`
/// and serves it with the shard's scratch. A panic while serving must
/// not strand blocked requesters: the batch's slots are kept, any left
/// unfilled are answered `WorkerLost` (fill is first-write-wins), and
/// the caller carries on to its own reply. Ending the turn passes it to
/// the caller of the oldest request still queued, if any.
fn serve_turn(inner: &RouterInner, shard_idx: usize, mut turn: Turn<'_, Request>) {
    let mut scratch = inner.shards[shard_idx].scratch.lock();
    let ServeScratch {
        batch,
        slots,
        infer,
    } = &mut *scratch;
    let reason = turn.pop_batch_into(batch, inner.config.max_batch);
    slots.extend(batch.iter().map(|request| Arc::clone(&request.slot)));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_batch(inner, shard_idx, batch, reason, infer);
    }));
    if outcome.is_err() {
        for slot in slots.iter() {
            slot.fail(ServeError::WorkerLost);
        }
        batch.clear();
    }
    slots.clear();
    // The scratch is free before the turn ends and the next holder locks it.
    drop(scratch);
    drop(turn);
}

// memcom-lint: hot-path
fn serve_batch(
    inner: &RouterInner,
    shard_idx: usize,
    batch: &mut Vec<Request>,
    reason: FlushReason,
    infer_scratch: &mut InferScratch,
) {
    let c = &inner.batch;
    let rows: usize = batch.iter().map(|request| request.ids.len()).sum();
    c.rows.fetch_add(rows as u64, Ordering::Relaxed);
    c.batches.fetch_add(1, Ordering::Relaxed);
    match reason {
        FlushReason::Full => c.flushes_full.fetch_add(1, Ordering::Relaxed),
        FlushReason::Emptied => c.flushes_emptied.fetch_add(1, Ordering::Relaxed),
        FlushReason::Drain => c.flushes_drain.fetch_add(1, Ordering::Relaxed),
    };
    c.max_batch_observed
        .fetch_max(rows as u64, Ordering::Relaxed);

    // Deadlines are evaluated once, at dequeue time — a request that
    // expired while queued is answered `DeadlineExceeded` below without
    // costing a store read (or the simulated store latency).
    // memcom-lint: allow(L002) -- one read per flushed batch, amortized over every request in it; deadline evaluation needs a wall-clock anchor
    let now = Instant::now();
    let live = |request: &Request| match request.admission.expires_at() {
        Some(expires_at) => now < expires_at,
        None => true,
    };

    let telemetry = &inner.telemetry;
    let stages_on = telemetry.gate.stages_on();
    if stages_on {
        // One stage lock per flushed batch: the shard's whole dequeue
        // story (batch size, every request's queue wait) folds in at once.
        let mut stages = telemetry.shard(shard_idx).stages();
        stages.batch_size.record(rows as u64 * SIZE_SCALE);
        for request in batch.iter() {
            if let Some(issued_at) = request.admission.issued_at() {
                let waited = now.saturating_duration_since(issued_at);
                stages.queue_wait.record(waited.as_nanos() as u64);
            }
        }
    }

    // Simulated backing-store service time, charged once per flushed
    // batch that actually reaches the store (see
    // [`ServeConfig::store_latency`]).
    let store_latency = inner.config.store_latency;
    if !store_latency.is_zero() && batch.iter().any(live) {
        std::thread::sleep(store_latency);
    }

    // Serve in arrival order.
    for mut request in batch.drain(..) {
        let n_rows = request.ids.len();
        let issued_at = request.admission.issued_at();
        if !live(&request) {
            // Failed at dequeue because the deadline passed while queued:
            // count the drop, hand the caller's buffers back (the serving
            // thread still owns them here), and end a sampled span —
            // queued its whole life, no service.
            request
                .counters
                .expired
                .fetch_add(n_rows as u64, Ordering::Release);
            if let (Some(pending), Some(issued_at)) = (request.span, issued_at) {
                let waited = now.saturating_duration_since(issued_at).as_nanos() as u64;
                telemetry.complete(Span {
                    seq: pending.seq,
                    shard: shard_idx,
                    rows: n_rows,
                    queue_wait_nanos: waited,
                    service_nanos: 0,
                    total_nanos: waited,
                    outcome: SpanOutcome::Expired,
                });
            }
            let error = request.admission.deadline_error(now);
            drop(request.store);
            request
                .slot
                .fail_with_buffers(request.ids, request.out, error);
            continue;
        }
        let started = stages_on.then(Instant::now);
        let result = request.backend.score_into(
            &request.store,
            &request.ids,
            infer_scratch,
            &mut request.out,
        );
        let served = result.is_ok();
        if served {
            request
                .counters
                .requests
                .fetch_add(n_rows as u64, Ordering::Release);
        }
        let timed = started.map(|started| (started, Instant::now()));
        // Filling the slot wakes the caller, who may then expect a
        // superseded snapshot to be gone: let go of this request's
        // reference first, keeping only the dtype the stage timing needs.
        let dtype = request.store.dtype();
        drop(request.store);
        request.slot.fill(SlabOutcome {
            ids: request.ids,
            out: request.out,
            result,
        });
        if let Some((started, filled)) = timed {
            // memcom-lint: allow(L002) -- reached only when stages are on: `started` is `stages_on.then(Instant::now)`
            let finished = Instant::now();
            {
                // A lookup's store read lands in `decode[dtype]` (and its
                // rows, once served, in `decode_rows`); a score's whole
                // backend execution — row read + NN forward — in
                // `forward`. The reply hand-back is `slab_write` for both.
                let mut stages = telemetry.shard(shard_idx).stages();
                let fill_stage = match request.kind {
                    RequestKind::Lookup => {
                        if served {
                            stages.decode_rows += n_rows as u64;
                        }
                        &mut stages.decode[dtype_idx(dtype)]
                    }
                    RequestKind::Score => &mut stages.forward,
                };
                fill_stage.record(filled.saturating_duration_since(started).as_nanos() as u64);
                stages
                    .slab_write
                    .record(finished.saturating_duration_since(filled).as_nanos() as u64);
            }
            if let (Some(pending), Some(issued_at)) = (request.span, issued_at) {
                telemetry.complete(Span {
                    seq: pending.seq,
                    shard: shard_idx,
                    rows: n_rows,
                    queue_wait_nanos: started.saturating_duration_since(issued_at).as_nanos()
                        as u64,
                    service_nanos: finished.saturating_duration_since(started).as_nanos() as u64,
                    total_nanos: finished.saturating_duration_since(issued_at).as_nanos() as u64,
                    outcome: SpanOutcome::Served,
                });
            }
        }
    }
}
// memcom-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn memcom(seed: u64) -> MemCom {
        let mut rng = StdRng::seed_from_u64(seed);
        MemCom::new(MemComConfig::new(100, 4, 10), &mut rng).unwrap()
    }

    /// A slab whose `out` buffer violates the sizing contract panics the
    /// serving thread mid-batch; the panic blanket must answer every slot
    /// in the batch with `WorkerLost` and leave the shard serving
    /// afterwards.
    #[test]
    fn poisoned_slab_slot_fails_batch_but_not_worker() {
        let emb = memcom(3);
        let router = Router::start(ServeConfig {
            n_shards: 1,
            max_batch: 4,
            ..ServeConfig::default()
        })
        .unwrap();
        router.register(DEFAULT_MODEL, &emb).unwrap();
        let handle = router.handle(DEFAULT_MODEL).unwrap();
        let store = handle.store().unwrap();

        // Hand-craft a poisoned request: 2 ids but a 1-value slab, and
        // serve the idle shard's turn its push returns, as `submit` does.
        let slot = Arc::new(SlabSlot::new());
        let turn = router.inner.shards[0]
            .queue
            .push(
                Request {
                    ids: vec![0, 1],
                    out: vec![0f32; 1],
                    store: Arc::clone(&store),
                    backend: Arc::new(LookupBackend),
                    kind: RequestKind::Lookup,
                    counters: Arc::new(ModelCounters::default()),
                    slot: Arc::clone(&slot),
                    admission: Admission::stamp_with(AdmissionPolicy::Block, false, None),
                    span: None,
                },
                None,
            )
            .unwrap()
            .expect("an idle shard's turn");
        serve_turn(&router.inner, 0, turn);
        let outcome = slot.wait();
        assert!(matches!(outcome.result, Err(ServeError::WorkerLost)));

        // The shard survived the panic and keeps serving.
        let row = handle.get(7).unwrap();
        assert_eq!(row.as_slice(), emb.lookup(&[7]).unwrap().as_slice());
    }

    #[test]
    fn model_lifecycle_and_errors() {
        let emb = memcom(1);
        let router = Router::start(ServeConfig::with_shards(2)).unwrap();
        assert!(matches!(
            router.handle("missing"),
            Err(ServeError::ModelNotFound { .. })
        ));
        router.register("a", &emb).unwrap();
        assert!(matches!(
            router.register("a", &emb),
            Err(ServeError::ModelExists { .. })
        ));
        assert_eq!(router.model_names(), vec!["a".to_string()]);

        let handle = router.handle("a").unwrap();
        assert_eq!(handle.model_name(), "a");
        handle.get(5).unwrap();
        router.deregister("a").unwrap();
        assert!(matches!(
            handle.get(5),
            Err(ServeError::ModelNotFound { .. })
        ));
        assert!(matches!(
            router.deregister("a"),
            Err(ServeError::ModelNotFound { .. })
        ));
        assert!(router.model_names().is_empty());
    }

    #[test]
    fn register_store_checks_shard_count() {
        let emb = memcom(2);
        let router = Router::start(ServeConfig::with_shards(4)).unwrap();
        let store = ShardedStore::build(&emb, 2, 8, 4096).unwrap();
        assert!(matches!(
            router.insert("a", store, LOOKUP_BACKEND),
            Err(ServeError::BadConfig { .. })
        ));
        let store = ShardedStore::build(&emb, 2, 8, 4096).unwrap();
        router.register("ok", &emb).unwrap();
        assert!(matches!(
            router.swap("ok", store),
            Err(ServeError::BadConfig { .. })
        ));
    }

    fn serving(n_shards: usize, max_batch: usize) -> (MemCom, Router, RouterHandle) {
        let mut rng = StdRng::seed_from_u64(21);
        let emb = MemCom::new(MemComConfig::new(200, 8, 20), &mut rng).unwrap();
        let router = Router::start(ServeConfig {
            n_shards,
            max_batch,
            ..ServeConfig::default()
        })
        .unwrap();
        router.register(DEFAULT_MODEL, &emb).unwrap();
        let handle = router.handle(DEFAULT_MODEL).unwrap();
        (emb, router, handle)
    }

    #[test]
    fn single_request_round_trip() {
        let (emb, router, handle) = serving(4, 8);
        let got = handle.get(17).unwrap();
        assert_eq!(got.as_slice(), emb.lookup(&[17]).unwrap().as_slice());
        let (_, stats) = router.shutdown().remove(0);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.shed, 0, "Block policy never sheds");
        assert_eq!(stats.expired, 0, "Block policy never expires");
    }

    #[test]
    fn get_many_spans_shards() {
        let (emb, _router, handle) = serving(4, 8);
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
        let (emb, _router, handle) = serving(4, 8);
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
        let (_, _router, handle) = serving(2, 4);
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
        let (_, router, handle) = serving(2, 4);
        handle.get(1).unwrap();
        let (_, stats) = router.shutdown().remove(0);
        assert!(stats.requests >= 1);
        assert!(matches!(handle.get(2), Err(ServeError::ShuttingDown)));
        let mut batch = EmbedBatch::new();
        assert!(matches!(
            handle.get_batch_into(&[1, 2], &mut batch),
            Err(ServeError::ShuttingDown)
        ));
    }

    /// One shard serving one request per batch behind a 20 ms store
    /// read, under `admission`.
    fn wedgeable(admission: AdmissionPolicy) -> (Router, RouterHandle) {
        let router = Router::start(ServeConfig {
            n_shards: 1,
            max_batch: 1,
            store_latency: Duration::from_millis(20),
            admission,
            ..ServeConfig::default()
        })
        .unwrap();
        router.register(DEFAULT_MODEL, &memcom(4)).unwrap();
        let handle = router.handle(DEFAULT_MODEL).unwrap();
        (router, handle)
    }

    /// Submits `kind` with `deadline` while a blocker is served on its
    /// caller's thread (counted in `batches` before its store read), so
    /// the request waits out the blocker's 20 ms in the queue. A blocker
    /// its caller was slow to serve can itself expire under a 1 ms policy
    /// deadline and wedge nothing, so that attempt is made again.
    fn behind_blocker(
        handle: &RouterHandle,
        kind: RequestKind,
        deadline: Option<Duration>,
    ) -> Result<usize> {
        for _ in 0..10 {
            let before = handle.stats().batches;
            let (blocker, probe) = std::thread::scope(|scope| {
                let blocker = scope.spawn(|| handle.get(0));
                while handle.stats().batches == before {
                    std::thread::yield_now();
                }
                let probe = handle.submit(kind, &mut vec![1, 2], deadline, &mut Vec::new());
                (blocker.join().unwrap(), probe)
            });
            if blocker.is_ok() {
                return probe;
            }
        }
        panic!("no blocker was served in 10 attempts");
    }

    /// `submit`'s per-call deadline meets the policy's: under Shed the
    /// tighter one expires the request, whichever it is; under Block
    /// neither does.
    #[test]
    fn a_call_deadline_meets_the_policy_deadline_for_both_kinds() {
        let shed = |policy: Duration| AdmissionPolicy::Shed {
            enqueue_timeout: Duration::from_secs(10),
            request_deadline: Some(policy),
        };
        let (tight, loose) = (Duration::from_millis(1), Duration::from_secs(10));
        for kind in [RequestKind::Lookup, RequestKind::Score] {
            for (policy, call) in [(loose, tight), (tight, loose)] {
                let (_router, handle) = wedgeable(shed(policy));
                match behind_blocker(&handle, kind, Some(call)) {
                    Err(ServeError::DeadlineExceeded { deadline, .. }) => {
                        assert_eq!(deadline, tight, "{kind:?} policy {policy:?} call {call:?}");
                    }
                    other => panic!("{kind:?} policy {policy:?} call {call:?}: {other:?}"),
                }
                assert!(handle.stats().expired > 0);
            }
            let (_router, handle) = wedgeable(AdmissionPolicy::Block);
            behind_blocker(&handle, kind, Some(Duration::from_nanos(1))).unwrap();
            assert_eq!(handle.stats().expired, 0, "{kind:?}");
        }
    }

    #[test]
    fn start_validates_config_unconditionally() {
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
                    Router::start(broken.clone()),
                    Err(ServeError::BadConfig { .. })
                ),
                "{broken:?} must be rejected by the router"
            );
        }
    }
}
