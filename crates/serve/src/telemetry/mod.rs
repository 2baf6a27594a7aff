//! Serve-tier observability: per-stage metrics, sampled request
//! tracing, and exporters.
//!
//! The layer is dependency-free and costs what its
//! [`TelemetryLevel`](crate::TelemetryLevel) says:
//!
//! * **Off** (default) — nothing timed; the hot path keeps its
//!   zero-allocation, no-extra-clock-read discipline. The always-on
//!   counters (per-model rows, swaps, delta applies)
//!   are still exported.
//! * **Full** — per-stage latency histograms (admission wait, queue
//!   wait, store decode per dtype, forward, response write; the batch
//!   assembly stage stays empty, since no serve turn holds a batch open)
//!   and sampled request tracing. Recording is O(1) and shard-local: the
//!   thread holding a shard's serve turn folds a whole batch into the
//!   shard's accumulators under one uncontended lock, and a snapshot merges per-shard state on demand.
//!
//! Entry points: [`crate::Router::metrics`] returns a
//! [`MetricsSnapshot`] renderable as Prometheus text or JSON. The
//! exporter's table types and writers, and the [`LevelGate`] both
//! tiers' registries hold, are public so `memcom-net` renders its
//! snapshot through the same code.

mod export;
mod registry;
mod trace;

pub use export::{
    json_field, json_histograms, json_key, json_metrics, json_object, json_objects, json_string,
    json_uptime, labels, prom_histograms, prom_metrics, Metric, MetricsSnapshot, ModelMetrics,
    Series, ShardStageMetrics, SizeStats, Stage,
};
pub use registry::LevelGate;
pub use trace::{Span, SpanOutcome};

pub(crate) use registry::{dtype_idx, MetricsRegistry, SIZE_SCALE};
pub(crate) use trace::PendingSpan;
