//! The one exporter: point-in-time snapshots of both tiers rendered as
//! Prometheus text exposition or JSON.
//!
//! A [`MetricsSnapshot`] is plain owned data — taking one clones the
//! shard-local accumulators under their (uncontended) locks and reads
//! the counters once, so rendering never blocks the serving path and a
//! snapshot stays internally consistent while being formatted.
//!
//! Every metric's names are written once, as one row of its entity's
//! table: a [`Metric`] (JSON key, Prometheus family, help, getter) for a
//! counter or gauge, a [`Stage`] for a latency histogram. The value the
//! getter reads is a snapshot field, filled by the registry that counts
//! it. The writers here
//! ([`prom_metrics`], [`prom_histograms`], [`json_metrics`],
//! [`json_histograms`] and the `json_*` field writers) render any table,
//! so both renderers iterate the same rows. `memcom-net` declares its
//! connection and stage tables and renders through these writers too,
//! with no formatting code of its own.

use std::fmt::{Display, Write as _};
use std::time::Duration;

use crate::config::TelemetryLevel;
use crate::histogram::LatencyHistogram;

use super::registry::SIZE_SCALE;
use super::trace::Span;

/// Stable lowercase name of a [`TelemetryLevel`] (exporter field value).
fn level_name(level: TelemetryLevel) -> &'static str {
    match level {
        TelemetryLevel::Off => "off",
        TelemetryLevel::Full => "full",
    }
}

/// Row-count distribution summarized out of the scaled batch-size
/// histogram (see `SIZE_SCALE` in the registry).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SizeStats {
    /// Batches observed.
    pub count: u64,
    /// Total rows across all observed batches.
    pub sum: u64,
    /// Mean rows per batch.
    pub mean: f64,
    /// Median rows per batch.
    pub p50: u64,
    /// 99th-percentile rows per batch.
    pub p99: u64,
    /// Largest batch observed, in rows.
    pub max: u64,
}

impl SizeStats {
    /// Unscales a histogram whose observations were multiplied by
    /// [`SIZE_SCALE`] at record time.
    pub(crate) fn from_scaled(h: &LatencyHistogram) -> Self {
        if h.count() == 0 {
            return SizeStats::default();
        }
        let unscale = |v: u64| (v + SIZE_SCALE / 2) / SIZE_SCALE;
        SizeStats {
            count: h.count(),
            sum: (h.sum_nanos() / SIZE_SCALE as u128) as u64,
            mean: h.mean_nanos() / SIZE_SCALE as f64,
            p50: unscale(h.p50()),
            p99: unscale(h.p99()),
            max: unscale(h.max_nanos()),
        }
    }
}

/// Always-on counters for one registered model (rows plus control-plane
/// events).
///
/// The row counters are updated with relaxed atomics from many threads,
/// so a snapshot is *eventually exact*, not linearizable — see the
/// consistency contract on [`crate::ServeStats`]. Within one snapshot,
/// `issued >= requests + shed + expired` always holds.
#[derive(Debug, Clone)]
pub struct ModelMetrics {
    /// Registered model name.
    pub name: String,
    /// Rows that entered this model's serving path (counted before
    /// admission).
    pub issued: u64,
    /// Rows served through batches.
    pub requests: u64,
    /// Rows shed at admission.
    pub shed: u64,
    /// Rows dropped at dequeue past their deadline.
    pub expired: u64,
    /// Full snapshot swaps ([`crate::Router::swap`]).
    pub snapshot_swaps: u64,
    /// Incremental refreshes ([`crate::Router::apply_delta`]).
    pub delta_applies: u64,
    /// Bytes physically copied by copy-on-write page updates across all
    /// delta applies.
    pub delta_cow_bytes: u64,
    /// Pages touched (copied before first write) across all delta
    /// applies.
    pub delta_pages_touched: u64,
    /// Always 0 and rendered nowhere: the store has no cache to
    /// invalidate. A vestige kept because frozen `crates/perf` reads it
    /// (ROADMAP item 1(f) removes it with its reader).
    pub lru_invalidations: u64,
}

/// One shard's stage-latency breakdown (populated at
/// [`TelemetryLevel::Full`]; all-empty otherwise).
#[derive(Debug, Clone)]
pub struct ShardStageMetrics {
    /// Shard index.
    pub shard: usize,
    /// Time producers spent inside admission (blocking for queue space
    /// or shedding), per request.
    pub admission_wait: LatencyHistogram,
    /// Issue → dequeue per request. Includes the admission wait;
    /// subtract the admission-wait histogram to isolate pure queueing.
    pub queue_wait: LatencyHistogram,
    /// Always empty: a serve turn never holds a batch open, so there is
    /// no assembly time to record, and neither exporter renders it. A
    /// vestige kept because frozen `crates/perf` reads it (ROADMAP item
    /// 1(f) removes it with its reader).
    pub batch_assembly: LatencyHistogram,
    /// Rows per flushed batch.
    pub batch_size: SizeStats,
    /// Store decode duration per micro-batch run, by storage dtype.
    pub decode: Vec<(&'static str, LatencyHistogram)>,
    /// Inference-backend execution per score request (embedding gather
    /// plus NN forward) — populated only for models served through a
    /// scoring [`crate::InferBackend`].
    pub forward: LatencyHistogram,
    /// Response write duration per run (slot fills / slab hand-back).
    pub slab_write: LatencyHistogram,
    /// Rows decoded from the store's pages for lookups.
    pub decode_rows: u64,
}

/// A point-in-time snapshot of everything the telemetry layer knows,
/// with Prometheus and JSON renderers.
///
/// Taken via [`crate::Router::metrics`]:
///
/// ```
/// use memcom_core::FullEmbedding;
/// use memcom_serve::{Router, ServeConfig, TelemetryConfig, DEFAULT_MODEL};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let emb = FullEmbedding::new(1_000, 16, &mut rng)?;
/// let config = ServeConfig {
///     telemetry: TelemetryConfig::full(1.0),
///     ..ServeConfig::with_shards(2)
/// };
/// let router = Router::start(config)?;
/// router.register(DEFAULT_MODEL, &emb)?;
/// router.handle(DEFAULT_MODEL)?.get(42)?;
///
/// let snapshot = router.metrics();
/// assert_eq!(snapshot.models[0].issued, 1);
/// assert_eq!(snapshot.models[0].requests, 1);
/// let text = snapshot.to_prometheus();
/// assert!(text.contains("memcom_requests_total{model=\"default\"} 1\n"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Telemetry level the router runs at.
    pub level: TelemetryLevel,
    /// Time since the router started.
    pub uptime: Duration,
    /// Sampled spans completed since start (including ones the trace
    /// ring has since overwritten).
    pub traced_spans: u64,
    /// Per-model counters, sorted by model name.
    pub models: Vec<ModelMetrics>,
    /// Per-shard stage breakdowns (all-empty below
    /// [`TelemetryLevel::Full`]).
    pub stages: Vec<ShardStageMetrics>,
    /// Most recently completed sampled spans, oldest first.
    pub recent_traces: Vec<Span>,
    /// Slowest sampled spans retained since start, slowest first.
    pub slowest_traces: Vec<Span>,
}

/// One series of a [`Metric`]: the JSON key it renders under, the extra
/// Prometheus label it carries (`""` for none; an in/out pair is two
/// series of one family), and its value on the entity `T`.
pub type Series<T> = (&'static str, &'static str, fn(&T) -> u64);

/// A counter or gauge, named once for every renderer: one row of its
/// entity's table.
#[derive(Debug)]
pub struct Metric<T: 'static> {
    /// Prometheus family name: a counter's ends in `_total` (the
    /// Prometheus naming rule), any other family is a gauge.
    pub family: &'static str,
    /// Prometheus help text.
    pub help: &'static str,
    /// The family's series, in render order.
    pub series: &'static [Series<T>],
}

/// A latency histogram of the entity `T`, named once: its JSON key
/// (also its Prometheus `stage` label) and where it lives.
pub type Stage<T> = (&'static str, fn(&T) -> &LatencyHistogram);

/// Counters of the router as a whole.
const ROUTER_METRICS: [Metric<MetricsSnapshot>; 1] = [Metric {
    family: "memcom_traced_spans_total",
    help: "Sampled request spans completed.",
    series: &[("traced_spans", "", |s| s.traced_spans)],
}];

/// Per-model row and control-plane counters.
const MODEL_METRICS: [Metric<ModelMetrics>; 8] = [
    Metric {
        family: "memcom_issued_rows_total",
        help: "Rows entering the serving path, before admission.",
        series: &[("issued", "", |m| m.issued)],
    },
    Metric {
        family: "memcom_requests_total",
        help: "Rows served through batches.",
        series: &[("requests", "", |m| m.requests)],
    },
    Metric {
        family: "memcom_shed_rows_total",
        help: "Rows shed at admission.",
        series: &[("shed", "", |m| m.shed)],
    },
    Metric {
        family: "memcom_expired_rows_total",
        help: "Rows dropped at dequeue past their deadline.",
        series: &[("expired", "", |m| m.expired)],
    },
    Metric {
        family: "memcom_snapshot_swaps_total",
        help: "Full store snapshot swaps.",
        series: &[("snapshot_swaps", "", |m| m.snapshot_swaps)],
    },
    Metric {
        family: "memcom_delta_applies_total",
        help: "Incremental delta refreshes applied.",
        series: &[("delta_applies", "", |m| m.delta_applies)],
    },
    Metric {
        family: "memcom_delta_cow_bytes_total",
        help: "Bytes copied by copy-on-write page updates during delta applies.",
        series: &[("delta_cow_bytes", "", |m| m.delta_cow_bytes)],
    },
    Metric {
        family: "memcom_delta_pages_touched_total",
        help: "Pages copied before first write during delta applies.",
        series: &[("delta_pages_touched", "", |m| m.delta_pages_touched)],
    },
];

/// Per-shard counters (rendered at [`TelemetryLevel::Full`]).
const SHARD_METRICS: [Metric<ShardStageMetrics>; 1] = [Metric {
    family: "memcom_decode_rows_total",
    help: "Rows decoded from the store's pages for lookups, per shard.",
    series: &[("decode_rows", "", |s| s.decode_rows)],
}];

/// Per-shard stage histograms; the per-dtype decode histograms follow
/// them, recorded dtypes only.
const SHARD_STAGES: [Stage<ShardStageMetrics>; 4] = [
    ("admission_wait", |s| &s.admission_wait),
    ("queue_wait", |s| &s.queue_wait),
    ("forward", |s| &s.forward),
    ("slab_write", |s| &s.slab_write),
];

/// A Prometheus label set, `key="value",...`, with each value escaped
/// (`\`, `"`, and newlines).
pub fn labels(pairs: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (key, value) in pairs {
        if !out.is_empty() {
            out.push(',');
        }
        let value = value.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{key}=\"{}\"", value.replace('\n', "\\n"));
    }
    out
}

/// `# HELP` / `# TYPE` preamble for one metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One sample line: `name{labels} value`, its label set joined from
/// the non-empty `labels`, or `name value` when all are empty.
fn sample(out: &mut String, name: &str, labels: &[&str], value: impl Display) {
    let labels: Vec<&str> = labels.iter().copied().filter(|l| !l.is_empty()).collect();
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{}}} {value}", labels.join(","));
    }
}

/// Renders each metric of `table` as one Prometheus family, with one
/// sample per series of every entity in `rows` (labelled by `label`).
pub fn prom_metrics<T>(
    out: &mut String,
    table: &[Metric<T>],
    rows: &[T],
    label: impl Fn(&T) -> String,
) {
    for metric in table {
        let kind = if metric.family.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        family(out, metric.family, kind, metric.help);
        for row in rows {
            let labels = label(row);
            for (_, extra, get) in metric.series {
                sample(out, metric.family, &[&labels, extra], get(row));
            }
        }
    }
}

/// Renders one Prometheus histogram family: the preamble, then each
/// `(labels, histogram)` row as `_bucket`/`_sum`/`_count` samples.
/// Zero-count buckets are elided — a valid exposition, since `le`
/// boundaries are cumulative — and the open-above top bucket folds into
/// `+Inf`.
pub fn prom_histograms<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    rows: impl IntoIterator<Item = (String, &'a LatencyHistogram)>,
) {
    family(out, name, "histogram", help);
    let bucket = format!("{name}_bucket");
    for (labels, h) in rows {
        let buckets: Vec<(u64, u64)> = h.iter_buckets().collect();
        let mut cumulative = 0u64;
        for (idx, &(upper, count)) in buckets.iter().enumerate() {
            cumulative += count;
            if count == 0 || idx == buckets.len() - 1 {
                continue;
            }
            let le = format!("le=\"{upper}\"");
            sample(out, &bucket, &[&labels, &le], cumulative);
        }
        sample(out, &bucket, &[&labels, "le=\"+Inf\""], h.count());
        sample(out, &format!("{name}_sum"), &[&labels], h.sum_nanos());
        sample(out, &format!("{name}_count"), &[&labels], h.count());
    }
}

/// Writes the comma that separates a JSON value from the one before it:
/// none at the start of the text, of an object or array, or after a key.
fn json_sep(out: &mut String) {
    if !matches!(out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
        out.push(',');
    }
}

/// Writes `"key":`, the value to follow.
pub fn json_key(out: &mut String, key: &str) {
    json_sep(out);
    let _ = write!(out, "\"{key}\":");
}

/// Writes `"key":value` with `value` as its `Display` renders it.
pub fn json_field(out: &mut String, key: &str, value: impl Display) {
    json_key(out, key);
    let _ = write!(out, "{value}");
}

/// Writes `"key":"value"` with `value` escaped.
pub fn json_string(out: &mut String, key: &str, value: &str) {
    json_key(out, key);
    out.push('"');
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `"uptime_seconds"` at millisecond precision.
pub fn json_uptime(out: &mut String, uptime: Duration) {
    json_field(
        out,
        "uptime_seconds",
        format_args!("{:.3}", uptime.as_secs_f64()),
    );
}

/// Writes one JSON object, its fields written by `fields`.
pub fn json_object(out: &mut String, fields: impl FnOnce(&mut String)) {
    json_sep(out);
    out.push('{');
    fields(out);
    out.push('}');
}

/// Writes `"key":[...]`: one object per item, its fields written by
/// `fields`.
pub fn json_objects<I>(
    out: &mut String,
    key: &str,
    items: impl IntoIterator<Item = I>,
    mut fields: impl FnMut(&mut String, I),
) {
    json_key(out, key);
    out.push('[');
    for item in items {
        json_object(out, |out| fields(out, item));
    }
    out.push(']');
}

/// Writes every series of `table` on `row` as a `"key":value` field.
pub fn json_metrics<T>(out: &mut String, table: &[Metric<T>], row: &T) {
    for (key, _, get) in table.iter().flat_map(|metric| metric.series) {
        json_field(out, key, get(row));
    }
}

/// Writes `"key":{summary}` for one latency histogram.
fn json_histogram(out: &mut String, key: &str, h: &LatencyHistogram) {
    json_field(
        out,
        key,
        format_args!(
            "{{\"count\":{},\"mean_nanos\":{:.1},\"p50_nanos\":{},\"p99_nanos\":{},\"max_nanos\":{}}}",
            h.count(),
            h.mean_nanos(),
            h.p50(),
            h.p99(),
            h.max_nanos()
        ),
    );
}

/// Writes a JSON object of histogram summaries, one field per
/// `(key, histogram)` row.
pub fn json_histograms<'a>(
    out: &mut String,
    rows: impl IntoIterator<Item = (&'static str, &'a LatencyHistogram)>,
) {
    json_object(out, |out| {
        for (key, h) in rows {
            json_histogram(out, key, h);
        }
    });
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` preambles, `_total`-suffixed
    /// counters, label values escaped per the format rules.
    ///
    /// Stage histograms appear only at [`TelemetryLevel::Full`]; the
    /// always-on model counters render at every level.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let (name, uptime) = ("memcom_uptime_seconds", self.uptime.as_secs_f64());
        family(&mut out, name, "gauge", "Seconds since the router started.");
        sample(&mut out, name, &[], format!("{uptime:.3}"));
        prom_metrics(
            &mut out,
            &ROUTER_METRICS,
            std::slice::from_ref(self),
            |_| String::new(),
        );
        prom_metrics(&mut out, &MODEL_METRICS, &self.models, |m| {
            labels(&[("model", &m.name)])
        });
        if self.level != TelemetryLevel::Full {
            return out;
        }

        prom_metrics(&mut out, &SHARD_METRICS, &self.stages, |s| {
            labels(&[("shard", &s.shard.to_string())])
        });
        let mut rows = Vec::new();
        for stage in &self.stages {
            let shard = stage.shard.to_string();
            for (key, get) in SHARD_STAGES {
                rows.push((labels(&[("stage", key), ("shard", &shard)]), get(stage)));
            }
            for (dtype, h) in stage.decode.iter().filter(|(_, h)| h.count() > 0) {
                let decode = [("stage", "decode"), ("shard", &shard), ("dtype", dtype)];
                rows.push((labels(&decode), h));
            }
        }
        prom_histograms(
            &mut out,
            "memcom_stage_latency_nanos",
            "Per-stage request lifecycle latency in nanoseconds.",
            rows,
        );

        let name = "memcom_batch_size";
        family(&mut out, name, "summary", "Rows per flushed batch.");
        for stage in &self.stages {
            let shard = labels(&[("shard", &stage.shard.to_string())]);
            let size = &stage.batch_size;
            for (q, v) in [("0.5", size.p50), ("0.99", size.p99), ("1", size.max)] {
                let quantile = labels(&[("quantile", q)]);
                sample(&mut out, name, &[&shard, &quantile], v);
            }
            sample(&mut out, &format!("{name}_sum"), &[&shard], size.sum);
            sample(&mut out, &format!("{name}_count"), &[&shard], size.count);
        }
        out
    }

    /// Renders the snapshot as a single JSON object (histograms as
    /// summary stats, traces as span arrays) — the machine-readable
    /// counterpart of [`to_prometheus`](Self::to_prometheus).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        json_object(&mut out, |out| {
            json_string(out, "level", level_name(self.level));
            json_uptime(out, self.uptime);
            json_metrics(out, &ROUTER_METRICS, self);
            json_objects(out, "models", &self.models, |out, m| {
                json_string(out, "name", &m.name);
                json_metrics(out, &MODEL_METRICS, m);
            });
            json_objects(out, "stages", &self.stages, |out, stage| {
                json_field(out, "shard", stage.shard);
                json_metrics(out, &SHARD_METRICS, stage);
                for (key, get) in SHARD_STAGES {
                    json_histogram(out, key, get(stage));
                }
                let size = &stage.batch_size;
                json_field(
                    out,
                    "batch_size",
                    format_args!(
                        "{{\"count\":{},\"sum\":{},\"mean\":{:.2},\"p50\":{},\"p99\":{},\"max\":{}}}",
                        size.count, size.sum, size.mean, size.p50, size.p99, size.max
                    ),
                );
                json_key(out, "decode");
                let recorded = stage.decode.iter().filter(|(_, h)| h.count() > 0);
                json_histograms(out, recorded.map(|(dtype, h)| (*dtype, h)));
            });
            for (key, spans) in [
                ("recent_traces", &self.recent_traces),
                ("slowest_traces", &self.slowest_traces),
            ] {
                json_objects(out, key, spans, |out, span| {
                    let _ = write!(
                        out,
                        "\"seq\":{},\"shard\":{},\"rows\":{},\"queue_wait_nanos\":{},\
                         \"service_nanos\":{},\"total_nanos\":{},\"outcome\":\"{}\"",
                        span.seq,
                        span.shard,
                        span.rows,
                        span.queue_wait_nanos,
                        span.service_nanos,
                        span.total_nanos,
                        span.outcome.as_str()
                    );
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::SpanOutcome;
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut queue_wait = LatencyHistogram::new();
        queue_wait.record(10_000);
        queue_wait.record(20_000);
        let mut decode_int8 = LatencyHistogram::new();
        decode_int8.record(5_000);
        let mut batch_size = LatencyHistogram::new();
        batch_size.record(4 * SIZE_SCALE);
        batch_size.record(8 * SIZE_SCALE);
        MetricsSnapshot {
            level: TelemetryLevel::Full,
            uptime: Duration::from_millis(1_500),
            traced_spans: 2,
            models: vec![ModelMetrics {
                name: "quote\"back\\slash\nline".to_string(),
                issued: 12,
                requests: 9,
                shed: 2,
                expired: 1,
                snapshot_swaps: 1,
                delta_applies: 3,
                delta_cow_bytes: 4096,
                delta_pages_touched: 2,
                lru_invalidations: 0,
            }],
            stages: vec![ShardStageMetrics {
                shard: 0,
                admission_wait: LatencyHistogram::new(),
                queue_wait,
                batch_assembly: LatencyHistogram::new(),
                batch_size: SizeStats::from_scaled(&batch_size),
                decode: vec![("f32", LatencyHistogram::new()), ("int8", decode_int8)],
                forward: LatencyHistogram::new(),
                slab_write: LatencyHistogram::new(),
                decode_rows: 10,
            }],
            recent_traces: vec![Span {
                seq: 4,
                shard: 0,
                rows: 2,
                queue_wait_nanos: 1_000,
                service_nanos: 2_000,
                total_nanos: 3_000,
                outcome: SpanOutcome::Served,
            }],
            slowest_traces: vec![],
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE memcom_requests_total counter\n"));
        // Label values escape backslash, quote, and newline.
        let escaped = "quote\\\"back\\\\slash\\nline";
        assert!(text.contains(&format!("memcom_requests_total{{model=\"{escaped}\"}} 9\n")));
        assert!(text.contains("memcom_decode_rows_total{shard=\"0\"} 10\n"));
        // Histogram: +Inf carries the total count, _count/_sum agree.
        assert!(text.contains(
            "memcom_stage_latency_nanos_bucket{stage=\"queue_wait\",shard=\"0\",le=\"+Inf\"} 2\n"
        ));
        assert!(text
            .contains("memcom_stage_latency_nanos_sum{stage=\"queue_wait\",shard=\"0\"} 30000\n"));
        // Empty dtype histograms are elided, recorded ones render.
        assert!(!text.contains("dtype=\"f32\""));
        assert!(text.contains("dtype=\"int8\""));
        // Batch-size summary is unscaled back to rows.
        assert!(text.contains("memcom_batch_size{shard=\"0\",quantile=\"1\"} 8\n"));
        assert!(text.contains("memcom_batch_size_sum{shard=\"0\"} 12\n"));
        assert!(!text.contains("batch_assembly"));
    }

    #[test]
    fn off_level_renders_counters_only() {
        let mut snapshot = sample_snapshot();
        snapshot.level = TelemetryLevel::Off;
        let text = snapshot.to_prometheus();
        assert!(text.contains("memcom_requests_total"));
        assert!(text.contains("memcom_delta_applies_total"));
        assert!(!text.contains("memcom_stage_latency_nanos"));
        assert!(!text.contains("memcom_batch_size"));
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"quote\\\"back\\\\slash\\nline\""));
        assert!(json.contains("\"issued\":12"));
        assert!(json.contains("\"decode_rows\":10,"));
        assert!(json.contains("\"outcome\":\"served\""));
        // Only recorded dtypes appear.
        assert!(json.contains("\"int8\":{\"count\":1"));
        assert!(!json.contains("\"f32\""));
        assert!(!json.contains("batch_assembly"));
    }

    #[test]
    fn size_stats_unscale() {
        let mut h = LatencyHistogram::new();
        for rows in [2u64, 4, 8, 16] {
            h.record(rows * SIZE_SCALE);
        }
        let stats = SizeStats::from_scaled(&h);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.sum, 30);
        assert_eq!(stats.max, 16);
        assert!(stats.p50 >= 4 && stats.p50 <= 5, "p50={}", stats.p50);
        assert!((stats.mean - 7.5).abs() < 0.01);
        assert_eq!(
            SizeStats::from_scaled(&LatencyHistogram::new()),
            SizeStats::default()
        );
    }
}
