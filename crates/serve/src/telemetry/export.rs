//! Exporters: point-in-time snapshots of the metrics registry, rendered
//! as Prometheus text exposition or JSON.
//!
//! A [`MetricsSnapshot`] is plain owned data — taking one clones the
//! shard-local accumulators under their (uncontended) locks and reads
//! the counters once, so rendering never blocks the serving path and a
//! snapshot stays internally consistent while being formatted.
//!
//! The rendering primitives ([`family`], [`render_hist`],
//! [`escape_label`], [`escape_json`], [`json_hist`]) are public so a tier
//! that embeds this exposition in its own scrape (`memcom-net`) renders
//! its families with the same rules instead of a second copy of them.

use std::fmt::Write as _;
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
    /// (ROADMAP item 1(e) removes it with its reader).
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
    /// Issue → worker dequeue per request. Includes the admission wait;
    /// subtract the admission-wait histogram to isolate pure queueing.
    pub queue_wait: LatencyHistogram,
    /// Always empty: the worker never holds a batch open, so there is
    /// no assembly time to record, and neither exporter renders it. A
    /// vestige kept because frozen `crates/perf` reads it (ROADMAP item
    /// 1(e) removes it with its reader).
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

/// Escapes a Prometheus label value (`\`, `"`, and newlines).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes a JSON string value.
pub fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
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
    out
}

/// `# HELP` / `# TYPE` preamble for one metric family.
pub fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one histogram as Prometheus `_bucket`/`_sum`/`_count` samples
/// under `labels` (no trailing comma). Zero-count buckets are elided —
/// a valid exposition, since `le` boundaries are cumulative — and the
/// open-above top bucket folds into `+Inf`.
pub fn render_hist(out: &mut String, name: &str, labels: &str, h: &LatencyHistogram) {
    let buckets: Vec<(u64, u64)> = h.iter_buckets().collect();
    let mut cumulative = 0u64;
    for (idx, &(upper, count)) in buckets.iter().enumerate() {
        cumulative += count;
        if count == 0 || idx == buckets.len() - 1 {
            continue;
        }
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{upper}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum_nanos());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

/// Summary stats of one latency histogram for the JSON rendering.
pub fn json_hist(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"mean_nanos\":{:.1},\"p50_nanos\":{},\"p99_nanos\":{},\"max_nanos\":{}}}",
        h.count(),
        h.mean_nanos(),
        h.p50(),
        h.p99(),
        h.max_nanos()
    )
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` preambles, `_total`-suffixed
    /// counters, label values escaped per the format rules.
    ///
    /// Stage histograms and traces appear only at
    /// [`TelemetryLevel::Full`]; the always-on model counters render at
    /// every level.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);

        family(
            &mut out,
            "memcom_uptime_seconds",
            "gauge",
            "Seconds since the router started.",
        );
        let _ = writeln!(
            out,
            "memcom_uptime_seconds {:.3}",
            self.uptime.as_secs_f64()
        );

        family(
            &mut out,
            "memcom_traced_spans_total",
            "counter",
            "Sampled request spans completed.",
        );
        let _ = writeln!(out, "memcom_traced_spans_total {}", self.traced_spans);

        // Per-model row and control-plane counters: one family at a
        // time, every model as a sample.
        type ModelValue = fn(&ModelMetrics) -> u64;
        let model_counters: [(&str, &str, ModelValue); 8] = [
            (
                "memcom_issued_rows_total",
                "Rows entering the serving path, before admission.",
                |m| m.issued,
            ),
            (
                "memcom_requests_total",
                "Rows served through batches.",
                |m| m.requests,
            ),
            ("memcom_shed_rows_total", "Rows shed at admission.", |m| {
                m.shed
            }),
            (
                "memcom_expired_rows_total",
                "Rows dropped at dequeue past their deadline.",
                |m| m.expired,
            ),
            (
                "memcom_snapshot_swaps_total",
                "Full store snapshot swaps.",
                |m| m.snapshot_swaps,
            ),
            (
                "memcom_delta_applies_total",
                "Incremental delta refreshes applied.",
                |m| m.delta_applies,
            ),
            (
                "memcom_delta_cow_bytes_total",
                "Bytes copied by copy-on-write page updates during delta applies.",
                |m| m.delta_cow_bytes,
            ),
            (
                "memcom_delta_pages_touched_total",
                "Pages copied before first write during delta applies.",
                |m| m.delta_pages_touched,
            ),
        ];
        for (name, help, value) in model_counters {
            family(&mut out, name, "counter", help);
            for model in &self.models {
                let _ = writeln!(
                    out,
                    "{name}{{model=\"{}\"}} {}",
                    escape_label(&model.name),
                    value(model)
                );
            }
        }

        if self.level == TelemetryLevel::Full {
            family(
                &mut out,
                "memcom_decode_rows_total",
                "counter",
                "Rows decoded from the store's pages for lookups, per shard.",
            );
            for stage in &self.stages {
                let _ = writeln!(
                    out,
                    "memcom_decode_rows_total{{shard=\"{}\"}} {}",
                    stage.shard, stage.decode_rows
                );
            }

            family(
                &mut out,
                "memcom_stage_latency_nanos",
                "histogram",
                "Per-stage request lifecycle latency in nanoseconds.",
            );
            for stage in &self.stages {
                let shard = stage.shard;
                for (label, hist) in [
                    ("admission_wait", &stage.admission_wait),
                    ("queue_wait", &stage.queue_wait),
                    ("forward", &stage.forward),
                    ("slab_write", &stage.slab_write),
                ] {
                    let labels = format!("stage=\"{label}\",shard=\"{shard}\"");
                    render_hist(&mut out, "memcom_stage_latency_nanos", &labels, hist);
                }
                for (dtype, hist) in &stage.decode {
                    if hist.count() == 0 {
                        continue;
                    }
                    let labels = format!("stage=\"decode\",shard=\"{shard}\",dtype=\"{dtype}\"");
                    render_hist(&mut out, "memcom_stage_latency_nanos", &labels, hist);
                }
            }

            family(
                &mut out,
                "memcom_batch_size",
                "summary",
                "Rows per flushed batch.",
            );
            for stage in &self.stages {
                let (shard, size) = (stage.shard, &stage.batch_size);
                for (q, v) in [("0.5", size.p50), ("0.99", size.p99), ("1", size.max)] {
                    let _ = writeln!(
                        out,
                        "memcom_batch_size{{shard=\"{shard}\",quantile=\"{q}\"}} {v}"
                    );
                }
                let _ = writeln!(
                    out,
                    "memcom_batch_size_sum{{shard=\"{shard}\"}} {}",
                    size.sum
                );
                let _ = writeln!(
                    out,
                    "memcom_batch_size_count{{shard=\"{shard}\"}} {}",
                    size.count
                );
            }
        }

        out
    }

    /// Renders the snapshot as a single JSON object (histograms as
    /// summary stats, traces as span arrays) — the machine-readable
    /// counterpart of [`to_prometheus`](Self::to_prometheus).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        let _ = write!(
            out,
            "\"level\":\"{}\",\"uptime_seconds\":{:.3},\"traced_spans\":{}",
            level_name(self.level),
            self.uptime.as_secs_f64(),
            self.traced_spans
        );

        out.push_str(",\"models\":[");
        for (i, m) in self.models.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"issued\":{},\"requests\":{},\"shed\":{},\"expired\":{},\
                 \"snapshot_swaps\":{},\"delta_applies\":{},\"delta_cow_bytes\":{},\
                 \"delta_pages_touched\":{}}}",
                escape_json(&m.name),
                m.issued,
                m.requests,
                m.shed,
                m.expired,
                m.snapshot_swaps,
                m.delta_applies,
                m.delta_cow_bytes,
                m.delta_pages_touched
            );
        }
        out.push(']');

        out.push_str(",\"stages\":[");
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"decode_rows\":{},\
                 \"admission_wait\":{},\"queue_wait\":{},\
                 \"forward\":{},\"slab_write\":{}",
                stage.shard,
                stage.decode_rows,
                json_hist(&stage.admission_wait),
                json_hist(&stage.queue_wait),
                json_hist(&stage.forward),
                json_hist(&stage.slab_write)
            );
            let size = &stage.batch_size;
            let _ = write!(
                out,
                ",\"batch_size\":{{\"count\":{},\"sum\":{},\"mean\":{:.2},\"p50\":{},\
                 \"p99\":{},\"max\":{}}}",
                size.count, size.sum, size.mean, size.p50, size.p99, size.max
            );
            out.push_str(",\"decode\":{");
            let mut first = true;
            for (dtype, hist) in &stage.decode {
                if hist.count() == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{dtype}\":{}", json_hist(hist));
            }
            out.push_str("}}");
        }
        out.push(']');

        for (key, spans) in [
            ("recent_traces", &self.recent_traces),
            ("slowest_traces", &self.slowest_traces),
        ] {
            let _ = write!(out, ",\"{key}\":[");
            for (i, span) in spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"seq\":{},\"shard\":{},\"rows\":{},\"queue_wait_nanos\":{},\
                     \"service_nanos\":{},\"total_nanos\":{},\"outcome\":\"{}\"}}",
                    span.seq,
                    span.shard,
                    span.rows,
                    span.queue_wait_nanos,
                    span.service_nanos,
                    span.total_nanos,
                    span.outcome.as_str()
                );
            }
            out.push(']');
        }

        out.push('}');
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
