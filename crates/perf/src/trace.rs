//! The traced pass's span recorder and per-layer ledger.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! the client-observed call is a request's root, and each layer's public
//! function is then called directly on the same ids and recorded as a
//! child. Spans stay in memory until the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use memcom_net::NetMetricsSnapshot;
use memcom_ondevice::{active_kernel, decode_row_into, quantize_row, Dtype};
use memcom_serve::{LatencyHistogram, ServeStats, ShardStageMetrics, ShardedStore};

use crate::alloc_counts;
use crate::measure::{median, process_cpu_seconds, quantile};
use crate::report::{Outcome, PER_LAYER};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub request: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as one span; returns its result, span index and
    /// duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32, u64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let span = Span {
            name,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: (t1 - self.epoch).as_nanos() as u64,
            parent,
            request,
        };
        self.spans.push(span);
        (out, (self.spans.len() - 1) as u32, span.ns())
    }

    /// Self time of span `idx`: its duration minus its children's (which
    /// are always recorded after it).
    pub fn self_ns(&self, idx: u32) -> u64 {
        let children: u64 = self.spans[idx as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::ns)
            .sum();
        self.spans[idx as usize].ns().saturating_sub(children)
    }
}

/// Buffers for [`direct_lookup`], reused across requests.
pub struct LookupScratch {
    groups: Vec<Vec<usize>>,
    rows: Vec<f32>,
}

impl LookupScratch {
    pub fn new(store: &ShardedStore, max_ids: usize) -> Self {
        LookupScratch {
            groups: vec![Vec::new(); store.n_shards()],
            rows: vec![0.0; max_ids * store.dim()],
        }
    }
}

/// The store layer called directly: `ids` grouped by shard and each group
/// read with `ShardedStore::lookup_batch`, one `serve.store_lookup` span
/// per group under `parent`. Records the ledger rows and returns the
/// summed time.
pub fn direct_lookup(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    store: &ShardedStore,
    ids: &[usize],
    scratch: &mut LookupScratch,
    (parent, request): (u32, u32),
) -> u64 {
    for group in &mut scratch.groups {
        group.clear();
    }
    for &id in ids {
        scratch.groups[store.shard_of(id)].push(id);
    }
    let mut lookup_ns = 0;
    for (shard, group) in scratch.groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let out = &mut scratch.rows[..group.len() * store.dim()];
        let (_, _, ns) = tracer.span("serve.store_lookup", Some(parent), request, || {
            store
                .lookup_batch(shard, group, out)
                .expect("direct lookup serves")
        });
        lookup_ns += ns;
    }
    ledger.add("serve.store_lookup_ns", lookup_ns as f64);
    ledger.add(
        "serve.store_lookup_ns_per_row",
        lookup_ns as f64 / ids.len() as f64,
    );
    lookup_ns
}

/// Per-request values of each ledger row; a row's reported figure is
/// the median across requests.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn add(&mut self, row: &'static str, value: f64) {
        self.rows.entry(row).or_default().push(value);
    }

    /// A row read once per pass (a counter, a ratio) rather than per
    /// request.
    pub fn set(&mut self, row: &'static str, value: f64) {
        self.rows.insert(row, vec![value]);
    }

    /// Median of `row`, `0` when the layer never ran.
    pub fn p50(&mut self, row: &str) -> f64 {
        match self.rows.get_mut(row) {
            Some(values) if !values.is_empty() => median(values),
            _ => 0.0,
        }
    }

    /// The rows read from a model's `ServeStats` at the end of a pass.
    pub fn set_serve_stats(&mut self, stats: &ServeStats) {
        self.set("serve.mean_batch_rows", stats.mean_batch());
        self.set("serve.issued", stats.issued as f64);
        self.set("serve.served", stats.requests as f64);
        self.set("serve.shed", stats.shed as f64);
        self.set("serve.expired", stats.expired as f64);
    }

    /// Every per-layer metric of the contract, from the rows recorded.
    pub fn emit(&mut self, outcome: &mut Outcome) {
        for name in PER_LAYER {
            let value = self.p50(name);
            outcome.layer(name, value);
        }
    }
}

/// Phase A of a traced pass: the stream's first requests replayed with
/// nothing recorded but each call's time, allocations counted around it,
/// and the process CPU clock read before and after the replay — the
/// untraced baseline the traced replay is compared with.
#[derive(Debug, Default)]
pub struct Untraced {
    pub call_ns: Vec<f64>,
    allocs: u64,
    alloc_bytes: u64,
    /// Process CPU over the whole replay, `before` included.
    cpu_s: f64,
}

impl Untraced {
    /// Replays up to `n` requests (at least one, then until `budget` is
    /// spent): `before(k)` runs untimed, `call(k)` is the measured call.
    pub fn replay(
        n: usize,
        budget: Duration,
        mut before: impl FnMut(usize),
        mut call: impl FnMut(usize),
    ) -> Untraced {
        let deadline = Instant::now() + budget;
        let mut untraced = Untraced::default();
        let cpu_before = process_cpu_seconds();
        while untraced.call_ns.len() < n
            && (untraced.call_ns.is_empty() || Instant::now() < deadline)
        {
            let k = untraced.call_ns.len();
            before(k);
            let (allocs, bytes) = alloc_counts();
            let t0 = Instant::now();
            call(k);
            untraced.call_ns.push(t0.elapsed().as_nanos() as f64);
            let (allocs_after, bytes_after) = alloc_counts();
            untraced.allocs += allocs_after - allocs;
            untraced.alloc_bytes += bytes_after - bytes;
        }
        untraced.cpu_s = process_cpu_seconds() - cpu_before;
        untraced
    }

    /// Records this phase's rows. `traced_root_ns` holds the root span of
    /// each request the traced phase replayed, in order; the overhead of
    /// tracing is the two phases' mean call time over the same requests.
    pub fn record(&self, ledger: &mut Ledger, traced_root_ns: &[f64]) {
        let n = self.call_ns.len() as f64;
        ledger.set("proc.cpu_us_per_op", self.cpu_s * 1e6 / n);
        ledger.set("proc.allocs_per_op", self.allocs as f64 / n);
        ledger.set("proc.alloc_bytes_per_op", self.alloc_bytes as f64 / n);
        let mut sorted = self.call_ns.clone();
        sorted.sort_by(f64::total_cmp);
        ledger.set("trace.call_p50_ns", quantile(&sorted, 0.5));
        ledger.set("trace.call_p95_ns", quantile(&sorted, 0.95));
        ledger.set("trace.call_p99_ns", quantile(&sorted, 0.99));
        let traced = traced_root_ns.len();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        ledger.set(
            "trace.overhead_pct",
            100.0 * (mean(traced_root_ns) / mean(&self.call_ns[..traced]) - 1.0),
        );
    }
}

/// Result of a traced pass: counts and verdict, the ledger, the spans, and
/// the system's own stage histograms (`serve.stage.*` / `net.stage.*`
/// p50s).
pub struct Traced {
    pub outcome: Outcome,
    pub ledger: Ledger,
    pub tracer: Tracer,
    pub stages: Vec<(String, f64)>,
}

/// The p50 of every stage histogram the serve and net tiers recorded,
/// merged across shards, as `serve.stage.*` / `net.stage.*` rows.
pub fn stage_rows(
    shards: &[ShardStageMetrics],
    net: Option<&NetMetricsSnapshot>,
) -> Vec<(String, f64)> {
    fn p50<'a>(hists: impl Iterator<Item = &'a LatencyHistogram>) -> f64 {
        let mut all = LatencyHistogram::new();
        for h in hists {
            all.merge(h);
        }
        all.p50() as f64
    }
    let decode = shards.iter().flat_map(|s| s.decode.iter().map(|(_, h)| h));
    let mut rows = vec![
        (
            "serve.stage.queue_wait_ns",
            p50(shards.iter().map(|s| &s.queue_wait)),
        ),
        (
            "serve.stage.batch_assembly_ns",
            p50(shards.iter().map(|s| &s.batch_assembly)),
        ),
        ("serve.stage.decode_ns", p50(decode)),
        (
            "serve.stage.forward_ns",
            p50(shards.iter().map(|s| &s.forward)),
        ),
        (
            "serve.stage.slab_write_ns",
            p50(shards.iter().map(|s| &s.slab_write)),
        ),
    ];
    if let Some(net) = net {
        rows.push(("net.stage.frame_decode_ns", net.frame_decode.p50() as f64));
        rows.push((
            "net.stage.response_encode_ns",
            net.response_encode.p50() as f64,
        ));
        rows.push(("net.stage.socket_write_ns", net.socket_write.p50() as f64));
    }
    rows.into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// `decode_row_into` cost per dim-64 row for each stored dtype, under
/// the process's active SIMD kernel, as `(metric, ns per row)`.
pub fn decode_row_costs(repeats: usize) -> Vec<(&'static str, f64)> {
    const DIM: usize = 64;
    const ROWS: usize = 2048;
    let row: Vec<f32> = (0..DIM).map(|j| (j as f32 - 31.5) * 0.01).collect();
    [
        ("ondevice.decode_row_ns_per_row.f32", Dtype::F32),
        ("ondevice.decode_row_ns_per_row.f16", Dtype::F16),
        ("ondevice.decode_row_ns_per_row.int8", Dtype::Int8),
        ("ondevice.decode_row_ns_per_row.int4", Dtype::Int4),
    ]
    .into_iter()
    .map(|(label, dtype)| {
        let stride = dtype.row_bytes(DIM);
        let mut bytes = vec![0u8; stride * ROWS];
        let mut scale = 1.0;
        for chunk in bytes.chunks_exact_mut(stride) {
            scale = quantize_row(&row, dtype, chunk);
        }
        let mut out = vec![0f32; DIM];
        let mut per_row: Vec<f64> = (0..repeats)
            .map(|_| {
                let t0 = Instant::now();
                for chunk in bytes.chunks_exact(stride) {
                    decode_row_into(std::hint::black_box(chunk), dtype, scale, &mut out);
                    std::hint::black_box(&mut out);
                }
                t0.elapsed().as_nanos() as f64 / ROWS as f64
            })
            .collect();
        (label, median(&mut per_row))
    })
    .collect()
}

/// Name of the SIMD kernel the decode figures were taken under.
pub fn kernel_name() -> &'static str {
    active_kernel().as_str()
}

/// `trace.json`: the spans of every traced workload plus the stage
/// histograms the system's own telemetry recorded during the pass.
pub fn trace_json(workloads: &[Traced]) -> String {
    let mut out = String::from("{\"workloads\": [\n");
    for (w, traced) in workloads.iter().enumerate() {
        let Traced {
            outcome,
            tracer,
            stages,
            ..
        } = traced;
        let name = outcome.workload;
        let _ = write!(out, "  {{\"workload\": \"{name}\", \"stages\": {{");
        for (i, (stage, p50)) in stages.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{stage}\": {p50}");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == tracer.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        let sep = if w + 1 == workloads.len() { "" } else { "," };
        let _ = writeln!(out, "  ]}}{sep}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.spans.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            request: 0,
        });
        for (start, end) in [(10, 30), (40, 90)] {
            t.spans.push(Span {
                name: "child",
                start_ns: start,
                end_ns: end,
                parent: Some(0),
                request: 0,
            });
        }
        assert_eq!(t.self_ns(0), 30);
        assert_eq!(t.self_ns(1), 20);
    }
}
