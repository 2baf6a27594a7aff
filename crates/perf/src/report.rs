//! Metric names and the text/JSON the benchmark prints.
//!
//! `END_TO_END` and `PER_LAYER` are the names `BENCHMARK.json` lists;
//! the crate's test fails when the two drift apart or a workload stops
//! emitting one of them.

use std::fmt::Write as _;

use memcom_serve::ServeStats;

use crate::measure::Summary;

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_rps",
    "latency_p50_us",
    "resident_bytes",
    "model_bytes",
];

/// Per-layer metrics every workload reports from the traced pass (`0`
/// where the layer is not on that workload's path).
pub const PER_LAYER: &[&str] = &[
    "net.encode_request_ns",
    "net.decode_request_ns",
    "net.request_bytes",
    "net.encode_response_ns",
    "net.decode_response_ns",
    "net.response_bytes",
    "net.transport_residual_ns",
    "net.frames_in",
    "net.frames_out",
    "net.protocol_errors",
    "serve.handle_call_ns",
    "serve.router_overhead_ns",
    "serve.store_lookup_ns",
    "serve.store_lookup_ns_per_row",
    "serve.cache_hit_rate",
    "serve.backend_score_ns",
    "serve.gather_ns",
    "serve.mean_batch_rows",
    "serve.issued",
    "serve.served",
    "serve.shed",
    "serve.expired",
    "serve.delta_apply_ns",
    "serve.delta_apply_direct_ns",
    "serve.delta_cow_bytes",
    "serve.delta_pages_touched",
    "serve.lru_invalidations",
    "ondevice.run_ns",
    "ondevice.forward_head_ns",
    "ondevice.embed_ns",
    "ondevice.cold_run_ns",
    "ondevice.flops",
    "ondevice.cold_bytes",
    "ondevice.warm_bytes",
    "ondevice.decode_row_ns_per_row.f32",
    "ondevice.decode_row_ns_per_row.f16",
    "ondevice.decode_row_ns_per_row.int8",
    "ondevice.decode_row_ns_per_row.int4",
    "data.zipf_sample_ns_per_id",
    "loadgen.late_p99_us",
    "proc.cpu_us_per_op",
    "proc.allocs_per_op",
    "proc.alloc_bytes_per_op",
    "trace.call_p50_ns",
    "trace.call_p95_ns",
    "trace.call_p99_ns",
    "trace.residual_share",
    "trace.overhead_pct",
];

/// The unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    match name {
        "serve.cache_hit_rate" | "trace.residual_share" => "ratio",
        "trace.overhead_pct" => "%",
        "serve.mean_batch_rows" => "rows",
        "ondevice.flops" => "flop",
        "proc.allocs_per_op" => "count",
        n if n.ends_with("_ns") || n.contains("_ns_per_") => "ns",
        n if n.ends_with("_us") || n.contains("_us_per_") => "us",
        n if n.ends_with("bytes") || n.ends_with("bytes_per_op") => "B",
        _ => "count",
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Counter contracts and ledger identities held (reference-check
    /// misses are in `failed`).
    pub consistent: bool,
    /// Free-text lines for the reader (sample counts, voided windows).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            consistent: true,
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Pushes a per-layer metric, unit derived from the name.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.push(name, value, layer_unit(name));
    }

    /// Records a broken contract: the run's `correct` turns false.
    pub fn violate(&mut self, what: String) {
        self.consistent = false;
        self.notes.push(format!("VIOLATION: {what}"));
    }

    /// The end-to-end rows every workload reports: the five contract
    /// metrics, then the unbounded ones. `latency` is the window the
    /// percentiles come from (the paced one where there is one).
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        closed: &Summary,
        latency: &Summary,
        resident_bytes: f64,
        model_bytes: f64,
    ) {
        self.push("setup_s", setup_s, "s");
        self.push("throughput_rps", closed.throughput_rps, "ops/s");
        self.push("latency_p50_us", latency.p50_us, "us");
        self.push("resident_bytes", resident_bytes, "B");
        self.push("model_bytes", model_bytes, "B");
        self.push("cpu_us_per_op", closed.cpu_us_per_op, "us");
        self.push("latency_p95_us", latency.p95_us, "us");
        self.push("latency_p99_us", latency.p99_us, "us");
        self.push("whole_window_rps", closed.whole_rps, "ops/s");
        self.push(
            "whole_window_cpu_us_per_op",
            closed.whole_cpu_us_per_op,
            "us",
        );
    }

    /// Sets the run's counts and prints their ratio.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
        self.push(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }

    /// The serve tier's counter contract, and that nothing was shed or
    /// expired: the workloads are sized so that no operation fails.
    pub fn check_serve_counters(&mut self, model: &str, s: &ServeStats) {
        if s.issued < s.requests + s.shed + s.expired || s.shed + s.expired != 0 {
            self.violate(format!(
                "serve counters of {model}: issued {} served {} shed {} expired {}",
                s.issued, s.requests, s.shed, s.expired
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.consistent && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `workload metric value unit`, one line per metric.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {} {note}", self.workload);
        }
        out
    }

    fn metrics_json(&self, keep: impl Fn(&str) -> bool) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| keep(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The driver's result line: exactly the listed metrics.
    pub fn result_line(&self, names: &[&str]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(|n| names.contains(&n))
        )
    }

    /// One entry of `out/BENCH.json`: every metric, contract or not.
    pub fn bench_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(|_| true)
        )
    }
}

/// The `"name"` strings of the objects in the top-level array `key` of a
/// `BENCHMARK.json` text — the one shape this crate needs to read back,
/// so no JSON dependency.
#[cfg(test)]
pub fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"));
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let mut quotes = rest.split('"');
            quotes.next();
            quotes.next().expect("name has a value").to_string()
        })
        .collect()
}
