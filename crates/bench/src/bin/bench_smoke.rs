//! CI perf-gate smoke benchmark.
//!
//! Runs a pinned subset of the serving benchmarks — the closed-loop
//! throughput scenario from `serve_throughput`, the quantized miss path
//! from `serve_dtype`, the steady-state allocation count certified by
//! `tests/alloc_count.rs`, the delta-apply scenario from `serve_delta`,
//! and the same closed-loop traffic once more through `memcom-net`'s
//! loopback wire path — in a couple of seconds, then:
//!
//! 1. writes the measurements as a flat JSON object (`BENCH_serve.json`,
//!    uploaded as a CI artifact so every run leaves a comparable trace),
//! 2. compares them against the checked-in baseline
//!    (`results/BENCH_serve_baseline.json`) and **fails the process**
//!    when any metric regresses by more than 25% — the CI perf gate.
//!
//! Higher-is-better metrics (QPS, delta speedup) fail below
//! `baseline / 1.25`; lower-is-better metrics (latency, allocations,
//! apply time, copied fraction) fail above `baseline * 1.25`. The
//! `telemetry_overhead_pct` metric (QPS lost to full telemetry vs off,
//! measured as interleaved pairs) is gated against its baseline entry
//! as an *absolute* percentage budget instead.
//! Improvements never fail; refresh the baseline deliberately with
//! `--quick --update-baseline` when a change moves the floor —
//! **matching the mode CI gates with** (`--quick`), since the two modes
//! measure different workload sizes and their numbers are not
//! comparable.
//!
//! ```text
//! bench_smoke [--quick] [--out PATH] [--baseline PATH] [--update-baseline]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use memcom_core::{FullEmbedding, MemCom, MemComConfig};
use memcom_serve::{
    run_load, Dtype, EmbedBatch, EmbedServer, LoadGenConfig, LoadMode, ServeConfig, ShardedStore,
    StoreDelta, TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every allocation in the process, so the steady-state
/// allocs-per-call metric is exact and machine-independent.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` plus a relaxed counter
// bump; every GlobalAlloc contract obligation is discharged by the
// delegated call.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: ptr/layout/new_size forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: ptr/layout forwarded unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether a bigger value is a better value.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// The pinned metric set. Adding a metric here extends the gate; the
/// baseline file must carry the same keys.
const DIRECTIONS: &[(&str, Direction)] = &[
    ("throughput_qps", Direction::HigherIsBetter),
    ("p50_ns", Direction::LowerIsBetter),
    ("p99_ns", Direction::LowerIsBetter),
    ("int8_miss_ns_per_row", Direction::LowerIsBetter),
    ("f16_miss_ns_per_row", Direction::LowerIsBetter),
    ("int4_miss_ns_per_row", Direction::LowerIsBetter),
    ("memcom_scalar_int8_bytes", Direction::LowerIsBetter),
    ("allocs_per_call", Direction::LowerIsBetter),
    ("delta_apply_us", Direction::LowerIsBetter),
    ("delta_speedup_vs_rebuild", Direction::HigherIsBetter),
    ("delta_copied_frac", Direction::LowerIsBetter),
    ("telemetry_overhead_pct", Direction::LowerIsBetter),
    ("net_loopback_qps", Direction::HigherIsBetter),
    ("score_qps", Direction::HigherIsBetter),
    ("lint_runtime_ms", Direction::LowerIsBetter),
];

/// Allowed regression vs. the checked-in baseline.
const TOLERANCE: f64 = 1.25;

/// Metrics where the baseline value is itself the hard limit rather
/// than a floor the tolerance scales: `telemetry_overhead_pct` is a
/// percentage budget (full telemetry may cost at most this much QPS)
/// and `lint_runtime_ms` is a wall-clock budget for the full
/// memcom-lint pass, so a "25% worse than measured-at-baseline-time"
/// gate would drift.
const ABSOLUTE_CAPS: &[&str] = &["telemetry_overhead_pct", "lint_runtime_ms"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let update_baseline = args.iter().any(|a| a == "--update-baseline");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let baseline_path = flag_value(&args, "--baseline")
        .unwrap_or_else(|| "results/BENCH_serve_baseline.json".to_string());

    let metrics = measure(quick);

    let json = to_json(&metrics);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("bench_smoke: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("bench_smoke: wrote {out_path}");
    for (key, value) in &metrics {
        println!("  {key:<26} {value:>14.3}");
    }

    if update_baseline {
        std::fs::write(&baseline_path, &json).unwrap_or_else(|e| {
            eprintln!("bench_smoke: cannot write {baseline_path}: {e}");
            std::process::exit(2);
        });
        println!("bench_smoke: baseline refreshed at {baseline_path}");
        return;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "bench_smoke: no baseline at {baseline_path} ({e}); \
                 run with --update-baseline to seed one"
            );
            std::process::exit(2);
        }
    };
    let baseline = parse_flat_json(&baseline_text).unwrap_or_else(|e| {
        eprintln!("bench_smoke: cannot parse {baseline_path}: {e}");
        std::process::exit(2);
    });

    let mut failures = 0;
    println!(
        "\nperf gate vs {baseline_path} (>{:.0}% regression fails):",
        (TOLERANCE - 1.0) * 100.0
    );
    for &(key, direction) in DIRECTIONS {
        let measured = lookup(&metrics, key);
        let Some(base) = baseline.iter().find(|(k, _)| k == key).map(|(_, v)| *v) else {
            println!("  {key:<26} (no baseline entry; skipped)");
            continue;
        };
        let (worst_allowed, regressed) = if ABSOLUTE_CAPS.contains(&key) {
            (base, measured > base)
        } else {
            match direction {
                Direction::HigherIsBetter => (base / TOLERANCE, measured < base / TOLERANCE),
                Direction::LowerIsBetter => (base * TOLERANCE, measured > base * TOLERANCE),
            }
        };
        let verdict = if regressed { "FAIL" } else { "ok" };
        println!(
            "  {key:<26} {measured:>14.3}  baseline {base:>14.3}  limit {worst_allowed:>14.3}  {verdict}"
        );
        if regressed {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("bench_smoke: {failures} metric(s) regressed beyond the 25% gate");
        std::process::exit(1);
    }
    println!("bench_smoke: perf gate passed");
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn lookup(metrics: &[(&'static str, f64)], key: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .expect("metric measured")
}

fn measure(quick: bool) -> Vec<(&'static str, f64)> {
    let mut metrics = Vec::new();

    // --- serve_throughput subset: closed-loop QPS + latency ----------
    let (vocab, clients, requests) = if quick {
        (10_000, 2, 300)
    } else {
        (20_000, 4, 1_000)
    };
    let mut rng = StdRng::seed_from_u64(7);
    let emb = MemCom::new(MemComConfig::new(vocab, 32, vocab / 10), &mut rng).expect("memcom");
    let server = EmbedServer::start(
        &emb,
        ServeConfig {
            n_shards: 4,
            max_batch: 64,
            max_wait: Duration::from_micros(50),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let report = run_load(
        &server.handle(),
        &LoadGenConfig {
            clients,
            requests_per_client: requests,
            ids_per_request: 16,
            zipf_exponent: 1.1,
            mode: LoadMode::Closed,
            seed: 42,
        },
    )
    .expect("load runs");
    metrics.push(("throughput_qps", report.qps()));
    metrics.push(("p50_ns", report.histogram.p50() as f64));
    metrics.push(("p99_ns", report.histogram.p99() as f64));
    drop(server);

    // --- serve_dtype subset: quantized cache-off miss paths ----------
    // One store per gated dtype; each drives the simd decode kernels
    // (`Kernel::{Avx2,Sse2,Scalar}` by runtime detection), so a kernel
    // regression shows up here per dtype.
    let mut rng = StdRng::seed_from_u64(9);
    let table = FullEmbedding::new(vocab / 2, 32, &mut rng).expect("table");
    let iters = if quick { 200 } else { 1_000 };
    for (key, dtype) in [
        ("int8_miss_ns_per_row", Dtype::Int8),
        ("f16_miss_ns_per_row", Dtype::F16),
        ("int4_miss_ns_per_row", Dtype::Int4),
    ] {
        let store = ShardedStore::build_quantized(&table, 1, 0, 16 * 1024, dtype).expect("store");
        let ids: Vec<usize> = (0..256).collect();
        let mut slab = vec![0f32; ids.len() * 32];
        for _ in 0..3 {
            store.lookup_batch(0, &ids, &mut slab).expect("warm");
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            store.lookup_batch(0, &ids, &mut slab).expect("measured");
        }
        let per_row = t0.elapsed().as_nanos() as f64 / (iters as f64 * ids.len() as f64);
        metrics.push((key, per_row));
    }

    // --- quantized MemCom scalar-table footprint ---------------------
    // Byte count, not a timing: the int8 scalar blocks must stay ~3.8×
    // smaller than one f32 per entity, and any layout change that grows
    // them shows up as a gate failure.
    let mut rng = StdRng::seed_from_u64(10);
    let emb = MemCom::new(MemComConfig::new(vocab, 32, vocab / 10), &mut rng).expect("memcom");
    let quant_store =
        ShardedStore::build_quantized(&emb, 4, 0, 16 * 1024, Dtype::Int8).expect("memcom int8");
    metrics.push((
        "memcom_scalar_int8_bytes",
        quant_store.memcom_scalar_bytes() as f64,
    ));
    drop(quant_store);

    // --- alloc_count subset: steady-state allocations per batch call -
    let mut rng = StdRng::seed_from_u64(11);
    let emb = MemCom::new(MemComConfig::new(1_000, 16, 100), &mut rng).expect("memcom");
    let server = EmbedServer::start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            max_wait: Duration::from_micros(1),
            cache_capacity: 1_024,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let ids: Vec<usize> = (0..512).collect();
    let mut batch = EmbedBatch::new();
    for _ in 0..10 {
        handle.get_batch_into(&ids, &mut batch).expect("warm");
    }
    let calls = 50u64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..calls {
        handle.get_batch_into(&ids, &mut batch).expect("measured");
    }
    let allocs_per_call = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / calls as f64;
    metrics.push(("allocs_per_call", allocs_per_call));
    drop(server);

    // --- serve_delta subset: 0.1% delta apply vs full rebuild --------
    let (delta_vocab, delta_rows) = if quick {
        (100_000, 100)
    } else {
        (200_000, 200)
    };
    let mut rng = StdRng::seed_from_u64(13);
    let table = FullEmbedding::new(delta_vocab, 16, &mut rng).expect("table");
    let t0 = Instant::now();
    let store = ShardedStore::build(&table, 4, 1_024, 16 * 1024).expect("store");
    let rebuild = t0.elapsed();
    let mut delta = StoreDelta::new(16);
    for k in 0..delta_rows {
        let row: Vec<f32> = (0..16).map(|j| ((k + j) as f32) * 1e-3).collect();
        delta
            .upsert_row(delta_vocab / 2 + k, &row)
            .expect("dim matches");
    }
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let new = store.apply_delta(&delta).expect("delta applies");
            let elapsed = t0.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(&new);
            elapsed
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let apply_us = samples[samples.len() / 2];
    let new = store.apply_delta(&delta).expect("delta applies");
    metrics.push(("delta_apply_us", apply_us));
    metrics.push((
        "delta_speedup_vs_rebuild",
        rebuild.as_secs_f64() * 1e6 / apply_us.max(1e-9),
    ));
    metrics.push((
        "delta_copied_frac",
        new.cow_copied_bytes() as f64 / store.stored_bytes() as f64,
    ));

    // --- telemetry overhead: the act-1 closed loop, Off vs Full ------
    // Three interleaved Off/Full pairs cancel machine drift; the metric
    // is the median relative QPS loss of serving with full telemetry
    // (stage histograms + 1%-sampled tracing), clamped at zero. The
    // gate treats its baseline entry as an absolute percentage budget.
    let mut rng = StdRng::seed_from_u64(17);
    let emb = MemCom::new(MemComConfig::new(vocab, 32, vocab / 10), &mut rng).expect("memcom");
    let overhead_load = LoadGenConfig {
        clients,
        requests_per_client: requests / 2,
        ids_per_request: 16,
        zipf_exponent: 1.1,
        mode: LoadMode::Closed,
        seed: 42,
    };
    let qps_at = |telemetry: TelemetryConfig| {
        let server = EmbedServer::start(
            &emb,
            ServeConfig {
                n_shards: 4,
                max_batch: 64,
                max_wait: Duration::from_micros(50),
                telemetry,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let report = run_load(&server.handle(), &overhead_load).expect("load runs");
        report.qps()
    };
    let mut overheads: Vec<f64> = (0..3)
        .map(|_| {
            let off = qps_at(TelemetryConfig::off());
            let full = qps_at(TelemetryConfig::full(0.01));
            (100.0 * (off - full) / off).max(0.0)
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    metrics.push(("telemetry_overhead_pct", overheads[1]));

    // --- memcom-net subset: the same closed loop over loopback -------
    // One wire hop on top of the act-1 scenario: a Router behind a
    // NetServer, driven by `clients` connections of
    // synchronous lookups. Gates the whole frame-encode → socket →
    // frame-decode → router → response path.
    let mut rng = StdRng::seed_from_u64(19);
    let emb = MemCom::new(MemComConfig::new(vocab, 32, vocab / 10), &mut rng).expect("memcom");
    let router = memcom_serve::Router::start(ServeConfig {
        n_shards: 4,
        max_batch: 64,
        max_wait: Duration::from_micros(50),
        ..ServeConfig::default()
    })
    .expect("router starts");
    router.register("default", &emb).expect("registers");
    let net_server = memcom_net::NetServer::start(router, memcom_net::NetServerConfig::default())
        .expect("net server starts");
    let (net_report, _) = memcom_net::run_net_load(
        net_server.local_addr(),
        "default",
        vocab,
        &LoadGenConfig {
            clients,
            requests_per_client: requests / 2,
            ids_per_request: 16,
            zipf_exponent: 1.1,
            mode: LoadMode::Closed,
            seed: 42,
        },
        None,
    )
    .expect("net load runs");
    net_server.shutdown();
    metrics.push(("net_loopback_qps", net_report.qps()));

    // --- full-model score path: RankNet behind the router ------------
    // The same loopback closed loop, but every request is a full
    // scoring pipeline (embedding gather + pool + dense head) through
    // a `RankNetBackend` registered in the router's `InferBackend`
    // registry. Gates the whole score path: wire kind, shard-queue
    // micro-batching, per-worker inference scratch, and the forward.
    let ranker = memcom_models::RecModel::new(
        &memcom_models::ModelConfig::pointwise(vocab, 32, 16, 1),
        &memcom_core::MethodSpec::MemCom {
            hash_size: vocab / 10,
            bias: false,
        },
    )
    .expect("ranker builds");
    let router = memcom_serve::Router::start(ServeConfig {
        n_shards: 4,
        max_batch: 64,
        max_wait: Duration::from_micros(50),
        ..ServeConfig::default()
    })
    .expect("router starts");
    router
        .backends()
        .register(
            "ranknet",
            std::sync::Arc::new(
                memcom_serve::RankNetBackend::from_model(&ranker).expect("backend builds"),
            ),
        )
        .expect("backend registers");
    router
        .register_with_backend("scorer", ranker.embedding(), Dtype::F32, "ranknet")
        .expect("scorer registers");
    let net_server = memcom_net::NetServer::start(router, memcom_net::NetServerConfig::default())
        .expect("net server starts");
    let (score_report, _) = memcom_net::run_net_score_load(
        net_server.local_addr(),
        "scorer",
        vocab,
        &LoadGenConfig {
            clients,
            requests_per_client: requests / 2,
            ids_per_request: 16,
            zipf_exponent: 1.1,
            mode: LoadMode::Closed,
            seed: 42,
        },
        None,
    )
    .expect("score load runs");
    net_server.shutdown();
    metrics.push(("score_qps", score_report.qps()));

    // --- static-analysis runtime: the memcom-lint pass over the tree -
    // Wall-clock cost of the full lint walk (lex + directive parse +
    // the five-lint catalog over every .rs file, from the workspace
    // root CI runs this binary in). The baseline entry is an absolute
    // millisecond budget, not a measured floor: the gate keeps the
    // pass cheap enough to run on every push.
    let t0 = Instant::now();
    match memcom_analysis::check_workspace(std::path::Path::new(".")) {
        Ok(report) => {
            if !report.clean() {
                eprintln!(
                    "bench_smoke: memcom-lint found {} violation(s) while timing the pass",
                    report.diagnostics.len()
                );
            }
        }
        Err(e) => eprintln!("bench_smoke: lint timing walk failed: {e}"),
    }
    metrics.push(("lint_runtime_ms", t0.elapsed().as_secs_f64() * 1e3));

    metrics
}

fn to_json(metrics: &[(&'static str, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value:.6}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses a flat `{"key": number, ...}` object — the only JSON shape the
/// gate exchanges, so no dependency is needed.
fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let inner = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("expected a {...} object")?;
    let mut out = Vec::new();
    for entry in inner.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("bad entry {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in {entry:?}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number in {entry:?}: {e}"))?;
        out.push((key.to_string(), value));
    }
    Ok(out)
}
