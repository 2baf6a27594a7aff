//! Serve compressed embeddings under concurrent Zipf traffic.
//!
//! Nine acts:
//!
//! 1. **Method comparison** — the sharded, micro-batching server on
//!    MEmCom, the hashing baselines at the same hash size and the
//!    uncompressed table under closed-loop power-law traffic (store MB /
//!    QPS / latency / cache table), asserting that every compressed
//!    technique's store is smaller than the uncompressed one.
//! 2. **Shard scaling** — the same load at 1/2/4/8 shards.
//! 3. **Multi-model router** — three country variants behind one
//!    [`Router`] sharing the shard workers, driven by weighted mixed
//!    traffic with per-model QPS/p99, plus a live snapshot swap.
//! 4. **Quantized serving** — an fp32/f16/int8/int4 dtype sweep of one
//!    table as four registered variants on one worker set (the
//!    fp32-vs-int8 A/B is two `register` calls), reporting store and
//!    resident bytes, QPS, and the certified dequantization error bound.
//! 5. **Overload** — an open-loop sweep from half capacity to 4×
//!    capacity under `Block` vs `Shed` admission: blocking turns the
//!    open loop closed and p99 collapses with the backlog, while
//!    shedding holds p99 bounded and goodput at the capacity plateau,
//!    trading the overflow for an explicit shed rate.
//! 6. **Online refresh** — row-level delta snapshots vs the full
//!    rebuild+swap baseline, applied continuously *under* foreground
//!    traffic: refresh latency, bytes materialized per refresh, the
//!    peak-memory proxy (old snapshot + the new snapshot's unshared
//!    pages), and the p99 impact on the foreground requests.
//! 7. **Telemetry** — the act-5 overload point once more with full
//!    telemetry on: the server-side stage breakdown (admission wait,
//!    queue wait, batch assembly/size, store decode, response write)
//!    printed next to the client-side numbers it must reconcile with,
//!    the slowest sampled traces, and the snapshot dumped to
//!    `ACT7_telemetry.json` for the CI artifact.
//! 8. **Networked serving** — the same tiers behind a wire: a
//!    [`NetServer`] speaking the length-framed binary protocol over
//!    loopback, first at the act-1 closed-loop workload next to the
//!    in-process baseline (what a socket hop costs), then at the act-5
//!    open-loop overload point where every client tally must reconcile
//!    exactly with the server's [`ServeStats`] and shed responses carry
//!    `retry_after` hints a closed-loop run demonstrably sleeps on.
//! 9. **Full-model serving** — a RankNet scoring pipeline (embedding
//!    gather + pooling + dense head) registered behind the same router
//!    via the `InferBackend` registry, driven over the wire by the
//!    score-path loadgen: lookup vs score QPS/p99 on identical Zipf
//!    traffic (equal checksums), an fp32 vs int8 store A/B with the
//!    certified score-error bound, and the snapshot dumped to
//!    `ACT9_infer.json` for the CI artifact.
//!
//! Run with: `cargo run --release --example serve_load`
//! (`-- --quick` shrinks everything for CI smoke runs.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use std::sync::Arc;

use memcom::core::{MethodSpec, QrCombiner};
use memcom::models::{ModelConfig, RecModel};
use memcom::net::{run_net_load, run_net_score_load, NetServer, NetServerConfig};
use memcom::serve::{
    fmt_nanos, run_load, run_mixed_load, AdmissionPolicy, Dtype, EmbedServer, LatencyHistogram,
    LoadGenConfig, LoadMode, ModelMix, RankNetBackend, Router, ServeConfig, ShardedStore,
    StoreDelta, TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 32;
/// The paper's fixed session length (§5.1): each request embeds one
/// 128-id session, fanning out across shards.
const IDS_PER_REQUEST: usize = 128;

struct Scale {
    vocab: usize,
    clients: usize,
    requests_per_client: usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale {
            vocab: 5_000,
            clients: 2,
            requests_per_client: 25,
        }
    } else {
        Scale {
            vocab: 50_000,
            clients: 8,
            requests_per_client: 200,
        }
    };
    let vocab = scale.vocab;
    println!("=== memcom-serve: Zipf load over {vocab}-entity vocabulary (dim {DIM}) ===\n");

    // --- Method comparison at 4 shards --------------------------------
    let load = LoadGenConfig {
        clients: scale.clients,
        requests_per_client: scale.requests_per_client,
        ids_per_request: IDS_PER_REQUEST,
        zipf_exponent: 1.1,
        mode: LoadMode::Closed,
        seed: 42,
    };
    let serve_config = |n_shards: usize| ServeConfig {
        n_shards,
        max_batch: 64,
        max_wait: Duration::from_micros(50),
        ..ServeConfig::default()
    };
    println!(
        "{} clients x {} closed-loop requests x {} ids each, 4 shards, \
         max_batch 64 / max_wait 50us\n",
        load.clients, load.requests_per_client, load.ids_per_request
    );
    println!(
        "{:<14} {:>9} {:>8} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "method", "store", "req/s", "lookups/s", "p50", "p95", "p99", "hit%", "batch"
    );
    let hash_size = vocab / 10;
    let mut stored = Vec::new();
    for spec in [
        MethodSpec::MemCom {
            hash_size,
            bias: false,
        },
        MethodSpec::MemCom {
            hash_size,
            bias: true,
        },
        MethodSpec::NaiveHash { hash_size },
        MethodSpec::DoubleHash { hash_size },
        MethodSpec::QuotientRemainder {
            hash_size,
            combiner: QrCombiner::Multiply,
        },
        MethodSpec::Uncompressed,
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let emb = spec.build(vocab, DIM, &mut rng)?;
        let server = EmbedServer::start(emb.as_ref(), serve_config(4))?;
        let report = run_load(&server.handle(), &load)?;
        let stored_bytes = server.store().stored_bytes();
        stored.push((emb.method_name(), stored_bytes));
        let stored_mb = stored_bytes as f64 / 1_048_576.0;
        let stats = server.shutdown();
        println!(
            "{:<14} {:>7.2}MB {:>8.0} {:>11.0} {:>9} {:>9} {:>9} {:>6.1}% {:>7.1}",
            emb.method_name(),
            stored_mb,
            report.qps(),
            report.lookups_per_sec(),
            fmt_nanos(report.histogram.p50()),
            fmt_nanos(report.histogram.p95()),
            fmt_nanos(report.histogram.p99()),
            100.0 * stats.cache.hit_rate(),
            stats.mean_batch(),
        );
    }
    // A store holds its technique's tables, never vocab x dim rows: every
    // compressed row of the table above sits below the uncompressed one.
    let (_, uncompressed_bytes) = stored.pop().expect("the uncompressed row ran last");
    for (method, bytes) in stored {
        assert!(
            bytes < uncompressed_bytes,
            "{method} stores {bytes} B, uncompressed {uncompressed_bytes} B: \
             a compressed technique must serve compressed"
        );
    }

    // --- Shard scaling for MEmCom -------------------------------------
    println!("\nMEmCom shard scaling (same load):\n");
    println!(
        "{:<7} {:>8} {:>11} {:>9} {:>9} {:>9} {:>10} {:>11}",
        "shards", "req/s", "lookups/s", "p50", "p95", "p99", "batches", "full/timeo"
    );
    for n_shards in [1usize, 2, 4, 8] {
        let mut rng = StdRng::seed_from_u64(7);
        let emb = MethodSpec::MemCom {
            hash_size: vocab / 10,
            bias: false,
        }
        .build(vocab, DIM, &mut rng)?;
        let server = EmbedServer::start(emb.as_ref(), serve_config(n_shards))?;
        let report = run_load(&server.handle(), &load)?;
        let stats = server.shutdown();
        println!(
            "{:<7} {:>8.0} {:>11.0} {:>9} {:>9} {:>9} {:>10} {:>5}/{:<5}",
            n_shards,
            report.qps(),
            report.lookups_per_sec(),
            fmt_nanos(report.histogram.p50()),
            fmt_nanos(report.histogram.p95()),
            fmt_nanos(report.histogram.p99()),
            stats.batches,
            stats.flushes_full,
            stats.flushes_timeout,
        );
    }

    // --- Multi-model router: weighted mix + snapshot swap -------------
    println!("\nMulti-model router: 3 country variants, one worker set, weighted mix:\n");
    let router = Router::start(serve_config(4))?;
    let countries: [(&str, usize, f64); 3] = [
        ("country/us", vocab, 6.0),
        ("country/de", vocab / 2, 3.0),
        ("country/jp", vocab / 4, 1.0),
    ];
    for (name, model_vocab, _) in countries {
        let mut rng = StdRng::seed_from_u64(11);
        let emb = MethodSpec::MemCom {
            hash_size: (model_vocab / 10).max(1),
            bias: true,
        }
        .build(model_vocab, DIM, &mut rng)?;
        router.register(name, emb.as_ref())?;
    }
    let mix: Vec<ModelMix> = countries
        .iter()
        .map(|&(name, _, weight)| ModelMix::new(name, weight))
        .collect();
    let report = run_mixed_load(&router, &mix, &load)?;
    println!(
        "{:<14} {:>7} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "model", "weight", "requests", "req/s", "p50", "p95", "p99"
    );
    for (share, per_model) in mix.iter().zip(&report.per_model) {
        println!(
            "{:<14} {:>7.1} {:>9} {:>8.0} {:>9} {:>9} {:>9}",
            per_model.model,
            share.weight,
            per_model.requests,
            per_model.qps(),
            fmt_nanos(per_model.histogram.p50()),
            fmt_nanos(per_model.histogram.p95()),
            fmt_nanos(per_model.histogram.p99()),
        );
    }
    println!(
        "{:<14} {:>7} {:>9} {:>8.0}  (aggregate)",
        "total",
        "",
        report.requests,
        report.qps()
    );

    // Online table refresh: rebuild one country's table and flip it in
    // while the router keeps serving.
    let mut rng = StdRng::seed_from_u64(12);
    let retrained = MethodSpec::MemCom {
        hash_size: ((vocab / 4) / 10).max(1),
        bias: true,
    }
    .build(vocab / 4, DIM, &mut rng)?;
    let config = router.config().clone();
    let new_store = ShardedStore::build(
        retrained.as_ref(),
        config.n_shards,
        config.cache_capacity,
        config.page_size,
    )?;
    let old = router.swap("country/jp", new_store)?;
    let after_swap = run_mixed_load(&router, &mix, &load)?;
    println!(
        "\nSwapped country/jp snapshot ({} -> {} stored bytes) with traffic live: \
         {} more requests served, 0 dropped.",
        old.stored_bytes(),
        router.snapshot("country/jp")?.stored_bytes(),
        after_swap.requests
    );

    // --- Quantized serving: dtype sweep as an A/B on one worker set ---
    println!(
        "\nQuantized serving: fp32/f16/int8/int4 variants of one table, one worker set,\n\
         equal-weight mixed traffic (store = on-disk bytes, resident = pages touched):\n"
    );
    let mut rng = StdRng::seed_from_u64(23);
    let table = MethodSpec::Uncompressed.build(vocab / 2, DIM, &mut rng)?;
    let quant_router = Router::start(serve_config(4))?;
    // The fp32-vs-int8 A/B is just two register calls on one router; the
    // f16 and int4 points complete the sweep.
    quant_router.register("table/fp32", table.as_ref())?;
    for (name, dtype) in [
        ("table/f16", Dtype::F16),
        ("table/int8", Dtype::Int8),
        ("table/int4", Dtype::Int4),
    ] {
        quant_router.register_with_dtype(name, table.as_ref(), dtype)?;
    }
    let quant_mix: Vec<ModelMix> = ["table/fp32", "table/f16", "table/int8", "table/int4"]
        .into_iter()
        .map(|name| ModelMix::new(name, 1.0))
        .collect();
    let quant_report = run_mixed_load(&quant_router, &quant_mix, &load)?;
    println!(
        "{:<12} {:>9} {:>10} {:>8} {:>9} {:>9} {:>10}",
        "model", "store", "resident", "req/s", "p50", "p99", "max|err|"
    );
    for per_model in &quant_report.per_model {
        let store = quant_router.snapshot(&per_model.model)?;
        println!(
            "{:<12} {:>7.2}MB {:>8.2}MB {:>8.0} {:>9} {:>9} {:>10.2e}",
            per_model.model,
            store.stored_bytes() as f64 / 1_048_576.0,
            store.run_stats().resident_model_bytes as f64 / 1_048_576.0,
            per_model.qps(),
            fmt_nanos(per_model.histogram.p50()),
            fmt_nanos(per_model.histogram.p99()),
            store.error_bound(),
        );
    }

    // --- Overload: admission control under an open-loop sweep ---------
    // A calibrated capacity makes "2x overload" a configuration, not a
    // race: one shard serving batches of `overload_batch` behind a
    // simulated 2ms backing-store read serves exactly
    // `overload_batch / 2ms` rows/s once saturated.
    // Clients must out-number queue_depth + max_batch, or the
    // open-loop arrival process can never catch the queue full (each
    // synchronous client holds at most one request in flight).
    let store_latency = Duration::from_millis(2);
    let (overload_clients, overload_rpc, overload_batch, overload_depth) =
        if quick { (6, 20, 2, 2) } else { (24, 50, 8, 8) };
    let capacity_qps = overload_batch as f64 / store_latency.as_secs_f64();
    let enqueue_timeout = Duration::from_micros(200);
    let deadline = Duration::from_millis(25);
    println!(
        "\nOverload: open-loop sweep against a 1-shard server with a calibrated capacity\n\
         of {capacity_qps:.0} rows/s (max_batch {overload_batch} / 2ms simulated store read), \
         queue depth {overload_depth};\n\
         shed policy = {enqueue_timeout:?} enqueue budget + {deadline:?} request deadline:\n"
    );
    let mut rng = StdRng::seed_from_u64(31);
    let overload_table = MethodSpec::MemCom {
        hash_size: (vocab / 10).max(1),
        bias: false,
    }
    .build(vocab, DIM, &mut rng)?;
    println!(
        "{:<7} {:>5} {:>10} {:>10} {:>7} {:>9} {:>10} {:>10}",
        "policy", "x cap", "offered/s", "goodput/s", "shed%", "expired%", "p50", "p99"
    );
    for (label, admission) in [
        ("block", AdmissionPolicy::Block),
        (
            "shed",
            AdmissionPolicy::Shed {
                enqueue_timeout,
                request_deadline: Some(deadline),
            },
        ),
    ] {
        for multiple in [0.5f64, 1.0, 2.0, 4.0] {
            let server = EmbedServer::start(
                overload_table.as_ref(),
                ServeConfig {
                    n_shards: 1,
                    max_batch: overload_batch,
                    max_wait: Duration::from_millis(1),
                    queue_depth: overload_depth,
                    store_latency,
                    admission,
                    ..ServeConfig::default()
                },
            )?;
            let report = run_load(
                &server.handle(),
                &LoadGenConfig {
                    clients: overload_clients,
                    requests_per_client: overload_rpc,
                    ids_per_request: 1,
                    zipf_exponent: 1.1,
                    mode: LoadMode::Open {
                        target_qps: multiple * capacity_qps,
                    },
                    seed: 42,
                },
            )?;
            server.shutdown();
            println!(
                "{:<7} {:>5.1} {:>10.0} {:>10.0} {:>6.1}% {:>8.1}% {:>10} {:>10}",
                label,
                multiple,
                report.offered_qps(),
                report.goodput(),
                100.0 * report.shed as f64 / report.offered().max(1) as f64,
                100.0 * report.expired as f64 / report.offered().max(1) as f64,
                fmt_nanos(report.histogram.p50()),
                fmt_nanos(report.histogram.p99()),
            );
        }
    }
    println!(
        "\nPast capacity, Block turns the open loop closed: producers wedge on full\n\
         queues, the backlog grows for the whole run, and scheduled-send p99 collapses\n\
         with it (while shedding nothing, by definition). Shed bounds each producer's\n\
         stall to the enqueue budget plus in-flight service time, so these synchronous\n\
         clients realize much more of the overload schedule (though not all of it) —\n\
         overflow is rejected within the budget, queued requests that outlive the\n\
         deadline are dropped at dequeue before costing a store read, goodput plateaus\n\
         at capacity, and completed-request p99 stays bounded by the deadline plus\n\
         batching slack."
    );

    // --- Online refresh under traffic: delta snapshots vs full swap --
    // One uncompressed (rows-layout) table serves foreground closed-loop
    // traffic while a refresher thread continuously updates it — either
    // with row-level StoreDelta applies (copy-on-write over shared
    // pages) or with the full rebuild+swap baseline. "peak" is the
    // memory proxy at flip time: the old snapshot plus the new
    // snapshot's *unshared* bytes (pages the refresh actually
    // materialized) — deltas stay near 1×, full swaps pay 2×.
    let refresh_vocab = vocab / 2;
    let mut rng = StdRng::seed_from_u64(41);
    let live_table = MethodSpec::Uncompressed.build(refresh_vocab, DIM, &mut rng)?;
    let refresh_pause = Duration::from_millis(if quick { 5 } else { 2 });
    println!(
        "\nOnline refresh under traffic: {refresh_vocab}-row uncompressed table, 4 shards,\n\
         refresher paced at one refresh per {refresh_pause:?} while the act-1 closed loop runs:\n"
    );
    println!(
        "{:<12} {:>9} {:>8} {:>11} {:>12} {:>9} {:>8} {:>9}",
        "refresh", "rows", "refr/s", "refresh", "fresh MB/rf", "peak MB", "fg req/s", "fg p99"
    );
    for (label, mode) in [
        ("none", None),
        ("delta 0.1%", Some(Some(0.001f64))),
        ("delta 1%", Some(Some(0.01))),
        ("delta 10%", Some(Some(0.1))),
        ("full swap", Some(None)),
    ] {
        let router = Router::start(serve_config(4))?;
        router.register("live", live_table.as_ref())?;
        let stop = AtomicBool::new(false);
        let mix = [ModelMix::new("live", 1.0)];
        let (report, refreshes) = std::thread::scope(|scope| {
            let refresher = scope.spawn(|| {
                // (count, apply nanos, fresh bytes, peak alloc bytes)
                let mut tally = (0u64, 0u64, 0u64, 0usize);
                let Some(delta_frac) = mode else {
                    tally.3 = router.snapshot("live").unwrap().stored_bytes();
                    return tally;
                };
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(refresh_pause);
                    let t0 = Instant::now();
                    let (old, new) = match delta_frac {
                        Some(frac) => {
                            // Clustered refreshed ids, sliding per round.
                            let rows = ((refresh_vocab as f64 * frac) as usize).max(1);
                            let start = (round * 997) % (refresh_vocab - rows);
                            let mut delta = StoreDelta::new(DIM);
                            for k in 0..rows {
                                let row: Vec<f32> =
                                    (0..DIM).map(|j| ((round + k + j) as f32) * 1e-3).collect();
                                delta.upsert_row(start + k, &row).unwrap();
                            }
                            let old = router.apply_delta("live", &delta).unwrap();
                            let new = router.snapshot("live").unwrap();
                            (old, new)
                        }
                        None => {
                            let config = router.config();
                            let store = ShardedStore::build(
                                live_table.as_ref(),
                                config.n_shards,
                                config.cache_capacity,
                                config.page_size,
                            )
                            .unwrap();
                            let old = router.swap("live", store).unwrap();
                            let new = router.snapshot("live").unwrap();
                            (old, new)
                        }
                    };
                    tally.0 += 1;
                    tally.1 += t0.elapsed().as_nanos() as u64;
                    let fresh = new.stored_bytes() - new.shared_bytes_with(&old);
                    tally.2 += fresh as u64;
                    tally.3 = tally.3.max(old.stored_bytes() + fresh);
                    round += 1;
                }
                tally
            });
            let report = run_mixed_load(&router, &mix, &load);
            stop.store(true, Ordering::Relaxed);
            (report, refresher.join().expect("refresher panicked"))
        });
        let report = report?;
        let (count, apply_nanos, fresh_bytes, peak_bytes) = refreshes;
        let delta_rows = match mode {
            Some(Some(frac)) => ((refresh_vocab as f64 * frac) as usize).max(1).to_string(),
            Some(None) => refresh_vocab.to_string(),
            None => "-".into(),
        };
        println!(
            "{:<12} {:>9} {:>8.1} {:>11} {:>12.3} {:>9.2} {:>8.0} {:>9}",
            label,
            delta_rows,
            count as f64 / report.elapsed.as_secs_f64(),
            apply_nanos
                .checked_div(count)
                .map_or_else(|| "-".to_string(), fmt_nanos),
            if count == 0 {
                0.0
            } else {
                fresh_bytes as f64 / count as f64 / 1_048_576.0
            },
            peak_bytes as f64 / 1_048_576.0,
            report.qps(),
            fmt_nanos(report.histogram.p99()),
        );
    }
    println!(
        "\nA delta re-encodes only the rows it touches into copy-on-written pages and\n\
         leaves every other page physically shared with the superseded snapshot, so\n\
         refresh cost scales with the delta instead of the table: freshly-materialized\n\
         bytes and peak memory stay near 1x the store where the rebuild+swap baseline\n\
         pays the full store again (2x peak), each shard's hot-row LRU survives with\n\
         only the changed ids invalidated, and foreground p99 stays close to the\n\
         no-refresh row. (At 1M rows the gap is ~500x in refresh latency and ~0.2%\n\
         of store bytes copied — tests/delta.rs measures it.)"
    );

    // --- Telemetry: the server's own view of the overload point -------
    // Act 5 reported what the *clients* measured; this run turns full
    // telemetry on and lets the *server* break the same saturating load
    // into its pipeline stages, with 10%-sampled request traces.
    let telemetry_multiple = 2.0f64;
    println!(
        "\nTelemetry: the {telemetry_multiple}x-capacity shed point again with \
         telemetry = full (10% sampled traces);\n\
         the server's stage breakdown next to the client-side tallies it must match:\n"
    );
    let telemetry_server = EmbedServer::start(
        overload_table.as_ref(),
        ServeConfig {
            n_shards: 1,
            max_batch: overload_batch,
            max_wait: Duration::from_millis(1),
            queue_depth: overload_depth,
            store_latency,
            admission: AdmissionPolicy::Shed {
                enqueue_timeout,
                request_deadline: Some(deadline),
            },
            telemetry: TelemetryConfig::full(0.1),
            ..ServeConfig::default()
        },
    )?;
    let telemetry_report = run_load(
        &telemetry_server.handle(),
        &LoadGenConfig {
            clients: overload_clients,
            requests_per_client: overload_rpc,
            ids_per_request: 1,
            zipf_exponent: 1.1,
            mode: LoadMode::Open {
                target_qps: telemetry_multiple * capacity_qps,
            },
            seed: 42,
        },
    )?;
    let metrics = telemetry_server.metrics();
    telemetry_server.shutdown();

    let model = &metrics.models[0];
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>8}",
        "", "issued", "completed", "shed", "expired"
    );
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>8}",
        "client-side",
        telemetry_report.offered(),
        telemetry_report.requests,
        telemetry_report.shed,
        telemetry_report.expired,
    );
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>8}",
        "server-side", model.issued, model.requests, model.shed, model.expired,
    );

    println!(
        "\n{:<16} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p99", "max"
    );
    let stage_row = |name: &str, h: &LatencyHistogram| {
        if h.count() > 0 {
            println!(
                "{:<16} {:>8} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                fmt_nanos(h.p50()),
                fmt_nanos(h.p99()),
                fmt_nanos(h.max_nanos()),
            );
        }
    };
    for stage in &metrics.stages {
        stage_row("admission wait", &stage.admission_wait);
        stage_row("queue wait", &stage.queue_wait);
        stage_row("batch assembly", &stage.batch_assembly);
        for (dtype, h) in &stage.decode {
            stage_row(&format!("decode ({dtype})"), h);
        }
        stage_row("response write", &stage.slab_write);
        println!(
            "{:<16} {:>8} rows: mean {:.1}, p99 {}, max {} | decoded {} hit / {} miss",
            "batch size",
            stage.batch_size.count,
            stage.batch_size.mean,
            stage.batch_size.p99,
            stage.batch_size.max,
            stage.decode_rows_hit,
            stage.decode_rows_miss,
        );
    }

    println!(
        "\nSlowest sampled traces ({} spans recorded):",
        metrics.traced_spans
    );
    for span in metrics.slowest_traces.iter().take(3) {
        println!(
            "  #{:<6} shard {} {:>7}: {} queued + {} service = {} total ({} row)",
            span.seq,
            span.shard,
            span.outcome.as_str(),
            fmt_nanos(span.queue_wait_nanos),
            fmt_nanos(span.service_nanos),
            fmt_nanos(span.total_nanos),
            span.rows,
        );
    }

    std::fs::write("ACT7_telemetry.json", metrics.to_json())?;
    println!(
        "\nFull snapshot (level {:?}, {:.1}s uptime) written to ACT7_telemetry.json;\n\
         the same data serves as Prometheus text exposition via to_prometheus().",
        metrics.level,
        metrics.uptime.as_secs_f64()
    );

    // --- Networked serving: the same tiers behind a wire --------------
    // One NetServer feeds the shard queues from many TCP connections;
    // each connection is served synchronously, so over the wire the
    // router's concurrency equals the connection count (exactly like
    // the synchronous in-process clients it is compared against).
    println!(
        "\nNetworked serving: length-framed binary protocol over loopback,\n\
         thread-per-connection server feeding the same shard queues.\n\n\
         Act-1 closed-loop workload, in-process vs one socket hop:\n"
    );
    let baseline_server = EmbedServer::start(overload_table.as_ref(), serve_config(4))?;
    let baseline = run_load(&baseline_server.handle(), &load)?;
    baseline_server.shutdown();

    let net_router = Router::start(serve_config(4))?;
    net_router.register("default", overload_table.as_ref())?;
    let net_server = NetServer::start(net_router, NetServerConfig::default())?;
    let (wire, _) = run_net_load(net_server.local_addr(), "default", vocab, &load, None)?;
    net_server.shutdown();

    println!(
        "{:<12} {:>8} {:>11} {:>9} {:>9} {:>9}",
        "path", "req/s", "lookups/s", "p50", "p95", "p99"
    );
    println!(
        "{:<12} {:>8.0} {:>11.0} {:>9} {:>9} {:>9}",
        "in-process",
        baseline.qps(),
        baseline.lookups_per_sec(),
        fmt_nanos(baseline.histogram.p50()),
        fmt_nanos(baseline.histogram.p95()),
        fmt_nanos(baseline.histogram.p99()),
    );
    println!(
        "{:<12} {:>8.0} {:>11.0} {:>9} {:>9} {:>9}",
        "loopback",
        wire.qps(),
        wire.qps() * wire.ids_per_request as f64,
        fmt_nanos(wire.histogram.p50()),
        fmt_nanos(wire.histogram.p95()),
        fmt_nanos(wire.histogram.p99()),
    );

    // The act-5 overload point across the wire: open-loop 2x capacity
    // against the calibrated 1-shard shed server, then the same
    // saturating traffic closed-loop, where the client honors the
    // server's retry_after hints between requests.
    let shed_serve = || ServeConfig {
        n_shards: 1,
        max_batch: overload_batch,
        max_wait: Duration::from_millis(1),
        queue_depth: overload_depth,
        store_latency,
        admission: AdmissionPolicy::Shed {
            enqueue_timeout,
            request_deadline: Some(deadline),
        },
        ..ServeConfig::default()
    };
    println!(
        "\nOverload across the wire ({capacity_qps:.0} rows/s capacity, {overload_clients} \
         connections, wire deadline {deadline:?}):\n"
    );
    println!(
        "{:<8} {:>10} {:>10} {:>7} {:>10} {:>10} {:>12} {:>12}",
        "mode", "offered/s", "goodput/s", "shed%", "p50", "p99", "hint/shed", "slept/shed"
    );
    let mut open_reconciled = None;
    for (label, mode) in [
        (
            "open",
            LoadMode::Open {
                target_qps: 2.0 * capacity_qps,
            },
        ),
        ("closed", LoadMode::Closed),
    ] {
        let router = Router::start(shed_serve())?;
        router.register("default", overload_table.as_ref())?;
        let server = NetServer::start(router, NetServerConfig::default())?;
        let (report, _) = run_net_load(
            server.local_addr(),
            "default",
            vocab,
            &LoadGenConfig {
                clients: overload_clients,
                requests_per_client: overload_rpc,
                ids_per_request: 1,
                zipf_exponent: 1.1,
                mode,
                seed: 42,
            },
            Some(deadline),
        )?;
        let (per_model, _net_metrics) = server.shutdown();
        let stats = &per_model[0].1;
        // The reconciliation contract: every wire outcome came from a
        // typed response frame, so client tallies equal ServeStats
        // exactly (single-id requests make rows == requests).
        assert_eq!(
            stats.requests, report.requests,
            "served tallies must reconcile"
        );
        assert_eq!(stats.shed, report.shed, "shed tallies must reconcile");
        assert_eq!(
            stats.expired, report.expired,
            "expired tallies must reconcile"
        );
        assert_eq!(
            stats.issued,
            report.offered(),
            "issued tallies must reconcile"
        );
        if label == "open" {
            open_reconciled = Some((report.requests, report.shed, report.expired));
        }
        let slept_per_shed = (report.slept.as_nanos() as u64)
            .checked_div(report.shed)
            .map_or(Duration::ZERO, Duration::from_nanos);
        println!(
            "{:<8} {:>10.0} {:>10.0} {:>6.1}% {:>10} {:>10} {:>12} {:>12}",
            label,
            report.offered_qps(),
            report.goodput(),
            100.0 * report.shed_rate(),
            fmt_nanos(report.histogram.p50()),
            fmt_nanos(report.histogram.p99()),
            fmt_nanos(report.mean_backoff.as_nanos() as u64),
            fmt_nanos(slept_per_shed.as_nanos() as u64),
        );
    }
    let (served, shed, expired) = open_reconciled.expect("open-loop run executed");
    println!(
        "\nOpen-loop client tallies reconciled exactly with the server's ServeStats:\n\
         {served} served + {shed} shed + {expired} expired, every outcome a typed frame.\n\
         Shed frames carry the server's retry_after hint (hint/shed); the closed-loop\n\
         run honors it by sleeping before its next send (slept/shed), turning overload\n\
         into paced retries instead of a thundering herd."
    );

    // --- Full-model serving: RankNet scoring behind the router --------
    // The same shard queues, admission policy, and wire protocol now
    // carry whole scoring requests: N ids in, the RankNet head's score
    // out. The lookup run on identical traffic is the baseline — the
    // QPS gap is exactly what the NN forward costs.
    println!(
        "\nFull-model serving: a RankNet pipeline (gather + pool + dense head) behind\n\
         the same router via the InferBackend registry, driven over loopback by the\n\
         score-path loadgen on act-1 Zipf traffic ({IDS_PER_REQUEST} ids/request):\n"
    );
    let ranker = RecModel::new(
        &ModelConfig::pointwise(vocab, DIM, IDS_PER_REQUEST, 1),
        &MethodSpec::MemCom {
            hash_size: (vocab / 10).max(1),
            bias: false,
        },
    )?;
    let infer_router = Router::start(serve_config(4))?;
    infer_router
        .backends()
        .register("ranknet", Arc::new(RankNetBackend::from_model(&ranker)?))?;
    // One embedding, three serving modes on one worker set: plain row
    // lookups, fp32 scoring, and int8-quantized scoring.
    infer_router.register_with_dtype("rows", ranker.embedding(), Dtype::F32)?;
    infer_router.register_with_backend("score/fp32", ranker.embedding(), Dtype::F32, "ranknet")?;
    infer_router.register_with_backend("score/int8", ranker.embedding(), Dtype::Int8, "ranknet")?;
    let int8_bound = RankNetBackend::from_model(&ranker)?
        .score_error_bound(infer_router.snapshot("score/int8")?.as_ref());
    let infer_server = NetServer::start(infer_router, NetServerConfig::default())?;

    let (lookup_run, _) = run_net_load(infer_server.local_addr(), "rows", vocab, &load, None)?;
    let (score_fp32, _) =
        run_net_score_load(infer_server.local_addr(), "score/fp32", vocab, &load, None)?;
    let (score_int8, _) =
        run_net_score_load(infer_server.local_addr(), "score/int8", vocab, &load, None)?;
    infer_server.shutdown();
    assert_eq!(
        score_fp32.traffic_checksum, lookup_run.traffic_checksum,
        "score and lookup runs must issue identical traffic"
    );

    println!(
        "{:<12} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "path", "req/s", "p50", "p95", "p99", "max|err|"
    );
    for (label, report, bound) in [
        ("lookup", &lookup_run, None),
        ("score fp32", &score_fp32, Some(0.0f32)),
        ("score int8", &score_int8, Some(int8_bound)),
    ] {
        println!(
            "{:<12} {:>8.0} {:>9} {:>9} {:>9} {:>12}",
            label,
            report.qps(),
            fmt_nanos(report.histogram.p50()),
            fmt_nanos(report.histogram.p95()),
            fmt_nanos(report.histogram.p99()),
            bound.map_or_else(|| "-".to_string(), |b| format!("{b:.2e}")),
        );
    }

    let act9 = format!(
        "{{\n  \"ids_per_request\": {},\n  \"traffic_checksum\": {},\n  \
         \"lookup\": {{\"qps\": {:.1}, \"p50_nanos\": {}, \"p99_nanos\": {}}},\n  \
         \"score_fp32\": {{\"qps\": {:.1}, \"p50_nanos\": {}, \"p99_nanos\": {}, \"score_error_bound\": 0.0}},\n  \
         \"score_int8\": {{\"qps\": {:.1}, \"p50_nanos\": {}, \"p99_nanos\": {}, \"score_error_bound\": {:e}}}\n}}\n",
        IDS_PER_REQUEST,
        lookup_run.traffic_checksum,
        lookup_run.qps(),
        lookup_run.histogram.p50(),
        lookup_run.histogram.p99(),
        score_fp32.qps(),
        score_fp32.histogram.p50(),
        score_fp32.histogram.p99(),
        score_int8.qps(),
        score_int8.histogram.p50(),
        score_int8.histogram.p99(),
        int8_bound,
    );
    std::fs::write("ACT9_infer.json", act9)?;
    println!(
        "\nIdentical Zipf traffic (equal checksums) through one worker set: the lookup\n\
         row is the serving floor, the fp32 score row adds the RankNet forward to every\n\
         request, and the int8 row serves the same scores from a ~4x smaller resident\n\
         store at a certified worst-case score error. Snapshot written to ACT9_infer.json."
    );

    println!(
        "\nHot rows answer from each shard's LRU; cold rows run the recipe over the\n\
         shard's paged tables. MEmCom partitions its per-entity tables and replicates only\n\
         the small shared table, so it serves from a smaller store at comparable QPS —\n\
         and one router serves every table variant from the same shard workers, with\n\
         snapshot swaps refreshing tables under live traffic. Sub-fp32 variants pack\n\
         more rows per page (int8 ~3.5x, int4 ~6x), dequantize only on cache miss, and\n\
         certify their worst-case absolute error next to the bytes they save."
    );
    Ok(())
}
