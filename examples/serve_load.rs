//! A tour of the serving tier's behaviours — five scenes, each printing
//! and *asserting* a fact that is not a speed. (Speeds live in one
//! place: `cargo run --release -p memcom-perf`, whose workloads and
//! ledger rows `crates/perf/README.md` defines.)
//!
//! 1. **Compressed techniques serve compressed** — every technique's
//!    `stored_bytes()` sits below the uncompressed table's.
//! 2. **Block vs Shed** at one 2×-capacity open-loop point: blocking
//!    answers everything late, shedding rejects the overflow, and both
//!    runs' client tallies reconcile with the router's `ServeStats`.
//! 3. **Delta vs rebuild** — `apply_delta` copies the pages it touches
//!    and shares the rest with the superseded snapshot; a rebuild+swap
//!    shares nothing.
//! 4. **fp32/int8 A/B on one router** — two `register` calls, mixed
//!    traffic, and a served int8 row within its certified `error_bound()`.
//! 5. **Scores over loopback** — client and server tallies reconcile,
//!    and an int8-served score stays within `score_error_bound()`.
//!
//! Run with: `cargo run --release --example serve_load`
//! (`-- --quick` shrinks everything for CI smoke runs.)

use std::sync::Arc;
use std::time::Duration;

use memcom::core::{MethodSpec, QrCombiner};
use memcom::models::{ModelConfig, RecModel};
use memcom::net::{run_net_load, NetClient, NetClientConfig, NetServer, NetServerConfig};
use memcom::serve::{
    run_load, AdmissionPolicy, Dtype, LoadGenConfig, LoadMode, RankNetBackend, RequestKind, Router,
    ServeConfig, ShardedStore, StoreDelta,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 32;
/// The paper's fixed session length (§5.1), the request shape of the
/// `wire_score` / `wire_bulk_int8` / `refresh_reads` perf workloads.
const SESSION: usize = 128;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (vocab, clients, requests_per_client) = if quick {
        (5_000, 2, 25)
    } else {
        (50_000, 8, 200)
    };
    let hash_size = vocab / 10;
    let memcom = MethodSpec::MemCom {
        hash_size,
        bias: false,
    };
    let sessions = LoadGenConfig {
        clients,
        requests_per_client,
        ids_per_request: SESSION,
        ..LoadGenConfig::default()
    };

    println!("1. Stored bytes per technique ({vocab} entities x dim {DIM}, 4 shards):\n");
    let qr = |combiner| MethodSpec::QuotientRemainder {
        hash_size,
        combiner,
    };
    let stored: Vec<(&str, usize)> = [
        MethodSpec::Uncompressed,
        memcom.clone(),
        MethodSpec::MemCom {
            hash_size,
            bias: true,
        },
        MethodSpec::NaiveHash { hash_size },
        MethodSpec::DoubleHash { hash_size },
        qr(QrCombiner::Multiply),
        qr(QrCombiner::Concat),
        MethodSpec::Factorized { hidden: 4 },
        MethodSpec::ReduceDim { dim: DIM / 4 },
        MethodSpec::TruncateRare { keep: hash_size },
        MethodSpec::WeinbergerOneHot { hash_size },
    ]
    .iter()
    .map(|spec| {
        let emb = spec.build(vocab, DIM, &mut StdRng::seed_from_u64(7))?;
        let store = ShardedStore::build(emb.as_ref(), 4, 1_024, 4_096)?;
        Ok((emb.method_name(), store.stored_bytes()))
    })
    .collect::<Result<_, Box<dyn std::error::Error>>>()?;
    let uncompressed = stored[0].1;
    for &(method, bytes) in &stored {
        println!("  {method:<16} {bytes:>10} B");
    }
    for &(method, bytes) in &stored[1..] {
        assert!(
            bytes < uncompressed,
            "{method} stores {bytes} B, uncompressed {uncompressed} B: \
             a compressed technique must serve compressed"
        );
    }

    // One shard serving batches of `max_batch` behind a simulated 2 ms
    // store read has a capacity of exactly `max_batch / 2 ms` rows/s, so
    // "2x overload" is a configuration, not a race. Clients out-number
    // queue_depth + max_batch, or the queue could never be caught full.
    let store_latency = Duration::from_millis(2);
    let (overload_clients, max_batch) = if quick { (6, 2) } else { (24, 8) };
    let capacity = max_batch as f64 / store_latency.as_secs_f64();
    println!("\n2. Open loop at 2x a calibrated {capacity:.0} rows/s, client vs router tallies:\n");
    let table = memcom.build(vocab, DIM, &mut StdRng::seed_from_u64(31))?;
    for (label, admission) in [
        ("block", AdmissionPolicy::Block),
        (
            "shed",
            AdmissionPolicy::Shed {
                enqueue_timeout: Duration::from_micros(200),
                request_deadline: Some(Duration::from_millis(25)),
            },
        ),
    ] {
        let router = Router::start(ServeConfig {
            n_shards: 1,
            max_batch,
            queue_depth: max_batch,
            store_latency,
            admission,
            ..ServeConfig::default()
        })?;
        router.register("table", table.as_ref())?;
        let overload = LoadGenConfig {
            clients: overload_clients,
            requests_per_client: if quick { 20 } else { 50 },
            mode: LoadMode::Open {
                target_qps: 2.0 * capacity,
            },
            ..LoadGenConfig::default()
        };
        let report = run_load(&router, &[("table", 1.0)], &overload)?;
        let stats = router.stats("table")?;
        let (offered, served) = (report.offered(), report.requests);
        let client = (offered, served, report.shed, report.expired);
        println!("  {label:<6} (offered, served, shed, expired) = {client:?}");
        // Single-id requests, so the router's row counters are requests.
        let server = (stats.issued, stats.requests, stats.shed, stats.expired);
        assert_eq!(client, server, "{label}: client and router tallies");
        match admission {
            AdmissionPolicy::Block => assert_eq!(served, offered),
            AdmissionPolicy::Shed { .. } => assert!(report.shed + report.expired > 0),
        }
    }

    println!("\n3. Refreshing 0.1 % of an uncompressed table, delta vs rebuild+swap:\n");
    let live = MethodSpec::Uncompressed.build(vocab, DIM, &mut StdRng::seed_from_u64(41))?;
    let router = Router::start(ServeConfig::with_shards(4))?;
    router.register("live", live.as_ref())?;
    let mut delta = StoreDelta::new(DIM);
    for id in 0..vocab / 1_000 {
        delta.upsert_row(id, &[id as f32 * 1e-3; DIM])?;
    }
    let before = router.apply_delta("live", &delta)?;
    let patched = router.snapshot("live")?;
    let config = router.config();
    let rebuilt = ShardedStore::build(live.as_ref(), config.n_shards, 0, config.page_size)?;
    router.swap("live", rebuilt)?;
    let rebuilt = router.snapshot("live")?;
    for (label, new, old) in [
        ("delta", &patched, &before),
        ("rebuild", &rebuilt, &patched),
    ] {
        println!(
            "  {label:<8} copied {:>9} B, shares {:>9} of {:>9} B with its predecessor",
            new.cow_copied_bytes(),
            new.shared_bytes_with(old),
            new.stored_bytes()
        );
    }
    assert!(patched.cow_copied_bytes() > 0);
    assert!((patched.cow_copied_bytes() as usize) < patched.stored_bytes() / 4);
    assert!(patched.shared_bytes_with(&before) > patched.stored_bytes() * 3 / 4);
    assert_eq!(rebuilt.shared_bytes_with(&patched), 0);

    println!("\n4. One table registered as fp32 and as int8, equal-weight session traffic:\n");
    let router = Router::start(ServeConfig::with_shards(4))?;
    router.register("table/fp32", live.as_ref())?;
    router.register_with_dtype("table/int8", live.as_ref(), Dtype::Int8)?;
    let ab = [("table/fp32", 1.0), ("table/int8", 1.0)];
    let report = run_load(&router, &ab, &sessions)?;
    let exact = router.snapshot("table/fp32")?;
    let quant = router.snapshot("table/int8")?;
    for (per_model, store) in report.per_model.iter().zip([&exact, &quant]) {
        println!(
            "  {:<11} {:>5} requests, {:>9} B stored, error_bound {:.2e}",
            per_model.model,
            per_model.requests,
            store.stored_bytes(),
            store.error_bound()
        );
    }
    assert_eq!(report.requests, report.offered());
    assert_eq!(exact.error_bound(), 0.0);
    assert!(quant.error_bound() > 0.0 && quant.stored_bytes() < exact.stored_bytes() / 2);
    let (want, got) = (exact.get(17)?, router.handle("table/int8")?.get(17)?);
    let worst = want.iter().zip(&got).map(|(w, g)| (w - g).abs());
    assert!(worst.fold(0.0, f32::max) <= quant.error_bound());

    println!("\n5. RankNet scores over loopback from an int8 store ({SESSION} ids/session):\n");
    let ranker = RecModel::new(&ModelConfig::pointwise(vocab, DIM, SESSION, 1), &memcom)?;
    let backend = Arc::new(RankNetBackend::from_model(&ranker)?);
    let router = Router::start(ServeConfig::with_shards(4))?;
    router.backends().register("ranknet", backend.clone())?;
    for (name, dtype) in [("score/fp32", Dtype::F32), ("score/int8", Dtype::Int8)] {
        router.register_with_backend(name, ranker.embedding(), dtype, "ranknet")?;
    }
    let bound = backend.score_error_bound(router.snapshot("score/int8")?.as_ref());
    let server = NetServer::start(router, NetServerConfig::default())?;
    let (report, _) = run_net_load(
        server.local_addr(),
        RequestKind::Score,
        "score/int8",
        vocab,
        &sessions,
        None,
    )?;
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default())?;
    let session: Vec<u64> = (0..SESSION as u64).collect();
    let exact = client.score("score/fp32", &session)?.data[0];
    let quant = client.score("score/int8", &session)?.data[0];
    client.close();
    let rows = server.router().stats("score/int8")?.requests;
    let frames = server.shutdown().1.totals().served;
    println!(
        "  client: {} sessions scored | router: {rows} rows | net: {frames} frames served\n  \
         fp32 {exact:+.6} vs int8 {quant:+.6}, score_error_bound {bound:.2e}",
        report.requests
    );
    assert_eq!(report.requests, report.offered());
    // The load run plus the int8 probe; the fp32 probe is one more frame.
    assert_eq!(rows, (report.requests + 1) * SESSION as u64);
    assert_eq!(frames, report.requests + 2);
    assert!(bound > 0.0 && (exact - quant).abs() <= bound);
    Ok(())
}
