//! Concurrency correctness: batched parallel serving must be
//! indistinguishable from serial replay, a backlog must batch up to
//! `max_batch`, and a lone request must never wait for company.

use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec};
use memcom_serve::{Router, ServeConfig, ServeError, ShardedStore, DEFAULT_MODEL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn memcom(vocab: usize, dim: usize, m: usize) -> MemCom {
    let mut rng = StdRng::seed_from_u64(1234);
    MemCom::new(MemComConfig::with_bias(vocab, dim, m), &mut rng).unwrap()
}

fn start(emb: &dyn EmbeddingCompressor, config: ServeConfig) -> memcom_serve::Result<Router> {
    let router = Router::start(config)?;
    router.register(DEFAULT_MODEL, emb)?;
    Ok(router)
}

/// N threads × M requests through the batched server give results
/// identical to serial replay through the compressor's lookup path.
#[test]
fn concurrent_batched_results_match_serial_replay() {
    let vocab = 2_000;
    let emb = memcom(vocab, 16, 200);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 4,
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();

    let threads = 8;
    let requests_per_thread = 250;
    // Pre-generate each thread's id stream so the serial replay sees the
    // exact same requests.
    let streams: Vec<Vec<usize>> = (0..threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(t as u64);
            (0..requests_per_thread)
                .map(|_| rng.gen_range(0..vocab))
                .collect()
        })
        .collect();

    let results: Vec<Vec<Vec<f32>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let handle = handle.clone();
                scope.spawn(move || {
                    stream
                        .iter()
                        .map(|&id| handle.get(id).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Serial replay: same ids through the untouched training-side path.
    for (stream, thread_results) in streams.iter().zip(&results) {
        for (&id, got) in stream.iter().zip(thread_results) {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "id {id}");
        }
    }

    let stats = router.shutdown().remove(0).1;
    assert_eq!(stats.requests, (threads * requests_per_thread) as u64);
    assert!(
        stats.batches < stats.requests,
        "micro-batching must coalesce"
    );
    assert!(
        stats.max_batch_observed > 1,
        "some batch should exceed one request"
    );
}

/// Any number of threads may read one shard directly: every row is the
/// compressor's own bits and the rows-read counter is exact — the pages
/// are the only state a read touches.
#[test]
fn concurrent_direct_reads_of_one_shard_are_exact() {
    const THREADS: usize = 6;
    const CALLS: usize = 200;
    const N_SHARDS: usize = 2;
    let emb = memcom(1_000, 16, 100);
    let store = ShardedStore::build(&emb, N_SHARDS, 0, 1024).unwrap();
    // Shard 1's ids; every thread draws from the same 64 of them, so the
    // streams overlap heavily.
    let ids_of = |t: usize, call: usize| -> Vec<usize> {
        (0..24)
            .map(|k| 1 + N_SHARDS * ((t * 7 + call * 13 + k * 5) % 64))
            .collect()
    };
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, emb) = (&store, &emb);
            scope.spawn(move || {
                let mut slab = vec![0f32; 24 * 16];
                for call in 0..CALLS {
                    let ids = ids_of(t, call);
                    store.lookup_batch(1, &ids, &mut slab).unwrap();
                    let want = emb.lookup(&ids).unwrap();
                    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&slab), bits(want.as_slice()), "thread {t} call {call}");
                }
            });
        }
    });
    let read = store.cache_stats();
    assert_eq!(
        (read.hits, read.misses),
        (0, (THREADS * CALLS * 24) as u64),
        "rows read == rows requested, exactly"
    );
}

/// Every serializable technique (not just MEmCom) serves correctly.
#[test]
fn every_method_serves_exact_rows() {
    let mut rng = StdRng::seed_from_u64(5);
    let specs = [
        MethodSpec::Uncompressed,
        MethodSpec::NaiveHash { hash_size: 32 },
        MethodSpec::MemCom {
            hash_size: 32,
            bias: false,
        },
        MethodSpec::TruncateRare { keep: 64 },
    ];
    for spec in specs {
        let emb = spec.build(300, 8, &mut rng).unwrap();
        let router = start(emb.as_ref(), ServeConfig::with_shards(4)).unwrap();
        let handle = router.handle(DEFAULT_MODEL).unwrap();
        for id in (0..300).step_by(7) {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(
                handle.get(id).unwrap().as_slice(),
                want.as_slice(),
                "{spec:?} id {id}"
            );
        }
    }
}

/// A burst of exactly `max_batch` requests that queues while the serving
/// thread is busy is served as one full batch: the backlog is where batches
/// come from.
#[test]
fn flush_triggers_on_max_batch() {
    let emb = memcom(400, 8, 40);
    let max_batch = 4;
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1, // single shard: the whole burst coalesces
            max_batch,
            // Holds the serving thread in the blocker's batch while the burst
            // queues.
            store_latency: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let blocker = handle.clone();
        scope.spawn(move || blocker.get(1).unwrap());
        // `batches` counts a batch before its store read: once it reads
        // 1, the serving thread is asleep in the blocker's.
        while router.stats(DEFAULT_MODEL).unwrap().batches == 0 {
            std::thread::yield_now();
        }
        for i in 0..max_batch {
            let handle = handle.clone();
            scope.spawn(move || handle.get(i * 3).unwrap());
        }
    });
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "two batches must not take {elapsed:?}"
    );
    let stats = router.shutdown().remove(0).1;
    assert_eq!(stats.requests, max_batch as u64 + 1);
    assert_eq!(stats.flushes_full, 1, "the burst is one full batch");
    assert_eq!(stats.flushes_emptied, 1, "the blocker was alone");
    assert_eq!(stats.max_batch_observed, max_batch);
}

/// A lone request is served at once, however long `max_wait` is: the
/// serving thread takes whatever is queued and never waits for company.
#[test]
fn a_lone_request_never_waits_for_company() {
    let emb = memcom(400, 8, 40);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1_024, // can never fill from one request
            max_wait: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();

    let t0 = Instant::now();
    handle.get(11).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "a lone request was held {elapsed:?}"
    );
    let stats = router.shutdown().remove(0).1;
    assert_eq!(stats.flushes_emptied, 1, "it took the whole queue");
    assert_eq!(stats.flushes_full, 0);
}

/// Shutdown drains queued requests (none hang, none are lost) and then
/// rejects new traffic.
#[test]
fn shutdown_drains_inflight_work() {
    let emb = memcom(500, 8, 50);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 2,
            max_batch: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();

    let (stats, outcomes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..6)
            .map(|i| {
                let handle = handle.clone();
                scope.spawn(move || handle.get(i * 11))
            })
            .collect();
        // Give the clients a moment to enqueue, then pull the plug while
        // their batches are still open. A heavily loaded scheduler may
        // deschedule a client past the shutdown — then its push is
        // *rejected*, which is also a valid outcome; what must never
        // happen is a request that was accepted but never answered.
        std::thread::sleep(Duration::from_millis(20));
        let stats = router.shutdown().remove(0).1;
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (stats, outcomes)
    });
    let mut served = 0u64;
    for outcome in outcomes {
        match outcome {
            Ok(row) => {
                assert_eq!(row.len(), 8);
                served += 1;
            }
            Err(ServeError::ShuttingDown) => {} // raced the close; rejected cleanly
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(
        stats.requests, served,
        "every accepted request was served exactly once"
    );
    assert!(matches!(handle.get(1), Err(ServeError::ShuttingDown)));
}
