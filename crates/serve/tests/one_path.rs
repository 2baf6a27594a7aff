//! The contract of the single request path.
//!
//! Every `RouterHandle` entry point — `get`, `get_many`,
//! `get_batch_into`, `score`, `score_batch_into` — is a wrapper of one
//! submit → queue → serve-turn path, so for the same ids they must agree
//! bit for bit, whatever backend the model is bound to; a fault inside
//! that path (a panicking backend) must stay a typed error for its one
//! caller; and the per-lookup telemetry must stay exact while scores on
//! other threads read through the same shard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec};
use memcom_models::{ModelConfig, RecModel};
use memcom_serve::{
    AdmissionPolicy, Dtype, EmbedBatch, InferBackend, InferScratch, LookupBackend, RankNetBackend,
    Router, ScoreBatch, ServeConfig, ServeError, ShardedStore, TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 8;

fn memcom(seed: u64, vocab: usize) -> MemCom {
    let mut rng = StdRng::seed_from_u64(seed);
    MemCom::new(MemComConfig::new(vocab, DIM, vocab / 10), &mut rng).unwrap()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Duplicates, a cross-shard mix, one shard only, and a single id.
fn probe_id_sets() -> Vec<Vec<usize>> {
    vec![
        vec![7, 7, 3, 7],
        vec![0, 1, 2, 3, 499, 250, 11],
        vec![2, 4, 6],
        vec![42],
    ]
}

#[test]
fn every_entry_point_returns_the_same_rows() {
    let emb = memcom(1, 500);
    let router = Router::start(ServeConfig::with_shards(3)).unwrap();
    router.register("rows", &emb).unwrap();
    let handle = router.handle("rows").unwrap();
    let mut batch = EmbedBatch::new();
    let mut scores = ScoreBatch::new();

    for ids in probe_id_sets() {
        let want = bits(emb.lookup(&ids).unwrap().as_slice());

        handle.get_batch_into(&ids, &mut batch).unwrap();
        assert_eq!(batch.ids(), ids.as_slice());
        assert_eq!(bits(batch.data()), want, "get_batch_into {ids:?}");

        let many = handle.get_many(&ids).unwrap();
        assert_eq!(many.len(), ids.len());
        assert_eq!(bits(&many.concat()), want, "get_many {ids:?}");

        let singles: Vec<f32> = ids.iter().flat_map(|&id| handle.get(id).unwrap()).collect();
        assert_eq!(bits(&singles), want, "get {ids:?}");

        // On a lookup-backed model a score *is* the flattened rows.
        assert_eq!(bits(&handle.score(&ids).unwrap()), want, "score {ids:?}");
        handle.score_batch_into(&ids, &mut scores).unwrap();
        assert_eq!(bits(scores.scores()), want, "score_batch_into {ids:?}");
    }
    router.shutdown();
}

#[test]
fn lookups_on_a_ranknet_model_still_return_rows() {
    let config = ModelConfig::pointwise(500, DIM, 4, 1);
    let spec = MethodSpec::MemCom {
        hash_size: 50,
        bias: false,
    };
    let model = RecModel::new(&config, &spec).unwrap();
    let router = Router::start(ServeConfig::with_shards(2)).unwrap();
    router
        .backends()
        .register(
            "ranknet",
            Arc::new(RankNetBackend::from_model(&model).unwrap()),
        )
        .unwrap();
    router
        .register_with_backend("scorer", model.embedding(), Dtype::F32, "ranknet")
        .unwrap();
    let handle = router.handle("scorer").unwrap();

    let ids = [11usize, 250, 13, 402];
    let mut batch = EmbedBatch::new();
    handle.get_batch_into(&ids, &mut batch).unwrap();
    let want = model.embedding().lookup(&ids).unwrap();
    assert_eq!(bits(batch.data()), bits(want.as_slice()));
    assert_eq!(bits(&handle.get(250).unwrap()), bits(batch.row(1)));
    // …while a score goes through the head: one logit, not four rows.
    assert_eq!(handle.score(&ids).unwrap().len(), 1);
    router.shutdown();
}

/// A backend that passes registration and then panics on every request.
#[derive(Debug)]
struct PanickingBackend;

impl InferBackend for PanickingBackend {
    fn out_len(&self, _n_ids: usize, _store: &ShardedStore) -> usize {
        1
    }

    fn check_store(&self, _store: &ShardedStore) -> memcom_serve::Result<()> {
        Ok(())
    }

    fn score_into(
        &self,
        _store: &ShardedStore,
        _ids: &[usize],
        _scratch: &mut InferScratch,
        _out: &mut [f32],
    ) -> memcom_serve::Result<()> {
        panic!("injected backend fault");
    }
}

#[test]
fn panicking_backend_fails_its_caller_but_not_the_worker() {
    let emb = memcom(2, 200);
    // One shard: the shard whose serve turn catches the panic is the one
    // that must serve everything after it.
    let router = Router::start(ServeConfig::with_shards(1)).unwrap();
    router
        .backends()
        .register("panicking", Arc::new(PanickingBackend))
        .unwrap();
    router
        .register_with_backend("faulty", &emb, Dtype::F32, "panicking")
        .unwrap();
    router.register("healthy", &emb).unwrap();
    let faulty = router.handle("faulty").unwrap();
    let healthy = router.handle("healthy").unwrap();

    let ids = [5usize, 6, 7];
    let want = bits(emb.lookup(&ids).unwrap().as_slice());
    let mut scores = ScoreBatch::new();
    healthy.score_batch_into(&ids, &mut scores).unwrap();

    for _ in 0..3 {
        assert!(matches!(
            faulty.score_batch_into(&ids, &mut scores),
            Err(ServeError::WorkerLost)
        ));
        // The same shard answers the next lookup and the next score —
        // on the faulty model's own rows too — and the batch that rode
        // through the panic is still usable.
        assert_eq!(bits(&faulty.get_many(&ids).unwrap().concat()), want);
        healthy.score_batch_into(&ids, &mut scores).unwrap();
        assert_eq!(bits(scores.scores()), want);
    }

    for (name, stats) in router.shutdown() {
        assert!(
            stats.issued >= stats.requests + stats.shed + stats.expired,
            "{name}: {stats:?}"
        );
        match name.as_str() {
            // Three scores died without an outcome; three lookups served.
            "faulty" => assert_eq!((stats.issued, stats.requests), (18, 9)),
            _ => assert_eq!((stats.issued, stats.requests), (12, 12)),
        }
    }
}

/// The decode-row tally equals the lookup rows served even while score
/// requests executing on *other* threads gather through the same
/// shards.
#[test]
fn decode_rows_count_lookups_only_under_mixed_traffic() {
    const THREADS: usize = 4;
    const CALLS: usize = 300;
    const IDS: usize = 32;
    let emb = memcom(3, 2_000);
    let router = Router::start(ServeConfig {
        n_shards: 2,
        max_batch: 8,
        telemetry: TelemetryConfig::full(1.0),
        ..ServeConfig::default()
    })
    .unwrap();
    router.register("rows", &emb).unwrap();

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let handle = router.handle("rows").unwrap();
            let start = &start;
            scope.spawn(move || {
                let mut batch = EmbedBatch::new();
                let mut scores = ScoreBatch::new();
                start.wait();
                for call in 0..CALLS {
                    // Consecutive ids alternate shards, so every request
                    // touches both.
                    let first = (t * 997 + call * 31) % (2_000 - IDS);
                    let ids: Vec<usize> = (first..first + IDS).collect();
                    if t % 2 == 0 {
                        handle.get_batch_into(&ids, &mut batch).unwrap();
                    } else {
                        handle.score_batch_into(&ids, &mut scores).unwrap();
                    }
                }
            });
        }
    });
    let lookup_rows = (THREADS / 2 * CALLS * IDS) as u64;

    // The last batch's stage recording can trail its response by a hair.
    let decode_rows =
        |router: &Router| -> u64 { router.metrics().stages.iter().map(|s| s.decode_rows).sum() };
    let deadline = Instant::now() + Duration::from_secs(5);
    while decode_rows(&router) < lookup_rows && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(decode_rows(&router), lookup_rows);
    let stats = router.stats("rows").unwrap();
    assert_eq!(stats.requests, (THREADS * CALLS * IDS) as u64);
    router.shutdown();
}

/// One id in this many makes [`FaultyRows`] panic.
const PANIC_EVERY: usize = 50;

/// The id [`FaultyRows`] holds its serving thread on before panicking.
const HELD: usize = 0;

/// Scores like a lookup, but panics on a request holding an id divisible
/// by [`PANIC_EVERY`] — on [`HELD`] only once the test releases it.
#[derive(Debug)]
struct FaultyRows {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl InferBackend for FaultyRows {
    fn out_len(&self, n_ids: usize, store: &ShardedStore) -> usize {
        LookupBackend.out_len(n_ids, store)
    }

    fn check_store(&self, store: &ShardedStore) -> memcom_serve::Result<()> {
        LookupBackend.check_store(store)
    }

    fn score_into(
        &self,
        store: &ShardedStore,
        ids: &[usize],
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) -> memcom_serve::Result<()> {
        if ids.contains(&HELD) {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        if ids.iter().any(|id| id % PANIC_EVERY == 0) {
            panic!("injected backend fault");
        }
        LookupBackend.score_into(store, ids, scratch, out)
    }
}

/// Client-side tallies of one thread's calls.
#[derive(Debug, Default)]
struct Tally {
    ok_rows: u64,
    shed_rows: u64,
    faulty_calls: u64,
    faulty_lost: u64,
    healthy_lost: u64,
}

/// Hand-offs of the shard's serve turn between submitting threads under
/// faults: on one shard behind a depth-8 shedding queue, a panicking
/// caller's turn passes what queued behind it to the caller that
/// queued it; 8 threads × 300 submits each get one answer — the
/// compressor's bits, `WorkerLost` or `Overloaded` — that the router's
/// counters agree with; and a shutdown racing live submitters returns
/// promptly.
#[test]
fn hand_offs_under_faults_answer_every_call_once() {
    const THREADS: usize = 8;
    const CALLS: usize = 300;
    const VOCAB: usize = 1_000;
    const MAX_BATCH: u64 = 4;
    let emb = Arc::new(memcom(4, VOCAB));
    let (entered, entered_rx) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let router = Router::start(ServeConfig {
        n_shards: 1,
        max_batch: MAX_BATCH as usize,
        queue_depth: 8,
        admission: AdmissionPolicy::Shed {
            enqueue_timeout: Duration::ZERO,
            request_deadline: None,
        },
        telemetry: TelemetryConfig::full(1.0),
        ..ServeConfig::default()
    })
    .unwrap();
    router
        .backends()
        .register(
            "faulty",
            Arc::new(FaultyRows {
                entered: Mutex::new(entered),
                release: Mutex::new(release_rx),
            }),
        )
        .unwrap();
    router
        .register_with_backend("rows", emb.as_ref(), Dtype::F32, "faulty")
        .unwrap();
    let handle = router.handle("rows").unwrap();

    // A caller whose turn panics answers itself `WorkerLost`; the request
    // that queued behind the turn is passed the turn, and is served.
    let admitted = || router.metrics().stages[0].admission_wait.count();
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| handle.score(&[HELD]));
        entered_rx.recv().unwrap();
        let before = admitted();
        let queued = scope.spawn(|| handle.score(&[7, 8]));
        let deadline = Instant::now() + Duration::from_secs(10);
        while admitted() == before {
            assert!(Instant::now() < deadline, "the second request never queued");
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        assert!(matches!(
            holder.join().unwrap(),
            Err(ServeError::WorkerLost)
        ));
        let want = bits(emb.lookup(&[7, 8]).unwrap().as_slice());
        assert_eq!(bits(&queued.join().unwrap().unwrap()), want);
    });

    // The bulk, on unscoped threads: a stranded call fails the bounded
    // wait below instead of hanging the test.
    let before = handle.stats();
    let (done, results) = mpsc::channel();
    let mut clients = Vec::new();
    for t in 0..THREADS {
        let (handle, emb, done) = (handle.clone(), Arc::clone(&emb), done.clone());
        clients.push(std::thread::spawn(move || {
            let mut tally = Tally::default();
            let mut batch = ScoreBatch::new();
            for call in 0..CALLS {
                let first = 1 + (t * 389 + call * 97) % (VOCAB - 3);
                let ids: Vec<usize> = (first..first + 1 + call % 3).collect();
                let faulty = ids.iter().any(|id| id % PANIC_EVERY == 0);
                tally.faulty_calls += u64::from(faulty);
                match handle.score_batch_into(&ids, &mut batch) {
                    Ok(()) => {
                        assert!(!faulty, "a faulty call {ids:?} was served");
                        let want = bits(emb.lookup(&ids).unwrap().as_slice());
                        assert_eq!(bits(batch.scores()), want, "{ids:?}");
                        tally.ok_rows += ids.len() as u64;
                    }
                    Err(ServeError::WorkerLost) if faulty => tally.faulty_lost += 1,
                    Err(ServeError::WorkerLost) => tally.healthy_lost += 1,
                    Err(ServeError::Overloaded { .. }) => tally.shed_rows += ids.len() as u64,
                    Err(other) => panic!("{ids:?}: unexpected {other:?}"),
                }
            }
            done.send(tally).unwrap();
        }));
    }
    drop(done);
    let mut total = Tally::default();
    loop {
        let tally = match results.recv_timeout(Duration::from_secs(60)) {
            Ok(tally) => tally,
            // Every client finished (a panicking one surfaces at its join).
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("a call was never answered"),
        };
        total.ok_rows += tally.ok_rows;
        total.shed_rows += tally.shed_rows;
        total.faulty_calls += tally.faulty_calls;
        total.faulty_lost += tally.faulty_lost;
        total.healthy_lost += tally.healthy_lost;
    }
    for client in clients {
        client.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.requests - before.requests, total.ok_rows, "{total:?}");
    assert_eq!(stats.shed - before.shed, total.shed_rows, "{total:?}");
    assert!(stats.issued >= stats.requests + stats.shed + stats.expired);
    assert!(total.faulty_calls > 0, "the fault was injected");
    // A panic costs at most the other requests of its own batch.
    assert!(
        total.healthy_lost <= (MAX_BATCH - 1) * total.faulty_lost,
        "{total:?}"
    );

    // Shutdown while submitters are live: it returns promptly and every
    // call ends in an answer or a clean rejection.
    let calls = Arc::new(AtomicUsize::new(0));
    let live: Vec<_> = (0..THREADS)
        .map(|t| {
            let (handle, calls) = (handle.clone(), Arc::clone(&calls));
            std::thread::spawn(move || {
                for call in 0.. {
                    let id = 1 + (t * 389 + call * 97) % (VOCAB - 1);
                    match handle.score(&[id]) {
                        Err(ServeError::ShuttingDown) => return,
                        Ok(_)
                        | Err(ServeError::WorkerLost)
                        | Err(ServeError::Overloaded { .. }) => {}
                        Err(other) => panic!("{id}: unexpected {other:?}"),
                    }
                    calls.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while calls.load(Ordering::Relaxed) < 200 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    let stats = router.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(10), "shutdown took {took:?}");
    for thread in live {
        thread.join().unwrap();
    }
    for (name, stats) in stats {
        assert!(
            stats.issued >= stats.requests + stats.shed + stats.expired,
            "{name}: {stats:?}"
        );
    }
}
