//! Router-level correctness: multi-model isolation, atomic snapshot
//! swaps under concurrent traffic, and drain semantics across models.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, FullEmbedding, MemCom, MemComConfig};
use memcom_serve::{
    Dtype, EmbedBatch, InferBackend, InferScratch, LookupBackend, Router, ServeConfig, ServeError,
    ShardedStore, TelemetryConfig, DEFAULT_MODEL,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 400;
const DIM: usize = 8;

fn memcom(seed: u64) -> MemCom {
    let mut rng = StdRng::seed_from_u64(seed);
    MemCom::new(MemComConfig::with_bias(VOCAB, DIM, 40), &mut rng).unwrap()
}

fn full(seed: u64) -> FullEmbedding {
    let mut rng = StdRng::seed_from_u64(seed);
    FullEmbedding::new(VOCAB, DIM, &mut rng).unwrap()
}

fn config(n_shards: usize) -> ServeConfig {
    ServeConfig {
        n_shards,
        max_batch: 16,
        ..ServeConfig::default()
    }
}

/// Each model behind the router answers with *its own* rows — traffic on
/// one never bleeds into another, whichever API shape the client uses.
#[test]
fn models_are_isolated() {
    let emb_a = memcom(1);
    let emb_b = full(2);
    let router = Router::start(config(4)).unwrap();
    router.register("a", &emb_a).unwrap();
    router.register("b", &emb_b).unwrap();

    let ha = router.handle("a").unwrap();
    let hb = router.handle("b").unwrap();
    let ids: Vec<usize> = (0..64).map(|i| (i * 13) % VOCAB).collect();
    let mut batch = EmbedBatch::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for &id in &ids {
                assert_eq!(
                    ha.get(id).unwrap().as_slice(),
                    emb_a.lookup(&[id]).unwrap().as_slice(),
                    "model a id {id}"
                );
            }
        });
        scope.spawn(|| {
            let rows = hb.get_many(&ids).unwrap();
            for (&id, row) in ids.iter().zip(&rows) {
                assert_eq!(
                    row.as_slice(),
                    emb_b.lookup(&[id]).unwrap().as_slice(),
                    "model b id {id}"
                );
            }
        });
    });
    hb.get_batch_into(&ids, &mut batch).unwrap();
    for (k, &id) in ids.iter().enumerate() {
        assert_eq!(batch.row(k), emb_b.lookup(&[id]).unwrap().as_slice());
    }

    // Per-model accounting: each model saw its own row counts.
    let stats_a = router.stats("a").unwrap();
    let stats_b = router.stats("b").unwrap();
    assert_eq!(stats_a.requests, ids.len() as u64);
    assert_eq!(stats_b.requests, 2 * ids.len() as u64);
}

/// A lookup is one request whichever shards its ids live on: on three
/// shards, ids touching all of them make exactly one batch and come back
/// in request order with the compressor's own bits.
#[test]
fn a_lookup_touching_every_shard_is_one_batch() {
    let emb = memcom(40);
    let router = Router::start(config(3)).unwrap();
    router.register(DEFAULT_MODEL, &emb).unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    let ids = [5usize, 0, 1, 399, 2, 5];
    let shards: std::collections::BTreeSet<usize> = ids.iter().map(|id| id % 3).collect();
    assert_eq!(shards.len(), 3);

    let before = handle.stats().batches;
    let mut batch = EmbedBatch::new();
    handle.get_batch_into(&ids, &mut batch).unwrap();
    assert_eq!(handle.stats().batches, before + 1);
    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want = emb.lookup(&ids).unwrap();
    assert_eq!(bits(batch.data()), bits(want.as_slice()));
}

/// `mean_batch` is router-wide, like the `batches` it divides by: every
/// model reports the same value, computed from the rows of every model's
/// batches, not from its own served rows.
#[test]
fn mean_batch_divides_router_wide_rows_by_router_wide_batches() {
    let router = Router::start(config(2)).unwrap();
    router.register("a", &memcom(3)).unwrap();
    router.register("b", &full(4)).unwrap();
    let ids: Vec<usize> = (0..48).map(|i| (i * 7) % VOCAB).collect();
    let (ha, hb) = (router.handle("a").unwrap(), router.handle("b").unwrap());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for &id in &ids {
                ha.get(id).unwrap();
            }
        });
        scope.spawn(|| hb.get_many(&ids).unwrap());
    });

    let (a, b) = (router.stats("a").unwrap(), router.stats("b").unwrap());
    assert_eq!(a.batched_rows, a.requests + b.requests, "no row expired");
    assert_eq!(b.batched_rows, a.batched_rows);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.mean_batch(), a.batched_rows as f64 / a.batches as f64);
    assert_eq!(b.mean_batch(), a.mean_batch());
}

/// The acceptance-criteria test: an `Arc`-swapped snapshot serves new
/// values while concurrent lookups against the old snapshot — both
/// in-flight requests and direct reads through the returned `Arc` —
/// still complete with the old values.
#[test]
fn snapshot_swap_serves_new_values_without_stopping_traffic() {
    let emb_old = memcom(10);
    let emb_new = full(11);
    let router = Router::start(config(4)).unwrap();
    router.register(DEFAULT_MODEL, &emb_old).unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();

    let stop = AtomicBool::new(false);
    let swapped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Hammer the model from several clients throughout the swap.
        // Every answer must be exactly one of the two snapshots' rows —
        // never a torn mix, never an error.
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let handle = handle.clone();
                let (stop, swapped) = (&stop, &swapped);
                let (emb_old, emb_new) = (&emb_old, &emb_new);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + c);
                    let mut saw_new = false;
                    let mut batch = EmbedBatch::new();
                    while !stop.load(Ordering::Relaxed) {
                        let id = rng.gen_range(0..VOCAB);
                        // Sampled *before* the request: only if the swap
                        // had already completed by then must the answer
                        // come from the new table (a request enqueued
                        // during the swap may legitimately see either).
                        let swap_done = swapped.load(Ordering::Acquire);
                        let row = handle.get(id).unwrap();
                        let old_row = emb_old.lookup(&[id]).unwrap();
                        let new_row = emb_new.lookup(&[id]).unwrap();
                        let is_old = row.as_slice() == old_row.as_slice();
                        let is_new = row.as_slice() == new_row.as_slice();
                        assert!(is_old || is_new, "row for id {id} matches neither snapshot");
                        if swap_done {
                            assert!(is_new, "id {id} served stale row after swap");
                            saw_new = true;
                        }
                        // The slab path agrees with the single path.
                        handle
                            .get_batch_into(&[id, (id + 7) % VOCAB], &mut batch)
                            .unwrap();
                        assert_eq!(batch.row(0).len(), DIM);
                    }
                    saw_new
                })
            })
            .collect();

        // Let traffic build up, then flip the snapshot mid-flight.
        std::thread::sleep(Duration::from_millis(20));
        let new_store = ShardedStore::build(&emb_new, 4, 64, 4096).unwrap();
        let old_store = router.swap(DEFAULT_MODEL, new_store).unwrap();
        swapped.store(true, Ordering::Release);
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            assert!(
                client.join().unwrap(),
                "every client observed post-swap rows"
            );
        }

        // The old snapshot stays fully readable through the returned Arc
        // (in-flight requests hold exactly such Arcs).
        for id in (0..VOCAB).step_by(37) {
            assert_eq!(
                old_store.get(id).unwrap().as_slice(),
                emb_old.lookup(&[id]).unwrap().as_slice(),
                "old snapshot id {id}"
            );
        }
    });

    // And new traffic keeps flowing after the scope.
    assert_eq!(
        handle.get(3).unwrap().as_slice(),
        emb_new.lookup(&[3]).unwrap().as_slice()
    );
}

/// Draining the router must answer every accepted request of **every**
/// model with its own model's rows — closing one model's traffic can
/// neither drop nor misroute another's in-flight requests.
#[test]
fn multi_model_drain_neither_drops_nor_misroutes() {
    let emb_a = memcom(20);
    let emb_b = full(21);
    let router = Router::start(ServeConfig {
        n_shards: 2,
        max_batch: 64,
        ..ServeConfig::default()
    })
    .unwrap();
    router.register("a", &emb_a).unwrap();
    router.register("b", &emb_b).unwrap();
    let ha = router.handle("a").unwrap();
    let hb = router.handle("b").unwrap();

    let (outcomes, stats) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|i| {
                let (ha, hb) = (ha.clone(), hb.clone());
                scope.spawn(move || {
                    let id = (i * 17) % VOCAB;
                    if i % 2 == 0 {
                        ("a", id, ha.get(id))
                    } else {
                        ("b", id, hb.get(id))
                    }
                })
            })
            .collect();
        // Pull the plug while batches are still open. A heavily loaded
        // scheduler may deschedule a client past the shutdown — then its
        // push is *rejected*, which is also a valid outcome; what must
        // never happen is an accepted request that is dropped or answered
        // from the wrong model's table.
        std::thread::sleep(Duration::from_millis(20));
        let stats = router.shutdown();
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (outcomes, stats)
    });

    let mut served = 0u64;
    for (model, id, outcome) in outcomes {
        match outcome {
            Ok(row) => {
                let want = if model == "a" {
                    emb_a.lookup(&[id]).unwrap()
                } else {
                    emb_b.lookup(&[id]).unwrap()
                };
                assert_eq!(
                    row.as_slice(),
                    want.as_slice(),
                    "model {model} id {id} misrouted"
                );
                served += 1;
            }
            Err(ServeError::ShuttingDown) => {} // raced the close; rejected cleanly
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    let total: u64 = stats.iter().map(|(_, s)| s.requests).sum();
    assert_eq!(
        total, served,
        "every accepted request was served exactly once"
    );
    assert_eq!(stats.len(), 2, "per-model stats for both models");
    assert!(matches!(ha.get(1), Err(ServeError::ShuttingDown)));
}

/// Deregistering one model mid-traffic fails fast on its handles while
/// the other model keeps serving undisturbed.
#[test]
fn deregister_one_model_leaves_the_other_serving() {
    let emb_a = memcom(30);
    let emb_b = full(31);
    let router = Router::start(config(2)).unwrap();
    router.register("a", &emb_a).unwrap();
    router.register("b", &emb_b).unwrap();
    let ha = router.handle("a").unwrap();
    let hb = router.handle("b").unwrap();

    ha.get(5).unwrap();
    router.deregister("a").unwrap();
    assert!(matches!(ha.get(5), Err(ServeError::ModelNotFound { .. })));
    // A handle's metadata outlives the registration: it keeps answering
    // from the final snapshot and counters.
    assert!(ha.snapshot().stored_bytes() > 0);
    assert_eq!(ha.stats().requests, 1);
    assert_eq!(ha.dim(), DIM);
    for id in (0..VOCAB).step_by(29) {
        assert_eq!(
            hb.get(id).unwrap().as_slice(),
            emb_b.lookup(&[id]).unwrap().as_slice(),
            "model b survives a's deregistration"
        );
    }
    assert_eq!(router.model_names(), vec!["b".to_string()]);
}

/// The id [`ThreadRecorder`] holds its serving thread on.
const HELD: usize = 0;

/// Scores like a lookup, records the name of the thread that served each
/// request, and holds the serving thread on [`HELD`] until released.
#[derive(Debug)]
struct ThreadRecorder {
    served_on: Mutex<Vec<(usize, String)>>,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl InferBackend for ThreadRecorder {
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
        let thread = std::thread::current().name().unwrap_or("").to_string();
        self.served_on.lock().unwrap().push((ids[0], thread));
        if ids[0] == HELD {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        LookupBackend.score_into(store, ids, scratch, out)
    }
}

/// Polls until `done` holds, failing the test after 10 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// An idle shard is served on the thread that submitted to it. While
/// that turn is held, later requests queue; when it ends, it passes to
/// the caller of the oldest of them, which serves the burst as one batch.
#[test]
fn an_idle_shard_is_served_on_the_callers_thread() {
    let emb = memcom(50);
    let (router, recorder, entered_rx, release) = recording_router(&emb, 1, 16);
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    let score = |id: usize| score_exact(&handle, &emb, id);
    let served_on = |id: usize| -> Vec<String> {
        let served = recorder.served_on.lock().unwrap();
        served
            .iter()
            .filter(|(i, _)| *i == id)
            .map(|(_, t)| t.clone())
            .collect()
    };
    // Admission waits are recorded once a push has landed.
    let admitted = || router.metrics().stages[0].admission_wait.count();

    std::thread::scope(|scope| {
        named("caller")
            .spawn_scoped(scope, || score(1))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            served_on(1),
            ["caller"],
            "an idle shard serves on its caller"
        );

        let holder = named("holder").spawn_scoped(scope, || score(HELD)).unwrap();
        entered_rx.recv().unwrap();
        let before = admitted();
        let queued: Vec<_> = (2..7)
            .map(|id| named(&format!("queued-{id}")).spawn_scoped(scope, move || score(id)))
            .collect::<std::io::Result<_>>()
            .unwrap();
        wait_until("the burst to queue", || {
            admitted() == before + queued.len() as u64
        });
        release.send(()).unwrap();
        holder.join().unwrap();
        for thread in queued {
            thread.join().unwrap();
        }
    });
    assert_eq!(served_on(HELD), ["holder"]);
    let burst = served_on(2);
    assert!(
        burst.len() == 1 && burst[0].starts_with("queued-"),
        "the burst ran on a queued caller's thread: {burst:?}"
    );
    for id in 2..7 {
        assert_eq!(served_on(id), burst, "id {id} queued behind a held turn");
    }
    assert!(
        handle.stats().max_batch_observed >= 2,
        "the burst behind the held turn coalesced: {:?}",
        handle.stats()
    );
}

/// A router whose one model scores through a [`ThreadRecorder`], at full
/// telemetry so that admission waits are counted: the recorder, the
/// channel that says a serving thread is held on [`HELD`] and the one
/// that releases it.
fn recording_router(
    emb: &MemCom,
    n_shards: usize,
    max_batch: usize,
) -> (
    Router,
    Arc<ThreadRecorder>,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
) {
    let (entered, entered_rx) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let recorder = Arc::new(ThreadRecorder {
        served_on: Mutex::new(Vec::new()),
        entered: Mutex::new(entered),
        release: Mutex::new(release_rx),
    });
    let router = Router::start(ServeConfig {
        n_shards,
        max_batch,
        telemetry: TelemetryConfig::full(1.0),
        ..ServeConfig::default()
    })
    .unwrap();
    router
        .backends()
        .register("recorder", Arc::clone(&recorder) as Arc<dyn InferBackend>)
        .unwrap();
    router
        .register_with_backend(DEFAULT_MODEL, emb, Dtype::F32, "recorder")
        .unwrap();
    (router, recorder, entered_rx, release)
}

/// Scores `id` through `handle`, checking the compressor's bits.
fn score_exact(handle: &memcom_serve::RouterHandle, emb: &MemCom, id: usize) {
    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let got = handle.score(&[id]).unwrap();
    assert_eq!(
        bits(&got),
        bits(emb.lookup(&[id]).unwrap().as_slice()),
        "id {id}"
    );
}

fn named(name: &str) -> std::thread::Builder {
    std::thread::Builder::new().name(name.to_string())
}

/// A backlog is served batch by batch, each batch on the thread of its
/// oldest request: five requests queued behind a held turn at
/// `max_batch` 2 make three batches, served by the first, third and
/// fifth callers. No thread serves twice, and none exists only to serve.
#[test]
fn each_batch_of_a_backlog_runs_on_its_oldest_callers_thread() {
    let emb = memcom(51);
    let (router, recorder, entered, release) = recording_router(&emb, 1, 2);
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    let (handle_ref, emb_ref) = (&handle, &emb);
    let admitted = || router.metrics().stages[0].admission_wait.count();
    let batches = std::thread::scope(|scope| {
        let holder = named("holder")
            .spawn_scoped(scope, || score_exact(&handle, &emb, HELD))
            .unwrap();
        entered.recv().unwrap();
        let batches = handle.stats().batches;
        // One push at a time, so that the queue holds them in id order.
        let queued: Vec<_> = (2..7)
            .map(|id| {
                let before = admitted();
                let thread = named(&format!("queued-{id}"))
                    .spawn_scoped(scope, move || score_exact(handle_ref, emb_ref, id))
                    .unwrap();
                wait_until("the push to land", || admitted() == before + 1);
                thread
            })
            .collect();
        release.send(()).unwrap();
        holder.join().unwrap();
        for thread in queued {
            thread.join().unwrap();
        }
        handle.stats().batches - batches
    });
    assert_eq!(batches, 3, "five requests at max_batch 2");
    let served = recorder.served_on.lock().unwrap().clone();
    let on = |id: usize, thread: &str| (id, thread.to_string());
    assert_eq!(
        served,
        [
            on(HELD, "holder"),
            on(2, "queued-2"),
            on(3, "queued-2"),
            on(4, "queued-4"),
            on(5, "queued-4"),
            on(6, "queued-6"),
        ],
        "each batch on its first request's thread, in queue order"
    );
    assert!(served.iter().all(|(_, t)| !t.starts_with("memcom-serve-")));
}

/// `shutdown` drains the backlog behind a held turn. Called while the
/// turn is held, it closes every queue at once and returns only after
/// every queued request is answered, with stats that count them exactly;
/// the router then refuses requests.
#[test]
fn shutdown_returns_once_the_backlog_behind_a_held_turn_is_answered() {
    let emb = memcom(52);
    // Two shards: even ids queue on shard 0 behind the held turn, and
    // odd ids probe shard 1, idle, for the close.
    let (router, recorder, entered, release) = recording_router(&emb, 2, 2);
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    let queued_ids = [2usize, 4, 6, 8];
    let released = AtomicBool::new(false);
    let served_ids = || -> Vec<usize> {
        let served = recorder.served_on.lock().unwrap();
        served.iter().map(|(id, _)| *id).collect()
    };
    let (handle_ref, emb_ref) = (&handle, &emb);
    let (probes, (released_first, served_then, stats)) = std::thread::scope(|scope| {
        let holder = scope.spawn(|| score_exact(handle_ref, emb_ref, HELD));
        entered.recv().unwrap();
        let admitted = || router.metrics().stages[0].admission_wait.count();
        let before = admitted();
        let queued: Vec<_> = queued_ids
            .iter()
            .map(|&id| scope.spawn(move || score_exact(handle_ref, emb_ref, id)))
            .collect();
        wait_until("the backlog to queue", || {
            admitted() == before + queued_ids.len() as u64
        });
        let (released, served_ids) = (&released, &served_ids);
        let shutdown = scope.spawn(move || {
            let stats = router.shutdown();
            (released.load(Ordering::SeqCst), served_ids(), stats)
        });
        // Shard 1 closes after shard 0: once a probe is refused, both are.
        let mut probes = 0u64;
        loop {
            match handle_ref.score(&[1]) {
                Ok(_) => probes += 1,
                Err(ServeError::ShuttingDown) => break,
                Err(other) => panic!("probe: {other:?}"),
            }
        }
        released.store(true, Ordering::SeqCst);
        release.send(()).unwrap();
        holder.join().unwrap();
        for thread in queued {
            thread.join().unwrap();
        }
        (probes, shutdown.join().unwrap())
    });
    assert!(
        released_first,
        "shutdown returned before the held turn ended"
    );
    for id in queued_ids {
        assert!(served_then.contains(&id), "id {id} unanswered at shutdown");
    }
    let [(model, stats)] = stats.as_slice() else {
        panic!("one model: {stats:?}");
    };
    assert_eq!(model, DEFAULT_MODEL);
    assert_eq!(stats.requests, 1 + queued_ids.len() as u64 + probes);
    assert_eq!((stats.shed, stats.expired), (0, 0));
    assert_eq!(stats.issued, stats.requests + 1, "the refused probe");
    assert!(matches!(handle.get(3), Err(ServeError::ShuttingDown)));
}
