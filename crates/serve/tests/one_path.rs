//! The contract of the single request path.
//!
//! Every `RouterHandle` entry point — `get`, `get_many`,
//! `get_batch_into`, `score`, `score_batch_into` — is a wrapper of one
//! submit → queue → worker path, so for the same ids they must agree
//! bit for bit, whatever backend the model is bound to; a fault inside
//! that path (a panicking backend) must stay a typed error for its one
//! caller; and the per-lookup telemetry must stay exact while scores on
//! other workers read through the same shard.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec};
use memcom_models::{ModelConfig, RecModel};
use memcom_serve::{
    Dtype, EmbedBatch, InferBackend, InferScratch, RankNetBackend, Router, ScoreBatch, ServeConfig,
    ServeError, ShardedStore, TelemetryConfig,
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
    // One shard: the worker that catches the panic is the one that must
    // serve everything after it.
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
        // The same worker answers the next lookup and the next score —
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
/// requests executing on the *other* worker gather through the same
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
