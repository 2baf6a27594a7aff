//! Cross-backend equivalence and overload semantics of the score path.
//!
//! A model served through [`RankNetBackend`] must produce the same
//! numbers as the on-device engine run directly over the same weights:
//! bit for bit when the router's store is fp32 (same gather, same simd
//! reconstruction kernels, same head executor), and within the
//! backend's certified [`RankNetBackend::score_error_bound`] when the
//! store is quantized. The score path must also inherit the serve
//! tier's overload semantics unchanged — typed sheds with backoff
//! hints, deadline drops at dequeue without a wasted forward, and the
//! `issued >= requests + shed + expired` counter contract — which the
//! second half of this suite asserts by reusing the exact wedge
//! configurations from `overload.rs`.

use std::sync::Arc;
use std::time::Duration;

use memcom_core::MethodSpec;
use memcom_models::{ModelConfig, RecModel};
use memcom_serve::{
    AdmissionPolicy, Dtype, RankNetBackend, Router, ScoreBatch, ServeConfig, ServeError,
    ShardedStore,
};

const VOCAB: usize = 500;
const DIM: usize = 8;
const INPUT_LEN: usize = 4;

fn ranker(seed: u64) -> RecModel {
    let config = ModelConfig {
        seed,
        ..ModelConfig::pointwise(VOCAB, DIM, INPUT_LEN, 1)
    };
    RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: 50,
            bias: false,
        },
    )
    .unwrap()
}

fn router_serving(model: &RecModel, dtype: Dtype, config: ServeConfig) -> Router {
    let router = Router::start(config).unwrap();
    router
        .backends()
        .register(
            "ranknet",
            Arc::new(RankNetBackend::from_model(model).unwrap()),
        )
        .unwrap();
    router
        .register_with_backend("scorer", model.embedding(), dtype, "ranknet")
        .unwrap();
    router
}

/// Deterministic id sets that span shards (ids are routed by
/// `id % n_shards`, so mixing parities exercises the cross-shard
/// gather inside the serving thread).
fn probe_id_sets() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1, 2, 3],
        vec![499, 498, 497, 496],
        vec![7, 7, 7, 7],
        vec![11, 250, 13, 402],
        vec![2, 4, 6, 8],
    ]
}

/// Over an fp32 store the served score is the *same computation* as the
/// on-device engine: identical gather, identical head executor. Equal
/// bits, not approximately equal floats.
#[test]
fn served_fp32_scores_match_the_engine_bit_for_bit() {
    let model = ranker(3);
    let direct = RankNetBackend::from_model(&model).unwrap();
    let router = router_serving(&model, Dtype::F32, ServeConfig::with_shards(2));
    let handle = router.handle("scorer").unwrap();

    // fp32 stores reconstruct exactly: the certified bound degenerates
    // to zero, which is what licenses the bit-for-bit assertion.
    let store = router.snapshot("scorer").unwrap();
    assert_eq!(direct.score_error_bound(&store), 0.0);

    for ids in probe_id_sets() {
        let served = handle.score(&ids).unwrap();
        let (exact, _) = direct.session().run(&ids).unwrap();
        assert_eq!(served.len(), exact.len());
        for (i, (s, e)) in served.iter().zip(exact.iter()).enumerate() {
            assert_eq!(
                s.to_bits(),
                e.to_bits(),
                "ids {ids:?} logit {i}: served {s} != engine {e}"
            );
        }
    }
    router.shutdown();
}

/// Over an int8 store every served score stays within the certified
/// worst-case bound of the exact fp32 forward — the serving-tier
/// restatement of the engine's quantization-error certificate.
#[test]
fn served_int8_scores_stay_within_the_certified_bound() {
    let model = ranker(5);
    let direct = RankNetBackend::from_model(&model).unwrap();
    let router = router_serving(&model, Dtype::Int8, ServeConfig::with_shards(2));
    let handle = router.handle("scorer").unwrap();

    let store = router.snapshot("scorer").unwrap();
    let bound = direct.score_error_bound(&store);
    assert!(
        bound.is_finite() && bound > 0.0,
        "int8 store must certify a positive finite bound, got {bound}"
    );
    // Tiny slack for float rounding in the bound arithmetic itself.
    let tolerance = bound * 1.01 + 1e-5;

    for ids in probe_id_sets() {
        let served = handle.score(&ids).unwrap();
        let (exact, _) = direct.session().run(&ids).unwrap();
        assert_eq!(served.len(), exact.len());
        for (i, (s, e)) in served.iter().zip(exact.iter()).enumerate() {
            let err = (s - e).abs();
            assert!(
                err <= tolerance,
                "ids {ids:?} logit {i}: |{s} - {e}| = {err} exceeds bound {bound}"
            );
        }
    }
    router.shutdown();
}

/// Score requests flow through the same admission counters as lookups:
/// `requests` counts ids (rows), invalid ids are rejected before they
/// are issued, and the reusable-batch API returns the same numbers as
/// the allocating one.
#[test]
fn score_requests_share_the_counter_contract() {
    let model = ranker(7);
    let router = router_serving(&model, Dtype::F32, ServeConfig::with_shards(2));
    let handle = router.handle("scorer").unwrap();

    // Variable-length inputs: the head pools over however many ids the
    // request carries.
    let mut batch = ScoreBatch::new();
    let mut rows = 0u64;
    for ids in [vec![1, 2, 3, 4], vec![9], vec![10, 20, 30]] {
        handle.score_batch_into(&ids, &mut batch).unwrap();
        assert_eq!(batch.scores().len(), 1, "pointwise ranker emits one logit");
        rows += ids.len() as u64;
    }

    // An out-of-vocab id fails admission without touching the counters.
    assert!(matches!(
        handle.score(&[VOCAB]),
        Err(ServeError::IdOutOfVocab { .. })
    ));

    let stats = router.stats("scorer").unwrap();
    assert_eq!(stats.requests, rows);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.expired, 0);
    assert!(
        stats.issued >= stats.requests + stats.shed + stats.expired,
        "issued {} < outcomes {}",
        stats.issued,
        stats.requests + stats.shed + stats.expired
    );
    router.shutdown();
}

/// A score request whose deadline passes while queued is answered
/// `DeadlineExceeded` at dequeue — no forward is run for it, exactly
/// like the lookup path in `overload.rs`.
#[test]
fn score_deadline_expires_at_dequeue_not_silently() {
    let model = ranker(11);
    let deadline = Duration::from_millis(25);
    // The probe queues behind a blocker served for 100ms —
    // far past the probe's 25ms deadline.
    let router = router_serving(
        &model,
        Dtype::F32,
        ServeConfig {
            n_shards: 1,
            max_batch: 512,
            store_latency: Duration::from_millis(100),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::from_secs(5),
                request_deadline: Some(deadline),
            },
            ..ServeConfig::default()
        },
    );
    let handle = router.handle("scorer").unwrap();

    let probe = std::thread::scope(|scope| {
        let blocker = router.handle("scorer").unwrap();
        scope.spawn(move || blocker.score(&[0]).unwrap());
        // `batches` counts a batch before its store read.
        while router.stats("scorer").unwrap().batches == 0 {
            std::thread::yield_now();
        }
        handle.score(&[1, 2, 3])
    });
    match probe {
        Err(ServeError::DeadlineExceeded {
            queued,
            deadline: reported,
        }) => {
            assert_eq!(reported, deadline);
            assert!(queued >= deadline, "queued {queued:?} < {deadline:?}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = router.stats("scorer").unwrap();
    assert_eq!(stats.expired, 3, "expiry counts rows, like slab lookups");
    assert_eq!(stats.requests, 1, "no forward for a dead request");
    router.shutdown();
}

/// A wedged shard sheds score requests with the same typed,
/// budget-stamped rejection and backoff hint as lookups.
#[test]
fn score_admission_sheds_when_the_queue_is_wedged() {
    let model = ranker(13);
    let enqueue_timeout = Duration::from_millis(5);
    let router = router_serving(
        &model,
        Dtype::F32,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            // Wedge the serving thread: the first flush sleeps 400ms, so the
            // queue stays occupied while we probe the reject path.
            store_latency: Duration::from_millis(400),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
    );
    let handle = router.handle("scorer").unwrap();
    std::thread::scope(|scope| {
        let wedger = router.handle("scorer").unwrap();
        scope.spawn(move || wedger.score(&[0]).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        let parker = router.handle("scorer").unwrap();
        scope.spawn(move || parker.score(&[1]).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        // Queue full, serving thread asleep: this push waits out its budget,
        // then sheds.
        match handle.score(&[2]) {
            Err(ServeError::Overloaded {
                waited,
                retry_after,
            }) => {
                assert_eq!(waited, enqueue_timeout);
                // Queue depth 1 ÷ capacity (max_batch 1 / 400ms store
                // read), plus the wedged in-flight batch: 2 batch
                // service times of suggested backoff.
                assert_eq!(retry_after, Duration::from_millis(800));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    });
    let stats = router.stats("scorer").unwrap();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.requests, 2, "wedger and parker were served");
    router.shutdown();
}

/// Registration guards: duplicate backend names, unknown backend
/// references, and dimension-mismatched stores are all rejected with
/// `BadConfig` before anything is served.
#[test]
fn registry_rejects_duplicates_unknowns_and_mismatched_stores() {
    let model = ranker(17);
    let router = router_serving(&model, Dtype::F32, ServeConfig::with_shards(1));

    // Re-registering an existing backend name is a configuration error.
    let dup = router.backends().register(
        "ranknet",
        Arc::new(RankNetBackend::from_model(&model).unwrap()),
    );
    assert!(matches!(dup, Err(ServeError::BadConfig { .. })));

    // Referencing a backend that was never registered fails before a
    // store is built.
    assert!(matches!(
        router.register_with_backend("ghost", model.embedding(), Dtype::F32, "transformer"),
        Err(ServeError::BadConfig { .. })
    ));

    // A store whose rows are the wrong width for the backend's head is
    // rejected by `check_store` at registration, not at serve time.
    let wide = RecModel::new(
        &ModelConfig::pointwise(VOCAB, 2 * DIM, INPUT_LEN, 1),
        &MethodSpec::MemCom {
            hash_size: 50,
            bias: false,
        },
    )
    .unwrap();
    assert!(matches!(
        router.register_with_backend("wide", wide.embedding(), Dtype::F32, "ranknet"),
        Err(ServeError::BadConfig { .. })
    ));

    // The default lookup backend still serves plain row lookups next to
    // the scoring model: same router, same shards.
    router
        .register_with_dtype("rows", model.embedding(), Dtype::F32)
        .unwrap();
    let rows = router.handle("rows").unwrap();
    assert_eq!(rows.get(42).unwrap().len(), DIM);
    router.shutdown();
}

/// `swap` runs the bound backend's `check_store` like registration does:
/// a wrong-width store is refused before the flip, so the old snapshot
/// keeps scoring the same bits and the swap is not counted.
#[test]
fn swap_refuses_a_store_the_bound_backend_cannot_serve() {
    let model = ranker(19);
    let router = router_serving(&model, Dtype::F32, ServeConfig::with_shards(2));
    let handle = router.handle("scorer").unwrap();
    let bits = |scores: Vec<f32>| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let before: Vec<_> = probe_id_sets()
        .iter()
        .map(|ids| bits(handle.score(ids).unwrap()))
        .collect();

    let wide = RecModel::new(
        &ModelConfig::pointwise(VOCAB, 2 * DIM, INPUT_LEN, 1),
        &MethodSpec::MemCom {
            hash_size: 50,
            bias: false,
        },
    )
    .unwrap();
    let page_size = router.config().page_size;
    let wide_store = ShardedStore::build(wide.embedding(), 2, 0, page_size).unwrap();
    assert!(matches!(
        router.swap("scorer", wide_store),
        Err(ServeError::BadConfig { .. })
    ));

    let after: Vec<_> = probe_id_sets()
        .iter()
        .map(|ids| bits(handle.score(ids).unwrap()))
        .collect();
    assert_eq!(after, before, "the old snapshot keeps scoring bit for bit");
    assert_eq!(router.metrics().models[0].snapshot_swaps, 0);

    // A store of the right width still swaps in.
    let same_store = ShardedStore::build(model.embedding(), 2, 0, page_size).unwrap();
    router.swap("scorer", same_store).unwrap();
    assert_eq!(router.metrics().models[0].snapshot_swaps, 1);
    router.shutdown();
}
