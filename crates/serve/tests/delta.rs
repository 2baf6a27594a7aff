//! Delta-snapshot correctness: `apply_delta` must be indistinguishable
//! from a full rebuild of the mutated table — at every storage dtype —
//! while copying only the touched pages, never tearing a row under live
//! traffic, and releasing superseded snapshots once in-flight requests
//! drain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memcom_core::FullEmbedding;
use memcom_serve::{Dtype, Router, ServeConfig, ShardedStore, StoreDelta, DEFAULT_MODEL};
use memcom_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 6;
const VOCAB: usize = 60;

/// A deterministic pseudo-row for op `k` (no RNG in the delta itself, so
/// the proptest shrinker stays meaningful).
fn row_for(k: usize, base: f32) -> Vec<f32> {
    (0..DIM)
        .map(|j| base + (k as f32) * 0.13 - (j as f32) * 0.41)
        .collect()
}

/// Applies `ops` both to a [`StoreDelta`] and to a plain row matrix (the
/// "what a full rebuild would be built from" source of truth), returning
/// `(delta, final_rows)`.
fn apply_ops(table: &Tensor, ops: &[(usize, usize, f32)]) -> (StoreDelta, Vec<Vec<f32>>) {
    let mut rows: Vec<Vec<f32>> = (0..VOCAB).map(|r| table.row(r).unwrap().to_vec()).collect();
    let mut delta = StoreDelta::new(DIM);
    for (k, &(id, kind, base)) in ops.iter().enumerate() {
        if kind == 0 {
            // Removal: only valid inside the current vocabulary.
            let id = id % VOCAB;
            delta.remove_row(id).unwrap();
            rows[id] = vec![0.0; DIM];
        } else {
            let row = row_for(k, base);
            if id >= rows.len() {
                rows.resize(id + 1, vec![0.0; DIM]); // gap ids serve zeros
            }
            rows[id] = row.clone();
            delta.upsert_row(id, &row).unwrap();
        }
    }
    (delta, rows)
}

fn rebuild_from_rows(rows: &[Vec<f32>], dtype: Dtype) -> ShardedStore {
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let mut rng = StdRng::seed_from_u64(0);
    let mut emb = FullEmbedding::new(rows.len(), DIM, &mut rng).unwrap();
    emb.set_table(Tensor::from_vec(flat, &[rows.len(), DIM]).unwrap())
        .unwrap();
    ShardedStore::build_quantized(&emb, 3, 8, 128, dtype).unwrap()
}

proptest! {
    // For random upsert/remove sequences at every dtype, the delta'd
    // store and a store rebuilt from scratch over the mutated table
    // serve *identical* rows (same per-row encode), reconcile on
    // store/resident bytes, stay within the certified error bound of
    // the requested rows, and share every untouched page with the
    // pre-delta snapshot.
    #[test]
    fn apply_delta_equals_full_rebuild(
        ops in proptest::collection::vec(
            (0usize..(VOCAB + 20), 0usize..4, -2.0f32..2.0),
            1..40
        ),
        dtype in prop_oneof![
            Just(Dtype::F32),
            Just(Dtype::F16),
            Just(Dtype::Int8),
            Just(Dtype::Int4),
            Just(Dtype::Int2),
        ]
    ) {
        let mut rng = StdRng::seed_from_u64(19);
        let emb = FullEmbedding::new(VOCAB, DIM, &mut rng).unwrap();
        let store = ShardedStore::build_quantized(&emb, 3, 8, 128, dtype).unwrap();
        // Touch a few rows first, so the delta lands on resident pages too.
        for id in 0..8 {
            store.get(id).unwrap();
        }
        let (delta, rows) = apply_ops(emb.table(), &ops);
        let delta_store = store.apply_delta(&delta).unwrap();
        let rebuilt = rebuild_from_rows(&rows, dtype);

        prop_assert_eq!(delta_store.vocab(), rows.len());
        prop_assert_eq!(delta_store.dtype(), dtype);
        prop_assert_eq!(
            delta_store.stored_bytes(),
            rebuilt.stored_bytes(),
            "store bytes reconcile"
        );
        let bound = delta_store.error_bound() * (1.0 + 1e-5) + 1e-6;
        for (id, want_row) in rows.iter().enumerate() {
            let a = delta_store.get(id).unwrap();
            let b = rebuilt.get(id).unwrap();
            prop_assert_eq!(&a, &b, "id {} differs from the rebuild", id);
            for (got, want) in a.iter().zip(want_row) {
                prop_assert!(
                    (got - want).abs() <= bound,
                    "id {}: {} vs {} (bound {})", id, got, want, bound
                );
            }
        }
        // After full scans of both stores, every page is resident on each
        // side and the geometries agree.
        prop_assert_eq!(
            delta_store.run_stats().resident_model_bytes,
            rebuilt.run_stats().resident_model_bytes,
            "resident bytes reconcile"
        );
        // Untouched pages are physically shared with the old snapshot.
        let shared = delta_store.shared_bytes_with(&store);
        let copied = delta_store.cow_copied_bytes() as usize;
        prop_assert!(shared + copied > 0);
        if delta.is_empty() {
            prop_assert_eq!(copied, 0);
        }
        // The old snapshot still serves the pre-delta table.
        for id in 0..8 {
            prop_assert_eq!(store.get(id).unwrap(), {
                let fresh = ShardedStore::build_quantized(&emb, 3, 8, 128, dtype).unwrap();
                fresh.get(id).unwrap()
            });
        }
    }
}

/// The acceptance-criterion numbers: a 0.1%-of-rows delta against a
/// 1M-row store copies < 2% of the store's bytes and applies ≥ 20×
/// faster than the full rebuild `swap` would need.
#[test]
fn small_delta_on_a_million_rows_is_cheap() {
    const VOCAB_1M: usize = 1_000_000;
    const DIM_1M: usize = 8;
    const DELTA_ROWS: usize = 1_000; // 0.1% of rows
    let mut rng = StdRng::seed_from_u64(5);
    let emb = FullEmbedding::new(VOCAB_1M, DIM_1M, &mut rng).unwrap();

    let t0 = Instant::now();
    let store = ShardedStore::build(&emb, 4, 0, 16 * 1024).unwrap();
    let rebuild_time = t0.elapsed();

    // Refreshed entities cluster in id space (the paper frequency-sorts
    // ids, so recently-active entities are neighbours).
    let mut delta = StoreDelta::new(DIM_1M);
    for k in 0..DELTA_ROWS {
        let id = 500_000 + k;
        let row: Vec<f32> = (0..DIM_1M).map(|j| (k + j) as f32 * 1e-3).collect();
        delta.upsert_row(id, &row).unwrap();
    }
    let t1 = Instant::now();
    let new = store.apply_delta(&delta).unwrap();
    let apply_time = t1.elapsed();

    let copied = new.cow_copied_bytes() as usize;
    let total = store.stored_bytes();
    assert!(
        copied * 50 < total,
        "0.1% delta copied {copied} of {total} bytes (>= 2%)"
    );
    assert_eq!(
        new.shared_bytes_with(&store) + copied,
        new.stored_bytes(),
        "every byte is either shared or was copied"
    );
    assert!(
        rebuild_time >= apply_time * 20,
        "rebuild {rebuild_time:?} vs apply {apply_time:?}: expected >= 20x"
    );
    // And it actually took.
    assert_eq!(new.get(500_123).unwrap()[0], 123.0 * 1e-3);
    assert_eq!(new.get(7).unwrap(), store.get(7).unwrap());
    eprintln!(
        "1M-row store: rebuild {rebuild_time:?}, 0.1% delta apply {apply_time:?} \
         ({:.1}x faster), copied {:.2}% of bytes",
        rebuild_time.as_secs_f64() / apply_time.as_secs_f64().max(1e-9),
        100.0 * copied as f64 / total as f64
    );
}

/// Under live traffic, a stream of delta flips must never let a request
/// observe a torn row: every served row is exactly one of the versions
/// that was ever published, and versions observed by one reader are
/// monotone (requests capture snapshots at admission).
#[test]
fn deltas_under_traffic_never_tear_rows() {
    const HOT: [usize; 8] = [3, 10, 17, 128, 300, 301, 999, 1500];
    const ROUNDS: usize = 30;
    let mut rng = StdRng::seed_from_u64(23);
    let emb = FullEmbedding::new(2_000, 8, &mut rng).unwrap();
    let router = Router::start(ServeConfig {
        n_shards: 2,
        max_batch: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    router.register(DEFAULT_MODEL, &emb).unwrap();

    // Round 0: pin the hot rows to the uniform value 0.0 so every later
    // observation must be uniform at some round's value.
    let mut delta = StoreDelta::new(8);
    for &id in &HOT {
        delta.upsert_row(id, &[0.0; 8]).unwrap();
    }
    router.apply_delta(DEFAULT_MODEL, &delta).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader in 0..3 {
            let handle = router.handle(DEFAULT_MODEL).unwrap();
            let done = &done;
            scope.spawn(move || {
                let mut last_seen = vec![0f32; HOT.len()];
                let mut i = reader;
                while !done.load(Ordering::Relaxed) {
                    let slot = i % HOT.len();
                    let row = handle.get(HOT[slot]).unwrap();
                    let v = row[0];
                    assert!(
                        row.iter().all(|&x| x == v),
                        "torn row for id {}: {row:?}",
                        HOT[slot]
                    );
                    assert_eq!(v.fract(), 0.0, "unknown version {v}");
                    assert!(v >= 0.0 && v <= ROUNDS as f32, "unknown version {v}");
                    assert!(
                        v >= last_seen[slot],
                        "id {} went backwards: {} after {}",
                        HOT[slot],
                        v,
                        last_seen[slot]
                    );
                    last_seen[slot] = v;
                    i += 1;
                }
            });
        }
        for round in 1..=ROUNDS {
            let mut delta = StoreDelta::new(8);
            for &id in &HOT {
                delta.upsert_row(id, &[round as f32; 8]).unwrap();
            }
            router.apply_delta(DEFAULT_MODEL, &delta).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Relaxed);
    });

    // Everything settled on the final version.
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    for &id in &HOT {
        assert_eq!(handle.get(id).unwrap(), vec![ROUNDS as f32; 8]);
    }
}

/// Superseded snapshots (delta-flipped or deregistered) must actually be
/// freed once in-flight requests drain and callers drop their `Arc`s —
/// a retained snapshot would silently pin every copied page of a
/// dropped table.
#[test]
fn superseded_and_deregistered_snapshots_are_released() {
    let mut rng = StdRng::seed_from_u64(3);
    let emb = FullEmbedding::new(500, 8, &mut rng).unwrap();
    let router = Router::start(ServeConfig::with_shards(2)).unwrap();
    router.register("m", &emb).unwrap();
    let handle = router.handle("m").unwrap();

    // Make the first snapshot's pages resident with real traffic.
    for id in 0..32 {
        handle.get(id).unwrap();
    }
    let first = router.snapshot("m").unwrap();
    let weak_first = Arc::downgrade(&first);
    drop(first);

    // Supersede it with a delta; the returned Arc is the last strong ref
    // besides any in-flight request's capture.
    let mut delta = StoreDelta::new(8);
    delta.upsert_row(1, &[0.5; 8]).unwrap();
    let old = router.apply_delta("m", &delta).unwrap();
    for id in 0..32 {
        handle.get(id).unwrap(); // traffic now runs on the new snapshot
    }
    drop(old);
    assert!(
        weak_first.upgrade().is_none(),
        "superseded snapshot must be freed once in-flight requests drain"
    );

    // Deregistration: the final snapshot is pinned only by live handles;
    // once they drop, the memory goes too.
    let last = router.snapshot("m").unwrap();
    let weak_last = Arc::downgrade(&last);
    drop(last);
    router.deregister("m").unwrap();
    assert!(
        weak_last.upgrade().is_some(),
        "live handles still answer metadata from the final snapshot"
    );
    drop(handle);
    assert!(
        weak_last.upgrade().is_none(),
        "deregistered model's store must be freed once handles drop"
    );
}

/// `Router::apply_delta` composes with `swap` and validates like it.
#[test]
fn router_apply_delta_validates_and_returns_old_snapshot() {
    let mut rng = StdRng::seed_from_u64(8);
    let emb = FullEmbedding::new(100, 4, &mut rng).unwrap();
    let router = Router::start(ServeConfig::with_shards(2)).unwrap();
    router.register("m", &emb).unwrap();

    let mut wrong = StoreDelta::new(3);
    wrong.upsert_row(0, &[0.0; 3]).unwrap();
    assert!(router.apply_delta("m", &wrong).is_err());
    assert!(router.apply_delta("missing", &StoreDelta::new(4)).is_err());

    let before = router.snapshot("m").unwrap();
    let mut delta = StoreDelta::new(4);
    delta.upsert_row(150, &[1.0; 4]).unwrap();
    let old = router.apply_delta("m", &delta).unwrap();
    assert!(Arc::ptr_eq(&before, &old), "old snapshot handed back");
    assert_eq!(router.snapshot("m").unwrap().vocab(), 151);
    let handle = router.handle("m").unwrap();
    assert_eq!(handle.get(150).unwrap(), vec![1.0; 4]);
    assert_eq!(handle.get(149).unwrap(), vec![0.0; 4], "gap id");
}
