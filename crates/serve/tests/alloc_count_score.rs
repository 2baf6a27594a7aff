//! Proof that the full-model score path performs no per-request heap
//! allocation beyond the response-slot `Arc`.
//!
//! Same harness as `alloc_count.rs`, pointed at `score_batch_into`: a
//! counting global allocator tallies every `alloc`/`realloc`, and after
//! warm-up (backend scratch grown, buffer rotation primed) a 128-id
//! score call — embedding gather plus the full
//! RankNet forward — must stay under a small constant number of
//! allocations, independent of the id count. The shard's
//! [`memcom_serve::InferScratch`] (gather scratch, head activations,
//! logit buffer) is reused across calls; a per-call scratch would blow
//! the bound immediately.
//!
//! This file holds exactly one `#[test]`: the allocator is process-wide,
//! so a sibling test running concurrently would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use memcom_core::MethodSpec;
use memcom_models::{ModelConfig, RecModel};
use memcom_serve::{Dtype, RankNetBackend, Router, ScoreBatch, ServeConfig};

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

#[test]
fn score_batch_into_allocates_constant_not_per_id() {
    const IDS: usize = 128;
    const CALLS: u64 = 50;

    let model = RecModel::new(
        &ModelConfig::pointwise(1_000, 16, IDS, 1),
        &MethodSpec::MemCom {
            hash_size: 100,
            bias: false,
        },
    )
    .unwrap();
    let router = Router::start(ServeConfig {
        n_shards: 1,
        // Flush every queue entry immediately: no timer waits, and a
        // deterministic one-batch-per-call steady state.
        max_batch: 1,
        ..ServeConfig::default()
    })
    .unwrap();
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
    let ids: Vec<usize> = (0..IDS).collect();
    let mut batch = ScoreBatch::new();

    // Warm up: grows the id/score buffers and the shard's inference
    // scratch, and settles the allocator.
    for _ in 0..10 {
        handle.score_batch_into(&ids, &mut batch).unwrap();
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        handle.score_batch_into(&ids, &mut batch).unwrap();
    }
    let per_call = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64;
    eprintln!("score path: {per_call:.2} allocations/call");

    // Expected steady state: 1 response-slot Arc (caller side), nothing
    // from serving — the gather scratch, head activations, and logit
    // buffer all live in the per-shard `InferScratch` and are reused
    // across batches.
    assert!(
        per_call <= 2.5,
        "expected ~1 allocation per {IDS}-id score call (slot Arc only), measured {per_call:.1}"
    );

    // Sanity: the scores really were served.
    assert_eq!(batch.scores().len(), 1, "pointwise ranker emits one logit");
    let stats = router.stats("scorer").unwrap();
    assert!(stats.requests >= (CALLS + 10) * IDS as u64);
    router.shutdown();
}
