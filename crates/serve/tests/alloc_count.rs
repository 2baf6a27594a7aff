//! Proof that the slab batch path performs no per-row heap allocation.
//!
//! A counting global allocator tallies every `alloc`/`realloc` in the
//! process. After warm-up (buffers primed, queue at capacity), a
//! `get_batch_into` call for hundreds of rows must stay under a small
//! constant number of allocations — the response slot `Arc` — independent
//! of the row count and of the number of shards the rows live on. A
//! per-row `Vec` pipeline (the old `get_many` shape) would blow the bound
//! by two orders of magnitude.
//!
//! This file holds exactly one `#[test]`: the allocator is process-wide,
//! so a sibling test running concurrently would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec, QrCombiner};
use memcom_serve::{AdmissionPolicy, Dtype, EmbedBatch, Router, ServeConfig, DEFAULT_MODEL};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn start(emb: &dyn EmbeddingCompressor, config: ServeConfig) -> memcom_serve::Result<Router> {
    let router = Router::start(config)?;
    router.register(DEFAULT_MODEL, emb)?;
    Ok(router)
}

#[test]
fn get_batch_into_allocates_constant_not_per_row() {
    const ROWS: usize = 512;
    const CALLS: u64 = 50;

    let mut rng = StdRng::seed_from_u64(7);
    let emb = MemCom::new(MemComConfig::new(1_000, 16, 100), &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let qr_mult = MethodSpec::QuotientRemainder {
        hash_size: 100,
        combiner: QrCombiner::Multiply,
    }
    .build(1_000, 16, &mut rng)
    .unwrap();
    let ids: Vec<usize> = (0..ROWS).collect();
    let mut batch = EmbedBatch::new();

    // First phase: the read path. fp32 rows copy out of their pages and
    // int8 rows dequantize out of them, either way straight into the
    // slab: the decode must be exactly as allocation-free as the copy.
    // Quotient–remainder-multiply reads two int8 rows per id and
    // multiplies them, so every row borrows the executor's operand
    // buffer — which the shard must own and reuse, not allocate per row.
    let cases: [(&dyn EmbeddingCompressor, Dtype); 3] = [
        (&emb, Dtype::F32),
        (&emb, Dtype::Int8),
        (qr_mult.as_ref(), Dtype::Int8),
    ];
    for (emb, dtype) in cases {
        let name = emb.method_name();
        // The ids run 0..512, so on 4 shards every call touches all of
        // them — and is still one request.
        let mut per_call_by_shards = Vec::new();
        for n_shards in [1, 4] {
            let router = Router::start(ServeConfig {
                n_shards,
                // Flush every queue entry immediately: no timer waits, and
                // a deterministic one-batch-per-call steady state.
                max_batch: 1,
                ..ServeConfig::default()
            })
            .unwrap();
            router
                .register_with_dtype(DEFAULT_MODEL, emb, dtype)
                .unwrap();
            let handle = router.handle(DEFAULT_MODEL).unwrap();

            // Warm up: grows the slab/pool/queue capacities and settles
            // the allocator to its steady state.
            for _ in 0..10 {
                handle.get_batch_into(&ids, &mut batch).unwrap();
            }

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..CALLS {
                handle.get_batch_into(&ids, &mut batch).unwrap();
            }
            let per_call = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64;
            eprintln!(
                "{name} {dtype:?} {n_shards}-shard read path: {per_call:.2} allocations/call"
            );

            // Expected steady state: 1 response-slot Arc (caller side) and
            // nothing from serving — `pop_batch_into` drains into a
            // reused buffer and the panic-blanket slot list is reused too,
            // so the old per-flush `drain(..).collect()` + slot-`Vec` pair
            // (~2 extra allocations per call) would blow this bound.
            assert!(
                per_call <= 2.5,
                "expected ~1 allocation per {ROWS}-row {name} {dtype:?} call on {n_shards} \
                 shards (slot Arc only), measured {per_call:.1}"
            );
            per_call_by_shards.push(per_call);

            // Sanity: the rows really were served.
            assert_eq!(batch.len(), ROWS);
            assert_eq!(batch.dim(), 16);
            let stats = router.shutdown().remove(0).1;
            assert!(stats.requests >= (CALLS + 10) * ROWS as u64);
        }
        // A call that touches 4 shards allocates what one touching 1
        // does: one request, one slot, whatever the shard count.
        let [one, four] = per_call_by_shards[..] else {
            unreachable!("two shard counts measured")
        };
        assert!(
            four <= one + 0.5,
            "{name} {dtype:?}: {four:.2} allocations/call on 4 shards vs {one:.2} on 1"
        );
    }

    // Second phase: the *shedding* hot path. Depth-1 queue, serving
    // thread wedged behind a long simulated store read, one request in flight
    // and one parked in the queue — every push from the main thread is
    // rejected at admission for the whole store-latency window. A shed
    // slab request must hand its id/out buffers back to the caller's batch,
    // so the reject path — which under overload runs for most traffic —
    // costs the same single slot-`Arc` allocation as a served call.
    let mut rng = StdRng::seed_from_u64(11);
    let emb = MemCom::new(MemComConfig::new(1_000, 16, 100), &mut rng).unwrap();
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            store_latency: Duration::from_millis(400),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    let mut outcomes = [0u64; 2]; // [accepted, shed]
    std::thread::scope(|scope| {
        // Wedge: the serving thread pops this immediately and sleeps 400ms.
        let wedger = handle.clone();
        scope.spawn(move || wedger.get(0).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        // Parker: sits in the depth-1 queue — now every push is Full.
        let parker = handle.clone();
        scope.spawn(move || parker.get(1).unwrap());
        std::thread::sleep(Duration::from_millis(50));

        // Warm the shed path, then measure inside the wedge window.
        for _ in 0..10 {
            let shed = matches!(
                handle.get_batch_into(&ids, &mut batch),
                Err(memcom_serve::ServeError::Overloaded { .. })
            );
            outcomes[shed as usize] += 1;
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..CALLS {
            let shed = matches!(
                handle.get_batch_into(&ids, &mut batch),
                Err(memcom_serve::ServeError::Overloaded { .. })
            );
            outcomes[shed as usize] += 1;
        }
        let per_call = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64;
        eprintln!(
            "shed path: {per_call:.2} allocations/call ({} shed / {} total)",
            outcomes[1],
            outcomes[0] + outcomes[1]
        );
        assert!(
            outcomes[1] >= CALLS / 2,
            "the wedged worker must shed most pushes, shed only {}",
            outcomes[1]
        );
        assert!(
            per_call <= 2.5,
            "expected ~1 allocation per shed {ROWS}-row call (slot Arc only), \
             measured {per_call:.1}"
        );
    });
    drop(router);
}
