//! Cross-dtype serving certification.
//!
//! Two guarantees, asserted rather than printed:
//!
//! 1. **Equivalence** — for every compression technique a store can be
//!    built from, `lookup_batch` on an f16/int8/int4 store matches the
//!    fp32 store row for row within the quantized store's certified
//!    [`ShardedStore::error_bound`] (the serving analogue of the core
//!    crate's `embed_into` cross-method equivalence test).
//! 2. **Footprint** — an fp32-vs-int8 A/B of the *same* table behind one
//!    router leaves ≥3× smaller store *and* resident bytes for int8 in
//!    the two [`Router::snapshot`]s after a mixed load run, while every
//!    served row stays within the advertised bound.

use memcom_core::{MethodSpec, QrCombiner};
use memcom_serve::{run_load, Dtype, LoadGenConfig, Router, ServeConfig, ShardedStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every spec the core crate's equivalence test sweeps.
fn all_specs() -> Vec<MethodSpec> {
    vec![
        MethodSpec::Uncompressed,
        MethodSpec::MemCom {
            hash_size: 10,
            bias: true,
        },
        MethodSpec::MemCom {
            hash_size: 10,
            bias: false,
        },
        MethodSpec::NaiveHash { hash_size: 10 },
        MethodSpec::DoubleHash { hash_size: 10 },
        MethodSpec::QuotientRemainder {
            hash_size: 10,
            combiner: QrCombiner::Multiply,
        },
        MethodSpec::QuotientRemainder {
            hash_size: 10,
            combiner: QrCombiner::Concat,
        },
        MethodSpec::Factorized { hidden: 4 },
        MethodSpec::ReduceDim { dim: 8 },
        MethodSpec::TruncateRare { keep: 20 },
        MethodSpec::WeinbergerOneHot { hash_size: 10 },
    ]
}

#[test]
fn lookup_batch_matches_fp32_store_within_bound_for_every_spec() {
    const VOCAB: usize = 120;
    const N_SHARDS: usize = 3;
    let mut rng = StdRng::seed_from_u64(29);
    for spec in all_specs() {
        let emb = spec.build(VOCAB, 16, &mut rng).unwrap();
        let exact = ShardedStore::build(emb.as_ref(), N_SHARDS, 8, 256).unwrap();
        let dim = exact.dim();
        for dtype in [Dtype::F16, Dtype::Int8, Dtype::Int4] {
            let quant =
                ShardedStore::build_quantized(emb.as_ref(), N_SHARDS, 8, 256, dtype).unwrap();
            assert!(
                quant.stored_bytes() < exact.stored_bytes(),
                "{spec:?} {dtype:?} must shrink the store"
            );
            let bound = quant.error_bound() + 1e-6;
            for shard in 0..N_SHARDS {
                let ids: Vec<usize> = (0..VOCAB).filter(|id| id % N_SHARDS == shard).collect();
                let mut want = vec![0f32; ids.len() * dim];
                let mut got = vec![f32::NAN; ids.len() * dim];
                exact.lookup_batch(shard, &ids, &mut want).unwrap();
                quant.lookup_batch(shard, &ids, &mut got).unwrap();
                for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        (a - b).abs() <= bound,
                        "{spec:?} {dtype:?} shard {shard} value {k}: \
                         {a} vs {b} (bound {bound})"
                    );
                }
            }
        }
    }
}

#[test]
fn int8_ab_reports_3x_smaller_bytes_within_bound() {
    const VOCAB: usize = 1_200;
    const DIM: usize = 32;
    let mut rng = StdRng::seed_from_u64(41);
    let emb = MethodSpec::Uncompressed
        .build(VOCAB, DIM, &mut rng)
        .unwrap();

    // One worker set, two dtype variants of the same table: the A/B is
    // two register calls.
    let router = Router::start(ServeConfig {
        n_shards: 2,
        max_batch: 32,
        page_size: 1024,
        ..ServeConfig::default()
    })
    .unwrap();
    router.register("emb/fp32", emb.as_ref()).unwrap();
    router
        .register_with_dtype("emb/int8", emb.as_ref(), Dtype::Int8)
        .unwrap();

    // Near-uniform traffic, enough of it that essentially every page of
    // both stores is touched — resident bytes then reflect the full
    // footprint gap, not sampling luck (and the seed is fixed anyway).
    let load = LoadGenConfig {
        clients: 2,
        requests_per_client: 1_500,
        ids_per_request: 4,
        zipf_exponent: 0.05,
        ..LoadGenConfig::default()
    };
    let mix = [("emb/fp32", 1.0), ("emb/int8", 1.0)];
    let report = run_load(&router, &mix, &load).unwrap();
    assert_eq!(report.requests, 3_000);
    // The footprint the traffic left behind, read off each variant's
    // store snapshot.
    let exact = router.snapshot("emb/fp32").unwrap();
    let quant = router.snapshot("emb/int8").unwrap();
    assert_eq!(exact.dtype(), Dtype::F32);
    assert_eq!(quant.dtype(), Dtype::Int8);
    assert_eq!(exact.error_bound(), 0.0);
    assert!(quant.error_bound() > 0.0);
    assert!(
        quant.stored_bytes() * 3 <= exact.stored_bytes(),
        "store bytes: int8 {} vs fp32 {}",
        quant.stored_bytes(),
        exact.stored_bytes()
    );
    let (fp32_resident, int8_resident) = (
        exact.run_stats().resident_model_bytes,
        quant.run_stats().resident_model_bytes,
    );
    assert!(
        int8_resident * 3 <= fp32_resident,
        "resident bytes: int8 {int8_resident} vs fp32 {fp32_resident}"
    );

    // Every served row of the int8 variant stays within its advertised
    // bound of the fp32 truth.
    let bound = quant.error_bound() + 1e-6;
    for id in 0..VOCAB {
        let want = exact.get(id).unwrap();
        let got = quant.get(id).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert!(
                (a - b).abs() <= bound,
                "id {id}: {a} vs {b} (bound {bound})"
            );
        }
    }
}
