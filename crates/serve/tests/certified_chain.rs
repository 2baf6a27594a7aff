//! Certified bounds over *sequences* of deltas, for every technique.
//!
//! [`ShardedStore::error_bound`] is composed per combine from the
//! store's columns at build time and re-certified by every
//! [`ShardedStore::apply_delta`]. This suite holds it to that over a
//! seeded chain of eight deltas — upserts, removals, one upsert that
//! grows the vocabulary — at every storage dtype, against the plainest
//! possible reference: a `Vec<Vec<f32>>` patched with the same ops.
//!
//! * Recipes with a per-entity table to write (uncompressed, reduced
//!   dim, MEmCom with and without bias): after every step, every served
//!   row is within the store's bound of the reference, and for MEmCom
//!   every score the RankNet head computes over the store is within
//!   [`RankNetBackend::score_error_bound`] of the same head over the
//!   reference rows.
//! * Every other recipe refuses the delta before copying a page, and
//!   the snapshot it refused on keeps serving the same bits.

use memcom_core::{EmbeddingCompressor, FullEmbedding, MethodSpec, QrCombiner};
use memcom_models::{ModelConfig, RecModel};
use memcom_serve::{
    Dtype, InferBackend, InferScratch, RankNetBackend, ServeError, ShardedStore, StoreDelta,
};
use memcom_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 120;
const DIM: usize = 16;
const INPUT_LEN: usize = 4;
const N_SHARDS: usize = 3;
const STEPS: usize = 8;
/// Steps before this one upsert rows a retrained model would produce
/// (the id's current row rescaled — what MEmCom's scalars can express),
/// so the bound they are held to stays a quantization bound; from here
/// on rows are arbitrary and MEmCom's bound honestly absorbs the
/// projection residual.
const FIRST_ARBITRARY_STEP: usize = 6;
const GROWING_STEP: usize = 3;

/// Every spec `quantized.rs` sweeps.
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

fn takes_deltas(spec: &MethodSpec) -> bool {
    matches!(
        spec,
        MethodSpec::Uncompressed | MethodSpec::ReduceDim { .. } | MethodSpec::MemCom { .. }
    )
}

/// Queues an upsert and patches the reference with it.
fn upsert(delta: &mut StoreDelta, rows: &mut Vec<Vec<f32>>, id: usize, row: Vec<f32>) {
    delta.upsert_row(id, &row).unwrap();
    if id >= rows.len() {
        rows.resize(id + 1, vec![0.0; row.len()]); // gap ids serve zeros
    }
    rows[id] = row;
}

/// Step `step` of the chain: patches `rows` and returns the delta that
/// asks a store for the same change.
fn chain_step(rng: &mut StdRng, step: usize, rows: &mut Vec<Vec<f32>>) -> StoreDelta {
    let dim = rows[0].len();
    let mut delta = StoreDelta::new(dim);
    for _ in 0..6 {
        let id = rng.gen_range(0..rows.len());
        if rng.gen_range(0..3) == 0 {
            delta.remove_row(id).unwrap();
            rows[id] = vec![0.0; dim];
        } else if step < FIRST_ARBITRARY_STEP {
            let scale = rng.gen_range(0.5f32..1.5);
            let row = rows[id].iter().map(|x| x * scale).collect();
            upsert(&mut delta, rows, id, row);
        } else {
            let row = (0..dim).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
            upsert(&mut delta, rows, id, row);
        }
    }
    if step == GROWING_STEP {
        // Past the end, leaving a gap; a rescaled copy of the row one
        // vocabulary below it (the same row of any table hashed by a
        // divisor of `VOCAB`).
        let id = rows.len() + 5;
        let row = rows[id - VOCAB].iter().map(|x| x * 0.75).collect();
        upsert(&mut delta, rows, id, row);
    }
    delta
}

/// An exact store over `rows`: what the head is scored over for the
/// reference side of the score bound.
fn exact_store(rows: &[Vec<f32>]) -> ShardedStore {
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let mut rng = StdRng::seed_from_u64(0);
    let mut emb = FullEmbedding::new(rows.len(), rows[0].len(), &mut rng).unwrap();
    emb.set_table(Tensor::from_vec(flat, &[rows.len(), rows[0].len()]).unwrap())
        .unwrap();
    ShardedStore::build(&emb, N_SHARDS, 0, 256).unwrap()
}

fn scores(backend: &RankNetBackend, store: &ShardedStore, ids: &[usize]) -> Vec<f32> {
    let mut out = vec![0f32; backend.out_len(ids.len(), store)];
    backend
        .score_into(store, ids, &mut InferScratch::new(), &mut out)
        .unwrap();
    out
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_spec_and_dtype_stays_certified_over_a_delta_chain() {
    for spec in all_specs() {
        let config = ModelConfig {
            seed: 17,
            ..ModelConfig::pointwise(VOCAB, DIM, INPUT_LEN, 1)
        };
        let model = RecModel::new(&config, &spec).unwrap();
        let emb: &dyn EmbeddingCompressor = model.embedding();
        let scorer = matches!(spec, MethodSpec::MemCom { .. })
            .then(|| RankNetBackend::from_model(&model).unwrap());
        let all: Vec<usize> = (0..VOCAB).collect();
        let built: Vec<Vec<f32>> = emb
            .lookup(&all)
            .unwrap()
            .as_slice()
            .chunks(emb.output_dim())
            .map(<[f32]>::to_vec)
            .collect();

        for dtype in [Dtype::F32, Dtype::F16, Dtype::Int8, Dtype::Int4] {
            let case = format!("{spec:?} {dtype:?}");
            let mut store = ShardedStore::build_quantized(emb, N_SHARDS, 8, 256, dtype).unwrap();
            let mut rows = built.clone();
            let mut rng = StdRng::seed_from_u64(23);
            for step in 0..STEPS {
                let mut patched = rows.clone();
                let delta = chain_step(&mut rng, step, &mut patched);
                if !takes_deltas(&spec) {
                    let before: Vec<Vec<u32>> =
                        (0..VOCAB).map(|id| bits(&store.get(id).unwrap())).collect();
                    match store.apply_delta(&delta) {
                        Err(ServeError::BadConfig { context }) => {
                            assert!(context.contains("no per-entity table"), "{case}: {context}")
                        }
                        other => panic!("{case} step {step}: an id owns no row, got {other:?}"),
                    }
                    assert_eq!(store.cow_copied_bytes(), 0, "{case} step {step}");
                    for (id, want) in before.iter().enumerate() {
                        assert_eq!(&bits(&store.get(id).unwrap()), want, "{case} id {id}");
                    }
                    continue;
                }
                store = store.apply_delta(&delta).unwrap();
                rows = patched;
                assert_eq!(store.vocab(), rows.len(), "{case} step {step}");
                let bound = store.error_bound() + 1e-6;
                if step < FIRST_ARBITRARY_STEP {
                    // Not vacuous: still a quantization-sized bound.
                    let worst = if dtype == Dtype::F32 { 1e-5 } else { 0.02 };
                    assert!(bound < worst, "{case} step {step}: bound {bound}");
                }
                for (id, want) in rows.iter().enumerate() {
                    for (got, want) in store.get(id).unwrap().iter().zip(want) {
                        assert!(
                            (got - want).abs() <= bound,
                            "{case} step {step} id {id}: {got} vs {want} (bound {bound})"
                        );
                    }
                }
                let Some(backend) = &scorer else { continue };
                let exact = exact_store(&rows);
                // The tolerance `infer.rs` grants the bound's own rounding.
                let tolerance = backend.score_error_bound(&store) * 1.01 + 1e-5;
                for start in (0..rows.len() - INPUT_LEN).step_by(7) {
                    let ids: Vec<usize> = (start..start + INPUT_LEN).collect();
                    let (got, want) =
                        (scores(backend, &store, &ids), scores(backend, &exact, &ids));
                    for (got, want) in got.iter().zip(&want) {
                        assert!(
                            (got - want).abs() <= tolerance,
                            "{case} step {step} ids {ids:?}: {got} vs {want} (±{tolerance})"
                        );
                    }
                }
            }
        }
    }
}
