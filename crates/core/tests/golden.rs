//! Refactor guard for `memcom-core`: seeded construction followed by three
//! Adam training steps must leave every technique with exactly the bits
//! recorded here.
//!
//! The constants were recorded at the commit before the compressors were
//! moved onto one skeleton. They pin what a refactor of this crate must
//! not move: the RNG draws at construction, the float-operation order of
//! `forward`/`backward`, the per-table optimizer call order, and the
//! table names and shapes the serializers enumerate. A change that alters
//! the numerics on purpose re-records them and says so.

use memcom_core::{EmbeddingCompressor, MethodSpec, QrCombiner};
use memcom_nn::Adam;
use memcom_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 50;
const DIM: usize = 8;
/// Training ids: repeats within a batch (3 three times, 0 twice) and ids
/// that collide under every hashed row map at `m = 10` (3, 33; 0, 10).
const IDS: [usize; 12] = [0, 3, 17, 3, 49, 12, 0, 25, 33, 3, 10, 41];

fn specs() -> Vec<MethodSpec> {
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
        MethodSpec::Factorized { hidden: 2 },
        MethodSpec::ReduceDim { dim: 4 },
        MethodSpec::TruncateRare { keep: 10 },
        MethodSpec::WeinbergerOneHot { hash_size: 10 },
    ]
}

/// One line per [`specs`] entry, in order: label, `method_name`,
/// `param_count`, `tables()` names and shapes, FNV-1a over the bits of
/// `lookup(0..VOCAB)` after training.
const GOLDEN: [&str; 11] = [
    "uncompressed uncompressed params=400 tables=embedding:[50, 8] fnv=470174e4e0632aa7",
    "memcom(m=10) memcom params=180 tables=shared:[10, 8],multiplier:[50, 1],bias:[50, 1] fnv=2992f2ebbc84c5c3",
    "memcom_nobias(m=10) memcom_nobias params=130 tables=shared:[10, 8],multiplier:[50, 1] fnv=003d50763e6cda94",
    "naive_hash(m=10) naive_hash params=80 tables=hashed:[10, 8] fnv=9eb2f3cdba551e20",
    "double_hash(m=10) double_hash params=80 tables=hashed_a:[10, 4],hashed_b:[10, 4] fnv=0a00ca472d59ee4f",
    "qr_mult(m=10) qr_mult params=120 tables=remainder:[10, 8],quotient:[5, 8] fnv=15bea1f2dc72bbf1",
    "qr_concat(m=10) qr_concat params=60 tables=remainder:[10, 4],quotient:[5, 4] fnv=083a9cbe285565a8",
    "factorized(h=2) factorized params=116 tables=codes:[50, 2],projection:[2, 8] fnv=51c7ab001c62a5e8",
    "reduce_dim(e=4) reduce_dim params=200 tables=embedding:[50, 4] fnv=5f82ac83edb5f2ca",
    "truncate_rare(k=10) truncate_rare params=88 tables=kept:[11, 8] fnv=6ebbb5096de28072",
    "weinberger(m=10) weinberger_onehot params=80 tables=kernel:[10, 8] fnv=a9e704f315f75e42",
];

/// A fixed, exactly representable `[n, cols]` gradient with mixed signs.
fn gradient(n: usize, cols: usize) -> Tensor {
    let data = (0..n * cols)
        .map(|i| ((i * 7 + i / cols * 3) % 11) as f32 * 0.125 - 0.5)
        .collect();
    Tensor::from_vec(data, &[n, cols]).unwrap()
}

fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seeded build, then three forward → backward → Adam steps.
fn trained(spec: &MethodSpec) -> Box<dyn EmbeddingCompressor> {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut emb = spec.build(VOCAB, DIM, &mut rng).unwrap();
    let mut opt = Adam::new(0.05);
    let grad = gradient(IDS.len(), emb.output_dim());
    for _ in 0..3 {
        let out = emb.forward(&IDS).unwrap();
        assert_eq!(out.shape().dims(), &[IDS.len(), emb.output_dim()]);
        emb.backward(&grad).unwrap();
        emb.apply_gradients(&mut opt).unwrap();
    }
    emb
}

fn fingerprint(spec: &MethodSpec, emb: &dyn EmbeddingCompressor) -> String {
    let all: Vec<usize> = (0..VOCAB).collect();
    let rows = emb.lookup(&all).unwrap();
    let tables: Vec<String> = emb
        .tables()
        .iter()
        .map(|t| format!("{}:{}", t.name, t.tensor.shape()))
        .collect();
    format!(
        "{} {} params={} tables={} fnv={:016x}",
        spec.label(),
        emb.method_name(),
        emb.param_count(),
        tables.join(","),
        fnv1a(rows.as_slice())
    )
}

#[test]
fn seeded_training_reproduces_recorded_bits() {
    let actual: Vec<String> = specs()
        .iter()
        .map(|spec| fingerprint(spec, trained(spec).as_ref()))
        .collect();
    assert_eq!(actual, GOLDEN, "actual fingerprints:\n{actual:#?}");
}

#[test]
fn embed_into_equals_lookup_bitwise_for_every_id() {
    for spec in specs() {
        let emb = trained(&spec);
        let mut row = vec![0f32; emb.output_dim()];
        for id in 0..VOCAB {
            // Poison the buffer: `embed_into` must overwrite, not add.
            row.fill(f32::NAN);
            emb.embed_into(id, &mut row).unwrap();
            let looked_up = emb.lookup(&[id]).unwrap();
            let (a, b): (Vec<u32>, Vec<u32>) = row
                .iter()
                .zip(looked_up.as_slice())
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
                .unzip();
            assert_eq!(a, b, "{} id {id}", spec.label());
        }
        assert!(emb.embed_into(VOCAB, &mut row).is_err());
        assert!(emb.lookup(&[VOCAB]).is_err());
    }
}
