//! A technique is its tables and its recipe, and that description is
//! general: everything `memcom-core` can describe serializes, runs
//! on-device and serves — including a technique this repository has never
//! heard of, defined here with no edit outside this file.

use memcom::core::hashing::RowMap;
use memcom::core::recipe::{Combine, Recipe};
use memcom::core::{CompressorState, EmbeddingCompressor, MethodSpec, ParamTable, QrCombiner};
use memcom::data::DatasetSpec;
use memcom::models::trainer::{train, TrainConfig};
use memcom::models::{ModelConfig, ModelKind, RecModel};
use memcom::nn::{AveragePool1d, Dense, Layer, Mode, Sequential, Sgd};
use memcom::ondevice::format::OnDeviceModel;
use memcom::ondevice::{Dtype, InferenceSession};
use memcom::serve::{Router, ServeConfig};
use memcom::tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn all_eleven_method_specs_serialize_and_run_on_device() {
    let mut spec = DatasetSpec::movielens().scaled(1_000_000);
    spec.train_samples = 200;
    spec.eval_samples = 40;
    spec.input_len = 16;
    let data = spec.generate(11);
    let m = spec.input_vocab() / 8;
    let methods = [
        MethodSpec::Uncompressed,
        MethodSpec::MemCom {
            hash_size: m,
            bias: true,
        },
        MethodSpec::MemCom {
            hash_size: m,
            bias: false,
        },
        MethodSpec::NaiveHash { hash_size: m },
        MethodSpec::DoubleHash { hash_size: m },
        MethodSpec::QuotientRemainder {
            hash_size: m,
            combiner: QrCombiner::Multiply,
        },
        MethodSpec::QuotientRemainder {
            hash_size: m,
            combiner: QrCombiner::Concat,
        },
        MethodSpec::Factorized { hidden: 4 },
        MethodSpec::ReduceDim { dim: 8 },
        MethodSpec::TruncateRare { keep: m },
        MethodSpec::WeinbergerOneHot { hash_size: m },
    ];
    for method in &methods {
        let label = method.label();
        let config = ModelConfig {
            kind: ModelKind::PointwiseRanker,
            vocab: spec.input_vocab(),
            embedding_dim: 16,
            input_len: spec.input_len,
            n_classes: spec.output_vocab,
            dropout: 0.05,
            seed: 5,
        };
        let mut model = RecModel::new(&config, method).expect("model builds");
        let one_epoch = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        train(&mut model, &data.train, &data.eval, &one_epoch).expect("training succeeds");

        let session_at = |model: &RecModel, dtype: Dtype| {
            let bytes =
                OnDeviceModel::serialize(model.embedding(), model.head(), spec.input_len, dtype)
                    .unwrap_or_else(|e| panic!("{label} serializes at {dtype:?}: {e}"));
            let parsed = OnDeviceModel::parse(bytes)
                .unwrap_or_else(|e| panic!("{label} parses at {dtype:?}: {e}"));
            assert_eq!(
                &parsed.recipe,
                model.embedding().state().recipe(),
                "{label}"
            );
            InferenceSession::new(parsed)
        };
        let sessions = [Dtype::F32, Dtype::F16, Dtype::Int8].map(|d| session_at(&model, d));
        for ex in data.eval.iter().take(10) {
            let server = model.infer(&ex.input_ids, 1).expect("server inference");
            let [exact, half, int8] = sessions
                .each_ref()
                .map(|s| s.run(&ex.input_ids).expect("device inference").0);
            // Bit for bit: the engine runs the recipe the training stack
            // ran, over the same f32 table values, in the same float-op
            // order.
            assert_eq!(
                bits(&exact),
                bits(server.as_slice()),
                "{label}: device vs server"
            );
            // Quantized files run the same recipe over rounded tables.
            for (dtype, logits) in [("f16", half), ("int8", int8)] {
                let err = max_abs_diff(&logits, &exact);
                assert!(err < 0.05, "{label} at {dtype}: drifted {err} from f32");
            }
        }
    }
}

/// A compositional-code embedding (the shape of *Efficient On-Device
/// Session-Based Recommendation*'s codebooks): three `m × e/3` tables,
/// three independent seeded hashes, concatenation. All of it is the
/// tables and the recipe — no backward of its own.
struct TripleHash {
    state: CompressorState,
}

impl TripleHash {
    fn new(vocab: usize, dim: usize, m: usize, rng: &mut StdRng) -> Self {
        let seeds = [0xC0DE_0001u64, 0xC0DE_0002, 0xC0DE_0003];
        let tables = ["code_a", "code_b", "code_c"]
            .map(|name| ParamTable::sparse(name, init::embedding_uniform(&[m, dim / 3], rng)));
        let maps = seeds.map(|seed| RowMap::Seeded { m, seed });
        let recipe = Recipe::new(maps, Combine::Concat);
        TripleHash {
            state: CompressorState::new(vocab, dim, tables.into(), recipe),
        }
    }
}

impl EmbeddingCompressor for TripleHash {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        "triple_hash"
    }
}

#[test]
fn a_technique_defined_outside_core_deploys_everywhere() {
    let (vocab, dim, m, len) = (500usize, 12usize, 40usize, 8usize);
    let mut rng = StdRng::seed_from_u64(21);
    let mut emb = TripleHash::new(vocab, dim, m, &mut rng);
    assert_eq!(emb.param_count(), 3 * m * (dim / 3));

    // Trains with no backward of its own: under an all-ones gradient one
    // SGD step moves every row of every table by exactly −0.1 × the
    // number of batch ids that read it (and no other row at all).
    let ids: Vec<usize> = (0..len).map(|i| (i * 61 + 7) % vocab).collect();
    let before: Vec<Tensor> = emb.tables().iter().map(|t| t.tensor.clone()).collect();
    emb.forward(&ids).unwrap();
    emb.backward(&Tensor::ones(&[len, dim])).unwrap();
    emb.apply_gradients(&mut Sgd::new(0.1)).unwrap();
    let maps = &emb.state().recipe().maps;
    for (k, (before, after)) in before.iter().zip(emb.tables()).enumerate() {
        for r in 0..m {
            let reads = ids.iter().filter(|&&id| maps[k].row(id) == r).count();
            let want: Vec<f32> = (before.row(r).unwrap().iter())
                .map(|&x| x - 0.1 * reads as f32)
                .collect();
            assert_eq!(
                bits(after.tensor.row(r).unwrap()),
                bits(&want),
                "table {k} row {r}, read {reads} times"
            );
        }
    }
    let after = emb.lookup(&ids).unwrap();

    // Serializes and runs on-device: pool → dense over its own rows.
    let mut head = Sequential::new();
    head.push(AveragePool1d::new());
    head.push(Dense::new(dim, 5, &mut rng));
    let bytes = OnDeviceModel::serialize(&emb, &head, len, Dtype::F32).expect("serializes");
    let parsed = OnDeviceModel::parse(bytes).expect("parses");
    assert_eq!(&parsed.recipe, emb.state().recipe());
    let (device, _) = InferenceSession::new(parsed).run(&ids).expect("runs");
    let seq = after.reshape(&[1, len, dim]).unwrap();
    let server = head.forward(&seq, Mode::Eval).unwrap();
    assert_eq!(
        bits(&device),
        bits(server.as_slice()),
        "device vs training stack"
    );

    // Serves through a router: rows bit-equal to its own lookup.
    let router = Router::start(ServeConfig::with_shards(2)).expect("router starts");
    router.register("triple", &emb).expect("registers");
    let handle = router.handle("triple").expect("handle");
    let all: Vec<usize> = (0..vocab).collect();
    let want = emb.lookup(&all).unwrap();
    for (id, row) in handle.get_many(&all).unwrap().iter().enumerate() {
        assert_eq!(
            bits(row),
            bits(want.row(id).unwrap()),
            "served row {id} differs from lookup"
        );
    }
    router.shutdown();
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}
