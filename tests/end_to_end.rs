//! Cross-crate integration tests: the full train → compress → evaluate →
//! deploy pipeline, exercising every subsystem together.

use memcom::core::MethodSpec;
use memcom::data::DatasetSpec;
use memcom::models::trainer::{train, TrainConfig};
use memcom::models::{ModelConfig, ModelKind, RecModel};
use memcom::ondevice::format::OnDeviceModel;
use memcom::ondevice::{ComputeUnit, Dtype, InferenceSession};

fn tiny_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::movielens().scaled(1_000_000);
    spec.train_samples = 600;
    spec.eval_samples = 200;
    spec.input_len = 16;
    spec
}

fn model_config(spec: &DatasetSpec, kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        vocab: spec.input_vocab(),
        embedding_dim: 16,
        input_len: spec.input_len,
        n_classes: spec.output_vocab,
        dropout: 0.05,
        seed: 5,
    }
}

#[test]
fn memcom_beats_naive_hashing_at_matched_hash_size() {
    // The paper's central claim, end to end: at the same shared-table
    // size, MEmCom's per-entity multipliers recover accuracy that naive
    // hashing loses to collisions.
    let spec = tiny_spec();
    let data = spec.generate(77);
    let m = spec.input_vocab() / 16; // aggressive compression
    let train_config = TrainConfig {
        epochs: 8,
        batch_size: 32,
        ..TrainConfig::default()
    };

    let run = |method: &MethodSpec, seed: u64| {
        let config = ModelConfig {
            seed,
            ..model_config(&spec, ModelKind::Classifier)
        };
        let mut model = RecModel::new(&config, method).expect("model builds");
        let cfg = TrainConfig {
            seed,
            ..train_config.clone()
        };
        train(&mut model, &data.train, &data.eval, &cfg)
            .expect("training succeeds")
            .eval_ndcg
    };

    // Average two seeds to damp training noise.
    let memcom: f64 = [1u64, 2]
        .iter()
        .map(|&s| {
            run(
                &MethodSpec::MemCom {
                    hash_size: m,
                    bias: false,
                },
                s,
            )
        })
        .sum::<f64>()
        / 2.0;
    let naive: f64 = [1u64, 2]
        .iter()
        .map(|&s| run(&MethodSpec::NaiveHash { hash_size: m }, s))
        .sum::<f64>()
        / 2.0;
    assert!(
        memcom > naive - 0.01,
        "memcom ndcg {memcom:.4} should not lose to naive hashing {naive:.4}"
    );
}

#[test]
fn matched_budget_ordering_against_double_hash_and_qr_is_pinned() {
    // The comparison Figures 1-2 make against the stronger hashing
    // baselines, at toy scale: every technique gets (at most) MEmCom's
    // embedding parameters, `m*e + v`. (`m = v/4`: below that no
    // quotient-remainder split of this vocabulary fits the budget.)
    //
    // What the seeded run shows is pinned, not what the paper reports:
    // with ~65 ids and a budget that buys double hashing 20 rows per
    // table, the baselines barely collide (v/m ~ 3, the paper compares
    // at v/m >= 16) while MEmCom spends a fifth of its budget on
    // multipliers, and it trails both. The assertions keep a refactor of
    // core/nn/tensor from moving these numbers silently; CHANGES.md
    // (PR 16) records them.
    let spec = tiny_spec();
    let data = spec.generate(77);
    let (vocab, e) = (spec.input_vocab(), 16);
    let memcom_m = vocab / 4;
    let budget = memcom_m * e + vocab;
    let qr_params = |m: usize| (m + vocab.div_ceil(m)) * e;
    let qr_m = (1..=vocab)
        .filter(|&m| qr_params(m) <= budget)
        .max_by_key(|&m| qr_params(m))
        .expect("some remainder size fits the budget");
    let methods = [
        MethodSpec::MemCom {
            hash_size: memcom_m,
            bias: false,
        },
        MethodSpec::DoubleHash {
            hash_size: budget / e,
        },
        MethodSpec::QuotientRemainder {
            hash_size: qr_m,
            combiner: memcom::core::QrCombiner::Multiply,
        },
    ];
    // Average two seeds to damp training noise.
    let ndcg = methods.each_ref().map(|method| {
        let runs = [1u64, 2].map(|seed| {
            let config = ModelConfig {
                seed,
                ..model_config(&spec, ModelKind::Classifier)
            };
            let mut model = RecModel::new(&config, method).expect("model builds");
            let params = model.embedding().param_count();
            assert!(params <= budget, "{} has {params} params", method.label());
            let cfg = TrainConfig {
                epochs: 8,
                batch_size: 32,
                seed,
                ..TrainConfig::default()
            };
            train(&mut model, &data.train, &data.eval, &cfg)
                .expect("training succeeds")
                .eval_ndcg
        });
        runs.iter().sum::<f64>() / 2.0
    });
    let [memcom, double_hash, qr_mult] = ndcg;
    println!(
        "budget {budget}: memcom {memcom:.4} double_hash {double_hash:.4} qr_mult {qr_mult:.4}"
    );
    assert!(
        double_hash > qr_mult - 0.01,
        "double hashing ndcg {double_hash:.4} fell behind quotient-remainder {qr_mult:.4}"
    );
    assert!(
        qr_mult > memcom - 0.01,
        "quotient-remainder ndcg {qr_mult:.4} fell behind memcom {memcom:.4}"
    );
    assert!(
        memcom > 0.4,
        "memcom ndcg {memcom:.4} collapsed (seeded run: 0.486)"
    );
}

#[test]
fn serialized_model_matches_training_stack_everywhere() {
    // Train briefly, serialize, and check on-device logits equal the
    // training stack's, bit for bit, across a batch of eval users.
    let spec = tiny_spec();
    let data = spec.generate(3);
    let config = model_config(&spec, ModelKind::PointwiseRanker);
    let mut model = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: spec.input_vocab() / 8,
            bias: true,
        },
    )
    .expect("model builds");
    train(
        &mut model,
        &data.train,
        &data.eval,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    )
    .expect("training succeeds");

    let bytes =
        OnDeviceModel::serialize(model.embedding(), model.head(), spec.input_len, Dtype::F32)
            .expect("serializes");
    let session = InferenceSession::new(OnDeviceModel::parse(bytes).expect("parses"));
    for ex in data.eval.iter().take(20) {
        let (device, _) = session.run(&ex.input_ids).expect("device inference");
        let server = model.infer(&ex.input_ids, 1).expect("server inference");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&device), bits(server.as_slice()), "device vs server");
    }
}

#[test]
fn quantization_degrades_gracefully_not_catastrophically_at_8_bits() {
    // Figure 4's shape at integration scale: int8 logits stay close to
    // fp32 logits; int2 visibly drifts.
    let spec = tiny_spec();
    let data = spec.generate(4);
    let config = model_config(&spec, ModelKind::Classifier);
    let mut model = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: spec.input_vocab() / 8,
            bias: false,
        },
    )
    .expect("model builds");
    train(
        &mut model,
        &data.train,
        &data.eval,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    )
    .expect("training succeeds");

    let logits_at = |dtype: Dtype| {
        let bytes =
            OnDeviceModel::serialize(model.embedding(), model.head(), spec.input_len, dtype)
                .expect("serializes");
        let session = InferenceSession::new(OnDeviceModel::parse(bytes).expect("parses"));
        let (logits, _) = session.run(&data.eval[0].input_ids).expect("runs");
        logits
    };
    let f32_logits = logits_at(Dtype::F32);
    let int8_logits = logits_at(Dtype::Int8);
    let int2_logits = logits_at(Dtype::Int2);
    let err = |a: &[f32], b: &[f32]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0f32, f32::max)
    };
    let e8 = err(&f32_logits, &int8_logits);
    let e2 = err(&f32_logits, &int2_logits);
    assert!(e8 < e2, "int8 error {e8} should be below int2 error {e2}");
}

#[test]
fn memcom_model_files_are_smaller_on_disk() {
    // The on-disk compression the paper ships: MEmCom's file beats the
    // uncompressed file by roughly the embedding compression ratio.
    let spec = tiny_spec();
    let config = model_config(&spec, ModelKind::PointwiseRanker);
    let full = RecModel::new(&config, &MethodSpec::Uncompressed).expect("builds");
    let compressed = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: spec.input_vocab() / 16,
            bias: false,
        },
    )
    .expect("builds");
    let size = |m: &RecModel| {
        OnDeviceModel::serialize(m.embedding(), m.head(), spec.input_len, Dtype::F32)
            .expect("serializes")
            .len()
    };
    let full_size = size(&full);
    let memcom_size = size(&compressed);
    assert!(
        (memcom_size as f64) < full_size as f64 / 2.0,
        "memcom file {memcom_size} should be well under half of {full_size}"
    );
}

/// Runtime-only model at Table-3-like scale (no training needed): big
/// enough that the file spans hundreds of mmap pages.
fn runtime_scale_stats(method: &MethodSpec) -> memcom::ondevice::RunStats {
    // Table-3-like geometry: 512-byte embedding rows over a multi-MB
    // table, so a 64-id query can only warm a sliver of the pages.
    let (vocab, e, input_len) = (50_000usize, 128usize, 64usize);
    let config = ModelConfig {
        kind: ModelKind::PointwiseRanker,
        vocab,
        embedding_dim: e,
        input_len,
        n_classes: 50,
        dropout: 0.0,
        seed: 9,
    };
    let model = RecModel::new(&config, method).expect("builds");
    let bytes = OnDeviceModel::serialize(model.embedding(), model.head(), input_len, Dtype::F32)
        .expect("serializes");
    let session = InferenceSession::new(OnDeviceModel::parse(bytes).expect("parses"));
    let ids: Vec<usize> = (0..input_len).map(|i| (i * 37) % vocab).collect();
    let (_, stats) = session.run(&ids).expect("runs");
    stats
}

#[test]
fn lookup_engine_touches_fraction_of_file_onehot_touches_all() {
    // §5.3's mmap story as an invariant: after one query, the MEmCom
    // session leaves most embedding pages cold; the one-hot session has
    // effectively the whole kernel resident.
    let m = 10_000;
    let memcom = runtime_scale_stats(&MethodSpec::MemCom {
        hash_size: m,
        bias: false,
    });
    let onehot = runtime_scale_stats(&MethodSpec::WeinbergerOneHot { hash_size: m });
    // One-hot faults in its whole 10000×128×4 ≈ 5 MB kernel; MEmCom
    // touches ≤ 64 shared rows (+ scattered multiplier pages).
    assert!(
        onehot.resident_model_bytes as f64 > 0.9 * (m * 128 * 4) as f64,
        "one-hot kernel should be fully resident, got {}",
        onehot.resident_model_bytes
    );
    assert!(
        memcom.resident_model_bytes < onehot.resident_model_bytes,
        "memcom resident {} must be below one-hot {}",
        memcom.resident_model_bytes,
        onehot.resident_model_bytes
    );
}

#[test]
fn table3_orderings_hold_on_all_units() {
    // MEmCom beats Weinberger on simulated time and footprint everywhere.
    let m = 10_000;
    let memcom = runtime_scale_stats(&MethodSpec::MemCom {
        hash_size: m,
        bias: false,
    });
    let onehot = runtime_scale_stats(&MethodSpec::WeinbergerOneHot { hash_size: m });
    for unit in ComputeUnit::all() {
        assert!(
            memcom.time_ms(unit) < onehot.time_ms(unit),
            "{unit:?}: memcom {} ms vs weinberger {} ms",
            memcom.time_ms(unit),
            onehot.time_ms(unit)
        );
        assert!(
            memcom.footprint_mb(unit) <= onehot.footprint_mb(unit),
            "{unit:?}: footprints"
        );
    }
}

#[test]
fn uniqueness_audit_passes_on_trained_integration_model() {
    // §A.4 at integration scale.
    let spec = tiny_spec();
    let data = spec.generate(6);
    let config = model_config(&spec, ModelKind::Classifier);
    let mut model = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: spec.input_vocab() / 16,
            bias: false,
        },
    )
    .expect("model builds");
    train(
        &mut model,
        &data.train,
        &data.eval,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    )
    .expect("training succeeds");
    let report = memcom::core::uniqueness::audit(model.embedding()).expect("memcom embedding");
    assert!(
        report.distinct_fraction() > 0.99,
        "trained multipliers should be distinct: {report}"
    );
}
