//! Next-app recommendation with on-device deployment (Arcade scenario).
//!
//! ```text
//! cargo run --release --example app_recommender
//! ```
//!
//! The paper's motivating workload: predict a user's next app from their
//! purchase history + country (§5.1's shared vocabulary layout). Trains a
//! MEmCom classifier, serializes it into the flat on-device format, loads
//! it through the simulated mmap, and compares the on-device prediction
//! with the training stack's — then prints what the phone pays per query.

use memcom::core::MethodSpec;
use memcom::data::DatasetSpec;
use memcom::models::trainer::{train, TrainConfig};
use memcom::models::{ModelConfig, ModelKind, RecModel};
use memcom::ondevice::format::OnDeviceModel;
use memcom::ondevice::{ComputeUnit, Dtype, InferenceSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Arcade-shaped data: app ids n+1.., country ids 1..=n, padding 0.
    let mut spec = DatasetSpec::arcade().scaled(100);
    spec.train_samples = 2_500;
    spec.eval_samples = 600;
    let data = spec.generate(11);
    println!(
        "arcade stand-in: {} apps + {} countries (+ padding), {} output classes",
        spec.items, spec.countries, spec.output_vocab
    );

    let config = ModelConfig {
        kind: ModelKind::Classifier,
        vocab: spec.input_vocab(),
        embedding_dim: 32,
        input_len: spec.input_len,
        n_classes: spec.output_vocab,
        dropout: 0.05,
        seed: 3,
    };
    // ~20x input-embedding compression: v/32 shared rows + per-app scalar.
    let m = spec.input_vocab() / 32;
    let mut model = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: m,
            bias: true,
        },
    )?;
    let report = train(&mut model, &data.train, &data.eval, &TrainConfig::default())?;
    println!(
        "trained memcom(m={m}): accuracy {:.4}, ndcg {:.4}",
        report.eval_accuracy, report.eval_ndcg
    );

    // Ship it: serialize → parse → run through the mmap-backed engine.
    let bytes =
        OnDeviceModel::serialize(model.embedding(), model.head(), spec.input_len, Dtype::F32)?;
    let file_kb = bytes.len() / 1024;
    println!("\non-disk model: {file_kb} KB");
    let session = InferenceSession::new(OnDeviceModel::parse(bytes)?);

    let user = &data.eval[0];
    let (device_logits, stats) = session.run(&user.input_ids)?;
    let server_logits = model.infer(&user.input_ids, 1)?;
    let max_diff = device_logits
        .iter()
        .zip(server_logits.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0f32, f32::max);
    println!("device vs training-stack logits: max |Δ| = {max_diff:.2e}");

    let top = device_logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    println!(
        "recommended next app class: {top} (true label {})",
        user.label
    );

    println!("\nper-query cost on simulated devices:");
    for unit in ComputeUnit::all() {
        println!(
            "  {:<18} {:>7.3} ms   footprint {:>6.2} MB",
            unit.label(),
            stats.time_ms(unit),
            stats.footprint_mb(unit)
        );
    }
    println!(
        "\nresident model pages after one query: {} KB of {file_kb} KB file",
        stats.resident_model_bytes / 1024
    );
    Ok(())
}
