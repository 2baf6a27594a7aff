//! §A.4: sanity check that MEmCom produces unique embeddings.
//!
//! Trains a MEmCom model on the Arcade stand-in at ~40x input-embedding
//! compression and audits every pair of multipliers sharing a `U` row.
//!
//! Paper expectation: "a pair of multipliers sharing a common x_rem
//! embedding differed by greater than 0.00001 in more than 99.98% of
//! cases".

use memcom_bench::harness::{banner, scaled_spec, HarnessArgs, ResultWriter};
use memcom_core::uniqueness::audit;
use memcom_core::MethodSpec;
use memcom_data::DatasetSpec;
use memcom_models::trainer::{train, TrainConfig};
use memcom_models::{ModelConfig, ModelKind, RecModel};

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "§A.4 — uniqueness of trained MEmCom embeddings (Arcade @ ~40x)",
        "Appendix A.4",
        ">99.98% of same-bucket multiplier pairs differ by more than 1e-5",
    );
    let spec = scaled_spec(&DatasetSpec::arcade(), &args);
    let data = spec.generate(args.seed);
    let v = spec.input_vocab();
    // 40x input-embedding compression: m·e + v ≈ (v·e)/40 ⇒ m ≈ v/40 − v/e·…;
    // m = v/64 gives ≈40-50x at e=32.
    let e = if args.quick { 16 } else { 32 };
    let m = (v / 64).max(1);
    let config = ModelConfig {
        kind: ModelKind::Classifier,
        vocab: v,
        embedding_dim: e,
        input_len: spec.input_len,
        n_classes: spec.output_vocab,
        dropout: 0.05,
        seed: args.seed,
    };
    let mut model = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: m,
            bias: false,
        },
    )
    .expect("model builds");
    let input_emb_ratio = (v * e) as f64 / (m * e + v) as f64;
    println!("input-embedding compression ratio: {input_emb_ratio:.1}x (paper: 40x)");
    train(
        &mut model,
        &data.train,
        &data.eval,
        &TrainConfig {
            epochs: if args.quick { 1 } else { 4 },
            seed: args.seed,
            ..TrainConfig::default()
        },
    )
    .expect("training succeeds");

    let report = audit(model.embedding()).expect("model was built with a MemCom embedding");
    let mut writer = ResultWriter::new("a4_uniqueness");
    writer.header(&[
        "shared_pairs",
        "distinct_pairs",
        "distinct_fraction_pct",
        "threshold",
    ]);
    writer.row(&[
        &report.shared_pairs.to_string(),
        &report.distinct_pairs.to_string(),
        &format!("{:.4}", report.distinct_fraction() * 100.0),
        &format!("{:e}", report.threshold),
    ]);
    writer.block(&format!("# {report}"));
    writer.block("# paper: >99.98% of pairs distinct at the same threshold");
    writer.flush().expect("results directory must be writable");
    println!("\nwrote results/a4_uniqueness.tsv");
}
