//! Figure 3: compression vs nDCG tradeoff (pairwise RankNet on Arcade).
//!
//! Paper expectation: "MEmCom has less than 1% loss in nDCG while
//! compressing the Arcade ranking model by 32x"; the bias and no-bias
//! variants "perform exactly the same" (their curves overlap).

use memcom_bench::harness::{banner, scaled_spec, sweep_config, HarnessArgs, ResultWriter};
use memcom_core::{MethodSpec, QrCombiner};
use memcom_data::DatasetSpec;
use memcom_models::sweep::{hash_size_grid, run_pairwise_sweep};
use memcom_models::ModelKind;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Figure 3 — compression vs nDCG tradeoff (Arcade, pairwise RankNet)",
        "§5.2, Figure 3",
        "memcom <1% ndcg loss at ~32x input-embedding compression; bias and no-bias curves overlap",
    );
    let spec = scaled_spec(&DatasetSpec::arcade(), &args);
    eprintln!(
        "[fig3] arcade: vocab={} out={} train={}",
        spec.input_vocab(),
        spec.output_vocab,
        spec.train_samples
    );
    let mut specs = Vec::new();
    for m in hash_size_grid(spec.input_vocab()) {
        specs.push(MethodSpec::MemCom {
            hash_size: m,
            bias: true,
        });
        specs.push(MethodSpec::MemCom {
            hash_size: m,
            bias: false,
        });
        specs.push(MethodSpec::NaiveHash { hash_size: m });
        specs.push(MethodSpec::DoubleHash { hash_size: m });
        specs.push(MethodSpec::QuotientRemainder {
            hash_size: m,
            combiner: QrCombiner::Multiply,
        });
        specs.push(MethodSpec::TruncateRare { keep: m });
    }
    let config = sweep_config(ModelKind::PointwiseRanker, &args);
    let result =
        run_pairwise_sweep(&spec, &specs, &config, args.seed).expect("sweep must complete");
    let mut writer = ResultWriter::new("fig3_pairwise");
    writer.header(&[
        "method",
        "params",
        "compression_ratio",
        "pair_accuracy",
        "ndcg",
        "ndcg_loss_pct",
    ]);
    for point in std::iter::once(&result.baseline).chain(&result.points) {
        writer.row(&[
            &point.label,
            &point.params.to_string(),
            &format!("{:.2}", point.compression_ratio),
            &format!("{:.4}", point.accuracy),
            &format!("{:.4}", point.ndcg),
            &format!("{:.2}", point.ndcg_loss_pct),
        ]);
    }
    // Bias/no-bias overlap check (the paper's "their lines overlap").
    let overlap: Vec<(f64, f64)> = result
        .points
        .iter()
        .filter(|p| p.label.starts_with("memcom("))
        .zip(
            result
                .points
                .iter()
                .filter(|p| p.label.starts_with("memcom_nobias(")),
        )
        .map(|(a, b)| (a.ndcg_loss_pct, b.ndcg_loss_pct))
        .collect();
    for (bias_loss, nobias_loss) in overlap {
        writer.block(&format!(
            "# bias vs no-bias ndcg loss: {bias_loss:.2}% vs {nobias_loss:.2}% (paper: overlapping)"
        ));
    }
    writer.flush().expect("results directory must be writable");
    println!("\nwrote results/fig3_pairwise.tsv");
}
