//! Table 3: on-device inference time and memory footprint.
//!
//! Compares MEmCom (no bias) with Weinberger's one-hot feature hashing on
//! the simulated compute units — CoreML `all` / `cpuOnly` / `cpuAndGPU`
//! and TF-Lite CPU — across all seven datasets, batch size 1, FP32, with
//! the paper's fixed hash size of 10K (clamped for scaled vocabularies).
//! After the paper's rows come the hashing baselines Table 3 leaves out —
//! double hashing and both quotient–remainder variants at the same hash
//! size — which deploy through the same recipe executor.
//!
//! Paper expectation: "MEmCom outperforms Weinberger's hashing trick for
//! all computes on both smartphones … the memory footprint for MEmCom is
//! very small compared to the Weinberger's hashing method", with TF-Lite's
//! one-hot path the slowest by an order of magnitude (~31 ms).

use memcom_bench::harness::{banner, scaled_spec, HarnessArgs, ResultWriter};
use memcom_core::{
    DoubleHashEmbedding, EmbeddingCompressor, MemCom, MemComConfig, OneHotHashEncoder, QrCombiner,
    QuotientRemainder,
};
use memcom_data::DatasetSpec;
use memcom_nn::{AveragePool1d, BatchNorm1d, Dense, Relu, Sequential};
use memcom_ondevice::format::OnDeviceModel;
use memcom_ondevice::{ComputeUnit, Dtype, InferenceSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn head(e: usize, classes: usize, rng: &mut StdRng) -> Sequential {
    let mut h = Sequential::new();
    h.push(AveragePool1d::new());
    h.push(Relu::new());
    h.push(BatchNorm1d::new(e));
    h.push(Dense::new(e, classes, rng));
    h
}

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Table 3 — on-device inference time (ms) and memory footprint (MB)",
        "§5.3, Table 3 (iPhone 12 Pro / CoreML, Pixel 2 / TF-Lite; batch 1, FP32, hash 10K)",
        "memcom beats weinberger on every compute unit; the gap explodes on tflite_cpu (~30ms one-hot)",
    );
    let runs = if args.quick { 3 } else { 25 };
    let e = if args.quick { 16 } else { 64 };
    let mut writer = ResultWriter::new("table3_ondevice");
    let mut header = vec!["dataset".to_string(), "method".to_string()];
    for unit in ComputeUnit::all() {
        header.push(format!("time_ms:{}", unit.label()));
    }
    for unit in ComputeUnit::all() {
        header.push(format!("mem_mb:{}", unit.label()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    writer.header(&header_refs);
    // Rows of the techniques the paper's table does not have, written
    // after all of its rows.
    let mut appended: Vec<Vec<String>> = Vec::new();

    for base in DatasetSpec::all() {
        let spec = scaled_spec(&base, &args);
        let vocab = spec.input_vocab();
        let m = 10_000.min(vocab / 2).max(1);
        let classes = spec.output_vocab;
        let mut rng = StdRng::seed_from_u64(args.seed);
        // Table 3 measures runtime, not accuracy, so freshly initialized
        // weights are equivalent to trained ones.
        let memcom =
            MemCom::new(MemComConfig::new(vocab, e, m), &mut rng).expect("valid memcom config");
        let onehot = OneHotHashEncoder::new(vocab, e, m, &mut rng).expect("valid one-hot config");
        let h = head(e, classes, &mut rng);
        let double_hash =
            DoubleHashEmbedding::new(vocab, e, m, &mut rng).expect("valid double-hash config");
        let [qr_mult, qr_concat] = [QrCombiner::Multiply, QrCombiner::Concat].map(|combiner| {
            QuotientRemainder::new(vocab, e, m, combiner, &mut rng).expect("valid qr config")
        });

        let mut ids_rng = StdRng::seed_from_u64(args.seed ^ 1);
        let queries: Vec<Vec<usize>> = (0..runs)
            .map(|_| {
                (0..spec.input_len)
                    .map(|_| ids_rng.gen_range(0..vocab))
                    .collect()
            })
            .collect();

        let methods: [(&str, &dyn EmbeddingCompressor); 5] = [
            ("memcom", &memcom),
            ("weinberger", &onehot),
            ("double_hash", &double_hash),
            ("qr_mult", &qr_mult),
            ("qr_concat", &qr_concat),
        ];
        for (label, emb) in methods {
            let bytes = OnDeviceModel::serialize(emb, &h, spec.input_len, Dtype::F32)
                .expect("every technique serializes");
            let session = InferenceSession::new(OnDeviceModel::parse(bytes).expect("own bytes"));
            // Average over runs from a cold start, like the paper's
            // 1000-run averages (initialization excluded).
            let mut time_sums = [0f64; 4];
            let mut mem_maxes = [0f64; 4];
            for ids in &queries {
                let (_, stats) = session.run(ids).expect("inference succeeds");
                for (i, unit) in ComputeUnit::all().into_iter().enumerate() {
                    time_sums[i] += stats.time_ms(unit);
                    mem_maxes[i] = mem_maxes[i].max(stats.footprint_mb(unit));
                }
            }
            let mut row = vec![spec.name.to_string(), label.to_string()];
            for t in time_sums {
                row.push(format!("{:.3}", t / runs as f64));
            }
            for m in mem_maxes {
                row.push(format!("{m:.2}"));
            }
            if matches!(label, "memcom" | "weinberger") {
                let row_refs: Vec<&str> = row.iter().map(String::as_str).collect();
                writer.row(&row_refs);
            } else {
                appended.push(row);
            }
        }
    }
    for row in &appended {
        let row_refs: Vec<&str> = row.iter().map(String::as_str).collect();
        writer.row(&row_refs);
    }
    writer.flush().expect("results directory must be writable");
    println!("\nwrote results/table3_ondevice.tsv");
}
