//! Compression-vs-quality sweeps (the engine behind Figures 1–3).
//!
//! A sweep trains the uncompressed baseline, then every [`MethodSpec`]
//! grid point in parallel across worker threads, and averages each
//! point over its replicate runs. It reports each point as
//! `(compression ratio, % quality loss)` — exactly the axes of the
//! paper's figures. Ratios are whole-model, "for
//! consistency across the datasets, we measure the number of parameters of
//! all the layers and not just the embedding layers".

use memcom_core::{budget::compression_ratio, MethodSpec, QrCombiner};
use memcom_data::{DatasetSpec, GeneratedData};
use memcom_metrics::relative_loss_pct;

use crate::network::{ModelConfig, ModelKind, RecModel};
use crate::ranknet::RankNet;
use crate::trainer::{train, TrainConfig};
use crate::{ModelError, Result};

/// One trained grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Technique label (figure legend).
    pub label: String,
    /// Total model parameters.
    pub params: usize,
    /// Whole-model compression ratio vs the uncompressed baseline.
    pub compression_ratio: f64,
    /// Eval accuracy (classification) of this point.
    pub accuracy: f64,
    /// Eval nDCG of this point.
    pub ndcg: f64,
    /// % accuracy loss vs baseline (Figure 1 y-axis).
    pub accuracy_loss_pct: f64,
    /// % nDCG loss vs baseline (Figures 2–3 y-axis).
    pub ndcg_loss_pct: f64,
}

/// A full sweep: baseline plus all compressed points.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Dataset name.
    pub dataset: &'static str,
    /// The uncompressed reference point.
    pub baseline: SweepPoint,
    /// All compressed grid points, in input order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Renders the sweep as an aligned text table (experiment binaries
    /// print this directly).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>8} {:>9} {:>9} {:>10} {:>10}\n",
            "method", "params", "ratio", "acc", "ndcg", "acc_loss%", "ndcg_loss%"
        ));
        let row = |p: &SweepPoint| {
            format!(
                "{:<28} {:>12} {:>8.2} {:>9.4} {:>9.4} {:>10.2} {:>10.2}\n",
                p.label,
                p.params,
                p.compression_ratio,
                p.accuracy,
                p.ndcg,
                p.accuracy_loss_pct,
                p.ndcg_loss_pct
            )
        };
        out.push_str(&row(&self.baseline));
        for p in &self.points {
            out.push_str(&row(p));
        }
        out
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Network variant (classifier for Figure 1, pointwise for Figure 2).
    pub kind: ModelKind,
    /// Reference embedding dimension.
    pub embedding_dim: usize,
    /// Training hyperparameters shared by every point.
    pub train: TrainConfig,
    /// Worker threads (1 = sequential).
    pub workers: usize,
    /// Independent training runs per grid point (different init seeds);
    /// quality numbers are averaged to suppress run-to-run variance.
    pub replicates: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            kind: ModelKind::Classifier,
            embedding_dim: 32,
            train: TrainConfig::default(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            replicates: 1,
        }
    }
}

/// The paper's hash-size grid scaled to a vocabulary: the §5 sweep uses
/// `m ∈ {100K, 50K, 25K, 10K, 5K, 1K}` against 100K+ vocabularies, i.e.
/// roughly `v/{1, 2, 4, 10, 20, 100}`; this helper reproduces those
/// fractions for any (scaled) vocabulary.
pub fn hash_size_grid(vocab: usize) -> Vec<usize> {
    [2usize, 4, 10, 20, 100]
        .iter()
        .map(|d| (vocab / d).max(1))
        .filter(|&m| m < vocab)
        .collect()
}

/// The full §5 method grid for one dataset: every technique at every
/// applicable hyperparameter, mirroring the figure legends.
pub fn paper_method_grid(vocab: usize, embedding_dim: usize) -> Vec<MethodSpec> {
    let mut specs = Vec::new();
    for m in hash_size_grid(vocab) {
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
        specs.push(MethodSpec::QuotientRemainder {
            hash_size: m,
            combiner: QrCombiner::Concat,
        });
        specs.push(MethodSpec::TruncateRare { keep: m });
    }
    // "reduce embedding dim": e/2, e/4, … down to 4 (paper: 128…4 from 256).
    let mut dim = embedding_dim / 2;
    while dim >= 4 {
        specs.push(MethodSpec::ReduceDim { dim });
        dim /= 2;
    }
    // "factorized embedding": hidden from e/2 downward by 2.
    let mut hidden = embedding_dim / 2;
    while hidden >= 2 {
        specs.push(MethodSpec::Factorized { hidden });
        hidden /= 2;
    }
    specs
}

/// Parameter count, accuracy, and nDCG of one training run.
type RunOutcome = Result<(usize, f64, f64)>;

/// Trains `spec` once per replicate through `train_one(spec, seed)` and
/// averages the quality numbers; replicate `r` runs at seed
/// `config.train.seed + 7919·r`.
fn run_point(
    config: &SweepConfig,
    spec: &MethodSpec,
    train_one: &impl Fn(&MethodSpec, u64) -> RunOutcome,
) -> Result<SweepPoint> {
    let replicates = config.replicates.max(1);
    let mut params = 0usize;
    let mut acc_sum = 0f64;
    let mut ndcg_sum = 0f64;
    for r in 0..replicates {
        let (p, accuracy, ndcg) = train_one(spec, config.train.seed.wrapping_add(r as u64 * 7919))?;
        params = p;
        acc_sum += accuracy;
        ndcg_sum += ndcg;
    }
    Ok(SweepPoint {
        label: spec.label(),
        params,
        compression_ratio: 1.0,
        accuracy: acc_sum / replicates as f64,
        ndcg: ndcg_sum / replicates as f64,
        accuracy_loss_pct: 0.0,
        ndcg_loss_pct: 0.0,
    })
}

/// The one sweep driver: the baseline first, then every spec in
/// parallel across `config.workers` threads, each point scored against
/// the baseline.
fn sweep(
    dataset: &DatasetSpec,
    specs: &[MethodSpec],
    config: &SweepConfig,
    train_one: impl Fn(&MethodSpec, u64) -> RunOutcome + Sync,
) -> Result<SweepResult> {
    // Baseline first: its quality anchors every loss percentage.
    let baseline = run_point(config, &MethodSpec::Uncompressed, &train_one)?;

    // Parallel grid: a shared atomic cursor feeds worker threads.
    let results: std::sync::Mutex<Vec<Option<Result<SweepPoint>>>> =
        std::sync::Mutex::new(vec![None; specs.len()]);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = config.workers.max(1).min(specs.len().max(1));
    let worker_panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let outcome = run_point(config, &specs[i], &train_one);
                    if let Some(slot) = results.lock().expect("no poisoned workers").get_mut(i) {
                        *slot = Some(outcome);
                    }
                })
            })
            .collect();
        // Join every worker before deciding: short-circuiting would
        // leave later panicked threads unjoined and make the scope
        // re-panic instead of letting us return an error.
        let joined: Vec<bool> = handles.into_iter().map(|h| h.join().is_err()).collect();
        joined.contains(&true)
    });
    if worker_panicked {
        return Err(ModelError::BadConfig {
            context: "sweep worker panicked".into(),
        });
    }

    let mut points = Vec::with_capacity(specs.len());
    for slot in results.into_inner().expect("workers joined") {
        let point = slot.expect("cursor covered every index")?;
        points.push(SweepPoint {
            compression_ratio: compression_ratio(baseline.params, point.params),
            accuracy_loss_pct: relative_loss_pct(baseline.accuracy, point.accuracy),
            ndcg_loss_pct: relative_loss_pct(baseline.ndcg, point.ndcg),
            ..point
        });
    }
    Ok(SweepResult {
        dataset: dataset.name,
        baseline,
        points,
    })
}

fn model_config(
    dataset: &DatasetSpec,
    config: &SweepConfig,
    kind: ModelKind,
    seed: u64,
) -> ModelConfig {
    ModelConfig {
        kind,
        vocab: dataset.input_vocab(),
        embedding_dim: config.embedding_dim,
        input_len: dataset.input_len,
        n_classes: dataset.output_vocab,
        dropout: 0.05,
        seed,
    }
}

/// Runs a full sweep: baseline plus `specs`, parallel across
/// `config.workers` threads.
///
/// # Errors
///
/// Fails if any individual training run fails (the first error wins).
pub fn run_sweep(
    dataset: &DatasetSpec,
    data: &GeneratedData,
    specs: &[MethodSpec],
    config: &SweepConfig,
) -> Result<SweepResult> {
    sweep(dataset, specs, config, |spec, seed| {
        let mut model = RecModel::new(&model_config(dataset, config, config.kind, seed), spec)?;
        let train_config = TrainConfig {
            seed,
            ..config.train.clone()
        };
        let report = train(&mut model, &data.train, &data.eval, &train_config)?;
        Ok((model.param_count(), report.eval_accuracy, report.eval_ndcg))
    })
}

/// Runs a pairwise (Figure 3) sweep with the RankNet model over the
/// pairs `dataset` generates at `seed`; replicates and workers as
/// [`run_sweep`].
///
/// # Errors
///
/// Fails if any training run fails.
pub fn run_pairwise_sweep(
    dataset: &DatasetSpec,
    specs: &[MethodSpec],
    config: &SweepConfig,
    seed: u64,
) -> Result<SweepResult> {
    let (train_pairs, eval_pairs) = dataset.try_generate_pairs(seed)?;
    sweep(dataset, specs, config, |spec, seed| {
        let model_config = model_config(dataset, config, ModelKind::PointwiseRanker, seed);
        let mut net = RankNet::new(&model_config, spec)?;
        let train_config = TrainConfig {
            seed,
            ..config.train.clone()
        };
        let report = net.train(&train_pairs, &eval_pairs, &train_config)?;
        Ok((net.param_count(), report.pair_accuracy, report.eval_ndcg))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> DatasetSpec {
        let mut spec = DatasetSpec::newsgroup().scaled(1_000_000);
        spec.train_samples = 300;
        spec.eval_samples = 100;
        spec.input_len = 12;
        spec
    }

    #[test]
    fn grid_fractions_follow_paper() {
        let grid = hash_size_grid(100_000);
        assert_eq!(grid, vec![50_000, 25_000, 10_000, 5_000, 1_000]);
        // Tiny vocabularies keep at least one valid point.
        assert!(!hash_size_grid(8).is_empty());
        assert!(hash_size_grid(8).iter().all(|&m| (1..8).contains(&m)));
    }

    #[test]
    fn paper_grid_contains_every_family() {
        let specs = paper_method_grid(1_000, 32);
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        for family in [
            "memcom(",
            "memcom_nobias(",
            "naive_hash",
            "double_hash",
            "qr_mult",
            "qr_concat",
            "truncate_rare",
            "reduce_dim",
            "factorized",
        ] {
            assert!(
                labels.iter().any(|l| l.starts_with(family)),
                "family {family} missing from grid"
            );
        }
    }

    #[test]
    fn sweep_produces_consistent_ratios() {
        let dataset = tiny_dataset();
        let data = dataset.generate(21);
        let specs = vec![
            MethodSpec::MemCom {
                hash_size: dataset.input_vocab() / 10,
                bias: true,
            },
            MethodSpec::NaiveHash {
                hash_size: dataset.input_vocab() / 10,
            },
        ];
        let config = SweepConfig {
            embedding_dim: 8,
            train: TrainConfig {
                epochs: 1,
                batch_size: 64,
                ..TrainConfig::default()
            },
            workers: 2,
            replicates: 2,
            ..SweepConfig::default()
        };
        let result = run_sweep(&dataset, &data, &specs, &config).unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.baseline.compression_ratio, 1.0);
        for p in &result.points {
            assert!(
                p.compression_ratio > 1.0,
                "{} ratio {}",
                p.label,
                p.compression_ratio
            );
            assert!(p.params < result.baseline.params);
        }
        // MEmCom keeps v extra multiplier params → slightly lower ratio
        // than naive hashing at the same m.
        assert!(result.points[0].compression_ratio < result.points[1].compression_ratio);
        let table = result.to_table();
        assert!(table.contains("memcom"));
        assert!(table.contains("naive_hash"));
    }

    #[test]
    fn pairwise_sweep_runs() {
        let mut dataset = tiny_dataset();
        dataset.train_samples = 200;
        let specs = vec![MethodSpec::NaiveHash {
            hash_size: dataset.input_vocab() / 10,
        }];
        let config = SweepConfig {
            embedding_dim: 8,
            train: TrainConfig {
                epochs: 1,
                batch_size: 64,
                ..TrainConfig::default()
            },
            workers: 1,
            ..SweepConfig::default()
        };
        let result = run_pairwise_sweep(&dataset, &specs, &config, 3).unwrap();
        assert_eq!(result.points.len(), 1);
        assert!(result.points[0].compression_ratio > 1.0);
    }

    /// A pairwise sweep honors `replicates`: each point is the mean of
    /// single-replicate runs at seeds `s` and `s + 7919`.
    #[test]
    fn pairwise_sweep_averages_its_replicates() {
        let mut dataset = tiny_dataset();
        dataset.train_samples = 200;
        let specs = vec![MethodSpec::NaiveHash {
            hash_size: dataset.input_vocab() / 10,
        }];
        let config = |seed, replicates| SweepConfig {
            embedding_dim: 8,
            train: TrainConfig {
                epochs: 1,
                batch_size: 64,
                seed,
                ..TrainConfig::default()
            },
            workers: 2,
            replicates,
            ..SweepConfig::default()
        };
        let s = 5;
        let run = |seed, replicates| {
            run_pairwise_sweep(&dataset, &specs, &config(seed, replicates), 3).unwrap()
        };
        let (mean, first, second) = (run(s, 2), run(s, 1), run(s + 7919, 1));
        let all = |r: &SweepResult| std::iter::once(r.baseline.clone()).chain(r.points.clone());
        for ((m, a), b) in all(&mean).zip(all(&first)).zip(all(&second)) {
            assert_eq!(m.label, a.label);
            assert_eq!(m.params, a.params);
            assert_eq!(m.accuracy, (a.accuracy + b.accuracy) / 2.0, "{}", m.label);
            assert_eq!(m.ndcg, (a.ndcg + b.ndcg) / 2.0, "{}", m.label);
        }
        assert_ne!(
            (first.baseline.accuracy, first.baseline.ndcg),
            (second.baseline.accuracy, second.baseline.ndcg),
            "the two replicate seeds must train different models"
        );
    }
}
