//! Training loop and evaluation harness.

use memcom_data::{BatchIter, Example};
use memcom_metrics::{accuracy, mean_ndcg};
use memcom_nn::{softmax_cross_entropy, Adam, Mode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::network::RecModel;
use crate::Result;

/// Training hyperparameters (the optimizer is Adam with default betas).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 64,
            lr: 2e-3,
            seed: 17,
        }
    }
}

/// What a training run produced.
///
/// `eval_accuracy`/`eval_ndcg` are **best-checkpoint** values: the model
/// is evaluated after every epoch and the best epoch wins, mirroring the
/// Keras best-checkpoint workflow the paper's sweeps rely on (it also
/// decouples representational capacity from convergence speed, which
/// differs across compression techniques).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Best per-epoch classification accuracy on the eval split.
    pub eval_accuracy: f64,
    /// Best per-epoch mean single-relevant nDCG on the eval split.
    pub eval_ndcg: f64,
    /// Accuracy after the final epoch (for convergence diagnostics).
    pub final_accuracy: f64,
    /// nDCG after the final epoch.
    pub final_ndcg: f64,
}

/// Trains `model` on `train`, then evaluates on `eval`.
///
/// # Errors
///
/// Propagates forward/backward failures (shape bugs, out-of-vocab ids).
pub fn train(
    model: &mut RecModel,
    train_set: &[Example],
    eval_set: &[Example],
    config: &TrainConfig,
) -> Result<TrainReport> {
    let mut opt = Adam::new(config.lr);
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut shuffled: Vec<Example> = Vec::with_capacity(train_set.len());
    let mut best_accuracy = 0f64;
    let mut best_ndcg = 0f64;
    let mut final_accuracy = 0f64;
    let mut final_ndcg = 0f64;
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        shuffled.clear();
        shuffled.extend(order.iter().map(|&i| train_set[i].clone()));
        let mut total = 0f64;
        let mut batches = 0usize;
        for batch in BatchIter::new(&shuffled, config.batch_size) {
            let b = batch.labels.len();
            let logits = model.forward(&batch.flat_ids, b, Mode::Train)?;
            let out = softmax_cross_entropy(&logits, &batch.labels)?;
            model.backward_and_step(&out.grad, b, &mut opt)?;
            total += out.loss as f64;
            batches += 1;
        }
        epoch_losses.push(if batches == 0 {
            0.0
        } else {
            (total / batches as f64) as f32
        });
        let (acc, ndcg) = evaluate(model, eval_set, config.batch_size)?;
        best_accuracy = best_accuracy.max(acc);
        best_ndcg = best_ndcg.max(ndcg);
        final_accuracy = acc;
        final_ndcg = ndcg;
    }
    Ok(TrainReport {
        epoch_losses,
        eval_accuracy: best_accuracy,
        eval_ndcg: best_ndcg,
        final_accuracy,
        final_ndcg,
    })
}

/// Evaluates accuracy and mean nDCG over `eval_set`.
///
/// # Errors
///
/// Propagates forward failures.
pub fn evaluate(
    model: &mut RecModel,
    eval_set: &[Example],
    batch_size: usize,
) -> Result<(f64, f64)> {
    let n_classes = model.config().n_classes;
    let mut predictions = Vec::with_capacity(eval_set.len());
    let mut labels = Vec::with_capacity(eval_set.len());
    let mut ndcg_sum = 0f64;
    for batch in BatchIter::new(eval_set, batch_size) {
        let b = batch.labels.len();
        let logits = model.infer(&batch.flat_ids, b)?;
        ndcg_sum += mean_ndcg(logits.as_slice(), n_classes, &batch.labels) * b as f64;
        for row in 0..b {
            let row_slice = &logits.as_slice()[row * n_classes..(row + 1) * n_classes];
            let argmax = row_slice
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty class row");
            predictions.push(argmax);
        }
        labels.extend_from_slice(&batch.labels);
    }
    Ok((
        accuracy(&predictions, &labels),
        ndcg_sum / eval_set.len() as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ModelConfig, ModelKind};
    use memcom_core::MethodSpec;
    use memcom_data::DatasetSpec;

    fn tiny_spec() -> DatasetSpec {
        let mut spec = DatasetSpec::newsgroup().scaled(1_000_000);
        spec.train_samples = 400;
        spec.eval_samples = 120;
        spec.input_len = 16;
        spec
    }

    #[test]
    fn training_beats_chance_on_synthetic_clusters() {
        let spec = tiny_spec();
        let data = spec.generate(11);
        let config = ModelConfig {
            kind: ModelKind::Classifier,
            vocab: spec.input_vocab(),
            embedding_dim: 16,
            input_len: spec.input_len,
            n_classes: spec.output_vocab,
            dropout: 0.05,
            seed: 3,
        };
        let mut model = RecModel::new(&config, &MethodSpec::Uncompressed).unwrap();
        let report = train(
            &mut model,
            &data.train,
            &data.eval,
            &TrainConfig {
                epochs: 6,
                batch_size: 32,
                lr: 3e-3,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let chance = 1.0 / spec.output_vocab as f64;
        assert!(
            report.eval_accuracy > chance * 3.0,
            "accuracy {} vs chance {}",
            report.eval_accuracy,
            chance
        );
        assert!(report.eval_ndcg > 0.3, "ndcg {}", report.eval_ndcg);
        // Loss decreases across epochs.
        assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
    }

    #[test]
    fn evaluate_on_untrained_model_is_near_chance() {
        let spec = tiny_spec();
        let data = spec.generate(12);
        let config = ModelConfig {
            kind: ModelKind::PointwiseRanker,
            vocab: spec.input_vocab(),
            embedding_dim: 8,
            input_len: spec.input_len,
            n_classes: spec.output_vocab,
            dropout: 0.0,
            seed: 4,
        };
        let mut model = RecModel::new(&config, &MethodSpec::Uncompressed).unwrap();
        let (acc, ndcg) = evaluate(&mut model, &data.eval, 64).unwrap();
        assert!(acc < 0.3, "untrained accuracy suspiciously high: {acc}");
        assert!(ndcg > 0.0 && ndcg < 1.0);
    }
}
