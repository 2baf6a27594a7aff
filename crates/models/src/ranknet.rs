//! Pairwise RankNet ranking (§5.2, Arcade / Figure 3).
//!
//! The paper's pairwise model is a siamese arrangement of the shared
//! pointwise network: it "takes as input user features and two item IDs
//! ... outputs two scores corresponding to the input item ids", and
//! training maximizes the score difference. Here the shared network is the
//! pointwise [`RecModel`]; an item's score is its logit, and the RankNet
//! loss (Burges et al., 2005) flows back only through the two scored
//! logits.

use memcom_core::MethodSpec;
use memcom_data::PairExample;
use memcom_metrics::{pairwise_accuracy, rank_of, single_relevant_ndcg};
use memcom_nn::{ranknet_loss, Adam, Mode, Optimizer};
use memcom_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::network::{ModelConfig, ModelKind, RecModel};
use crate::trainer::TrainConfig;
use crate::{ModelError, Result};

/// The siamese pairwise ranker.
#[derive(Debug)]
pub struct RankNet {
    shared: RecModel,
}

/// Outcome of a RankNet training run. Quality numbers are best-checkpoint
/// (evaluated after every epoch), matching [`crate::trainer::TrainReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankNetReport {
    /// Mean pairwise loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Best per-epoch fraction of eval pairs ranked correctly.
    pub pair_accuracy: f64,
    /// Best per-epoch mean nDCG of the preferred item.
    pub eval_ndcg: f64,
}

impl RankNet {
    /// Builds the shared tower. The tower is always the pointwise variant
    /// (the paper's pairwise experiments reuse it).
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn new(config: &ModelConfig, spec: &MethodSpec) -> Result<Self> {
        let config = ModelConfig {
            kind: ModelKind::PointwiseRanker,
            ..config.clone()
        };
        Ok(RankNet {
            shared: RecModel::new(&config, spec)?,
        })
    }

    /// The shared tower (for parameter accounting and serialization).
    pub fn shared_model(&mut self) -> &mut RecModel {
        &mut self.shared
    }

    /// Total trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.shared.param_count()
    }

    /// One training step over a slice of pair examples. Returns the mean
    /// pair loss.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward failures; rejects empty batches.
    pub fn train_step(&mut self, pairs: &[PairExample], opt: &mut dyn Optimizer) -> Result<f32> {
        if pairs.is_empty() {
            return Err(ModelError::BadConfig {
                context: "empty pair batch".into(),
            });
        }
        let b = pairs.len();
        let l = self.shared.config().input_len;
        let n_classes = self.shared.config().n_classes;
        let mut flat_ids = Vec::with_capacity(b * l);
        for p in pairs {
            flat_ids.extend_from_slice(&p.input_ids);
        }
        let logits = self.shared.forward(&flat_ids, b, Mode::Train)?;
        // Extract the two scores per pair.
        let mut pos = Vec::with_capacity(b);
        let mut neg = Vec::with_capacity(b);
        for (row, p) in pairs.iter().enumerate() {
            pos.push(logits.as_slice()[row * n_classes + p.preferred]);
            neg.push(logits.as_slice()[row * n_classes + p.other]);
        }
        let (loss, grad_pos, grad_neg) =
            ranknet_loss(&Tensor::from_vec(pos, &[b])?, &Tensor::from_vec(neg, &[b])?)?;
        // Scatter pair gradients back into the logit matrix.
        let mut grad_logits = Tensor::zeros(&[b, n_classes]);
        {
            let g = grad_logits.as_mut_slice();
            for (row, p) in pairs.iter().enumerate() {
                g[row * n_classes + p.preferred] += grad_pos.as_slice()[row];
                g[row * n_classes + p.other] += grad_neg.as_slice()[row];
            }
        }
        self.shared.backward_and_step(&grad_logits, b, opt)?;
        Ok(loss)
    }

    /// Full training loop over pair examples.
    ///
    /// # Errors
    ///
    /// Propagates training-step failures.
    pub fn train(
        &mut self,
        train_pairs: &[PairExample],
        eval_pairs: &[PairExample],
        config: &TrainConfig,
    ) -> Result<RankNetReport> {
        let mut opt = Adam::new(config.lr);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..train_pairs.len()).collect();
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        let mut best_pair_accuracy = 0f64;
        let mut best_ndcg = 0f64;
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut total = 0f64;
            let mut steps = 0usize;
            for chunk in order.chunks(config.batch_size) {
                let batch: Vec<PairExample> =
                    chunk.iter().map(|&i| train_pairs[i].clone()).collect();
                total += self.train_step(&batch, &mut opt)? as f64;
                steps += 1;
            }
            epoch_losses.push(if steps == 0 {
                0.0
            } else {
                (total / steps as f64) as f32
            });
            let (acc, ndcg) = self.evaluate(eval_pairs, config.batch_size)?;
            best_pair_accuracy = best_pair_accuracy.max(acc);
            best_ndcg = best_ndcg.max(ndcg);
        }
        Ok(RankNetReport {
            epoch_losses,
            pair_accuracy: best_pair_accuracy,
            eval_ndcg: best_ndcg,
        })
    }

    /// Evaluates pairwise accuracy and preferred-item nDCG.
    ///
    /// # Errors
    ///
    /// Propagates forward failures; rejects empty eval sets.
    pub fn evaluate(&mut self, pairs: &[PairExample], batch_size: usize) -> Result<(f64, f64)> {
        if pairs.is_empty() {
            return Err(ModelError::BadConfig {
                context: "empty eval pair set".into(),
            });
        }
        let l = self.shared.config().input_len;
        let n_classes = self.shared.config().n_classes;
        let mut pos_scores = Vec::with_capacity(pairs.len());
        let mut neg_scores = Vec::with_capacity(pairs.len());
        let mut ndcg_sum = 0f64;
        for chunk in pairs.chunks(batch_size.max(1)) {
            let b = chunk.len();
            let mut flat_ids = Vec::with_capacity(b * l);
            for p in chunk {
                flat_ids.extend_from_slice(&p.input_ids);
            }
            let logits = self.shared.infer(&flat_ids, b)?;
            for (row, p) in chunk.iter().enumerate() {
                let row_slice = &logits.as_slice()[row * n_classes..(row + 1) * n_classes];
                pos_scores.push(row_slice[p.preferred]);
                neg_scores.push(row_slice[p.other]);
                ndcg_sum += single_relevant_ndcg(rank_of(row_slice, p.preferred));
            }
        }
        Ok((
            pairwise_accuracy(&pos_scores, &neg_scores),
            ndcg_sum / pairs.len() as f64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_data::DatasetSpec;

    fn tiny_pairs() -> (DatasetSpec, Vec<PairExample>, Vec<PairExample>) {
        let mut spec = DatasetSpec::arcade().scaled(1_000_000);
        spec.train_samples = 500;
        spec.eval_samples = 150;
        spec.input_len = 16;
        let (train, eval) = spec.try_generate_pairs(5).unwrap();
        (spec, train, eval)
    }

    #[test]
    fn ranknet_learns_to_order_pairs() {
        let (spec, train_pairs, eval_pairs) = tiny_pairs();
        let config = ModelConfig {
            kind: ModelKind::PointwiseRanker,
            vocab: spec.input_vocab(),
            embedding_dim: 16,
            input_len: spec.input_len,
            n_classes: spec.output_vocab,
            dropout: 0.05,
            seed: 6,
        };
        let mut net = RankNet::new(&config, &MethodSpec::Uncompressed).unwrap();
        let report = net
            .train(
                &train_pairs,
                &eval_pairs,
                &TrainConfig {
                    epochs: 5,
                    batch_size: 32,
                    lr: 3e-3,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert!(
            report.pair_accuracy > 0.6,
            "pairwise accuracy {} barely above chance",
            report.pair_accuracy
        );
        assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
        assert!(report.eval_ndcg > 0.2);
    }

    #[test]
    fn empty_batches_rejected() {
        let (spec, _, eval_pairs) = tiny_pairs();
        let config = ModelConfig {
            kind: ModelKind::PointwiseRanker,
            vocab: spec.input_vocab(),
            embedding_dim: 8,
            input_len: spec.input_len,
            n_classes: spec.output_vocab,
            dropout: 0.0,
            seed: 6,
        };
        let mut net = RankNet::new(&config, &MethodSpec::Uncompressed).unwrap();
        let mut opt = memcom_nn::Sgd::new(0.1);
        assert!(net.train_step(&[], &mut opt).is_err());
        assert!(net.evaluate(&[], 8).is_err());
        // Evaluate works untrained.
        let (acc, ndcg) = net.evaluate(&eval_pairs, 32).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!((0.0..=1.0).contains(&ndcg));
    }

    #[test]
    fn tower_is_always_pointwise() {
        let (spec, _, _) = tiny_pairs();
        // Even if the caller asks for a classifier tower, RankNet builds
        // the pointwise variant (5 head layers, not 9).
        let config = ModelConfig {
            kind: ModelKind::Classifier,
            vocab: spec.input_vocab(),
            embedding_dim: 8,
            input_len: spec.input_len,
            n_classes: spec.output_vocab,
            dropout: 0.0,
            seed: 6,
        };
        let mut net = RankNet::new(&config, &MethodSpec::Uncompressed).unwrap();
        assert_eq!(net.shared_model().head().len(), 5);
    }
}
