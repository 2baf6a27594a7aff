//! The paper's embedding-based feed-forward networks (Code 1).

use memcom_core::{EmbeddingCompressor, MethodSpec};
use memcom_nn::{
    AveragePool1d, BatchNorm1d, Dense, Dropout, Layer, Mode, Optimizer, Relu, Sequential,
};
use memcom_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{ModelError, Result};

/// Which of the paper's two feed-forward variants to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// §5.1 / Code 1: pool → ReLU → dropout → batch-norm →
    /// Dense(e/2, ReLU) → dropout → batch-norm → Dense(classes).
    Classifier,
    /// §5.2: the same network "removing the Dense layer following the
    /// Average Pooling": pool → ReLU → dropout → batch-norm →
    /// Dense(classes).
    PointwiseRanker,
}

/// Model hyperparameters shared across experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Which network variant to build.
    pub kind: ModelKind,
    /// Input vocabulary size (`v`).
    pub vocab: usize,
    /// Reference embedding dimension (`e`; 256 in the paper, smaller in
    /// scaled runs).
    pub embedding_dim: usize,
    /// Fixed input sequence length (128 in the paper).
    pub input_len: usize,
    /// Output vocabulary / class count.
    pub n_classes: usize,
    /// Dropout rate (Code 1 leaves it a hyperparameter; 0.1 default).
    pub dropout: f32,
    /// RNG seed for weight initialization and dropout masks.
    pub seed: u64,
}

impl ModelConfig {
    /// A classifier configuration with library defaults.
    pub fn classifier(
        vocab: usize,
        embedding_dim: usize,
        input_len: usize,
        n_classes: usize,
    ) -> Self {
        ModelConfig {
            kind: ModelKind::Classifier,
            vocab,
            embedding_dim,
            input_len,
            n_classes,
            dropout: 0.1,
            seed: 0,
        }
    }

    /// A pointwise-ranker configuration with library defaults.
    pub fn pointwise(
        vocab: usize,
        embedding_dim: usize,
        input_len: usize,
        n_classes: usize,
    ) -> Self {
        ModelConfig {
            kind: ModelKind::PointwiseRanker,
            ..Self::classifier(vocab, embedding_dim, input_len, n_classes)
        }
    }
}

/// An embedding compressor plus the Code-1 head, with train/eval plumbing.
///
/// # Example
///
/// ```
/// use memcom_core::MethodSpec;
/// use memcom_models::{ModelConfig, RecModel};
///
/// # fn main() -> Result<(), memcom_models::ModelError> {
/// let config = ModelConfig::classifier(1_000, 16, 8, 10);
/// let mut model = RecModel::new(&config, &MethodSpec::MemCom { hash_size: 100, bias: true })?;
/// let logits = model.infer(&vec![1usize; 16], 2)?; // batch of 2
/// assert_eq!(logits.shape().dims(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
pub struct RecModel {
    embedding: Box<dyn EmbeddingCompressor>,
    head: Sequential,
    config: ModelConfig,
}

impl std::fmt::Debug for RecModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecModel")
            .field("method", &self.embedding.method_name())
            .field("kind", &self.config.kind)
            .field("head", &self.head)
            .finish()
    }
}

impl RecModel {
    /// Builds the model with the embedding stage described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] for inconsistent dimensions and
    /// propagates compressor construction failures.
    pub fn new(config: &ModelConfig, spec: &MethodSpec) -> Result<Self> {
        if config.input_len == 0 || config.n_classes == 0 || config.embedding_dim == 0 {
            return Err(ModelError::BadConfig {
                context: format!(
                    "model needs positive dims, got len={} classes={} e={}",
                    config.input_len, config.n_classes, config.embedding_dim
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embedding = spec.build(config.vocab, config.embedding_dim, &mut rng)?;
        // ReduceDim shrinks the working dimension; everything downstream
        // adapts to the embedding's actual output width.
        let e_out = embedding.output_dim();
        let mut head = Sequential::new();
        head.push(AveragePool1d::new());
        head.push(Relu::new());
        head.push(Dropout::new(config.dropout, config.seed ^ 0xD0));
        head.push(BatchNorm1d::with_hyper(e_out, 0.9, 1e-3));
        match config.kind {
            ModelKind::Classifier => {
                let hidden = (e_out / 2).max(1);
                head.push(Dense::new(e_out, hidden, &mut rng));
                head.push(Relu::new());
                head.push(Dropout::new(config.dropout, config.seed ^ 0xD1));
                head.push(BatchNorm1d::with_hyper(hidden, 0.9, 1e-3));
                head.push(Dense::new(hidden, config.n_classes, &mut rng));
            }
            ModelKind::PointwiseRanker => {
                head.push(Dense::new(e_out, config.n_classes, &mut rng));
            }
        }
        Ok(RecModel {
            embedding,
            head,
            config: config.clone(),
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The embedding stage (for audits, serialization, quantization).
    pub fn embedding(&self) -> &dyn EmbeddingCompressor {
        self.embedding.as_ref()
    }

    /// Immutable access to the head layers.
    pub fn head(&self) -> &Sequential {
        &self.head
    }

    /// Total trainable parameters (embedding + head) — the denominator of
    /// the paper's whole-model compression ratios.
    pub fn param_count(&mut self) -> usize {
        self.embedding.param_count() + self.head.param_count()
    }

    /// Runs the network over a flat id buffer of `batch · input_len` ids,
    /// returning `[batch, n_classes]` logits.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] when the buffer length is not
    /// `batch · input_len`, and propagates lookup failures.
    pub fn forward(&mut self, flat_ids: &[usize], batch: usize, mode: Mode) -> Result<Tensor> {
        let l = self.config.input_len;
        if flat_ids.len() != batch * l {
            return Err(ModelError::BadConfig {
                context: format!(
                    "expected {} ids for batch {batch}, got {}",
                    batch * l,
                    flat_ids.len()
                ),
            });
        }
        let flat = self.embedding.forward(flat_ids)?; // [b·L, e]
        let seq = flat.reshape(&[batch, l, self.embedding.output_dim()])?;
        Ok(self.head.forward(&seq, mode)?)
    }

    /// Inference-mode forward pass (no caches, dropout off, batch-norm in
    /// moving-average mode).
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Self::forward).
    pub fn infer(&mut self, flat_ids: &[usize], batch: usize) -> Result<Tensor> {
        self.forward(flat_ids, batch, Mode::Eval)
    }

    /// Back-propagates `∂L/∂logits` and applies all gradients via `opt`.
    ///
    /// # Errors
    ///
    /// Propagates layer/compressor backward errors.
    pub fn backward_and_step(
        &mut self,
        grad_logits: &Tensor,
        batch: usize,
        opt: &mut dyn Optimizer,
    ) -> Result<()> {
        let grad_seq = self.head.backward(grad_logits)?; // [b, L, e]
        let e_out = self.embedding.output_dim();
        let grad_flat = grad_seq.reshape(&[batch * self.config.input_len, e_out])?;
        self.embedding.backward(&grad_flat)?;
        self.embedding.apply_gradients(opt)?;
        let mut head_err: Option<memcom_nn::NnError> = None;
        self.head.visit_params(&mut |id, value, grad| {
            if head_err.is_none() {
                if let Err(e) = opt.step_dense(id, value, grad) {
                    head_err = Some(e);
                }
            }
        });
        self.head.zero_grad();
        if let Some(e) = head_err {
            return Err(e.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_nn::softmax_cross_entropy;
    use memcom_nn::Adam;

    fn config(kind: ModelKind) -> ModelConfig {
        ModelConfig {
            kind,
            ..ModelConfig::classifier(500, 16, 8, 12)
        }
    }

    #[test]
    fn classifier_shapes() {
        let mut model =
            RecModel::new(&config(ModelKind::Classifier), &MethodSpec::Uncompressed).unwrap();
        let ids = vec![3usize; 3 * 8];
        let logits = model.infer(&ids, 3).unwrap();
        assert_eq!(logits.shape().dims(), &[3, 12]);
        // Head: pool+relu+do+bn + dense(16→8)+relu+do+bn + dense(8→12).
        assert_eq!(model.head().len(), 9);
    }

    #[test]
    fn pointwise_drops_hidden_dense() {
        let mut model = RecModel::new(
            &config(ModelKind::PointwiseRanker),
            &MethodSpec::Uncompressed,
        )
        .unwrap();
        assert_eq!(model.head().len(), 5);
        let logits = model.infer(&[1usize; 8], 1).unwrap();
        assert_eq!(logits.shape().dims(), &[1, 12]);
    }

    #[test]
    fn param_count_sums_embedding_and_head() {
        let mut model = RecModel::new(
            &config(ModelKind::PointwiseRanker),
            &MethodSpec::Uncompressed,
        )
        .unwrap();
        let emb = 500 * 16;
        // head: bn(16)*2 + dense 16*12+12
        let head = 32 + 16 * 12 + 12;
        assert_eq!(model.param_count(), emb + head);
    }

    #[test]
    fn reduce_dim_adapts_head() {
        let mut model = RecModel::new(
            &config(ModelKind::Classifier),
            &MethodSpec::ReduceDim { dim: 4 },
        )
        .unwrap();
        let logits = model.infer(&[0usize; 8], 1).unwrap();
        assert_eq!(logits.shape().dims(), &[1, 12]);
        assert!(model.param_count() < 500 * 16);
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut model =
            RecModel::new(&config(ModelKind::Classifier), &MethodSpec::Uncompressed).unwrap();
        assert!(model.infer(&[0usize; 7], 1).is_err()); // wrong length
        assert!(model.infer(&[500usize; 8], 1).is_err()); // out of vocab
        let bad = ModelConfig {
            n_classes: 0,
            ..config(ModelKind::Classifier)
        };
        assert!(RecModel::new(&bad, &MethodSpec::Uncompressed).is_err());
    }

    #[test]
    fn one_training_step_reduces_loss_on_fixed_batch() {
        let mut model = RecModel::new(
            &config(ModelKind::Classifier),
            &MethodSpec::MemCom {
                hash_size: 50,
                bias: true,
            },
        )
        .unwrap();
        let mut opt = Adam::new(5e-3);
        let ids: Vec<usize> = (0..4 * 8).map(|i| (i * 7) % 500).collect();
        let labels = [0usize, 3, 6, 9];
        let mut losses = Vec::new();
        for _ in 0..30 {
            let logits = model.forward(&ids, 4, Mode::Train).unwrap();
            let out = softmax_cross_entropy(&logits, &labels).unwrap();
            losses.push(out.loss);
            model.backward_and_step(&out.grad, 4, &mut opt).unwrap();
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "loss failed to fall: {:?} -> {:?}",
            losses[0],
            losses.last().unwrap()
        );
    }
}
