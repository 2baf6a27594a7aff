//! MEmCom — Multi-Embedding Compression (Algorithms 2 and 3 of the paper).
//!
//! The embedding for entity `i` is assembled "on the fly" from two jointly
//! trained tables:
//!
//! ```text
//! no-bias (Alg. 2):  E(i) = U[i mod m] ⊙ V[i]
//! bias    (Alg. 3):  E(i) = U[i mod m] ⊙ V[i] + W[i]
//! ```
//!
//! where `U ∈ ℝ^{m×e}` is a hashed table shared by `⌈v/m⌉` entities per
//! row, and `V, W ∈ ℝ^{v×1}` hold one scalar per entity that is broadcast
//! across the `e` dimensions. Because `(U, V)` are trained jointly the
//! model learns `v` distinct functions `f_i = V[i]·U[i mod m]` — a unique
//! embedding per entity at `O(m·e + v)` storage instead of `O(v·e)`.

use memcom_tensor::{init, Tensor};
use rand::Rng;

use crate::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
use crate::hashing::RowMap;
use crate::recipe::{Combine, Recipe};
use crate::{CoreError, Result};

/// Configuration for a [`MemCom`] layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MemComConfig {
    /// Vocabulary size `v`. Ids are assumed frequency-sorted (the paper
    /// assigns id 1 to the most frequent entity; id 0 is padding).
    pub vocab: usize,
    /// Embedding dimensionality `e`.
    pub dim: usize,
    /// Hashed-table row count `m` (the "number of embeddings").
    pub hash_size: usize,
    /// Whether to add the per-entity bias table `W` (Algorithm 3).
    pub bias: bool,
    /// Uniform jitter applied around the multiplier init of 1.0, breaking
    /// symmetry between entities sharing a `U` row from step 0.
    pub multiplier_jitter: f32,
}

impl MemComConfig {
    /// No-bias MEmCom (Algorithm 2) with the default multiplier jitter.
    pub fn new(vocab: usize, dim: usize, hash_size: usize) -> Self {
        MemComConfig {
            vocab,
            dim,
            hash_size,
            bias: false,
            multiplier_jitter: 0.01,
        }
    }

    /// Bias-variant MEmCom (Algorithm 3).
    pub fn with_bias(vocab: usize, dim: usize, hash_size: usize) -> Self {
        MemComConfig {
            bias: true,
            ..Self::new(vocab, dim, hash_size)
        }
    }
}

/// The MEmCom compressed embedding layer (the paper's contribution).
///
/// # Example
///
/// ```
/// use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), memcom_core::CoreError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let layer = MemCom::new(MemComConfig::with_bias(1_000, 32, 100), &mut rng)?;
/// // ids 5 and 105 share U[5] but have distinct multipliers/biases.
/// let out = layer.lookup(&[5, 105])?;
/// assert_ne!(out.row(0)?, out.row(1)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemCom {
    config: MemComConfig,
    /// `U ∈ ℝ^{m×e}` (hashed, shared), `V ∈ ℝ^{v×1}` (per-entity
    /// multiplier) and, iff `config.bias`, `W ∈ ℝ^{v×1}` (per-entity bias).
    state: CompressorState,
}

impl MemCom {
    /// Builds the layer from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes or
    /// `hash_size > vocab` (which would waste rows rather than compress).
    pub fn new<R: Rng + ?Sized>(config: MemComConfig, rng: &mut R) -> Result<Self> {
        if config.vocab == 0 || config.dim == 0 || config.hash_size == 0 {
            return Err(CoreError::BadConfig {
                context: format!(
                    "memcom needs positive sizes, got v={} e={} m={}",
                    config.vocab, config.dim, config.hash_size
                ),
            });
        }
        if config.hash_size > config.vocab {
            return Err(CoreError::BadConfig {
                context: format!(
                    "hash size {} exceeds vocabulary {} — no compression",
                    config.hash_size, config.vocab
                ),
            });
        }
        let shared = init::embedding_uniform(&[config.hash_size, config.dim], rng);
        let multiplier = init::multiplier_ones(config.vocab, config.multiplier_jitter, rng);
        let mut tables = vec![
            ParamTable::sparse("shared", shared),
            ParamTable::sparse("multiplier", multiplier),
        ];
        let mut maps = vec![RowMap::Mod(config.hash_size), RowMap::Identity];
        let mut combine = Combine::ScaleMul;
        if config.bias {
            tables.push(ParamTable::sparse(
                "bias",
                Tensor::zeros(&[config.vocab, 1]),
            ));
            maps.push(RowMap::Identity);
            combine = Combine::ScaleAdd;
        }
        let recipe = Recipe::new(maps, combine);
        Ok(MemCom {
            state: CompressorState::new(config.vocab, config.dim, tables, recipe),
            config,
        })
    }

    /// The layer's configuration.
    pub fn config(&self) -> &MemComConfig {
        &self.config
    }

    /// Borrows the shared hashed table `U`.
    pub fn shared_table(&self) -> &Tensor {
        self.state.tables[0].tensor()
    }

    /// Borrows the multiplier table `V`.
    pub fn multiplier_table(&self) -> &Tensor {
        self.state.tables[1].tensor()
    }

    /// The hash bucket for entity `i` (`i mod m`, Algorithm 2 line 2).
    pub fn bucket(&self, id: usize) -> usize {
        self.state.recipe().maps[0].row(id)
    }

    /// Restores table contents (deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when any shape mismatches or a bias
    /// is supplied for a no-bias layer (and vice versa); the layer is then
    /// left as it was.
    pub fn set_tables(
        &mut self,
        shared: Tensor,
        multiplier: Tensor,
        bias: Option<Tensor>,
    ) -> Result<()> {
        let new: Vec<Tensor> = [shared, multiplier].into_iter().chain(bias).collect();
        let tables = &mut self.state.tables;
        let fits = new.len() == tables.len()
            && (tables.iter().zip(&new)).all(|(old, new)| old.tensor().shape() == new.shape());
        if !fits {
            return Err(CoreError::BadConfig {
                context: "table shapes or bias presence do not match the configuration".into(),
            });
        }
        for (table, tensor) in tables.iter_mut().zip(new) {
            table.set_tensor(tensor)?;
        }
        Ok(())
    }
}

impl EmbeddingCompressor for MemCom {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        if self.config.bias {
            "memcom"
        } else {
            "memcom_nobias"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_nn::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(bias: bool) -> MemCom {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = if bias {
            MemComConfig::with_bias(50, 4, 10)
        } else {
            MemComConfig::new(50, 4, 10)
        };
        MemCom::new(cfg, &mut rng).unwrap()
    }

    #[test]
    fn lookup_composes_multiplier() {
        let layer = make(false);
        let out = layer.lookup(&[7]).unwrap();
        let u = layer.shared_table().row(7).unwrap();
        let v = layer.multiplier_table().as_slice()[7];
        for (o, &ui) in out.row(0).unwrap().iter().zip(u) {
            assert!((o - ui * v).abs() < 1e-6);
        }
    }

    #[test]
    fn lookup_with_bias_adds_offset() {
        let mut layer = make(true);
        // Force a visible bias.
        let mut bias = Tensor::zeros(&[50, 1]);
        bias.as_mut_slice()[7] = 0.5;
        let shared = layer.shared_table().clone();
        let mult = layer.multiplier_table().clone();
        layer
            .set_tables(shared.clone(), mult.clone(), Some(bias))
            .unwrap();
        let out = layer.lookup(&[7]).unwrap();
        let u = shared.row(7).unwrap();
        let v = mult.as_slice()[7];
        for (o, &ui) in out.row(0).unwrap().iter().zip(u) {
            assert!((o - (ui * v + 0.5)).abs() < 1e-6);
        }
    }

    #[test]
    fn same_bucket_entities_differ() {
        // ids 3 and 13 share U[3]; the jittered multipliers must separate
        // them (the uniqueness property of §A.4 at initialization).
        let layer = make(false);
        let out = layer.lookup(&[3, 13]).unwrap();
        assert_ne!(out.row(0).unwrap(), out.row(1).unwrap());
    }

    #[test]
    fn param_count_matches_formula() {
        assert_eq!(make(false).param_count(), 10 * 4 + 50);
        assert_eq!(make(true).param_count(), 10 * 4 + 50 + 50);
        assert_eq!(make(false).method_name(), "memcom_nobias");
        assert_eq!(make(true).method_name(), "memcom");
        assert_eq!(make(true).tables().len(), 3);
        assert_eq!(make(false).tables().len(), 2);
    }

    #[test]
    fn config_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MemCom::new(MemComConfig::new(0, 4, 1), &mut rng).is_err());
        assert!(MemCom::new(MemComConfig::new(10, 0, 1), &mut rng).is_err());
        assert!(MemCom::new(MemComConfig::new(10, 4, 0), &mut rng).is_err());
        // hash size larger than vocab is not compression.
        assert!(MemCom::new(MemComConfig::new(10, 4, 11), &mut rng).is_err());
        // equal is allowed (degenerates to full table + multipliers).
        assert!(MemCom::new(MemComConfig::new(10, 4, 10), &mut rng).is_ok());
    }

    #[test]
    fn training_separates_shared_entities() {
        // Two entities share a bucket; pushing their embeddings toward
        // opposite targets must drive their multipliers apart — the
        // mechanism behind the paper's §A.4 uniqueness result.
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = MemCom::new(MemComConfig::new(20, 4, 10), &mut rng).unwrap();
        let mut opt = Sgd::new(0.5);
        for _ in 0..100 {
            let out = layer.forward(&[3, 13]).unwrap();
            // dL/dout = out - target, targets +1 vector vs -1 vector.
            let mut grad = out.clone();
            for (i, g) in grad.as_mut_slice().iter_mut().enumerate() {
                let target = if i < 4 { 1.0 } else { -1.0 };
                *g -= target;
            }
            grad.map_inplace(|x| x * 0.25);
            layer.backward(&grad).unwrap();
            layer.apply_gradients(&mut opt).unwrap();
        }
        let v3 = layer.multiplier_table().as_slice()[3];
        let v13 = layer.multiplier_table().as_slice()[13];
        assert!(
            (v3 - v13).abs() > 0.1,
            "multipliers failed to separate: {v3} vs {v13}"
        );
        let out = layer.lookup(&[3, 13]).unwrap();
        // The two learned embeddings point in opposite directions.
        let dot: f32 = out
            .row(0)
            .unwrap()
            .iter()
            .zip(out.row(1).unwrap())
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot < 0.0, "embeddings did not separate, dot = {dot}");
    }

    #[test]
    fn backward_without_forward_fails() {
        let mut layer = make(false);
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 4])),
            Err(CoreError::BackwardBeforeForward)
        ));
    }

    #[test]
    fn set_tables_validation() {
        let mut layer = make(false);
        assert!(layer
            .set_tables(
                Tensor::zeros(&[10, 4]),
                Tensor::zeros(&[50, 1]),
                Some(Tensor::zeros(&[50, 1]))
            )
            .is_err()); // bias on no-bias layer
        assert!(layer
            .set_tables(Tensor::zeros(&[9, 4]), Tensor::zeros(&[50, 1]), None)
            .is_err());
        assert!(layer
            .set_tables(Tensor::zeros(&[10, 4]), Tensor::zeros(&[50, 2]), None)
            .is_err());
        assert!(layer
            .set_tables(Tensor::zeros(&[10, 4]), Tensor::zeros(&[50, 1]), None)
            .is_ok());
    }
}
