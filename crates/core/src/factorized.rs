//! Factorized embedding parameterization (Lan et al., ALBERT).

use memcom_tensor::init;
use rand::Rng;

use crate::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
use crate::hashing::RowMap;
use crate::recipe::{Combine, Recipe};
use crate::{CoreError, Result};

/// Low-rank factorization `E ≈ A·B` with `A ∈ ℝ^{v×h}`, `B ∈ ℝ^{h×e}`,
/// `h ≪ e`: each entity keeps a unique low-dimensional code that a shared
/// projection lifts to the working dimensionality. Satisfies the paper's
/// unique-vector property but ignores the id frequency distribution — the
/// §4 analysis of why it underperforms on power-law vocabularies.
#[derive(Debug)]
pub struct FactorizedEmbedding {
    /// `A` (codes, `[v, h]`, trained sparsely) then `B` (projection,
    /// `[h, e]`, trained densely).
    state: CompressorState,
}

impl FactorizedEmbedding {
    /// Creates the factorization with inner rank `hidden`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes or `hidden >= dim`
    /// (no compression).
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if vocab == 0 || dim == 0 || hidden == 0 {
            return Err(CoreError::BadConfig {
                context: format!(
                    "factorized embedding needs positive sizes, got v={vocab} e={dim} h={hidden}"
                ),
            });
        }
        if hidden >= dim {
            return Err(CoreError::BadConfig {
                context: format!("hidden size {hidden} must be smaller than embedding dim {dim}"),
            });
        }
        let codes = init::embedding_uniform(&[vocab, hidden], rng);
        let projection = init::glorot_uniform(hidden, dim, rng);
        let tables = vec![
            ParamTable::sparse("codes", codes),
            ParamTable::dense("projection", projection),
        ];
        let recipe = Recipe::new([RowMap::Identity], Combine::Project { hidden });
        Ok(FactorizedEmbedding {
            state: CompressorState::new(vocab, dim, tables, recipe),
        })
    }
}

impl EmbeddingCompressor for FactorizedEmbedding {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        "factorized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make() -> FactorizedEmbedding {
        let mut rng = StdRng::seed_from_u64(0);
        FactorizedEmbedding::new(50, 8, 3, &mut rng).unwrap()
    }

    #[test]
    fn lookup_is_code_times_projection() {
        let emb = make();
        let out = emb.lookup(&[11]).unwrap();
        let code = emb.state.tables[0].row(11).unwrap();
        let projection = emb.state.tables[1].tensor();
        for d in 0..8 {
            let want: f32 = (0..3)
                .map(|h| code[h] * projection.at(&[h, d]).unwrap())
                .sum();
            assert!((out.row(0).unwrap()[d] - want).abs() < 1e-6);
        }
    }

    #[test]
    fn unique_embedding_per_entity() {
        let emb = make();
        let ids: Vec<usize> = (0..50).collect();
        let out = emb.lookup(&ids).unwrap();
        for i in 0..50 {
            for j in (i + 1)..50 {
                assert_ne!(
                    out.row(i).unwrap(),
                    out.row(j).unwrap(),
                    "ids {i} and {j} collided"
                );
            }
        }
    }

    #[test]
    fn param_count_formula() {
        assert_eq!(make().param_count(), 50 * 3 + 3 * 8);
        assert_eq!(make().method_name(), "factorized");
    }

    #[test]
    fn validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(FactorizedEmbedding::new(10, 8, 8, &mut rng).is_err()); // h >= e
        assert!(FactorizedEmbedding::new(10, 8, 0, &mut rng).is_err());
        assert!(make().lookup(&[50]).is_err());
    }
}
