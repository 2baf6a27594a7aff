//! Double hashing baseline (Zhang et al., RecSys 2020).

use memcom_tensor::init;
use rand::Rng;

use crate::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
use crate::hashing::RowMap;
use crate::recipe::{Combine, Recipe};
use crate::{CoreError, Result};

/// Frequency-based double hashing: two *independent* hash functions index
/// two `m × e/2` tables and the halves are concatenated. Two entities only
/// receive identical embeddings when **both** hashes collide, dropping the
/// collision rate from `O(v/m)` to `O(v/m²)` — but uniqueness is still not
/// guaranteed, unlike MEmCom.
#[derive(Debug)]
pub struct DoubleHashEmbedding {
    /// The two `m × e/2` tables, each read through its own seeded map.
    state: CompressorState,
}

impl DoubleHashEmbedding {
    /// Creates two `hash_size × dim/2` tables. `dim` must be even so the
    /// concatenated output matches the uncompressed dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes, odd `dim`, or
    /// `hash_size > vocab`.
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        dim: usize,
        hash_size: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if vocab == 0 || dim == 0 || hash_size == 0 {
            return Err(CoreError::BadConfig {
                context: format!(
                    "double hash needs positive sizes, got v={vocab} e={dim} m={hash_size}"
                ),
            });
        }
        if !dim.is_multiple_of(2) {
            return Err(CoreError::BadConfig {
                context: format!("double hash requires an even embedding dim, got {dim}"),
            });
        }
        if hash_size > vocab {
            return Err(CoreError::BadConfig {
                context: format!("hash size {hash_size} exceeds vocabulary {vocab}"),
            });
        }
        let half = dim / 2;
        let tables = ["hashed_a", "hashed_b"]
            .map(|name| ParamTable::sparse(name, init::embedding_uniform(&[hash_size, half], rng)));
        let maps = [0x5EEDA, 0x5EEDB].map(|seed| RowMap::Seeded { m: hash_size, seed });
        let recipe = Recipe::new(maps, Combine::Concat);
        Ok(DoubleHashEmbedding {
            state: CompressorState::new(vocab, dim, tables.into(), recipe),
        })
    }

    /// The two bucket indices for `id`.
    pub fn buckets(&self, id: usize) -> (usize, usize) {
        let maps = &self.state.recipe().maps;
        (maps[0].row(id), maps[1].row(id))
    }
}

impl EmbeddingCompressor for DoubleHashEmbedding {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        "double_hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn table(emb: &DoubleHashEmbedding, k: usize) -> &Tensor {
        emb.state.tables[k].tensor()
    }

    fn make() -> DoubleHashEmbedding {
        let mut rng = StdRng::seed_from_u64(0);
        DoubleHashEmbedding::new(1000, 8, 20, &mut rng).unwrap()
    }

    #[test]
    fn output_concatenates_halves() {
        let emb = make();
        let out = emb.lookup(&[42]).unwrap();
        let (a, b) = emb.buckets(42);
        assert_eq!(&out.row(0).unwrap()[..4], table(&emb, 0).row(a).unwrap());
        assert_eq!(&out.row(0).unwrap()[4..], table(&emb, 1).row(b).unwrap());
    }

    #[test]
    fn fewer_full_collisions_than_single_hash() {
        let emb = make();
        // Count id pairs with identical *joint* buckets vs single-hash.
        let mut joint = HashSet::new();
        let mut single = HashSet::new();
        for id in 0..1000 {
            joint.insert(emb.buckets(id));
            single.insert(emb.buckets(id).0);
        }
        // Joint space realizes far more distinct codes.
        assert!(
            joint.len() > 3 * single.len(),
            "joint {} vs single {}",
            joint.len(),
            single.len()
        );
    }

    #[test]
    fn gradients_split_between_tables() {
        let mut emb = make();
        let (a, b) = emb.buckets(5);
        let before_a = table(&emb, 0).row(a).unwrap().to_vec();
        let before_b = table(&emb, 1).row(b).unwrap().to_vec();
        emb.forward(&[5]).unwrap();
        let mut g = Tensor::zeros(&[1, 8]);
        for i in 0..4 {
            g.as_mut_slice()[i] = 1.0; // gradient only on the first half
        }
        emb.backward(&g).unwrap();
        let mut opt = memcom_nn::Sgd::new(0.1);
        emb.apply_gradients(&mut opt).unwrap();
        // Table A moved, table B untouched.
        assert!(table(&emb, 0)
            .row(a)
            .unwrap()
            .iter()
            .zip(&before_a)
            .all(|(x, y)| (x - (y - 0.1)).abs() < 1e-6));
        assert_eq!(table(&emb, 1).row(b).unwrap(), &before_b[..]);
    }

    #[test]
    fn param_count_and_validation() {
        assert_eq!(make().param_count(), 2 * 20 * 4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(DoubleHashEmbedding::new(100, 7, 10, &mut rng).is_err()); // odd dim
        assert!(DoubleHashEmbedding::new(10, 8, 11, &mut rng).is_err());
        assert!(DoubleHashEmbedding::new(0, 8, 1, &mut rng).is_err());
    }
}
