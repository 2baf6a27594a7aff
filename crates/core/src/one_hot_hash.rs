//! Weinberger feature hashing over one-hot inputs (Table 3 baseline).

use memcom_tensor::init;
use rand::Rng;

use crate::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
use crate::hashing::RowMap;
use crate::recipe::{Combine, Recipe};
use crate::{CoreError, Result};

/// The fixed hash seed used by every [`OneHotHashEncoder`].
pub const ONE_HOT_SEED: u64 = 0x0E1_407;

/// Weinberger et al. (2009) feature hashing as the paper benchmarks it on
/// device: ids are hashed into an `m`-dimensional **one-hot vector** which
/// is then *matrix-multiplied* with a dense `m × e` kernel.
///
/// Mathematically this selects the same row a lookup would, but the
/// compute/memory profile is completely different — the one-hot
/// materialization costs `O(b·m)` memory and the matmul touches the whole
/// kernel, which is exactly why Table 3 shows it losing to MEmCom's
/// `mmap`-friendly lookup on phones. The recipe says so
/// ([`Combine::OneHotMatmul`]) and `memcom_ondevice::engine` charges that
/// §5.3 cost for it; training runs the recipe like every other technique,
/// with the kernel trained densely.
#[derive(Debug)]
pub struct OneHotHashEncoder {
    /// The dense `m × e` kernel, read through a seeded map.
    state: CompressorState,
}

impl OneHotHashEncoder {
    /// Creates the hashing encoder with a `hash_size × dim` dense kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes.
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        dim: usize,
        hash_size: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if vocab == 0 || dim == 0 || hash_size == 0 {
            return Err(CoreError::BadConfig {
                context: format!(
                    "one-hot hashing needs positive sizes, got v={vocab} e={dim} m={hash_size}"
                ),
            });
        }
        let kernel = ParamTable::dense("kernel", init::glorot_uniform(hash_size, dim, rng));
        let map = RowMap::Seeded {
            m: hash_size,
            seed: ONE_HOT_SEED,
        };
        let recipe = Recipe::new([map], Combine::OneHotMatmul);
        Ok(OneHotHashEncoder {
            state: CompressorState::new(vocab, dim, vec![kernel], recipe),
        })
    }

    /// The hash bucket for `id`.
    pub fn bucket(&self, id: usize) -> usize {
        self.state.recipe().maps[0].row(id)
    }
}

impl EmbeddingCompressor for OneHotHashEncoder {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        "weinberger_onehot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make() -> OneHotHashEncoder {
        let mut rng = StdRng::seed_from_u64(0);
        OneHotHashEncoder::new(100, 4, 16, &mut rng).unwrap()
    }

    fn kernel(enc: &OneHotHashEncoder) -> &Tensor {
        enc.state.tables[0].tensor()
    }

    #[test]
    fn matmul_equals_row_selection() {
        // The one-hot matmul must produce exactly the hashed kernel row.
        let enc = make();
        let out = enc.lookup(&[42]).unwrap();
        let expect = kernel(&enc).row(enc.bucket(42)).unwrap();
        assert_eq!(out.row(0).unwrap(), expect);
    }

    #[test]
    fn gradient_flows_to_hashed_row() {
        let mut enc = make();
        let bucket = enc.bucket(7);
        let before = kernel(&enc).row(bucket).unwrap().to_vec();
        enc.forward(&[7]).unwrap();
        enc.backward(&Tensor::ones(&[1, 4])).unwrap();
        let mut opt = memcom_nn::Sgd::new(0.1);
        enc.apply_gradients(&mut opt).unwrap();
        for (b, a) in before.iter().zip(kernel(&enc).row(bucket).unwrap()) {
            assert!((a - (b - 0.1)).abs() < 1e-6);
        }
    }

    #[test]
    fn metadata() {
        let enc = make();
        assert_eq!(enc.param_count(), 64);
        assert_eq!(enc.method_name(), "weinberger_onehot");
        assert!(enc.lookup(&[100]).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(OneHotHashEncoder::new(0, 4, 16, &mut rng).is_err());
    }
}
