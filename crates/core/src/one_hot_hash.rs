//! Weinberger feature hashing over one-hot inputs (Table 3 baseline).

use memcom_tensor::{init, ops, Tensor};
use rand::Rng;

use crate::compressor::{check_ids, CompressorState, EmbeddingCompressor, ParamTable};
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
/// `mmap`-friendly lookup on phones. The [`lookup`](Self::lookup) path here
/// deliberately performs the real one-hot matmul so the on-device simulator
/// measures the honest cost.
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

    /// Materializes the `[ids.len(), hash_size]` one-hot matrix — the
    /// memory hog Table 3 measures.
    pub fn encode_one_hot(&self, ids: &[usize]) -> Result<Tensor> {
        check_ids(ids, self.vocab_size())?;
        let hashed: Vec<usize> = ids.iter().map(|&i| self.bucket(i)).collect();
        let hash_size = self.state.tables[0].tensor().shape().dims()[0];
        Ok(ops::one_hot(&hashed, hash_size))
    }
}

/// The only technique that overrides the skeleton's `lookup` and
/// `backward`: the one-hot matmul *is* the §5.3 cost being reproduced, so
/// a batch goes through it whole instead of row by row.
impl EmbeddingCompressor for OneHotHashEncoder {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn lookup(&self, ids: &[usize]) -> Result<Tensor> {
        // Deliberate full one-hot × kernel matmul; see the type docs.
        let one_hot = self.encode_one_hot(ids)?;
        Ok(ops::matmul(&one_hot, self.state.tables[0].tensor())?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<()> {
        let ids = self.state.take_ids(grad_out)?;
        // dK = one_hotᵀ · dy, accumulated densely (the kernel is dense).
        let one_hot = self.encode_one_hot(&ids)?;
        let dk = ops::matmul(&one_hot.transpose()?, grad_out)?;
        self.state.tables[0].dense_grad().1.axpy(1.0, &dk)?;
        Ok(())
    }

    fn accumulate_row(&mut self, id: usize, grad: &[f32]) -> Result<()> {
        let bucket = self.bucket(id);
        let row = self.state.tables[0].dense_grad().1.row_mut(bucket)?;
        for (o, &g) in row.iter_mut().zip(grad) {
            *o += g;
        }
        Ok(())
    }

    fn method_name(&self) -> &'static str {
        "weinberger_onehot"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn one_hot_has_single_one_per_row() {
        let enc = make();
        let oh = enc.encode_one_hot(&[1, 2, 3]).unwrap();
        for r in 0..3 {
            let row = oh.row(r).unwrap();
            assert_eq!(row.iter().filter(|&&x| x == 1.0).count(), 1);
            assert_eq!(row.iter().filter(|&&x| x == 0.0).count(), 15);
        }
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
        // The row-wise accumulate is the same gradient without the matmul.
        let mut row_wise = make();
        row_wise.accumulate_row(7, &[1.0; 4]).unwrap();
        row_wise.apply_gradients(&mut opt).unwrap();
        assert_eq!(kernel(&row_wise), kernel(&enc));
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
