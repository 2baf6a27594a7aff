//! Quotient–remainder trick (Shi et al., 2019; Algorithm 1 of the paper).

use memcom_tensor::{init, Tensor};
use rand::Rng;

use crate::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
use crate::hashing::RowMap;
use crate::recipe::{Combine, Recipe};
use crate::{CoreError, Result};

/// How the remainder and quotient embeddings are composed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QrCombiner {
    /// Elementwise multiplication `U[i mod m] ⊙ V[i \ m]` — Algorithm 1 as
    /// published.
    Multiply,
    /// Concatenation of two `e/2` halves — the variant the paper also
    /// benchmarks ("one where the compositional operator is concatenation").
    Concat,
}

/// Quotient–remainder compositional embedding: the id is decomposed as
/// `i = q·m + r`, the remainder indexes `U ∈ ℝ^{m×e'}`, the quotient
/// indexes `V ∈ ℝ^{⌈v/m⌉×e'}`, and the two are combined. The pair `(q, r)`
/// is unique per id, so every entity gets a distinct (but *constrained*)
/// embedding function.
#[derive(Debug)]
pub struct QuotientRemainder {
    /// `U` (remainder, `m × e'`) then `V` (quotient, `⌈v/m⌉ × e'`).
    state: CompressorState,
    combiner: QrCombiner,
}

impl QuotientRemainder {
    /// Creates the two tables for vocabulary `vocab`, output dim `dim`, and
    /// remainder-table size `m`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes, `m > vocab`, or an
    /// odd `dim` with [`QrCombiner::Concat`].
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        dim: usize,
        m: usize,
        combiner: QrCombiner,
        rng: &mut R,
    ) -> Result<Self> {
        if vocab == 0 || dim == 0 || m == 0 {
            return Err(CoreError::BadConfig {
                context: format!(
                    "quotient-remainder needs positive sizes, got v={vocab} e={dim} m={m}"
                ),
            });
        }
        if m > vocab {
            return Err(CoreError::BadConfig {
                context: format!("remainder size {m} exceeds vocabulary {vocab}"),
            });
        }
        let part_dim = match combiner {
            QrCombiner::Multiply => dim,
            QrCombiner::Concat => {
                if !dim.is_multiple_of(2) {
                    return Err(CoreError::BadConfig {
                        context: format!("concat combiner requires even dim, got {dim}"),
                    });
                }
                dim / 2
            }
        };
        let quotient_rows = vocab.div_ceil(m);
        let remainder = init::embedding_uniform(&[m, part_dim], rng);
        // Multiplicative composition wants the quotient side near 1 so
        // the product starts at embedding scale (ALBERT-style init
        // would start products at ~1e-3, stalling training).
        let quotient = match combiner {
            QrCombiner::Multiply => {
                let mut t = Tensor::rand_uniform(&[quotient_rows, part_dim], -0.05, 0.05, rng);
                t.map_inplace(|x| 1.0 + x);
                t
            }
            QrCombiner::Concat => init::embedding_uniform(&[quotient_rows, part_dim], rng),
        };
        let tables = vec![
            ParamTable::sparse("remainder", remainder),
            ParamTable::sparse("quotient", quotient),
        ];
        let combine = match combiner {
            QrCombiner::Multiply => Combine::Mul,
            QrCombiner::Concat => Combine::Concat,
        };
        let recipe = Recipe::new([RowMap::Mod(m), RowMap::Div(m)], combine);
        Ok(QuotientRemainder {
            state: CompressorState::new(vocab, dim, tables, recipe),
            combiner,
        })
    }

    /// Decomposes an id into `(quotient, remainder)`.
    pub fn decompose(&self, id: usize) -> (usize, usize) {
        let maps = &self.state.recipe().maps;
        (maps[1].row(id), maps[0].row(id))
    }
}

impl EmbeddingCompressor for QuotientRemainder {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        match self.combiner {
            QrCombiner::Multiply => "qr_mult",
            QrCombiner::Concat => "qr_concat",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn make(combiner: QrCombiner) -> QuotientRemainder {
        let mut rng = StdRng::seed_from_u64(0);
        QuotientRemainder::new(100, 8, 10, combiner, &mut rng).unwrap()
    }

    #[test]
    fn decomposition_unique_per_id() {
        let qr = make(QrCombiner::Multiply);
        let codes: HashSet<(usize, usize)> = (0..100).map(|i| qr.decompose(i)).collect();
        assert_eq!(codes.len(), 100); // every id gets a unique (q, r) pair
    }

    #[test]
    fn multiply_composition_matches_tables() {
        let qr = make(QrCombiner::Multiply);
        let out = qr.lookup(&[37]).unwrap();
        let (q, r) = qr.decompose(37);
        let rem = qr.state.tables[0].row(r).unwrap();
        let quo = qr.state.tables[1].row(q).unwrap();
        for ((o, &a), &b) in out.row(0).unwrap().iter().zip(rem).zip(quo) {
            assert!((o - a * b).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_composition_matches_tables() {
        let qr = make(QrCombiner::Concat);
        let out = qr.lookup(&[37]).unwrap();
        let (q, r) = qr.decompose(37);
        assert_eq!(
            &out.row(0).unwrap()[..4],
            qr.state.tables[0].row(r).unwrap()
        );
        assert_eq!(
            &out.row(0).unwrap()[4..],
            qr.state.tables[1].row(q).unwrap()
        );
    }

    #[test]
    fn all_ids_have_distinct_embeddings() {
        // Property 1 of §4: QR supports a unique vector per category.
        let qr = make(QrCombiner::Multiply);
        let ids: Vec<usize> = (0..100).collect();
        let out = qr.lookup(&ids).unwrap();
        let mut seen: Vec<Vec<u32>> = Vec::new();
        for i in 0..100 {
            let bits: Vec<u32> = out.row(i).unwrap().iter().map(|f| f.to_bits()).collect();
            assert!(!seen.contains(&bits), "id {i} duplicated an embedding");
            seen.push(bits);
        }
    }

    #[test]
    fn multiply_gradients_product_rule() {
        let mut qr = make(QrCombiner::Multiply);
        let ids = [37usize];
        qr.forward(&ids).unwrap();
        let g = Tensor::ones(&[1, 8]);
        let (q, r) = qr.decompose(37);
        let rem_before = qr.state.tables[0].row(r).unwrap().to_vec();
        let quo_before = qr.state.tables[1].row(q).unwrap().to_vec();
        qr.backward(&g).unwrap();
        let mut opt = memcom_nn::Sgd::new(1.0);
        qr.apply_gradients(&mut opt).unwrap();
        for i in 0..8 {
            let want_rem = rem_before[i] - quo_before[i];
            let want_quo = quo_before[i] - rem_before[i];
            assert!((qr.state.tables[0].row(r).unwrap()[i] - want_rem).abs() < 1e-6);
            assert!((qr.state.tables[1].row(q).unwrap()[i] - want_quo).abs() < 1e-6);
        }
    }

    #[test]
    fn param_counts() {
        // m=10 rows + ceil(100/10)=10 rows, dims 8 (mult) vs 4 (concat).
        assert_eq!(make(QrCombiner::Multiply).param_count(), 20 * 8);
        assert_eq!(make(QrCombiner::Concat).param_count(), 20 * 4);
        assert_eq!(make(QrCombiner::Multiply).method_name(), "qr_mult");
        assert_eq!(make(QrCombiner::Concat).method_name(), "qr_concat");
    }

    #[test]
    fn validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(QuotientRemainder::new(10, 7, 2, QrCombiner::Concat, &mut rng).is_err());
        assert!(QuotientRemainder::new(10, 8, 11, QrCombiner::Multiply, &mut rng).is_err());
        assert!(QuotientRemainder::new(0, 8, 1, QrCombiner::Multiply, &mut rng).is_err());
        let qr = make(QrCombiner::Multiply);
        assert!(qr.lookup(&[100]).is_err());
    }

    #[test]
    fn uneven_vocab_rounds_quotient_rows_up() {
        let mut rng = StdRng::seed_from_u64(0);
        let qr = QuotientRemainder::new(101, 8, 10, QrCombiner::Multiply, &mut rng).unwrap();
        // id 100 → q=10 requires an 11th quotient row.
        assert!(qr.lookup(&[100]).is_ok());
        assert_eq!(qr.param_count(), (10 + 11) * 8);
    }
}
