//! Declarative construction of any compression technique.
//!
//! The experiment harness sweeps dozens of (technique, hyperparameter)
//! points per figure; [`MethodSpec`] is the serializable description of one
//! such point and [`MethodSpec::build`] instantiates the compressor.

use rand::Rng;

use crate::compressor::EmbeddingCompressor;
use crate::double_hash::DoubleHashEmbedding;
use crate::factorized::FactorizedEmbedding;
use crate::memcom::{MemCom, MemComConfig};
use crate::one_hot_hash::OneHotHashEncoder;
use crate::quotient_remainder::{QrCombiner, QuotientRemainder};
use crate::single_table::{
    FullEmbedding, NaiveHashEmbedding, ReducedDimEmbedding, TruncateRareEmbedding,
};
use crate::Result;

/// One embedding-compression configuration, as plotted in Figures 1–3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MethodSpec {
    /// Uncompressed `v × e` table (the baseline of every figure).
    Uncompressed,
    /// MEmCom with `hash_size` shared rows (Algorithm 2/3).
    MemCom {
        /// Rows in the shared table `U`.
        hash_size: usize,
        /// Whether to add the per-entity bias `W` (Algorithm 3).
        bias: bool,
    },
    /// Naive `i mod m` hashing.
    NaiveHash {
        /// Rows in the hashed table.
        hash_size: usize,
    },
    /// Double hashing with concatenated halves.
    DoubleHash {
        /// Rows in each of the two hashed tables.
        hash_size: usize,
    },
    /// Quotient–remainder with the chosen combiner.
    QuotientRemainder {
        /// Rows in the remainder table.
        hash_size: usize,
        /// Whether halves multiply or concatenate.
        combiner: QrCombiner,
    },
    /// Factorized (low-rank) embedding with inner rank `hidden`.
    Factorized {
        /// Inner factorization rank `h`.
        hidden: usize,
    },
    /// Full table at a reduced dimension.
    ReduceDim {
        /// The reduced embedding size.
        dim: usize,
    },
    /// Keep only the `keep` most frequent entities.
    TruncateRare {
        /// Number of entities that keep their own embedding.
        keep: usize,
    },
    /// Weinberger one-hot feature hashing (Table 3 runtime baseline).
    WeinbergerOneHot {
        /// One-hot width / kernel rows.
        hash_size: usize,
    },
}

impl MethodSpec {
    /// Instantiates the compressor for vocabulary `vocab` at reference
    /// embedding dimension `dim`.
    ///
    /// # Errors
    ///
    /// Propagates the constructor validation of the chosen technique.
    pub fn build<R: Rng + ?Sized>(
        &self,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Result<Box<dyn EmbeddingCompressor>> {
        Ok(match *self {
            MethodSpec::Uncompressed => Box::new(FullEmbedding::new(vocab, dim, rng)?),
            MethodSpec::MemCom { hash_size, bias } => {
                let cfg = if bias {
                    MemComConfig::with_bias(vocab, dim, hash_size)
                } else {
                    MemComConfig::new(vocab, dim, hash_size)
                };
                Box::new(MemCom::new(cfg, rng)?)
            }
            MethodSpec::NaiveHash { hash_size } => {
                Box::new(NaiveHashEmbedding::new(vocab, dim, hash_size, rng)?)
            }
            MethodSpec::DoubleHash { hash_size } => {
                Box::new(DoubleHashEmbedding::new(vocab, dim, hash_size, rng)?)
            }
            MethodSpec::QuotientRemainder {
                hash_size,
                combiner,
            } => Box::new(QuotientRemainder::new(
                vocab, dim, hash_size, combiner, rng,
            )?),
            MethodSpec::Factorized { hidden } => {
                Box::new(FactorizedEmbedding::new(vocab, dim, hidden, rng)?)
            }
            MethodSpec::ReduceDim { dim: reduced } => {
                Box::new(ReducedDimEmbedding::new(vocab, reduced, dim, rng)?)
            }
            MethodSpec::TruncateRare { keep } => {
                Box::new(TruncateRareEmbedding::new(vocab, dim, keep, rng)?)
            }
            MethodSpec::WeinbergerOneHot { hash_size } => {
                Box::new(OneHotHashEncoder::new(vocab, dim, hash_size, rng)?)
            }
        })
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            MethodSpec::Uncompressed => "uncompressed".into(),
            MethodSpec::MemCom {
                hash_size,
                bias: true,
            } => format!("memcom(m={hash_size})"),
            MethodSpec::MemCom {
                hash_size,
                bias: false,
            } => {
                format!("memcom_nobias(m={hash_size})")
            }
            MethodSpec::NaiveHash { hash_size } => format!("naive_hash(m={hash_size})"),
            MethodSpec::DoubleHash { hash_size } => format!("double_hash(m={hash_size})"),
            MethodSpec::QuotientRemainder {
                hash_size,
                combiner: QrCombiner::Multiply,
            } => {
                format!("qr_mult(m={hash_size})")
            }
            MethodSpec::QuotientRemainder {
                hash_size,
                combiner: QrCombiner::Concat,
            } => {
                format!("qr_concat(m={hash_size})")
            }
            MethodSpec::Factorized { hidden } => format!("factorized(h={hidden})"),
            MethodSpec::ReduceDim { dim } => format!("reduce_dim(e={dim})"),
            MethodSpec::TruncateRare { keep } => format!("truncate_rare(k={keep})"),
            MethodSpec::WeinbergerOneHot { hash_size } => format!("weinberger(m={hash_size})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_specs() -> Vec<MethodSpec> {
        vec![
            MethodSpec::Uncompressed,
            MethodSpec::MemCom {
                hash_size: 10,
                bias: true,
            },
            MethodSpec::MemCom {
                hash_size: 10,
                bias: false,
            },
            MethodSpec::NaiveHash { hash_size: 10 },
            MethodSpec::DoubleHash { hash_size: 10 },
            MethodSpec::QuotientRemainder {
                hash_size: 10,
                combiner: QrCombiner::Multiply,
            },
            MethodSpec::QuotientRemainder {
                hash_size: 10,
                combiner: QrCombiner::Concat,
            },
            MethodSpec::Factorized { hidden: 4 },
            MethodSpec::ReduceDim { dim: 8 },
            MethodSpec::TruncateRare { keep: 20 },
            MethodSpec::WeinbergerOneHot { hash_size: 10 },
        ]
    }

    #[test]
    fn every_spec_builds_and_looks_up() {
        let mut rng = StdRng::seed_from_u64(0);
        for spec in all_specs() {
            let emb = spec.build(100, 16, &mut rng).unwrap_or_else(|e| {
                panic!("spec {spec:?} failed to build: {e}");
            });
            let out = emb.lookup(&[0, 50, 99]).unwrap();
            assert_eq!(out.shape().dims()[0], 3);
            assert_eq!(out.shape().dims()[1], emb.output_dim());
            assert!(emb.param_count() > 0);
        }
    }

    #[test]
    fn embed_into_matches_lookup_for_every_spec() {
        use crate::CoreError;
        let mut rng = StdRng::seed_from_u64(17);
        for spec in all_specs() {
            let emb = spec.build(100, 16, &mut rng).unwrap();
            let mut out = vec![0.0f32; emb.output_dim()];
            for id in [0usize, 1, 49, 99] {
                emb.embed_into(id, &mut out).unwrap();
                let want = emb.lookup(&[id]).unwrap();
                assert_eq!(out.as_slice(), want.as_slice(), "{spec:?} id {id}");
            }
            // Buffer poisoning between calls must not leak into results
            // (catches additive implementations that skip the reset).
            out.fill(f32::NAN);
            emb.embed_into(7, &mut out).unwrap();
            assert_eq!(
                out.as_slice(),
                emb.lookup(&[7]).unwrap().as_slice(),
                "{spec:?} poisoned buffer"
            );
            assert!(matches!(
                emb.embed_into(100, &mut out),
                Err(CoreError::IdOutOfVocab {
                    id: 100,
                    vocab: 100
                })
            ));
            let mut short = vec![0.0f32; emb.output_dim() - 1];
            assert!(matches!(
                emb.embed_into(0, &mut short),
                Err(CoreError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn labels_are_distinct_and_informative() {
        let labels: Vec<String> = all_specs().iter().map(|s| s.label()).collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
        assert!(labels.iter().any(|l| l.contains("memcom")));
    }

    #[test]
    fn only_reduce_dim_changes_output_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        for spec in all_specs() {
            let emb = spec.build(100, 16, &mut rng).unwrap();
            match spec {
                MethodSpec::ReduceDim { dim } => assert_eq!(emb.output_dim(), dim),
                _ => assert_eq!(emb.output_dim(), 16, "{spec:?}"),
            }
        }
    }

    #[test]
    fn bad_hyperparameters_propagate_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MethodSpec::MemCom {
            hash_size: 1000,
            bias: false
        }
        .build(100, 16, &mut rng)
        .is_err());
        assert!(MethodSpec::Factorized { hidden: 16 }
            .build(100, 16, &mut rng)
            .is_err());
    }
}
