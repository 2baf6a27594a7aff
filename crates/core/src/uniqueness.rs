//! Embedding-uniqueness audit (§A.4 of the paper).
//!
//! The paper validates MEmCom's unique-embedding claim empirically: on a
//! trained Arcade model at 40x compression, more than 99.98% of multiplier
//! pairs sharing a `U` row differ by more than `1e-5`. This module
//! reproduces that audit for any trained layer whose recipe scales a
//! shared row by a per-entity multiplier ([`MemCom`](crate::MemCom)).

use std::collections::HashMap;

use crate::recipe::Combine;
use crate::{CoreError, EmbeddingCompressor, Result};

/// Result of auditing one trained MEmCom layer.
#[derive(Debug, Clone, PartialEq)]
pub struct UniquenessReport {
    /// Number of multiplier pairs that share a `U` row.
    pub shared_pairs: usize,
    /// Pairs whose multipliers differ by more than the threshold.
    pub distinct_pairs: usize,
    /// The comparison threshold (the paper uses `1e-5`).
    pub threshold: f32,
}

impl UniquenessReport {
    /// Fraction of shared-row pairs with distinct multipliers — the number
    /// the paper reports as "more than 99.98% of cases".
    pub fn distinct_fraction(&self) -> f64 {
        if self.shared_pairs == 0 {
            1.0
        } else {
            self.distinct_pairs as f64 / self.shared_pairs as f64
        }
    }
}

impl std::fmt::Display for UniquenessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4}% of {} same-bucket multiplier pairs differ by > {}",
            self.distinct_fraction() * 100.0,
            self.shared_pairs,
            self.threshold
        )
    }
}

/// Audits multiplier uniqueness over every pair of entities sharing a
/// hash bucket, using the paper's `1e-5` threshold.
///
/// # Errors
///
/// As [`audit_with_threshold`].
pub fn audit(layer: &dyn EmbeddingCompressor) -> Result<UniquenessReport> {
    audit_with_threshold(layer, 1e-5)
}

/// Audits with a custom threshold. The bucket of an id is the row its
/// recipe reads from table 0, its multiplier the value it reads from
/// table 1.
///
/// Buckets with `k` members contribute `k·(k−1)/2` pairs. For very large
/// vocabularies this is the dominant cost (the paper's Arcade audit is
/// ~300K ids in 7.5K buckets ⇒ ~6M pairs — fine in a release build).
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] unless the recipe is
/// [`Combine::ScaleMul`] or [`Combine::ScaleAdd`] — without a multiplier
/// there is nothing to audit.
pub fn audit_with_threshold(
    layer: &dyn EmbeddingCompressor,
    threshold: f32,
) -> Result<UniquenessReport> {
    let state = layer.state();
    let recipe = state.recipe();
    if !matches!(recipe.combine, Combine::ScaleMul | Combine::ScaleAdd) {
        return Err(CoreError::BadConfig {
            context: format!("{recipe:?} has no per-entity multiplier to audit"),
        });
    }
    let (bucket, multiplier) = (&recipe.maps[0], &recipe.maps[1]);
    let mults = state.tables[1].tensor().as_slice();
    let mut buckets: HashMap<usize, Vec<f32>> = HashMap::new();
    for id in 0..layer.vocab_size() {
        let mult = mults[multiplier.row(id)];
        buckets.entry(bucket.row(id)).or_default().push(mult);
    }
    let mut shared_pairs = 0usize;
    let mut distinct_pairs = 0usize;
    for members in buckets.values() {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                shared_pairs += 1;
                if (members[i] - members[j]).abs() > threshold {
                    distinct_pairs += 1;
                }
            }
        }
    }
    Ok(UniquenessReport {
        shared_pairs,
        distinct_pairs,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemCom, MemComConfig, NaiveHashEmbedding};
    use memcom_nn::Sgd;
    use memcom_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jittered_init_is_already_mostly_unique() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = MemCom::new(MemComConfig::new(1000, 8, 100), &mut rng).unwrap();
        let report = audit(&layer).unwrap();
        // 1000 ids in 100 buckets → 100 · C(10,2) = 4500 pairs.
        assert_eq!(report.shared_pairs, 4500);
        assert!(report.distinct_fraction() > 0.99, "{report}");
        // The bias variant reads the same bucket and multiplier.
        let biased = MemCom::new(MemComConfig::with_bias(1000, 8, 100), &mut rng).unwrap();
        assert_eq!(audit(&biased).unwrap().shared_pairs, 4500);
    }

    #[test]
    fn a_recipe_without_a_multiplier_is_refused() {
        let mut rng = StdRng::seed_from_u64(0);
        let naive = NaiveHashEmbedding::new(100, 4, 10, &mut rng).unwrap();
        assert!(matches!(audit(&naive), Err(CoreError::BadConfig { .. })));
    }

    #[test]
    fn zero_jitter_init_is_fully_degenerate() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MemComConfig {
            multiplier_jitter: 0.0,
            ..MemComConfig::new(100, 4, 10)
        };
        let layer = MemCom::new(cfg, &mut rng).unwrap();
        let report = audit(&layer).unwrap();
        assert_eq!(report.distinct_pairs, 0);
        assert_eq!(report.distinct_fraction(), 0.0);
    }

    #[test]
    fn training_restores_uniqueness_from_degenerate_init() {
        // Start with identical multipliers, push entities toward random
        // targets, and confirm the audit detects the divergence — the §A.4
        // mechanism end-to-end.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = MemComConfig {
            multiplier_jitter: 0.0,
            ..MemComConfig::new(40, 4, 8)
        };
        let mut layer = MemCom::new(cfg, &mut rng).unwrap();
        let mut opt = Sgd::new(0.3);
        let ids: Vec<usize> = (0..40).collect();
        let targets = Tensor::rand_uniform(&[40, 4], -1.0, 1.0, &mut rng);
        for _ in 0..60 {
            let out = layer.forward(&ids).unwrap();
            let grad = out.sub(&targets).unwrap().scale(1.0 / 40.0);
            layer.backward(&grad).unwrap();
            layer.apply_gradients(&mut opt).unwrap();
        }
        let report = audit(&layer).unwrap();
        assert!(
            report.distinct_fraction() > 0.95,
            "training failed to separate multipliers: {report}"
        );
    }

    #[test]
    fn report_display_and_empty_case() {
        let report = UniquenessReport {
            shared_pairs: 0,
            distinct_pairs: 0,
            threshold: 1e-5,
        };
        assert_eq!(report.distinct_fraction(), 1.0);
        assert!(report.to_string().contains('%'));
    }
}
