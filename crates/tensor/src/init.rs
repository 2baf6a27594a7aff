//! Weight initializers.
//!
//! The Keras network of the paper's Code 1 uses Keras defaults:
//! Glorot-uniform for dense kernels and uniform(-0.05, 0.05) for embedding
//! tables. Both are provided here, seeded through the caller's RNG.

use rand::Rng;

use crate::tensor::Tensor;

/// Glorot/Xavier-uniform initialization for a `[fan_in, fan_out]` dense
/// kernel: `U(-limit, limit)` with `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// # Example
///
/// ```
/// use memcom_tensor::init::glorot_uniform;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let w = glorot_uniform(64, 32, &mut rng);
/// assert_eq!(w.shape().dims(), &[64, 32]);
/// ```
pub fn glorot_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -limit, limit, rng)
}

/// Keras-default embedding initialization: `U(-0.05, 0.05)` over an
/// arbitrary shape.
pub fn embedding_uniform<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Tensor {
    Tensor::rand_uniform(dims, -0.05, 0.05, rng)
}

/// Initializes MEmCom multiplier tables around 1.0 so that at step 0 the
/// multiplied embedding equals the shared hashed row (`1 · U[j]`), which the
/// paper's joint training then perturbs per entity. `jitter` adds a small
/// uniform offset to break ties between entities in the same bucket.
pub fn multiplier_ones<R: Rng + ?Sized>(rows: usize, jitter: f32, rng: &mut R) -> Tensor {
    if jitter == 0.0 {
        Tensor::ones(&[rows, 1])
    } else {
        let mut t = Tensor::rand_uniform(&[rows, 1], -jitter, jitter, rng);
        t.map_inplace(|x| 1.0 + x);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = glorot_uniform(100, 50, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit));
        // Not degenerate.
        assert!(w.as_slice().iter().any(|&x| x.abs() > limit / 10.0));
    }

    #[test]
    fn embedding_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let e = embedding_uniform(&[1000, 8], &mut rng);
        assert!(e.as_slice().iter().all(|&x| x.abs() <= 0.05));
        assert_eq!(e.shape().dims(), &[1000, 8]);
    }

    #[test]
    fn multiplier_ones_centered() {
        let mut rng = StdRng::seed_from_u64(6);
        let exact = multiplier_ones(10, 0.0, &mut rng);
        assert!(exact.as_slice().iter().all(|&x| x == 1.0));
        let jittered = multiplier_ones(1000, 0.01, &mut rng);
        assert!(jittered.as_slice().iter().all(|&x| (x - 1.0).abs() <= 0.01));
        assert!((jittered.mean() - 1.0).abs() < 1e-3);
        assert_eq!(jittered.shape().dims(), &[1000, 1]);
    }

    #[test]
    fn seeded_reproducibility() {
        let w1 = glorot_uniform(10, 10, &mut StdRng::seed_from_u64(9));
        let w2 = glorot_uniform(10, 10, &mut StdRng::seed_from_u64(9));
        assert_eq!(w1, w2);
    }
}
