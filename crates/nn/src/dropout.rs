//! Inverted dropout.

use memcom_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layer::{Layer, Mode, ParamVisitor};
use crate::{NnError, Result};

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by `1/(1-rate)` so the
/// expected activation is unchanged; at eval time the layer is the
/// identity. The layer owns a seeded RNG so training runs are reproducible.
#[derive(Debug)]
pub struct Dropout {
    rate: f32,
    rng: StdRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `rate ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)` — a configuration bug, not a
    /// runtime condition.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        Dropout {
            rate,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        match mode {
            Mode::Eval => {
                self.mask = Some(Tensor::ones(input.shape().dims()));
                Ok(input.clone())
            }
            Mode::Train => {
                if self.rate == 0.0 {
                    self.mask = Some(Tensor::ones(input.shape().dims()));
                    return Ok(input.clone());
                }
                let keep = 1.0 - self.rate;
                let scale = 1.0 / keep;
                let mut mask = Tensor::zeros(input.shape().dims());
                for m in mask.as_mut_slice() {
                    if self.rng.gen::<f32>() < keep {
                        *m = scale;
                    }
                }
                let out = input.mul(&mask)?;
                self.mask = Some(mask);
                Ok(out)
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "dropout".into(),
            })?;
        Ok(grad_out.mul(&mask)?)
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut ParamVisitor<'_>) {}

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut layer = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1., 2., 3.], &[3]).unwrap();
        assert_eq!(layer.forward(&x, Mode::Eval).unwrap(), x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut layer = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[10_000]);
        let y = layer.forward(&x, Mode::Train).unwrap();
        // E[y] = 1; allow Monte-Carlo slack.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are exactly scaled.
        let keep_scale = 1.0 / 0.7;
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - keep_scale).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut layer = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[100]);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let dx = layer.backward(&Tensor::ones(&[100])).unwrap();
        // Gradient flows exactly where activations flowed.
        for (a, b) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(a == &0.0, b == &0.0);
        }
    }

    #[test]
    fn zero_rate_is_identity_in_train() {
        let mut layer = Dropout::new(0.0, 4);
        let x = Tensor::from_vec(vec![5., -1.], &[2]).unwrap();
        assert_eq!(layer.forward(&x, Mode::Train).unwrap(), x);
    }

    #[test]
    fn seeded_reproducibility() {
        let x = Tensor::ones(&[64]);
        let mut a = Dropout::new(0.4, 9);
        let mut b = Dropout::new(0.4, 9);
        assert_eq!(
            a.forward(&x, Mode::Train).unwrap(),
            b.forward(&x, Mode::Train).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rejects_rate_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
