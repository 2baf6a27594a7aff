//! 1-D batch normalization (`BatchNormalization` in Keras).

use memcom_tensor::{ops, Tensor};

use crate::layer::{Layer, Mode, ParamId, ParamVisitor};
use crate::{NnError, Result};

/// Batch normalization over the feature axis of `[batch, features]`
/// activations.
///
/// Training mode normalizes with batch statistics and maintains exponential
/// moving averages; eval mode normalizes with the moving averages. The
/// backward pass implements the full batch-norm gradient (including the
/// terms through the batch mean and variance), verified against finite
/// differences in the tests.
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    gamma_id: ParamId,
    beta_id: ParamId,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    batch: usize,
}

impl BatchNorm1d {
    /// Keras-default construction: `momentum = 0.99`, `eps = 1e-3`.
    pub fn new(features: usize) -> Self {
        Self::with_hyper(features, 0.99, 1e-3)
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics when `features == 0`, `momentum ∉ [0,1]`, or `eps <= 0` —
    /// these are configuration bugs.
    pub fn with_hyper(features: usize, momentum: f32, eps: f32) -> Self {
        assert!(features > 0, "batch norm needs at least one feature");
        assert!((0.0..=1.0).contains(&momentum), "momentum must be in [0,1]");
        assert!(eps > 0.0, "eps must be positive");
        BatchNorm1d {
            gamma: Tensor::ones(&[features]),
            beta: Tensor::zeros(&[features]),
            grad_gamma: Tensor::zeros(&[features]),
            grad_beta: Tensor::zeros(&[features]),
            gamma_id: ParamId::fresh(),
            beta_id: ParamId::fresh(),
            running_mean: Tensor::zeros(&[features]),
            running_var: Tensor::ones(&[features]),
            momentum,
            eps,
            cache: None,
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }

    /// The numerical-stability epsilon (needed to reproduce eval-mode
    /// normalization from serialized state).
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Borrow `(gamma, beta, running_mean, running_var)` for serialization.
    pub fn state(&self) -> (&Tensor, &Tensor, &Tensor, &Tensor) {
        (
            &self.gamma,
            &self.beta,
            &self.running_mean,
            &self.running_var,
        )
    }

    /// Restores `(gamma, beta, running_mean, running_var)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when any shape mismatches.
    pub fn set_state(
        &mut self,
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    ) -> Result<()> {
        for t in [&gamma, &beta, &running_mean, &running_var] {
            if t.shape() != self.gamma.shape() {
                return Err(NnError::BadInput {
                    context: format!(
                        "batch-norm state expects shape {}, got {}",
                        self.gamma.shape(),
                        t.shape()
                    ),
                });
            }
        }
        self.gamma = gamma;
        self.beta = beta;
        self.running_mean = running_mean;
        self.running_var = running_var;
        Ok(())
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.shape().rank() != 2 || input.shape().dims()[1] != self.features() {
            return Err(NnError::BadInput {
                context: format!(
                    "batch norm expects [batch, {}], got {}",
                    self.features(),
                    input.shape()
                ),
            });
        }
        Ok(())
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.check_input(input)?;
        let b = input.shape().dims()[0];
        let d = self.features();
        match mode {
            Mode::Train => {
                if b == 0 {
                    return Err(NnError::BadInput {
                        context: "batch norm cannot train on an empty batch".into(),
                    });
                }
                let mean = ops::mean_axis(input, 0)?;
                let centered = input.sub(&mean)?;
                let var = ops::mean_axis(&centered.mul(&centered)?, 0)?;
                let inv_std: Vec<f32> = var
                    .as_slice()
                    .iter()
                    .map(|&v| 1.0 / (v + self.eps).sqrt())
                    .collect();
                let inv_std_t = Tensor::from_vec(inv_std.clone(), &[d])?;
                let x_hat = centered.mul(&inv_std_t)?;
                let out = x_hat.mul(&self.gamma)?.add(&self.beta)?;
                // Exponential moving averages (Keras convention:
                // running = momentum*running + (1-momentum)*batch).
                let m = self.momentum;
                let new_mean = self.running_mean.scale(m).add(&mean.scale(1.0 - m))?;
                let new_var = self.running_var.scale(m).add(&var.scale(1.0 - m))?;
                self.running_mean = new_mean;
                self.running_var = new_var;
                self.cache = Some(BnCache {
                    x_hat,
                    inv_std,
                    batch: b,
                });
                Ok(out)
            }
            Mode::Eval => {
                let inv_std: Vec<f32> = self
                    .running_var
                    .as_slice()
                    .iter()
                    .map(|&v| 1.0 / (v + self.eps).sqrt())
                    .collect();
                let inv_std_t = Tensor::from_vec(inv_std, &[d])?;
                let x_hat = input.sub(&self.running_mean)?.mul(&inv_std_t)?;
                Ok(x_hat.mul(&self.gamma)?.add(&self.beta)?)
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "batchnorm".into(),
            })?;
        let BnCache {
            x_hat,
            inv_std,
            batch,
        } = cache;
        let d = self.features();
        // Parameter gradients.
        let dgamma = ops::sum_axis(&grad_out.mul(&x_hat)?, 0)?;
        let dbeta = ops::sum_axis(grad_out, 0)?;
        self.grad_gamma.axpy(1.0, &dgamma)?;
        self.grad_beta.axpy(1.0, &dbeta)?;
        // Input gradient:
        // dx = (gamma * inv_std / b) * (b*dy - Σdy - x_hat * Σ(dy*x_hat))
        let n = batch as f32;
        let sum_dy = ops::sum_axis(grad_out, 0)?;
        let sum_dy_xhat = ops::sum_axis(&grad_out.mul(&x_hat)?, 0)?;
        let term = grad_out
            .scale(n)
            .sub(&sum_dy)?
            .sub(&x_hat.mul(&sum_dy_xhat)?)?;
        let inv_std_t = Tensor::from_vec(inv_std, &[d])?;
        let coeff = self.gamma.mul(&inv_std_t)?.scale(1.0 / n);
        Ok(term.mul(&coeff)?)
    }

    fn zero_grad(&mut self) {
        self.grad_gamma.map_inplace(|_| 0.0);
        self.grad_beta.map_inplace(|_| 0.0);
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        f(self.gamma_id, &mut self.gamma, &mut self.grad_gamma);
        f(self.beta_id, &mut self.beta, &mut self.grad_beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm1d"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm1d::with_hyper(2, 0.9, 1e-5);
        let x = Tensor::from_vec(vec![1., 10., 3., 20., 5., 30.], &[3, 2]).unwrap();
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-feature mean ≈ 0, var ≈ 1 (gamma=1, beta=0).
        let mean = ops::mean_axis(&y, 0).unwrap();
        assert!(mean.as_slice().iter().all(|&m| m.abs() < 1e-5));
        let var = ops::mean_axis(&y.mul(&y).unwrap(), 0).unwrap();
        assert!(
            var.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-3),
            "{var:?}"
        );
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm1d::with_hyper(1, 0.0, 1e-5); // momentum 0 → adopt batch stats
        let x = Tensor::from_vec(vec![0., 2.], &[2, 1]).unwrap();
        bn.forward(&x, Mode::Train).unwrap();
        // Running mean = 1, var = 1. Eval of x=1 → 0.
        let y = bn
            .forward(&Tensor::from_vec(vec![1.], &[1, 1]).unwrap(), Mode::Eval)
            .unwrap();
        assert!(y.as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn rejects_bad_shapes_and_empty_batch() {
        let mut bn = BatchNorm1d::new(3);
        assert!(bn.forward(&Tensor::zeros(&[2, 2]), Mode::Train).is_err());
        assert!(bn.forward(&Tensor::zeros(&[0, 3]), Mode::Train).is_err());
        assert!(bn.backward(&Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn gradcheck_full_backward() {
        let mut rng = StdRng::seed_from_u64(11);
        let bn = BatchNorm1d::with_hyper(4, 0.9, 1e-3);
        gradcheck::check_layer(Box::new(bn), &[6, 4], 2e-2, &mut rng).unwrap();
    }

    #[test]
    fn state_round_trip() {
        let mut bn = BatchNorm1d::new(2);
        let g = Tensor::from_vec(vec![2., 3.], &[2]).unwrap();
        let b = Tensor::from_vec(vec![-1., 1.], &[2]).unwrap();
        let m = Tensor::from_vec(vec![0.5, 0.5], &[2]).unwrap();
        let v = Tensor::from_vec(vec![4., 4.], &[2]).unwrap();
        bn.set_state(g.clone(), b.clone(), m.clone(), v.clone())
            .unwrap();
        let (g2, b2, m2, v2) = bn.state();
        assert_eq!((&g, &b, &m, &v), (g2, b2, m2, v2));
        assert!(bn
            .set_state(
                Tensor::zeros(&[3]),
                Tensor::zeros(&[2]),
                Tensor::zeros(&[2]),
                Tensor::zeros(&[2])
            )
            .is_err());
    }

    #[test]
    fn param_count_is_two_per_feature() {
        let mut bn = BatchNorm1d::new(7);
        assert_eq!(Layer::param_count(&mut bn), 14);
    }
}
