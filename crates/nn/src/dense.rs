//! Fully connected layer (`Dense` in Keras terms).

use memcom_tensor::{init, ops, Tensor};
use rand::Rng;

use crate::layer::{Layer, Mode, ParamId, ParamVisitor};
use crate::{NnError, Result};

/// `y = x·W + b` with `W ∈ ℝ^{in×out}`, `b ∈ ℝ^{out}`.
///
/// The kernel uses Glorot-uniform initialization and the bias starts at
/// zero, matching Keras defaults (the paper trains the Code-1 network with
/// Keras defaults).
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    weight_id: ParamId,
    bias_id: ParamId,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer mapping `in_dim → out_dim`.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Dense {
            weight: init::glorot_uniform(in_dim, out_dim, rng),
            bias: Tensor::zeros(&[out_dim]),
            grad_weight: Tensor::zeros(&[in_dim, out_dim]),
            grad_bias: Tensor::zeros(&[out_dim]),
            weight_id: ParamId::fresh(),
            bias_id: ParamId::fresh(),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape().dims()[1]
    }

    /// Borrows the kernel (used by serialization and tests).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Borrows the bias (used by serialization and tests).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Replaces the kernel and bias (used by deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when shapes do not match the layer.
    pub fn set_weights(&mut self, weight: Tensor, bias: Tensor) -> Result<()> {
        if weight.shape() != self.weight.shape() || bias.shape() != self.bias.shape() {
            return Err(NnError::BadInput {
                context: format!(
                    "set_weights expects shapes {} and {}, got {} and {}",
                    self.weight.shape(),
                    self.bias.shape(),
                    weight.shape(),
                    bias.shape()
                ),
            });
        }
        self.weight = weight;
        self.bias = bias;
        Ok(())
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.shape().dims()[1] != self.in_dim() {
            return Err(NnError::BadInput {
                context: format!(
                    "dense expects [batch, {}], got {}",
                    self.in_dim(),
                    input.shape()
                ),
            });
        }
        self.cached_input = Some(input.clone());
        let y = ops::matmul(input, &self.weight)?;
        // Broadcast bias over the batch: [b, out] + [out].
        Ok(y.add(&self.bias)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "dense".into(),
            })?;
        // dW += xᵀ·dy ; db += Σ_batch dy ; dx = dy·Wᵀ
        let dw = ops::matmul(&input.transpose()?, grad_out)?;
        self.grad_weight.axpy(1.0, &dw)?;
        let db = ops::sum_axis(grad_out, 0)?;
        self.grad_bias.axpy(1.0, &db)?;
        Ok(ops::matmul(grad_out, &self.weight.transpose()?)?)
    }

    fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        f(self.weight_id, &mut self.weight, &mut self.grad_weight);
        f(self.bias_id, &mut self.bias, &mut self.grad_bias);
    }

    fn name(&self) -> &'static str {
        "dense"
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
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        layer
            .set_weights(
                Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], &[3, 2]).unwrap(),
                Tensor::from_vec(vec![10., 20.], &[2]).unwrap(),
            )
            .unwrap();
        let x = Tensor::from_vec(vec![1., 2., 3.], &[1, 3]).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[14., 25.]);
    }

    #[test]
    fn rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        assert!(layer.forward(&Tensor::zeros(&[2, 4]), Mode::Eval).is_err());
        assert!(layer.forward(&Tensor::zeros(&[3]), Mode::Eval).is_err());
        assert!(layer.backward(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn set_weights_validates_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        assert!(layer
            .set_weights(Tensor::zeros(&[2, 2]), Tensor::zeros(&[2]))
            .is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(5, 4, &mut rng);
        assert_eq!(Layer::param_count(&mut layer), 5 * 4 + 4);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(4, 3, &mut rng);
        gradcheck::check_layer(Box::new(layer), &[2, 4], 1e-2, &mut rng).unwrap();
    }

    #[test]
    fn backward_accumulates_until_zero_grad() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let dy = Tensor::ones(&[1, 2]);
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&dy).unwrap();
        let mut first = Tensor::default();
        layer.visit_params(&mut |_, _, g| {
            if g.shape().rank() == 2 {
                first = g.clone();
            }
        });
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&dy).unwrap();
        layer.visit_params(&mut |_, _, g| {
            if g.shape().rank() == 2 {
                assert!(g.allclose(&first.scale(2.0), 1e-6));
            }
        });
        layer.zero_grad();
        layer.visit_params(&mut |_, _, g| assert_eq!(g.sum(), 0.0));
    }
}
