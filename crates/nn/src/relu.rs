//! Rectified linear unit layer.

use memcom_tensor::{ops, Tensor};

use crate::layer::{Layer, Mode, ParamVisitor};
use crate::{NnError, Result};

/// Elementwise `max(0, x)` with the standard subgradient (0 at x = 0).
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        self.mask = Some(ops::relu_grad_mask(input));
        Ok(ops::relu(input))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "relu".into(),
            })?;
        Ok(grad_out.mul(&mask)?)
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut ParamVisitor<'_>) {}

    fn name(&self) -> &'static str {
        "relu"
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
    fn forward_clamps_negatives() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![-2., 0., 3.], &[3]).unwrap();
        assert_eq!(
            layer.forward(&x, Mode::Eval).unwrap().as_slice(),
            &[0., 0., 3.]
        );
    }

    #[test]
    fn backward_masks_gradient() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![-2., 0., 3.], &[3]).unwrap();
        layer.forward(&x, Mode::Train).unwrap();
        let dx = layer.backward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(dx.as_slice(), &[0., 0., 1.]);
        assert!(layer.backward(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn no_params() {
        let mut layer = Relu::new();
        assert_eq!(Layer::param_count(&mut layer), 0);
    }

    #[test]
    fn gradcheck_away_from_kink() {
        let mut rng = StdRng::seed_from_u64(10);
        gradcheck::check_layer(Box::new(Relu::new()), &[3, 5], 1e-2, &mut rng).unwrap();
    }
}
