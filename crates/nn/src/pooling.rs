//! Average pooling over the sequence axis.

use memcom_tensor::{ops, Tensor};

use crate::layer::{Layer, Mode, ParamVisitor};
use crate::{NnError, Result};

/// `AveragePooling1D(pool_size = L)` followed by `Flatten`, fused.
///
/// The paper's network pools the `[batch, L, e]` embedding activations over
/// the full input length `L` and immediately flattens the resulting
/// `[batch, 1, e]` to `[batch, e]`; this layer fuses the two steps.
#[derive(Debug, Default)]
pub struct AveragePool1d {
    cached_dims: Option<(usize, usize, usize)>,
}

impl AveragePool1d {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        AveragePool1d { cached_dims: None }
    }
}

impl Layer for AveragePool1d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        if input.shape().rank() != 3 {
            return Err(NnError::BadInput {
                context: format!(
                    "average pool expects [batch, len, emb], got {}",
                    input.shape()
                ),
            });
        }
        let dims = input.shape().dims();
        let (b, l, e) = (dims[0], dims[1], dims[2]);
        if l == 0 {
            return Err(NnError::BadInput {
                context: "cannot pool a zero-length sequence".into(),
            });
        }
        self.cached_dims = Some((b, l, e));
        Ok(ops::mean_axis(input, 1)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (b, l, e) = self
            .cached_dims
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "average_pool1d".into(),
            })?;
        if grad_out.shape().dims() != [b, e] {
            return Err(NnError::BadInput {
                context: format!("pool backward expects [{b}, {e}], got {}", grad_out.shape()),
            });
        }
        // Each of the L positions receives grad/L.
        let scale = 1.0 / l as f32;
        let mut dx = Tensor::zeros(&[b, l, e]);
        let g = grad_out.as_slice();
        let out = dx.as_mut_slice();
        for bi in 0..b {
            for li in 0..l {
                let dst = (bi * l + li) * e;
                let src = bi * e;
                for ei in 0..e {
                    out[dst + ei] = g[src + ei] * scale;
                }
            }
        }
        Ok(dx)
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut ParamVisitor<'_>) {}

    fn name(&self) -> &'static str {
        "average_pool1d"
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
    fn forward_averages_sequence() {
        let mut layer = AveragePool1d::new();
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 10., 20., 30., 40.], &[2, 2, 2]).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2]);
        assert_eq!(y.as_slice(), &[2., 3., 20., 30.]);
    }

    #[test]
    fn backward_spreads_gradient() {
        let mut layer = AveragePool1d::new();
        let x = Tensor::zeros(&[1, 4, 2]);
        layer.forward(&x, Mode::Train).unwrap();
        let dx = layer.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(dx.shape().dims(), &[1, 4, 2]);
        assert!(dx.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn shape_validation() {
        let mut layer = AveragePool1d::new();
        assert!(layer.forward(&Tensor::zeros(&[2, 3]), Mode::Eval).is_err());
        assert!(layer
            .forward(&Tensor::zeros(&[2, 0, 3]), Mode::Eval)
            .is_err());
        assert!(layer.backward(&Tensor::zeros(&[2, 3])).is_err());
        layer
            .forward(&Tensor::zeros(&[1, 2, 3]), Mode::Eval)
            .unwrap();
        assert!(layer.backward(&Tensor::zeros(&[9, 9])).is_err());
    }

    #[test]
    fn gradcheck_pooling() {
        let mut rng = StdRng::seed_from_u64(12);
        gradcheck::check_layer(Box::new(AveragePool1d::new()), &[2, 3, 4], 1e-2, &mut rng).unwrap();
    }
}
