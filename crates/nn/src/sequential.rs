//! Layer composition.

use memcom_tensor::Tensor;

use crate::layer::{Layer, Mode, ParamVisitor};
use crate::Result;

/// An ordered stack of layers applied front-to-back in `forward` and
/// back-to-front in `backward` — the shape of the paper's Code-1 network
/// after the embedding stage.
///
/// # Example
///
/// ```
/// use memcom_nn::{Dense, Relu, Sequential, Layer, Mode};
/// use memcom_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), memcom_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(8, 4, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(4, 2, &mut rng));
/// let y = net.forward(&Tensor::ones(&[5, 8]), Mode::Eval)?;
/// assert_eq!(y.shape().dims(), &[5, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to a layer by position.
    pub fn layer(&self, idx: usize) -> Option<&dyn Layer> {
        self.layers.get(idx).map(|b| b.as_ref())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut current = input.clone();
        for layer in &mut self.layers {
            current = layer.forward(&current, mode)?;
        }
        Ok(current)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut current = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            current = layer.backward(&current)?;
        }
        Ok(current)
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_chains_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 4, &mut rng))
            .push(Relu::new())
            .push(Dense::new(4, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let y = net.forward(&Tensor::ones(&[2, 3]), Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2]);
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 2, &mut rng));
        net.forward(&Tensor::ones(&[4, 3]), Mode::Train).unwrap();
        let dx = net.backward(&Tensor::ones(&[4, 2])).unwrap();
        assert_eq!(dx.shape().dims(), &[4, 3]);
    }

    #[test]
    fn params_aggregate_across_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 4, &mut rng))
            .push(Dense::new(4, 2, &mut rng));
        assert_eq!(Layer::param_count(&mut net), (3 * 4 + 4) + (4 * 2 + 2));
        net.zero_grad();
        let mut count = 0;
        net.visit_params(&mut |_, _, _| count += 1);
        assert_eq!(count, 4); // two weights + two biases
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::from_vec(vec![1., 2.], &[1, 2]).unwrap();
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), x);
        assert_eq!(net.backward(&x).unwrap(), x);
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new();
        net.push(Dense::new(1, 1, &mut rng)).push(Relu::new());
        let dbg = format!("{net:?}");
        assert!(dbg.contains("dense"));
        assert!(dbg.contains("relu"));
    }
}
