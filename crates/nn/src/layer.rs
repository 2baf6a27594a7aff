//! The [`Layer`] trait and parameter plumbing.

use std::sync::atomic::{AtomicU64, Ordering};

use memcom_tensor::Tensor;

use crate::Result;

/// Whether a forward pass is a training step (dropout active, batch-norm
/// uses batch statistics) or inference (deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training-time behaviour (stochastic regularizers active).
    Train,
    /// Inference-time behaviour (deterministic).
    Eval,
}

/// A process-unique identifier for one trainable parameter tensor.
///
/// Optimizers key their per-parameter state (momentum, Adam moments, …) by
/// `ParamId`, so ids must stay stable across the life of a model. Ids are
/// handed out by [`ParamId::fresh`] from a global counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(u64);

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

impl ParamId {
    /// Allocates a new process-unique id.
    pub fn fresh() -> Self {
        ParamId(NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw numeric id (stable within a process run).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Callback used to walk a layer's (parameter, gradient) pairs.
///
/// The visitor style sidesteps returning collections of mutable borrows,
/// which Rust's borrow checker cannot express for heterogeneous layers.
pub type ParamVisitor<'a> = dyn FnMut(ParamId, &mut Tensor, &mut Tensor) + 'a;

/// One differentiable stage of a network.
///
/// Contract:
/// * `forward` caches whatever `backward` will need and returns the output.
/// * `backward` receives `∂L/∂output` and returns `∂L/∂input`, accumulating
///   `∂L/∂param` into the layer's gradient buffers.
/// * `zero_grad` clears gradient buffers between steps.
/// * `visit_params` exposes `(value, grad)` pairs to the optimizer.
///
/// # Example
///
/// ```
/// use memcom_nn::{Dense, Layer, Mode};
/// use memcom_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), memcom_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(4, 2, &mut rng);
/// let x = Tensor::ones(&[3, 4]);
/// let y = layer.forward(&x, Mode::Train)?;
/// assert_eq!(y.shape().dims(), &[3, 2]);
/// let dx = layer.backward(&Tensor::ones(&[3, 2]))?;
/// assert_eq!(dx.shape().dims(), &[3, 4]);
/// # Ok(())
/// # }
/// ```
pub trait Layer {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInput`] when the input shape is invalid
    /// for the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Back-propagates `grad_out = ∂L/∂output`, returning `∂L/∂input`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when called without
    /// a preceding `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self);

    /// Visits every (id, value, gradient) parameter triple.
    fn visit_params(&mut self, f: &mut ParamVisitor<'_>);

    /// Human-readable layer name (used in error messages and model dumps).
    fn name(&self) -> &'static str;

    /// Upcast for downcasting to the concrete layer type (used by model
    /// serialization to reach layer-specific state such as batch-norm
    /// running statistics).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Total number of trainable scalars in this layer.
    ///
    /// Takes `&mut self` because parameter access is routed through
    /// [`Layer::visit_params`], whose visitor hands out mutable borrows.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, value, _| n += value.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ids_unique_and_increasing() {
        let a = ParamId::fresh();
        let b = ParamId::fresh();
        assert_ne!(a, b);
        assert!(b.raw() > a.raw());
    }

    #[test]
    fn mode_is_copy_eq() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(Mode::Train, Mode::Eval);
    }
}
