//! Finite-difference gradient verification.
//!
//! Every layer's `backward` in this repository is validated against central
//! finite differences through [`check_layer`]. The check runs the layer in
//! [`Mode::Train`] (so batch-norm exercises its batch-statistics path) and
//! uses a random linear functional of the output as the scalar loss, which
//! exercises every output coordinate.

use memcom_tensor::Tensor;
use rand::Rng;

use crate::layer::{Layer, Mode};
use crate::Result;

/// Outcome of a failed gradient check, with enough context to debug.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckFailure {
    /// Which quantity disagreed: "input" or a parameter's position.
    pub what: String,
    /// Flat element index that disagreed.
    pub index: usize,
    /// Analytic gradient value.
    pub analytic: f32,
    /// Finite-difference estimate.
    pub numeric: f32,
}

impl std::fmt::Display for GradCheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gradient mismatch on {} element {}: analytic {} vs numeric {}",
            self.what, self.index, self.analytic, self.numeric
        )
    }
}

/// Verifies a layer's input and parameter gradients against central finite
/// differences.
///
/// The scalar loss is `L = Σ w ⊙ layer(x)` for a fixed random `w`. The
/// layer must be deterministic in [`Mode::Train`] (do not pass `Dropout`).
/// Inputs are drawn away from ReLU's kink to avoid false positives.
///
/// # Errors
///
/// Returns the underlying layer error if forward/backward fail; panics on
/// gradient disagreement via `Err(NnError::BadInput)`-style message would
/// hide detail, so disagreements are reported as a panic in tests through
/// `unwrap()` on the returned `Result<(), GradCheckFailure>`-like value.
#[allow(clippy::result_large_err)]
pub fn check_layer<R: Rng + ?Sized>(
    mut layer: Box<dyn Layer>,
    input_dims: &[usize],
    tol: f32,
    rng: &mut R,
) -> std::result::Result<(), GradCheckFailure> {
    let run = |layer: &mut Box<dyn Layer>, x: &Tensor, w: &Tensor| -> Result<f32> {
        let y = layer.forward(x, Mode::Train)?;
        Ok(y.mul(w).map(|t| t.sum()).unwrap_or(f32::NAN))
    };

    // Sample inputs in [0.2, 1.2] ∪ [-1.2, -0.2] so no coordinate sits near
    // the ReLU kink and finite differences stay smooth.
    let mut x = Tensor::rand_uniform(input_dims, 0.2, 1.2, rng);
    for v in x.as_mut_slice() {
        if rng.gen::<bool>() {
            *v = -*v;
        }
    }

    let probe = layer
        .forward(&x, Mode::Train)
        .expect("gradcheck forward must succeed");
    let w = Tensor::rand_uniform(probe.shape().dims(), -1.0, 1.0, rng);

    // Analytic gradients.
    layer.zero_grad();
    layer.forward(&x, Mode::Train).expect("forward");
    let dx = layer.backward(&w).expect("backward");

    const EPS: f32 = 1e-2;

    // Input gradient check.
    for i in 0..x.len() {
        let orig = x.as_slice()[i];
        x.as_mut_slice()[i] = orig + EPS;
        let lp = run(&mut layer, &x, &w).expect("forward+");
        x.as_mut_slice()[i] = orig - EPS;
        let lm = run(&mut layer, &x, &w).expect("forward-");
        x.as_mut_slice()[i] = orig;
        let numeric = (lp - lm) / (2.0 * EPS);
        let analytic = dx.as_slice()[i];
        if !close(analytic, numeric, tol) {
            return Err(GradCheckFailure {
                what: "input".into(),
                index: i,
                analytic,
                numeric,
            });
        }
    }

    // Parameter gradient checks. Re-run the analytic pass so caches exist.
    layer.zero_grad();
    layer.forward(&x, Mode::Train).expect("forward");
    layer.backward(&w).expect("backward");
    let mut analytic_grads: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |_, _, g| analytic_grads.push(g.clone()));

    for (p, param_grads) in analytic_grads.iter().enumerate() {
        let n_elems = param_grads.len();
        for i in 0..n_elems {
            perturb_param(&mut layer, p, i, EPS);
            let lp = run(&mut layer, &x, &w).expect("forward p+");
            perturb_param(&mut layer, p, i, -2.0 * EPS);
            let lm = run(&mut layer, &x, &w).expect("forward p-");
            perturb_param(&mut layer, p, i, EPS); // restore
            let numeric = (lp - lm) / (2.0 * EPS);
            let analytic = param_grads.as_slice()[i];
            if !close(analytic, numeric, tol) {
                return Err(GradCheckFailure {
                    what: format!("param #{p}"),
                    index: i,
                    analytic,
                    numeric,
                });
            }
        }
    }
    Ok(())
}

fn perturb_param(layer: &mut Box<dyn Layer>, param_pos: usize, elem: usize, delta: f32) {
    let mut pos = 0usize;
    layer.visit_params(&mut |_, value, _| {
        if pos == param_pos {
            value.as_mut_slice()[elem] += delta;
        }
        pos += 1;
    });
}

fn close(analytic: f32, numeric: f32, tol: f32) -> bool {
    let denom = 1.0f32.max(analytic.abs()).max(numeric.abs());
    (analytic - numeric).abs() / denom <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ParamId, ParamVisitor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A layer with a deliberately wrong backward pass, to prove the
    /// checker actually detects bugs.
    #[derive(Debug)]
    struct BrokenScale {
        factor: Tensor,
        grad: Tensor,
        id: ParamId,
        seen: Option<Tensor>,
    }

    impl BrokenScale {
        fn new() -> Self {
            BrokenScale {
                factor: Tensor::from_vec(vec![2.0], &[1]).unwrap(),
                grad: Tensor::zeros(&[1]),
                id: ParamId::fresh(),
                seen: None,
            }
        }
    }

    impl Layer for BrokenScale {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> crate::Result<Tensor> {
            self.seen = Some(input.clone());
            Ok(input.scale(self.factor.as_slice()[0]))
        }

        fn backward(&mut self, grad_out: &Tensor) -> crate::Result<Tensor> {
            // BUG (intentional): returns grad unscaled.
            Ok(grad_out.clone())
        }

        fn zero_grad(&mut self) {
            self.grad.map_inplace(|_| 0.0);
        }

        fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
            f(self.id, &mut self.factor, &mut self.grad);
        }

        fn name(&self) -> &'static str {
            "broken_scale"
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn detects_broken_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let err = check_layer(Box::new(BrokenScale::new()), &[2, 2], 1e-3, &mut rng);
        assert!(err.is_err());
        let failure = err.unwrap_err();
        assert_eq!(failure.what, "input");
        assert!(!failure.to_string().is_empty());
    }

    #[test]
    fn accepts_correct_dense_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = crate::Dense::new(3, 2, &mut rng);
        check_layer(Box::new(layer), &[4, 3], 1e-2, &mut rng).unwrap();
    }
}
