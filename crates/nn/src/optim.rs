//! Optimizers with dense and sparse-row update paths.
//!
//! Embedding tables are updated through [`Optimizer::step_sparse_rows`],
//! which touches only the vocabulary rows seen in the current batch — the
//! same trick deep-learning frameworks use for `embedding_lookup` training
//! and the reason the paper can train 480K-entity vocabularies. Dense
//! layers use [`Optimizer::step_dense`].

use std::collections::HashMap;

use memcom_tensor::Tensor;

use crate::layer::ParamId;
use crate::{NnError, Result};

/// A gradient-descent update rule.
///
/// Optimizers key internal state (Adam's moments) by [`ParamId`], so the
/// same optimizer instance must be reused across steps for state to work.
pub trait Optimizer {
    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Applies one update to a dense parameter given its full gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `value` and `grad` shapes differ.
    fn step_dense(&mut self, id: ParamId, value: &mut Tensor, grad: &Tensor) -> Result<()>;

    /// Applies one update to `rows` of a `[v, cols]` parameter, where
    /// `row_grads` is `[rows.len(), cols]`. Rows must be unique; callers
    /// pre-aggregate duplicate ids.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on shape/row mismatches.
    fn step_sparse_rows(
        &mut self,
        id: ParamId,
        value: &mut Tensor,
        rows: &[usize],
        row_grads: &Tensor,
    ) -> Result<()>;
}

fn check_dense(value: &Tensor, grad: &Tensor) -> Result<()> {
    if value.shape() != grad.shape() {
        return Err(NnError::BadInput {
            context: format!(
                "optimizer shapes differ: {} vs {}",
                value.shape(),
                grad.shape()
            ),
        });
    }
    Ok(())
}

fn check_sparse(value: &Tensor, rows: &[usize], row_grads: &Tensor) -> Result<(usize, usize)> {
    if value.shape().rank() != 2 || row_grads.shape().rank() != 2 {
        return Err(NnError::BadInput {
            context: "sparse update requires rank-2 value and row_grads".into(),
        });
    }
    let v = value.shape().dims()[0];
    let cols = value.shape().dims()[1];
    if row_grads.shape().dims() != [rows.len(), cols] {
        return Err(NnError::BadInput {
            context: format!(
                "row_grads shape {} does not match {} rows × {} cols",
                row_grads.shape(),
                rows.len(),
                cols
            ),
        });
    }
    if let Some(&bad) = rows.iter().find(|&&r| r >= v) {
        return Err(NnError::BadInput {
            context: format!("row {bad} out of range for {v} rows"),
        });
    }
    Ok((v, cols))
}

/// Plain stochastic gradient descent (`w ← w − lr·g`), stateless.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn step_dense(&mut self, _id: ParamId, value: &mut Tensor, grad: &Tensor) -> Result<()> {
        check_dense(value, grad)?;
        value.axpy(-self.lr, grad)?;
        Ok(())
    }

    fn step_sparse_rows(
        &mut self,
        _id: ParamId,
        value: &mut Tensor,
        rows: &[usize],
        row_grads: &Tensor,
    ) -> Result<()> {
        let (_, cols) = check_sparse(value, rows, row_grads)?;
        let g = row_grads.as_slice();
        let w = value.as_mut_slice();
        for (k, &r) in rows.iter().enumerate() {
            for c in 0..cols {
                w[r * cols + c] -= self.lr * g[k * cols + c];
            }
        }
        Ok(())
    }
}

/// Adam (Kingma & Ba, 2015) with lazy sparse semantics: moments for
/// embedding rows are updated only when the row is touched, using the
/// parameter-global step count for bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    state: HashMap<ParamId, AdamState>,
}

#[derive(Debug)]
struct AdamState {
    m: Tensor,
    v: Tensor,
    t: u64,
}

impl Adam {
    /// Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    fn state_for(&mut self, id: ParamId, dims: &[usize]) -> &mut AdamState {
        self.state.entry(id).or_insert_with(|| AdamState {
            m: Tensor::zeros(dims),
            v: Tensor::zeros(dims),
            t: 0,
        })
    }
}

impl Optimizer for Adam {
    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn step_dense(&mut self, id: ParamId, value: &mut Tensor, grad: &Tensor) -> Result<()> {
        check_dense(value, grad)?;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let st = self.state_for(id, value.shape().dims());
        st.t += 1;
        let bias1 = 1.0 - b1.powi(st.t as i32);
        let bias2 = 1.0 - b2.powi(st.t as i32);
        let w = value.as_mut_slice();
        let m = st.m.as_mut_slice();
        let v = st.v.as_mut_slice();
        for i in 0..w.len() {
            let g = grad.as_slice()[i];
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        Ok(())
    }

    fn step_sparse_rows(
        &mut self,
        id: ParamId,
        value: &mut Tensor,
        rows: &[usize],
        row_grads: &Tensor,
    ) -> Result<()> {
        let (_, cols) = check_sparse(value, rows, row_grads)?;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let st = self.state_for(id, value.shape().dims());
        st.t += 1;
        let bias1 = 1.0 - b1.powi(st.t as i32);
        let bias2 = 1.0 - b2.powi(st.t as i32);
        let g = row_grads.as_slice();
        let w = value.as_mut_slice();
        let m = st.m.as_mut_slice();
        let v = st.v.as_mut_slice();
        for (k, &r) in rows.iter().enumerate() {
            for c in 0..cols {
                let idx = r * cols + c;
                let gi = g[k * cols + c];
                m[idx] = b1 * m[idx] + (1.0 - b1) * gi;
                v[idx] = b2 * v[idx] + (1.0 - b2) * gi * gi;
                let m_hat = m[idx] / bias1;
                let v_hat = v[idx] / bias2;
                w[idx] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_convergence(opt: &mut dyn Optimizer) -> f32 {
        // Minimize f(w) = ||w||² from w = (3, -4); grad = 2w.
        let id = ParamId::fresh();
        let mut w = Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap();
        for _ in 0..300 {
            let grad = w.scale(2.0);
            opt.step_dense(id, &mut w, &grad).unwrap();
        }
        w.norm()
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        assert!(quadratic_convergence(&mut Sgd::new(0.1)) < 1e-3);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        assert!(quadratic_convergence(&mut Adam::new(0.1)) < 1e-2);
    }

    #[test]
    fn sgd_dense_single_step_exact() {
        let mut opt = Sgd::new(0.5);
        let mut w = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, -2.0], &[2]).unwrap();
        opt.step_dense(ParamId::fresh(), &mut w, &g).unwrap();
        assert_eq!(w.as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn sparse_touches_only_listed_rows() {
        let mut opt = Sgd::new(1.0);
        let mut table = Tensor::ones(&[4, 2]);
        let rows = [1usize, 3usize];
        let grads = Tensor::from_vec(vec![1.0, 1.0, 0.5, 0.5], &[2, 2]).unwrap();
        opt.step_sparse_rows(ParamId::fresh(), &mut table, &rows, &grads)
            .unwrap();
        assert_eq!(table.row(0).unwrap(), &[1.0, 1.0]);
        assert_eq!(table.row(1).unwrap(), &[0.0, 0.0]);
        assert_eq!(table.row(2).unwrap(), &[1.0, 1.0]);
        assert_eq!(table.row(3).unwrap(), &[0.5, 0.5]);
    }

    #[test]
    fn sparse_validates_inputs() {
        let mut opt = Adam::new(0.1);
        let mut table = Tensor::ones(&[4, 2]);
        let id = ParamId::fresh();
        // Out-of-range row.
        assert!(opt
            .step_sparse_rows(id, &mut table, &[4], &Tensor::zeros(&[1, 2]))
            .is_err());
        // Bad grad shape.
        assert!(opt
            .step_sparse_rows(id, &mut table, &[0], &Tensor::zeros(&[1, 3]))
            .is_err());
        // Rank-1 value.
        let mut flat = Tensor::ones(&[4]);
        assert!(opt
            .step_sparse_rows(id, &mut flat, &[0], &Tensor::zeros(&[1, 1]))
            .is_err());
    }

    #[test]
    fn dense_shape_mismatch_rejected() {
        let mut opt = Adam::new(0.1);
        let mut w = Tensor::ones(&[2]);
        assert!(opt
            .step_dense(ParamId::fresh(), &mut w, &Tensor::ones(&[3]))
            .is_err());
    }

    #[test]
    fn adam_sparse_matches_dense_on_full_rows() {
        // Updating all rows sparsely must equal the dense update.
        let grad_rows = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], &[2, 2]).unwrap();
        let mut dense_w = Tensor::ones(&[2, 2]);
        let mut sparse_w = Tensor::ones(&[2, 2]);
        let mut opt_a = Adam::new(0.05);
        let mut opt_b = Adam::new(0.05);
        let id_a = ParamId::fresh();
        let id_b = ParamId::fresh();
        for _ in 0..5 {
            opt_a.step_dense(id_a, &mut dense_w, &grad_rows).unwrap();
            opt_b
                .step_sparse_rows(id_b, &mut sparse_w, &[0, 1], &grad_rows)
                .unwrap();
        }
        assert!(dense_w.allclose(&sparse_w, 1e-6));
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
