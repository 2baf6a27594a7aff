//! DP-SGD as a drop-in [`Optimizer`].
//!
//! The optimizer runs a three-phase protocol per *lot* (the DP-SGD batch):
//!
//! 1. **Collect** — for each example, the model's backward pass routes
//!    per-example gradients through `step_dense` / `step_sparse_rows`;
//!    the optimizer buffers them *without touching the weights*.
//! 2. [`DpSgd::end_example`] — clip the buffered gradients to the global
//!    L2 bound and fold them into the lot accumulator.
//! 3. [`DpSgd::begin_apply`] + one more (dummy) optimizer pass — Gaussian
//!    noise `N(0, σ²C²)` is added to every accumulated coordinate, the sum
//!    is averaged over the lot, and the update is applied when the model
//!    hands each parameter back to the optimizer.
//!
//! Sparse embedding gradients are densified on collection, matching how
//! TF-Privacy treats `tf.IndexedSlices` — noise must land on *every*
//! coordinate, touched or not, for the Gaussian mechanism's guarantee.

use std::collections::BTreeMap;

use memcom_nn::{NnError, Optimizer, ParamId};
use memcom_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DP-SGD hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSgdConfig {
    /// Global L2 clipping bound `C` (the paper uses a constant clip).
    pub clip_norm: f32,
    /// Noise multiplier `σ` (Figure 5's x-axis).
    pub noise_multiplier: f32,
    /// Learning rate.
    pub lr: f32,
    /// Noise RNG seed.
    pub seed: u64,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            lr: 0.1,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Collect,
    Apply,
}

/// The DP-SGD optimizer (see module docs for the lot protocol).
#[derive(Debug)]
pub struct DpSgd {
    config: DpSgdConfig,
    phase: Phase,
    rng: StdRng,
    /// Gradients of the example currently being collected. Both maps are
    /// walked in `ParamId` order: the norm's float sum and the noise
    /// draws must not depend on a hasher's per-process iteration order,
    /// or a seeded run would not repeat.
    example: BTreeMap<ParamId, Tensor>,
    /// Clipped, accumulated lot gradients.
    lot: BTreeMap<ParamId, Tensor>,
    lot_examples: usize,
    applied_steps: u64,
}

impl DpSgd {
    /// Creates the optimizer.
    pub fn new(config: DpSgdConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed ^ 0xD9);
        DpSgd {
            config,
            phase: Phase::Collect,
            rng,
            example: BTreeMap::new(),
            lot: BTreeMap::new(),
            lot_examples: 0,
            applied_steps: 0,
        }
    }

    /// Number of noisy updates applied so far (drives the accountant).
    pub fn applied_steps(&self) -> u64 {
        self.applied_steps
    }

    /// Examples accumulated in the current lot.
    pub fn lot_examples(&self) -> usize {
        self.lot_examples
    }

    /// Finishes the current example: clips its gradient to the global L2
    /// bound and folds it into the lot.
    pub fn end_example(&mut self) {
        let sq_norm: f32 = self.example.values().map(Tensor::sq_norm).sum();
        let norm = sq_norm.sqrt();
        let scale = if norm > self.config.clip_norm {
            self.config.clip_norm / norm
        } else {
            1.0
        };
        for (id, grad) in std::mem::take(&mut self.example) {
            let entry = self
                .lot
                .entry(id)
                .or_insert_with(|| Tensor::zeros(grad.shape().dims()));
            entry
                .axpy(scale, &grad)
                .expect("lot accumulator shape matches parameter shape");
        }
        self.lot_examples += 1;
    }

    /// Switches to apply mode: the next optimizer pass writes the noisy
    /// averaged update into the parameters. Call `end_example` first for
    /// every collected example.
    pub fn begin_apply(&mut self) {
        // Noise the accumulated sums now, once per lot.
        let sigma = self.config.noise_multiplier * self.config.clip_norm;
        if sigma > 0.0 {
            for grad in self.lot.values_mut() {
                let noise = Tensor::rand_normal(grad.shape().dims(), 0.0, sigma, &mut self.rng);
                grad.axpy(1.0, &noise).expect("noise shape matches");
            }
        }
        self.phase = Phase::Apply;
    }

    fn apply_to(&mut self, id: ParamId, value: &mut Tensor) {
        if let Some(noisy_sum) = self.lot.remove(&id) {
            let denom = self.lot_examples.max(1) as f32;
            value
                .axpy(-self.config.lr / denom, &noisy_sum)
                .expect("update shape matches parameter shape");
        }
    }

    /// Whether the lot has been fully applied (all buffers drained).
    fn maybe_finish_apply(&mut self) {
        if self.phase == Phase::Apply && self.lot.is_empty() {
            self.phase = Phase::Collect;
            self.lot_examples = 0;
            self.applied_steps += 1;
        }
    }

    fn collect_dense(&mut self, id: ParamId, dims: &[usize], add: impl Fn(&mut Tensor)) {
        let entry = self
            .example
            .entry(id)
            .or_insert_with(|| Tensor::zeros(dims));
        add(entry);
    }
}

impl Optimizer for DpSgd {
    fn learning_rate(&self) -> f32 {
        self.config.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    fn step_dense(
        &mut self,
        id: ParamId,
        value: &mut Tensor,
        grad: &Tensor,
    ) -> std::result::Result<(), NnError> {
        match self.phase {
            Phase::Collect => {
                if value.shape() != grad.shape() {
                    return Err(NnError::BadInput {
                        context: format!(
                            "dp-sgd shapes differ: {} vs {}",
                            value.shape(),
                            grad.shape()
                        ),
                    });
                }
                self.collect_dense(id, grad.shape().dims().to_vec().as_slice(), |t| {
                    t.axpy(1.0, grad).expect("same shape");
                });
            }
            Phase::Apply => {
                self.apply_to(id, value);
                self.maybe_finish_apply();
            }
        }
        Ok(())
    }

    fn step_sparse_rows(
        &mut self,
        id: ParamId,
        value: &mut Tensor,
        rows: &[usize],
        row_grads: &Tensor,
    ) -> std::result::Result<(), NnError> {
        match self.phase {
            Phase::Collect => {
                let dims = value.shape().dims().to_vec();
                let cols = dims[1];
                if row_grads.shape().dims() != [rows.len(), cols] {
                    return Err(NnError::BadInput {
                        context: format!(
                            "dp-sgd sparse grads {} do not match {} rows × {cols}",
                            row_grads.shape(),
                            rows.len()
                        ),
                    });
                }
                // Densify: DP noise must cover the whole table.
                let entry = self
                    .example
                    .entry(id)
                    .or_insert_with(|| Tensor::zeros(&dims));
                let buf = entry.as_mut_slice();
                for (k, &r) in rows.iter().enumerate() {
                    for c in 0..cols {
                        buf[r * cols + c] += row_grads.as_slice()[k * cols + c];
                    }
                }
            }
            Phase::Apply => {
                self.apply_to(id, value);
                self.maybe_finish_apply();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> ParamId {
        ParamId::fresh()
    }

    #[test]
    fn collect_does_not_touch_weights() {
        let mut opt = DpSgd::new(DpSgdConfig::default());
        let pid = id();
        let mut w = Tensor::ones(&[4]);
        opt.step_dense(pid, &mut w, &Tensor::ones(&[4])).unwrap();
        assert_eq!(w.as_slice(), &[1.0; 4]);
    }

    #[test]
    fn clipping_bounds_example_contribution() {
        let mut opt = DpSgd::new(DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.0,
            lr: 1.0,
            seed: 0,
        });
        let pid = id();
        let mut w = Tensor::zeros(&[2]);
        // Example gradient of norm 10 → clipped to norm 1.
        opt.step_dense(
            pid,
            &mut w,
            &Tensor::from_vec(vec![6.0, 8.0], &[2]).unwrap(),
        )
        .unwrap();
        opt.end_example();
        opt.begin_apply();
        opt.step_dense(pid, &mut w, &Tensor::zeros(&[2])).unwrap();
        // Update = -lr · clipped/1 = -(0.6, 0.8).
        assert!((w.as_slice()[0] + 0.6).abs() < 1e-6);
        assert!((w.as_slice()[1] + 0.8).abs() < 1e-6);
        assert_eq!(opt.applied_steps(), 1);
    }

    #[test]
    fn small_gradients_not_scaled_up() {
        let mut opt = DpSgd::new(DpSgdConfig {
            clip_norm: 10.0,
            noise_multiplier: 0.0,
            lr: 1.0,
            seed: 0,
        });
        let pid = id();
        let mut w = Tensor::zeros(&[1]);
        opt.step_dense(pid, &mut w, &Tensor::from_vec(vec![0.5], &[1]).unwrap())
            .unwrap();
        opt.end_example();
        opt.begin_apply();
        opt.step_dense(pid, &mut w, &Tensor::zeros(&[1])).unwrap();
        assert!((w.as_slice()[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn lot_averages_examples() {
        let mut opt = DpSgd::new(DpSgdConfig {
            clip_norm: 100.0,
            noise_multiplier: 0.0,
            lr: 1.0,
            seed: 0,
        });
        let pid = id();
        let mut w = Tensor::zeros(&[1]);
        for g in [1.0f32, 3.0] {
            opt.step_dense(pid, &mut w, &Tensor::from_vec(vec![g], &[1]).unwrap())
                .unwrap();
            opt.end_example();
        }
        assert_eq!(opt.lot_examples(), 2);
        opt.begin_apply();
        opt.step_dense(pid, &mut w, &Tensor::zeros(&[1])).unwrap();
        // Mean of (1, 3) = 2.
        assert!((w.as_slice()[0] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_gradients_densified_and_clipped_globally() {
        let mut opt = DpSgd::new(DpSgdConfig {
            clip_norm: 5.0,
            noise_multiplier: 0.0,
            lr: 1.0,
            seed: 0,
        });
        let table_id = id();
        let dense_id = id();
        let mut table = Tensor::zeros(&[3, 2]);
        let mut w = Tensor::zeros(&[1]);
        // Sparse grad norm² = 9+16=25, dense adds 0 → total norm 5 = C: no clip.
        opt.step_sparse_rows(
            table_id,
            &mut table,
            &[1],
            &Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap(),
        )
        .unwrap();
        opt.step_dense(dense_id, &mut w, &Tensor::zeros(&[1]))
            .unwrap();
        opt.end_example();
        opt.begin_apply();
        opt.step_sparse_rows(
            table_id,
            &mut table,
            &[0],
            &Tensor::zeros(&[1, 2]).reshape(&[1, 2]).unwrap(),
        )
        .unwrap();
        opt.step_dense(dense_id, &mut w, &Tensor::zeros(&[1]))
            .unwrap();
        // Row 1 got the update even though the apply pass touched row 0.
        assert!((table.row(1).unwrap()[0] + 3.0).abs() < 1e-6);
        assert!((table.row(1).unwrap()[1] + 4.0).abs() < 1e-6);
        assert_eq!(table.row(0).unwrap(), &[0.0, 0.0]);
        assert_eq!(opt.applied_steps(), 1);
    }

    #[test]
    fn noise_perturbs_updates_deterministically_by_seed() {
        let run = |seed: u64| {
            let mut opt = DpSgd::new(DpSgdConfig {
                clip_norm: 1.0,
                noise_multiplier: 2.0,
                lr: 1.0,
                seed,
            });
            let pid = id();
            let mut w = Tensor::zeros(&[8]);
            opt.step_dense(pid, &mut w, &Tensor::ones(&[8])).unwrap();
            opt.end_example();
            opt.begin_apply();
            opt.step_dense(pid, &mut w, &Tensor::zeros(&[8])).unwrap();
            w
        };
        let a = run(1);
        let b = run(1);
        let c = run(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Noise is substantial at σ=2.
        assert!(a.norm() > 0.1);
    }

    #[test]
    fn same_seed_runs_over_many_parameters_are_bit_identical() {
        // Six parameters with distinct gradients: the clip norm is a float
        // sum over all of them and each draws its own noise, so any
        // per-instance iteration order shows up in the bits.
        let run = || {
            let mut opt = DpSgd::new(DpSgdConfig {
                clip_norm: 0.5,
                noise_multiplier: 1.0,
                lr: 1.0,
                seed: 7,
            });
            let ids: Vec<ParamId> = (0..6).map(|_| id()).collect();
            let mut weights: Vec<Tensor> = (1..=6).map(|n| Tensor::zeros(&[n])).collect();
            for lot in 0..3 {
                for example in 0..2 {
                    for (k, (&pid, w)) in ids.iter().zip(&mut weights).enumerate() {
                        let g = 0.1 + (lot + 2 * example + 3 * k) as f32 * 0.37;
                        let grad = Tensor::full(w.shape().dims(), g);
                        opt.step_dense(pid, w, &grad).unwrap();
                    }
                    opt.end_example();
                }
                opt.begin_apply();
                for (&pid, w) in ids.iter().zip(&mut weights) {
                    let zero = Tensor::zeros(w.shape().dims());
                    opt.step_dense(pid, w, &zero).unwrap();
                }
            }
            assert_eq!(opt.applied_steps(), 3);
            weights
                .iter()
                .flat_map(|w| w.as_slice().iter().map(|x| x.to_bits()))
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shape_validation() {
        let mut opt = DpSgd::new(DpSgdConfig::default());
        let pid = id();
        let mut w = Tensor::zeros(&[2]);
        assert!(opt.step_dense(pid, &mut w, &Tensor::zeros(&[3])).is_err());
        let mut table = Tensor::zeros(&[2, 2]);
        assert!(opt
            .step_sparse_rows(pid, &mut table, &[0], &Tensor::zeros(&[1, 3]))
            .is_err());
    }

    #[test]
    fn multiple_lots_count_steps() {
        let mut opt = DpSgd::new(DpSgdConfig {
            noise_multiplier: 0.0,
            ..DpSgdConfig::default()
        });
        let pid = id();
        let mut w = Tensor::zeros(&[1]);
        for _ in 0..3 {
            opt.step_dense(pid, &mut w, &Tensor::ones(&[1])).unwrap();
            opt.end_example();
            opt.begin_apply();
            opt.step_dense(pid, &mut w, &Tensor::zeros(&[1])).unwrap();
        }
        assert_eq!(opt.applied_steps(), 3);
    }
}
