//! Linear algebra, reductions, and activations on [`Tensor`]s.
//!
//! These free functions (plus a few convenience methods) implement exactly
//! the operator set the paper's network (Code 1) requires: matrix
//! multiplication for `Dense`, axis means for `AveragePooling1D`,
//! log-softmax for the output layer, and ReLU for activations.

use crate::error::TensorError;
use crate::simd::dense_tile;
use crate::tensor::Tensor;
use crate::Result;

/// Inner-dimension rows per [`dense_tile`] call in [`matmul`]: the
/// height of the on-device engine's dense tiles.
const TILE: usize = 32;

/// Matrix multiplication `[m, k] × [k, n] → [m, n]` through the
/// workspace's one dense kernel, [`dense_tile`]: for each tile of at
/// most `TILE` (32) rows of `b`, one call per output row. Each output
/// starts from 0 and adds `a[i][kk]·b[kk][j]` in ascending `kk`,
/// skipping every `a[i][kk]` equal to 0.0 (ReLU outputs often are), so
/// it equals the on-device engine's dense layer bit for bit.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless both operands are rank 2
/// with matching inner dimensions.
///
/// # Example
///
/// ```
/// use memcom_tensor::{ops::matmul, Tensor};
///
/// # fn main() -> Result<(), memcom_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2])?;
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "matmul requires rank-2 operands, got {} and {}",
                a.shape(),
                b.shape()
            ),
        });
    }
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            context: format!("matmul inner dims differ: {} vs {}", k, k2),
        });
    }
    let mut out = vec![0f32; m * n];
    if n == 0 {
        return Tensor::from_vec(out, &[m, n]);
    }
    for k0 in (0..k).step_by(TILE) {
        let k1 = (k0 + TILE).min(k);
        let rows: Vec<&[f32]> = b.as_slice()[k0 * n..k1 * n].chunks_exact(n).collect();
        for (x, acc) in a.as_slice().chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            dense_tile(&x[k0..k1], &rows, None, acc);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Sums a tensor along `axis`, dropping that axis.
///
/// # Errors
///
/// Returns [`TensorError::InvalidAxis`] when `axis` exceeds the rank.
pub fn sum_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    reduce_axis(t, axis, 0.0, |acc, x| acc + x)
}

/// Means a tensor along `axis`, dropping that axis. This is exactly the
/// paper's `AveragePooling1D(pool_size=L)` when applied to axis 1 of a
/// `[b, L, e]` activation.
///
/// # Errors
///
/// Returns [`TensorError::InvalidAxis`] when `axis` exceeds the rank.
pub fn mean_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let extent = t.shape().dim(axis)? as f32;
    let summed = sum_axis(t, axis)?;
    Ok(summed.scale(1.0 / extent))
}

fn reduce_axis(t: &Tensor, axis: usize, init: f32, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    let out_shape = t.shape().without_axis(axis)?;
    let dims = t.shape().dims();
    let extent = dims[axis];
    // outer = product of dims before axis, inner = product after.
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let data = t.as_slice();
    let mut out = vec![init; outer * inner];
    for o in 0..outer {
        for a in 0..extent {
            let base = (o * extent + a) * inner;
            let out_base = o * inner;
            for i in 0..inner {
                out[out_base + i] = f(out[out_base + i], data[base + i]);
            }
        }
    }
    Tensor::from_vec(out, out_shape.dims())
}

/// Rectified linear unit, elementwise.
pub fn relu(t: &Tensor) -> Tensor {
    t.map(|x| x.max(0.0))
}

/// Derivative mask of ReLU at the *input* values (1 where x > 0).
pub fn relu_grad_mask(input: &Tensor) -> Tensor {
    input.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Row-wise log-softmax over the last axis of a rank-2 tensor, computed with
/// the max-subtraction trick for numerical stability.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for non-rank-2 input.
pub fn log_softmax_rows(logits: &Tensor) -> Result<Tensor> {
    if logits.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            context: format!("log_softmax_rows requires rank 2, got {}", logits.shape()),
        });
    }
    let (rows, cols) = (logits.shape().dims()[0], logits.shape().dims()[1]);
    let data = logits.as_slice();
    let mut out = vec![0f32; rows * cols];
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
        for c in 0..cols {
            out[r * cols + c] = row[c] - max - log_sum;
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

impl Tensor {
    /// Method-call convenience for [`matmul`].
    ///
    /// # Errors
    ///
    /// See [`matmul`].
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        matmul(self, rhs)
    }

    /// Method-call convenience for [`mean_axis`].
    ///
    /// # Errors
    ///
    /// See [`mean_axis`].
    pub fn mean_axis(&self, axis: usize) -> Result<Tensor> {
        mean_axis(self, axis)
    }

    /// Method-call convenience for [`sum_axis`].
    ///
    /// # Errors
    ///
    /// See [`sum_axis`].
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        sum_axis(self, axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_hand_checked() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = t(&[7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1., 2., 3., 4.], &[2, 2]);
        let i = t(&[1., 0., 0., 1.], &[2, 2]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = t(&[1., 2.], &[1, 2]);
        let b = t(&[1., 2., 3.], &[3, 1]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn matmul_large_matches_naive() {
        // Exercise the tiled path with sizes > TILE.
        let m = 37;
        let k = 41;
        let n = 35;
        let a_data: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
        let b_data: Vec<f32> = (0..k * n).map(|i| ((i * 11 % 17) as f32) - 8.0).collect();
        let a = t(&a_data, &[m, k]);
        let b = t(&b_data, &[k, n]);
        let c = matmul(&a, &b).unwrap();
        // naive reference
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k)
                    .map(|kk| a_data[i * k + kk] * b_data[kk * n + j])
                    .sum();
                let got = c.as_slice()[i * n + j];
                assert!((want - got).abs() < 1e-3, "({i},{j}): {want} vs {got}");
            }
        }
    }

    /// The zero-skipping, row-at-a-time product `matmul` must equal bit
    /// for bit: each output from 0, `a[i][kk]·b[kk][j]` in ascending
    /// `kk`, every zero `a[i][kk]` skipped.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0f32; m * n];
        for i in 0..m {
            for kk in (0..k).filter(|&kk| a[i * k + kk] != 0.0) {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn matmul_is_the_zero_skipping_row_at_a_time_product() {
        // Every third inner index is a zero input (alternating signs)
        // facing a row of ±inf and NaN weights, so only the skip keeps
        // the outputs finite; the rest are values in ±1, where any change
        // of operation order moves bits.
        let m = 3;
        for k in [1, 31, 32, 33, 65] {
            for n in [1, 7, 8, 9, 64, 65] {
                let faces_zero = |kk: usize| kk % 3 == 1;
                let a_data: Vec<f32> = (0..m * k)
                    .map(|i| match faces_zero(i % k) {
                        true if i % 2 == 0 => 0.0,
                        true => -0.0,
                        false => ((i * 37 % 101) as f32 / 50.0 - 1.0).sin(),
                    })
                    .collect();
                let b_data: Vec<f32> = (0..k * n)
                    .map(|i| match (faces_zero(i / n), i % 3) {
                        (true, 0) => f32::INFINITY,
                        (true, 1) => f32::NEG_INFINITY,
                        (true, _) => f32::NAN,
                        (false, _) => ((i * 53 % 97) as f32 / 48.0 - 1.0).cos(),
                    })
                    .collect();
                let c = matmul(&t(&a_data, &[m, k]), &t(&b_data, &[k, n])).unwrap();
                let want = reference(&a_data, &b_data, m, k, n);
                assert!(want.iter().all(|v| v.is_finite()), "k {k}, n {n}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(c.as_slice()), bits(&want), "k {k}, n {n}");
            }
        }
    }

    #[test]
    fn matmul_with_a_zero_dimension_returns_zeros() {
        for (m, k, n) in [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)] {
            let c = matmul(&Tensor::zeros(&[m, k]), &Tensor::ones(&[k, n])).unwrap();
            assert_eq!(c, Tensor::zeros(&[m, n]), "{m}x{k} · {k}x{n}");
        }
    }

    #[test]
    fn axis_reductions() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(sum_axis(&a, 0).unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(sum_axis(&a, 1).unwrap().as_slice(), &[6., 15.]);
        assert_eq!(mean_axis(&a, 1).unwrap().as_slice(), &[2., 5.]);
        assert!(sum_axis(&a, 2).is_err());
    }

    #[test]
    fn mean_axis_is_average_pooling() {
        // [b=1, L=2, e=3]: pooling over L averages the two embedding rows.
        let x = t(&[1., 2., 3., 5., 6., 7.], &[1, 2, 3]);
        let pooled = mean_axis(&x, 1).unwrap();
        assert_eq!(pooled.shape().dims(), &[1, 3]);
        assert_eq!(pooled.as_slice(), &[3., 4., 5.]);
    }

    #[test]
    fn relu_and_mask() {
        let x = t(&[-1., 0., 2.], &[3]);
        assert_eq!(relu(&x).as_slice(), &[0., 0., 2.]);
        assert_eq!(relu_grad_mask(&x).as_slice(), &[0., 0., 1.]);
    }

    #[test]
    fn log_softmax_rows_exponentiate_to_one() {
        let logits = t(&[1., 2., 3., 1000., 1000., 1000.], &[2, 3]);
        let p = log_softmax_rows(&logits).unwrap().map(f32::exp);
        for r in 0..2 {
            let s: f32 = p.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
        // Large logits must not overflow.
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        // Uniform logits → uniform distribution.
        assert!((p.at(&[1, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(n in 1usize..12) {
            let data: Vec<f32> = (0..n * n).map(|i| (i as f32).sin()).collect();
            let a = Tensor::from_vec(data, &[n, n]).unwrap();
            let mut eye = Tensor::zeros(&[n, n]);
            for i in 0..n { eye.set(&[i, i], 1.0).unwrap(); }
            prop_assert!(matmul(&a, &eye).unwrap().allclose(&a, 1e-5));
        }

        #[test]
        fn prop_matmul_transpose_identity(m in 1usize..8, k in 1usize..8, n in 1usize..8) {
            // (A B)^T == B^T A^T
            let a_data: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).cos()).collect();
            let b_data: Vec<f32> = (0..k * n).map(|i| (i as f32 * 1.3).sin()).collect();
            let a = Tensor::from_vec(a_data, &[m, k]).unwrap();
            let b = Tensor::from_vec(b_data, &[k, n]).unwrap();
            let lhs = matmul(&a, &b).unwrap().transpose().unwrap();
            let rhs = matmul(&b.transpose().unwrap(), &a.transpose().unwrap()).unwrap();
            prop_assert!(lhs.allclose(&rhs, 1e-4));
        }

        #[test]
        fn prop_log_softmax_rows_probability(rows in 1usize..5, cols in 1usize..8, seed in 0u64..1000) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i as u64 * 2654435761 + seed) % 97) as f32 / 10.0 - 4.0)
                .collect();
            let logits = Tensor::from_vec(data, &[rows, cols]).unwrap();
            let p = log_softmax_rows(&logits).unwrap().map(f32::exp);
            for r in 0..rows {
                let s: f32 = p.row(r).unwrap().iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                prop_assert!(p.row(r).unwrap().iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            }
        }

        #[test]
        fn prop_sum_axis_total_invariant(r in 1usize..6, c in 1usize..6) {
            let data: Vec<f32> = (0..r * c).map(|i| i as f32 - 3.0).collect();
            let a = Tensor::from_vec(data, &[r, c]).unwrap();
            let total = a.sum();
            prop_assert!((sum_axis(&a, 0).unwrap().sum() - total).abs() < 1e-4);
            prop_assert!((sum_axis(&a, 1).unwrap().sum() - total).abs() < 1e-4);
        }
    }
}
