//! The dense row-major `f32` tensor type.

use rand::Rng;

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;

/// A contiguous, row-major, dense `f32` tensor.
///
/// `Tensor` is the workhorse value type of the whole reproduction: layer
/// activations, weights, gradients, and logits are all `Tensor`s. It owns its
/// storage (a `Vec<f32>`) and is cheap to move but deliberately explicit to
/// copy (`Clone`).
///
/// # Example
///
/// ```
/// use memcom_tensor::Tensor;
///
/// # fn main() -> Result<(), memcom_tensor::TensorError> {
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape().dims(), &[2, 3]);
/// assert_eq!(x.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from owned data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from the shape's volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                data_len: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor with values drawn uniformly from `[low, high)`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], low: f32, high: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume())
            .map(|_| rng.gen_range(low..high))
            .collect();
        Tensor { data, shape }
    }

    /// Creates a tensor with values drawn from `N(mean, std²)` using the
    /// Box–Muller transform (keeps us independent of `rand_distr`).
    pub fn rand_normal<R: Rng + ?Sized>(dims: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            let z0 = mag * (2.0 * std::f32::consts::PI * u2).cos();
            let z1 = mag * (2.0 * std::f32::consts::PI * u2).sin();
            data.push(mean + std * z0);
            if data.len() < n {
                data.push(mean + std * z1);
            }
        }
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying storage in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads one element by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::flat_index`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Writes one element by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::flat_index`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                data_len: self.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Borrows row `row` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for non-rank-2 tensors and
    /// [`TensorError::IndexOutOfBounds`] for bad row indices.
    pub fn row(&self, row: usize) -> Result<&[f32]> {
        if self.shape.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "row() requires rank 2, tensor has rank {}",
                    self.shape.rank()
                ),
            });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                extent: rows,
            });
        }
        Ok(&self.data[row * cols..(row + 1) * cols])
    }

    /// Mutably borrows row `row` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::row`].
    pub fn row_mut(&mut self, row: usize) -> Result<&mut [f32]> {
        if self.shape.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "row_mut() requires rank 2, tensor has rank {}",
                    self.shape.rank()
                ),
            });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                extent: rows,
            });
        }
        Ok(&mut self.data[row * cols..(row + 1) * cols])
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise addition, `rhs` broadcast as a row (see [`Tensor::binary`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastIncompatible`] unless `rhs` is a row of `self`.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(rhs, |a, b| a + b)
    }

    /// Elementwise subtraction, `rhs` broadcast as a row (see [`Tensor::binary`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastIncompatible`] unless `rhs` is a row of `self`.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(rhs, |a, b| a - b)
    }

    /// Elementwise multiplication (the paper's `⊙`), `rhs` broadcast as a
    /// row (see [`Tensor::binary`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastIncompatible`] unless `rhs` is a row of `self`.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(rhs, |a, b| a * b)
    }

    /// The one elementwise path: `out[i] = f(self[i], rhs[i % rhs.len()])`,
    /// in `self`'s shape. `rhs` is either `self`'s shape or a row of it —
    /// its dims, leading 1s dropped, equal `self`'s trailing dims — which
    /// covers every broadcast the layers make: a `Dense` bias or a
    /// `BatchNorm1d` parameter `[d]` against an `[n, d]` batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastIncompatible`] for any other pair,
    /// a column `[n, 1]` against `[n, d]` or an `rhs` larger than `self`
    /// included.
    pub fn binary(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        let (dims, row) = (self.shape.dims(), rhs.shape.dims());
        let row = &row[row.iter().take_while(|&&d| d == 1).count()..];
        if !dims.ends_with(row) {
            return Err(TensorError::BroadcastIncompatible {
                lhs: dims.to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        // A row of zero values means an empty `self`, so the cycle is
        // never asked for an element it does not have.
        let data = self.data.iter().zip(rhs.data.iter().cycle());
        Ok(Tensor {
            data: data.map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        })
    }

    /// Multiplies every element by `scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|x| x * scalar)
    }

    /// In-place `self += alpha * rhs` for same-shape tensors (the hot path of
    /// every optimizer step, so it avoids allocation).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "axpy requires equal shapes, got {} vs {}",
                    self.shape, rhs.shape
                ),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0.0 for empty tensors (keeps loss averaging total).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for empty tensors.
    pub fn max(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |m| m.max(x)))
            })
            .ok_or(TensorError::EmptyTensor)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for non-rank-2 tensors.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                context: format!("transpose requires rank 2, got rank {}", self.shape.rank()),
            });
        }
        let (r, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut data = vec![0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            data,
            shape: Shape::new(&[c, r]),
        })
    }

    /// Returns `true` when every element differs from `other`'s by at most
    /// `tol` (and shapes match). Used pervasively in tests.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, x) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …({} more)", self.data.len() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.0).as_slice(), &[7.0, 7.0]);
        assert!(Tensor::from_vec(vec![1.0], &[2]).is_err());
    }

    #[test]
    fn rand_uniform_respects_bounds_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng2);
        assert_eq!(t, t2);
    }

    #[test]
    fn rand_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::rand_normal(&[20_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10., 20.], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11., 22., 13., 24.]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[10., 40., 30., 80.]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-9., -18., -7., -16.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1., -2., 3., 4.], &[4]).unwrap();
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max().unwrap(), 4.0);
        assert_eq!(a.sq_norm(), 1. + 4. + 9. + 16.);
        assert!(Tensor::zeros(&[0]).max().is_err());
    }

    #[test]
    fn transpose_rank2() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn rows() {
        let mut a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        assert_eq!(a.row(1).unwrap(), &[3., 4.]);
        a.row_mut(0).unwrap()[1] = 9.0;
        assert_eq!(a.as_slice(), &[1., 9., 3., 4.]);
        assert!(a.row(2).is_err());
        assert!(Tensor::zeros(&[3]).row(0).is_err());
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![1., 2., 3.], &[3]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
        assert!(a.axpy(1.0, &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn at_and_set() {
        let mut a = Tensor::zeros(&[2, 2]);
        a.set(&[1, 0], 5.0).unwrap();
        assert_eq!(a.at(&[1, 0]).unwrap(), 5.0);
        assert!(a.at(&[2, 0]).is_err());
    }

    #[test]
    fn display_truncates() {
        let a = Tensor::zeros(&[20]);
        let s = a.to_string();
        assert!(s.contains("more"));
        assert!(!Tensor::zeros(&[2]).to_string().is_empty());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0005, 2.0], &[2]).unwrap();
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-5));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0));
    }

    /// A tensor of `dims` holding distinct, signed, non-round values, so a
    /// misplaced operand shows in the bits.
    fn distinct(dims: &[usize], salt: f32) -> Tensor {
        let n = dims.iter().product::<usize>();
        let data = (0..n)
            .map(|i| (i as f32 * 0.37 + salt).sin() * 3.1)
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// Every pairing the layers make: equal shapes of rank 1–3, and a
    /// row — `[d]` or `[1, d]` against `[n, d]`, `[c]` or `[b, c]`
    /// against `[a, b, c]`.
    fn layer_pairs() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
        (1usize..5, 1usize..5, 1usize..5, 0usize..7).prop_map(|(a, b, c, kind)| match kind {
            0 => (vec![c], vec![c]),
            1 => (vec![b, c], vec![b, c]),
            2 => (vec![a, b, c], vec![a, b, c]),
            3 => (vec![b, c], vec![c]),
            4 => (vec![b, c], vec![1, c]),
            5 => (vec![a, b, c], vec![c]),
            _ => (vec![a, b, c], vec![b, c]),
        })
    }

    proptest! {
        #[test]
        fn prop_add_commutes(v in proptest::collection::vec(-100f32..100.0, 1..40)) {
            let n = v.len();
            let a = Tensor::from_vec(v.clone(), &[n]).unwrap();
            let b = Tensor::from_vec(v.iter().rev().copied().collect(), &[n]).unwrap();
            prop_assert!(a.add(&b).unwrap().allclose(&b.add(&a).unwrap(), 1e-6));
        }

        #[test]
        fn prop_binary_is_the_row_broadcast((ld, rd) in layer_pairs()) {
            let (lhs, rhs) = (distinct(&ld, 0.5), distinct(&rd, -1.25));
            let f = |a: f32, b: f32| a * b - a / (b.abs() + 1.0);
            let got = lhs.binary(&rhs, f).unwrap();
            let (l, r) = (lhs.as_slice(), rhs.as_slice());
            let want: Vec<u32> = (0..l.len()).map(|i| f(l[i], r[i % r.len()]).to_bits()).collect();
            prop_assert_eq!(got.shape(), lhs.shape());
            prop_assert_eq!(got.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        }

        #[test]
        fn prop_columns_and_broadcast_lhs_are_refused(n in 2usize..6, d in 2usize..6) {
            let refused = |lhs: &[usize], rhs: &[usize]| {
                matches!(
                    distinct(lhs, 0.0).add(&distinct(rhs, 1.0)),
                    Err(TensorError::BroadcastIncompatible { .. })
                )
            };
            prop_assert!(refused(&[n, d], &[n, 1]), "a column is not a row");
            prop_assert!(refused(&[d], &[n, d]), "the lhs is never broadcast");
            prop_assert!(refused(&[n, d], &[d + 1]), "a row of another width");
        }

        #[test]
        fn prop_scale_linear(v in proptest::collection::vec(-10f32..10.0, 1..40), k in -4f32..4.0) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]).unwrap();
            let lhs = a.scale(k).sum();
            let rhs = a.sum() * k;
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()));
        }

        #[test]
        fn prop_transpose_involution(r in 1usize..6, c in 1usize..6) {
            let data: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
            let a = Tensor::from_vec(data, &[r, c]).unwrap();
            prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
        }
    }
}
