//! Shapes, strides, and index arithmetic for row-major tensors.

use crate::error::TensorError;
use crate::Result;

/// The dimensions of a tensor, stored outermost-first (row-major).
///
/// A `Shape` is a thin, validated wrapper over a `Vec<usize>`. Rank-0
/// (scalar) shapes are allowed and have volume 1.
///
/// # Example
///
/// ```
/// use memcom_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::InvalidAxis {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides (in elements) for this shape.
    ///
    /// The innermost dimension always has stride 1; a scalar has no strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `index` has the wrong
    /// rank, and [`TensorError::IndexOutOfBounds`] when any coordinate
    /// exceeds its extent.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "index of rank {} applied to shape of rank {}",
                    index.len(),
                    self.rank()
                ),
            });
        }
        let strides = self.strides();
        let mut flat = 0usize;
        for (axis, (&i, &extent)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= extent {
                return Err(TensorError::IndexOutOfBounds { index: i, extent });
            }
            flat += i * strides[axis];
        }
        Ok(flat)
    }

    /// Returns the shape with dimension `axis` removed (used by reductions).
    ///
    /// Reducing the only dimension yields the scalar shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn without_axis(&self, axis: usize) -> Result<Shape> {
        if axis >= self.rank() {
            return Err(TensorError::InvalidAxis {
                axis,
                rank: self.rank(),
            });
        }
        let mut dims = self.dims.clone();
        dims.remove(axis);
        Ok(Shape { dims })
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn volume_and_rank() {
        assert_eq!(Shape::new(&[2, 3, 4]).volume(), 24);
        assert_eq!(Shape::new(&[2, 3, 4]).rank(), 3);
        assert_eq!(Shape::new(&[]).volume(), 1);
        assert_eq!(Shape::new(&[]).rank(), 0);
        assert_eq!(Shape::new(&[0, 5]).volume(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
        assert!(Shape::new(&[]).strides().is_empty());
    }

    #[test]
    fn flat_index_is_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        let mut flat = 0;
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(s.flat_index(&[i, j, k]).unwrap(), flat);
                    flat += 1;
                }
            }
        }
    }

    #[test]
    fn flat_index_bounds_checked() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(
            s.flat_index(&[2, 0]),
            Err(TensorError::IndexOutOfBounds {
                index: 2,
                extent: 2
            })
        );
        assert!(matches!(
            s.flat_index(&[0]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn without_axis_reduces_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.without_axis(1).unwrap(), Shape::new(&[2, 4]));
        assert_eq!(Shape::new(&[5]).without_axis(0).unwrap(), Shape::new(&[]));
        assert!(s.without_axis(3).is_err());
    }

    #[test]
    fn display_formats_like_a_list() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    proptest! {
        #[test]
        fn prop_strides_decreasing_and_consistent(
            dims in proptest::collection::vec(1usize..6, 1..5)
        ) {
            let s = Shape::from(dims.clone());
            let strides = s.strides();
            // stride[i] == stride[i+1] * dim[i+1]
            for i in 0..dims.len() - 1 {
                prop_assert_eq!(strides[i], strides[i + 1] * dims[i + 1]);
            }
            prop_assert_eq!(strides[dims.len() - 1], 1);
        }
    }
}
