//! Error type shared by all tensor operations.

use std::error::Error;
use std::fmt;

/// Errors produced by tensor construction and tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the product of the requested shape.
    LengthMismatch {
        /// Number of elements supplied.
        data_len: usize,
        /// Number of elements the shape requires.
        expected: usize,
    },
    /// The right-hand shape is neither the left-hand shape nor a row of
    /// it (its dims, leading 1s dropped, are not the left's trailing dims).
    BroadcastIncompatible {
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// The shapes are incompatible for the attempted operation (e.g. matmul
    /// inner dimensions differ).
    ShapeMismatch {
        /// Human-readable description of the constraint that was violated.
        context: String,
    },
    /// An axis argument was out of range for the tensor's rank.
    InvalidAxis {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// An index was out of bounds for the indexed dimension.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension's extent.
        extent: usize,
    },
    /// A zero-sized dimension or empty tensor was used where it is invalid.
    EmptyTensor,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { data_len, expected } => write!(
                f,
                "data length {data_len} does not match shape volume {expected}"
            ),
            TensorError::BroadcastIncompatible { lhs, rhs } => {
                write!(f, "shapes {lhs:?} and {rhs:?} cannot be broadcast together")
            }
            TensorError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
            TensorError::InvalidAxis { axis, rank } => {
                write!(f, "axis {axis} is out of range for rank {rank}")
            }
            TensorError::IndexOutOfBounds { index, extent } => {
                write!(
                    f,
                    "index {index} out of bounds for dimension of extent {extent}"
                )
            }
            TensorError::EmptyTensor => write!(f, "operation requires a non-empty tensor"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            TensorError::LengthMismatch {
                data_len: 3,
                expected: 4,
            },
            TensorError::BroadcastIncompatible {
                lhs: vec![2],
                rhs: vec![3],
            },
            TensorError::ShapeMismatch {
                context: "inner dims".into(),
            },
            TensorError::InvalidAxis { axis: 5, rank: 2 },
            TensorError::IndexOutOfBounds {
                index: 9,
                extent: 3,
            },
            TensorError::EmptyTensor,
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
