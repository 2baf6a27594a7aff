//! Dense `f32` tensor substrate for the MEmCom reproduction.
//!
//! This crate provides the minimal numerical core that the paper's
//! training stack needs: row-major dense tensors, elementwise ops that
//! broadcast a row across a batch (a `Dense` bias or a `BatchNorm1d`
//! parameter `[d]` against `[n, d]` — MEmCom's `v×1` multiplier is applied
//! row by row in `memcom-core`, not broadcast here), matrix
//! multiplication, axis reductions, activations, and seeded weight
//! initializers.
//!
//! It also holds the kernels both stacks run: [`simd`] carries the
//! runtime-dispatched row-decode kernels and [`simd::dense_tile`], the
//! workspace's only dense product — [`ops::matmul`] runs it for
//! training, and `memcom-ondevice` re-exports the module for the
//! engine's dense layers and the row codec — and [`f16`](mod@f16) the
//! half-precision bit conversions that codec's F16 rows use. So a
//! dense layer computes one function in training and on the device.
//!
//! Design notes:
//! * Everything is `f32` — matching the paper's FP32 training/inference
//!   setup (Table 3 explicitly evaluates non-quantized FP32 models).
//! * Tensors are always contiguous row-major. Views are intentionally not
//!   implemented; the layer code copies rows where needed, which keeps the
//!   backward passes simple to audit against finite differences.
//! * All randomness flows through caller-supplied [`rand::Rng`] values so
//!   experiments are reproducible bit-for-bit from a seed.
//!
//! # Example
//!
//! ```
//! use memcom_tensor::Tensor;
//!
//! # fn main() -> Result<(), memcom_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::from_vec(vec![10.0, 20.0], &[2])?;
//! let c = a.mul(&b)?; // broadcasts the row across a's rows
//! assert_eq!(c.as_slice(), &[10.0, 40.0, 30.0, 80.0]);
//! // A column is not a row: only trailing dims broadcast.
//! assert!(a.mul(&Tensor::from_vec(vec![10.0, 20.0], &[2, 1])?).is_err());
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod f16;
pub mod init;
pub mod ops;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
