//! # memcom — facade crate
//!
//! Single-import entry point for the MEmCom reproduction (Pansare et al.,
//! *Learning Compressed Embeddings for On-Device Inference*, MLSys 2022).
//! Re-exports every subsystem crate under one namespace:
//!
//! * [`tensor`] — dense f32 tensors, row broadcasting, matmul, activations.
//! * [`nn`] — layers, losses, optimizers, gradient checking.
//! * [`core`] — MEmCom and every baseline embedding-compression technique.
//! * [`data`] — synthetic power-law dataset generators (Table 2 stand-ins).
//! * [`metrics`] — accuracy / top-k / nDCG.
//! * [`models`] — the paper's networks, trainer, and compression sweeps.
//! * [`ondevice`] — model serialization, lazily-resident paged tables,
//!   inference engines, post-training quantization.
//! * [`dp`] — DP-SGD and the Rényi-DP accountant.
//! * [`serve`] — sharded, micro-batching embedding-serving engine with
//!   admission control, delta snapshots and Zipf load generation.
//! * [`net`] — network-attached serving: length-framed wire protocol,
//!   multi-client server over the serve tier, pipelined client with
//!   deadline and backoff support.
//!
//! # Quickstart
//!
//! ```
//! use memcom::core::{EmbeddingCompressor, MemCom, MemComConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! // 10 000-entity vocabulary compressed into 1 000 shared rows + 10 000
//! // scalar multipliers (Algorithm 2 of the paper).
//! let layer = MemCom::new(MemComConfig::new(10_000, 64, 1_000), &mut rng)?;
//! let out = layer.lookup(&[3, 9_999, 3])?;
//! assert_eq!(out.shape().dims(), &[3, 64]);
//! # Ok(())
//! # }
//! ```

pub use memcom_core as core;
pub use memcom_data as data;
pub use memcom_dp as dp;
pub use memcom_metrics as metrics;
pub use memcom_models as models;
pub use memcom_net as net;
pub use memcom_nn as nn;
pub use memcom_ondevice as ondevice;
pub use memcom_serve as serve;
pub use memcom_tensor as tensor;
