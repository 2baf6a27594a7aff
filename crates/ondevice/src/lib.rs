//! On-device inference simulator.
//!
//! Stands in for the paper's §5.3 hardware setup (CoreML on an iPhone 12
//! Pro, TensorFlow Lite on a Pixel 2) with a faithful *architectural*
//! model of what those runtimes do with an embedding model:
//!
//! * [`format`](mod@format) — a flat binary model format (the "on-disk model" whose
//!   size the paper's compression ratios govern); its header carries the
//!   embedding stage's `memcom_core::Recipe`, so every technique
//!   serializes.
//! * [`pages`] — row tables stored as lazily-resident pages: the one
//!   model of memory-mapped loading ("CoreML and TF-Lite implement the
//!   lookup operator in the embedding layer using mmap", §5.3) under both
//!   the engine here and the serving tier's stores, where its
//!   structurally-shared, copy-on-write pages also carry row-level delta
//!   updates (a snapshot clone shares every untouched page).
//! * [`tables`] — the embedding front end both runtimes share: a
//!   recipe's tables as paged columns (the model file's one-scale-per-table
//!   rows, the store's per-row-scale rows, int8 scalar blocks) and the one
//!   loop that runs `memcom-core`'s executor over them, with its page and
//!   flop accounting.
//! * [`engine`] — the inference engine: the file's embedding tables read
//!   through [`tables`], touching only the rows a query needs
//!   (MEmCom-style lookups), except that a `OneHotMatmul` recipe
//!   (Weinberger-style) is charged what the paper measures — the `L × m`
//!   one-hot activation and a product against the whole kernel — then the
//!   head ops over their own paged tables.
//! * [`compute`] — per-compute-unit latency models (CoreML `all` /
//!   `cpuOnly` / `cpuAndGPU`, TF-Lite CPU) translating counted work into
//!   Table-3-style milliseconds.
//! * [`quant`] — post-training linear quantization (FP16/INT8/INT4/INT2)
//!   for the Figure-4 precision sweep.
//! * [`simd`] — `memcom_tensor::simd`, re-exported: the dequantization
//!   kernels underneath the decode hot path and the tile kernel
//!   underneath the engine's dense layers, the one that training's
//!   `matmul` runs too: an AVX2 tier, dispatched at runtime where the
//!   CPU has it, bit-identical to the scalar reference that runs
//!   everywhere else.
//!
//! Absolute milliseconds are simulator units calibrated to Table 3's
//! magnitudes; the reproduced *shape* is what matters — who wins on which
//! compute unit and by roughly what factor, and the memory-footprint gap
//! between lookup- and one-hot-based embedding front ends.

pub mod compute;
pub mod engine;
pub mod error;
pub mod format;
pub mod pages;
pub mod quant;
pub mod tables;

pub use compute::ComputeUnit;
pub use engine::{HeadScratch, InferenceSession, RunStats};
pub use error::OnDeviceError;
pub use format::{OnDeviceModel, MAGIC};
pub use memcom_tensor::simd;
pub use pages::PagedTable;
pub use quant::{decode_row_into, dequant_error_bound, quantize_row, Dtype};
pub use simd::{active_kernel, Kernel};
pub use tables::EmbeddingTables;

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, OnDeviceError>;
