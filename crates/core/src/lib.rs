//! # memcom-core — compressed embedding layers
//!
//! The paper's contribution (MEmCom, Algorithms 2–3) and every baseline it
//! is compared against in the MLSys 2022 evaluation:
//!
//! | Type | Paper reference |
//! |---|---|
//! | [`FullEmbedding`] | uncompressed baseline |
//! | [`MemCom`] (bias / no-bias) | Algorithms 2 & 3 (**our approach**) |
//! | [`NaiveHashEmbedding`] | "naive hashing" (`i mod m`) |
//! | [`DoubleHashEmbedding`] | Zhang et al., RecSys 2020 |
//! | [`QuotientRemainder`] | Shi et al., 2019 (⊙ and concat variants) |
//! | [`FactorizedEmbedding`] | factorized embedding parameterization (ALBERT) |
//! | [`ReducedDimEmbedding`] | "reduce embedding dim" |
//! | [`TruncateRareEmbedding`] | "truncate rare" |
//! | [`OneHotHashEncoder`] | Weinberger feature hashing (Table 3 baseline) |
//!
//! All implementations share one skeleton ([`compressor`]): a technique is
//! its tables ([`ParamTable`]) and its [`Recipe`] — one
//! [`hashing::RowMap`] per table and one [`Combine`] over the rows they
//! select, executed by the single [`Recipe::row_into`] and differentiated
//! by the single [`Recipe::backward`]. The [`EmbeddingCompressor`] trait
//! provides everything else once — the id-batch `lookup`, the
//! `forward`/`backward` id cache, the sparse gradient path, optimizer
//! application that touches only the rows used in the batch, and table
//! enumeration. Because the recipe is data, it is also what
//! `memcom-ondevice` writes into a model file and executes on device and
//! what `memcom-serve` chooses its store layout from: nothing outside
//! [`recipe`] knows how any technique turns an id into a row. The four
//! one-table techniques (uncompressed, naive hashing, truncate-rare,
//! reduced dim) are one type, [`SingleTable`]. Adding a technique is
//! tables + recipe — a constructor; the [`compressor`] module docs walk
//! through naive hashing as the worked example.
//!
//! Supporting analysis lives alongside: closed-form collision rates from §4
//! ([`collision`]), the fixed-model-size budget solver from §A.1
//! ([`budget`]), and the embedding-uniqueness audit from §A.4
//! ([`uniqueness`]).
//!
//! # Example
//!
//! ```
//! use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), memcom_core::CoreError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! // 100K-entity vocabulary → 10K shared rows + 100K multipliers.
//! let layer = MemCom::new(MemComConfig::new(100_000, 64, 10_000), &mut rng)?;
//! assert_eq!(layer.param_count(), 10_000 * 64 + 100_000);
//! let out = layer.lookup(&[0, 12_345, 99_999])?;
//! assert_eq!(out.shape().dims(), &[3, 64]);
//! # Ok(())
//! # }
//! ```

pub mod budget;
pub mod collision;
pub mod compressor;
pub mod double_hash;
pub mod error;
pub mod factorized;
pub mod hashing;
pub mod memcom;
pub mod one_hot_hash;
pub mod quotient_remainder;
pub mod recipe;
pub mod single_table;
pub mod spec;
pub mod uniqueness;

pub use compressor::{CompressorState, EmbeddingCompressor, NamedTable, ParamTable};
pub use double_hash::DoubleHashEmbedding;
pub use error::CoreError;
pub use factorized::FactorizedEmbedding;
pub use memcom::{MemCom, MemComConfig};
pub use one_hot_hash::OneHotHashEncoder;
pub use quotient_remainder::{QrCombiner, QuotientRemainder};
pub use recipe::{Combine, Recipe};
pub use single_table::{
    FullEmbedding, NaiveHashEmbedding, ReducedDimEmbedding, SingleTable, TruncateRareEmbedding,
};
pub use spec::MethodSpec;

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
