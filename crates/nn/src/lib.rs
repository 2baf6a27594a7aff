//! Neural-network substrate for the MEmCom reproduction.
//!
//! Implements precisely the layer set of the paper's network (Code 1):
//! `Dense`, `ReLU`, `Dropout`, `BatchNormalization`, `AveragePooling1D` (+
//! the implicit `Flatten`), softmax cross-entropy for classification /
//! pointwise ranking, and the RankNet pairwise loss — all with explicit,
//! finite-difference-verified backward passes.
//!
//! The design deliberately avoids a tape/autograd graph: each [`Layer`]
//! caches whatever it needs during `forward` and consumes it in `backward`.
//! This keeps every gradient auditable in isolation (see [`gradcheck`]).
//!
//! Optimizers ([`optim::Adam`], which every training run uses, and plain
//! [`optim::Sgd`], the exactly-predictable rule unit tests use) support
//! both dense parameter updates and *sparse row* updates, which is what
//! makes training large embedding tables practical — only touched vocabulary
//! rows pay any cost per step, mirroring how TensorFlow trains
//! `tf.nn.embedding_lookup` tables.

pub mod batchnorm;
pub mod dense;
pub mod dropout;
pub mod error;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod pooling;
pub mod relu;
pub mod sequential;

pub use batchnorm::BatchNorm1d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use error::NnError;
pub use layer::{Layer, Mode, ParamId, ParamVisitor};
pub use loss::{ranknet_loss, softmax_cross_entropy, LossOutput};
pub use optim::{Adam, Optimizer, Sgd};
pub use pooling::AveragePool1d;
pub use relu::Relu;
pub use sequential::Sequential;

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, NnError>;
