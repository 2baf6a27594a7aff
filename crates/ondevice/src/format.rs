//! The flat binary on-device model format.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "MEMC" | u32 version | u8 embedding_kind | u32 input_len |
//! u64 vocab | u64 hash_size | u32 emb_dim | u32 n_head_ops |
//! head ops … | embedding tables …
//! ```
//!
//! Head ops are `u8 kind` followed by op payload; tables are
//! `u8 dtype | u64 rows | u64 cols | f32 scale | payload`. Embedding
//! tables come **last**, after the (small) head weights. The engine pages
//! each table's payload on its own, row-aligned
//! ([`PagedTable`](crate::PagedTable)): the head tables fault once and
//! stay warm, while the big embedding payload faults row-by-row, exactly
//! the access pattern the mmap discussion in §5.3 relies on.
//!
//! A model file is input from outside the program: [`OnDeviceModel::parse`]
//! checks every size it reads and every table's shape against the
//! manifest, so the engine indexes a parsed model without re-checking.

use memcom_core::hashing::RowMap;
use memcom_core::one_hot_hash::ONE_HOT_SEED;
use memcom_core::EmbeddingCompressor;
use memcom_nn::{BatchNorm1d, Dense, Sequential};
use memcom_tensor::Tensor;

use crate::quant::{Dtype, QuantizedTable};
use crate::{OnDeviceError, Result};

/// File magic: `MEMC`.
pub const MAGIC: [u8; 4] = *b"MEMC";
/// Current format version.
pub const VERSION: u32 = 1;

fn bad_format(context: impl Into<String>) -> OnDeviceError {
    OnDeviceError::BadFormat {
        context: context.into(),
    }
}

/// Which embedding front end the file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbeddingKind {
    /// One `v × e` table, direct row lookup.
    Full,
    /// `m × e` table indexed by `id mod m`.
    NaiveHash,
    /// MEmCom without bias: `U[m×e]`, `V[v×1]`.
    MemCom,
    /// MEmCom with bias: `U[m×e]`, `V[v×1]`, `W[v×1]`.
    MemComBias,
    /// Weinberger one-hot hashing: `m × e` kernel hit by a one-hot matmul.
    OneHotHash,
    /// Truncate-rare: `(keep+1) × e` table, OOV row at index `keep`.
    TruncateRare,
}

impl EmbeddingKind {
    fn tag(self) -> u8 {
        match self {
            EmbeddingKind::Full => 0,
            EmbeddingKind::NaiveHash => 1,
            EmbeddingKind::MemCom => 2,
            EmbeddingKind::MemComBias => 3,
            EmbeddingKind::OneHotHash => 4,
            EmbeddingKind::TruncateRare => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => EmbeddingKind::Full,
            1 => EmbeddingKind::NaiveHash,
            2 => EmbeddingKind::MemCom,
            3 => EmbeddingKind::MemComBias,
            4 => EmbeddingKind::OneHotHash,
            5 => EmbeddingKind::TruncateRare,
            _ => return Err(bad_format(format!("unknown embedding kind {tag}"))),
        })
    }

    /// The id → row map of this front end over a first table of
    /// `hash_size` rows: the same [`RowMap`] the compressor behind
    /// [`from_method_name`](Self::from_method_name) trains with.
    pub fn row_map(self, hash_size: usize) -> RowMap {
        match self {
            EmbeddingKind::Full => RowMap::Identity,
            EmbeddingKind::NaiveHash | EmbeddingKind::MemCom | EmbeddingKind::MemComBias => {
                RowMap::Mod(hash_size)
            }
            EmbeddingKind::OneHotHash => RowMap::Seeded {
                m: hash_size,
                seed: ONE_HOT_SEED,
            },
            // `keep` kept rows, then the shared OOV row.
            EmbeddingKind::TruncateRare => RowMap::Clamp(hash_size - 1),
        }
    }

    /// Maps a compressor's `method_name` to a serializable kind.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::Unsupported`] for techniques the on-device
    /// interpreter does not execute (quotient–remainder, double hashing,
    /// factorized — the paper's Table 3 covers lookup- and one-hot-style
    /// front ends, to which those belong architecturally).
    pub fn from_method_name(name: &str) -> Result<Self> {
        Ok(match name {
            "uncompressed" | "reduce_dim" => EmbeddingKind::Full,
            "naive_hash" => EmbeddingKind::NaiveHash,
            "memcom_nobias" => EmbeddingKind::MemCom,
            "memcom" => EmbeddingKind::MemComBias,
            "weinberger_onehot" => EmbeddingKind::OneHotHash,
            "truncate_rare" => EmbeddingKind::TruncateRare,
            other => {
                return Err(OnDeviceError::Unsupported {
                    context: format!("method {other} has no on-device engine"),
                })
            }
        })
    }
}

/// Metadata of one serialized table: where its payload lives in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Storage dtype.
    pub dtype: Dtype,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Linear quantization scale.
    pub scale: f32,
    /// Byte offset of the payload within the file.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Ordinal of this table in the file (head-op tables in op order,
    /// then the embedding tables) — its slot in a loaded session.
    pub index: usize,
}

impl TableMeta {
    /// Byte range of row `r` within the file.
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        let row_bytes = self.dtype.row_bytes(self.cols);
        (self.payload_offset + r * row_bytes, row_bytes)
    }
}

/// One deserialized head operation.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadOp {
    /// Mean over the sequence axis then flatten.
    AveragePool,
    /// Elementwise ReLU.
    Relu,
    /// Eval-mode batch normalization.
    BatchNorm {
        /// Feature width.
        dim: usize,
        /// `gamma, beta, mean, var` tables.
        tables: [TableMeta; 4],
        /// Stability epsilon.
        eps: f32,
    },
    /// Dense `x·W + b`.
    Dense {
        /// Input width.
        in_dim: usize,
        /// Output width.
        out_dim: usize,
        /// Kernel table.
        weight: TableMeta,
        /// Bias table.
        bias: TableMeta,
    },
}

/// A parsed on-device model: raw bytes plus the manifest needed to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct OnDeviceModel {
    /// The serialized file contents.
    pub bytes: Vec<u8>,
    /// Embedding front-end kind.
    pub embedding_kind: EmbeddingKind,
    /// Fixed input length.
    pub input_len: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Hash size `m` (table rows for hashed kinds; = rows for full).
    pub hash_size: usize,
    /// Embedding output dimension.
    pub emb_dim: usize,
    /// Head operations in execution order.
    pub head_ops: Vec<HeadOp>,
    /// Embedding tables (kind-dependent count and meaning).
    pub emb_tables: Vec<TableMeta>,
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn table(&mut self, t: &Tensor, dtype: Dtype) -> Result<()> {
        let q = QuantizedTable::quantize(t, dtype)?;
        self.u8(dtype.tag());
        self.u64(q.rows as u64);
        self.u64(q.cols as u64);
        self.f32(q.scale);
        self.buf.extend_from_slice(&q.data);
        Ok(())
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Tables read so far (the next [`TableMeta::index`]).
    tables: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(bad_format(format!("truncated file at offset {}", self.pos)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// A `u64` count field, rejected when this target cannot address it.
    fn count(&mut self) -> Result<usize> {
        let v = u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        usize::try_from(v).map_err(|_| bad_format(format!("count {v} exceeds the address space")))
    }
    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// Reads one table whose shape the manifest fixes at `rows × cols`
    /// (`what` names it in the error). Every table the engine indexes
    /// comes through here, so a parsed model holds whole, non-empty rows
    /// of exactly the width its reader decodes.
    fn table_meta(&mut self, what: &str, rows: usize, cols: usize) -> Result<TableMeta> {
        let dtype = Dtype::from_tag(self.u8()?)?;
        let (file_rows, file_cols) = (self.count()?, self.count()?);
        let scale = self.f32()?;
        if (file_rows, file_cols) != (rows, cols) || rows == 0 || cols == 0 {
            return Err(bad_format(format!(
                "{what} table is {file_rows}x{file_cols}, manifest needs a non-empty {rows}x{cols}"
            )));
        }
        let payload_len = cols
            .checked_mul(dtype.bits())
            .and_then(|bits| bits.div_ceil(8).checked_mul(rows))
            .ok_or_else(|| bad_format(format!("{what} table size overflows")))?;
        let payload_offset = self.pos;
        self.take(payload_len)?;
        let index = self.tables;
        self.tables += 1;
        Ok(TableMeta {
            dtype,
            rows,
            cols,
            scale,
            payload_offset,
            payload_len,
            index,
        })
    }
}

impl OnDeviceModel {
    /// Serializes an embedding stage plus head into the on-device format,
    /// quantizing every table to `dtype`.
    ///
    /// The head must consist of average-pool / ReLU / dropout /
    /// batch-norm / dense layers (the Code-1 repertoire); dropout is the
    /// identity at inference time and is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::Unsupported`] for other layer or embedding
    /// types.
    pub fn serialize(
        embedding: &dyn EmbeddingCompressor,
        head: &Sequential,
        input_len: usize,
        dtype: Dtype,
    ) -> Result<Vec<u8>> {
        let kind = EmbeddingKind::from_method_name(embedding.method_name())?;
        let tables = embedding.tables();
        let hash_size = tables
            .first()
            .map(|t| t.tensor.shape().dims()[0])
            .ok_or_else(|| OnDeviceError::Unsupported {
                context: "embedding has no tables".into(),
            })?;

        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u8(kind.tag());
        w.u32(input_len as u32);
        w.u64(embedding.vocab_size() as u64);
        w.u64(hash_size as u64);
        w.u32(embedding.output_dim() as u32);

        // Collect serializable head ops first (dropout skipped).
        let mut ops: Vec<&dyn memcom_nn::Layer> = Vec::new();
        for i in 0..head.len() {
            let layer = head.layer(i).expect("index in range");
            match layer.name() {
                "dropout" => continue,
                "average_pool1d" | "relu" | "batchnorm1d" | "dense" => ops.push(layer),
                other => {
                    return Err(OnDeviceError::Unsupported {
                        context: format!("head layer {other} has no on-device op"),
                    })
                }
            }
        }
        w.u32(ops.len() as u32);
        for layer in ops {
            match layer.name() {
                "average_pool1d" => w.u8(0),
                "relu" => w.u8(1),
                "batchnorm1d" => {
                    let bn = layer
                        .as_any()
                        .downcast_ref::<BatchNorm1d>()
                        .expect("name implies type");
                    w.u8(2);
                    w.u32(bn.features() as u32);
                    w.f32(bn.eps());
                    let (gamma, beta, mean, var) = bn.state();
                    // Normalization statistics keep full precision — CoreML's
                    // linear mode quantizes weights, not norm state.
                    for t in [gamma, beta, mean, var] {
                        w.table(t, Dtype::F32)?;
                    }
                }
                "dense" => {
                    let dense = layer
                        .as_any()
                        .downcast_ref::<Dense>()
                        .expect("name implies type");
                    w.u8(3);
                    w.u32(dense.in_dim() as u32);
                    w.u32(dense.out_dim() as u32);
                    w.table(dense.weight(), dtype)?;
                    w.table(dense.bias(), Dtype::F32)?;
                }
                _ => unreachable!("filtered above"),
            }
        }
        // Embedding tables last (see module docs).
        for t in embedding.tables() {
            w.table(t.tensor, dtype)?;
        }
        Ok(w.buf)
    }

    /// Parses a serialized model.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::BadFormat`] for malformed input.
    pub fn parse(bytes: Vec<u8>) -> Result<Self> {
        let mut r = Reader {
            buf: &bytes,
            pos: 0,
            tables: 0,
        };
        if r.take(4)? != MAGIC {
            return Err(bad_format("bad magic"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(bad_format(format!("unsupported version {version}")));
        }
        let embedding_kind = EmbeddingKind::from_tag(r.u8()?)?;
        let input_len = r.u32()? as usize;
        let vocab = r.count()?;
        let hash_size = r.count()?;
        let emb_dim = r.u32()? as usize;
        let n_ops = r.u32()? as usize;
        // Every op is at least its one-byte kind, so the bytes left bound
        // how many a well-formed file can still hold.
        let mut head_ops = Vec::with_capacity(n_ops.min(r.remaining()));
        for _ in 0..n_ops {
            let kind = r.u8()?;
            head_ops.push(match kind {
                0 => HeadOp::AveragePool,
                1 => HeadOp::Relu,
                2 => {
                    let dim = r.u32()? as usize;
                    let eps = r.f32()?;
                    let tables = [
                        r.table_meta("batch-norm gamma", 1, dim)?,
                        r.table_meta("batch-norm beta", 1, dim)?,
                        r.table_meta("batch-norm mean", 1, dim)?,
                        r.table_meta("batch-norm var", 1, dim)?,
                    ];
                    HeadOp::BatchNorm { dim, tables, eps }
                }
                3 => {
                    let in_dim = r.u32()? as usize;
                    let out_dim = r.u32()? as usize;
                    let weight = r.table_meta("dense weight", in_dim, out_dim)?;
                    let bias = r.table_meta("dense bias", 1, out_dim)?;
                    HeadOp::Dense {
                        in_dim,
                        out_dim,
                        weight,
                        bias,
                    }
                }
                other => return Err(bad_format(format!("unknown op {other}"))),
            });
        }
        if embedding_kind == EmbeddingKind::Full && hash_size != vocab {
            return Err(bad_format(format!(
                "full embedding has {hash_size} rows for a vocabulary of {vocab}"
            )));
        }
        let mut emb_tables = vec![r.table_meta("embedding", hash_size, emb_dim)?];
        let per_id_scalars = match embedding_kind {
            EmbeddingKind::MemCom => 1,
            EmbeddingKind::MemComBias => 2,
            _ => 0,
        };
        for _ in 0..per_id_scalars {
            emb_tables.push(r.table_meta("per-id scalar", vocab, 1)?);
        }
        if r.remaining() != 0 {
            return Err(bad_format(format!("{} trailing bytes", r.remaining())));
        }
        Ok(OnDeviceModel {
            embedding_kind,
            input_len,
            vocab,
            hash_size,
            emb_dim,
            head_ops,
            emb_tables,
            bytes,
        })
    }

    /// On-disk model size in bytes — the quantity the paper's compression
    /// ratios control ("by compression, we refer to … the on-disk model
    /// size").
    pub fn file_size(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{FullEmbedding, MemCom, MemComConfig, MethodSpec};
    use memcom_nn::{AveragePool1d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_head(e: usize, classes: usize) -> Sequential {
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = Sequential::new();
        head.push(AveragePool1d::new());
        head.push(Relu::new());
        head.push(memcom_nn::Dropout::new(0.1, 0)); // must be skipped
        head.push(BatchNorm1d::new(e));
        head.push(Dense::new(e, classes, &mut rng));
        head
    }

    #[test]
    fn round_trip_full_embedding() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = FullEmbedding::new(40, 8, &mut rng).unwrap();
        let head = tiny_head(8, 5);
        let bytes = OnDeviceModel::serialize(&emb, &head, 16, Dtype::F32).unwrap();
        let model = OnDeviceModel::parse(bytes).unwrap();
        assert_eq!(model.embedding_kind, EmbeddingKind::Full);
        assert_eq!(model.input_len, 16);
        assert_eq!(model.vocab, 40);
        assert_eq!(model.emb_dim, 8);
        assert_eq!(model.emb_tables.len(), 1);
        assert_eq!(model.emb_tables[0].rows, 40);
        // Dropout skipped: pool, relu, bn, dense.
        assert_eq!(model.head_ops.len(), 4);
        assert!(matches!(model.head_ops[0], HeadOp::AveragePool));
        assert!(matches!(
            model.head_ops[3],
            HeadOp::Dense {
                in_dim: 8,
                out_dim: 5,
                ..
            }
        ));
    }

    #[test]
    fn memcom_bias_has_three_tables() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = MemCom::new(MemComConfig::with_bias(100, 8, 10), &mut rng).unwrap();
        let bytes = OnDeviceModel::serialize(&emb, &tiny_head(8, 3), 4, Dtype::F32).unwrap();
        let model = OnDeviceModel::parse(bytes).unwrap();
        assert_eq!(model.embedding_kind, EmbeddingKind::MemComBias);
        assert_eq!(model.emb_tables.len(), 3);
        assert_eq!(model.hash_size, 10);
        assert_eq!(model.emb_tables[1].rows, 100); // multiplier
        assert_eq!(model.emb_tables[1].cols, 1);
    }

    #[test]
    fn quantized_file_is_smaller() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = FullEmbedding::new(1000, 32, &mut rng).unwrap();
        let head = tiny_head(32, 5);
        let f32_size = OnDeviceModel::serialize(&emb, &head, 8, Dtype::F32)
            .unwrap()
            .len();
        let int8_size = OnDeviceModel::serialize(&emb, &head, 8, Dtype::Int8)
            .unwrap()
            .len();
        // Embedding dominates; int8 ≈ 1/4 the f32 payload.
        assert!(
            (int8_size as f64) < (f32_size as f64) * 0.35,
            "{int8_size} vs {f32_size}"
        );
    }

    #[test]
    fn unsupported_methods_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = MethodSpec::QuotientRemainder {
            hash_size: 10,
            combiner: memcom_core::QrCombiner::Multiply,
        }
        .build(100, 8, &mut rng)
        .unwrap();
        assert!(matches!(
            OnDeviceModel::serialize(emb.as_ref(), &tiny_head(8, 3), 4, Dtype::F32),
            Err(OnDeviceError::Unsupported { .. })
        ));
    }

    #[test]
    fn parse_rejects_corruption() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = FullEmbedding::new(10, 4, &mut rng).unwrap();
        let bytes = OnDeviceModel::serialize(&emb, &tiny_head(4, 2), 4, Dtype::F32).unwrap();
        // Bad magic.
        let mut corrupted = bytes.clone();
        corrupted[0] = b'X';
        assert!(OnDeviceModel::parse(corrupted).is_err());
        // Truncation.
        let truncated = bytes[..bytes.len() - 3].to_vec();
        assert!(OnDeviceModel::parse(truncated).is_err());
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(OnDeviceModel::parse(extended).is_err());
        // Bad version.
        let mut bad_version = bytes;
        bad_version[4] = 99;
        assert!(OnDeviceModel::parse(bad_version).is_err());
    }

    #[test]
    fn table_row_ranges_are_disjoint_and_in_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = FullEmbedding::new(20, 8, &mut rng).unwrap();
        let bytes = OnDeviceModel::serialize(&emb, &tiny_head(8, 2), 4, Dtype::Int8).unwrap();
        let model = OnDeviceModel::parse(bytes).unwrap();
        let t = &model.emb_tables[0];
        let mut last_end = 0usize;
        for r in 0..t.rows {
            let (off, len) = t.row_range(r);
            assert!(off >= t.payload_offset);
            assert!(off + len <= t.payload_offset + t.payload_len);
            if r > 0 {
                assert_eq!(off, last_end);
            }
            last_end = off + len;
        }
    }
}
