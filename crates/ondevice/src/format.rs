//! The flat binary on-device model format, version 2.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "MEMC" | u32 version = 2 | u32 input_len | u64 vocab | u32 emb_dim |
//! u8 combine | u8 n_maps | n_maps × row map | u32 n_head_ops |
//! head ops … | embedding tables …
//!
//! combine: 0 Row | 1 ScaleMul | 2 ScaleAdd | 3 Mul | 4 Concat | 5 Project | 6 OneHotMatmul
//! row map: u8 0 Identity | 1 Mod | 2 Clamp | 3 Seeded, u64 seed | 4 Div, u64 divisor
//! ```
//!
//! The header carries the embedding stage's [`Recipe`] — which rows of
//! which tables an id reads and how they combine — so any technique
//! `memcom-core` can describe deploys, and the engine executes the recipe
//! instead of knowing techniques by name. Sizes a table header already
//! states are not repeated: `Mod`/`Seeded` hash onto their table's row
//! count, `Clamp` keeps all rows but the last, `Project`'s code width is
//! its first table's column count. Version 1 carried an embedding-kind tag
//! and a hash size instead and could hold six of the eleven techniques;
//! it is rejected as [`OnDeviceError::BadFormat`] (files are produced and
//! parsed in-process; none is stored).
//!
//! Head ops are `u8 kind` followed by op payload; tables are
//! `u8 dtype | u64 rows | u64 cols | f32 scale | payload`. Embedding
//! tables come **last**, in recipe order, after the (small) head weights.
//! The engine pages each table's payload on its own, row-aligned
//! ([`PagedTable`](crate::PagedTable)): the head tables fault once and
//! stay warm, while the big embedding payload faults row-by-row, exactly
//! the access pattern the mmap discussion in §5.3 relies on.
//!
//! A model file is input from outside the program: [`OnDeviceModel::parse`]
//! checks every size it reads, every head table's shape against its op and
//! the recipe against the embedding tables ([`Recipe::check`]: part count,
//! each map's row range, column widths that compose to `emb_dim`), so the
//! engine indexes a parsed model without re-checking.

use memcom_core::hashing::RowMap;
use memcom_core::recipe::{Combine, Recipe};
use memcom_core::EmbeddingCompressor;
use memcom_nn::{BatchNorm1d, Dense, Sequential};
use memcom_tensor::Tensor;

use crate::quant::{Dtype, QuantizedTable};
use crate::{OnDeviceError, Result};

/// File magic: `MEMC`.
pub const MAGIC: [u8; 4] = *b"MEMC";
/// Current format version.
pub const VERSION: u32 = 2;

fn bad_format(context: impl Into<String>) -> OnDeviceError {
    OnDeviceError::BadFormat {
        context: context.into(),
    }
}

/// A `usize` the format stores in a narrower field (`what` names it in
/// the error): the encoder refuses to write a truncated value, which
/// would parse as a different model.
fn narrow<T: TryFrom<usize>>(v: usize, what: &str) -> Result<T> {
    T::try_from(v).map_err(|_| OnDeviceError::Unsupported {
        context: format!("{what} {v} does not fit its field in the file format"),
    })
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
    /// The serialized file contents; an
    /// [`InferenceSession`](crate::InferenceSession) moves them into its
    /// pages when it loads the model, leaving this empty.
    pub bytes: Vec<u8>,
    /// How an id becomes an embedding row of `emb_tables`.
    pub recipe: Recipe,
    /// Fixed input length.
    pub input_len: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding output dimension.
    pub emb_dim: usize,
    /// Head operations in execution order.
    pub head_ops: Vec<HeadOp>,
    /// Embedding tables, in recipe order.
    pub emb_tables: Vec<TableMeta>,
    /// The file's length, recorded at parse so it outlives `bytes`.
    file_size: usize,
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
    fn recipe(&mut self, recipe: &Recipe) -> Result<()> {
        self.u8(match recipe.combine {
            Combine::Row => 0,
            Combine::ScaleMul => 1,
            Combine::ScaleAdd => 2,
            Combine::Mul => 3,
            Combine::Concat => 4,
            Combine::Project { .. } => 5,
            Combine::OneHotMatmul => 6,
        });
        self.u8(narrow(recipe.maps.len(), "map count")?);
        for map in &recipe.maps {
            // Moduli the table header restates are not written.
            let (tag, stored) = match *map {
                RowMap::Identity => (0, None),
                RowMap::Mod(_) => (1, None),
                RowMap::Clamp(_) => (2, None),
                RowMap::Seeded { seed, .. } => (3, Some(seed)),
                RowMap::Div(m) => (4, Some(m as u64)),
            };
            self.u8(tag);
            stored.into_iter().for_each(|v| self.u64(v));
        }
        Ok(())
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
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// A `u64` count field, rejected when this target cannot address it.
    fn count(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad_format(format!("count {v} exceeds the address space")))
    }
    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// A row map as the header spells it; the sizes its table header
    /// states are left 0 until [`OnDeviceModel::parse`] has read it.
    fn row_map(&mut self) -> Result<RowMap> {
        Ok(match self.u8()? {
            0 => RowMap::Identity,
            1 => RowMap::Mod(0),
            2 => RowMap::Clamp(0),
            3 => RowMap::Seeded {
                m: 0,
                seed: self.u64()?,
            },
            4 => RowMap::Div(self.count()?),
            other => return Err(bad_format(format!("unknown row map {other}"))),
        })
    }
    /// Reads one head table whose shape its op fixes at `rows × cols`.
    fn head_table(&mut self, what: &str, rows: usize, cols: usize) -> Result<TableMeta> {
        let t = self.table_meta(what)?;
        if (t.rows, t.cols) != (rows, cols) {
            return Err(bad_format(format!(
                "{what} table is {}x{}, its op needs {rows}x{cols}",
                t.rows, t.cols
            )));
        }
        Ok(t)
    }
    /// Reads one table (`what` names it in the error). Every table the
    /// engine indexes comes through here, so a parsed model holds whole,
    /// non-empty rows that its payload backs.
    fn table_meta(&mut self, what: &str) -> Result<TableMeta> {
        let dtype = Dtype::from_tag(self.u8()?)?;
        let (rows, cols) = (self.count()?, self.count()?);
        let scale = self.f32()?;
        if rows == 0 || cols == 0 {
            return Err(bad_format(format!(
                "{what} table is an empty {rows}x{cols}"
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
    /// Returns [`OnDeviceError::Unsupported`] for other layer types and
    /// for a size that does not fit its field in the format.
    pub fn serialize(
        embedding: &dyn EmbeddingCompressor,
        head: &Sequential,
        input_len: usize,
        dtype: Dtype,
    ) -> Result<Vec<u8>> {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u32(narrow(input_len, "input length")?);
        w.u64(embedding.vocab_size() as u64);
        w.u32(narrow(embedding.output_dim(), "embedding dim")?);
        w.recipe(embedding.state().recipe())?;

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
        w.u32(narrow(ops.len(), "head op count")?);
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
                    w.u32(narrow(bn.features(), "batch-norm width")?);
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
                    w.u32(narrow(dense.in_dim(), "dense input width")?);
                    w.u32(narrow(dense.out_dim(), "dense output width")?);
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
        let input_len = r.u32()? as usize;
        let vocab = r.count()?;
        let emb_dim = r.u32()? as usize;
        let combine = match r.u8()? {
            0 => Combine::Row,
            1 => Combine::ScaleMul,
            2 => Combine::ScaleAdd,
            3 => Combine::Mul,
            4 => Combine::Concat,
            5 => Combine::Project { hidden: 0 },
            6 => Combine::OneHotMatmul,
            other => return Err(bad_format(format!("unknown combine {other}"))),
        };
        let mut recipe = Recipe::new(Vec::new(), combine);
        for _ in 0..r.u8()? {
            recipe.maps.push(r.row_map()?);
        }
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
                        r.head_table("batch-norm gamma", 1, dim)?,
                        r.head_table("batch-norm beta", 1, dim)?,
                        r.head_table("batch-norm mean", 1, dim)?,
                        r.head_table("batch-norm var", 1, dim)?,
                    ];
                    HeadOp::BatchNorm { dim, tables, eps }
                }
                3 => {
                    let in_dim = r.u32()? as usize;
                    let out_dim = r.u32()? as usize;
                    let weight = r.head_table("dense weight", in_dim, out_dim)?;
                    let bias = r.head_table("dense bias", 1, out_dim)?;
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
        // One table per map (plus `Project`'s projection), then the sizes
        // the header left to them, then the recipe checked against them.
        let mut emb_tables = Vec::with_capacity(recipe.table_count());
        for _ in 0..recipe.table_count() {
            emb_tables.push(r.table_meta("embedding")?);
        }
        if r.remaining() != 0 {
            return Err(bad_format(format!("{} trailing bytes", r.remaining())));
        }
        for (map, table) in recipe.maps.iter_mut().zip(&emb_tables) {
            match map {
                RowMap::Mod(m) | RowMap::Seeded { m, .. } => *m = table.rows,
                RowMap::Clamp(keep) => *keep = table.rows - 1,
                RowMap::Identity | RowMap::Div(_) => {}
            }
        }
        if let Combine::Project { hidden } = &mut recipe.combine {
            *hidden = emb_tables[0].cols;
        }
        let shapes: Vec<_> = emb_tables.iter().map(|t| (t.rows, t.cols)).collect();
        recipe
            .check(vocab, emb_dim, &shapes)
            .map_err(|e| bad_format(e.to_string()))?;
        Ok(OnDeviceModel {
            recipe,
            input_len,
            vocab,
            emb_dim,
            head_ops,
            emb_tables,
            file_size: bytes.len(),
            bytes,
        })
    }

    /// On-disk model size in bytes — the quantity the paper's compression
    /// ratios control ("by compression, we refer to … the on-disk model
    /// size").
    pub fn file_size(&self) -> usize {
        self.file_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{FullEmbedding, MemCom, MemComConfig};
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
        assert_eq!(model.recipe, *emb.state().recipe());
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
        assert_eq!(model.recipe, *emb.state().recipe());
        assert_eq!(model.recipe.maps[0], RowMap::Mod(10));
        assert_eq!(model.emb_tables.len(), 3);
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

    /// A size the format stores in 32 bits is refused, not truncated
    /// (here it would have been written as `input_len = 0`).
    #[test]
    fn oversized_fields_are_refused_not_truncated() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = FullEmbedding::new(10, 4, &mut rng).unwrap();
        let too_long = u32::MAX as usize + 1;
        assert!(matches!(
            OnDeviceModel::serialize(&emb, &tiny_head(4, 2), too_long, Dtype::F32),
            Err(OnDeviceError::Unsupported { .. })
        ));
        assert!(
            OnDeviceModel::serialize(&emb, &tiny_head(4, 2), u32::MAX as usize, Dtype::F32).is_ok()
        );
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
}
