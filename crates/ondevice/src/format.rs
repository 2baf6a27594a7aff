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

use crate::quant::{quantize_rows, Dtype};
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
    /// Writes one table, quantized to `dtype` straight into the file
    /// (a rank-1 tensor is one row).
    fn table(&mut self, t: &Tensor, dtype: Dtype) -> Result<()> {
        let (rows, cols) = match *t.shape().dims() {
            [cols] => (1, cols),
            [rows, cols] => (rows, cols),
            ref dims => {
                return Err(OnDeviceError::Unsupported {
                    context: format!("cannot serialize rank-{} tensor", dims.len()),
                })
            }
        };
        self.u8(dtype.tag());
        self.u64(rows as u64);
        self.u64(cols as u64);
        let scale_at = self.buf.len();
        let payload_at = scale_at + 4;
        self.buf
            .resize(payload_at + rows * dtype.row_bytes(cols), 0);
        let (scale, _) =
            quantize_rows(t.as_slice(), rows, cols, dtype, &mut self.buf[payload_at..]);
        self.buf[scale_at..payload_at].copy_from_slice(&scale.to_le_bytes());
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
    fn rank1_treated_as_single_row() {
        let mut w = Writer { buf: Vec::new() };
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        w.table(&t, Dtype::F32).unwrap();
        let mut r = Reader {
            buf: &w.buf,
            pos: 0,
            tables: 0,
        };
        let meta = r.table_meta("rank-1").unwrap();
        assert_eq!((meta.rows, meta.cols), (1, 3));
        assert!(w.table(&Tensor::zeros(&[2, 2, 2]), Dtype::F32).is_err());
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

    /// FNV-1a-64 of a byte string.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    const DTYPES: [Dtype; 5] = [
        Dtype::F32,
        Dtype::F16,
        Dtype::Int8,
        Dtype::Int4,
        Dtype::Int2,
    ];

    /// The Code-1 head with batch-norm statistics a trained model has and
    /// a seeded dense layer, so every head table carries real values.
    fn pinned_head(e: usize) -> Sequential {
        let mut rng = StdRng::seed_from_u64(11);
        let mut stat = |low, high| Tensor::rand_uniform(&[e], low, high, &mut rng);
        let (gamma, beta) = (stat(0.5, 1.5), stat(-0.5, 0.5));
        let (mean, var) = (stat(-1.0, 1.0), stat(0.5, 2.0));
        let mut bn = BatchNorm1d::new(e);
        bn.set_state(gamma, beta, mean, var).unwrap();
        let mut head = Sequential::new();
        head.push(AveragePool1d::new());
        head.push(Relu::new());
        head.push(bn);
        head.push(Dense::new(e, 3, &mut rng));
        head
    }

    /// FNV-1a-64 of the serialized file of every `MethodSpec` (rows, in
    /// the test's order) at every dtype (`DTYPES` order). Re-record only
    /// for an intended format change: a refactor of the writer or the
    /// quantizer must leave every byte.
    const FILE_PINS: [[u64; 5]; 11] = [
        [
            0x11b023ef6e109f62,
            0x1cba82c996711726,
            0xf17ce9c6e62a9ea6,
            0x55083e5dac9d2a4a,
            0xb8a55e1129c883d0,
        ],
        [
            0x54f139414239c8e1,
            0x65673d9c95a90c8b,
            0x9bfd9edd1c787eec,
            0x220933930041ef27,
            0x5bfb41035ec70044,
        ],
        [
            0x4472be16dd239e1d,
            0xb9ef00a9651f5474,
            0x5e1a5dc761c03a7c,
            0xbba766c807751900,
            0x16fc3491040e0b63,
        ],
        [
            0xc1f71a2d1ab4d80c,
            0xbca61a0bf857370b,
            0xb4c6643e5405b357,
            0x2b89f18e431c4235,
            0x137e56a831ceed09,
        ],
        [
            0xbe84785f76e7c049,
            0x553c6b1ae8748f9a,
            0x991e93db76a4e5be,
            0xcfec2a355f71d786,
            0xf8993f77d148281f,
        ],
        [
            0x95a964a0e51e9afd,
            0x25594b32ee796be8,
            0xdeecbdd68eee287e,
            0x63edacacedc5839c,
            0xd4d13615786bccf6,
        ],
        [
            0x9ae7b6f63960d9f7,
            0x640e112ee15073ed,
            0xfa5a8366663f9d47,
            0x43d3e276c97b6b3c,
            0x7ddc3406183933c9,
        ],
        [
            0x0d4a6a6e1a8243fd,
            0x20e2046684af4fa6,
            0x641be469f353e29f,
            0x2860f3378eebbd27,
            0x972f62b3ceee011c,
        ],
        [
            0x597f450ed77e74db,
            0xd4daf6076a1f3d6a,
            0x2440bc133a1a2706,
            0x1dd93a87e78d2d0f,
            0x214ba0b9099d4ae6,
        ],
        [
            0xe057325647dd787e,
            0x05f32853f311b43a,
            0x604f46f4d45a4125,
            0x3dd1a6560bd1d405,
            0xc1de23f5ca324c7a,
        ],
        [
            0x7e5a4597a9399dbc,
            0x8c9be38d2ac76f30,
            0xb1064a72a8e424db,
            0x594aa8ec2109ee67,
            0x1797d215e28cb0a2,
        ],
    ];
    /// The same for one table holding NaN and ±inf, at each lossy dtype:
    /// the file's sanitize path (NaN → 0, ±inf → the table's signed
    /// largest finite magnitude).
    const NON_FINITE_PINS: [u64; 4] = [
        0xb785214b47816737,
        0x3cd7e91b9ee6b424,
        0xa00f0b75ebe732ce,
        0x2d8368574df9d32e,
    ];

    #[test]
    fn serialized_bytes_are_pinned() {
        use memcom_core::{MethodSpec, QrCombiner};
        let specs = [
            MethodSpec::Uncompressed,
            MethodSpec::MemCom {
                hash_size: 10,
                bias: true,
            },
            MethodSpec::MemCom {
                hash_size: 10,
                bias: false,
            },
            MethodSpec::NaiveHash { hash_size: 10 },
            MethodSpec::DoubleHash { hash_size: 10 },
            MethodSpec::QuotientRemainder {
                hash_size: 10,
                combiner: QrCombiner::Multiply,
            },
            MethodSpec::QuotientRemainder {
                hash_size: 10,
                combiner: QrCombiner::Concat,
            },
            MethodSpec::Factorized { hidden: 4 },
            MethodSpec::ReduceDim { dim: 8 },
            MethodSpec::TruncateRare { keep: 20 },
            MethodSpec::WeinbergerOneHot { hash_size: 10 },
        ];
        let mut rng = StdRng::seed_from_u64(9);
        let mut got = Vec::new();
        for spec in &specs {
            let emb = spec.build(60, 16, &mut rng).unwrap();
            let head = pinned_head(emb.output_dim());
            let hashes = DTYPES.map(|dtype| {
                fnv1a(&OnDeviceModel::serialize(emb.as_ref(), &head, 4, dtype).unwrap())
            });
            got.push(hashes);
        }
        let mut emb = FullEmbedding::new(6, 5, &mut rng).unwrap();
        let mut table = Tensor::rand_uniform(&[6, 5], -2.0, 2.0, &mut rng);
        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
        for (i, x) in hostile.into_iter().enumerate() {
            table.as_mut_slice()[i * 7] = x;
        }
        emb.state_mut().tables[0].set_tensor(table).unwrap();
        let [_, lossy @ ..] = DTYPES;
        let non_finite = lossy.map(|dtype| {
            fnv1a(&OnDeviceModel::serialize(&emb, &pinned_head(5), 4, dtype).unwrap())
        });
        assert_eq!(got, FILE_PINS);
        assert_eq!(non_finite, NON_FINITE_PINS);
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
