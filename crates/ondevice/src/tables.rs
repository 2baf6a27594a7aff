//! The embedding front end both runtimes share: a recipe's tables as
//! paged columns, and the one loop that reads rows through them.
//!
//! [`EmbeddingTables`] holds one column per [`Recipe`] table and runs the
//! recipe over them ([`EmbeddingTables::lookup_into`]) with the executor
//! training runs ([`Recipe::row_into`]), hence the same bits. A read of
//! table `k` for `id` reads row `recipe.maps[k].row(id)` of column `k`.
//! The on-device [`InferenceSession`](crate::InferenceSession) loads a
//! model file's embedding tables into one ([`EmbeddingTables::from_file`]);
//! `memcom-serve`'s `ShardedStore` builds one from a trained compressor
//! ([`EmbeddingTables::build`]) and adds routing, a certified error bound
//! and delta snapshots on top.
//!
//! A column is one [`PagedTable`] in one of three encodings:
//!
//! * **store rows** — `dtype`-packed rows, each integer-quantized row
//!   behind its own inline `f32` scale, so one page-local read yields
//!   both;
//! * **file rows** — the model file's layout (format v2): `dtype`-packed
//!   rows under one scale for the whole table, read-only;
//! * **int8 scalar blocks** — a 1-wide identity-mapped column (MEmCom's
//!   multipliers and biases) built below fp32, packed as blocks of
//!   64 consecutive ids behind one `f32` scale each.
//!
//! Every read dequantizes straight into the caller's buffer through
//! [`decode_row_into`], so the read loop takes no lock and allocates
//! nothing per row. The tables also own the accounting of their pages:
//! stored and resident bytes, cold and total read bytes, copy-on-write
//! tallies, and the flop rule — a row costs its combine's
//! flops, plus one multiply (or half-to-float convert) per value when the
//! rows dequantize.

use std::sync::atomic::{AtomicU64, Ordering};

use memcom_core::hashing::RowMap;
use memcom_core::recipe::{Combine, Recipe};
use memcom_core::EmbeddingCompressor;

use crate::compute::WorkCounts;
use crate::engine::RunStats;
use crate::format::OnDeviceModel;
use crate::pages::PagedTable;
use crate::quant::{
    decode_row_into, dequant_error_bound, quantize_row, quantize_rows, quantize_value, Dtype,
};
use crate::{OnDeviceError, Result};

/// Consecutive ids per int8 scalar block.
const SCALAR_BLOCK: usize = 64;
/// Stored bytes per int8 scalar block: inline `f32` scale + one code
/// per id.
const SCALAR_BLOCK_BYTES: usize = 4 + SCALAR_BLOCK;
/// How many ids ahead of the one it reads [`EmbeddingTables::lookup_into`]
/// prefetches. The rows of the next few ids are independent cache
/// misses, so hinting them while the current id decodes overlaps their
/// latency. Measured on `wire_bulk_int8`'s read (1 024 Zipf-0.6 ids per
/// call into the int8 E200k MEmCom store, 8 MB of other data touched
/// between calls, one pinned vCPU of a 2-vCPU Xeon): no lookahead read
/// 144 ns a row, a lookahead of 4, 8 or 16 ids 104–106 ns, and 2 to 32
/// stayed within 3 % of each other — any distance that covers one miss
/// works, so this is not tuned further.
const AHEAD: usize = 8;
/// Why a model file's column takes no write.
const READ_ONLY: &str = "a model file's embedding tables are read-only";

/// The rows of one recipe table: its pages and how their bytes encode
/// values.
#[derive(Debug)]
struct Column {
    pages: PagedTable,
    encoding: Encoding,
}

/// The three column encodings (see the module docs).
///
/// The int8 scalar blocks use the symmetric linear scheme the wide rows
/// use, with the block standing in for the row, at `(4 + 64) / 64 ≈
/// 1.06` bytes per id instead of 4. A zeroed block stores scale `0.0`
/// (codes decode to exact 0 at any scale, and a zero scale forces the
/// first real write through the re-scale path instead of rounding
/// against a meaningless step).
#[derive(Debug, Clone, Copy)]
enum Encoding {
    /// `dtype`-packed stored rows of `cols` values, each integer row
    /// behind its own inline scale.
    Rows { dtype: Dtype, cols: usize },
    /// `dtype`-packed rows under one table-wide `scale` (the model file).
    File { dtype: Dtype, scale: f32 },
    /// Int8 blocks of [`SCALAR_BLOCK`] ids behind inline per-block scales.
    Int8Blocks,
}

/// What an [`EmbeddingTables::write`] did to served values — the terms a
/// delta folds into a certified bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Written {
    /// Max `|requested − stored|` over the written row.
    pub err: f32,
    /// Max `|old − new|` over the *other* slots of a re-scaled int8 block
    /// (0 when the write fit the block's existing scale, and for the
    /// other encodings).
    pub neighbor_drift: f32,
}

impl Column {
    /// Encodes `values` (`cols` wide, row-major); a 1-wide `identity`
    /// column below fp32 takes the scalar-block encoding. Returns the
    /// column and the worst `|source − stored|` it certifies.
    fn build(
        values: &[f32],
        cols: usize,
        identity: bool,
        dtype: Dtype,
        page_size: usize,
    ) -> (Self, f32) {
        if identity && cols == 1 && dtype != Dtype::F32 {
            return Self::build_scalars(values, page_size);
        }
        let stride = dtype.stored_row_bytes(cols);
        let mut bytes = Vec::with_capacity(values.len() / cols * stride);
        let mut err = 0f32;
        if dtype == Dtype::F32 {
            // The bytes `encode_stored_row` writes for F32 rows (verbatim,
            // no scale prefix, certified error 0), all rows in one pass.
            bytes.extend(values.iter().flat_map(|v| v.to_le_bytes()));
        } else {
            let mut payload = vec![0u8; dtype.row_bytes(cols)];
            for row in values.chunks_exact(cols) {
                err = err.max(encode_stored_row(row, dtype, &mut payload, &mut bytes));
            }
        }
        let pages = PagedTable::from_rows(&bytes, stride, page_size);
        let encoding = Encoding::Rows { dtype, cols };
        (Column { pages, encoding }, err)
    }

    /// Builds an int8-block scalar column from per-id values. Returns
    /// the column and the measured max `|source − stored|` across ids.
    fn build_scalars(values: &[f32], page_size: usize) -> (Self, f32) {
        let blocks = values.len().div_ceil(SCALAR_BLOCK);
        let mut bytes = Vec::with_capacity(blocks * SCALAR_BLOCK_BYTES);
        let mut block = [0f32; SCALAR_BLOCK];
        let mut payload = [0u8; SCALAR_BLOCK];
        let mut err = 0f32;
        for chunk in values.chunks(SCALAR_BLOCK) {
            let fill = chunk.len();
            block.fill(0.0);
            block[..fill].copy_from_slice(chunk);
            let mut scale = quantize_row(&block, Dtype::Int8, &mut payload);
            if block.iter().all(|&x| x == 0.0) {
                scale = 0.0; // zero blocks stay re-scalable
            }
            for (&src, &code) in block.iter().zip(&payload).take(fill) {
                err = err.max((src - (code as i8) as f32 * scale).abs());
            }
            bytes.extend_from_slice(&scale.to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        let pages = PagedTable::from_rows(&bytes, SCALAR_BLOCK_BYTES, page_size);
        let encoding = Encoding::Int8Blocks;
        (Column { pages, encoding }, err)
    }

    /// Decodes row `r` into `buf`. The caller charges the read
    /// ([`PagedTable::charge`]).
    fn read(&self, r: usize, buf: &mut [f32]) -> Result<()> {
        match self.encoding {
            Encoding::Rows { dtype, .. } => {
                let (scale, payload) = self.pages.read_row(r)?.split_at(dtype.scale_prefix_bytes());
                let scale = if scale.is_empty() {
                    1.0
                } else {
                    decode_f32(scale)
                };
                decode_row_into(payload, dtype, scale, buf)
            }
            Encoding::File { dtype, scale } => {
                decode_row_into(self.pages.read_row(r)?, dtype, scale, buf)
            }
            Encoding::Int8Blocks => {
                let block = self.pages.read_row(r / SCALAR_BLOCK)?;
                buf[0] = (block[4 + r % SCALAR_BLOCK] as i8) as f32 * decode_f32(&block[..4]);
            }
        }
        Ok(())
    }

    /// Stores `values` as row `r`. Store rows re-encode around their own
    /// scale. Int8 blocks re-use the block's existing scale when the
    /// value fits its code range (no other slot moves); otherwise the
    /// whole block re-encodes around a new scale and the returned
    /// [`Written::neighbor_drift`] reports how far the block's other
    /// slots moved. `scratch` is the store rows' `[payload, stored]`
    /// encode buffers, reused across writes.
    fn write(&mut self, r: usize, values: &[f32], scratch: &mut [Vec<u8>; 2]) -> Result<Written> {
        let pages = &mut self.pages;
        match self.encoding {
            Encoding::Rows { dtype, .. } => {
                let [payload, stored] = scratch;
                payload.resize(dtype.row_bytes(values.len()), 0);
                stored.clear();
                let err = encode_stored_row(values, dtype, payload, stored);
                pages.write_row(r, stored)?;
                Ok(Written {
                    err,
                    ..Written::default()
                })
            }
            Encoding::File { .. } => panic!("{READ_ONLY}"),
            Encoding::Int8Blocks => {
                let value = values[0];
                let (block, idx) = (r / SCALAR_BLOCK, r % SCALAR_BLOCK);
                let mut row = [0u8; SCALAR_BLOCK_BYTES];
                row.copy_from_slice(pages.read_row(block)?);
                pages.charge(1);
                let scale = decode_f32(&row[..4]);
                // The value's code is in range iff its quotient rounds to
                // at most 127 in magnitude, i.e. `|value / scale| < 127.5`.
                if scale > 0.0 && (value / scale).abs() < 127.5 {
                    let q = quantize_value(value, scale, 8);
                    row[4 + idx] = q as u8;
                    pages.write_row(block, &row)?;
                    let err = (value - q as f32 * scale).abs();
                    return Ok(Written {
                        err,
                        ..Written::default()
                    });
                }
                // Out of range (or a zeroed block): re-encode the whole
                // block around a fresh scale.
                let mut vals: [f32; SCALAR_BLOCK] =
                    std::array::from_fn(|i| (row[4 + i] as i8) as f32 * scale);
                let old = vals;
                vals[idx] = value;
                let mut payload = [0u8; SCALAR_BLOCK];
                let mut new_scale = quantize_row(&vals, Dtype::Int8, &mut payload);
                if vals.iter().all(|&x| x == 0.0) {
                    new_scale = 0.0;
                }
                row[..4].copy_from_slice(&new_scale.to_le_bytes());
                row[4..].copy_from_slice(&payload);
                pages.write_row(block, &row)?;
                let mut write = Written::default();
                for (i, (&was, &code)) in old.iter().zip(&payload).enumerate() {
                    let now = (code as i8) as f32 * new_scale;
                    if i == idx {
                        write.err = (value - now).abs();
                    } else {
                        write.neighbor_drift = write.neighbor_drift.max((was - now).abs());
                    }
                }
                Ok(write)
            }
        }
    }

    /// Hints the stored bytes [`read`](Self::read) of row `r` would
    /// touch ([`PagedTable::prefetch_row`]).
    fn prefetch(&self, r: usize) {
        match self.encoding {
            Encoding::Int8Blocks => self.pages.prefetch_row(r / SCALAR_BLOCK),
            Encoding::Rows { .. } | Encoding::File { .. } => self.pages.prefetch_row(r),
        }
    }

    /// A snapshot clone sharing every page (see
    /// [`PagedTable::shared_clone`]).
    fn shared_clone(&self) -> Self {
        let pages = self.pages.shared_clone();
        Column { pages, ..*self }
    }

    /// Appends zeroed rows for vocabulary growth (`old_vocab` →
    /// `new_vocab`).
    fn extend(&mut self, old_vocab: usize, new_vocab: usize) {
        match self.encoding {
            Encoding::Rows { dtype, cols } => {
                let (mut zero, mut payload) = (Vec::new(), vec![0; dtype.row_bytes(cols)]);
                encode_stored_row(&vec![0.0; cols], dtype, &mut payload, &mut zero);
                self.pages.extend_rows(new_vocab - old_vocab, &zero)
            }
            Encoding::File { .. } => panic!("{READ_ONLY}"),
            Encoding::Int8Blocks => {
                let extra = new_vocab.div_ceil(SCALAR_BLOCK) - old_vocab.div_ceil(SCALAR_BLOCK);
                self.pages.extend_rows(extra, &[0u8; SCALAR_BLOCK_BYTES]);
            }
        }
    }
}

/// A recipe's tables as paged columns: the one embedding front end of
/// the on-device session and the serving store.
#[derive(Debug)]
pub struct EmbeddingTables {
    /// One column per recipe table, in recipe order.
    columns: Vec<Column>,
    /// How an id reads the columns.
    recipe: Recipe,
    vocab: usize,
    dim: usize,
    dtype: Dtype,
    /// Counted flops of one row: the combine's, plus one multiply (or
    /// half-to-float convert) per value when the rows dequantize.
    row_flops: u64,
    /// Rows read since construction.
    rows_read: AtomicU64,
}

impl EmbeddingTables {
    /// Encodes a trained compressor's tables at `dtype` into pages of
    /// `page_size` bytes, each integer-quantized row under its own scale
    /// and a 1-wide identity-mapped table below fp32 as int8 scalar
    /// blocks. Returns the tables and, per table in recipe order,
    /// `(max |value|, max |value − stored|)` — the parts
    /// [`Combine::error_bound`](memcom_core::recipe::Combine::error_bound)
    /// composes into a row bound.
    ///
    /// # Panics
    ///
    /// Panics when `page_size == 0` or a table is empty.
    pub fn build(
        emb: &dyn EmbeddingCompressor,
        dtype: Dtype,
        page_size: usize,
    ) -> (Self, Vec<(f32, f32)>) {
        let recipe = emb.state().recipe();
        let tables = emb.tables();
        let mut columns = Vec::with_capacity(tables.len());
        let mut parts = Vec::with_capacity(tables.len());
        for (k, table) in tables.iter().enumerate() {
            let values = table.tensor.as_slice();
            let cols = table.tensor.shape().dims()[1];
            let max_abs = values.iter().fold(0f32, |acc, &x| acc.max(x.abs()));
            let identity = recipe.maps.get(k) == Some(&RowMap::Identity);
            let (column, err) = Column::build(values, cols, identity, dtype, page_size);
            columns.push(column);
            parts.push((max_abs, err));
        }
        let (vocab, dim) = (emb.vocab_size(), emb.output_dim());
        let tables = Self::new(columns, recipe.clone(), vocab, dim, dtype);
        (tables, parts)
    }

    /// Loads the embedding tables of a parsed model file, whose contents
    /// are `bytes`, into pages of `page_size` bytes: each table's payload
    /// is copied once and keeps the file's layout (one scale per table).
    ///
    /// # Panics
    ///
    /// Panics when `page_size == 0`, or when `model`'s table metadata
    /// does not describe `bytes` (a model that did not come from
    /// [`OnDeviceModel::parse`] of them).
    pub fn from_file(model: &OnDeviceModel, bytes: &[u8], page_size: usize) -> Self {
        let columns = (model.emb_tables.iter())
            .map(|t| {
                let payload = &bytes[t.payload_offset..t.payload_offset + t.payload_len];
                let pages = PagedTable::from_rows(payload, t.dtype.row_bytes(t.cols), page_size);
                let (dtype, scale) = (t.dtype, t.scale);
                let encoding = Encoding::File { dtype, scale };
                Column { pages, encoding }
            })
            .collect();
        // A file stores every embedding table at one dtype.
        let (recipe, dtype) = (model.recipe.clone(), model.emb_tables[0].dtype);
        Self::new(columns, recipe, model.vocab, model.emb_dim, dtype)
    }

    fn new(columns: Vec<Column>, recipe: Recipe, vocab: usize, dim: usize, dtype: Dtype) -> Self {
        let dequant = if dtype == Dtype::F32 { 0 } else { dim };
        EmbeddingTables {
            row_flops: (recipe.combine.flops(dim) + dequant) as u64,
            columns,
            recipe,
            vocab,
            dim,
            dtype,
            rows_read: AtomicU64::new(0),
        }
    }

    /// The recipe the tables are read by.
    pub fn recipe(&self) -> &Recipe {
        &self.recipe
    }

    /// Ids the tables serve (`0..vocab`).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Values per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage dtype of the rows.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Reads the rows of `ids` into the flat slab `out` in request order
    /// — the one read path. `out` must hold exactly `ids.len() * dim()`
    /// values; row `k` lands at `out[k*dim .. (k+1)*dim]`. Per id the
    /// recipe runs over the pages straight into the row, quantized bytes
    /// dequantizing in place; `operand` is [`Recipe::row_into`]'s
    /// second-operand buffer, owned and reused by the caller, so the read
    /// takes no lock and allocates nothing per row.
    ///
    /// The batch is read as a batch. Before id `i` is read, the stored
    /// rows id `i + AHEAD` maps to are prefetched in every mapped column
    /// (an id past the vocabulary is skipped), so their cache misses
    /// overlap the reads in between; a hint is not a read and marks no
    /// page resident. Pages fault on first touch as the rows are read,
    /// and each column's read bytes are charged once, after the loop
    /// ([`PagedTable::charge`]) — the same totals one call per id would
    /// leave, without an atomic add per row.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::BadInput`] at the first id past the
    /// vocabulary. The rows before it are written and their bytes
    /// charged; the call counts no row in [`rows_read`](Self::rows_read).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != ids.len() * dim()` — the slab is sized
    /// by the caller, so a mismatch is an internal bug, and panicking
    /// (rather than quietly truncating) fails it loudly.
    // memcom-lint: hot-path
    pub fn lookup_into(
        &self,
        ids: &[usize],
        operand: &mut Vec<f32>,
        out: &mut [f32],
    ) -> Result<()> {
        let dim = self.dim;
        assert_eq!(
            out.len(),
            ids.len() * dim,
            "slab holds {} values for {} rows of dim {dim}",
            out.len(),
            ids.len()
        );
        let (columns, maps) = (&self.columns, &self.recipe.maps);
        let read = |k: usize, r: usize, buf: &mut [f32]| columns[k].read(r, buf);
        let mut done = 0;
        let mut rows = ids.iter().zip(out.chunks_exact_mut(dim)).enumerate();
        let result = rows.try_for_each(|(i, (&id, row))| {
            if let Some(&ahead) = ids.get(i + AHEAD).filter(|&&a| a < self.vocab) {
                for (column, map) in columns.iter().zip(maps) {
                    column.prefetch(map.row(ahead));
                }
            }
            if id >= self.vocab {
                return Err(OnDeviceError::BadInput {
                    context: format!("id {id} out of vocabulary {}", self.vocab),
                });
            }
            self.recipe.row_into(id, read, operand, row)?;
            done += 1;
            Ok(())
        });
        self.charge(done);
        if result.is_ok() {
            self.rows_read
                .fetch_add(ids.len() as u64, Ordering::Relaxed);
        }
        result
    }
    // memcom-lint: end-hot-path

    /// Decodes row `r` of table `k` into `buf` (the table's width).
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::OutOfBounds`] for a row past the table.
    ///
    /// # Panics
    ///
    /// Panics when `k` is not a table of the recipe.
    pub fn read(&self, k: usize, r: usize, buf: &mut [f32]) -> Result<()> {
        let column = &self.columns[k];
        column.read(r, buf)?;
        column.pages.charge(1);
        Ok(())
    }

    /// Charges each column the reads of `ids` whole ids: one row of each
    /// mapped table per id, and every row of
    /// [`Project`](Combine::Project)'s projection table. A recipe
    /// [`check`](Recipe::check)ed against its tables never fails a read
    /// inside an id, so these are exactly the rows
    /// [`lookup_into`](Self::lookup_into) read.
    fn charge(&self, ids: usize) {
        for (k, column) in self.columns.iter().enumerate() {
            let per_id = match self.recipe.combine {
                Combine::Project { hidden } if k == self.recipe.maps.len() => hidden,
                _ => 1,
            };
            column.pages.charge(ids * per_id);
        }
    }

    /// Stores `values` as row `r` of table `k`, copy-on-writing only the
    /// covering page, and reports what the write did to served values.
    /// `scratch` holds encode buffers reused across the writes of one
    /// delta.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::OutOfBounds`] for a row past the table.
    ///
    /// # Panics
    ///
    /// Panics for tables loaded from a model file: they are read-only.
    pub fn write(
        &mut self,
        k: usize,
        r: usize,
        values: &[f32],
        scratch: &mut [Vec<u8>; 2],
    ) -> Result<Written> {
        self.columns[k].write(r, values, scratch)
    }

    /// Grows the vocabulary to `vocab` (never shrinks): every
    /// identity-mapped table gains zeroed rows, which serve the exact
    /// zero embedding until written.
    ///
    /// # Panics
    ///
    /// Panics for tables loaded from a model file: they are read-only.
    pub fn grow(&mut self, vocab: usize) {
        if vocab > self.vocab {
            for (column, map) in self.columns.iter_mut().zip(&self.recipe.maps) {
                if *map == RowMap::Identity {
                    column.extend(self.vocab, vocab);
                }
            }
            self.vocab = vocab;
        }
    }

    /// A snapshot clone sharing every page with `self` (see
    /// [`PagedTable::shared_clone`]); its read counters start at zero.
    pub fn shared_clone(&self) -> Self {
        EmbeddingTables {
            columns: self.columns.iter().map(Column::shared_clone).collect(),
            recipe: self.recipe.clone(),
            rows_read: AtomicU64::new(0),
            ..*self
        }
    }

    /// Every column's page table, in recipe order.
    pub fn pages(&self) -> impl Iterator<Item = &PagedTable> {
        self.columns.iter().map(|c| &c.pages)
    }

    /// Total bytes of the pages (the on-"disk" size of the tables).
    pub fn stored_bytes(&self) -> usize {
        self.pages().map(PagedTable::len).sum()
    }

    /// Bytes of pages physically shared (same allocations) with `other`.
    pub fn shared_bytes_with(&self, other: &EmbeddingTables) -> usize {
        self.pages()
            .zip(other.pages())
            .map(|(a, b)| a.shared_bytes_with(b))
            .sum()
    }

    /// Bytes physically copied by copy-on-write writes since
    /// construction (or [`shared_clone`](Self::shared_clone)).
    pub fn cow_copied_bytes(&self) -> u64 {
        self.pages().map(PagedTable::cow_copied_bytes).sum()
    }

    /// Pages cloned off a shared allocation by copy-on-write writes
    /// since construction (or [`shared_clone`](Self::shared_clone)).
    pub fn cow_touched_pages(&self) -> u64 {
        self.pages().map(PagedTable::cow_touched_pages).sum()
    }

    /// Counted flops of one row read by
    /// [`lookup_into`](Self::lookup_into).
    pub fn row_flops(&self) -> u64 {
        self.row_flops
    }

    /// Rows read by [`lookup_into`](Self::lookup_into) since
    /// construction — exact under any number of concurrent readers.
    pub fn rows_read(&self) -> u64 {
        self.rows_read.load(Ordering::Relaxed)
    }

    /// Counted work since construction, in the on-device cost model's
    /// terms: reads split into cold (first page touch) and warm bytes,
    /// plus the flops of the rows read.
    pub fn work(&self) -> WorkCounts {
        let (cold, total) = self.pages().fold((0, 0), |(cold, total), t| {
            (cold + t.cold_read_bytes(), total + t.total_read_bytes())
        });
        WorkCounts {
            flops: self.rows_read() * self.row_flops,
            cold_bytes: cold,
            warm_bytes: total.saturating_sub(cold),
            activation_bytes: (self.dim * 4) as u64,
        }
    }

    /// [`work`](Self::work) plus the resident footprint, as a
    /// [`RunStats`], so reads since construction plug into the same
    /// per-compute-unit model as single-inference runs (Table 3's units).
    pub fn run_stats(&self) -> RunStats {
        RunStats {
            work: self.work(),
            resident_model_bytes: self.pages().map(PagedTable::resident_bytes).sum(),
        }
    }
}

/// Appends `row` in the store-rows layout — the inline `f32` scale an
/// integer dtype carries ([`Dtype::scale_prefix_bytes`]), then the packed
/// payload — reusing `payload` ([`Dtype::row_bytes`]`(row.len())` bytes).
/// Returns the row's worst-case absolute dequantization error; an
/// all-zero row is stored exactly, at every dtype.
fn encode_stored_row(row: &[f32], dtype: Dtype, payload: &mut [u8], out: &mut Vec<u8>) -> f32 {
    let (scale, max_abs) = quantize_rows(row, 1, row.len(), dtype, payload);
    if dtype.scale_prefix_bytes() > 0 {
        out.extend_from_slice(&scale.to_le_bytes());
    }
    out.extend_from_slice(payload);
    dequant_error_bound(dtype, scale, max_abs)
}

fn decode_f32(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("4-byte scalar"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{FullEmbedding, MemCom, MemComConfig, MethodSpec, QrCombiner};
    use memcom_nn::Sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const VOCAB: usize = 150;

    const DTYPES: [Dtype; 5] = [
        Dtype::F32,
        Dtype::F16,
        Dtype::Int8,
        Dtype::Int4,
        Dtype::Int2,
    ];

    /// All eleven `MethodSpec`s.
    fn techniques() -> Vec<Box<dyn EmbeddingCompressor>> {
        let mut rng = StdRng::seed_from_u64(4);
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
            MethodSpec::ReduceDim { dim: 4 },
            MethodSpec::TruncateRare { keep: 10 },
            MethodSpec::WeinbergerOneHot { hash_size: 10 },
        ];
        let build = |spec: &MethodSpec| spec.build(VOCAB, 8, &mut rng).unwrap();
        specs.iter().map(build).collect()
    }

    /// The tables of `emb`'s fp32 model file (no head).
    fn file_tables(emb: &dyn EmbeddingCompressor, dtype: Dtype) -> EmbeddingTables {
        let bytes = OnDeviceModel::serialize(emb, &Sequential::new(), 1, dtype).unwrap();
        let model = OnDeviceModel::parse(bytes).unwrap();
        EmbeddingTables::from_file(&model, &model.bytes, 256)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Three copies of `emb`'s tables at `dtype` on 64-byte pages, for
    /// store columns and then for file columns.
    fn triplets(emb: &dyn EmbeddingCompressor, dtype: Dtype) -> [[EmbeddingTables; 3]; 2] {
        let store = || EmbeddingTables::build(emb, dtype, 64).0;
        let bytes = OnDeviceModel::serialize(emb, &Sequential::new(), 1, dtype).unwrap();
        let model = OnDeviceModel::parse(bytes).unwrap();
        let file = || EmbeddingTables::from_file(&model, &model.bytes, 64);
        [[store(), store(), store()], [file(), file(), file()]]
    }

    /// Per column: faults, cold and total read bytes, resident bytes.
    fn columns(tables: &EmbeddingTables) -> Vec<[u64; 4]> {
        let column = |p: &PagedTable| {
            let resident = p.resident_bytes() as u64;
            [
                p.faults(),
                p.cold_read_bytes(),
                p.total_read_bytes(),
                resident,
            ]
        };
        tables.pages().map(column).collect()
    }

    /// `3 * AHEAD + 8` seeded ids below `vocab`, the first eight repeated
    /// at the end.
    fn batch(seed: u64, vocab: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..3 * AHEAD).map(|_| rng.gen_range(0..vocab)).collect();
        ids.extend_from_within(..8);
        ids
    }

    #[test]
    fn file_and_store_columns_serve_the_compressor_bits() {
        let ids: Vec<usize> = (0..VOCAB).collect();
        for emb in techniques() {
            let want = emb.lookup(&ids).unwrap();
            let (built, parts) = EmbeddingTables::build(emb.as_ref(), Dtype::F32, 256);
            assert!(parts.iter().all(|&(_, err)| err == 0.0), "fp32 is exact");
            for tables in [built, file_tables(emb.as_ref(), Dtype::F32)] {
                let mut got = vec![0f32; VOCAB * emb.output_dim()];
                tables.lookup_into(&ids, &mut Vec::new(), &mut got).unwrap();
                assert_eq!(bits(&got), bits(want.as_slice()), "{}", emb.method_name());
                assert_eq!(tables.rows_read(), VOCAB as u64);
            }
        }
    }

    #[test]
    fn file_columns_decode_what_the_file_quantized() {
        let mut rng = StdRng::seed_from_u64(3);
        let emb = FullEmbedding::new(12, 5, &mut rng).unwrap();
        let table = emb.tables()[0].tensor;
        for dtype in [
            Dtype::F32,
            Dtype::F16,
            Dtype::Int8,
            Dtype::Int4,
            Dtype::Int2,
        ] {
            let mut data = vec![0u8; 12 * dtype.row_bytes(5)];
            let (scale, _) = quantize_rows(table.as_slice(), 12, 5, dtype, &mut data);
            let tables = file_tables(&emb, dtype);
            let (mut want, mut got) = ([0f32; 5], [f32::NAN; 5]);
            for (r, bytes) in data.chunks_exact(dtype.row_bytes(5)).enumerate() {
                decode_row_into(bytes, dtype, scale, &mut want);
                tables.read(0, r, &mut got).unwrap();
                assert_eq!(bits(&got), bits(&want), "{dtype:?} row {r}");
            }
        }
    }

    #[test]
    fn a_row_costs_its_combine_plus_the_dequantize() {
        for emb in techniques() {
            let dim = emb.output_dim();
            let combine = emb.state().recipe().combine.flops(dim) as u64;
            for dtype in [Dtype::F32, Dtype::F16, Dtype::Int8] {
                let dequant = if dtype == Dtype::F32 { 0 } else { dim as u64 };
                let (built, _) = EmbeddingTables::build(emb.as_ref(), dtype, 256);
                let file = file_tables(emb.as_ref(), dtype);
                for tables in [built, file] {
                    assert_eq!(tables.row_flops(), combine + dequant, "{dtype:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_vocabulary_ids_are_bad_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let emb = MemCom::new(MemComConfig::new(40, 4, 8), &mut rng).unwrap();
        let (tables, _) = EmbeddingTables::build(&emb, Dtype::Int8, 64);
        let mut out = vec![0f32; 8];
        assert!(matches!(
            tables.lookup_into(&[3, 40], &mut Vec::new(), &mut out),
            Err(OnDeviceError::BadInput { .. })
        ));
        assert_eq!(tables.rows_read(), 0, "a failed read counts no rows");
    }

    #[test]
    fn a_batch_read_charges_what_one_read_per_id_charges() {
        let ids = batch(9, VOCAB);
        for emb in techniques() {
            let (recipe, dim) = (emb.state().recipe(), emb.output_dim());
            for dtype in DTYPES {
                for [batched, twin, per_read] in triplets(emb.as_ref(), dtype) {
                    let label = format!("{} {dtype:?}", emb.method_name());
                    let mut operand = Vec::new();
                    let mut got = vec![0f32; ids.len() * dim];
                    batched.lookup_into(&ids, &mut operand, &mut got).unwrap();
                    let mut want = vec![0f32; ids.len() * dim];
                    for (&id, row) in ids.iter().zip(want.chunks_exact_mut(dim)) {
                        twin.lookup_into(&[id], &mut operand, row).unwrap();
                    }
                    assert_eq!(bits(&got), bits(&want), "{label}");
                    assert_eq!(batched.rows_read(), twin.rows_read(), "{label}");
                    assert_eq!(batched.run_stats(), twin.run_stats(), "{label}");
                    assert_eq!(columns(&batched), columns(&twin), "{label}");
                    // The executor's own reads, each charged as it is
                    // made: the derived per-column charge matches them.
                    let read = |k: usize, r: usize, buf: &mut [f32]| per_read.read(k, r, buf);
                    for (&id, row) in ids.iter().zip(want.chunks_exact_mut(dim)) {
                        recipe.row_into(id, read, &mut operand, row).unwrap();
                    }
                    assert_eq!(bits(&got), bits(&want), "{label}");
                    assert_eq!(columns(&batched), columns(&per_read), "{label}");
                }
            }
        }
    }

    #[test]
    fn an_out_of_vocabulary_id_charges_only_the_rows_before_it() {
        // The ids before the bad one sit in the low rows; the lookahead
        // runs over it (skipped) into rows near the top of the
        // vocabulary, on pages no read touches.
        let k = AHEAD + 3;
        let mut ids: Vec<usize> = (0..k).map(|i| i % 10).collect();
        ids.push(VOCAB);
        ids.extend(VOCAB - AHEAD..VOCAB);
        for emb in techniques() {
            let dim = emb.output_dim();
            for dtype in [Dtype::F32, Dtype::Int8] {
                for [batched, twin, _] in triplets(emb.as_ref(), dtype) {
                    let label = format!("{} {dtype:?}", emb.method_name());
                    let mut out = vec![0f32; ids.len() * dim];
                    let read = batched.lookup_into(&ids, &mut Vec::new(), &mut out);
                    assert!(
                        matches!(read, Err(OnDeviceError::BadInput { .. })),
                        "{label}"
                    );
                    assert_eq!(batched.rows_read(), 0, "{label}");
                    let mut row = vec![0f32; dim];
                    for &id in &ids[..k] {
                        twin.lookup_into(&[id], &mut Vec::new(), &mut row).unwrap();
                    }
                    assert_eq!(bits(&out[(k - 1) * dim..k * dim]), bits(&row), "{label}");
                    assert_eq!(columns(&batched), columns(&twin), "{label}");
                    let resident = |t: &EmbeddingTables| t.run_stats().resident_model_bytes;
                    assert_eq!(resident(&batched), resident(&twin), "{label}");
                }
            }
        }
    }

    #[test]
    fn concurrent_batched_readers_fault_each_page_once() {
        let mut rng = StdRng::seed_from_u64(8);
        let emb = MemCom::new(MemComConfig::with_bias(2_000, 8, 50), &mut rng).unwrap();
        let (tables, _) = EmbeddingTables::build(&emb, Dtype::Int8, 64);
        const CALLS: usize = 20;
        let batches: Vec<Vec<usize>> = (0..8).map(|t| batch(t, 2_000)).collect();
        std::thread::scope(|s| {
            for ids in &batches {
                let tables = &tables;
                s.spawn(move || {
                    let (mut operand, mut out) = (Vec::new(), vec![0f32; ids.len() * 8]);
                    for _ in 0..CALLS {
                        tables.lookup_into(ids, &mut operand, &mut out).unwrap();
                    }
                });
            }
        });
        let rows = (CALLS * batches.iter().map(Vec::len).sum::<usize>()) as u64;
        assert_eq!(tables.rows_read(), rows);
        // Per row: the shared row, then a multiplier and a bias block.
        let strides = [
            Dtype::Int8.stored_row_bytes(8),
            SCALAR_BLOCK_BYTES,
            SCALAR_BLOCK_BYTES,
        ];
        for (pages, stride) in tables.pages().zip(strides) {
            assert_eq!(pages.faults() as usize, pages.resident_page_count());
            assert_eq!(pages.total_read_bytes(), rows * stride as u64);
        }
    }

    #[test]
    #[should_panic(expected = "slab holds")]
    fn a_mis_sized_slab_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let emb = FullEmbedding::new(10, 4, &mut rng).unwrap();
        let (tables, _) = EmbeddingTables::build(&emb, Dtype::F32, 64);
        let _ = tables.lookup_into(&[1, 2], &mut Vec::new(), &mut [0f32; 7]);
    }

    #[test]
    fn writes_copy_only_their_page_and_growth_serves_zeros() {
        let mut rng = StdRng::seed_from_u64(6);
        let emb = MemCom::new(MemComConfig::with_bias(300, 4, 8), &mut rng).unwrap();
        for dtype in [Dtype::F32, Dtype::Int8] {
            let (tables, _) = EmbeddingTables::build(&emb, dtype, 64);
            let mut next = tables.shared_clone();
            assert_eq!(next.shared_bytes_with(&tables), tables.stored_bytes());
            let mut scratch = [Vec::new(), Vec::new()];
            let written = next.write(1, 7, &[0.0], &mut scratch).unwrap();
            assert_eq!(written.err, 0.0, "{dtype:?}: zero is exact");
            assert_eq!(next.cow_touched_pages(), 1, "{dtype:?}");
            assert_eq!(
                next.shared_bytes_with(&tables) as u64,
                tables.stored_bytes() as u64 - next.cow_copied_bytes()
            );
            next.grow(310);
            assert_eq!(next.vocab(), 310);
            let mut rows = vec![1f32; 8];
            next.lookup_into(&[7, 305], &mut Vec::new(), &mut rows)
                .unwrap();
            assert_eq!(rows[..4], [0.0; 4], "{dtype:?}: a zero multiplier");
            assert_eq!(rows[4..], [0.0; 4], "{dtype:?}: a grown id");
            assert_eq!(
                tables.vocab(),
                300,
                "the snapshot it came from is untouched"
            );
        }
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn file_tables_take_no_write() {
        let mut rng = StdRng::seed_from_u64(7);
        let emb = FullEmbedding::new(20, 4, &mut rng).unwrap();
        let mut tables = file_tables(&emb, Dtype::Int8);
        let _ = tables.write(0, 3, &[0.0; 4], &mut [Vec::new(), Vec::new()]);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn file_tables_do_not_grow() {
        let mut rng = StdRng::seed_from_u64(7);
        let emb = FullEmbedding::new(20, 4, &mut rng).unwrap();
        let mut tables = file_tables(&emb, Dtype::F32);
        tables.grow(20); // not growth: nothing to write
        tables.grow(21);
    }
}
