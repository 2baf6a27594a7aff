//! The sharded row store.
//!
//! Serves a trained embedding model from N shards by running the
//! technique's own [`Recipe`] over its own tables — the executor
//! ([`Recipe::row_into`]) training and the on-device engine run, hence the
//! same bits — so a served model costs what its tables cost, never
//! `vocab × dim`. Each shard holds one **column** per recipe table, backed
//! by structurally-shared pages ([`memcom_ondevice::PagedTable`]: its own
//! lazy residency and fault accounting, so shards never contend on a
//! shared lock). Those pages are the only copy of a row the store keeps:
//! a lookup touches the rows it needs and the footprint is the resident
//! pages (the paper's mmap model, §5.3).
//!
//! One placement rule, read off the recipe — something the store can
//! observe, not an option:
//!
//! * a table whose map is [`RowMap::Identity`] holds one row per id, so it
//!   is **partitioned** with the ids: `shard = id % n_shards`,
//!   `slot = id / n_shards` (contiguous popular ids — the paper
//!   frequency-sorts ids, §5.1 — spread across all shards, so Zipf-skewed
//!   traffic load-balances naturally);
//! * every other table (hashed, clamped or quotient maps, and
//!   [`Combine::Project`]'s map-less projection) is small by construction
//!   — that is the compression — so it is encoded once and **replicated**:
//!   every shard `Arc`-shares the same physical pages and keeps only its
//!   own residency accounting.
//!
//! The uncompressed baseline is thus [`Combine::Row`] over one partitioned
//! column, MEmCom is `[replicated shared table, partitioned multipliers,
//! partitioned biases?]`, naive hashing is one replicated `m × e` column.
//!
//! The read path is slab-based: [`ShardedStore::lookup_into`] writes the
//! rows of ids of any shards, in request order, straight into a
//! caller-owned flat buffer — one loop that runs the recipe over page
//! reads in place, with the recipe's operand buffer owned by the caller —
//! so it takes no lock and nothing on it allocates per row.
//!
//! Any store can hold its rows below fp32
//! ([`ShardedStore::build_quantized`]): column pages then hold
//! [`Dtype`]-packed row bytes — each integer-quantized row carries its
//! own inline `f32` scale, so one page-local read yields both — and the
//! read path dequantizes **directly into the caller's slab** through
//! [`memcom_ondevice::decode_row_into`], preserving the zero-allocation
//! guarantee. [`ShardedStore::error_bound`] certifies the worst-case
//! absolute error any served row can carry: each column's `(max |value|, max
//! dequantization error)` composed by [`Combine::error_bound`].
//!
//! ## Delta snapshots
//!
//! Because pages are `Arc`-shared, a store is **cheap to update
//! incrementally**: [`ShardedStore::apply_delta`] produces a new
//! snapshot that copy-on-writes only the pages a [`StoreDelta`]'s
//! upserts/removals touch — every untouched page is the same physical
//! allocation as the old snapshot's
//! ([`ShardedStore::shared_bytes_with`] proves it), and the certified
//! error bound is re-certified over the re-encoded rows. A
//! 0.1%-of-rows delta therefore costs ~0.1% of a rebuild in bytes
//! copied and wall time, which is what makes high-frequency online
//! refresh ([`crate::Router::apply_delta`]) affordable.
//!
//! A per-id write needs a per-id row to land in, so the recipes that take
//! deltas are the ones with a partitioned column to write: [`Combine::Row`]
//! over an identity map (uncompressed, reduced dim — the row is
//! re-encoded) and [`Combine::ScaleMul`] / [`Combine::ScaleAdd`] over
//! identity-mapped scalars (MEmCom — the row is projected onto its shared
//! row). Under every other recipe an id owns no row — its embedding is
//! shared with every id it collides with — so `apply_delta` refuses with
//! [`ServeError::BadConfig`] instead of un-compressing the store: rebuild
//! from the retrained model and [`crate::Router::swap`].

use std::sync::atomic::{AtomicU64, Ordering};

use memcom_core::hashing::RowMap;
use memcom_core::recipe::{Combine, Recipe};
use memcom_core::EmbeddingCompressor;
use memcom_ondevice::compute::WorkCounts;
use memcom_ondevice::engine::RunStats;
use memcom_ondevice::pages::PagedTable;
use memcom_ondevice::quant::{
    decode_stored_row, encode_stored_row, quantize_row, stored_zero_row, Dtype,
};

use crate::delta::{DeltaOp, StoreDelta};
use crate::{Result, ServeError};

/// Rows read, in the shape of the hot-row cache counters the store had
/// before its cache was deleted — a vestige kept because frozen
/// `crates/perf` compiles against it (ROADMAP item 1(e) removes it with its
/// readers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: no row is served from anywhere but the pages.
    pub hits: u64,
    /// Rows read from the pages.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction — always `0`, see [`CacheStats::hits`].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slots per int8 scalar block ([`ColumnRows::Int8`]).
const SCALAR_BLOCK: usize = 64;
/// Stored bytes per int8 scalar block: inline `f32` scale + one code
/// per slot.
const SCALAR_BLOCK_BYTES: usize = 4 + SCALAR_BLOCK;

/// The rows of one column, in one of two encodings.
///
/// A 1-wide partitioned column (MEmCom's multipliers and biases: one
/// value per slot, the dominant per-entity store term at scale) is a
/// scalar column. An F32 store keeps it as 1-wide rows like any other
/// column; quantized stores pack it as [`SCALAR_BLOCK`]-slot
/// **int8 blocks with per-block scales** — the same symmetric linear
/// scheme the wide rows use, with the block standing in for the row — at
/// `(4 + 64) / 64 ≈ 1.06` bytes per slot instead of 4. A zeroed block
/// stores scale `0.0` (codes decode to exact 0 at any scale, and a
/// zero scale forces the first real write through the re-scale path
/// instead of rounding against a meaningless step).
#[derive(Debug)]
enum ColumnRows {
    /// `dtype`-packed stored rows of `cols` values, each integer row
    /// behind its own inline scale.
    Wide {
        table: PagedTable,
        dtype: Dtype,
        cols: usize,
    },
    /// Int8 blocks with inline per-block scales (scalar column of a
    /// quantized store).
    Int8(PagedTable),
}

/// What a [`ColumnRows::write`] actually did to served values — the
/// terms [`ShardedStore::apply_delta`] folds into the certified bound.
#[derive(Debug, Clone, Copy, Default)]
struct Written {
    /// Max `|requested − stored|` over the written row.
    err: f32,
    /// Max `|old − new|` over the *other* slots of a re-scaled int8 block
    /// (0 when the write fit the block's existing scale, and for the
    /// other encodings).
    neighbor_drift: f32,
}

impl ColumnRows {
    /// Encodes rows `rows` of `values` (`cols` wide, row-major), in that
    /// order; a 1-wide `partitioned` column of a quantized store takes
    /// the scalar-block encoding. Returns the rows and the worst
    /// `|source − stored|` they certify.
    fn build(
        values: &[f32],
        cols: usize,
        rows: impl ExactSizeIterator<Item = usize>,
        partitioned: bool,
        dtype: Dtype,
        page_size: usize,
    ) -> (Self, f32) {
        if partitioned && cols == 1 && dtype != Dtype::F32 {
            return Self::build_scalars(rows.map(|r| values[r]), page_size);
        }
        let stride = dtype.stored_row_bytes(cols);
        let mut bytes = Vec::with_capacity(rows.len() * stride);
        let mut payload = vec![0u8; dtype.row_bytes(cols)];
        let mut err = 0f32;
        for r in rows {
            let row = &values[r * cols..(r + 1) * cols];
            if dtype == Dtype::F32 {
                // The bytes `encode_stored_row` writes for F32 (verbatim,
                // no scale prefix, certified error 0) without its per-row
                // call and bound fold, which the 200 000 one-value rows
                // of a MEmCom scalar column make visible in `setup_s`.
                bytes.extend(row.iter().flat_map(|v| v.to_le_bytes()));
            } else {
                err = err.max(encode_stored_row(row, dtype, &mut payload, &mut bytes));
            }
        }
        let table = PagedTable::from_rows(&bytes, stride, page_size);
        (ColumnRows::Wide { table, dtype, cols }, err)
    }

    /// Builds an int8-block scalar column from per-slot values. Returns
    /// the rows and the measured max `|source − stored|` across slots.
    fn build_scalars(values: impl ExactSizeIterator<Item = f32>, page_size: usize) -> (Self, f32) {
        let slots = values.len();
        let blocks = slots.div_ceil(SCALAR_BLOCK);
        let mut bytes = Vec::with_capacity(blocks * SCALAR_BLOCK_BYTES);
        let mut block = [0f32; SCALAR_BLOCK];
        let mut payload = [0u8; SCALAR_BLOCK];
        let mut err = 0f32;
        let mut values = values;
        for _ in 0..blocks {
            let mut fill = 0usize;
            block.fill(0.0);
            for slot in block.iter_mut() {
                match values.next() {
                    Some(v) => *slot = v,
                    None => break,
                }
                fill += 1;
            }
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
        (
            ColumnRows::Int8(PagedTable::from_rows(&bytes, SCALAR_BLOCK_BYTES, page_size)),
            err,
        )
    }

    /// Decodes row (scalar columns: slot) `r` into `buf`.
    fn read(&self, r: usize, buf: &mut [f32]) -> Result<()> {
        match self {
            ColumnRows::Wide { table, dtype, .. } => {
                decode_stored_row(table.read_row(r)?, *dtype, buf)
            }
            ColumnRows::Int8(t) => {
                let row = t.read_row(r / SCALAR_BLOCK)?;
                let scale = decode_f32(&row[..4]);
                buf[0] = (row[4 + r % SCALAR_BLOCK] as i8) as f32 * scale;
            }
        }
        Ok(())
    }

    /// Stores `values` as row (slot) `r`. Wide rows re-encode around
    /// their own scale. Int8 blocks re-use the block's existing scale
    /// when the value fits its code range (no other slot moves);
    /// otherwise the whole block re-encodes around a new scale and the
    /// returned [`Written::neighbor_drift`] reports how far the block's
    /// other slots moved. `scratch` is the wide rows' `[payload, stored]`
    /// encode buffers, reused across the writes of one delta.
    fn write(&mut self, r: usize, values: &[f32], scratch: &mut [Vec<u8>; 2]) -> Result<Written> {
        match self {
            ColumnRows::Wide { table, dtype, .. } => {
                let [payload, stored] = scratch;
                payload.resize(dtype.row_bytes(values.len()), 0);
                stored.clear();
                let err = encode_stored_row(values, *dtype, payload, stored);
                table.write_row(r, stored)?;
                Ok(Written {
                    err,
                    neighbor_drift: 0.0,
                })
            }
            ColumnRows::Int8(t) => {
                let value = values[0];
                let (block, idx) = (r / SCALAR_BLOCK, r % SCALAR_BLOCK);
                let mut row = t.read_row(block)?.to_vec();
                let scale = decode_f32(&row[..4]);
                if scale > 0.0 {
                    let q = (value / scale).round();
                    if q.abs() <= 127.0 {
                        let q = q as i8;
                        row[4 + idx] = q as u8;
                        t.write_row(block, &row)?;
                        return Ok(Written {
                            err: (value - q as f32 * scale).abs(),
                            neighbor_drift: 0.0,
                        });
                    }
                }
                // Out of range (or a zeroed block): re-encode the whole
                // block around a fresh scale.
                let mut vals = [0f32; SCALAR_BLOCK];
                for (i, v) in vals.iter_mut().enumerate() {
                    *v = (row[4 + i] as i8) as f32 * scale;
                }
                let old = vals;
                vals[idx] = value;
                let mut payload = [0u8; SCALAR_BLOCK];
                let mut new_scale = quantize_row(&vals, Dtype::Int8, &mut payload);
                if vals.iter().all(|&x| x == 0.0) {
                    new_scale = 0.0;
                }
                row[..4].copy_from_slice(&new_scale.to_le_bytes());
                row[4..].copy_from_slice(&payload);
                t.write_row(block, &row)?;
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

    /// Appends zeroed rows for vocabulary growth (`old_slots` →
    /// `new_slots`).
    fn extend(&mut self, old_slots: usize, new_slots: usize) {
        match self {
            ColumnRows::Wide { table, dtype, cols } => {
                table.extend_rows(new_slots - old_slots, &stored_zero_row(*dtype, *cols))
            }
            ColumnRows::Int8(t) => {
                let extra = new_slots.div_ceil(SCALAR_BLOCK) - old_slots.div_ceil(SCALAR_BLOCK);
                if extra > 0 {
                    t.extend_rows(extra, &[0u8; SCALAR_BLOCK_BYTES]);
                }
            }
        }
    }

    /// A snapshot clone sharing every page (see
    /// [`PagedTable::shared_clone`]).
    fn shared_clone(&self) -> Self {
        match self {
            ColumnRows::Wide { table, dtype, cols } => ColumnRows::Wide {
                table: table.shared_clone(),
                dtype: *dtype,
                cols: *cols,
            },
            ColumnRows::Int8(t) => ColumnRows::Int8(t.shared_clone()),
        }
    }

    /// The backing page table (accounting).
    fn table(&self) -> &PagedTable {
        match self {
            ColumnRows::Wide { table: t, .. } | ColumnRows::Int8(t) => t,
        }
    }
}

/// One recipe table as a shard holds it.
#[derive(Debug)]
struct Column {
    rows: ColumnRows,
    /// Whether the table is partitioned — this shard holds only its own
    /// ids' rows, at their slots — or replicated whole.
    partitioned: bool,
    /// Upper bound on `|x|` for any value the column decoded to when it
    /// was built. A delta that re-encodes scalars beside a column it
    /// never writes (MEmCom's shared table) needs it: it is the factor
    /// that turns a scalar's write error into served-row error.
    max_abs: f32,
}

impl Column {
    /// Fills `buf` with what an id at `slot` reads from this column when
    /// its map names row `r`: a partitioned column holds the id's own row
    /// at its slot, a replicated one holds every row.
    fn read(&self, slot: usize, r: usize, buf: &mut [f32]) -> Result<()> {
        self.rows.read(if self.partitioned { slot } else { r }, buf)
    }

    fn shared_clone(&self) -> Self {
        Column {
            rows: self.rows.shared_clone(),
            ..*self
        }
    }
}

struct Shard {
    /// One column per recipe table, in recipe order.
    columns: Vec<Column>,
    /// Rows owned by this shard (its slot count).
    slots: usize,
}

/// A sharded, page-backed read-only row store built from any
/// [`EmbeddingCompressor`].
pub struct ShardedStore {
    shards: Vec<Shard>,
    /// How an id reads its shard's columns.
    recipe: Recipe,
    vocab: usize,
    dim: usize,
    dtype: Dtype,
    /// Worst-case absolute error of any served row vs. the rows the
    /// store was asked to hold.
    error_bound: f32,
    method: &'static str,
    /// Counted flops of one row: the combine, plus one multiply (or
    /// half-to-float convert) per value when the rows dequantize.
    row_flops: u64,
    /// Rows served since construction.
    rows_read: AtomicU64,
}

impl ShardedStore {
    /// Builds an fp32 store with `n_shards` shards from a trained
    /// compressor, using the given page size. Served rows are bit-exact
    /// ([`error_bound`](Self::error_bound) is 0); for sub-fp32 row
    /// storage use [`build_quantized`](Self::build_quantized).
    ///
    /// `_cache_capacity` is ignored — the store has no cache. The
    /// positional parameter is a vestige kept because frozen
    /// `crates/perf` passes it (ROADMAP item 1(e) removes it with its
    /// callers' argument).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero shard count, a zero
    /// page size or an empty model.
    pub fn build(
        emb: &dyn EmbeddingCompressor,
        n_shards: usize,
        _cache_capacity: usize,
        page_size: usize,
    ) -> Result<Self> {
        Self::build_quantized(emb, n_shards, 0, page_size, Dtype::F32)
    }

    /// Builds a store whose column pages hold `dtype`-packed row bytes.
    ///
    /// Each integer-quantized row is encoded with its **own** linear
    /// scale (stored inline before the payload), so the error of any row
    /// is bounded by *that row's* half-step, not the worst row's; a
    /// partitioned scalar column (MEmCom's per-entity multipliers and
    /// biases) is packed as int8 blocks with a per-block `f32` scale (64
    /// codes per scale — about 3.8× smaller than one `f32` per entity).
    /// The reconstruction error of a served row composes the columns'
    /// errors the way the recipe composes their values
    /// ([`Combine::error_bound`]; for MEmCom
    /// `|v|·err(u) + |u_q|·err(v) + err(w)`), and
    /// [`error_bound`](Self::error_bound) reports that certified
    /// worst-case absolute error across the whole table.
    ///
    /// `_cache_capacity` is ignored, as in [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build).
    pub fn build_quantized(
        emb: &dyn EmbeddingCompressor,
        n_shards: usize,
        _cache_capacity: usize,
        page_size: usize,
        dtype: Dtype,
    ) -> Result<Self> {
        if n_shards == 0 || page_size == 0 {
            return Err(ServeError::BadConfig {
                context: format!(
                    "n_shards and page_size must be >= 1, got {n_shards} and {page_size}"
                ),
            });
        }
        let vocab = emb.vocab_size();
        let dim = emb.output_dim();
        if vocab == 0 || dim == 0 {
            return Err(ServeError::BadConfig {
                context: format!("degenerate model: vocab {vocab}, dim {dim}"),
            });
        }

        let recipe = emb.state().recipe();
        let tables = emb.tables();
        let mut columns: Vec<Vec<Column>> = (0..n_shards)
            .map(|_| Vec::with_capacity(tables.len()))
            .collect();
        // Per table, what the bound composes: (max |value|, max error).
        let mut parts = Vec::with_capacity(tables.len());
        for (k, table) in tables.iter().enumerate() {
            let values = table.tensor.as_slice();
            let dims = table.tensor.shape().dims();
            let (n_rows, cols) = (dims[0], dims[1]);
            let max_abs = values.iter().fold(0f32, |acc, &x| acc.max(x.abs()));
            // The placement rule: an identity-mapped table has one row per
            // id, which lives with the id (shard_idx, shard_idx + n, …);
            // any other table is shared by ids of every shard.
            let partitioned = recipe.maps.get(k) == Some(&RowMap::Identity);
            let per_shard: Vec<(ColumnRows, f32)> = if partitioned {
                let build = |shard_idx| {
                    let slots = shard_slots(shard_idx, vocab, n_shards);
                    let ids = (0..slots).map(|slot| shard_idx + slot * n_shards);
                    ColumnRows::build(values, cols, ids, true, dtype, page_size)
                };
                (0..n_shards).map(build).collect()
            } else {
                // Identical for every shard: encode it once into one page
                // set and let every shard `Arc`-share those pages
                // (per-shard residency accounting over one physical
                // allocation).
                let (whole, err) =
                    ColumnRows::build(values, cols, 0..n_rows, false, dtype, page_size);
                (0..n_shards).map(|_| (whole.shared_clone(), err)).collect()
            };
            let mut err = 0f32;
            for (shard, (rows, shard_err)) in columns.iter_mut().zip(per_shard) {
                err = err.max(shard_err);
                shard.push(Column {
                    rows,
                    partitioned,
                    max_abs: max_abs + shard_err,
                });
            }
            parts.push((max_abs, err));
        }
        let dequant = if dtype == Dtype::F32 { 0 } else { dim };
        let shards = columns
            .into_iter()
            .enumerate()
            .map(|(shard_idx, columns)| Shard {
                columns,
                slots: shard_slots(shard_idx, vocab, n_shards),
            })
            .collect();
        Ok(ShardedStore {
            shards,
            vocab,
            dim,
            dtype,
            error_bound: recipe.combine.error_bound(&parts),
            method: emb.method_name(),
            row_flops: (recipe.combine.flops(dim) + dequant) as u64,
            rows_read: AtomicU64::new(0),
            recipe: recipe.clone(),
        })
    }

    /// Applies a [`StoreDelta`], returning a **new snapshot** that
    /// copy-on-writes only the pages the delta touches:
    ///
    /// * Untouched pages stay physically shared with `self` (`Arc`
    ///   clones, zero bytes copied) — a delta touching 0.1% of rows
    ///   copies on the order of 0.1% of the store
    ///   ([`shared_bytes_with`](Self::shared_bytes_with) /
    ///   [`cow_copied_bytes`](Self::cow_copied_bytes) quantify it).
    /// * Under [`Combine::Row`] over a partitioned column, upserted rows
    ///   are re-encoded at the store's [`Dtype`] with their own inline
    ///   scale, and [`error_bound`](Self::error_bound) is re-certified
    ///   to cover them.
    /// * Under [`Combine::ScaleMul`] / [`Combine::ScaleAdd`] over
    ///   partitioned scalars, an upserted row is projected onto the
    ///   (stored) shared row by least squares — the per-entity
    ///   multiplier/bias become the best scalars for the requested row,
    ///   exact when the row came from a retrained model sharing the
    ///   shared table — and the projection's true residual is folded
    ///   into the certified bound.
    /// * Removed rows are tombstoned to the exact zero embedding.
    /// * Upserting `id >= vocab()` **grows** the vocabulary; ids in the
    ///   gap serve zeros until upserted.
    ///
    /// `self` is untouched and keeps serving: [`crate::Router::apply_delta`]
    /// flips the returned snapshot in atomically, with in-flight
    /// requests finishing on the old one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] on a row-width mismatch, and —
    /// before a page is copied — for any other recipe: there an id owns
    /// no row, so it cannot be upserted without un-compressing the store
    /// (see the module docs). Returns [`ServeError::IdOutOfVocab`] for a
    /// removal past the current vocabulary (removals never grow a store).
    pub fn apply_delta(&self, delta: &StoreDelta) -> Result<ShardedStore> {
        if delta.dim() != self.dim {
            return Err(ServeError::BadConfig {
                context: format!(
                    "delta carries dim-{} rows for a dim-{} store",
                    delta.dim(),
                    self.dim
                ),
            });
        }
        let recipe = &self.recipe;
        let identity = |maps: &[RowMap]| maps.iter().all(|map| *map == RowMap::Identity);
        let scaled = match recipe.combine {
            Combine::Row if identity(&recipe.maps) => false,
            Combine::ScaleMul | Combine::ScaleAdd if identity(&recipe.maps[1..]) => true,
            _ => {
                return Err(ServeError::BadConfig {
                    context: format!(
                        "{} has no per-entity table to write: rebuild and `swap`",
                        self.method
                    ),
                })
            }
        };
        for (id, op) in delta.ops() {
            if matches!(op, DeltaOp::Remove) && id >= self.vocab {
                return Err(ServeError::IdOutOfVocab {
                    id,
                    vocab: self.vocab,
                });
            }
        }
        let n_shards = self.shards.len();
        let new_vocab = match delta.max_upsert_id() {
            Some(max_id) => self.vocab.max(max_id + 1),
            None => self.vocab,
        };
        let mut error_bound = self.error_bound;
        let zero_row = vec![0f32; self.dim];
        let mut u_scratch = vec![0f32; self.dim];
        let mut encode_scratch = [Vec::new(), Vec::new()];
        let mut shards = Vec::with_capacity(n_shards);
        for (shard_idx, old) in self.shards.iter().enumerate() {
            let mut columns: Vec<Column> = old.columns.iter().map(Column::shared_clone).collect();
            let new_slots = shard_slots(shard_idx, new_vocab, n_shards);
            if new_slots > old.slots {
                for column in columns.iter_mut().filter(|c| c.partitioned) {
                    column.rows.extend(old.slots, new_slots);
                }
            }
            for (id, op) in delta.ops() {
                if id % n_shards != shard_idx {
                    continue;
                }
                let slot = id / n_shards;
                if !scaled {
                    let row = match op {
                        DeltaOp::Upsert(row) => row,
                        DeltaOp::Remove => &zero_row,
                    };
                    let write = columns[0].rows.write(slot, row, &mut encode_scratch)?;
                    error_bound = (error_bound + write.neighbor_drift).max(write.err);
                    continue;
                }
                let (shared, scalars) = columns.split_first_mut().expect("a recipe has tables");
                let (v, w, residual) = match op {
                    // Project the requested row onto the *stored*
                    // (possibly quantized) shared row, so the fit — and
                    // its residual — are against what lookups will
                    // actually reconstruct.
                    DeltaOp::Upsert(row) => {
                        shared.read(slot, recipe.maps[0].row(id), &mut u_scratch)?;
                        project_scalars(&u_scratch, row, scalars.len() == 2)
                    }
                    // Code 0 decodes to exactly 0.0 at any block scale,
                    // so tombstoning is exact (err 0) and never re-scales
                    // a block (drift 0) — but the terms are folded like
                    // an upsert's, so the bound stays certified even if
                    // the write path changes.
                    DeltaOp::Remove => (0.0, 0.0, 0.0),
                };
                let wv = scalars[0].rows.write(slot, &[v], &mut encode_scratch)?;
                let wb = match scalars.get_mut(1) {
                    Some(bias) => bias.rows.write(slot, &[w], &mut encode_scratch)?,
                    None => Written::default(),
                };
                // What scalar errors `ev`, `ew` do to a row served off the
                // stored shared row (`err(u) = 0`: the fit was against it).
                let served = |ev: f32, ew: f32| {
                    let parts = [(shared.max_abs, 0.0), (0.0, ev), (0.0, ew)];
                    recipe.combine.error_bound(&parts)
                };
                // Re-quantizing the scalars adds its own error, and
                // re-scaling a block may nudge neighbours: the drift term
                // widens the whole bound (every row may sit on a re-scaled
                // block), while the quant term only gates this row's
                // residual.
                let drift = served(wv.neighbor_drift, wb.neighbor_drift);
                error_bound = (error_bound + drift).max(residual + served(wv.err, wb.err));
            }
            shards.push(Shard {
                columns,
                slots: new_slots,
            });
        }
        Ok(ShardedStore {
            shards,
            recipe: recipe.clone(),
            vocab: new_vocab,
            dim: self.dim,
            dtype: self.dtype,
            error_bound,
            method: self.method,
            row_flops: self.row_flops,
            rows_read: AtomicU64::new(0),
        })
    }

    /// Every page table of every shard (accounting).
    fn tables(&self) -> impl Iterator<Item = &PagedTable> {
        let columns = self.shards.iter().flat_map(|s| &s.columns);
        columns.map(|c| c.rows.table())
    }

    /// Bytes of shard pages physically shared (same allocations) with
    /// `other` — for two snapshots related by
    /// [`apply_delta`](Self::apply_delta), everything the delta did not
    /// touch. Returns 0 for stores of different shard counts.
    pub fn shared_bytes_with(&self, other: &ShardedStore) -> usize {
        if self.shards.len() != other.shards.len() {
            return 0;
        }
        self.tables()
            .zip(other.tables())
            .map(|(a, b)| a.shared_bytes_with(b))
            .sum()
    }

    /// Bytes physically copied by copy-on-write writes while building
    /// this snapshot (0 for a freshly built store).
    pub fn cow_copied_bytes(&self) -> u64 {
        self.tables().map(PagedTable::cow_copied_bytes).sum()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Served vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Compression technique backing the store (e.g. `"memcom"`).
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// Storage dtype of the shard row bytes.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Certified worst-case absolute error of any served row relative to
    /// the rows the store was asked to hold (`0.0` for a freshly built
    /// [`Dtype::F32`] store; [`apply_delta`](Self::apply_delta)
    /// re-certifies it over re-encoded rows).
    pub fn error_bound(&self) -> f32 {
        self.error_bound
    }

    /// The shard owning `id`.
    pub fn shard_of(&self, id: usize) -> usize {
        id % self.shards.len()
    }

    /// Total bytes held by all shard stores (on-"disk" model size,
    /// counting a replicated table once per shard even though the
    /// shards physically share those pages).
    pub fn stored_bytes(&self) -> usize {
        self.tables().map(PagedTable::len).sum()
    }

    /// Validates an id against the served vocabulary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] when out of range.
    pub fn check_id(&self, id: usize) -> Result<()> {
        if id >= self.vocab {
            return Err(ServeError::IdOutOfVocab {
                id,
                vocab: self.vocab,
            });
        }
        Ok(())
    }

    /// Looks up a single id from its shard's pages.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] for ids past the vocabulary.
    pub fn get(&self, id: usize) -> Result<Vec<f32>> {
        let mut row = vec![0f32; self.dim];
        self.lookup_into(std::slice::from_ref(&id), &mut Vec::new(), &mut row)?;
        Ok(row)
    }

    /// Reads the rows of `ids`, whichever shards own them, into the flat
    /// slab `out` in request order — the one read path. `out` must hold
    /// exactly `ids.len() * dim()` values; row `k` lands at
    /// `out[k*dim .. (k+1)*dim]`. Per id the recipe runs over its shard's
    /// pages straight into the row, quantized bytes dequantizing in
    /// place; `operand` is [`Recipe::row_into`]'s second-operand buffer,
    /// owned and reused by the caller, so the read takes no lock and
    /// allocates nothing per row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] on any out-of-range id.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != ids.len() * dim()` — the slab is sized
    /// by the serving layer, so a mismatch is an internal bug, and
    /// panicking (rather than quietly truncating) lets the worker's
    /// panic recovery fail the whole batch loudly.
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
        let n_shards = self.shards.len();
        for (&id, row) in ids.iter().zip(out.chunks_exact_mut(dim)) {
            self.check_id(id)?;
            let (columns, slot) = (&self.shards[id % n_shards].columns, id / n_shards);
            let read = |k: usize, r: usize, buf: &mut [f32]| columns[k].read(slot, r, buf);
            self.recipe.row_into(id, read, operand, row)?;
        }
        self.rows_read
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    // memcom-lint: end-hot-path

    /// [`lookup_into`](Self::lookup_into) for ids that all route to
    /// `shard_idx`, with a fresh operand buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] on any out-of-range id and
    /// [`ServeError::BadConfig`] when an id routes to a different shard.
    ///
    /// # Panics
    ///
    /// As [`lookup_into`](Self::lookup_into).
    pub fn lookup_batch(&self, shard_idx: usize, ids: &[usize], out: &mut [f32]) -> Result<()> {
        for &id in ids {
            self.check_id(id)?;
            if self.shard_of(id) != shard_idx {
                return Err(ServeError::BadConfig {
                    context: format!("id {id} routed to shard {shard_idx}"),
                });
            }
        }
        self.lookup_into(ids, &mut Vec::new(), out)
    }

    /// Page clone-on-write events while building this snapshot — the
    /// number of pages physically copied off their shared allocation
    /// (0 for a freshly built store; each page counts once even when
    /// several delta rows land on it).
    pub fn cow_touched_pages(&self) -> u64 {
        self.tables().map(PagedTable::cow_touched_pages).sum()
    }

    /// Rows read since construction, as [`CacheStats::misses`] (`hits`
    /// is always 0) — exact under any number of concurrent readers. A
    /// vestige of the deleted hot-row cache, see [`CacheStats`].
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.rows_read.load(Ordering::Relaxed),
        }
    }

    /// Counted work since construction, in the on-device cost model's
    /// terms: store reads split into cold (first page touch) and warm
    /// bytes, plus reconstruction flops for compressed layouts.
    pub fn work(&self) -> WorkCounts {
        let mut work = WorkCounts::default();
        for table in self.tables() {
            let cold = table.cold_read_bytes();
            work.cold_bytes += cold;
            work.warm_bytes += table.total_read_bytes().saturating_sub(cold);
        }
        work.flops = self.rows_read.load(Ordering::Relaxed) * self.row_flops;
        work.activation_bytes = (self.dim * 4) as u64;
        work
    }

    /// Snapshot of counted work + resident footprint as a [`RunStats`],
    /// so serving cost plugs into the same per-compute-unit model as
    /// single-inference runs (Table 3's units).
    pub fn run_stats(&self) -> RunStats {
        RunStats {
            work: self.work(),
            resident_model_bytes: self.tables().map(PagedTable::resident_bytes).sum(),
        }
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("method", &self.method)
            .field("vocab", &self.vocab)
            .field("dim", &self.dim)
            .field("dtype", &self.dtype)
            .field("n_shards", &self.shards.len())
            .field("stored_bytes", &self.stored_bytes())
            .finish()
    }
}

/// Least-squares fit of `row ≈ v·u (+ w)` — the delta path of a scaled
/// recipe: given the stored shared row `u`, the best per-entity scalars
/// for the requested row, and the fit's true max-absolute residual (the
/// served error for that entity). With `fit_bias` false, `w` is 0.
fn project_scalars(u: &[f32], row: &[f32], fit_bias: bool) -> (f32, f32, f32) {
    let n = u.len() as f64;
    let uu: f64 = u.iter().map(|&x| (x as f64) * (x as f64)).sum();
    let ru: f64 = u
        .iter()
        .zip(row)
        .map(|(&x, &r)| (x as f64) * (r as f64))
        .sum();
    let (v, w) = if fit_bias {
        let su: f64 = u.iter().map(|&x| x as f64).sum();
        let rs: f64 = row.iter().map(|&r| r as f64).sum();
        let det = uu * n - su * su;
        if det.abs() > 1e-12 {
            ((ru * n - rs * su) / det, (rs * uu - ru * su) / det)
        } else {
            // A constant (or zero) shared row: v is unidentifiable, the
            // best fit is the plain mean.
            (0.0, rs / n)
        }
    } else if uu > 0.0 {
        (ru / uu, 0.0)
    } else {
        (0.0, 0.0)
    };
    let (v, w) = (v as f32, w as f32);
    let (v, w) = (
        if v.is_finite() { v } else { 0.0 },
        if w.is_finite() { w } else { 0.0 },
    );
    let residual = u
        .iter()
        .zip(row)
        .map(|(&x, &r)| (r - (v * x + w)).abs())
        .fold(0f32, f32::max);
    (v, w, residual)
}

/// How many of the ids `0..vocab` shard `shard_idx` of `n_shards` owns
/// (`shard_idx`, `shard_idx + n_shards`, …): its slot count.
fn shard_slots(shard_idx: usize, vocab: usize, n_shards: usize) -> usize {
    (shard_idx..vocab).step_by(n_shards).len()
}

fn decode_f32(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("4-byte scalar"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{
        CompressorState, EmbeddingCompressor, FullEmbedding, MemCom, MemComConfig, MethodSpec,
        ParamTable, QrCombiner,
    };
    use memcom_ondevice::quant::{dequant_error_bound, quantize_row};
    use memcom_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Certifies one quantized row's bound without storing it.
    fn row_bound(row: &[f32], dtype: Dtype) -> f32 {
        let mut payload = vec![0u8; dtype.row_bytes(row.len())];
        let scale = quantize_row(row, dtype, &mut payload);
        let max_abs = row.iter().fold(0f32, |acc, &x| acc.max(x.abs()));
        dequant_error_bound(dtype, scale, max_abs)
    }

    fn memcom(vocab: usize, dim: usize, m: usize, bias: bool) -> MemCom {
        let mut rng = StdRng::seed_from_u64(11);
        let config = if bias {
            MemComConfig::with_bias(vocab, dim, m)
        } else {
            MemComConfig::new(vocab, dim, m)
        };
        MemCom::new(config, &mut rng).unwrap()
    }

    #[test]
    fn memcom_store_matches_lookup_exactly() {
        for bias in [false, true] {
            let emb = memcom(257, 8, 31, bias); // deliberately non-divisible
            let store = ShardedStore::build(&emb, 4, 16, 256).unwrap();
            for id in 0..257 {
                let want = emb.lookup(&[id]).unwrap();
                let got = store.get(id).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "id {id} bias {bias}");
            }
        }
    }

    #[test]
    fn uncompressed_store_matches_lookup_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let emb = FullEmbedding::new(100, 6, &mut rng).unwrap();
        let store = ShardedStore::build(&emb, 3, 8, 128).unwrap();
        assert_eq!(store.method(), "uncompressed");
        for id in 0..100 {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(
                store.get(id).unwrap().as_slice(),
                want.as_slice(),
                "id {id}"
            );
        }
    }

    #[test]
    fn memcom_store_is_smaller_than_uncompressed() {
        let emb = memcom(5_000, 32, 500, false);
        let compressed = ShardedStore::build(&emb, 4, 0, 4096).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let full = FullEmbedding::new(5_000, 32, &mut rng).unwrap();
        let dense = ShardedStore::build(&full, 4, 0, 4096).unwrap();
        // 4 shards × replicated shared table + scalars ≪ dense rows.
        assert!(compressed.stored_bytes() * 2 < dense.stored_bytes());
    }

    #[test]
    fn memcom_shards_physically_share_the_shared_table() {
        let emb = memcom(1_000, 16, 100, true);
        let store = ShardedStore::build(&emb, 4, 0, 1024).unwrap();
        // stored_bytes counts the replicated shared table per shard; the
        // physical allocations behind it are shared, so a snapshot clone
        // of the whole store costs pointer bumps only.
        let clone_bytes = store.shared_bytes_with(&store);
        assert_eq!(clone_bytes, store.stored_bytes());
    }

    #[test]
    fn batch_routing_and_validation() {
        let emb = memcom(40, 4, 8, false);
        let store = ShardedStore::build(&emb, 4, 8, 64).unwrap();
        // Shard 1 owns 1, 5, 9, ...
        let mut rows = vec![0f32; 4 * 4];
        store.lookup_batch(1, &[1, 5, 9, 5], &mut rows).unwrap();
        assert_eq!(
            rows[4..8],
            rows[12..16],
            "duplicate ids in a batch get equal rows"
        );
        let read = store.cache_stats();
        assert_eq!((read.hits, read.misses), (0, 4), "every row is a page read");
        assert!(matches!(
            store.lookup_batch(0, &[1], &mut rows[..4]),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(matches!(
            store.get(40),
            Err(ServeError::IdOutOfVocab { id: 40, vocab: 40 })
        ));
    }

    #[test]
    fn lookup_batch_fills_caller_slab() {
        let emb = memcom(40, 4, 8, true);
        let store = ShardedStore::build(&emb, 4, 8, 64).unwrap();
        let ids = [2usize, 6, 10, 6];
        let mut slab = vec![0f32; ids.len() * 4];
        store.lookup_batch(2, &ids, &mut slab).unwrap();
        for (k, &id) in ids.iter().enumerate() {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(&slab[k * 4..(k + 1) * 4], want.as_slice(), "id {id}");
        }
        // Reusing the same slab for a second batch overwrites cleanly.
        store.lookup_batch(2, &[14, 18, 22, 26], &mut slab).unwrap();
        assert_eq!(
            &slab[0..4],
            emb.lookup(&[14]).unwrap().as_slice(),
            "slab reuse"
        );
    }

    #[test]
    fn lookup_into_matches_single_gets_across_shards() {
        let mut rng = StdRng::seed_from_u64(11);
        let emb = MemCom::new(MemComConfig::new(200, 8, 20), &mut rng).unwrap();
        let store = ShardedStore::build(&emb, 4, 16, 4096).unwrap();
        let ids = [7usize, 3, 150, 7, 42, 199, 0];
        let mut dest = vec![0f32; ids.len() * store.dim()];
        store.lookup_into(&ids, &mut Vec::new(), &mut dest).unwrap();
        for (pos, &id) in ids.iter().enumerate() {
            let want = store.get(id).unwrap();
            assert_eq!(&dest[pos * 8..(pos + 1) * 8], want.as_slice(), "id {id}");
        }
        let flat = emb.lookup(&ids).unwrap();
        assert_eq!(
            dest,
            flat.as_slice(),
            "the read must equal compressor lookup"
        );
        assert!(matches!(
            store.lookup_into(&[3, 200], &mut Vec::new(), &mut dest[..16]),
            Err(ServeError::IdOutOfVocab { id: 200, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "slab holds")]
    fn lookup_batch_rejects_mis_sized_slab() {
        let emb = memcom(40, 4, 8, false);
        let store = ShardedStore::build(&emb, 2, 8, 64).unwrap();
        let mut slab = vec![0f32; 3]; // needs 2 rows × dim 4 = 8
        let _ = store.lookup_batch(0, &[0, 2], &mut slab);
    }

    #[test]
    fn run_stats_plug_into_cost_model() {
        use memcom_ondevice::ComputeUnit;
        let emb = memcom(128, 8, 16, true);
        let store = ShardedStore::build(&emb, 2, 0, 128).unwrap();
        for id in 0..64 {
            store.get(id).unwrap();
        }
        let stats = store.run_stats();
        assert!(stats.work.flops >= 64 * 16, "2e flops per bias lookup");
        assert!(stats.work.cold_bytes > 0);
        assert!(stats.resident_model_bytes > 0);
        for unit in ComputeUnit::all() {
            assert!(stats.time_ms(unit) > 0.0);
        }
    }

    #[test]
    fn quantized_stores_serve_within_certified_bound() {
        let mut rng = StdRng::seed_from_u64(13);
        let full = FullEmbedding::new(120, 16, &mut rng).unwrap();
        let compressed = memcom(120, 16, 12, true);
        for dtype in [Dtype::F16, Dtype::Int8, Dtype::Int4, Dtype::Int2] {
            for emb in [&full as &dyn EmbeddingCompressor, &compressed] {
                let exact = ShardedStore::build(emb, 3, 8, 256).unwrap();
                let quant = ShardedStore::build_quantized(emb, 3, 8, 256, dtype).unwrap();
                assert_eq!(quant.dtype(), dtype);
                assert_eq!(exact.dtype(), Dtype::F32);
                assert_eq!(exact.error_bound(), 0.0);
                assert!(quant.error_bound() > 0.0, "{dtype:?}");
                assert!(
                    quant.stored_bytes() < exact.stored_bytes(),
                    "{dtype:?} must shrink the store"
                );
                let bound = quant.error_bound() + 1e-6;
                for id in 0..120 {
                    let want = exact.get(id).unwrap();
                    let got = quant.get(id).unwrap();
                    for (a, b) in want.iter().zip(&got) {
                        assert!(
                            (a - b).abs() <= bound,
                            "{dtype:?} {} id {id}: {a} vs {b} (bound {bound})",
                            emb.method_name(),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn int8_rows_store_is_at_least_3x_smaller() {
        let mut rng = StdRng::seed_from_u64(5);
        let full = FullEmbedding::new(1_000, 32, &mut rng).unwrap();
        let exact = ShardedStore::build(&full, 4, 0, 4096).unwrap();
        let int8 = ShardedStore::build_quantized(&full, 4, 0, 4096, Dtype::Int8).unwrap();
        // 128 B/row fp32 vs 4 B scale + 32 B payload.
        assert!(
            int8.stored_bytes() * 3 <= exact.stored_bytes(),
            "{} vs {}",
            int8.stored_bytes(),
            exact.stored_bytes()
        );
    }

    #[test]
    fn quantized_miss_path_still_counts_work() {
        let emb = memcom(64, 8, 8, false);
        let store = ShardedStore::build_quantized(&emb, 2, 0, 128, Dtype::Int8).unwrap();
        for id in 0..64 {
            store.get(id).unwrap();
        }
        let work = store.work();
        // Reconstruction (dim) + dequantization (dim) flops per lookup.
        assert!(work.flops >= 64 * 16, "flops {}", work.flops);
        assert!(work.cold_bytes > 0);
    }

    #[test]
    fn more_shards_than_vocab_still_works() {
        let emb = memcom(3, 4, 2, false);
        let store = ShardedStore::build(&emb, 8, 4, 64).unwrap();
        for id in 0..3 {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(store.get(id).unwrap().as_slice(), want.as_slice());
        }
    }

    #[test]
    fn delta_upsert_remove_and_grow_on_rows_layout() {
        let mut rng = StdRng::seed_from_u64(21);
        let emb = FullEmbedding::new(50, 4, &mut rng).unwrap();
        let store = ShardedStore::build(&emb, 3, 8, 64).unwrap();
        let mut delta = StoreDelta::new(4);
        delta.upsert_row(7, &[1.0, -2.0, 3.0, -4.0]).unwrap();
        delta.remove_row(11).unwrap();
        delta.upsert_row(53, &[0.5; 4]).unwrap(); // grows 50 -> 54
        let new = store.apply_delta(&delta).unwrap();
        assert_eq!(new.vocab(), 54);
        assert_eq!(store.vocab(), 50, "old snapshot untouched");
        assert_eq!(new.get(7).unwrap(), vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(new.get(11).unwrap(), vec![0.0; 4], "tombstoned");
        assert_eq!(new.get(53).unwrap(), vec![0.5; 4]);
        assert_eq!(new.get(51).unwrap(), vec![0.0; 4], "gap id serves zeros");
        // Unchanged ids serve identical rows; the old store still serves
        // the pre-delta values.
        for id in 0..50 {
            if !delta.contains(id) {
                assert_eq!(new.get(id).unwrap(), store.get(id).unwrap(), "id {id}");
            }
        }
        assert_eq!(
            store.get(7).unwrap().as_slice(),
            emb.lookup(&[7]).unwrap().as_slice()
        );
        // fp32 rows stay exact, so the bound stays 0.
        assert_eq!(new.error_bound(), 0.0);
        // Structural sharing: only the touched pages were copied.
        assert!(new.shared_bytes_with(&store) > 0);
        assert!(new.cow_copied_bytes() > 0);
        assert!((new.cow_copied_bytes() as usize) < store.stored_bytes());
    }

    #[test]
    fn delta_quantizes_at_store_dtype_and_recertifies_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let emb = FullEmbedding::new(64, 8, &mut rng).unwrap();
        for dtype in [Dtype::F16, Dtype::Int8, Dtype::Int4] {
            let store = ShardedStore::build_quantized(&emb, 2, 4, 128, dtype).unwrap();
            // A row with much larger magnitude than the trained table:
            // its per-row quant error exceeds the old bound, so the
            // bound must grow to stay certified.
            let big: Vec<f32> = (0..8).map(|i| (i as f32 - 3.5) * 10.0).collect();
            let mut delta = StoreDelta::new(8);
            delta.upsert_row(5, &big).unwrap();
            let new = store.apply_delta(&delta).unwrap();
            let expect = row_bound(&big, dtype);
            assert!(
                new.error_bound() >= expect - 1e-6,
                "{dtype:?}: bound {} vs per-row {}",
                new.error_bound(),
                expect
            );
            let bound = new.error_bound() + 1e-6;
            for (a, b) in big.iter().zip(new.get(5).unwrap()) {
                assert!((a - b).abs() <= bound, "{dtype:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn delta_on_memcom_projects_scalars() {
        let emb = memcom(60, 8, 6, true);
        let store = ShardedStore::build(&emb, 2, 8, 128).unwrap();
        // A row of the model's own form u*v + w round-trips exactly
        // (the LS projection recovers v and w).
        let m = 6usize;
        let id = 13usize;
        let u = store.get_shared_row_for_test(id, m);
        let want: Vec<f32> = u.iter().map(|&x| x * 1.75 - 0.25).collect();
        let mut delta = StoreDelta::new(8);
        delta.upsert_row(id, &want).unwrap();
        delta.remove_row(14).unwrap();
        let new = store.apply_delta(&delta).unwrap();
        let got = new.get(id).unwrap();
        let bound = new.error_bound() + 1e-4;
        for (a, b) in want.iter().zip(&got) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
        assert_eq!(new.get(14).unwrap(), vec![0.0; 8], "scalars tombstoned");
        // An arbitrary row is served at the certified (residual) bound.
        let arbitrary: Vec<f32> = (0..8).map(|i| (i as f32) * 0.3 - 1.0).collect();
        let mut delta = StoreDelta::new(8);
        delta.upsert_row(20, &arbitrary).unwrap();
        let new = store.apply_delta(&delta).unwrap();
        let bound = new.error_bound() + 1e-5;
        for (a, b) in arbitrary.iter().zip(new.get(20).unwrap()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn memcom_scalar_tables_quantize_and_stay_certified() {
        let emb = memcom(2_000, 16, 50, true);
        let exact = ShardedStore::build(&emb, 4, 0, 4096).unwrap();
        let quant = ShardedStore::build_quantized(&emb, 4, 0, 4096, Dtype::Int8).unwrap();
        // 4 B per f32 scalar vs 68 B per 64-code block: ~3.76× smaller.
        // The scalar columns are what is left of `stored_bytes()` after
        // the shared table's 50 rows, replicated once per shard.
        let scalar_bytes = |store: &ShardedStore| {
            store.stored_bytes() - 4 * 50 * store.dtype().stored_row_bytes(16)
        };
        assert!(
            scalar_bytes(&quant) * 3 < scalar_bytes(&exact),
            "{} vs {}",
            scalar_bytes(&quant),
            scalar_bytes(&exact)
        );
        let bound = quant.error_bound() + 1e-6;
        for id in (0..2_000).step_by(7) {
            let want = exact.get(id).unwrap();
            let got = quant.get(id).unwrap();
            for (a, b) in want.iter().zip(&got) {
                assert!(
                    (a - b).abs() <= bound,
                    "id {id}: {a} vs {b} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn delta_on_quantized_memcom_recertifies_scalar_terms() {
        let emb = memcom(120, 8, 10, true);
        let store = ShardedStore::build_quantized(&emb, 2, 0, 128, Dtype::Int8).unwrap();
        // A multiplier of 40 sits far outside the seeded scalars' range,
        // forcing the upserted slot's int8 block to re-scale — every
        // neighbour in that block is re-encoded and the drift must be
        // folded into the re-certified bound.
        let id = 9usize;
        let u = store.get_shared_row_for_test(id, 10);
        let want: Vec<f32> = u.iter().map(|&x| x * 40.0 + 3.0).collect();
        let mut delta = StoreDelta::new(8);
        delta.upsert_row(id, &want).unwrap();
        let new = store.apply_delta(&delta).unwrap();
        let bound = new.error_bound() + 1e-4;
        for (a, b) in want.iter().zip(new.get(id).unwrap()) {
            assert!(
                (a - b).abs() <= bound,
                "upserted: {a} vs {b} (bound {bound})"
            );
        }
        // Neighbours sharing the re-scaled block still serve within the
        // new bound relative to what the old snapshot certified.
        for other in 0..120 {
            if other == id {
                continue;
            }
            let before = store.get(other).unwrap();
            for (a, b) in before.iter().zip(new.get(other).unwrap()) {
                assert!(
                    (a - b).abs() <= bound,
                    "neighbour {other}: {a} vs {b} (bound {bound})"
                );
            }
        }
        // Removing an id on a quantized store is exact (code 0 decodes
        // to 0.0 at any scale) and never widens the bound.
        let mut rm = StoreDelta::new(8);
        rm.remove_row(5).unwrap();
        let new2 = new.apply_delta(&rm).unwrap();
        assert_eq!(new2.get(5).unwrap(), vec![0.0; 8]);
        assert_eq!(new2.error_bound(), new.error_bound());
    }

    #[test]
    fn delta_rejects_mismatched_dim_and_out_of_vocab_removal() {
        let emb = memcom(20, 4, 4, false);
        let store = ShardedStore::build(&emb, 2, 4, 64).unwrap();
        let mut wrong_dim = StoreDelta::new(5);
        wrong_dim.upsert_row(0, &[0.0; 5]).unwrap();
        assert!(matches!(
            store.apply_delta(&wrong_dim),
            Err(ServeError::BadConfig { .. })
        ));
        let mut bad_remove = StoreDelta::new(4);
        bad_remove.remove_row(20).unwrap();
        assert!(matches!(
            store.apply_delta(&bad_remove),
            Err(ServeError::IdOutOfVocab { id: 20, vocab: 20 })
        ));
        // An empty delta is a pure snapshot clone: everything shared.
        let clone = store.apply_delta(&StoreDelta::new(4)).unwrap();
        assert_eq!(clone.shared_bytes_with(&store), store.stored_bytes());
        assert_eq!(clone.cow_copied_bytes(), 0);
    }

    #[test]
    fn project_scalars_handles_degenerate_shared_rows() {
        // Zero shared row, no bias: only the zero row is representable.
        let (v, w, res) = project_scalars(&[0.0; 4], &[1.0, 1.0, 1.0, 1.0], false);
        assert_eq!((v, w), (0.0, 0.0));
        assert_eq!(res, 1.0);
        // Constant shared row with bias: the mean is the best fit.
        let (v, w, res) = project_scalars(&[0.0; 4], &[1.0, 3.0, 1.0, 3.0], true);
        assert_eq!(v, 0.0);
        assert!((w - 2.0).abs() < 1e-6);
        assert!((res - 1.0).abs() < 1e-6);
        // Exact fit: residual ~ 0.
        let u = [1.0f32, -2.0, 0.5, 3.0];
        let row: Vec<f32> = u.iter().map(|&x| x * -0.7 + 0.2).collect();
        let (v, w, res) = project_scalars(&u, &row, true);
        assert!((v + 0.7).abs() < 1e-5);
        assert!((w - 0.2).abs() < 1e-5);
        assert!(res < 1e-5);
    }

    #[test]
    fn zero_shards_and_zero_page_size_are_bad_config() {
        let emb = memcom(20, 4, 4, false);
        for (n_shards, page_size) in [(0, 64), (2, 0)] {
            assert!(
                matches!(
                    ShardedStore::build(&emb, n_shards, 4, page_size),
                    Err(ServeError::BadConfig { .. })
                ),
                "{n_shards} shards, {page_size}-byte pages"
            );
        }
    }

    /// Every spec `tests/quantized.rs` sweeps.
    fn all_specs() -> Vec<MethodSpec> {
        let hash_size = 10;
        let qr = |combiner| MethodSpec::QuotientRemainder {
            hash_size,
            combiner,
        };
        vec![
            MethodSpec::Uncompressed,
            MethodSpec::MemCom {
                hash_size,
                bias: true,
            },
            MethodSpec::MemCom {
                hash_size,
                bias: false,
            },
            MethodSpec::NaiveHash { hash_size },
            MethodSpec::DoubleHash { hash_size },
            qr(QrCombiner::Multiply),
            qr(QrCombiner::Concat),
            MethodSpec::Factorized { hidden: 4 },
            MethodSpec::ReduceDim { dim: 8 },
            MethodSpec::TruncateRare { keep: 20 },
            MethodSpec::WeinbergerOneHot { hash_size },
        ]
    }

    /// Three seeded-hash tables under `Concat` — the compositional-code
    /// technique `tests/every_technique_deploys.rs` defines outside core.
    struct TripleHash(CompressorState);

    impl TripleHash {
        fn new(vocab: usize, dim: usize, m: usize, rng: &mut StdRng) -> Self {
            let tables = ["code_a", "code_b", "code_c"]
                .map(|name| ParamTable::sparse(name, init::embedding_uniform(&[m, dim / 3], rng)));
            let maps = [1, 2, 3].map(|seed| RowMap::Seeded { m, seed });
            let recipe = Recipe::new(maps, Combine::Concat);
            TripleHash(CompressorState::new(vocab, dim, tables.into(), recipe))
        }
    }

    impl EmbeddingCompressor for TripleHash {
        fn state(&self) -> &CompressorState {
            &self.0
        }
        fn state_mut(&mut self) -> &mut CompressorState {
            &mut self.0
        }
        fn method_name(&self) -> &'static str {
            "triple_hash"
        }
    }

    #[test]
    fn every_technique_stores_what_its_tables_cost() {
        const VOCAB: usize = 120;
        const N_SHARDS: usize = 3;
        let mut rng = StdRng::seed_from_u64(29);
        let mut embs: Vec<Box<dyn EmbeddingCompressor>> = all_specs()
            .iter()
            .map(|spec| spec.build(VOCAB, 16, &mut rng).unwrap())
            .collect();
        embs.push(Box::new(TripleHash::new(VOCAB, 12, 10, &mut rng)));
        let mut fp32_bytes = Vec::new();
        for emb in &embs {
            let (name, recipe) = (emb.method_name(), emb.state().recipe());
            for dtype in [Dtype::F32, Dtype::Int8] {
                let store =
                    ShardedStore::build_quantized(emb.as_ref(), N_SHARDS, 8, 256, dtype).unwrap();
                // What the recipe implies, from the table shapes and maps
                // alone: an identity-mapped table is split across the
                // shards (1-wide ones as 64-slot int8 blocks below fp32),
                // any other is held whole by each.
                let mut want = 0;
                for (k, table) in emb.tables().iter().enumerate() {
                    let dims = table.tensor.shape().dims();
                    let (rows, row_bytes) = (dims[0], dtype.stored_row_bytes(dims[1]));
                    want += if recipe.maps.get(k) != Some(&RowMap::Identity) {
                        N_SHARDS * rows * row_bytes
                    } else if dims[1] == 1 && dtype != Dtype::F32 {
                        let slots = |shard| (shard..VOCAB).step_by(N_SHARDS).len();
                        (0..N_SHARDS)
                            .map(|shard| slots(shard).div_ceil(64) * 68)
                            .sum()
                    } else {
                        VOCAB * row_bytes
                    };
                }
                assert_eq!(store.stored_bytes(), want, "{name} {dtype:?}");
                assert_eq!(store.shared_bytes_with(&store), want, "{name} {dtype:?}");
                if dtype == Dtype::F32 {
                    fp32_bytes.push((name, want));
                    assert_eq!(store.error_bound(), 0.0, "{name}");
                    for id in 0..VOCAB {
                        let (got, want) = (store.get(id).unwrap(), emb.lookup(&[id]).unwrap());
                        let bits =
                            |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(want.as_slice()), "{name} id {id}");
                    }
                }
            }
        }
        // The compression the paper is about, no longer given back at
        // serving time: 3 shards × 10 rows × 64 B, not 120 rows × 64 B.
        assert!(
            fp32_bytes.contains(&("naive_hash", 1_920)),
            "{fp32_bytes:?}"
        );
        assert!(
            fp32_bytes.contains(&("uncompressed", 7_680)),
            "{fp32_bytes:?}"
        );
    }

    /// FNV-1a over the bits of every served row, ids ascending.
    fn served_fnv(store: &ShardedStore) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for id in 0..store.vocab() {
            for x in store.get(id).unwrap() {
                for byte in x.to_bits().to_le_bytes() {
                    hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// `memcom(257, 8, 31, bias)` with the scalars a trained model has:
    /// multipliers spread over `[0.5, 2.5)`, biases over `[-0.44, 0.44]`.
    fn trained_memcom(bias: bool) -> MemCom {
        let mut emb = memcom(257, 8, 31, bias);
        let mult = (0..257).map(|i| 0.5 + (i * 37 % 101) as f32 / 50.0);
        let offs = (0..257).map(|i| ((i * 53 % 89) as f32 - 44.0) / 100.0);
        let column = |v: Vec<f32>| Tensor::from_vec(v, &[257, 1]).unwrap();
        let shared = emb.shared_table().clone();
        let (mult, offs) = (column(mult.collect()), column(offs.collect()));
        emb.set_tables(shared, mult, bias.then_some(offs)).unwrap();
        emb
    }

    /// `(stored_bytes, full-scan resident_model_bytes, error_bound bits,
    /// FNV of all served row bits)`.
    type Pin = (usize, usize, u32, u64);

    /// Recorded at cbf36a3, the last commit with the hand-written
    /// `Rows`/`Scaled` layouts: `(model, dtype, as built, after the fixed
    /// three-op delta)`.
    #[rustfmt::skip]
    const PINS: [(&str, Dtype, Pin, Pin); 12] = [
        ("memcom", Dtype::F32, (4996, 4996, 0x0, 0xabd8755a4bee0f59), (5012, 5012, 0x4028ea12, 0x4f8e36e75845b119)),
        ("memcom", Dtype::F16, (2324, 2324, 0x3a201a76, 0x3dcbe1ca3fbde96), (2528, 2528, 0x4028ea48, 0xb350eef137c3e1f8)),
        ("memcom", Dtype::Int8, (1828, 1828, 0x3a80b6c0, 0xbe3c1d071bb48977), (2032, 2032, 0x4028eae9, 0xa306a97bc1ee835f)),
        ("memcom", Dtype::Int4, (1332, 1332, 0x3c1ad1b4, 0xba84f5431258337e), (1536, 1536, 0x402a84f3, 0xf34db38813619d46)),
        ("memcom_bias", Dtype::F32, (6024, 6024, 0x0, 0xb7b1d89d75c70f76), (6056, 6056, 0x3fd13609, 0x28fa3b087c0473b1)),
        ("memcom_bias", Dtype::F16, (2664, 2664, 0x3b198d9e, 0xaf82057f85097480), (3072, 3072, 0x3fd13797, 0x42e195b311cf1e6a)),
        ("memcom_bias", Dtype::Int8, (2168, 2168, 0x3b31e260, 0xce67baf5cc32013d), (2576, 2576, 0x3fd121c7, 0x3aa023f93e4cc3d2)),
        ("memcom_bias", Dtype::Int4, (1672, 1672, 0x3c373374, 0x3d0c75e2cbb6e9f6), (2080, 2080, 0x3fd108b8, 0xb046b6a098386aa0)),
        ("uncompressed", Dtype::F32, (2400, 2400, 0x0, 0x54b8bfe3ec7ee753), (2496, 2496, 0x0, 0x78bd0c90ab61fa15)),
        ("uncompressed", Dtype::F16, (1200, 1200, 0x384ce43f, 0xaccba8753f6ce5), (1248, 1248, 0x3ae00203, 0x709bca1361e2ef03)),
        ("uncompressed", Dtype::Int8, (1000, 1000, 0x394e4053, 0x72a37767373eca52), (1040, 1040, 0x3be1c387, 0x1b92d53b3de87773)),
        ("uncompressed", Dtype::Int4, (700, 700, 0x3b69dfcb, 0xce4c03f6bb77c543), (728, 728, 0x3e000000, 0x8a0bfa5ccc6d07c8)),
    ];

    #[test]
    fn memcom_and_uncompressed_do_not_move_by_a_bit_or_a_byte() {
        let mut rng = StdRng::seed_from_u64(3);
        let full = FullEmbedding::new(100, 6, &mut rng).unwrap();
        let (with_bias, without) = (trained_memcom(true), trained_memcom(false));
        let pin = |store: &ShardedStore| -> Pin {
            let fnv = served_fnv(store); // the full scan the resident bytes follow
            let resident = store.run_stats().resident_model_bytes;
            let bound = store.error_bound().to_bits();
            (store.stored_bytes(), resident, bound, fnv)
        };
        for (name, dtype, built, refreshed) in PINS {
            let (emb, n_shards, cache, page): (&dyn EmbeddingCompressor, _, _, _) = match name {
                "memcom" => (&without, 4, 16, 256),
                "memcom_bias" => (&with_bias, 4, 16, 256),
                _ => (&full, 3, 8, 128),
            };
            let store = ShardedStore::build_quantized(emb, n_shards, cache, page, dtype).unwrap();
            assert_eq!(pin(&store), built, "{name} {dtype:?} as built");
            let dim = store.dim();
            let row: Vec<f32> = (0..dim).map(|j| 0.75 - 0.5 * j as f32).collect();
            let mut delta = StoreDelta::new(dim);
            delta.upsert_row(7, &row).unwrap();
            delta.remove_row(11).unwrap();
            delta
                .upsert_row(store.vocab() + 3, &vec![0.5; dim])
                .unwrap();
            let new = store.apply_delta(&delta).unwrap();
            assert_eq!(pin(&new), refreshed, "{name} {dtype:?} after the delta");
        }
    }

    #[test]
    fn cache_capacity_is_inert() {
        let emb = trained_memcom(true);
        for dtype in [Dtype::F32, Dtype::Int8] {
            let observe = |capacity| {
                let store = ShardedStore::build_quantized(&emb, 4, capacity, 256, dtype).unwrap();
                let fnv = served_fnv(&store);
                let bound = store.error_bound().to_bits();
                (store.stored_bytes(), bound, fnv, store.run_stats())
            };
            assert_eq!(observe(0), observe(1 << 20), "{dtype:?}");
        }
    }

    impl ShardedStore {
        /// Test helper: the decoded stored shared row `mod_hash(id, m)`
        /// of `id`'s shard (column 0 of a MEmCom store).
        fn get_shared_row_for_test(&self, id: usize, m: usize) -> Vec<f32> {
            let shard = &self.shards[self.shard_of(id)];
            let mut out = vec![0f32; self.dim];
            shard.columns[0].read(0, id % m, &mut out).unwrap();
            out
        }
    }
}
