//! The sharded row store.
//!
//! Partitions a trained embedding model's per-entity state across N
//! shards, each backed by its own set of structurally-shared pages
//! ([`memcom_ondevice::PagedTable`]: its own lazy residency and fault
//! accounting, so shards never contend on a shared lock) and fronted by
//! its own hot-row LRU.
//!
//! Two layouts, chosen at build time from the compressor's
//! [`Recipe`] — something the store can observe, not an option:
//!
//! * **Scaled** — a recipe that scales a shared row by per-entity scalars
//!   ([`Combine::ScaleMul`] / [`Combine::ScaleAdd`] with `Identity`-mapped
//!   scalar tables: MEmCom). The shard replicates the *small shared
//!   table* (`m × e`, the whole point of the compression is that this is
//!   tiny) and partitions the *large per-entity tables* (multipliers,
//!   biases) round-robin. A lookup runs the recipe's executor
//!   ([`Recipe::row_into`]) over one shared row + one or two scalars —
//!   the same code, hence the same bits, as training and the on-device
//!   engine. (The replicated shared-table pages are physically one
//!   allocation shared by every shard's `Arc`s; only the residency
//!   accounting is per shard.)
//! * **Rows** — any other recipe is materialized through the
//!   compressor's zero-copy `embed_into` path into dense per-shard row
//!   pages. Correct for every technique, at uncompressed storage cost —
//!   which is precisely the serving-memory trade-off the paper's Table 3
//!   contrasts. (Serving other recipes compressed needs a general
//!   replicate/partition rule and per-combine error bounds; not done.)
//!
//! Ids are routed `shard = id % n_shards`, `slot = id / n_shards`:
//! contiguous popular ids (the paper frequency-sorts ids, §5.1) spread
//! across all shards, so Zipf-skewed traffic load-balances naturally.
//!
//! The batch read path is slab-based: [`ShardedStore::lookup_batch`]
//! writes rows straight into a caller-owned flat buffer — cache hits are
//! `memcpy`s out of the LRU, misses decode from the page store in place,
//! and nothing on that path allocates per row.
//!
//! Either layout can store its rows below fp32
//! ([`ShardedStore::build_quantized`]): shard pages then hold
//! [`Dtype`]-packed row bytes — each integer-quantized row carries its
//! own inline `f32` scale, so one page-local read yields both — and the
//! miss path dequantizes **directly into the caller's slab** through
//! [`memcom_ondevice::decode_row_into`], preserving the zero-allocation
//! guarantee. The hot-row LRU always caches decoded fp32 rows, so cache
//! hits stay pure memcpys regardless of the storage dtype, and
//! [`ShardedStore::error_bound`] certifies the worst-case absolute error
//! any served row can carry.
//!
//! ## Delta snapshots
//!
//! Because pages are `Arc`-shared, a store is **cheap to update
//! incrementally**: [`ShardedStore::apply_delta`] produces a new
//! snapshot that copy-on-writes only the pages a [`StoreDelta`]'s
//! upserts/removals touch — every untouched page is the same physical
//! allocation as the old snapshot's
//! ([`ShardedStore::shared_bytes_with`] proves it), each shard's hot-row
//! LRU carries over with only the changed ids invalidated, and the
//! certified error bound is re-certified over the re-encoded rows. A
//! 0.1%-of-rows delta therefore costs ~0.1% of a rebuild in bytes
//! copied and wall time, which is what makes high-frequency online
//! refresh ([`crate::Router::apply_delta`]) affordable.

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
use parking_lot::Mutex;

use crate::cache::LruCache;
use crate::delta::{DeltaOp, StoreDelta};
use crate::{Result, ServeError};

/// Aggregate cache-effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the hot-row cache.
    pub hits: u64,
    /// Lookups that had to touch the backing store.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (`0` before any traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard's hot-row cache counters, read in one consistent pass
/// (see [`ShardedStore::shard_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Lookups answered from this shard's cache.
    pub hits: u64,
    /// Lookups that had to touch this shard's backing store.
    pub misses: u64,
    /// Rows pushed out of this shard's cache by capacity pressure.
    pub evictions: u64,
    /// Bytes of row data currently resident in this shard's cache.
    pub resident_bytes: usize,
    /// Rows currently resident in this shard's cache.
    pub cached_rows: usize,
}

/// Slots per int8 scalar block ([`ScalarTable::Int8`]).
const SCALAR_BLOCK: usize = 64;
/// Stored bytes per int8 scalar block: inline `f32` scale + one code
/// per slot.
const SCALAR_BLOCK_BYTES: usize = 4 + SCALAR_BLOCK;

/// A per-entity scalar column of the scaled layout (multipliers,
/// biases): one value per slot, the dominant per-entity store term at
/// scale.
///
/// Quantized stores pack it as [`SCALAR_BLOCK`]-slot **int8 blocks
/// with per-block scales** — the same symmetric linear scheme the row
/// tables use, with the block standing in for the row — at
/// `(4 + 64) / 64 ≈ 1.06` bytes per slot instead of 4. A zeroed block
/// stores scale `0.0` (codes decode to exact 0 at any scale, and a
/// zero scale forces the first real write through the re-scale path
/// instead of rounding against a meaningless step).
#[derive(Debug)]
enum ScalarTable {
    /// One exact `f32` per slot (F32-dtype stores).
    F32(PagedTable),
    /// Int8 blocks with inline per-block scales.
    Int8(PagedTable),
}

/// What a [`ScalarTable::set`] actually did to served values — the
/// terms [`ShardedStore::apply_delta`] folds into the certified bound.
#[derive(Debug, Clone, Copy, Default)]
struct ScalarWrite {
    /// `|requested − stored|` for the written slot.
    err: f32,
    /// Max `|old − new|` over the *other* slots of a re-scaled block
    /// (0 when the write fit the block's existing scale, and for F32).
    neighbor_drift: f32,
}

impl ScalarTable {
    /// Builds a column from per-slot values; `quantize` selects the
    /// int8 block layout. Returns the table and the measured max
    /// `|source − stored|` across slots (0 for F32).
    fn build(
        values: impl ExactSizeIterator<Item = f32>,
        quantize: bool,
        page_size: usize,
    ) -> (Self, f32) {
        if !quantize {
            let mut bytes = Vec::with_capacity(values.len() * 4);
            for v in values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            return (
                ScalarTable::F32(PagedTable::from_rows(&bytes, 4, page_size)),
                0.0,
            );
        }
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
            ScalarTable::Int8(PagedTable::from_rows(&bytes, SCALAR_BLOCK_BYTES, page_size)),
            err,
        )
    }

    /// The stored scalar for `slot`.
    fn get(&self, slot: usize) -> Result<f32> {
        match self {
            ScalarTable::F32(t) => Ok(decode_f32(t.read_row(slot)?)),
            ScalarTable::Int8(t) => {
                let row = t.read_row(slot / SCALAR_BLOCK)?;
                let scale = decode_f32(&row[..4]);
                Ok((row[4 + slot % SCALAR_BLOCK] as i8) as f32 * scale)
            }
        }
    }

    /// Stores `value` at `slot`. Int8 blocks re-use the block's
    /// existing scale when the value fits its code range (no other
    /// slot moves); otherwise the whole block re-encodes around a new
    /// scale and the returned [`ScalarWrite::neighbor_drift`] reports
    /// how far the block's other slots moved.
    fn set(&mut self, slot: usize, value: f32) -> Result<ScalarWrite> {
        match self {
            ScalarTable::F32(t) => {
                t.write_row(slot, &value.to_le_bytes())?;
                Ok(ScalarWrite::default())
            }
            ScalarTable::Int8(t) => {
                let (block, idx) = (slot / SCALAR_BLOCK, slot % SCALAR_BLOCK);
                let mut row = t.read_row(block)?.to_vec();
                let scale = decode_f32(&row[..4]);
                if scale > 0.0 {
                    let q = (value / scale).round();
                    if q.abs() <= 127.0 {
                        let q = q as i8;
                        row[4 + idx] = q as u8;
                        t.write_row(block, &row)?;
                        return Ok(ScalarWrite {
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
                let mut write = ScalarWrite::default();
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

    /// Appends zeroed slots for vocabulary growth (`old_slots` →
    /// `new_slots`).
    fn extend(&mut self, old_slots: usize, new_slots: usize) {
        match self {
            ScalarTable::F32(t) => t.extend_rows(new_slots - old_slots, &0f32.to_le_bytes()),
            ScalarTable::Int8(t) => {
                let extra = new_slots.div_ceil(SCALAR_BLOCK) - old_slots.div_ceil(SCALAR_BLOCK);
                if extra > 0 {
                    t.extend_rows(extra, &[0u8; SCALAR_BLOCK_BYTES]);
                }
            }
        }
    }

    fn shared_clone(&self) -> Self {
        match self {
            ScalarTable::F32(t) => ScalarTable::F32(t.shared_clone()),
            ScalarTable::Int8(t) => ScalarTable::Int8(t.shared_clone()),
        }
    }

    /// Bytes physically shared with `other` (0 across layouts).
    fn shared_bytes_with(&self, other: &ScalarTable) -> usize {
        match (self, other) {
            (ScalarTable::F32(a), ScalarTable::F32(b))
            | (ScalarTable::Int8(a), ScalarTable::Int8(b)) => a.shared_bytes_with(b),
            _ => 0,
        }
    }

    /// The backing page table (accounting).
    fn table(&self) -> &PagedTable {
        match self {
            ScalarTable::F32(t) | ScalarTable::Int8(t) => t,
        }
    }
}

/// One shard's page-backed storage.
// One long-lived instance per shard, never moved by value on a hot
// path — boxing the larger scaled variant would only add a pointer
// chase to every lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ShardData {
    /// Materialized rows: slot `s` holds the full stored row of id
    /// `s*n + shard`.
    Rows {
        /// Stored rows, one stride-aligned row per slot.
        table: PagedTable,
    },
    /// Replicated shared table + partitioned per-entity scalars.
    Scaled {
        /// How an id reads them: `maps[0]` picks the shared row, the
        /// combine scales it by the id's own scalars.
        recipe: Recipe,
        /// The stored shared rows (pages physically shared across
        /// shards).
        shared: PagedTable,
        /// Upper bound on `|u|` for any decoded stored shared value —
        /// the factor that converts a multiplier's quantization error
        /// into served-row error when deltas re-encode scalars.
        u_max_abs: f32,
        /// One multiplier per slot.
        mult: ScalarTable,
        /// One bias per slot, when the model trains biases.
        bias: Option<ScalarTable>,
    },
}

impl ShardData {
    /// Every page table this shard reads through (for accounting).
    fn tables(&self) -> impl Iterator<Item = &PagedTable> {
        let (a, b, c) = match self {
            ShardData::Rows { table } => (table, None, None),
            ShardData::Scaled {
                shared, mult, bias, ..
            } => (
                shared,
                Some(mult.table()),
                bias.as_ref().map(ScalarTable::table),
            ),
        };
        std::iter::once(a).chain(b).chain(c)
    }

    /// A snapshot clone sharing every page (see
    /// [`PagedTable::shared_clone`]).
    fn shared_clone(&self) -> Self {
        match self {
            ShardData::Rows { table } => ShardData::Rows {
                table: table.shared_clone(),
            },
            ShardData::Scaled {
                recipe,
                shared,
                u_max_abs,
                mult,
                bias,
            } => ShardData::Scaled {
                recipe: recipe.clone(),
                shared: shared.shared_clone(),
                u_max_abs: *u_max_abs,
                mult: mult.shared_clone(),
                bias: bias.as_ref().map(ScalarTable::shared_clone),
            },
        }
    }

    /// Appends zeroed slots (vocabulary growth, `old_slots` →
    /// `new_slots`).
    fn extend_slots(&mut self, old_slots: usize, new_slots: usize, zero_row: &[u8]) {
        match self {
            ShardData::Rows { table } => table.extend_rows(new_slots - old_slots, zero_row),
            ShardData::Scaled { mult, bias, .. } => {
                mult.extend(old_slots, new_slots);
                if let Some(b) = bias {
                    b.extend(old_slots, new_slots);
                }
            }
        }
    }

    /// Bytes of pages physically shared with `other` (0 for mismatched
    /// layouts).
    fn shared_bytes_with(&self, other: &ShardData) -> usize {
        match (self, other) {
            (ShardData::Rows { table: a }, ShardData::Rows { table: b }) => a.shared_bytes_with(b),
            (
                ShardData::Scaled {
                    shared: sa,
                    mult: ma,
                    bias: ba,
                    ..
                },
                ShardData::Scaled {
                    shared: sb,
                    mult: mb,
                    bias: bb,
                    ..
                },
            ) => {
                sa.shared_bytes_with(sb)
                    + ma.shared_bytes_with(mb)
                    + match (ba, bb) {
                        (Some(a), Some(b)) => a.shared_bytes_with(b),
                        _ => 0,
                    }
            }
            _ => 0,
        }
    }
}

struct Shard {
    data: ShardData,
    /// Storage dtype of this shard's row bytes.
    dtype: Dtype,
    /// Rows owned by this shard (its slot count).
    slots: usize,
    cache: Mutex<LruCache>,
    /// Reusable `(position, id)` miss list for the batch path; per-shard
    /// like the cache, so the one-worker-per-shard discipline keeps it
    /// uncontended and allocation settles after the first large batch.
    miss_scratch: Mutex<Vec<(usize, usize)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    flops: AtomicU64,
}

impl Shard {
    /// Decodes the embedding row for global `id` at local `slot` from the
    /// backing pages straight into `out`, bypassing the cache — the
    /// zero-copy miss path: quantized bytes dequantize in place, no
    /// intermediate buffer.
    fn read_row_into(&self, id: usize, slot: usize, dim: usize, out: &mut [f32]) -> Result<()> {
        debug_assert!(slot < self.slots, "slot routed to wrong shard");
        debug_assert_eq!(out.len(), dim);
        match &self.data {
            ShardData::Rows { table } => {
                decode_stored_row(table.read_row(slot)?, self.dtype, out);
                if self.dtype != Dtype::F32 {
                    // Dequantization is real reconstruction work: one
                    // multiply (or half-to-float convert) per element.
                    self.flops.fetch_add(dim as u64, Ordering::Relaxed);
                }
            }
            ShardData::Scaled {
                recipe,
                shared,
                mult,
                bias,
                ..
            } => {
                // Table 0 is the replicated shared table; the scalar
                // tables are partitioned, so this id's scalars sit at its
                // slot whatever row their (identity) maps name.
                let read = |k: usize, r: usize, buf: &mut [f32]| -> Result<()> {
                    match k {
                        0 => decode_stored_row(shared.read_row(r)?, self.dtype, buf),
                        1 => buf[0] = mult.get(slot)?,
                        _ => buf[0] = bias.as_ref().expect("ScaleAdd has a bias").get(slot)?,
                    }
                    Ok(())
                };
                recipe.row_into(id, read, &mut Vec::new(), out)?;
                let dequant = if self.dtype == Dtype::F32 { 0 } else { dim };
                let flops = recipe.combine.flops(dim) + dequant;
                self.flops.fetch_add(flops as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Serves a batch of ids owned by this shard into the flat slab
    /// `out` (`ids.len() * dim` values, row-major): one cache-lock
    /// acquisition for the hit scan, store reads only for misses, one
    /// more lock for the fills — the lock amortization micro-batching
    /// buys. Nothing here allocates per row: hits copy out of the LRU,
    /// misses decode in place, duplicate ids copy within the slab, and
    /// cache fills recycle LRU storage via `insert_from`.
    ///
    /// Returns this call's own `(hits, misses)` row counts — the same
    /// amounts it adds to the shard's shared counters, which other
    /// accessors bump concurrently.
    fn lookup_into(
        &self,
        ids: &[usize],
        n_shards: usize,
        dim: usize,
        out: &mut [f32],
    ) -> Result<(u64, u64)> {
        assert_eq!(
            out.len(),
            ids.len() * dim,
            "slab holds {} values for {} rows of dim {dim}",
            out.len(),
            ids.len()
        );
        let mut missing = self.miss_scratch.lock();
        missing.clear();
        {
            let mut cache = self.cache.lock();
            for (pos, &id) in ids.iter().enumerate() {
                match cache.get(id) {
                    Some(row) => out[pos * dim..(pos + 1) * dim].copy_from_slice(row),
                    None => missing.push((pos, id)),
                }
            }
        }
        let mut hits = (ids.len() - missing.len()) as u64;
        let mut misses = 0;

        if !missing.is_empty() {
            // Ascending-id order keeps reads page-local within the batch
            // and groups duplicates, so a burst of requests for one cold
            // id (the batcher's bread and butter) pays one store read.
            missing.sort_unstable_by_key(|&(_, id)| id);
            let mut first_of_id: Option<(usize, usize)> = None; // (id, pos)
            let mut dup_hits = 0u64;
            for &(pos, id) in missing.iter() {
                match first_of_id {
                    Some((seen_id, seen_pos)) if seen_id == id => {
                        out.copy_within(seen_pos * dim..(seen_pos + 1) * dim, pos * dim);
                        dup_hits += 1;
                    }
                    _ => {
                        self.read_row_into(
                            id,
                            id / n_shards,
                            dim,
                            &mut out[pos * dim..(pos + 1) * dim],
                        )?;
                        first_of_id = Some((id, pos));
                    }
                }
            }
            let mut cache = self.cache.lock();
            let mut last_inserted = None;
            for &(pos, id) in missing.iter() {
                if last_inserted != Some(id) {
                    cache.insert_from(id, &out[pos * dim..(pos + 1) * dim]);
                    last_inserted = Some(id);
                }
            }
            // Duplicates served from the batch count as hits: they never
            // touched the store.
            hits += dup_hits;
            misses = missing.len() as u64 - dup_hits;
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        Ok((hits, misses))
    }
}

/// A sharded, cached, page-backed read-only row store built from any
/// [`EmbeddingCompressor`].
///
/// Thread-safety note: lookups are always *correct* under arbitrary
/// concurrency, but the cache hit/miss and byte counters are exact only
/// with one accessor per shard (the [`crate::Router`] discipline —
/// one worker per shard). Concurrent direct calls into the same shard
/// can both miss on the same cold id between the hit scan and the fill,
/// double-reading the row and counting two misses where the serving
/// path would count one.
pub struct ShardedStore {
    shards: Vec<Shard>,
    vocab: usize,
    dim: usize,
    dtype: Dtype,
    /// Worst-case absolute error of any served row vs. the rows the
    /// store was asked to hold.
    error_bound: f32,
    method: &'static str,
}

impl ShardedStore {
    /// Builds an fp32 store with `n_shards` shards from a trained
    /// compressor, using the given per-shard cache capacity and page
    /// size. Served rows are bit-exact
    /// ([`error_bound`](Self::error_bound) is 0); for sub-fp32 row
    /// storage use [`build_quantized`](Self::build_quantized).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero shard count or an
    /// empty model, and propagates compressor errors from
    /// materialization.
    pub fn build(
        emb: &dyn EmbeddingCompressor,
        n_shards: usize,
        cache_capacity: usize,
        page_size: usize,
    ) -> Result<Self> {
        Self::build_quantized(emb, n_shards, cache_capacity, page_size, Dtype::F32)
    }

    /// Builds a store whose shard pages hold `dtype`-packed row bytes.
    ///
    /// Each integer-quantized row is encoded with its **own** linear
    /// scale (stored inline before the payload), so the error of any row
    /// is bounded by *that row's* half-step, not the worst row's. For the
    /// scaled layout the small shared table is quantized per row **and**
    /// the per-entity scalars are packed as int8 blocks with a per-block
    /// `f32` scale (64 codes per scale — about 3.8× smaller than one
    /// `f32` per entity). The reconstruction error composes both terms:
    /// `|v|·err(u) + |u_q|·err(v) + err(w)`.
    /// [`error_bound`](Self::error_bound) reports the certified
    /// worst-case absolute error across the whole table.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build).
    pub fn build_quantized(
        emb: &dyn EmbeddingCompressor,
        n_shards: usize,
        cache_capacity: usize,
        page_size: usize,
        dtype: Dtype,
    ) -> Result<Self> {
        if n_shards == 0 {
            return Err(ServeError::BadConfig {
                context: "n_shards must be >= 1".into(),
            });
        }
        let vocab = emb.vocab_size();
        let dim = emb.output_dim();
        if vocab == 0 || dim == 0 {
            return Err(ServeError::BadConfig {
                context: format!("degenerate model: vocab {vocab}, dim {dim}"),
            });
        }

        let stride = dtype.stored_row_bytes(dim);
        // The scaled layout is read off the recipe: a shared row scaled by
        // scalars the id owns outright (identity-mapped, so they partition
        // by slot). Its tables are then `[shared, multiplier, bias?]`.
        let recipe = emb.state().recipe();
        let scaled = matches!(recipe.combine, Combine::ScaleMul | Combine::ScaleAdd)
            && recipe.maps[1..].iter().all(|map| *map == RowMap::Identity);
        let tables = emb.tables();
        let max_abs = |values: &[f32]| values.iter().fold(0f32, |acc, &x| acc.max(x.abs()));
        // The replicated shared-table prefix is identical for every
        // shard: encode it once into one page set and let every shard
        // `Arc`-share those pages (per-shard residency accounting over
        // one physical allocation). Quantized scaled stores quantize
        // the per-entity scalars too (int8 blocks, per-block scales),
        // so the served row u_q · v_q (+ w_q) errs by at most
        // |v|·err(u) + |u_q|·err(v) + err(w) — composed below once the
        // per-shard scalar errors are known.
        let quantize_scalars = dtype != Dtype::F32;
        let shared_encoded = scaled.then(|| {
            let shared = tables[0].tensor;
            let m = shared.shape().dims()[0];
            let (bytes, shared_bound) = encode_rows(shared.as_slice(), m, dim, dtype);
            let max_abs_u = max_abs(shared.as_slice());
            let max_abs_v = max_abs(tables[1].tensor.as_slice());
            let table = PagedTable::from_rows(&bytes, stride, page_size);
            (table, shared_bound, max_abs_u, max_abs_v)
        });
        let mut error_bound = 0f32;
        let mut scalar_err_v = 0f32;
        let mut scalar_err_w = 0f32;
        let mut row_scratch = vec![0f32; dim];
        let mut payload_scratch = vec![0u8; dtype.row_bytes(dim)];
        let mut shards = Vec::with_capacity(n_shards);
        for shard_idx in 0..n_shards {
            // Ids owned by this shard: shard_idx, shard_idx + n, ...
            let slots = if shard_idx < vocab {
                (vocab - shard_idx).div_ceil(n_shards)
            } else {
                0
            };
            let data = match &shared_encoded {
                Some((shared_table, shared_bound, max_abs_u, _)) => {
                    let mult_src = tables[1].tensor.as_slice();
                    let (mult, mult_err) = ScalarTable::build(
                        (0..slots).map(|slot| mult_src[shard_idx + slot * n_shards]),
                        quantize_scalars,
                        page_size,
                    );
                    scalar_err_v = scalar_err_v.max(mult_err);
                    let bias = tables.get(2).map(|b| {
                        let src = b.tensor.as_slice();
                        let (table, err) = ScalarTable::build(
                            (0..slots).map(|slot| src[shard_idx + slot * n_shards]),
                            quantize_scalars,
                            page_size,
                        );
                        scalar_err_w = scalar_err_w.max(err);
                        table
                    });
                    ShardData::Scaled {
                        recipe: recipe.clone(),
                        shared: shared_table.shared_clone(),
                        u_max_abs: max_abs_u + shared_bound,
                        mult,
                        bias,
                    }
                }
                None => {
                    let mut bytes = Vec::with_capacity(slots * stride);
                    for slot in 0..slots {
                        emb.embed_into(shard_idx + slot * n_shards, &mut row_scratch)?;
                        let bound = encode_stored_row(
                            &row_scratch,
                            dtype,
                            &mut payload_scratch,
                            &mut bytes,
                        );
                        error_bound = error_bound.max(bound);
                    }
                    ShardData::Rows {
                        table: PagedTable::from_rows(&bytes, stride, page_size),
                    }
                }
            };
            shards.push(Shard {
                data,
                dtype,
                slots,
                cache: Mutex::new(LruCache::new(cache_capacity)),
                miss_scratch: Mutex::new(Vec::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                flops: AtomicU64::new(0),
            });
        }
        if let Some((_, shared_bound, max_abs_u, max_abs_v)) = &shared_encoded {
            // |u·v + w − u_q·v_q − w_q| ≤ |v|·err(u) + |u_q|·err(v) + err(w),
            // with |u_q| ≤ max|u| + err(u). Reduces to the old
            // `err(u)·max|v|` when the scalars stay f32 (both scalar
            // error terms are 0).
            error_bound = error_bound.max(
                max_abs_v * shared_bound + (max_abs_u + shared_bound) * scalar_err_v + scalar_err_w,
            );
        }
        Ok(ShardedStore {
            shards,
            vocab,
            dim,
            dtype,
            error_bound,
            method: emb.method_name(),
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
    /// * Upserted rows are re-encoded at the store's [`Dtype`] with
    ///   their own inline scale, and
    ///   [`error_bound`](Self::error_bound) is re-certified to cover
    ///   them. Removed rows are tombstoned to the exact zero embedding.
    /// * Upserting `id >= vocab()` **grows** the vocabulary; ids in the
    ///   gap serve zeros until upserted.
    /// * Each shard's hot-row LRU carries over with **only the changed
    ///   ids invalidated**, so a refresh does not restart the cache cold
    ///   the way a full rebuild does.
    /// * For the scaled layout, an upserted row is projected onto the
    ///   (stored) shared row by least squares — the per-entity
    ///   multiplier/bias become the best scalars for the requested row,
    ///   exact when the row came from a retrained model sharing the
    ///   shared table — and the projection's true residual is folded
    ///   into the certified bound.
    ///
    /// `self` is untouched and keeps serving: [`crate::Router::apply_delta`]
    /// flips the returned snapshot in atomically, with in-flight
    /// requests finishing on the old one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] on a row-width mismatch and
    /// [`ServeError::IdOutOfVocab`] for a removal past the current
    /// vocabulary (removals never grow a store).
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
        let zero_row = stored_zero_row(self.dtype, self.dim);
        let mut error_bound = self.error_bound;
        let mut payload_scratch = vec![0u8; self.dtype.row_bytes(self.dim)];
        let mut stored_scratch: Vec<u8> = Vec::with_capacity(self.dtype.stored_row_bytes(self.dim));
        let mut u_scratch = vec![0f32; self.dim];
        let mut shards = Vec::with_capacity(n_shards);
        for (shard_idx, old) in self.shards.iter().enumerate() {
            let mut data = old.data.shared_clone();
            let new_slots = if shard_idx < new_vocab {
                (new_vocab - shard_idx).div_ceil(n_shards)
            } else {
                0
            };
            if new_slots > old.slots {
                data.extend_slots(old.slots, new_slots, &zero_row);
            }
            for (id, op) in delta.ops() {
                if id % n_shards != shard_idx {
                    continue;
                }
                let slot = id / n_shards;
                match (&mut data, op) {
                    (ShardData::Rows { table }, DeltaOp::Upsert(row)) => {
                        stored_scratch.clear();
                        let bound = encode_stored_row(
                            row,
                            self.dtype,
                            &mut payload_scratch,
                            &mut stored_scratch,
                        );
                        error_bound = error_bound.max(bound);
                        table.write_row(slot, &stored_scratch)?;
                    }
                    (ShardData::Rows { table }, DeltaOp::Remove) => {
                        table.write_row(slot, &zero_row)?;
                    }
                    (
                        ShardData::Scaled {
                            recipe,
                            shared,
                            u_max_abs,
                            mult,
                            bias,
                        },
                        DeltaOp::Upsert(row),
                    ) => {
                        // Project the requested row onto the *stored*
                        // (possibly quantized) shared row, so the fit —
                        // and its residual — are against what lookups
                        // will actually reconstruct.
                        decode_stored_row(
                            shared.read_row(recipe.maps[0].row(id))?,
                            self.dtype,
                            &mut u_scratch,
                        );
                        let (v, w, residual) = project_scalars(&u_scratch, row, bias.is_some());
                        // Re-quantizing the scalars adds its own error,
                        // and re-scaling a block may nudge neighbours:
                        // the drift term widens the whole bound (every
                        // row may sit on a re-scaled block), while the
                        // quant term only gates this row's residual.
                        let wv = mult.set(slot, v)?;
                        let wb = match bias {
                            Some(b) => b.set(slot, w)?,
                            None => ScalarWrite::default(),
                        };
                        let quant_err = *u_max_abs * wv.err + wb.err;
                        let drift = *u_max_abs * wv.neighbor_drift + wb.neighbor_drift;
                        error_bound = (error_bound + drift).max(residual + quant_err);
                    }
                    (
                        ShardData::Scaled {
                            u_max_abs,
                            mult,
                            bias,
                            ..
                        },
                        DeltaOp::Remove,
                    ) => {
                        // Code 0 decodes to exactly 0.0 at any block
                        // scale, so tombstoning is exact (err 0) and
                        // never re-scales a block (drift 0) — but fold
                        // the terms anyway so the bound stays certified
                        // even if the write path changes.
                        let wv = mult.set(slot, 0.0)?;
                        let wb = match bias {
                            Some(b) => b.set(slot, 0.0)?,
                            None => ScalarWrite::default(),
                        };
                        let drift = *u_max_abs * wv.neighbor_drift + wb.neighbor_drift;
                        error_bound = (error_bound + drift).max(*u_max_abs * wv.err + wb.err);
                    }
                }
            }
            // The hot-row cache carries over minus exactly the changed
            // ids — the "LRU invalidation limited to changed ids" that
            // keeps a refresh from serving every hot row cold again.
            let cache = old.cache.lock().clone_retaining(|id| !delta.contains(id));
            shards.push(Shard {
                data,
                dtype: self.dtype,
                slots: new_slots,
                cache: Mutex::new(cache),
                miss_scratch: Mutex::new(Vec::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                flops: AtomicU64::new(0),
            });
        }
        Ok(ShardedStore {
            shards,
            vocab: new_vocab,
            dim: self.dim,
            dtype: self.dtype,
            error_bound,
            method: self.method,
        })
    }

    /// Bytes of shard pages physically shared (same allocations) with
    /// `other` — for two snapshots related by
    /// [`apply_delta`](Self::apply_delta), everything the delta did not
    /// touch. Returns 0 for stores of different shard counts or
    /// layouts.
    pub fn shared_bytes_with(&self, other: &ShardedStore) -> usize {
        if self.shards.len() != other.shards.len() {
            return 0;
        }
        self.shards
            .iter()
            .zip(&other.shards)
            .map(|(a, b)| a.data.shared_bytes_with(&b.data))
            .sum()
    }

    /// Bytes physically copied by copy-on-write writes while building
    /// this snapshot (0 for a freshly built store).
    pub fn cow_copied_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.data.tables())
            .map(PagedTable::cow_copied_bytes)
            .sum()
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

    /// Bytes held by the per-entity scalar tables of a scaled-layout store
    /// (multiplier + bias, across all shards). Zero for row stores —
    /// this isolates exactly the footprint the int8 scalar packing
    /// shrinks.
    pub fn memcom_scalar_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match &s.data {
                ShardData::Rows { .. } => 0,
                ShardData::Scaled { mult, bias, .. } => {
                    mult.table().len() + bias.as_ref().map_or(0, |b| b.table().len())
                }
            })
            .sum()
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
    /// counting the replicated shared table once per shard even though the
    /// shards physically share those pages).
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.data.tables())
            .map(PagedTable::len)
            .sum()
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

    /// Looks up a single id through its shard's cache and store.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] for ids past the vocabulary.
    pub fn get(&self, id: usize) -> Result<Vec<f32>> {
        self.check_id(id)?;
        let mut row = vec![0f32; self.dim];
        let shard = &self.shards[self.shard_of(id)];
        shard.lookup_into(
            std::slice::from_ref(&id),
            self.shards.len(),
            self.dim,
            &mut row,
        )?;
        Ok(row)
    }

    /// Serves a batch of ids that all route to `shard_idx` into the flat
    /// slab `out` — the zero-copy batch path. `out` must hold exactly
    /// `ids.len() * dim()` values; row `k` of the result lands at
    /// `out[k*dim .. (k+1)*dim]`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] on any out-of-range id and
    /// [`ServeError::BadConfig`] when an id routes to a different shard
    /// (an internal routing bug).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != ids.len() * dim()` — the slab is sized
    /// by the serving layer, so a mismatch is an internal bug, and
    /// panicking (rather than quietly truncating) lets the worker's
    /// panic recovery fail the whole batch loudly.
    // memcom-lint: hot-path
    pub fn lookup_batch(&self, shard_idx: usize, ids: &[usize], out: &mut [f32]) -> Result<()> {
        self.lookup_batch_counted(shard_idx, ids, out).map(drop)
    }

    /// [`lookup_batch`](Self::lookup_batch), additionally reporting the
    /// `(cache hits, cache misses)` of *this* call — exact even while
    /// score requests on other workers gather through the same shard.
    pub(crate) fn lookup_batch_counted(
        &self,
        shard_idx: usize,
        ids: &[usize],
        out: &mut [f32],
    ) -> Result<(u64, u64)> {
        for &id in ids {
            self.check_id(id)?;
            if self.shard_of(id) != shard_idx {
                return Err(ServeError::BadConfig {
                    context: format!("id {id} routed to shard {shard_idx}"),
                });
            }
        }
        self.shards[shard_idx].lookup_into(ids, self.shards.len(), self.dim, out)
    }

    // memcom-lint: end-hot-path

    /// Page clone-on-write events while building this snapshot — the
    /// number of pages physically copied off their shared allocation
    /// (0 for a freshly built store; each page counts once even when
    /// several delta rows land on it).
    pub fn cow_touched_pages(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.data.tables())
            .map(PagedTable::cow_touched_pages)
            .sum()
    }

    /// One shard's cache counters, read in **one consistent pass**: the
    /// shard's cache lock is taken once for the eviction/residency view
    /// (so those three fields describe the same instant), then the
    /// hit/miss atomics are read. Hit/miss counts can therefore run a
    /// few rows ahead of the locked view under traffic, but the view
    /// never tears within itself.
    ///
    /// # Panics
    ///
    /// Panics when `shard_idx` is out of range.
    pub fn shard_cache_stats(&self, shard_idx: usize) -> ShardCacheStats {
        let shard = &self.shards[shard_idx];
        let (evictions, resident_bytes, cached_rows) = {
            let cache = shard.cache.lock();
            (cache.evictions(), cache.resident_bytes(), cache.len())
        };
        ShardCacheStats {
            hits: shard.hits.load(Ordering::Relaxed),
            misses: shard.misses.load(Ordering::Relaxed),
            evictions,
            resident_bytes,
            cached_rows,
        }
    }

    /// Cache counters for every shard (see
    /// [`shard_cache_stats`](Self::shard_cache_stats); consistency is
    /// per shard, not across shards).
    pub fn per_shard_cache_stats(&self) -> Vec<ShardCacheStats> {
        (0..self.shards.len())
            .map(|idx| self.shard_cache_stats(idx))
            .collect()
    }

    /// Aggregate cache counters across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
        }
        stats
    }

    /// Counted work since construction, in the on-device cost model's
    /// terms: store reads split into cold (first page touch) and warm
    /// bytes, plus reconstruction flops for compressed layouts. Cache
    /// hits contribute *nothing* here — that is the cache's saving, and
    /// it shows directly in [`RunStats::time_ms`] comparisons.
    pub fn work(&self) -> WorkCounts {
        let mut work = WorkCounts::default();
        for shard in &self.shards {
            for table in shard.data.tables() {
                let cold = table.cold_read_bytes();
                work.cold_bytes += cold;
                work.warm_bytes += table.total_read_bytes().saturating_sub(cold);
            }
            work.flops += shard.flops.load(Ordering::Relaxed);
        }
        work.activation_bytes = (self.dim * 4) as u64;
        work
    }

    /// Snapshot of counted work + resident footprint as a [`RunStats`],
    /// so serving cost plugs into the same per-compute-unit model as
    /// single-inference runs (Table 3's units).
    pub fn run_stats(&self) -> RunStats {
        RunStats {
            work: self.work(),
            resident_model_bytes: self
                .shards
                .iter()
                .flat_map(|s| s.data.tables())
                .map(PagedTable::resident_bytes)
                .sum(),
            wall_nanos: 0,
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

/// Least-squares fit of `row ≈ v·u (+ w)` — the scaled layout's delta path:
/// given the stored shared row `u`, the best per-entity scalars for the
/// requested row, and the fit's true max-absolute residual (the served
/// error for that entity). With `fit_bias` false, `w` is 0.
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

/// Encodes `rows` rows of `cols` values each, returning the packed bytes
/// and the worst per-row error bound.
fn encode_rows(values: &[f32], rows: usize, cols: usize, dtype: Dtype) -> (Vec<u8>, f32) {
    let mut bytes = Vec::with_capacity(rows * dtype.stored_row_bytes(cols));
    let mut payload_scratch = vec![0u8; dtype.row_bytes(cols)];
    let mut bound = 0f32;
    for r in 0..rows {
        let row = &values[r * cols..(r + 1) * cols];
        bound = bound.max(encode_stored_row(
            row,
            dtype,
            &mut payload_scratch,
            &mut bytes,
        ));
    }
    (bytes, bound)
}

fn decode_f32(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("4-byte scalar"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{EmbeddingCompressor, FullEmbedding, MemCom, MemComConfig};
    use memcom_ondevice::quant::{dequant_error_bound, quantize_row};
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
    fn materialized_store_matches_lookup_exactly() {
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
    fn memcom_store_is_smaller_than_materialized() {
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
    fn cache_hits_skip_store_reads() {
        let emb = memcom(64, 4, 8, false);
        let store = ShardedStore::build(&emb, 2, 32, 64).unwrap();
        store.get(5).unwrap();
        let after_first = store.work();
        store.get(5).unwrap();
        let after_second = store.work();
        assert_eq!(
            after_first.warm_bytes + after_first.cold_bytes,
            after_second.warm_bytes + after_second.cold_bytes,
            "second (cached) read must not touch the store"
        );
        let cache = store.cache_stats();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert!((store.cache_stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn batch_routing_and_validation() {
        let emb = memcom(40, 4, 8, false);
        let store = ShardedStore::build(&emb, 4, 8, 64).unwrap();
        // Shard 1 owns 1, 5, 9, ...
        let mut rows = vec![0f32; 4 * 4];
        let counted = store
            .lookup_batch_counted(1, &[1, 5, 9, 5], &mut rows)
            .unwrap();
        assert_eq!(
            rows[4..8],
            rows[12..16],
            "duplicate ids in a batch get equal rows"
        );
        assert_eq!(counted, (1, 3), "the call reports its own hits/misses");
        // The duplicate is served from the batch: one store read, counted
        // as a hit rather than a second miss.
        let cache = store.cache_stats();
        assert_eq!((cache.hits, cache.misses), (1, 3), "dedup within the batch");
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
        assert!(
            quant.memcom_scalar_bytes() * 3 < exact.memcom_scalar_bytes(),
            "{} vs {}",
            quant.memcom_scalar_bytes(),
            exact.memcom_scalar_bytes()
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
    fn delta_carries_cache_over_minus_changed_ids() {
        let emb = memcom(40, 4, 8, false);
        let store = ShardedStore::build(&emb, 2, 16, 64).unwrap();
        for id in 0..10 {
            store.get(id).unwrap(); // warm the caches
        }
        // Scale id 4's row by 3: representable exactly in the MemCom
        // layout (same shared row, tripled multiplier).
        let tripled: Vec<f32> = store.get(4).unwrap().iter().map(|x| x * 3.0).collect();
        let mut delta = StoreDelta::new(4);
        delta.upsert_row(4, &tripled).unwrap();
        let new = store.apply_delta(&delta).unwrap();
        // Unchanged warm id: served from the carried-over cache — no new
        // store bytes read.
        let before = new.work();
        let row6 = new.get(6).unwrap();
        let after = new.work();
        assert_eq!(
            before.cold_bytes + before.warm_bytes,
            after.cold_bytes + after.warm_bytes,
            "warm id 6 must hit the carried-over cache"
        );
        assert_eq!(row6, store.get(6).unwrap());
        assert_eq!(new.cache_stats().hits, 1);
        // The changed id was invalidated: it reads through and serves
        // the new value, not the stale cached row.
        let row4 = new.get(4).unwrap();
        for (a, b) in row4.iter().zip(&tripled) {
            assert!((a - b).abs() <= new.error_bound() + 1e-5, "{a} vs {b}");
        }
        assert_ne!(row4, store.get(4).unwrap(), "stale cache row evicted");
        assert_eq!(new.cache_stats().misses, 1);
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

    impl ShardedStore {
        /// Test helper: the decoded stored shared row `mod_hash(id, m)`
        /// of `id`'s shard (scaled layout only).
        fn get_shared_row_for_test(&self, id: usize, m: usize) -> Vec<f32> {
            let shard = &self.shards[self.shard_of(id)];
            match &shard.data {
                ShardData::Scaled { shared, .. } => {
                    let mut out = vec![0f32; self.dim];
                    decode_stored_row(shared.read_row(id % m).unwrap(), self.dtype, &mut out);
                    out
                }
                ShardData::Rows { .. } => panic!("not a memcom store"),
            }
        }
    }
}
