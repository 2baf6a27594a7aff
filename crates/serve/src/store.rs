//! The row store.
//!
//! Serves a trained embedding model by running the technique's own
//! [`Recipe`](memcom_core::Recipe) over its own tables, as the on-device
//! engine does and through the same type: a store is an [`EmbeddingTables`] — one paged
//! column per recipe table and the one read loop
//! ([`EmbeddingTables::lookup_into`]) that runs the executor training
//! runs ([`Recipe::row_into`](memcom_core::Recipe::row_into)), hence the
//! same bits — plus routing, a certified error bound and delta
//! snapshots. A served model costs what its tables cost, never
//! `vocab × dim`. The pages are the only copy of a row the store keeps:
//! a lookup touches the rows it needs and the footprint is the resident
//! pages (the paper's mmap model, §5.3), each counted once.
//!
//! A read of table `k` for `id` reads row `recipe.maps[k].row(id)` of
//! column `k` — `id` itself for an [`RowMap::Identity`] map. The
//! uncompressed baseline is thus [`Combine::Row`] over one identity-mapped
//! column, MEmCom is `[hashed shared table, identity multipliers, identity
//! biases?]`, naive hashing is one hashed `m × e` column.
//!
//! The shard count is a routing number only: it names which shard queue
//! a request joins ([`ShardedStore::shard_of`]) and decides nothing about
//! where a byte lives, so two stores of one model with different shard
//! counts hold, serve and count the same bytes.
//!
//! Any store can hold its rows below fp32
//! ([`ShardedStore::build_quantized`]): each integer-quantized row then
//! carries its own inline `f32` scale and a per-entity scalar table packs
//! into int8 blocks, and a read dequantizes **directly into the caller's
//! slab**. [`ShardedStore::error_bound`] certifies the worst-case absolute
//! error any served row can carry: each table's `(max |value|, max
//! dequantization error)` composed by [`Combine::error_bound`].
//!
//! ## Delta snapshots
//!
//! Because pages are `Arc`-shared, a store is **cheap to update
//! incrementally**: [`ShardedStore::apply_delta`] produces a new
//! snapshot that copy-on-writes only the pages a [`StoreDelta`]'s
//! upserts/removals touch — every untouched page is the same physical
//! allocation as the old snapshot's
//! ([`EmbeddingTables::shared_bytes_with`] proves it), and the certified
//! error bound is re-certified over the re-encoded rows. A
//! 0.1%-of-rows delta therefore costs ~0.1% of a rebuild in bytes
//! copied and wall time, which is what makes high-frequency online
//! refresh ([`crate::Router::apply_delta`]) affordable.
//!
//! A per-id write needs a per-id row to land in, so the recipes that take
//! deltas are the ones with an identity-mapped column to write:
//! [`Combine::Row`] over an identity map (uncompressed, reduced dim — the
//! row is re-encoded) and [`Combine::ScaleMul`] / [`Combine::ScaleAdd`] over
//! identity-mapped scalars (MEmCom — the row is projected onto its shared
//! row). Under every other recipe an id owns no row — its embedding is
//! shared with every id it collides with — so `apply_delta` refuses with
//! [`ServeError::BadConfig`] instead of un-compressing the store: rebuild
//! from the retrained model and [`crate::Router::swap`].

use memcom_core::hashing::RowMap;
use memcom_core::recipe::Combine;
use memcom_core::EmbeddingCompressor;
use memcom_ondevice::quant::Dtype;
use memcom_ondevice::tables::Written;
use memcom_ondevice::EmbeddingTables;

use crate::delta::{DeltaOp, StoreDelta};
use crate::{Result, ServeError};

/// Rows read, in the shape of the hot-row cache counters the store had
/// before its cache was deleted — a vestige kept because frozen
/// `crates/perf` compiles against it (ROADMAP item 1(f) removes it with its
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

/// A page-backed read-only row store built from any
/// [`EmbeddingCompressor`], routed over `n_shards` shard queues: the
/// compressor's [`EmbeddingTables`] (which the store derefs to) plus
/// routing, a certified error bound and delta snapshots.
pub struct ShardedStore {
    /// The recipe's tables and their one read loop.
    tables: EmbeddingTables,
    /// How many shard queues ids route over ([`shard_of`](Self::shard_of));
    /// it places no byte.
    n_shards: usize,
    /// Worst-case absolute error of any served row vs. the rows the
    /// store was asked to hold.
    error_bound: f32,
    /// Upper bound on `|x|` for any value table 0 decoded to when it was
    /// built. A delta that re-encodes scalars beside the table it never
    /// writes (MEmCom's shared table) needs it: it is the factor that
    /// turns a scalar's write error into served-row error.
    shared_max_abs: f32,
    method: &'static str,
}

impl ShardedStore {
    /// Builds an fp32 store routed over `n_shards` shards from a trained
    /// compressor, using the given page size. Served rows are bit-exact
    /// ([`error_bound`](Self::error_bound) is 0); for sub-fp32 row
    /// storage use [`build_quantized`](Self::build_quantized).
    ///
    /// `_cache_capacity` is ignored — the store has no cache. The
    /// positional parameter is a vestige kept because frozen
    /// `crates/perf` passes it (ROADMAP item 1(f) removes it with its
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
    /// is bounded by *that row's* half-step, not the worst row's; an
    /// identity-mapped scalar column (MEmCom's per-entity multipliers and
    /// biases) is packed as int8 blocks of 64 consecutive ids with a
    /// per-block `f32` scale (about 3.8× smaller than one `f32` per
    /// entity).
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
        let (vocab, dim) = (emb.vocab_size(), emb.output_dim());
        if vocab == 0 || dim == 0 {
            return Err(ServeError::BadConfig {
                context: format!("degenerate model: vocab {vocab}, dim {dim}"),
            });
        }
        // Per table, what the bound composes: (max |value|, max error).
        let (tables, parts) = EmbeddingTables::build(emb, dtype, page_size);
        Ok(ShardedStore {
            error_bound: tables.recipe().combine.error_bound(&parts),
            shared_max_abs: parts[0].0 + parts[0].1,
            tables,
            n_shards,
            method: emb.method_name(),
        })
    }

    /// Applies a [`StoreDelta`], returning a **new snapshot** that
    /// copy-on-writes only the pages the delta touches:
    ///
    /// * Untouched pages stay physically shared with `self` (`Arc`
    ///   clones, zero bytes copied) — a delta touching 0.1% of rows
    ///   copies on the order of 0.1% of the store
    ///   ([`EmbeddingTables::shared_bytes_with`] /
    ///   [`EmbeddingTables::cow_copied_bytes`] quantify it).
    /// * Under [`Combine::Row`] over an identity-mapped column, upserted
    ///   rows are re-encoded at the store's [`Dtype`] with their own inline
    ///   scale, and [`error_bound`](Self::error_bound) is re-certified
    ///   to cover them.
    /// * Under [`Combine::ScaleMul`] / [`Combine::ScaleAdd`] over
    ///   identity-mapped scalars, an upserted row is projected onto the
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
        if delta.dim() != self.dim() {
            return Err(ServeError::BadConfig {
                context: format!(
                    "delta carries dim-{} rows for a dim-{} store",
                    delta.dim(),
                    self.dim()
                ),
            });
        }
        let recipe = self.tables.recipe();
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
            if matches!(op, DeltaOp::Remove) {
                self.check_id(id)?;
            }
        }
        let mut tables = self.tables.shared_clone();
        if let Some(max_id) = delta.max_upsert_id() {
            tables.grow(max_id + 1);
        }
        let mut error_bound = self.error_bound;
        let zero_row = vec![0f32; self.dim()];
        let mut u_scratch = vec![0f32; self.dim()];
        let mut encode_scratch = [Vec::new(), Vec::new()];
        let bias = recipe.maps.len() == 3;
        for (id, op) in delta.ops() {
            if !scaled {
                let row = match op {
                    DeltaOp::Upsert(row) => row,
                    DeltaOp::Remove => &zero_row,
                };
                let write = tables.write(0, id, row, &mut encode_scratch)?;
                error_bound = (error_bound + write.neighbor_drift).max(write.err);
                continue;
            }
            let (v, w, residual) = match op {
                // Project the requested row onto the *stored* (possibly
                // quantized) shared row, so the fit — and its residual —
                // are against what lookups will actually reconstruct.
                DeltaOp::Upsert(row) => {
                    tables.read(0, recipe.maps[0].row(id), &mut u_scratch)?;
                    project_scalars(&u_scratch, row, bias)
                }
                // Code 0 decodes to exactly 0.0 at any block scale, so
                // tombstoning is exact (err 0) and never re-scales a block
                // (drift 0) — but the terms are folded like an upsert's,
                // so the bound stays certified even if the write path
                // changes.
                DeltaOp::Remove => (0.0, 0.0, 0.0),
            };
            let wv = tables.write(1, id, &[v], &mut encode_scratch)?;
            let wb = if bias {
                tables.write(2, id, &[w], &mut encode_scratch)?
            } else {
                Written::default()
            };
            // What scalar errors `ev`, `ew` do to a row served off the
            // stored shared row (`err(u) = 0`: the fit was against it).
            let served = |ev: f32, ew: f32| {
                let parts = [(self.shared_max_abs, 0.0), (0.0, ev), (0.0, ew)];
                recipe.combine.error_bound(&parts)
            };
            // Re-quantizing the scalars adds its own error, and re-scaling
            // a block may nudge neighbours: the drift term widens the
            // whole bound (every row may sit on a re-scaled block), while
            // the quant term only gates this row's residual.
            let drift = served(wv.neighbor_drift, wb.neighbor_drift);
            error_bound = (error_bound + drift).max(residual + served(wv.err, wb.err));
        }
        Ok(ShardedStore {
            tables,
            error_bound,
            ..*self
        })
    }

    /// Number of shards ids route over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Compression technique backing the store (e.g. `"memcom"`).
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// Certified worst-case absolute error of any served row relative to
    /// the rows the store was asked to hold (`0.0` for a freshly built
    /// [`Dtype::F32`] store; [`apply_delta`](Self::apply_delta)
    /// re-certifies it over re-encoded rows).
    pub fn error_bound(&self) -> f32 {
        self.error_bound
    }

    /// The shard whose queue `id` routes to.
    pub fn shard_of(&self, id: usize) -> usize {
        id % self.n_shards
    }

    /// Validates an id against the served vocabulary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] when out of range.
    pub fn check_id(&self, id: usize) -> Result<()> {
        let vocab = self.vocab();
        if id >= vocab {
            return Err(ServeError::IdOutOfVocab { id, vocab });
        }
        Ok(())
    }

    /// Looks up a single id from the pages.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] for ids past the vocabulary.
    pub fn get(&self, id: usize) -> Result<Vec<f32>> {
        let mut row = vec![0f32; self.dim()];
        self.lookup_into(std::slice::from_ref(&id), &mut Vec::new(), &mut row)?;
        Ok(row)
    }

    /// Reads the rows of `ids` into the flat slab `out` in request order:
    /// the tables' one read loop, [`EmbeddingTables::lookup_into`] (its
    /// docs give the slab layout and the `operand` buffer), with its
    /// out-of-vocabulary error typed for the serving tier.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] on any out-of-range id.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != ids.len() * dim()` — the slab is sized
    /// by the serving layer, so a mismatch is an internal bug, and
    /// panicking (rather than quietly truncating) lets the serve turn's
    /// panic recovery fail the whole batch loudly.
    pub fn lookup_into(
        &self,
        ids: &[usize],
        operand: &mut Vec<f32>,
        out: &mut [f32],
    ) -> Result<()> {
        ids.iter().try_for_each(|&id| self.check_id(id))?;
        Ok(self.tables.lookup_into(ids, operand, out)?)
    }

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

    /// Rows read since construction, as [`CacheStats::misses`] (`hits`
    /// is always 0) — exact under any number of concurrent readers. A
    /// vestige of the deleted hot-row cache, see [`CacheStats`].
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.tables.rows_read(),
        }
    }
}

/// A store reads, counts and shares its pages as the [`EmbeddingTables`]
/// it is: `vocab()`, `dim()`, `dtype()`, `stored_bytes()` (each page
/// counted once, whatever the shard count), `shared_bytes_with` and
/// `cow_copied_bytes`/`cow_touched_pages` (what [`apply_delta`]
/// copied), `work()` and `run_stats()` (Table 3's cost model over every
/// read since construction) are the tables'. Its own
/// [`lookup_into`](ShardedStore::lookup_into) types the tables' read
/// error for the serving tier.
///
/// [`apply_delta`]: ShardedStore::apply_delta
impl std::ops::Deref for ShardedStore {
    type Target = EmbeddingTables;

    fn deref(&self) -> &EmbeddingTables {
        &self.tables
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("method", &self.method)
            .field("vocab", &self.vocab())
            .field("dim", &self.dim())
            .field("dtype", &self.dtype())
            .field("n_shards", &self.n_shards)
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

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{
        CompressorState, EmbeddingCompressor, FullEmbedding, MemCom, MemComConfig, MethodSpec,
        ParamTable, QrCombiner, Recipe,
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
        // Shared table + scalars ≪ dense rows.
        assert!(compressed.stored_bytes() * 2 < dense.stored_bytes());
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
        // the shared table's 50 rows.
        let scalar_bytes =
            |store: &ShardedStore| store.stored_bytes() - 50 * store.dtype().stored_row_bytes(16);
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

    /// All 11 specs plus [`TripleHash`], at vocabulary `VOCAB`.
    fn every_technique(vocab: usize) -> Vec<Box<dyn EmbeddingCompressor>> {
        let mut rng = StdRng::seed_from_u64(29);
        let mut embs: Vec<Box<dyn EmbeddingCompressor>> = all_specs()
            .iter()
            .map(|spec| spec.build(vocab, 16, &mut rng).unwrap())
            .collect();
        embs.push(Box::new(TripleHash::new(vocab, 12, 10, &mut rng)));
        embs
    }

    #[test]
    fn every_technique_stores_what_its_tables_cost() {
        const VOCAB: usize = 120;
        let mut fp32_bytes = Vec::new();
        for emb in &every_technique(VOCAB) {
            let (name, recipe) = (emb.method_name(), emb.state().recipe());
            for dtype in [Dtype::F32, Dtype::Int8] {
                let store = ShardedStore::build_quantized(emb.as_ref(), 3, 8, 256, dtype).unwrap();
                // What the recipe implies, from the table shapes and maps
                // alone: every table is held once, a 1-wide identity-mapped
                // one as 64-id int8 blocks below fp32.
                let mut want = 0;
                for (k, table) in emb.tables().iter().enumerate() {
                    let dims = table.tensor.shape().dims();
                    let (rows, row_bytes) = (dims[0], dtype.stored_row_bytes(dims[1]));
                    let identity = recipe.maps.get(k) == Some(&RowMap::Identity);
                    want += if identity && dims[1] == 1 && dtype != Dtype::F32 {
                        rows.div_ceil(64) * 68
                    } else {
                        rows * row_bytes
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
        // serving time: 10 rows × 64 B, not 120 rows × 64 B.
        assert!(fp32_bytes.contains(&("naive_hash", 640)), "{fp32_bytes:?}");
        assert!(
            fp32_bytes.contains(&("uncompressed", 7_680)),
            "{fp32_bytes:?}"
        );
    }

    #[test]
    fn the_shard_count_is_not_part_of_the_model() {
        for emb in &every_technique(150) {
            for dtype in [Dtype::F32, Dtype::Int8] {
                let observe = |n_shards| {
                    let store =
                        ShardedStore::build_quantized(emb.as_ref(), n_shards, 0, 256, dtype)
                            .unwrap();
                    let fnv = served_fnv(&store); // the full scan the resident bytes follow
                    let resident = store.run_stats().resident_model_bytes;
                    let bound = store.error_bound().to_bits();
                    (store.stored_bytes(), resident, bound, fnv)
                };
                let one = observe(1);
                for n_shards in [2, 3, 7] {
                    let name = emb.method_name();
                    assert_eq!(observe(n_shards), one, "{name} {dtype:?} {n_shards} shards");
                }
            }
        }
    }

    /// FNV-1a over the bits of every served row, ids ascending.
    fn served_fnv(store: &ShardedStore) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for id in 0..store.vocab() {
            for x in store.get(id).unwrap() {
                // Every NaN hashes as one: which payload an arithmetic NaN
                // carries is the codegen's choice, not the store's.
                let bits = if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                };
                for byte in bits.to_le_bytes() {
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

    /// `trained_memcom(true)` holding NaN and ±inf: in the shared table
    /// (a row with all three, a row with +inf beside finite values) and
    /// in both scalar columns (an infinite and a NaN multiplier, an
    /// infinite bias), so every encoding's sanitize path is pinned.
    fn non_finite_memcom() -> MemCom {
        let mut emb = trained_memcom(true);
        let (mut shared, mut mult) = (emb.shared_table().clone(), emb.multiplier_table().clone());
        let mut offs = emb.tables()[2].tensor.clone();
        for (at, bad) in [
            (3 * 8, f32::NAN),
            (3 * 8 + 1, f32::INFINITY),
            (3 * 8 + 5, f32::NEG_INFINITY),
            (20 * 8 + 2, f32::INFINITY),
        ] {
            shared.as_mut_slice()[at] = bad;
        }
        mult.as_mut_slice()[40] = f32::INFINITY;
        mult.as_mut_slice()[130] = f32::NAN;
        offs.as_mut_slice()[200] = f32::NEG_INFINITY;
        emb.set_tables(shared, mult, Some(offs)).unwrap();
        emb
    }

    /// `(stored_bytes, full-scan resident_model_bytes, error_bound bits,
    /// FNV of all served row bits)`.
    type Pin = (usize, usize, u32, u64);

    /// `(model, dtype, as built, after the fixed three-op delta)`. The
    /// `uncompressed` rows and the fp32 MEmCom bits were recorded at
    /// cbf36a3, the last commit with the hand-written `Rows`/`Scaled`
    /// layouts; the MEmCom bytes and sub-fp32 bits were re-recorded once
    /// when the store stopped splitting columns per shard (each table held
    /// once, scalar blocks over 64 consecutive ids). The `Int2` rows and
    /// the `non_finite` model were recorded before the encoder's rounding
    /// rule, finite max and fp32 copy were rewritten, which they pin
    /// unchanged.
    #[rustfmt::skip]
    const PINS: [(&str, Dtype, Pin, Pin); 20] = [
        ("memcom", Dtype::F32, (2020, 2020, 0x0, 0xabd8755a4bee0f59), (2036, 2036, 0x4028ea12, 0x4f8e36e75845b119)),
        ("memcom", Dtype::F16, (836, 836, 0x3a201a76, 0x2611d5cde805ba0c), (836, 836, 0x4028ec99, 0x6597f5a2b632ad08)),
        ("memcom", Dtype::Int8, (712, 712, 0x3a80b6c0, 0xb097fc8ade3c7303), (712, 712, 0x4028ec7f, 0x3b0a0da4ca17ef98)),
        ("memcom", Dtype::Int4, (588, 588, 0x3c1ad1b4, 0xe4ae9df53558d158), (588, 588, 0x402a8f54, 0x5dca37cbd7522e74)),
        ("memcom", Dtype::Int2, (526, 526, 0x3d817822, 0xf21c9a6ee77a97e0), (526, 526, 0x402ab2a4, 0x7742f583cdec0655)),
        ("memcom_bias", Dtype::F32, (3048, 3048, 0x0, 0xb7b1d89d75c70f76), (3080, 3080, 0x3fd13609, 0x28fa3b087c0473b1)),
        ("memcom_bias", Dtype::F16, (1176, 1176, 0x3b198d9e, 0x5d7aa820fc2638b9), (1176, 1176, 0x3fd14c3b, 0x50be111f6d18bfd9)),
        ("memcom_bias", Dtype::Int8, (1052, 1052, 0x3b31e260, 0xd7e58ca3172cb9e), (1052, 1052, 0x3fd1366b, 0x2fb0a09fa86c9054)),
        ("memcom_bias", Dtype::Int4, (928, 928, 0x3c373374, 0x26f2168a4d667775), (928, 928, 0x3fd11d5c, 0x77dd86d440545a0)),
        ("memcom_bias", Dtype::Int2, (866, 866, 0x3d85045a, 0x2dfa2a92cb6cb242), (866, 866, 0x3fe014a4, 0x29fa04a66594a6af)),
        ("uncompressed", Dtype::F32, (2400, 2400, 0x0, 0x54b8bfe3ec7ee753), (2496, 2496, 0x0, 0x78bd0c90ab61fa15)),
        ("uncompressed", Dtype::F16, (1200, 1200, 0x384ce43f, 0xaccba8753f6ce5), (1248, 1248, 0x3ae00203, 0x709bca1361e2ef03)),
        ("uncompressed", Dtype::Int8, (1000, 1000, 0x394e4053, 0x72a37767373eca52), (1040, 1040, 0x3be1c387, 0x1b92d53b3de87773)),
        ("uncompressed", Dtype::Int4, (700, 700, 0x3b69dfcb, 0xce4c03f6bb77c543), (728, 728, 0x3e000000, 0x8a0bfa5ccc6d07c8)),
        ("uncompressed", Dtype::Int2, (600, 600, 0x3ccca3d2, 0x9cdc8eb5e61f1ccc), (624, 624, 0x3f600000, 0x132ff7bec93e0d16)),
        ("non_finite", Dtype::F32, (3048, 3048, 0x0, 0xcf1e357bf6f437dc), (3080, 3080, 0x3fd13609, 0x85533b588a083e83)),
        ("non_finite", Dtype::F16, (1176, 1176, 0x7f800000, 0x8d39555a2b18cdfc), (1176, 1176, 0x7f800000, 0x31de8b1028dea7fd)),
        ("non_finite", Dtype::Int8, (1052, 1052, 0x7f800000, 0x6a3b62785be220e6), (1052, 1052, 0x7f800000, 0x6d2ba55a602b0ebf)),
        ("non_finite", Dtype::Int4, (928, 928, 0x7f800000, 0xfcfea69d62694c1a), (928, 928, 0x7f800000, 0xc77dcb171d3b07d7)),
        ("non_finite", Dtype::Int2, (866, 866, 0x7f800000, 0x404b7668024cd526), (866, 866, 0x7f800000, 0x2b81081653c98842)),
    ];

    #[test]
    fn memcom_and_uncompressed_do_not_move_by_a_bit_or_a_byte() {
        let mut rng = StdRng::seed_from_u64(3);
        let full = FullEmbedding::new(100, 6, &mut rng).unwrap();
        let (with_bias, without) = (trained_memcom(true), trained_memcom(false));
        let non_finite = non_finite_memcom();
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
                "non_finite" => (&non_finite, 4, 16, 256),
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

    #[test]
    fn a_non_finite_weight_never_makes_the_bound_nan() {
        for bad in [f32::INFINITY, f32::NAN] {
            let mut emb = memcom(100, 8, 10, false);
            let mut shared = emb.shared_table().clone();
            shared.as_mut_slice()[3] = bad;
            let multiplier = emb.multiplier_table().clone();
            emb.set_tables(shared, multiplier, None).unwrap();
            for dtype in [Dtype::F32, Dtype::F16, Dtype::Int8] {
                let store = ShardedStore::build_quantized(&emb, 2, 0, 256, dtype).unwrap();
                let bound = store.error_bound();
                assert!(!bound.is_nan(), "{bad} weight at {dtype:?}: bound {bound}");
                if dtype == Dtype::F32 {
                    assert_eq!(bound, 0.0, "{bad} weight: an exact store certifies 0");
                }
                let mut delta = StoreDelta::new(8);
                delta.upsert_row(4, &[0.5; 8]).unwrap();
                let bound = store.apply_delta(&delta).unwrap().error_bound();
                assert!(!bound.is_nan(), "{bad} weight at {dtype:?} after a delta");
            }
        }
    }

    impl ShardedStore {
        /// Test helper: the decoded stored shared row `mod_hash(id, m)`
        /// (column 0 of a MEmCom store).
        fn get_shared_row_for_test(&self, id: usize, m: usize) -> Vec<f32> {
            let mut out = vec![0f32; self.dim()];
            self.tables.read(0, id % m, &mut out).unwrap();
            out
        }
    }
}
