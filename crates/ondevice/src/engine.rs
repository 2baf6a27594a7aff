//! The on-device inference engines.
//!
//! [`InferenceSession`] executes a parsed [`OnDeviceModel`] over lazily
//! paged tables, counting the work that the compute-unit models convert
//! into Table-3 milliseconds and megabytes. The embedding front end is
//! the model file's embedding tables loaded into an [`EmbeddingTables`] —
//! the type `memcom-serve`'s store reads too — and read through its one
//! loop ([`EmbeddingTables::lookup_into`]), which runs the file's
//! [`Recipe`](memcom_core::Recipe) with the one executor
//! ([`Recipe::row_into`](memcom_core::Recipe::row_into)): the engine knows
//! no technique by name, so whatever `memcom-core` can describe runs here
//! with the bits it trained with, reading only the rows the query touches
//! (`O(L)` row faults). The one thing modelled apart is the *cost* of
//! [`Combine::OneHotMatmul`] (Weinberger): the delegate materializes the
//! `L × m` one-hot activation and multiplies it against the entire
//! kernel, so the whole table faults in and `L·m·e` MACs are charged —
//! the numerical result is the same row; what differs, and what §5.3
//! measures, is the cost profile. The head ops run over the session's
//! own paged head tables.

use std::sync::atomic::{AtomicBool, Ordering};

use memcom_core::recipe::Combine;

use crate::compute::{ComputeUnit, WorkCounts};
use crate::format::{HeadOp, OnDeviceModel, TableMeta};
use crate::pages::{PagedTable, DEFAULT_PAGE_SIZE};
use crate::quant::{decode_row_into, Dtype};
use crate::tables::EmbeddingTables;
use crate::{simd, OnDeviceError, Result};

/// Output columns a dense layer hands the tile kernel
/// ([`simd::dense_tile`]) at a time. The kernel keeps each block of
/// accumulators in registers across the whole tile, so the chunk does
/// not bound accumulator traffic; it bounds the quantized path's
/// decoded tile (`DENSE_TILE_ROWS` × 8 KB, reused from L2 as the kernel
/// reads it), and it is the step of the alternating column sweep (see
/// [`InferenceSession`]'s `backward_sweep`). fp32 rows are read in
/// place, chunk by chunk. A multiple of four, so a chunk of an
/// int4/int2 row starts on a byte boundary.
const DENSE_CHUNK_COLS: usize = 2048;

/// Kernel rows one tile-kernel call adds (a stack array of page
/// slices; wider layers go tile by tile, in row order). Each tile loads
/// and stores every accumulator once, so a 32-wide input makes one
/// pass over the output.
const DENSE_TILE_ROWS: usize = 32;

/// Work and memory observed during one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Counted work (flops, cold/warm bytes, activations).
    pub work: WorkCounts,
    /// Bytes of model table pages resident after the run.
    pub resident_model_bytes: usize,
}

impl RunStats {
    /// Simulated inference time on `unit`, in milliseconds.
    pub fn time_ms(&self, unit: ComputeUnit) -> f64 {
        unit.profile().time_ms(&self.work)
    }

    /// Simulated runtime memory footprint on `unit`, in bytes.
    pub fn footprint_bytes(&self, unit: ComputeUnit) -> usize {
        unit.profile()
            .footprint_bytes(self.resident_model_bytes, &self.work)
    }

    /// Footprint in megabytes (Table 3's unit).
    pub fn footprint_mb(&self, unit: ComputeUnit) -> f64 {
        self.footprint_bytes(unit) as f64 / 1_048_576.0
    }
}

/// Reusable buffers for the head-op executor
/// ([`InferenceSession::forward_head`]).
///
/// A scratch owns every intermediate the head needs — the ping/pong
/// activation pair, one decoded chunk of a dense layer's bias and of
/// each kernel row of a tile (the latter for quantized models only;
/// fp32 kernels are read in place), and the four batch-norm parameter
/// rows — so a warmed
/// scratch executes the whole head without allocating. `memcom-serve`'s
/// scoring backends keep one per shard to extend the
/// O(1)-allocations-per-call certification to the forward pass.
#[derive(Debug, Default)]
pub struct HeadScratch {
    /// Current activation (the executor's "ping" buffer).
    act: Vec<f32>,
    /// Next activation (the "pong" buffer ops write into before a swap).
    next: Vec<f32>,
    /// One decoded [`DENSE_CHUNK_COLS`] chunk of a dense layer's bias.
    bias: Vec<f32>,
    /// One dequantized [`DENSE_CHUNK_COLS`] chunk of each kernel row of
    /// a tile ([`DENSE_TILE_ROWS`] slots).
    tile: Vec<f32>,
    /// Batch-norm gamma/beta/mean/var rows.
    bn: [Vec<f32>; 4],
}

impl HeadScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and sizes the input activation to `rows * cols` zeros,
    /// returning the slice for the caller to fill with the `[rows, cols]`
    /// embedding activation before calling
    /// [`InferenceSession::forward_head`].
    pub fn input(&mut self, rows: usize, cols: usize) -> &mut [f32] {
        self.act.clear();
        self.act.resize(rows * cols, 0.0);
        &mut self.act
    }
}

/// A loaded model ready for repeated inference over simulated mmap.
///
/// The file's tables are copied once, at load, into pages: the head's
/// into one [`PagedTable`] each, the embedding's into an
/// [`EmbeddingTables`] — the lazily-resident pages and the read loop
/// `memcom-serve`'s stores sit on. Pages are row-aligned per table, so
/// the file header and the table headers are not part of any page and
/// never count as resident.
///
/// `run` takes `&self` and page reads are lock-free, so one session can
/// serve concurrent inferences from many worker threads. Results are
/// always correct under concurrency; per-run byte *attribution* in
/// [`RunStats`] is exact only for non-overlapping runs — overlapping runs
/// may observe each other's page faults in their cold/warm deltas, and a
/// concurrent `reset` clamps the deltas to zero rather than corrupting
/// them.
#[derive(Debug)]
pub struct InferenceSession {
    meta: OnDeviceModel,
    tables: Tables,
    /// Whether the next `forward_head` sweeps each dense layer's output
    /// chunks from the last back to the first. Consecutive calls sweep
    /// in opposite directions, so a call starts on the kernel columns
    /// the previous call read last, which are still in cache: Table 3's
    /// 2 MB fp32 output kernel about fills a core's L2, and a sweep in
    /// one fixed direction evicts each line just before the next call
    /// reads it. Outputs are independent and each still takes its terms
    /// in the same order, so the direction changes no bit and no count;
    /// concurrent calls may share a direction.
    backward_sweep: AtomicBool,
}

/// Every table of a loaded model file.
#[derive(Debug)]
struct Tables {
    /// One paged table per head table, at its [`TableMeta::index`].
    head: Vec<PagedTable>,
    /// The embedding tables, in recipe order.
    embedding: EmbeddingTables,
}

impl Tables {
    /// Every page table: the head's, then the embedding's.
    fn iter(&self) -> impl Iterator<Item = &PagedTable> {
        self.head.iter().chain(self.embedding.pages())
    }
}

impl InferenceSession {
    /// Loads a parsed model into a session with the default page size.
    pub fn new(model: OnDeviceModel) -> Self {
        Self::with_page_size(model, DEFAULT_PAGE_SIZE)
    }

    /// Loads with a custom page size (ablation: footprint sensitivity).
    ///
    /// # Panics
    ///
    /// Panics when `page_size == 0`, or when `model` did not come from
    /// [`OnDeviceModel::parse`] and its table metadata misdescribes it.
    pub fn with_page_size(mut model: OnDeviceModel, page_size: usize) -> Self {
        let bytes = std::mem::take(&mut model.bytes);
        let mut head = Vec::new();
        for op in &model.head_ops {
            let metas = match op {
                HeadOp::AveragePool | HeadOp::Relu => vec![],
                HeadOp::BatchNorm { tables, .. } => tables.iter().collect(),
                HeadOp::Dense { weight, bias, .. } => vec![weight, bias],
            };
            for t in metas {
                assert_eq!(t.index, head.len(), "tables are numbered in file order");
                let payload = &bytes[t.payload_offset..t.payload_offset + t.payload_len];
                let pages = PagedTable::from_rows(payload, t.dtype.row_bytes(t.cols), page_size);
                head.push(pages);
            }
        }
        let embedding = EmbeddingTables::from_file(&model, &bytes, page_size);
        InferenceSession {
            meta: model,
            tables: Tables { head, embedding },
            backward_sweep: AtomicBool::new(false),
        }
    }

    /// The parsed manifest.
    pub fn model(&self) -> &OnDeviceModel {
        &self.meta
    }

    /// Page faults since load (or the last [`reset`](Self::reset)),
    /// over every table.
    pub fn faults(&self) -> u64 {
        self.tables.iter().map(PagedTable::faults).sum()
    }

    /// Evicts all pages (cold-start state).
    pub fn reset(&self) {
        self.tables.iter().for_each(PagedTable::reset);
    }

    /// `(cold, total)` bytes read so far, over every table.
    fn read_bytes(&self) -> (u64, u64) {
        self.tables.iter().fold((0, 0), |(cold, total), t| {
            (cold + t.cold_read_bytes(), total + t.total_read_bytes())
        })
    }

    /// Runs one batch-1 inference over `ids` (must be `input_len` long).
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::BadInput`] on length/vocabulary mismatch
    /// and propagates mapping errors.
    pub fn run(&self, ids: &[usize]) -> Result<(Vec<f32>, RunStats)> {
        if ids.len() != self.meta.input_len {
            return Err(OnDeviceError::BadInput {
                context: format!("expected {} ids, got {}", self.meta.input_len, ids.len()),
            });
        }
        if let Some(&bad) = ids.iter().find(|&&i| i >= self.meta.vocab) {
            return Err(OnDeviceError::BadInput {
                context: format!("id {bad} out of vocabulary {}", self.meta.vocab),
            });
        }
        let (cold_before, total_before) = self.read_bytes();
        let mut work = WorkCounts::default();

        // Embedding front end → [L, e] activation, then the shared head
        // executor (the exact arithmetic `forward_head` documents).
        let l = self.meta.input_len;
        let e = self.meta.emb_dim;
        let mut scratch = HeadScratch::new();
        self.embed_into(ids, scratch.input(l, e), &mut work)?;
        let mut logits = Vec::new();
        self.forward_head(l, &mut scratch, &mut logits, &mut work)?;

        // Saturating: a concurrent `reset` can rewind the shared counters
        // below the snapshot taken at the top of this run; clamping to 0
        // keeps the stats sane instead of wrapping.
        let (cold, total) = self.read_bytes();
        work.cold_bytes = cold.saturating_sub(cold_before);
        work.warm_bytes = total
            .saturating_sub(total_before)
            .saturating_sub(work.cold_bytes);
        let stats = RunStats {
            work,
            resident_model_bytes: self.tables.iter().map(PagedTable::resident_bytes).sum(),
        };
        Ok((logits, stats))
    }

    /// Output length of the head — the `K` in "N ids in, K scores out"
    /// (the last dense layer's width, or `emb_dim` for a head with no
    /// dense layer).
    pub fn head_out_len(&self) -> usize {
        self.meta
            .head_ops
            .iter()
            .rev()
            .find_map(|op| match op {
                HeadOp::Dense { out_dim, .. } => Some(*out_dim),
                _ => None,
            })
            .unwrap_or(self.meta.emb_dim)
    }

    /// Executes the head ops over the `[rows, emb_dim]` activation the
    /// caller placed in `scratch` (via [`HeadScratch::input`]), writing
    /// the final activation into `out`.
    ///
    /// This is the one head executor in the crate: [`run`](Self::run)
    /// calls it after the embedding front end, and `memcom-serve`'s
    /// scoring backends call it after gathering embedding rows from a
    /// `ShardedStore` — both paths therefore produce bit-identical
    /// results for the same input activation. `out` receives the final
    /// activation's buffer and gives its own to the scratch, so once the
    /// rotating buffers have grown a call allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::BadInput`] when the scratch activation is
    /// not `rows * emb_dim` long (or `rows == 0`),
    /// [`OnDeviceError::BadFormat`] when an op's dimensions do not match
    /// the running activation, and propagates mapping errors from
    /// parameter-table reads.
    // memcom-lint: hot-path
    pub fn forward_head(
        &self,
        rows: usize,
        scratch: &mut HeadScratch,
        out: &mut Vec<f32>,
        work: &mut WorkCounts,
    ) -> Result<()> {
        let e = self.meta.emb_dim;
        if rows == 0 || scratch.act.len() != rows * e {
            return Err(OnDeviceError::BadInput {
                context: format!(
                    "head input must be rows({rows}) x emb_dim({e}), got {} values",
                    scratch.act.len()
                ),
            });
        }
        let mut act_dims = (rows, e);
        track_activation(work, scratch.act.len());
        // ORDERING: a cache hint that publishes no data; any order is
        // correct.
        let backward = self.backward_sweep.fetch_xor(true, Ordering::Relaxed);

        for op in &self.meta.head_ops {
            let act = &mut scratch.act;
            match op {
                HeadOp::AveragePool => {
                    let (rows, cols) = act_dims;
                    let pooled = &mut scratch.next;
                    pooled.clear();
                    pooled.resize(cols, 0.0);
                    for r in 0..rows {
                        for c in 0..cols {
                            pooled[c] += act[r * cols + c];
                        }
                    }
                    let inv = 1.0 / rows as f32;
                    for p in pooled.iter_mut() {
                        *p *= inv;
                    }
                    work.flops += (rows * cols + cols) as u64;
                    std::mem::swap(&mut scratch.act, &mut scratch.next);
                    act_dims = (1, cols);
                    track_activation(work, scratch.act.len());
                }
                HeadOp::Relu => {
                    for x in act.iter_mut() {
                        *x = x.max(0.0);
                    }
                    work.flops += act.len() as u64;
                }
                HeadOp::BatchNorm { dim, tables, eps } => {
                    if act.len() != *dim {
                        return Err(OnDeviceError::BadFormat {
                            context: format!("batch norm dim {dim} vs activation {}", act.len()),
                        });
                    }
                    for (buf, table) in scratch.bn.iter_mut().zip(tables.iter()) {
                        buf.clear();
                        buf.resize(table.cols, 0.0);
                        self.read_row_into(table, 0, buf)?;
                    }
                    let [gamma, beta, mean, var] = &scratch.bn;
                    // Training's eval order: `((x−μ)·(1/√(σ²+ε)))·γ+β`.
                    for i in 0..*dim {
                        let inv_std = 1.0 / (var[i] + eps).sqrt();
                        act[i] = (act[i] - mean[i]) * inv_std * gamma[i] + beta[i];
                    }
                    work.flops += 5 * *dim as u64;
                }
                HeadOp::Dense {
                    in_dim,
                    out_dim,
                    weight,
                    bias,
                } => {
                    if act.len() != *in_dim {
                        return Err(OnDeviceError::BadFormat {
                            context: format!("dense in {in_dim} vs activation {}", act.len()),
                        });
                    }
                    let bias_pages = &self.tables.head[bias.index];
                    let bias_row = bias_pages.read_row(0)?;
                    bias_pages.charge(1);
                    debug_assert_eq!(bias.cols, *out_dim);
                    let bias_chunk = &mut scratch.bias;
                    bias_chunk.resize(DENSE_CHUNK_COLS, 0.0);
                    let acc = &mut scratch.next;
                    acc.clear();
                    acc.resize(*out_dim, 0.0);
                    let dtype = weight.dtype;
                    let decoded = &mut scratch.tile;
                    if dtype != Dtype::F32 {
                        decoded.resize(DENSE_TILE_ROWS * DENSE_CHUNK_COLS, 0.0);
                    }
                    // Each kernel row is read from its page exactly once
                    // (one fault/byte charge, as a whole-row read, the
                    // bytes charged once per tile), and each `acc[c]`
                    // takes `x[i]·w[i][c]` in ascending `i` from 0, then
                    // the bias as the last tile stores — training's
                    // products-then-bias order and zero-input skip, bit
                    // for bit, from one pass over the kernel (training's
                    // matmul runs the same `dense_tile`).
                    let kernel = &self.tables.head[weight.index];
                    // At least one tile, so a zero-width input still
                    // takes its bias.
                    let tiles = in_dim.div_ceil(DENSE_TILE_ROWS).max(1);
                    for tile in 0..tiles {
                        let first = tile * DENSE_TILE_ROWS;
                        let xs = &act[first..(first + DENSE_TILE_ROWS).min(*in_dim)];
                        let mut rows = [&[][..]; DENSE_TILE_ROWS];
                        for (k, row) in rows[..xs.len()].iter_mut().enumerate() {
                            *row = kernel.read_row(first + k)?;
                        }
                        kernel.charge(xs.len());
                        let rows = &rows[..xs.len()];
                        // This call's sweep direction (`backward_sweep`).
                        let chunks = out_dim.div_ceil(DENSE_CHUNK_COLS);
                        for k in 0..chunks {
                            let c = if backward { chunks - 1 - k } else { k };
                            let col = c * DENSE_CHUNK_COLS;
                            let acc = &mut acc[col..(col + DENSE_CHUNK_COLS).min(*out_dim)];
                            let bias = if tile + 1 == tiles {
                                let b = &mut bias_chunk[..acc.len()];
                                let stored = bias.dtype.row_bytes(col)..;
                                decode_row_into(&bias_row[stored], bias.dtype, bias.scale, b);
                                Some(&*b)
                            } else {
                                None
                            };
                            let bytes = dtype.row_bytes(col)..dtype.row_bytes(col + acc.len());
                            if dtype == Dtype::F32 {
                                let mut stored = [&[][..]; DENSE_TILE_ROWS];
                                for (s, row) in stored.iter_mut().zip(rows) {
                                    *s = &row[bytes.clone()];
                                }
                                simd::dense_tile(xs, &stored[..xs.len()], bias, acc);
                            } else {
                                let mut w = [&[][..]; DENSE_TILE_ROWS];
                                let slots = decoded.chunks_exact_mut(DENSE_CHUNK_COLS);
                                for ((w, row), slot) in w.iter_mut().zip(rows).zip(slots) {
                                    let slot = &mut slot[..acc.len()];
                                    decode_row_into(&row[bytes.clone()], dtype, weight.scale, slot);
                                    *w = slot;
                                }
                                simd::dense_tile(xs, &w[..xs.len()], bias, acc);
                            }
                        }
                    }
                    work.flops += (2 * in_dim * out_dim) as u64;
                    std::mem::swap(&mut scratch.act, &mut scratch.next);
                    act_dims = (1, *out_dim);
                    track_activation(work, scratch.act.len());
                }
            }
        }
        let _ = act_dims;
        // `out`'s old buffer becomes the scratch's next input activation:
        // the buffers rotate, so a steady caller stays allocation-free.
        std::mem::swap(out, &mut scratch.act);
        Ok(())
    }
    // memcom-lint: end-hot-path

    /// Runs the embedding front end, filling the caller's `[L, e]`
    /// activation slice (`act.len() == ids.len() * emb_dim`).
    fn embed_into(&self, ids: &[usize], act: &mut [f32], work: &mut WorkCounts) -> Result<()> {
        let embedding = &self.tables.embedding;
        let recipe = embedding.recipe();
        if recipe.combine != Combine::OneHotMatmul {
            embedding.lookup_into(ids, &mut Vec::new(), act)?;
            work.flops += ids.len() as u64 * embedding.row_flops();
            return Ok(());
        }
        // The §5.3 cost of the dense `[L, m] × [m, e]` product: the
        // `L × m` one-hot activation is live, every kernel row is read
        // (once, into the dense operand the executor then reads from),
        // and each id pays for all `m` rows.
        let (e, m) = (self.meta.emb_dim, self.meta.emb_tables[0].rows);
        track_activation(work, ids.len() * m);
        let mut dense = vec![0f32; m * e];
        for (r, row) in dense.chunks_exact_mut(e).enumerate() {
            embedding.read(0, r, row)?;
        }
        let read = |_: usize, r: usize, out: &mut [f32]| -> Result<()> {
            out.copy_from_slice(&dense[r * e..][..e]);
            Ok(())
        };
        let mut operand = Vec::new();
        for (&id, slot) in ids.iter().zip(act.chunks_exact_mut(e)) {
            recipe.row_into(id, read, &mut operand, slot)?;
        }
        work.flops += (ids.len() * recipe.combine.flops(e) * m) as u64;
        Ok(())
    }

    /// Reads and dequantizes row `r` of `table` through its pages,
    /// straight into `out` (`table.cols` values) — no intermediate
    /// allocation. Row indices past the end are
    /// [`OnDeviceError::OutOfBounds`].
    ///
    /// # Panics
    ///
    /// Panics when `table` is not one of this session's head tables
    /// (the embedding tables are read through its [`EmbeddingTables`])
    /// or `out` is longer than `table.cols`.
    pub fn read_row_into(&self, table: &TableMeta, r: usize, out: &mut [f32]) -> Result<()> {
        let pages = &self.tables.head[table.index];
        decode_row_into(pages.read_row(r)?, table.dtype, table.scale, out);
        pages.charge(1);
        Ok(())
    }
}

fn track_activation(work: &mut WorkCounts, elems: usize) {
    // Peak activation model: the largest single buffer alive (sequential
    // executors free the previous op's input once consumed).
    work.activation_bytes = work.activation_bytes.max((elems * 4) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::OnDeviceModel;
    use crate::quant::Dtype;
    use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec, OneHotHashEncoder};
    use memcom_nn::{AveragePool1d, BatchNorm1d, Dense, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn head(e: usize, classes: usize) -> Sequential {
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = Sequential::new();
        h.push(AveragePool1d::new());
        h.push(Relu::new());
        h.push(BatchNorm1d::new(e));
        h.push(Dense::new(e, classes, &mut rng));
        h
    }

    fn session_for(
        emb: &dyn EmbeddingCompressor,
        input_len: usize,
        classes: usize,
    ) -> InferenceSession {
        let bytes =
            OnDeviceModel::serialize(emb, &head(emb.output_dim(), classes), input_len, Dtype::F32)
                .unwrap();
        InferenceSession::new(OnDeviceModel::parse(bytes).unwrap())
    }

    /// Reference: run the same embedding + head in the training stack.
    fn reference_logits(
        emb: &mut dyn EmbeddingCompressor,
        input_len: usize,
        classes: usize,
        ids: &[usize],
    ) -> Vec<f32> {
        use memcom_nn::{Layer, Mode};
        let mut h = head(emb.output_dim(), classes);
        let flat = emb.lookup(ids).unwrap();
        let seq = flat.reshape(&[1, input_len, emb.output_dim()]).unwrap();
        h.forward(&seq, Mode::Eval).unwrap().into_vec()
    }

    #[test]
    fn memcom_session_matches_training_stack() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut emb = MemCom::new(MemComConfig::with_bias(200, 8, 20), &mut rng).unwrap();
        let ids: Vec<usize> = (0..6).map(|i| i * 31 % 200).collect();
        let want = reference_logits(&mut emb, 6, 4, &ids);
        let session = session_for(&emb, 6, 4);
        let (got, stats) = session.run(&ids).unwrap();
        assert_eq!(got.len(), 4);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(stats.work.flops > 0);
        assert!(stats.resident_model_bytes > 0);
    }

    #[test]
    fn onehot_session_matches_training_stack() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut emb = OneHotHashEncoder::new(200, 8, 16, &mut rng).unwrap();
        let ids: Vec<usize> = (0..6).map(|i| i * 17 % 200).collect();
        let want = reference_logits(&mut emb, 6, 4, &ids);
        let session = session_for(&emb, 6, 4);
        let (got, _) = session.run(&ids).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn lookup_touches_less_than_onehot() {
        // Same vocab/e/m: MEmCom's resident bytes ≪ Weinberger's.
        let mut rng = StdRng::seed_from_u64(2);
        let vocab = 5_000;
        let m = 1_000;
        let e = 32;
        let memcom = MemCom::new(MemComConfig::new(vocab, e, m), &mut rng).unwrap();
        let onehot = OneHotHashEncoder::new(vocab, e, m, &mut rng).unwrap();
        let ids: Vec<usize> = (0..16).map(|i| i * 13 % vocab).collect();

        let s_memcom = session_for(&memcom, 16, 4);
        let (_, stats_memcom) = s_memcom.run(&ids).unwrap();
        let s_onehot = session_for(&onehot, 16, 4);
        let (_, stats_onehot) = s_onehot.run(&ids).unwrap();

        // The one-hot engine reads the entire kernel (m·e·4 ≈ 128 KB);
        // MEmCom touches only queried rows.
        assert!(
            stats_onehot.resident_model_bytes > stats_memcom.resident_model_bytes,
            "onehot {} vs memcom {}",
            stats_onehot.resident_model_bytes,
            stats_memcom.resident_model_bytes
        );
        // And its activations dwarf the lookup path (L·m one-hot).
        assert!(stats_onehot.work.activation_bytes >= (16 * m * 4) as u64);
        assert!(stats_onehot.work.activation_bytes > 8 * stats_memcom.work.activation_bytes);
        // Dense matmul flops dominate.
        assert!(stats_onehot.work.flops > 50 * stats_memcom.work.flops);
        // Which shows up as simulated time on every unit.
        for unit in ComputeUnit::all() {
            assert!(
                stats_onehot.time_ms(unit) > stats_memcom.time_ms(unit),
                "{unit:?}"
            );
        }
    }

    #[test]
    fn warm_runs_have_no_cold_bytes() {
        let mut rng = StdRng::seed_from_u64(3);
        let emb = MemCom::new(MemComConfig::new(100, 8, 10), &mut rng).unwrap();
        let session = session_for(&emb, 4, 3);
        let ids = [1usize, 2, 3, 4];
        let (_, first) = session.run(&ids).unwrap();
        assert!(first.work.cold_bytes > 0);
        let (_, second) = session.run(&ids).unwrap();
        assert_eq!(second.work.cold_bytes, 0, "second run must be fully warm");
        assert!(second.work.warm_bytes > 0);
        assert!(second.time_ms(ComputeUnit::CoreMlAll) < first.time_ms(ComputeUnit::CoreMlAll));
        session.reset();
        let (_, third) = session.run(&ids).unwrap();
        assert!(third.work.cold_bytes > 0, "reset must re-cool the pages");
    }

    #[test]
    fn each_touched_row_is_charged_exactly_once() {
        // 40 kernel rows: two tiles of the dense loop.
        let (e, classes) = (DENSE_TILE_ROWS + 8, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let emb = MemCom::new(MemComConfig::with_bias(300, e, 30), &mut rng).unwrap();
        let session = session_for(&emb, 4, classes);
        let ids = [7usize, 70, 170, 299];
        let (_, first) = session.run(&ids).unwrap();
        let faults = session.faults();
        assert!(first.work.cold_bytes > 0 && faults > 0);

        // Warm: every id reads one row of each embedding table, every
        // head table is read once — each kernel row once, whatever the
        // order the dense loop visits its columns in.
        let row = |t: &TableMeta| t.dtype.row_bytes(t.cols) as u64;
        let meta = session.model();
        let per_id: u64 = meta.emb_tables.iter().map(row).sum();
        let mut want = ids.len() as u64 * per_id;
        for op in &meta.head_ops {
            want += match op {
                HeadOp::AveragePool | HeadOp::Relu => 0,
                HeadOp::BatchNorm { tables, .. } => tables.iter().map(row).sum(),
                HeadOp::Dense {
                    in_dim,
                    weight,
                    bias,
                    ..
                } => *in_dim as u64 * row(weight) + row(bias),
            };
        }
        let (_, warm) = session.run(&ids).unwrap();
        assert_eq!((warm.work.cold_bytes, warm.work.warm_bytes), (0, want));
        assert_eq!(session.faults(), faults, "a warm run faults nothing");

        session.reset();
        let (_, again) = session.run(&ids).unwrap();
        assert_eq!(again.work.cold_bytes, first.work.cold_bytes);
        assert_eq!(again.resident_model_bytes, first.resident_model_bytes);
        assert_eq!(session.faults(), faults);
    }

    #[test]
    fn dense_is_bit_identical_to_the_row_at_a_time_loop() {
        let dtypes = [
            Dtype::F32,
            Dtype::F16,
            Dtype::Int8,
            Dtype::Int4,
            Dtype::Int2,
        ];
        let chunk = DENSE_CHUNK_COLS;
        let out_dims = [1, 7, 8, chunk - 1, chunk, chunk + 1, 2 * chunk + 5];
        for in_dim in [1, 3, 17, DENSE_TILE_ROWS + 1] {
            let mut rng = StdRng::seed_from_u64(in_dim as u64);
            let emb = MemCom::new(MemComConfig::new(20, in_dim, 4), &mut rng).unwrap();
            let x: Vec<f32> = (0..in_dim).map(|i| (i as f32 * 1.7 + 0.3).sin()).collect();
            for (out_dim, dtype) in out_dims.iter().flat_map(|&o| dtypes.map(|d| (o, d))) {
                // A non-zero bias, so bias-first and products-then-bias
                // orders round apart.
                let mut layer = Dense::new(in_dim, out_dim, &mut rng);
                let bias: Vec<f32> = (0..out_dim)
                    .map(|c| (c as f32 * 0.37 - 1.1).cos())
                    .collect();
                let bias = memcom_tensor::Tensor::from_vec(bias, &[out_dim]).unwrap();
                layer.set_weights(layer.weight().clone(), bias).unwrap();
                let mut dense = Sequential::new();
                dense.push(layer);
                let bytes = OnDeviceModel::serialize(&emb, &dense, 1, dtype).unwrap();
                let session = InferenceSession::new(OnDeviceModel::parse(bytes).unwrap());
                let HeadOp::Dense { weight, bias, .. } = &session.model().head_ops[0] else {
                    panic!("the head is one dense layer");
                };

                // The row-at-a-time loop in training's order: copy out
                // each whole row, a scalar multiply-add over the copy
                // from zero, then the bias.
                let mut want = vec![0f32; out_dim];
                let mut w_row = vec![0f32; out_dim];
                for (i, &xi) in x.iter().enumerate() {
                    session.read_row_into(weight, i, &mut w_row).unwrap();
                    for (o, &w) in want.iter_mut().zip(&w_row) {
                        *o += xi * w;
                    }
                }
                let mut b_row = vec![0f32; out_dim];
                session.read_row_into(bias, 0, &mut b_row).unwrap();
                for (o, &b) in want.iter_mut().zip(&b_row) {
                    *o += b;
                }

                // Twice: consecutive calls sweep the columns in
                // opposite directions.
                let mut scratch = HeadScratch::new();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for sweep in ["forward", "backward"] {
                    scratch.input(1, in_dim).copy_from_slice(&x);
                    let mut got = Vec::new();
                    session
                        .forward_head(1, &mut scratch, &mut got, &mut WorkCounts::default())
                        .unwrap();
                    let what = format!("{dtype:?} {in_dim}x{out_dim} {sweep}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_zero_input_facing_a_non_finite_weight_adds_nothing() {
        // Training's rule: a zero input adds nothing to a dense layer, so
        // the ±inf and NaN weights of its kernel row (in both tiles) leave
        // the logits finite, where adding `0·inf` would make them NaN.
        use memcom_nn::{Layer, Mode};
        let (in_dim, out_dim) = (DENSE_TILE_ROWS + 3, 9);
        let mut rng = StdRng::seed_from_u64(46);
        let emb = MemCom::new(MemComConfig::new(20, in_dim, 4), &mut rng).unwrap();
        let mut layer = Dense::new(in_dim, out_dim, &mut rng);
        let zeros = [2, DENSE_TILE_ROWS + 1];
        let mut weight = layer.weight().clone();
        for (r, c) in zeros
            .iter()
            .flat_map(|&r| (0..out_dim).map(move |c| (r, c)))
        {
            let w = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][c % 3];
            weight.set(&[r, c], w).unwrap();
        }
        layer.set_weights(weight, layer.bias().clone()).unwrap();
        let x: Vec<f32> = (0..in_dim)
            .map(|i| match zeros.contains(&i) {
                true => 0.0,
                false => (i as f32 * 1.3 + 0.2).sin(),
            })
            .collect();
        let input = memcom_tensor::Tensor::from_vec(x.clone(), &[1, in_dim]).unwrap();
        let want = layer.forward(&input, Mode::Eval).unwrap().into_vec();
        assert!(want.iter().all(|v| v.is_finite()), "training: {want:?}");

        let mut dense = Sequential::new();
        dense.push(layer);
        let bytes = OnDeviceModel::serialize(&emb, &dense, 1, Dtype::F32).unwrap();
        let session = InferenceSession::new(OnDeviceModel::parse(bytes).unwrap());
        let mut scratch = HeadScratch::new();
        scratch.input(1, in_dim).copy_from_slice(&x);
        let mut got = Vec::new();
        session
            .forward_head(1, &mut scratch, &mut got, &mut WorkCounts::default())
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn reset_re_cools_every_table() {
        let mut rng = StdRng::seed_from_u64(8);
        let emb = MemCom::new(MemComConfig::with_bias(300, 8, 30), &mut rng).unwrap();
        let session = session_for(&emb, 4, 3);
        let ids = [7usize, 70, 170, 299];
        let (_, first) = session.run(&ids).unwrap();
        assert!(session.faults() > 0);
        session.reset();
        assert_eq!(session.faults(), 0);
        assert_eq!(session.read_bytes(), (0, 0));
        assert!(session.tables.iter().all(|t| t.resident_bytes() == 0));
        // Head and embedding tables alike fault back in: the same run
        // pays the same cold bytes and ends at the same footprint.
        let (_, again) = session.run(&ids).unwrap();
        assert_eq!(again.work.cold_bytes, first.work.cold_bytes);
        assert_eq!(again.work.warm_bytes, first.work.warm_bytes);
        assert_eq!(again.resident_model_bytes, first.resident_model_bytes);
    }

    #[test]
    fn concurrent_runs_fault_each_page_exactly_once() {
        let mut rng = StdRng::seed_from_u64(9);
        let emb = MemCom::new(MemComConfig::with_bias(2_000, 16, 200), &mut rng).unwrap();
        let bytes = OnDeviceModel::serialize(&emb, &head(16, 5), 8, Dtype::F32).unwrap();
        // Small pages, so the threads race on many first touches.
        let session = InferenceSession::with_page_size(OnDeviceModel::parse(bytes).unwrap(), 64);
        let threads = 8;
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (session, start) = (&session, &start);
                s.spawn(move || {
                    start.wait();
                    for q in 0..32 {
                        // Overlapping id sets: every thread touches the
                        // pages its neighbours are faulting in.
                        let ids: Vec<usize> =
                            (0..8).map(|i| (q * 61 + i * 13 + t) % 2_000).collect();
                        session.run(&ids).unwrap();
                    }
                });
            }
        });
        let resident = session.tables.iter().map(PagedTable::resident_page_count);
        assert_eq!(session.faults() as usize, resident.sum::<usize>());
    }

    #[test]
    fn session_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InferenceSession>();
    }

    #[test]
    fn concurrent_runs_match_serial_results() {
        let mut rng = StdRng::seed_from_u64(7);
        let emb = MemCom::new(MemComConfig::with_bias(500, 16, 50), &mut rng).unwrap();
        let session = session_for(&emb, 8, 5);

        // Serial reference: one logit vector per distinct query.
        let queries: Vec<Vec<usize>> = (0..16)
            .map(|q| (0..8).map(|i| (q * 61 + i * 13) % 500).collect())
            .collect();
        let expected: Vec<Vec<f32>> = queries
            .iter()
            .map(|ids| session.run(ids).unwrap().0)
            .collect();

        // 8 worker threads replay the same queries against the shared
        // session; every result must be bit-identical to the serial run.
        std::thread::scope(|s| {
            for t in 0..8 {
                let (session, queries, expected) = (&session, &queries, &expected);
                s.spawn(move || {
                    for (q, ids) in queries.iter().enumerate().skip(t % 4) {
                        let (logits, stats) = session.run(ids).unwrap();
                        assert_eq!(logits, expected[q], "thread {t} query {q}");
                        assert!(stats.work.flops > 0);
                    }
                });
            }
        });
    }

    #[test]
    fn input_validation() {
        let mut rng = StdRng::seed_from_u64(4);
        let emb = MemCom::new(MemComConfig::new(100, 8, 10), &mut rng).unwrap();
        let session = session_for(&emb, 4, 3);
        assert!(session.run(&[1, 2, 3]).is_err()); // wrong length
        assert!(session.run(&[1, 2, 3, 100]).is_err()); // out of vocab
    }

    #[test]
    fn all_serializable_kinds_execute() {
        let mut rng = StdRng::seed_from_u64(5);
        let specs = [
            MethodSpec::Uncompressed,
            MethodSpec::NaiveHash { hash_size: 10 },
            MethodSpec::MemCom {
                hash_size: 10,
                bias: false,
            },
            MethodSpec::MemCom {
                hash_size: 10,
                bias: true,
            },
            MethodSpec::TruncateRare { keep: 20 },
            MethodSpec::WeinbergerOneHot { hash_size: 10 },
        ];
        for spec in specs {
            let emb = spec.build(100, 8, &mut rng).unwrap();
            let session = session_for(emb.as_ref(), 4, 3);
            let (logits, stats) = session.run(&[5, 50, 99, 0]).unwrap();
            assert_eq!(logits.len(), 3, "{spec:?}");
            assert!(logits.iter().all(|x| x.is_finite()), "{spec:?}");
            assert!(stats.footprint_mb(ComputeUnit::TfLiteCpu) > 0.0);
        }
    }

    #[test]
    fn a_quantized_run_counts_its_dequantize() {
        let mut rng = StdRng::seed_from_u64(12);
        let emb = MemCom::new(MemComConfig::with_bias(200, 8, 20), &mut rng).unwrap();
        let ids = [3usize, 33, 133, 199];
        let flops = |dtype| {
            let bytes = OnDeviceModel::serialize(&emb, &head(8, 4), ids.len(), dtype).unwrap();
            let session = InferenceSession::new(OnDeviceModel::parse(bytes).unwrap());
            session.run(&ids).unwrap().1.work.flops
        };
        // One multiply (or half-to-float convert) per embedding value read;
        // the head's flops do not depend on the dtype.
        let exact = flops(Dtype::F32);
        for dtype in [Dtype::F16, Dtype::Int8] {
            assert_eq!(flops(dtype), exact + (ids.len() * 8) as u64, "{dtype:?}");
        }
    }

    /// Loading moves the file's bytes into the session's pages; the
    /// manifest must still report the file's size.
    #[test]
    fn a_loaded_session_keeps_its_file_size() {
        let mut rng = StdRng::seed_from_u64(13);
        let emb = MemCom::new(MemComConfig::new(100, 8, 10), &mut rng).unwrap();
        let bytes = OnDeviceModel::serialize(&emb, &head(8, 3), 4, Dtype::F32).unwrap();
        let len = bytes.len();
        let session = InferenceSession::new(OnDeviceModel::parse(bytes).unwrap());
        assert_eq!(session.model().file_size(), len);
    }

    #[test]
    fn quantized_model_runs_close_to_f32() {
        let mut rng = StdRng::seed_from_u64(6);
        let emb = MemCom::new(MemComConfig::new(100, 8, 10), &mut rng).unwrap();
        let h = head(8, 3);
        let ids = [1usize, 2, 3, 4];
        let f32_bytes = OnDeviceModel::serialize(&emb, &h, 4, Dtype::F32).unwrap();
        let f16_bytes = OnDeviceModel::serialize(&emb, &h, 4, Dtype::F16).unwrap();
        let s32 = InferenceSession::new(OnDeviceModel::parse(f32_bytes).unwrap());
        let s16 = InferenceSession::new(OnDeviceModel::parse(f16_bytes).unwrap());
        let (a, _) = s32.run(&ids).unwrap();
        let (b, _) = s16.run(&ids).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }
}
