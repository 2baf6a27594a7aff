//! The compressor skeleton: [`ParamTable`], [`CompressorState`] and the
//! [`EmbeddingCompressor`] trait.
//!
//! The paper presents MEmCom and every baseline it beats as the same
//! lookup — a few tables, an id → row map each, a combine (Algorithms
//! 1–3) — and this module writes that shape down once. A technique
//! supplies
//!
//! 1. its **tables**, as [`ParamTable`]s inside a [`CompressorState`]
//!    (each table owns its gradient accumulator and optimizer key),
//! 2. its **recipe** ([`Recipe`]): one [`RowMap`](crate::hashing::RowMap)
//!    per table and the [`Combine`](crate::recipe::Combine) over the rows
//!    they select — data, not code, so the same recipe is executed and
//!    differentiated here in training, written into the on-device model
//!    file, and run by the on-device engine and the serve store,
//!
//! and the trait provides the rest — `row_into` (the recipe's executor
//! over the tables) and `accumulate_row` (its backward), bounds checks,
//! the batched `lookup`, the `forward`/`backward` id cache, per-table
//! optimizer application, table enumeration and the parameter count.
//! Adding a technique is tables + recipe.
//!
//! # Adding a technique
//!
//! Naive hashing (`E(i) = T[i mod m]`) is the worked example; it is what
//! [`NaiveHashEmbedding`](crate::NaiveHashEmbedding) amounts to. Nothing
//! outside this block is needed for it to train, serialize with
//! `memcom_ondevice::OnDeviceModel::serialize`, run on-device and serve:
//!
//! ```
//! use memcom_core::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
//! use memcom_core::hashing::RowMap;
//! use memcom_core::recipe::{Combine, Recipe};
//! use memcom_tensor::Tensor;
//!
//! struct NaiveHash {
//!     state: CompressorState,
//! }
//!
//! impl NaiveHash {
//!     fn new(vocab: usize, dim: usize, m: usize) -> Self {
//!         // 1. the tables (real code draws the initial values from an RNG)
//!         let table = ParamTable::sparse("hashed", Tensor::ones(&[m, dim]));
//!         // 2. the recipe: row `id % m` of the one table, as it is
//!         let recipe = Recipe::new([RowMap::Mod(m)], Combine::Row);
//!         NaiveHash { state: CompressorState::new(vocab, dim, vec![table], recipe) }
//!     }
//! }
//!
//! impl EmbeddingCompressor for NaiveHash {
//!     fn state(&self) -> &CompressorState { &self.state }
//!     fn state_mut(&mut self) -> &mut CompressorState { &mut self.state }
//!     fn method_name(&self) -> &'static str { "naive_hash" }
//! }
//!
//! let mut layer = NaiveHash::new(100, 4, 10);
//! assert_eq!(layer.param_count(), 40);
//! assert_eq!(layer.lookup(&[7, 17])?.shape().dims(), &[2, 4]);
//! layer.forward(&[7, 17])?;
//! layer.backward(&Tensor::ones(&[2, 4]))?;
//! layer.apply_gradients(&mut memcom_nn::Sgd::new(0.5))?;
//! assert_eq!(layer.lookup(&[7])?.as_slice(), &[0.0; 4]); // 1 − 0.5·(1 + 1)
//! # Ok::<(), memcom_core::CoreError>(())
//! ```

use std::collections::HashMap;

use memcom_nn::{Optimizer, ParamId};
use memcom_tensor::Tensor;

use crate::recipe::Recipe;
use crate::{CoreError, Result};

/// A named view of one weight table inside a compressor, used by the
/// on-device serializer and the quantizer to enumerate storage.
#[derive(Debug)]
pub struct NamedTable<'a> {
    /// Stable table name (unique within one compressor).
    pub name: &'static str,
    /// The table contents.
    pub tensor: &'a Tensor,
}

/// Gradient storage of one [`ParamTable`].
#[derive(Debug)]
enum Grads {
    /// Per-row accumulator for tables indexed by (a function of) the id:
    /// only the rows a batch touched reach the optimizer.
    Sparse(RowGrads),
    /// Same-shape accumulator for tables every id reads (a projection, a
    /// one-hot kernel): the whole table steps on every application.
    Dense(Tensor),
}

/// One trainable table of a compressor: its serialized name, its weights,
/// its gradient accumulator and the [`ParamId`] optimizers key its state
/// by.
#[derive(Debug)]
pub struct ParamTable {
    name: &'static str,
    tensor: Tensor,
    grads: Grads,
    id: ParamId,
}

impl ParamTable {
    /// A rank-2 table trained row by row (embedding tables, per-entity
    /// scalars as `[v, 1]`).
    pub fn sparse(name: &'static str, tensor: Tensor) -> Self {
        let grads = Grads::Sparse(RowGrads::new(tensor.shape().dims()[1]));
        ParamTable {
            name,
            tensor,
            grads,
            id: ParamId::fresh(),
        }
    }

    /// A table trained densely: every application steps the whole tensor,
    /// touched or not.
    pub fn dense(name: &'static str, tensor: Tensor) -> Self {
        let grads = Grads::Dense(Tensor::zeros(tensor.shape().dims()));
        ParamTable {
            name,
            tensor,
            grads,
            id: ParamId::fresh(),
        }
    }

    /// The weights.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Row `r` of the weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tensor`] when `r` is past the last row.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        Ok(self.tensor.row(r)?)
    }

    /// Replaces the weights (deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when the shape differs.
    pub fn set_tensor(&mut self, tensor: Tensor) -> Result<()> {
        if tensor.shape() != self.tensor.shape() {
            return Err(CoreError::BadConfig {
                context: format!(
                    "{} table shape {} does not match {}",
                    self.name,
                    tensor.shape(),
                    self.tensor.shape()
                ),
            });
        }
        self.tensor = tensor;
        Ok(())
    }

    /// Adds `grad` into the accumulator for row `r`, whichever way the
    /// table is trained.
    ///
    /// # Panics
    ///
    /// Panics on a row past the table or a gradient of the wrong width —
    /// the recipe controls both sides, so either is a bug.
    pub fn add_grad(&mut self, r: usize, grad: &[f32]) {
        match &mut self.grads {
            Grads::Sparse(rows) => rows.add(r, grad),
            Grads::Dense(dense) => {
                let row = dense.row_mut(r).expect("gradient row inside the table");
                assert_eq!(grad.len(), row.len(), "row gradient width mismatch");
                row.iter_mut().zip(grad).for_each(|(a, &g)| *a += g);
            }
        }
    }

    /// Applies and clears the accumulated gradient through `opt`.
    fn apply(&mut self, opt: &mut dyn Optimizer) -> Result<()> {
        match &mut self.grads {
            Grads::Sparse(rows) => rows.apply(opt, self.id, &mut self.tensor),
            Grads::Dense(grad) => {
                opt.step_dense(self.id, &mut self.tensor, grad)?;
                grad.map_inplace(|_| 0.0);
                Ok(())
            }
        }
    }
}

/// What every compressor holds besides its own hyperparameters: the
/// tables, the recipe that reads them, the output geometry, and the ids
/// cached between `forward` and `backward`.
#[derive(Debug)]
pub struct CompressorState {
    /// The trainable tables, in recipe, serialization and optimizer-call
    /// order.
    pub tables: Vec<ParamTable>,
    recipe: Recipe,
    vocab: usize,
    dim: usize,
    cached_ids: Option<Vec<usize>>,
}

impl CompressorState {
    /// State for a compressor embedding `vocab` ids into `dim` values
    /// from `tables` read through `recipe`.
    ///
    /// # Panics
    ///
    /// Panics when [`Recipe::check`] rejects `recipe` over the shapes of
    /// `tables` — the technique wrote both, so a mismatch is a bug in it.
    pub fn new(vocab: usize, dim: usize, tables: Vec<ParamTable>, recipe: Recipe) -> Self {
        let shapes: Vec<(usize, usize)> = tables
            .iter()
            .map(|t| (t.tensor.shape().dims()[0], t.tensor.shape().dims()[1]))
            .collect();
        recipe
            .check(vocab, dim, &shapes)
            .expect("the recipe reads exactly its tables");
        CompressorState {
            tables,
            recipe,
            vocab,
            dim,
            cached_ids: None,
        }
    }

    /// How an id becomes a row of these tables.
    pub fn recipe(&self) -> &Recipe {
        &self.recipe
    }

    /// Runs the recipe over the tables: the embedding of one `id` into
    /// `out`, unchecked (see [`Recipe::row_into`] for `scratch`).
    fn row_into(&self, id: usize, scratch: &mut Vec<f32>, out: &mut [f32]) -> Result<()> {
        let read = |k: usize, r: usize, buf: &mut [f32]| {
            buf.copy_from_slice(self.tables[k].row(r)?);
            Ok(())
        };
        self.recipe.row_into(id, read, scratch, out)
    }

    /// Takes the ids cached by the last `forward` and checks `grad_out`
    /// against them: [`CoreError::BackwardBeforeForward`] without a cached
    /// id list, [`CoreError::BadGradient`] when `grad_out` is not
    /// `[ids.len(), dim]`.
    fn take_ids(&mut self, grad_out: &Tensor) -> Result<Vec<usize>> {
        let ids = self
            .cached_ids
            .take()
            .ok_or(CoreError::BackwardBeforeForward)?;
        check_grad(grad_out, ids.len(), self.dim)?;
        Ok(ids)
    }
}

/// A compressed (or uncompressed) embedding layer: the common interface of
/// MEmCom and every baseline in the paper's evaluation.
///
/// The required methods hand over the state and name the technique —
/// everything that differs between techniques is the tables and recipe
/// inside [`CompressorState`] (see the [module docs](self)); everything a
/// caller uses is provided on top of them.
///
/// Lifecycle per training step:
/// 1. [`forward`](EmbeddingCompressor::forward) with the batch's flat id
///    list (caller reshapes the `[n, e]` output to `[b, L, e]`),
/// 2. [`backward`](EmbeddingCompressor::backward) with the matching
///    `[n, e]` gradient,
/// 3. [`apply_gradients`](EmbeddingCompressor::apply_gradients) with the
///    shared optimizer — only rows touched in this batch are updated.
///
/// [`lookup`](EmbeddingCompressor::lookup) is the immutable inference path.
/// It takes `&self` and implementations hold no interior mutability, so a
/// trained compressor can be shared across threads — `Sync` is part of the
/// trait's contract so concurrent read paths (serving-side comparisons,
/// multi-threaded evaluation) can borrow one without wrappers.
pub trait EmbeddingCompressor: Send + Sync {
    /// The shared state (tables, geometry, id cache).
    fn state(&self) -> &CompressorState;

    /// Mutable access to the shared state.
    fn state_mut(&mut self) -> &mut CompressorState;

    /// Short technique name used in experiment output (e.g. `"memcom"`).
    fn method_name(&self) -> &'static str;

    /// The technique's recipe run over its tables: writes the embedding
    /// of one `id` into `out`, overwriting it. Callers have checked
    /// `id < vocab_size()` and `out.len() == output_dim()`.
    ///
    /// Not a customization point: the model file, the on-device engine
    /// and the serve store execute [`CompressorState::recipe`], so an
    /// override would only make training disagree with them.
    ///
    /// # Errors
    ///
    /// Propagates table-read errors (which indicate internal bugs).
    fn row_into(&self, id: usize, out: &mut [f32]) -> Result<()> {
        self.state().row_into(id, &mut Vec::new(), out)
    }

    /// The technique's recipe differentiated ([`Recipe::backward`]):
    /// accumulates into its tables the gradients of one looked-up `id`,
    /// given `grad = ∂L/∂E(id)` (`output_dim()` values).
    ///
    /// Not a customization point, for the same reason as
    /// [`row_into`](Self::row_into): the backward of what runs is the
    /// recipe's.
    ///
    /// # Errors
    ///
    /// Propagates table-read errors (which indicate internal bugs).
    fn accumulate_row(&mut self, id: usize, grad: &[f32]) -> Result<()> {
        let state = self.state_mut();
        state.recipe.backward(id, grad, &mut state.tables)
    }

    /// Writes the embedding row for one `id` into `out` without
    /// allocating. `out.len()` must equal
    /// [`output_dim`](Self::output_dim).
    ///
    /// This is the serving-side hot path: batch slabs reuse one flat
    /// buffer across calls, so per-row `Vec` construction would dominate
    /// the lookup itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IdOutOfVocab`] for `id >= vocab_size()` and
    /// [`CoreError::BadConfig`] when `out` has the wrong length.
    fn embed_into(&self, id: usize, out: &mut [f32]) -> Result<()> {
        check_ids(std::slice::from_ref(&id), self.vocab_size())?;
        check_out(out.len(), self.output_dim())?;
        self.row_into(id, out)
    }

    /// Embeds `ids`, returning `[ids.len(), output_dim]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IdOutOfVocab`] for ids `>= vocab_size()`.
    fn lookup(&self, ids: &[usize]) -> Result<Tensor> {
        check_ids(ids, self.vocab_size())?;
        let dim = self.output_dim();
        let mut data = vec![0f32; ids.len() * dim];
        let mut scratch = Vec::new();
        for (&id, out) in ids.iter().zip(data.chunks_exact_mut(dim)) {
            self.state().row_into(id, &mut scratch, out)?;
        }
        Ok(Tensor::from_vec(data, &[ids.len(), dim])?)
    }

    /// Training-mode lookup: same as [`lookup`](Self::lookup) but caches
    /// `ids` for the subsequent [`backward`](Self::backward).
    ///
    /// # Errors
    ///
    /// Same conditions as [`lookup`](Self::lookup).
    fn forward(&mut self, ids: &[usize]) -> Result<Tensor> {
        let out = self.lookup(ids)?;
        self.state_mut().cached_ids = Some(ids.to_vec());
        Ok(out)
    }

    /// Accumulates parameter gradients given `∂L/∂output` of shape
    /// `[ids.len(), output_dim]` from the last `forward`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BackwardBeforeForward`] without a prior
    /// `forward`, or [`CoreError::BadGradient`] on shape mismatch.
    fn backward(&mut self, grad_out: &Tensor) -> Result<()> {
        let ids = self.state_mut().take_ids(grad_out)?;
        for (k, &id) in ids.iter().enumerate() {
            self.accumulate_row(id, grad_out.row(k)?)?;
        }
        Ok(())
    }

    /// Applies and clears accumulated gradients through `opt`, table by
    /// table in [`tables`](Self::tables) order.
    ///
    /// # Errors
    ///
    /// Propagates optimizer shape errors (which indicate internal bugs).
    fn apply_gradients(&mut self, opt: &mut dyn Optimizer) -> Result<()> {
        self.state_mut()
            .tables
            .iter_mut()
            .try_for_each(|table| table.apply(opt))
    }

    /// Dimensionality of each produced embedding vector.
    fn output_dim(&self) -> usize {
        self.state().dim
    }

    /// Number of distinct input entities supported (`v` in the paper).
    fn vocab_size(&self) -> usize {
        self.state().vocab
    }

    /// Total trainable scalars in the embedding stage — the quantity the
    /// paper's compression ratios are computed from.
    fn param_count(&self) -> usize {
        self.state().tables.iter().map(|t| t.tensor.len()).sum()
    }

    /// Enumerates the weight tables for serialization/quantization.
    fn tables(&self) -> Vec<NamedTable<'_>> {
        let tables = self.state().tables.iter();
        tables
            .map(|t| NamedTable {
                name: t.name,
                tensor: &t.tensor,
            })
            .collect()
    }
}

/// Sparse per-row gradient accumulator shared by every compressor.
///
/// Gradients arrive row-by-row during `backward` (one row per looked-up
/// id); [`RowGrads::drain`] aggregates duplicates and emits the
/// `(rows, row_grads)` pair that [`Optimizer::step_sparse_rows`] consumes.
#[derive(Debug)]
struct RowGrads {
    cols: usize,
    acc: HashMap<usize, Vec<f32>>,
}

impl RowGrads {
    /// Creates an accumulator for rows of width `cols`.
    fn new(cols: usize) -> Self {
        RowGrads {
            cols,
            acc: HashMap::new(),
        }
    }

    /// Adds `grad` (length `cols`) into the accumulator for `row`.
    ///
    /// # Panics
    ///
    /// Panics when `grad.len() != cols` — compressors control both sides,
    /// so a mismatch is an internal bug.
    fn add(&mut self, row: usize, grad: &[f32]) {
        assert_eq!(grad.len(), self.cols, "row gradient width mismatch");
        let entry = self.acc.entry(row).or_insert_with(|| vec![0.0; self.cols]);
        for (a, &g) in entry.iter_mut().zip(grad) {
            *a += g;
        }
    }

    /// Whether any gradient has been accumulated.
    fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Drains the accumulator into `(rows, row_grads)` sorted by row id
    /// (sorting keeps optimizer application deterministic).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` covers tensor construction.
    fn drain(&mut self) -> Result<(Vec<usize>, Tensor)> {
        let mut rows: Vec<usize> = self.acc.keys().copied().collect();
        rows.sort_unstable();
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in &rows {
            data.extend_from_slice(&self.acc[&r]);
        }
        let grads = Tensor::from_vec(data, &[rows.len(), self.cols])?;
        self.acc.clear();
        Ok((rows, grads))
    }

    /// Applies the drained gradients to `table` through `opt` and clears.
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors.
    fn apply(&mut self, opt: &mut dyn Optimizer, id: ParamId, table: &mut Tensor) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let (rows, grads) = self.drain()?;
        opt.step_sparse_rows(id, table, &rows, &grads)
            .map_err(CoreError::from)
    }
}

/// Validates a gradient tensor against the cached id count and width.
pub(crate) fn check_grad(grad: &Tensor, n_ids: usize, cols: usize) -> Result<()> {
    if grad.shape().rank() != 2 || grad.shape().dims() != [n_ids, cols] {
        return Err(CoreError::BadGradient {
            context: format!("expected [{n_ids}, {cols}], got {}", grad.shape()),
        });
    }
    Ok(())
}

/// Validates ids against a vocabulary bound.
pub(crate) fn check_ids(ids: &[usize], vocab: usize) -> Result<()> {
    if let Some(&bad) = ids.iter().find(|&&i| i >= vocab) {
        return Err(CoreError::IdOutOfVocab { id: bad, vocab });
    }
    Ok(())
}

/// Validates an `embed_into` output buffer against the embedding dim.
pub(crate) fn check_out(out_len: usize, dim: usize) -> Result<()> {
    if out_len != dim {
        return Err(CoreError::BadConfig {
            context: format!("embed_into buffer holds {out_len} values, need {dim}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MethodSpec, QrCombiner};
    use memcom_nn::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every technique's backward is the derivative of its recipe.
    /// The analytic gradient is read off as the movement of each table
    /// under `Sgd::new(1.0)`; the numeric one is a central difference of
    /// `loss = Σ lookup(ids) ⊙ w` in every single table element.
    #[test]
    fn backward_matches_finite_differences_for_every_technique() {
        let hash_size = 10;
        let specs = [
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
            MethodSpec::QuotientRemainder {
                hash_size,
                combiner: QrCombiner::Multiply,
            },
            MethodSpec::QuotientRemainder {
                hash_size,
                combiner: QrCombiner::Concat,
            },
            MethodSpec::Factorized { hidden: 3 },
            MethodSpec::ReduceDim { dim: 4 },
            MethodSpec::TruncateRare { keep: 10 },
            MethodSpec::WeinbergerOneHot { hash_size },
        ];
        // 3 repeats, 3 and 13 share every hashed row, 30 is past `keep`.
        let ids = [3usize, 13, 9, 3, 30];
        let eps = 1e-3f32;
        for spec in specs {
            let mut emb = spec.build(50, 8, &mut StdRng::seed_from_u64(1)).unwrap();
            let snapshot = |emb: &dyn EmbeddingCompressor| -> Vec<Tensor> {
                emb.tables().iter().map(|t| t.tensor.clone()).collect()
            };
            let before = snapshot(emb.as_ref());
            let out = emb.forward(&ids).unwrap();
            let w =
                Tensor::rand_uniform(out.shape().dims(), -1.0, 1.0, &mut StdRng::seed_from_u64(5));
            emb.backward(&w).unwrap();
            emb.apply_gradients(&mut Sgd::new(1.0)).unwrap();
            let after = snapshot(emb.as_ref());
            for (k, table) in before.iter().enumerate() {
                emb.state_mut().tables[k].set_tensor(table.clone()).unwrap();
            }
            for (k, table) in before.iter().enumerate() {
                for idx in 0..table.len() {
                    let mut loss_at = |delta: f32| {
                        let mut probe = table.clone();
                        probe.as_mut_slice()[idx] += delta;
                        emb.state_mut().tables[k].set_tensor(probe).unwrap();
                        emb.lookup(&ids).unwrap().mul(&w).unwrap().sum()
                    };
                    let numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
                    let analytic = table.as_slice()[idx] - after[k].as_slice()[idx];
                    assert!(
                        (numeric - analytic).abs() < 1e-2,
                        "{} table {k}[{idx}]: numeric {numeric} vs analytic {analytic}",
                        spec.label()
                    );
                }
                emb.state_mut().tables[k].set_tensor(table.clone()).unwrap();
            }
        }
    }

    #[test]
    fn row_grads_aggregate_duplicates() {
        let mut rg = RowGrads::new(2);
        rg.add(3, &[1.0, 1.0]);
        rg.add(1, &[0.5, 0.5]);
        rg.add(3, &[1.0, -1.0]);
        let (rows, grads) = rg.drain().unwrap();
        assert_eq!(rows, vec![1, 3]);
        assert_eq!(grads.row(0).unwrap(), &[0.5, 0.5]);
        assert_eq!(grads.row(1).unwrap(), &[2.0, 0.0]);
        assert!(rg.is_empty());
    }

    #[test]
    fn row_grads_apply_updates_table() {
        let mut rg = RowGrads::new(1);
        rg.add(0, &[2.0]);
        let mut table = Tensor::ones(&[3, 1]);
        let mut opt = Sgd::new(0.5);
        rg.apply(&mut opt, ParamId::fresh(), &mut table).unwrap();
        assert_eq!(table.as_slice(), &[0.0, 1.0, 1.0]);
        // Applying an empty accumulator is a no-op.
        rg.apply(&mut opt, ParamId::fresh(), &mut table).unwrap();
        assert_eq!(table.as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_grads_width_checked() {
        let mut rg = RowGrads::new(2);
        rg.add(0, &[1.0]);
    }

    #[test]
    fn validators() {
        assert!(check_ids(&[0, 4], 5).is_ok());
        assert!(matches!(
            check_ids(&[5], 5),
            Err(CoreError::IdOutOfVocab { id: 5, vocab: 5 })
        ));
        assert!(check_grad(&Tensor::zeros(&[2, 3]), 2, 3).is_ok());
        assert!(check_grad(&Tensor::zeros(&[2, 3]), 3, 3).is_err());
        assert!(check_grad(&Tensor::zeros(&[6]), 2, 3).is_err());
    }
}
