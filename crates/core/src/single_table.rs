//! The one-table techniques: `E(i) = T[row(i)]`.
//!
//! The uncompressed baseline, naive hashing, truncate-rare and the
//! reduced-dimension sweep all look one row up in one table and differ
//! only in the [`RowMap`] (`i`, `i mod m`, `min(i, keep)`, `i` again) —
//! and in the constructor arguments that size the table. [`SingleTable`]
//! is that compressor; the four public names are aliases of it.

use std::marker::PhantomData;

use memcom_tensor::{init, Tensor};
use rand::Rng;

use crate::compressor::{CompressorState, EmbeddingCompressor, ParamTable};
use crate::hashing::RowMap;
use crate::recipe::{Combine, Recipe};
use crate::{CoreError, Result};

/// A single `rows × e` table read through a [`RowMap`].
///
/// `K` names the technique ([`Uncompressed`], [`NaiveHash`],
/// [`TruncateRare`], [`ReducedDim`]); it selects the constructor and is
/// otherwise unused — lookup, training and serialization are the same code
/// for all four.
#[derive(Debug)]
pub struct SingleTable<K> {
    state: CompressorState,
    method: &'static str,
    technique: PhantomData<fn() -> K>,
}

/// Technique marker of [`FullEmbedding`].
#[derive(Debug)]
pub struct Uncompressed;
/// Technique marker of [`NaiveHashEmbedding`].
#[derive(Debug)]
pub struct NaiveHash;
/// Technique marker of [`TruncateRareEmbedding`].
#[derive(Debug)]
pub struct TruncateRare;
/// Technique marker of [`ReducedDimEmbedding`].
#[derive(Debug)]
pub struct ReducedDim;

/// The classic `v × e` embedding table — the paper's uncompressed baseline
/// against which every compression ratio and accuracy loss is measured.
pub type FullEmbedding = SingleTable<Uncompressed>;

/// The "naive hashing" baseline of §5: entities are bucketed by `i mod m`
/// into an `m × e` table, so `⌈v/m⌉` entities *share* (are
/// indistinguishable in) each embedding — the collision problem MEmCom's
/// multipliers exist to fix.
pub type NaiveHashEmbedding = SingleTable<NaiveHash>;

/// Keeps embeddings only for the `keep` most frequent entities; every rarer
/// id maps to a single shared out-of-vocabulary row (row `keep`). Because
/// ids are frequency-sorted (id order = popularity order), "keep the first
/// `keep` ids" is exactly the paper's "drop the less popular apps".
///
/// The paper found this "dumb" baseline surprisingly competitive on the
/// Arcade dataset — and MEmCom still beat it by 2x.
pub type TruncateRareEmbedding = SingleTable<TruncateRare>;

/// The simplest compression: keep one row per entity but shrink the row.
/// The surrounding network adapts to the smaller
/// [`output_dim`](EmbeddingCompressor::output_dim), exactly as the paper's
/// "reduce embedding dim" sweep progressively halves the dimension
/// (256 → 128 → … → 4). Structurally the uncompressed table; the distinct
/// `method_name` lets experiment reports tell the technique apart.
pub type ReducedDimEmbedding = SingleTable<ReducedDim>;

fn bad_config<T>(context: String) -> Result<T> {
    Err(CoreError::BadConfig { context })
}

impl<K> SingleTable<K> {
    /// A `rows × dim` table with Keras-style uniform init.
    fn build<R: Rng + ?Sized>(
        method: &'static str,
        table_name: &'static str,
        (vocab, dim, rows): (usize, usize, usize),
        map: RowMap,
        rng: &mut R,
    ) -> Result<Self> {
        if vocab == 0 || dim == 0 || rows == 0 {
            return bad_config(format!(
                "{method} needs positive sizes, got v={vocab} e={dim} rows={rows}"
            ));
        }
        let table = ParamTable::sparse(table_name, init::embedding_uniform(&[rows, dim], rng));
        let recipe = Recipe::new([map], Combine::Row);
        Ok(SingleTable {
            state: CompressorState::new(vocab, dim, vec![table], recipe),
            method,
            technique: PhantomData,
        })
    }

    /// Direct access to the table (tests, serialization).
    pub fn table(&self) -> &Tensor {
        self.state.tables[0].tensor()
    }

    /// The table row entity `id` reads.
    pub fn row_for(&self, id: usize) -> usize {
        self.state.recipe().maps[0].row(id)
    }
}

impl FullEmbedding {
    /// Creates a `vocab × dim` table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when `vocab` or `dim` is zero.
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Result<Self> {
        let shape = (vocab, dim, vocab);
        Self::build("uncompressed", "embedding", shape, RowMap::Identity, rng)
    }

    /// Replaces the table contents (deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] on shape mismatch.
    pub fn set_table(&mut self, table: Tensor) -> Result<()> {
        self.state.tables[0].set_tensor(table)
    }
}

impl NaiveHashEmbedding {
    /// Creates an `m × e` hashed table for a `vocab`-entity id space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes or
    /// `hash_size > vocab`.
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        dim: usize,
        hash_size: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if hash_size > vocab {
            return bad_config(format!("hash size {hash_size} exceeds vocabulary {vocab}"));
        }
        let shape = (vocab, dim, hash_size);
        Self::build("naive_hash", "hashed", shape, RowMap::Mod(hash_size), rng)
    }
}

impl TruncateRareEmbedding {
    /// Creates a table keeping the `keep` most frequent entities plus the
    /// shared OOV row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero sizes or `keep >= vocab`.
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        dim: usize,
        keep: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if keep == 0 || keep >= vocab {
            return bad_config(format!(
                "keep {keep} must be in 1..{vocab} (the vocabulary)"
            ));
        }
        let shape = (vocab, dim, keep + 1);
        Self::build("truncate_rare", "kept", shape, RowMap::Clamp(keep), rng)
    }
}

impl ReducedDimEmbedding {
    /// Creates a `vocab × reduced_dim` table; `reference_dim` is the
    /// uncompressed model's dimension the reduction is measured against.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when `reduced_dim` is zero or not
    /// actually smaller than `reference_dim`.
    pub fn new<R: Rng + ?Sized>(
        vocab: usize,
        reduced_dim: usize,
        reference_dim: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if reduced_dim >= reference_dim {
            return bad_config(format!(
                "reduced dim {reduced_dim} must be smaller than the reference dim {reference_dim}"
            ));
        }
        let shape = (vocab, reduced_dim, vocab);
        Self::build("reduce_dim", "embedding", shape, RowMap::Identity, rng)
    }
}

impl<K: 'static> EmbeddingCompressor for SingleTable<K> {
    fn state(&self) -> &CompressorState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CompressorState {
        &mut self.state
    }

    fn method_name(&self) -> &'static str {
        self.method
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_nn::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const VOCAB: usize = 100;

    /// One layer per technique over the same 100-id vocabulary, each with
    /// the row its map must send an id to.
    #[allow(clippy::type_complexity)]
    fn every_technique() -> Vec<(Box<dyn EmbeddingCompressor>, fn(usize) -> usize)> {
        let rng = &mut StdRng::seed_from_u64(0);
        vec![
            (Box::new(FullEmbedding::new(VOCAB, 4, rng).unwrap()), |id| {
                id
            }),
            (
                Box::new(NaiveHashEmbedding::new(VOCAB, 4, 10, rng).unwrap()),
                |id| id % 10,
            ),
            (
                Box::new(TruncateRareEmbedding::new(VOCAB, 4, 10, rng).unwrap()),
                |id| id.min(10),
            ),
            (
                Box::new(ReducedDimEmbedding::new(VOCAB, 4, 16, rng).unwrap()),
                |id| id,
            ),
        ]
    }

    fn table(emb: &dyn EmbeddingCompressor) -> Tensor {
        emb.tables()[0].tensor.clone()
    }

    #[test]
    fn lookup_reads_the_mapped_row() {
        for (emb, row_of) in every_technique() {
            let ids = [2, 7, 2, 17, 97, 10, 55, 99];
            let out = emb.lookup(&ids).unwrap();
            assert_eq!(out.shape().dims(), &[ids.len(), 4]);
            let table = table(emb.as_ref());
            for (k, &id) in ids.iter().enumerate() {
                let want = table.row(row_of(id)).unwrap();
                assert_eq!(out.row(k).unwrap(), want, "{} id {id}", emb.method_name());
            }
            // Rows of distinct table rows differ (random init).
            assert_ne!(out.row(0).unwrap(), out.row(1).unwrap());
        }
    }

    #[test]
    fn colliding_ids_are_indistinguishable_only_where_the_map_collides() {
        let rng = &mut StdRng::seed_from_u64(0);
        // 7, 17, 97 ≡ 7 mod 10 → identical rows (the failure mode MEmCom fixes).
        let naive = NaiveHashEmbedding::new(VOCAB, 4, 10, rng).unwrap();
        assert_eq!((naive.row_for(7), naive.row_for(17)), (7, 7));
        let out = naive.lookup(&[7, 17, 97]).unwrap();
        assert_eq!(out.row(0).unwrap(), out.row(1).unwrap());
        assert_eq!(out.row(0).unwrap(), out.row(2).unwrap());
        // Every rare id collapses onto the OOV row, index `keep`.
        let trunc = TruncateRareEmbedding::new(VOCAB, 4, 10, rng).unwrap();
        let out = trunc.lookup(&[10, 55, 99, 3]).unwrap();
        assert_eq!(out.row(0).unwrap(), trunc.table().row(10).unwrap());
        assert_eq!(out.row(0).unwrap(), out.row(1).unwrap());
        assert_eq!(out.row(1).unwrap(), out.row(2).unwrap());
        assert_ne!(out.row(2).unwrap(), out.row(3).unwrap());
        // The full table keeps them apart.
        let full = FullEmbedding::new(VOCAB, 4, rng).unwrap();
        let out = full.lookup(&[7, 17]).unwrap();
        assert_ne!(out.row(0).unwrap(), out.row(1).unwrap());
    }

    #[test]
    fn gradient_lands_on_the_mapped_row() {
        for (mut emb, row_of) in every_technique() {
            let before = table(emb.as_ref());
            // 50, 60 and 50 again: one row twice or three times, by map.
            let ids = [50, 60, 50];
            emb.forward(&ids).unwrap();
            emb.backward(&Tensor::ones(&[3, 4])).unwrap();
            emb.apply_gradients(&mut Sgd::new(0.1)).unwrap();
            let after = table(emb.as_ref());
            for r in 0..before.shape().dims()[0] {
                let hits = ids.iter().filter(|&&id| row_of(id) == r).count();
                for (b, a) in before.row(r).unwrap().iter().zip(after.row(r).unwrap()) {
                    let want = b - 0.1 * hits as f32;
                    assert!((a - want).abs() < 1e-6, "{} row {r}", emb.method_name());
                }
            }
        }
    }

    #[test]
    fn misuse_is_rejected_the_same_way_everywhere() {
        for (mut emb, _) in every_technique() {
            assert!(matches!(
                emb.lookup(&[VOCAB]),
                Err(CoreError::IdOutOfVocab { id: VOCAB, .. })
            ));
            assert!(matches!(
                emb.backward(&Tensor::zeros(&[1, 4])),
                Err(CoreError::BackwardBeforeForward)
            ));
            emb.forward(&[1]).unwrap();
            assert!(matches!(
                emb.backward(&Tensor::zeros(&[2, 4])),
                Err(CoreError::BadGradient { .. })
            ));
            let mut short = [0f32; 3];
            assert!(emb.embed_into(1, &mut short).is_err());
        }
    }

    #[test]
    fn metadata_per_technique() {
        let seen: Vec<_> = every_technique()
            .iter()
            .map(|(emb, _)| {
                assert_eq!((emb.vocab_size(), emb.output_dim()), (VOCAB, 4));
                let tables = emb.tables();
                assert_eq!(tables.len(), 1);
                (emb.method_name(), tables[0].name, emb.param_count())
            })
            .collect();
        assert_eq!(
            seen,
            [
                ("uncompressed", "embedding", 400),
                ("naive_hash", "hashed", 40),
                ("truncate_rare", "kept", 11 * 4),
                ("reduce_dim", "embedding", 400),
            ]
        );
        // Reducing 64 → 8 is an 8× smaller table than the reference.
        let rng = &mut StdRng::seed_from_u64(0);
        let reduced = ReducedDimEmbedding::new(100, 8, 64, rng).unwrap();
        assert_eq!(100 * 64 / reduced.param_count(), 8);
    }

    #[test]
    fn constructors_validate() {
        let rng = &mut StdRng::seed_from_u64(0);
        assert!(FullEmbedding::new(0, 4, rng).is_err());
        assert!(FullEmbedding::new(10, 0, rng).is_err());
        assert!(NaiveHashEmbedding::new(10, 4, 11, rng).is_err());
        assert!(NaiveHashEmbedding::new(10, 0, 5, rng).is_err());
        assert!(NaiveHashEmbedding::new(10, 4, 0, rng).is_err());
        assert!(TruncateRareEmbedding::new(10, 4, 10, rng).is_err());
        assert!(TruncateRareEmbedding::new(10, 4, 0, rng).is_err());
        assert!(ReducedDimEmbedding::new(20, 16, 16, rng).is_err());
        assert!(ReducedDimEmbedding::new(20, 0, 16, rng).is_err());
    }

    #[test]
    fn set_table_round_trip() {
        let mut emb = FullEmbedding::new(10, 4, &mut StdRng::seed_from_u64(0)).unwrap();
        let t = Tensor::ones(&[10, 4]);
        emb.set_table(t.clone()).unwrap();
        assert_eq!(emb.table(), &t);
        assert!(emb.set_table(Tensor::ones(&[9, 4])).is_err());
    }
}
