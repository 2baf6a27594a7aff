//! Row-level store deltas.
//!
//! A [`StoreDelta`] is the incremental-refresh unit of the serving tier:
//! a batch of row upserts and removals that
//! [`crate::ShardedStore::apply_delta`] turns into a **new store
//! snapshot sharing every untouched page** with the old one, and
//! [`crate::Router::apply_delta`] flips in atomically under live
//! traffic. Where [`crate::Router::swap`] rebuilds and re-registers an
//! entire store (O(table) work and 2× peak memory), a delta costs work
//! and fresh memory proportional to the rows it touches — the update
//! path production parameter servers ship for continuously-refreshing
//! embedding tables.
//!
//! Deltas are **dtype-aware**: rows arrive as `f32` and are re-encoded
//! at apply time to the target store's [`crate::Dtype`] with a per-row
//! scale, and the store's certified
//! [`error_bound`](crate::ShardedStore::error_bound) is re-certified to
//! cover the new rows.
//!
//! A delta addresses rows **by id**, so it applies to stores whose
//! recipe gives an id a row of its own to write: uncompressed and
//! reduced-dim tables (the row is re-encoded) and MEmCom (the row is
//! projected onto the id's multiplier and bias). Under every other
//! technique — naive/double hashing, quotient–remainder, truncate-rare,
//! the factorized and one-hot baselines — an id's embedding lives in
//! rows it shares with the ids it collides with, and upserting it would
//! mean either moving those ids too or materializing the table the
//! technique exists to avoid. `apply_delta` therefore refuses such a
//! store with [`ServeError::BadConfig`] before copying a page; refresh
//! it by rebuilding from the retrained model and [`crate::Router::swap`].
//! (No caller applied deltas to such a store; the capability to
//! materialize-and-patch was removed rather than kept unused.)
//!
//! ```
//! use memcom_core::{FullEmbedding, EmbeddingCompressor};
//! use memcom_serve::{ShardedStore, StoreDelta};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let emb = FullEmbedding::new(1_000, 16, &mut rng)?;
//! let store = ShardedStore::build(&emb, 2, 64, 4096)?;
//!
//! // Three changed rows out of 1 000: refresh one, retire one, add one.
//! let mut delta = StoreDelta::new(16);
//! delta.upsert_row(7, &[0.25; 16])?;
//! delta.remove_row(9)?;
//! delta.upsert_row(1_000, &[0.5; 16])?; // grows the vocabulary
//!
//! let refreshed = store.apply_delta(&delta)?;
//! assert_eq!(refreshed.vocab(), 1_001);
//! assert_eq!(refreshed.get(7)?, vec![0.25; 16]);
//! assert_eq!(refreshed.get(9)?, vec![0.0; 16]); // tombstoned
//! assert_eq!(store.get(7)?.len(), 16); // old snapshot untouched
//!
//! // Untouched pages are physically shared, not copied.
//! assert!(refreshed.shared_bytes_with(&store) > store.stored_bytes() / 2);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use crate::{Result, ServeError};

/// One pending change to a row id (last write per id wins).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeltaOp {
    /// Replace (or, past the current vocabulary, append) the row.
    Upsert(Vec<f32>),
    /// Tombstone the row: it serves the zero embedding afterwards.
    Remove,
}

/// A builder for a batch of row-level store updates.
///
/// Ids are collected in a map, so repeated operations on one id collapse
/// to the final one — the delta describes the *end state* of each
/// touched row, which is what makes `apply_delta` equivalent to a full
/// rebuild of the mutated table.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreDelta {
    dim: usize,
    ops: BTreeMap<usize, DeltaOp>,
}

impl StoreDelta {
    /// An empty delta for rows of `dim` values.
    pub fn new(dim: usize) -> Self {
        StoreDelta {
            dim,
            ops: BTreeMap::new(),
        }
    }

    /// Row width this delta carries.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct ids this delta touches.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta touches no ids.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the delta touches `id` (upsert or remove).
    pub fn contains(&self, id: usize) -> bool {
        self.ops.contains_key(&id)
    }

    /// Distinct ids upserted.
    pub fn upserts(&self) -> usize {
        self.ops
            .values()
            .filter(|op| matches!(op, DeltaOp::Upsert(_)))
            .count()
    }

    /// Distinct ids removed.
    pub fn removes(&self) -> usize {
        self.len() - self.upserts()
    }

    /// The largest id the delta upserts (removals never grow a store).
    pub(crate) fn max_upsert_id(&self) -> Option<usize> {
        self.ops
            .iter()
            .rev()
            .find(|(_, op)| matches!(op, DeltaOp::Upsert(_)))
            .map(|(&id, _)| id)
    }

    /// The pending operations in ascending id order.
    pub(crate) fn ops(&self) -> impl Iterator<Item = (usize, &DeltaOp)> {
        self.ops.iter().map(|(&id, op)| (id, op))
    }

    /// Queues an upsert of `row` for `id`. An id at or past the target
    /// store's vocabulary grows it (intermediate never-upserted ids
    /// serve the zero embedding).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] when `row` is not `dim` values.
    pub fn upsert_row(&mut self, id: usize, row: &[f32]) -> Result<()> {
        if row.len() != self.dim {
            return Err(ServeError::BadConfig {
                context: format!(
                    "delta row for id {id} has {} values, expected dim {}",
                    row.len(),
                    self.dim
                ),
            });
        }
        self.ops.insert(id, DeltaOp::Upsert(row.to_vec()));
        Ok(())
    }

    /// Queues upserts for `ids` with their rows packed row-major in
    /// `rows` (`ids.len() * dim` values).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] on a size mismatch.
    pub fn upsert_rows(&mut self, ids: &[usize], rows: &[f32]) -> Result<()> {
        if rows.len() != ids.len() * self.dim {
            return Err(ServeError::BadConfig {
                context: format!(
                    "delta rows hold {} values for {} ids of dim {}",
                    rows.len(),
                    ids.len(),
                    self.dim
                ),
            });
        }
        for (k, &id) in ids.iter().enumerate() {
            self.upsert_row(id, &rows[k * self.dim..(k + 1) * self.dim])?;
        }
        Ok(())
    }

    /// Queues a removal: after apply, `id` serves the zero embedding.
    /// Removal never shrinks the vocabulary — ids stay addressable, which
    /// keeps the slot layout stable across snapshots.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` so id validation can move here
    /// without breaking callers.
    pub fn remove_row(&mut self, id: usize) -> Result<()> {
        self.ops.insert(id, DeltaOp::Remove);
        Ok(())
    }

    /// Queues removals for every id in `ids`.
    ///
    /// # Errors
    ///
    /// Same as [`remove_row`](Self::remove_row).
    pub fn remove_rows(&mut self, ids: &[usize]) -> Result<()> {
        for &id in ids {
            self.remove_row(id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collapses_to_final_op_per_id() {
        let mut d = StoreDelta::new(2);
        d.upsert_row(5, &[1.0, 2.0]).unwrap();
        d.remove_row(5).unwrap();
        d.upsert_rows(&[3, 9], &[0.1, 0.2, 0.3, 0.4]).unwrap();
        d.upsert_row(3, &[9.0, 9.0]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert!(d.contains(5) && d.contains(3) && d.contains(9));
        assert!(!d.contains(4));
        assert_eq!((d.upserts(), d.removes()), (2, 1));
        assert_eq!(d.max_upsert_id(), Some(9));
        // Ascending id order; id 5's final op is the removal, id 3's the
        // second upsert.
        let ops: Vec<(usize, DeltaOp)> = d.ops().map(|(id, op)| (id, op.clone())).collect();
        assert_eq!(ops[0], (3, DeltaOp::Upsert(vec![9.0, 9.0])));
        assert_eq!(ops[1], (5, DeltaOp::Remove));
        assert_eq!(ops[2], (9, DeltaOp::Upsert(vec![0.3, 0.4])));
    }

    #[test]
    fn size_mismatches_rejected() {
        let mut d = StoreDelta::new(3);
        assert!(matches!(
            d.upsert_row(0, &[1.0]),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(matches!(
            d.upsert_rows(&[0, 1], &[0.0; 5]),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(d.is_empty());
        assert_eq!(d.max_upsert_id(), None);
        d.remove_rows(&[1, 2]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.max_upsert_id(), None, "removals never grow");
    }
}
