//! Caller-owned, reusable batch-lookup buffers.
//!
//! [`EmbedBatch`] is the response slab for the zero-copy batch API
//! ([`crate::RouterHandle::get_batch_into`]): one flat `Vec<f32>` holds
//! all rows. Its id list and its row slab are the very buffers the
//! request carries through a shard queue and back, so after a warm-up call at
//! a given batch shape, lookups perform **no per-row heap allocation**:
//! the only steady-state allocation on the whole path is the one
//! response-slot `Arc`.

/// A reusable batch of embedding rows, filled by
/// [`crate::RouterHandle::get_batch_into`].
///
/// ```
/// use memcom_core::{MemCom, MemComConfig};
/// use memcom_serve::{EmbedBatch, Router, ServeConfig, DEFAULT_MODEL};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let emb = MemCom::new(MemComConfig::new(1_000, 16, 100), &mut rng)?;
/// let router = Router::start(ServeConfig::with_shards(2))?;
/// router.register(DEFAULT_MODEL, &emb)?;
/// let handle = router.handle(DEFAULT_MODEL)?;
///
/// let mut batch = EmbedBatch::new();
/// for _ in 0..3 {
///     // The same buffer is reused across calls — no per-row allocation.
///     handle.get_batch_into(&[1, 2, 3, 500], &mut batch)?;
///     assert_eq!(batch.len(), 4);
///     assert_eq!(batch.row(3).len(), 16);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct EmbedBatch {
    /// The ids of the current batch, in request order.
    pub(crate) ids: Vec<usize>,
    /// Row-major rows: row `k` at `data[k*dim .. (k+1)*dim]`.
    pub(crate) data: Vec<f32>,
    /// Row width of the current batch.
    pub(crate) dim: usize,
}

impl EmbedBatch {
    /// Creates an empty batch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows in the last filled batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row width of the last filled batch (`0` before any fill).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The ids of the last filled batch, in request order.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// All rows as one flat row-major slice (`len() * dim()` values).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The `k`-th row (same order as [`ids`](Self::ids)).
    ///
    /// # Panics
    ///
    /// Panics when `k >= len()`.
    pub fn row(&self, k: usize) -> &[f32] {
        &self.data[k * self.dim..(k + 1) * self.dim]
    }

    /// Iterates the rows in request order.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Resets for a new fill: records the ids and sizes the data slab,
    /// reusing prior capacity.
    pub(crate) fn begin(&mut self, ids: &[usize], dim: usize) {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.dim = dim;
        self.data.clear();
        self.data.resize(ids.len() * dim, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_on_fresh_batch() {
        let batch = EmbedBatch::new();
        assert_eq!(batch.len(), 0);
        assert!(batch.is_empty());
        assert_eq!(batch.dim(), 0);
        assert!(batch.ids().is_empty());
        assert!(batch.data().is_empty());
        assert_eq!(batch.rows().count(), 0);
    }

    #[test]
    fn begin_sizes_and_resets() {
        let mut batch = EmbedBatch::new();
        batch.begin(&[5, 9, 1], 4);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.data().len(), 12);
        // Shrinking reuses capacity and clears stale rows.
        batch.data[0] = 7.0;
        batch.begin(&[2], 4);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.data(), &[0.0; 4]);
    }
}
