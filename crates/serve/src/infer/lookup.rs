//! The default backend: plain row lookups, as before this module
//! existed.

use crate::store::ShardedStore;
use crate::Result;

use super::{InferBackend, InferScratch};

/// The identity "pipeline": N ids in, N embedding rows out
/// (`ids.len() * dim` values, request order).
///
/// This is exactly the behavior every model had before backends
/// existed, and stays the default — a model registered through
/// [`Router::register`](crate::Router::register) serves lookups through
/// this backend with no behavior or performance change. Every lookup
/// fills through it too, whichever backend its model's scores use.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookupBackend;

impl InferBackend for LookupBackend {
    fn out_len(&self, n_ids: usize, store: &ShardedStore) -> usize {
        n_ids * store.dim()
    }

    fn check_store(&self, _store: &ShardedStore) -> Result<()> {
        Ok(())
    }

    // memcom-lint: hot-path
    fn score_into(
        &self,
        store: &ShardedStore,
        ids: &[usize],
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) -> Result<()> {
        store.lookup_into(ids, &mut scratch.operand, out)
    }
    // memcom-lint: end-hot-path
}
