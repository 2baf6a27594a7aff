//! Full-model scoring: the trained RankNet/Code-1 head executed over
//! served embedding rows.

use memcom_models::RecModel;
use memcom_ondevice::compute::WorkCounts;
use memcom_ondevice::format::{HeadOp, OnDeviceModel};
use memcom_ondevice::{Dtype, InferenceSession};

use crate::store::ShardedStore;
use crate::{Result, ServeError};

use super::{InferBackend, InferScratch};

/// An [`InferBackend`] executing a trained model head (pool → ReLU →
/// batch-norm → dense, the paper's Code-1 / RankNet shapes) over
/// embedding rows gathered from the router's [`ShardedStore`].
///
/// The head runs through
/// [`InferenceSession::forward_head`] — the **same executor**
/// `memcom-ondevice` uses for standalone on-device inference — so for
/// an fp32 store a score served through the router is bit-for-bit the
/// score `InferenceSession::run` computes for the same ids. For a
/// quantized store the only divergence is the rows themselves, and
/// [`score_error_bound`](Self::score_error_bound) certifies how far a
/// served score can drift.
///
/// Per request: N item ids in, K scores out, where K is the head's
/// final dense width (1 for a pointwise ranker). All intermediates live
/// in the shard's [`InferScratch`], so steady-state scoring allocates
/// nothing per call.
#[derive(Debug)]
pub struct RankNetBackend {
    session: InferenceSession,
    /// Worst-case factor by which the head amplifies a per-element
    /// embedding error (computed once from the head parameters).
    error_amplification: f32,
}

impl RankNetBackend {
    /// Builds a backend from a trained [`RecModel`] (e.g.
    /// [`RankNet::shared_model`](memcom_models::RankNet::shared_model)):
    /// the whole model is serialized through the on-device model format
    /// at fp32 (dropout is eval-mode, i.e. skipped) and loaded into an
    /// [`InferenceSession`]. Scoring reads embedding rows from the router
    /// store the model is registered with, never from the session, so the
    /// session's fp32 copy of the embedding tables only backs
    /// [`session`](Self::session)`().run`, the direct reference a served
    /// score is compared against.
    ///
    /// # Errors
    ///
    /// Propagates serialization/parse failures from the on-device
    /// format layer.
    pub fn from_model(model: &RecModel) -> Result<Self> {
        let bytes = OnDeviceModel::serialize(
            model.embedding(),
            model.head(),
            model.config().input_len,
            Dtype::F32,
        )?;
        let session = InferenceSession::new(OnDeviceModel::parse(bytes)?);
        let error_amplification = head_error_amplification(&session)?;
        Ok(RankNetBackend {
            session,
            error_amplification,
        })
    }

    /// The loaded on-device session (inspection: head ops, work model).
    pub fn session(&self) -> &InferenceSession {
        &self.session
    }

    /// Certified worst-case absolute error of any score served over
    /// `store`, relative to the same forward over exact fp32 embedding
    /// rows: the store's per-element row bound
    /// ([`ShardedStore::error_bound`], 0 for fp32 stores) propagated
    /// through the head — averaging pool and ReLU are non-expansive,
    /// batch-norm scales by `max_i |gamma_i| / sqrt(var_i + eps)`, and a
    /// dense layer by its largest column L1 norm.
    pub fn score_error_bound(&self, store: &ShardedStore) -> f32 {
        store.error_bound() * self.error_amplification
    }
}

impl InferBackend for RankNetBackend {
    fn out_len(&self, _n_ids: usize, _store: &ShardedStore) -> usize {
        self.session.head_out_len()
    }

    fn check_store(&self, store: &ShardedStore) -> Result<()> {
        let e = self.session.model().emb_dim;
        if store.dim() != e {
            return Err(ServeError::BadConfig {
                context: format!(
                    "ranknet backend expects {e}-wide embedding rows, store serves {}",
                    store.dim()
                ),
            });
        }
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
        let InferScratch {
            operand,
            head,
            logits,
        } = scratch;
        let act = head.input(ids.len(), store.dim());
        store.lookup_into(ids, operand, act)?;
        // Work counts are still tallied (the head executor charges
        // flops/activations) but a score request reports no per-run
        // stats; the page-level counters aggregate on the session.
        let mut work = WorkCounts::default();
        self.session
            .forward_head(ids.len(), head, logits, &mut work)?;
        if logits.len() != out.len() {
            return Err(ServeError::BadConfig {
                context: format!(
                    "head produced {} values for a {}-value response slab",
                    logits.len(),
                    out.len()
                ),
            });
        }
        out.copy_from_slice(logits);
        Ok(())
    }
    // memcom-lint: end-hot-path
}

/// Worst-case per-element error amplification of the head, composed op
/// by op in execution order (linear error propagation; every bound is
/// exact for the affine ops and conservative for the non-expansive
/// ones).
fn head_error_amplification(session: &InferenceSession) -> Result<f32> {
    let mut amp = 1.0f32;
    for op in &session.model().head_ops {
        match op {
            // Mean over rows of per-element errors ≤ the max error;
            // ReLU is 1-Lipschitz.
            HeadOp::AveragePool | HeadOp::Relu => {}
            HeadOp::BatchNorm {
                dim, tables, eps, ..
            } => {
                let (mut gamma, mut var) = (vec![0.0f32; *dim], vec![0.0f32; *dim]);
                session.read_row_into(&tables[0], 0, &mut gamma)?;
                session.read_row_into(&tables[3], 0, &mut var)?;
                let mut factor = 0.0f32;
                for (g, v) in gamma.iter().zip(var.iter()) {
                    factor = factor.max(g.abs() / (v + eps).sqrt());
                }
                amp *= factor;
            }
            HeadOp::Dense {
                in_dim,
                out_dim,
                weight,
                ..
            } => {
                // |sum_i w[i][o] * err_i| ≤ δ · max_o Σ_i |w[i][o]|.
                let mut col_l1 = vec![0.0f32; *out_dim];
                let mut row = vec![0.0f32; *out_dim];
                for i in 0..*in_dim {
                    session.read_row_into(weight, i, &mut row)?;
                    for (acc, w) in col_l1.iter_mut().zip(row.iter()) {
                        *acc += w.abs();
                    }
                }
                amp *= col_l1.iter().fold(0.0f32, |a, &b| a.max(b));
            }
        }
    }
    Ok(amp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{MethodSpec, QrCombiner};
    use memcom_models::ModelConfig;

    /// Every spec `tests/every_technique_deploys.rs` deploys, at a
    /// vocabulary of 300.
    fn all_specs() -> [MethodSpec; 11] {
        let hash_size = 30;
        let qr = |combiner| MethodSpec::QuotientRemainder {
            hash_size,
            combiner,
        };
        [
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
            MethodSpec::TruncateRare { keep: hash_size },
            MethodSpec::WeinbergerOneHot { hash_size },
        ]
    }

    #[test]
    fn every_technique_scores_as_the_session_runs_bit_for_bit() {
        let config = ModelConfig::pointwise(300, 16, 4, 1);
        let id_sets = [[0, 1, 2, 3], [299, 150, 7, 7], [31, 62, 93, 124]];
        for spec in all_specs() {
            let model = RecModel::new(&config, &spec).unwrap();
            let backend = RankNetBackend::from_model(&model).unwrap();
            let store = ShardedStore::build(model.embedding(), 2, 0, 256).unwrap();
            backend.check_store(&store).unwrap();
            let mut scratch = InferScratch::new();
            for ids in id_sets {
                let mut served = vec![0f32; backend.out_len(ids.len(), &store)];
                backend
                    .score_into(&store, &ids, &mut scratch, &mut served)
                    .unwrap();
                let (direct, _) = backend.session().run(&ids).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&served), bits(&direct), "{} ids {ids:?}", spec.label());
            }
        }
    }
}
