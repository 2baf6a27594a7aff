//! Figure 2: compression vs nDCG tradeoff (pointwise ranking).
//!
//! Panels for MovieLens, Million Songs, Google Local Reviews, and Netflix
//! with the pointwise learning-to-rank network (Code 1 minus the
//! post-pooling Dense layer).
//!
//! Paper expectation: ~4% nDCG loss for MEmCom at input-embedding
//! compressions of 16x (MovieLens), 12x (Million Songs), 4x (Google
//! Local), and 40x (Netflix), "beating out other state-of-the-art model
//! compression techniques" at the corresponding whole-model ratios.

use memcom_bench::harness::sweep_figure;
use memcom_data::DatasetSpec;
use memcom_models::ModelKind;

fn main() {
    sweep_figure(
        "fig2_pointwise",
        [
            "Figure 2 — compression vs nDCG tradeoff (pointwise ranking)",
            "§5.2, Figure 2 (MovieLens / MillionSongs / GoogleLocal / Netflix)",
            "memcom holds a few-percent nDCG loss where hashing baselines degrade steeply",
        ],
        ModelKind::PointwiseRanker,
        &[
            DatasetSpec::movielens(),
            DatasetSpec::million_songs(),
            DatasetSpec::google_local(),
            DatasetSpec::netflix(),
        ],
        "ndcg",
        |p| (p.ndcg, p.ndcg_loss_pct),
    );
}
