//! Figure 1: compression vs accuracy tradeoff (classification).
//!
//! Three panels — Newsgroup, Games, Arcade — sweeping every compression
//! technique over the paper's hash-size grid and reporting the percentage
//! accuracy loss against the uncompressed Code-1 classifier.
//!
//! Paper expectation: "For all compression ratios, MEmCom has much lower
//! loss in accuracy compared to other techniques"; on Arcade the
//! truncate-rare baseline is surprisingly strong but MEmCom still beats it
//! by ~2x; on Newsgroup only MEmCom and factorized embeddings work at all.

use memcom_bench::harness::sweep_figure;
use memcom_data::DatasetSpec;
use memcom_models::ModelKind;

fn main() {
    sweep_figure(
        "fig1_classification",
        [
            "Figure 1 — compression vs accuracy tradeoff (classification)",
            "§5.1, Figure 1 (Newsgroup / Games / Arcade panels)",
            "memcom dominates every baseline at every ratio; truncate_rare is the best non-memcom method on arcade",
        ],
        ModelKind::Classifier,
        &[
            DatasetSpec::newsgroup(),
            DatasetSpec::games(),
            DatasetSpec::arcade(),
        ],
        "accuracy",
        |p| (p.accuracy, p.accuracy_loss_pct),
    );
}
