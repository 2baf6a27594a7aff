//! Ablation bench: mmap page-size sensitivity of the lookup engine.
//!
//! DESIGN.md calls out the footprint model's page-size dependence: larger
//! pages mean fewer faults but more resident bytes per touched row. This
//! bench measures the wall cost of a cold inference at 4 KiB / 16 KiB /
//! 64 KiB pages and prints the resident-byte ablation alongside.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memcom_core::{MemCom, MemComConfig};
use memcom_nn::{AveragePool1d, BatchNorm1d, Dense, Relu, Sequential};
use memcom_ondevice::format::OnDeviceModel;
use memcom_ondevice::{Dtype, InferenceSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_page_sizes(c: &mut Criterion) {
    let vocab = 100_000;
    let e = 64;
    let m = 10_000;
    let len = 128;
    let mut rng = StdRng::seed_from_u64(0);
    let emb = MemCom::new(MemComConfig::new(vocab, e, m), &mut rng).expect("valid");
    let mut head = Sequential::new();
    head.push(AveragePool1d::new());
    head.push(Relu::new());
    head.push(BatchNorm1d::new(e));
    head.push(Dense::new(e, 64, &mut rng));
    let bytes = OnDeviceModel::serialize(&emb, &head, len, Dtype::F32).expect("serializes");
    let ids: Vec<usize> = (0..len).map(|_| rng.gen_range(0..vocab)).collect();

    let mut group = c.benchmark_group("mmap_page_size_cold_inference");
    for page in [4_096usize, 16_384, 65_536] {
        let session = InferenceSession::with_page_size(
            OnDeviceModel::parse(bytes.clone()).expect("own bytes"),
            page,
        );
        // Print the footprint ablation once per configuration.
        session.reset();
        let (_, stats) = session.run(&ids).expect("runs");
        eprintln!(
            "page {page:>6}: resident {} bytes, faults {}",
            stats.resident_model_bytes,
            session.faults()
        );
        group.bench_with_input(BenchmarkId::from_parameter(page), &session, |b, s| {
            b.iter(|| {
                s.reset(); // every iteration is a cold start
                s.run(std::hint::black_box(&ids)).expect("runs")
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_page_sizes
}
criterion_main!(benches);
