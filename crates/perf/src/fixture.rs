//! The fixed environment every workload shares: model shapes, serving
//! config, and seeded request streams. None of this is a flag — a
//! workload's numbers are only comparable across commits because its
//! environment never moves.

use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec};
use memcom_data::zipf::Zipf;
use memcom_models::{ModelConfig, RecModel};
use memcom_serve::{Dtype, ServeConfig, ShardedStore, TelemetryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Load threads / connections: `nproc` on the reference container.
pub const CLIENTS: usize = 2;

/// One reference check per this many requests.
pub const CHECK_EVERY: u64 = 64;

/// Whether every value of `got` is within `bound` of `want` (`bound` 0
/// demands equality; a NaN never passes).
pub fn within(got: &[f32], want: &[f32], bound: f32) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= bound)
}

/// Model and run shapes. `FULL` is the benchmark; `SMOKE` is the same
/// code at a vocabulary small enough for a debug-build `#[test]`.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Input vocabulary (E200k: 200 000).
    pub vocab: usize,
    /// Embedding width.
    pub dim: usize,
    /// MEmCom hash size (Table 3's fixed 10K).
    pub hash: usize,
    /// Session length: the paper's 128-id inputs.
    pub input_len: usize,
    /// Output vocabulary of M16k (Netflix-scale).
    pub classes: usize,
    /// Ids per `wire_bulk_int8` request (candidate fetch).
    pub bulk_ids: usize,
    /// Rows per `refresh_reads` delta (0.1 % of the vocabulary).
    pub delta_rows: usize,
    /// How often set-up is repeated (the median is reported).
    pub setups: usize,
    /// Warm-up before the first timed window.
    pub warmup: Duration,
    /// Requests replayed by the traced pass.
    pub trace_requests: usize,
    /// Ids sampled per seeded stream; the stream cycles after
    /// `stream_ids / ids-per-request` requests.
    pub stream_ids: usize,
    /// Passes of the decode-kernel microbenchmark (the median is kept).
    pub decode_repeats: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        vocab: 200_000,
        dim: 64,
        hash: 10_000,
        input_len: 128,
        classes: 16_000,
        bulk_ids: 1024,
        delta_rows: 200,
        setups: 9,
        warmup: Duration::from_millis(1500),
        trace_requests: 2000,
        stream_ids: 1 << 20,
        decode_repeats: 200,
    };

    pub const SMOKE: Scale = Scale {
        vocab: 2_000,
        dim: 16,
        hash: 100,
        input_len: 16,
        classes: 64,
        bulk_ids: 64,
        delta_rows: 20,
        setups: 1,
        warmup: Duration::from_millis(20),
        trace_requests: 50,
        stream_ids: 1 << 12,
        decode_repeats: 3,
    };
}

/// `ServeConfig` of every served workload: 2 shards, `max_batch` 64,
/// `max_wait` 50 µs, Block admission, LRU 1024 rows/shard.
pub fn serve_config(telemetry: TelemetryConfig) -> ServeConfig {
    ServeConfig {
        n_shards: 2,
        max_batch: 64,
        max_wait: Duration::from_micros(50),
        telemetry,
        ..ServeConfig::default()
    }
}

/// An unregistered store of the served shape, for the traced pass's
/// direct calls.
pub fn twin_store(emb: &dyn EmbeddingCompressor, dtype: Dtype) -> ShardedStore {
    let config = serve_config(TelemetryConfig::off());
    ShardedStore::build_quantized(
        emb,
        config.n_shards,
        config.cache_capacity,
        config.page_size,
        dtype,
    )
    .expect("twin store builds")
}

/// E200k: the shared MEmCom embedding (no bias), weights from `seed`.
pub fn embedding(scale: &Scale, seed: u64) -> MemCom {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE200);
    MemCom::new(
        MemComConfig::new(scale.vocab, scale.dim, scale.hash),
        &mut rng,
    )
    .expect("E200k shape is valid")
}

/// M16k: the paper's classifier over an E200k-shaped MEmCom embedding.
pub fn model(scale: &Scale, seed: u64) -> RecModel {
    let config = ModelConfig {
        seed: seed ^ 0x16_000,
        ..ModelConfig::classifier(scale.vocab, scale.dim, scale.input_len, scale.classes)
    };
    RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: scale.hash,
            bias: false,
        },
    )
    .expect("M16k shape is valid")
}

/// A seeded request stream: request `k` is a fixed slice of a
/// pre-sampled Zipf id pool, so generating load costs the timed loop
/// nothing but a slice.
#[derive(Debug)]
pub struct Stream<T> {
    ids: Vec<T>,
    per_request: usize,
}

impl<T: Copy + TryFrom<usize>> Stream<T> {
    /// Samples `scale.stream_ids` ranks (rank = id, 0 hottest), cut into
    /// requests of `per_request`; returns the stream with the sampler's
    /// cost in ns per id.
    pub fn zipf(scale: &Scale, exponent: f64, per_request: usize, seed: u64) -> (Self, f64) {
        let zipf = Zipf::new(scale.vocab, exponent).expect("zipf parameters are valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = scale.stream_ids / per_request * per_request;
        let t0 = Instant::now();
        let sampled = zipf.sample_many(n, &mut rng);
        let ns_per_id = t0.elapsed().as_nanos() as f64 / n as f64;
        let ids = sampled
            .into_iter()
            .map(|id| T::try_from(id).ok().expect("ids fit the wire's u64"))
            .collect();
        (Stream { ids, per_request }, ns_per_id)
    }

    /// The ids of request `k` (the stream cycles).
    pub fn request(&self, k: u64) -> &[T] {
        let requests = self.ids.len() / self.per_request;
        let at = (k % requests as u64) as usize * self.per_request;
        &self.ids[at..at + self.per_request]
    }
}

/// The single caller's stream of the in-process workloads: sessions of
/// `input_len` ids, Zipf 1.05. Returns the sampler's cost per id beside
/// it.
pub fn session_stream(scale: &Scale, seed: u64) -> (Stream<usize>, f64) {
    Stream::zipf(scale, 1.05, scale.input_len, stream_seed(seed, 0))
}

/// Per-client stream seed: distinct per workload seed and client.
pub fn stream_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(client as u64 + 1)
}
