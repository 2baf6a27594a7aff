//! The dependency-free metrics registry.
//!
//! Scoping follows the serving architecture: **per-model** counters live
//! on the router's model entries (they survive snapshot swaps), while
//! **per-shard** stage state lives here, owned by the shard it
//! describes. The record discipline is O(1) on the hot path:
//!
//! * counters are relaxed atomics;
//! * stage histograms are shard-local accumulators behind a mutex the
//!   holder of the shard's *single serve turn* locks once per batch (uncontended except
//!   for the brief clone a snapshot takes), merged only at snapshot
//!   time;
//! * nothing on the store lookup path takes a telemetry lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use memcom_ondevice::Dtype;
use parking_lot::{Mutex, MutexGuard};

use crate::config::{TelemetryConfig, TelemetryLevel};
use crate::histogram::LatencyHistogram;

use super::export::{ShardStageMetrics, SizeStats};
use super::trace::{PendingSpan, Span, TraceRing};

/// Exporter label values for the per-dtype decode histograms, indexed by
/// [`dtype_idx`].
pub(crate) const DTYPE_NAMES: [&str; 5] = ["f32", "f16", "int8", "int4", "int2"];

/// Dense index of a [`Dtype`] into the per-dtype decode histograms.
pub(crate) fn dtype_idx(dtype: Dtype) -> usize {
    match dtype {
        Dtype::F32 => 0,
        Dtype::F16 => 1,
        Dtype::Int8 => 2,
        Dtype::Int4 => 3,
        Dtype::Int2 => 4,
    }
}

/// Batch sizes are recorded into a [`LatencyHistogram`] scaled by this
/// factor so the geometric buckets (which start at ~50 "nanos") resolve
/// single-digit row counts; [`SizeStats`] unscales on snapshot.
pub(crate) const SIZE_SCALE: u64 = 1_000;

/// One shard's stage histograms — locked once per batch by the holder
/// of the shard's serve turn.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageSet {
    /// Issue → dequeue per request (includes the admission wait; the
    /// separate admission-wait histogram isolates that component).
    pub(crate) queue_wait: LatencyHistogram,
    /// Batch sizes in rows, scaled by [`SIZE_SCALE`].
    pub(crate) batch_size: LatencyHistogram,
    /// Store decode duration per micro-batch run, by storage dtype
    /// (see [`dtype_idx`]).
    pub(crate) decode: [LatencyHistogram; 5],
    /// Rows served to lookups (a score's gather is not counted).
    pub(crate) decode_rows: u64,
    /// Inference-backend execution per score request (embedding gather
    /// + NN forward), recorded on the full-model scoring path.
    pub(crate) forward: LatencyHistogram,
    /// Response write duration per run (slot fills / slab hand-back).
    pub(crate) slab_write: LatencyHistogram,
}

/// Per-shard telemetry state.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    stages: Mutex<StageSet>,
    /// Recorded client-side around admission, so producer threads (not
    /// the turn holder) contend on this one — kept separate from `stages`
    /// so they never block the turn holder's once-per-batch lock.
    admission_wait: Mutex<LatencyHistogram>,
}

impl ShardTelemetry {
    fn new() -> Self {
        ShardTelemetry {
            stages: Mutex::new(StageSet::default()),
            admission_wait: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// The turn holder's once-per-batch lock on the stage histograms.
    pub(crate) fn stages(&self) -> MutexGuard<'_, StageSet> {
        self.stages.lock()
    }

    pub(crate) fn record_admission_wait(&self, nanos: u64) {
        self.admission_wait.lock().record(nanos);
    }
}

/// The level gate both tiers' registries hold — the router's
/// registry and `memcom-net`'s connection registry.
///
/// At [`TelemetryLevel::Off`], [`stages_on`](Self::stages_on) is false
/// and a recording site reads no clock: every hot-path timestamp is
/// taken as `stages_on().then(Instant::now)`, and `memcom-lint` L002
/// rejects any other clock read inside a `hot-path` fence. At
/// [`TelemetryLevel::Full`] the stage histograms are timed.
#[derive(Debug)]
pub struct LevelGate {
    level: TelemetryLevel,
    started_at: Instant,
}

impl LevelGate {
    /// A gate at `level`, its uptime counted from now.
    pub fn new(level: TelemetryLevel) -> Self {
        LevelGate {
            level,
            started_at: Instant::now(),
        }
    }

    /// The level the registry runs at.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether stage histograms (and their clock reads) are on (`Full`).
    pub fn stages_on(&self) -> bool {
        self.level == TelemetryLevel::Full
    }

    /// Time since the gate was made.
    pub fn uptime(&self) -> Duration {
        self.started_at.elapsed()
    }
}

/// The router's telemetry registry: its level gate, per-shard stage
/// state, the sampling sequence, and the trace ring.
#[derive(Debug)]
pub(crate) struct MetricsRegistry {
    pub(crate) gate: LevelGate,
    /// Trace every k-th request; `0` disables tracing.
    sample_every: u64,
    seq: AtomicU64,
    shards: Vec<ShardTelemetry>,
    traces: Mutex<TraceRing>,
}

impl MetricsRegistry {
    pub(crate) fn new(config: &TelemetryConfig, n_shards: usize) -> Self {
        let sample_every = if config.level == TelemetryLevel::Full && config.sample_rate > 0.0 {
            (1.0 / config.sample_rate).round().max(1.0) as u64
        } else {
            0
        };
        MetricsRegistry {
            gate: LevelGate::new(config.level),
            sample_every,
            seq: AtomicU64::new(0),
            shards: (0..n_shards).map(|_| ShardTelemetry::new()).collect(),
            traces: Mutex::new(TraceRing::new()),
        }
    }

    pub(crate) fn shard(&self, idx: usize) -> &ShardTelemetry {
        &self.shards[idx]
    }

    /// Sampling decision for one request: one atomic increment, a
    /// span for every k-th caller.
    pub(crate) fn sample(&self) -> Option<PendingSpan> {
        if self.sample_every == 0 {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        seq.is_multiple_of(self.sample_every)
            .then_some(PendingSpan { seq })
    }

    /// Lands a completed span in the trace ring (sampled — rare, so the
    /// lock is cold).
    pub(crate) fn complete(&self, span: Span) {
        self.traces.lock().push(span);
    }

    /// `(completed, most-recent, slowest)` spans.
    pub(crate) fn traces_snapshot(&self) -> (u64, Vec<Span>, Vec<Span>) {
        let ring = self.traces.lock();
        (ring.recorded(), ring.recent(), ring.slowest())
    }

    /// Snapshot of every shard's stage state (clones the accumulators
    /// under their locks, one shard at a time).
    pub(crate) fn stage_metrics(&self) -> Vec<ShardStageMetrics> {
        self.shards
            .iter()
            .enumerate()
            .map(|(idx, shard)| {
                let stages = shard.stages.lock().clone();
                let admission_wait = shard.admission_wait.lock().clone();
                ShardStageMetrics {
                    shard: idx,
                    decode_rows: stages.decode_rows,
                    admission_wait,
                    queue_wait: stages.queue_wait,
                    batch_assembly: LatencyHistogram::new(),
                    batch_size: SizeStats::from_scaled(&stages.batch_size),
                    forward: stages.forward,
                    slab_write: stages.slab_write,
                    decode: DTYPE_NAMES.iter().copied().zip(stages.decode).collect(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_every_kth() {
        let registry = MetricsRegistry::new(&TelemetryConfig::full(0.25), 1);
        let sampled: Vec<bool> = (0..8).map(|_| registry.sample().is_some()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, false, true, false, false, false]
        );
        // Off and zero-rate never sample.
        assert!(MetricsRegistry::new(&TelemetryConfig::off(), 1)
            .sample()
            .is_none());
        assert!(MetricsRegistry::new(&TelemetryConfig::full(0.0), 1)
            .sample()
            .is_none());
    }

    #[test]
    fn levels_gate_what_records() {
        let off = MetricsRegistry::new(&TelemetryConfig::off(), 2);
        assert!(!off.gate.stages_on());
        assert_eq!(off.gate.level(), TelemetryLevel::Off);
        let full = MetricsRegistry::new(&TelemetryConfig::full(1.0), 2);
        assert!(full.gate.stages_on());
        assert_eq!(full.gate.level(), TelemetryLevel::Full);
        assert_eq!(full.stage_metrics().len(), 2);
    }

    #[test]
    fn dtype_indices_align_with_names() {
        for (dtype, name) in [
            (Dtype::F32, "f32"),
            (Dtype::F16, "f16"),
            (Dtype::Int8, "int8"),
            (Dtype::Int4, "int4"),
            (Dtype::Int2, "int2"),
        ] {
            assert_eq!(DTYPE_NAMES[dtype_idx(dtype)], name);
        }
    }

    #[test]
    fn shard_state_snapshots_cleanly() {
        let registry = MetricsRegistry::new(&TelemetryConfig::full(1.0), 1);
        let shard = registry.shard(0);
        shard.record_admission_wait(1_000);
        {
            let mut stages = shard.stages();
            stages.decode_rows += 5;
            stages.queue_wait.record(5_000);
            stages.batch_size.record(4 * SIZE_SCALE);
        }
        let snap = &registry.stage_metrics()[0];
        assert_eq!(snap.admission_wait.count(), 1);
        assert_eq!(snap.queue_wait.count(), 1);
        assert_eq!(snap.decode_rows, 5);
        assert_eq!(snap.batch_size.count, 1);
        assert_eq!(snap.batch_size.max, 4);
        assert_eq!(snap.decode.len(), 5);
    }
}
