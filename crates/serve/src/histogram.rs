//! Geometric latency histogram.
//!
//! Fixed memory, O(1) record, mergeable across load-generator threads —
//! the usual serving-benchmark shape (cf. HdrHistogram), kept
//! dependency-free. Quantiles do **not** interpolate: a quantile reports
//! the upper edge of the bucket its rank lands in (clamped to the
//! observed min/max), so on the 1.09× grid it reads up to 9 % above the
//! true value, and distinct latencies in one bucket report the same
//! number.

use std::sync::LazyLock;

/// Smallest resolvable latency (one bucket below this floor).
const FLOOR_NANOS: f64 = 50.0;
/// Geometric bucket growth factor (~26 buckets per decade).
const GROWTH: f64 = 1.09;
/// Bucket count: covers `50ns × 1.09^280 ≈ 25 min`. Observations beyond
/// that collapse into the top bucket, so quantiles saturate there — an
/// open-loop run backlogged past ~25 min of queueing delay reports a
/// clamped tail rather than the true one.
const BUCKETS: usize = 280;

/// Precomputed integer bucket edges: bucket `i` holds observations in
/// `(EDGES[i-1], EDGES[i]]` (bucket 0 is `[0, EDGES[0]]`). Deriving the
/// index from these u64 edges instead of `ln()`-arithmetic makes bucket
/// assignment **exact**: `bucket_of(edge) == i` and
/// `bucket_of(edge + 1) == i + 1` at every boundary, where the previous
/// float path drifted near edges whose log landed within rounding error
/// of an integer. The nominal geometric edge is rounded, then bumped by
/// at least 1 over its predecessor so the table is strictly increasing
/// even where consecutive geometric steps round to the same integer.
static BUCKET_EDGES: LazyLock<[u64; BUCKETS]> = LazyLock::new(|| {
    let mut edges = [0u64; BUCKETS];
    let mut prev = 0u64;
    for (idx, edge) in edges.iter_mut().enumerate() {
        let nominal = (FLOOR_NANOS * GROWTH.powi(idx as i32)).round() as u64;
        prev = nominal.max(prev + 1);
        *edge = prev;
    }
    edges
});

/// A mergeable histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    fn bucket_of(nanos: u64) -> usize {
        // First bucket whose edge covers `nanos` — a pure u64 compare
        // against the precomputed monotone edge table, so boundary
        // observations land deterministically (no float log drift).
        BUCKET_EDGES
            .partition_point(|&edge| edge < nanos)
            .min(BUCKETS - 1)
    }

    /// Upper latency bound of a bucket.
    fn bucket_upper(idx: usize) -> u64 {
        BUCKET_EDGES[idx]
    }

    /// Records one latency observation.
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket_of(nanos)] += 1;
        self.total += 1;
        self.sum_nanos += nanos as u128;
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in nanoseconds (`0` when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (e.g. `0.99`) in nanoseconds: the upper edge of
    /// the bucket holding rank `⌈q·count⌉`, clamped to the observed
    /// min/max so bucket granularity never reports a latency outside the
    /// actual range. Returns `0` when empty.
    ///
    /// A rank that lands in the **saturated top bucket** reports
    /// `max_nanos()` exactly: that bucket is open-above (observations
    /// past ~25 min all collapse into it), so its nominal upper bound
    /// can sit *below* an observed maximum and would under-report the
    /// tail.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                if idx == BUCKETS - 1 {
                    // Open-ended top bucket: the only honest answer is
                    // the observed maximum.
                    return self.max_nanos;
                }
                return Self::bucket_upper(idx).clamp(self.min_nanos, self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Iterates the geometric buckets as `(upper_nanos, count)` pairs in
    /// ascending order, zero-count buckets included — the exporter's view
    /// of the raw distribution (a Prometheus-histogram rendering takes
    /// the cumulative sum of `count` per `le = upper_nanos` boundary).
    ///
    /// The **last** bucket is open-above: its `upper_nanos` is a nominal
    /// boundary (~25 min) and observations beyond it still land there,
    /// so renderers should treat it as `+Inf`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(idx, &count)| (Self::bucket_upper(idx), count))
    }

    /// Sum of all observations in nanoseconds (the Prometheus `_sum`).
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency in nanoseconds.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest observation (`0` when empty).
    pub fn max_nanos(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max_nanos
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean_nanos(), 0.0);
        assert_eq!(h.max_nanos(), 0);
    }

    #[test]
    fn quantiles_bracket_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 90 fast observations at ~1µs, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!((500..=2_000).contains(&p50), "p50 {p50} should be near 1µs");
        let p99 = h.p99();
        assert!(
            (500_000..=1_100_000).contains(&p99),
            "p99 {p99} should be near 1ms"
        );
        assert!(h.quantile(1.0) >= h.quantile(0.5));
    }

    #[test]
    fn quantile_error_is_bounded_by_growth_factor() {
        let mut h = LatencyHistogram::new();
        for nanos in [777u64, 77_777, 7_777_777] {
            h.record(nanos);
        }
        for (q, exact) in [(0.33, 777u64), (0.66, 77_777), (1.0, 7_777_777)] {
            let got = h.quantile(q) as f64;
            assert!(
                got >= exact as f64 * 0.9 && got <= exact as f64 * 1.1,
                "quantile {q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn distinct_observations_in_one_bucket_report_the_same_edge() {
        // 120 000 and 127 000 ns share bucket 91, (116 776, 127 286]: with
        // no interpolation both medians read its upper edge — the value
        // two unrelated stages can report as one p50.
        assert_eq!(BUCKET_EDGES[91], 127_286);
        let p50 = |nanos: u64| {
            let mut h = LatencyHistogram::new();
            h.record(nanos);
            h.record(1_000_000); // keeps the max clamp above the edge
            h.p50()
        };
        assert_eq!(p50(120_000), 127_286);
        assert_eq!(p50(127_000), 127_286);
    }

    #[test]
    fn covers_minute_scale_tails() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        let twenty_minutes = 20 * 60 * 1_000_000_000u64;
        h.record(twenty_minutes);
        assert_eq!(h.max_nanos(), twenty_minutes);
        // The tail bucket resolves 20 min to within the growth factor
        // (clamped to the observed max) rather than saturating early.
        assert!(
            h.quantile(1.0) >= twenty_minutes / 2,
            "got {}",
            h.quantile(1.0)
        );
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for i in 0..500u64 {
            let nanos = 100 + i * 97;
            if i % 2 == 0 {
                a.record(nanos);
            } else {
                b.record(nanos);
            }
            combined.record(nanos);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.p50(), combined.p50());
        assert_eq!(a.p99(), combined.p99());
        assert_eq!(a.max_nanos(), combined.max_nanos());
        assert!((a.mean_nanos() - combined.mean_nanos()).abs() < 1e-6);
    }

    #[test]
    fn saturated_top_bucket_reports_observed_max() {
        // An observation past the last bucket boundary (~25 min)
        // collapses into the open-ended top bucket; every quantile that
        // lands there must report the observed max, never the bucket's
        // nominal upper bound (which sits *below* the observation).
        let hour = 60 * 60 * 1_000_000_000u64;
        let mut h = LatencyHistogram::new();
        h.record(hour);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), hour, "q={q}");
        }
        // Mixed stream: the tail quantile still reports the true max.
        h.record(1_000);
        assert_eq!(h.quantile(1.0), hour);
        assert_eq!(h.max_nanos(), hour);
    }

    #[test]
    fn iter_buckets_matches_recorded_counts() {
        let mut h = LatencyHistogram::new();
        for nanos in [100u64, 100, 5_000, 1_000_000] {
            h.record(nanos);
        }
        let buckets: Vec<(u64, u64)> = h.iter_buckets().collect();
        assert_eq!(buckets.len(), 280, "fixed bucket count");
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, h.count());
        // Boundaries ascend and every observation sits at or below the
        // boundary of the bucket holding it.
        for pair in buckets.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        let covering = buckets.iter().find(|&&(upper, c)| c == 2 && upper >= 100);
        assert!(covering.is_some(), "both 100ns observations share a bucket");
        assert_eq!(h.sum_nanos(), 1_005_200);
    }

    #[test]
    fn bucket_edges_are_strictly_increasing() {
        for pair in BUCKET_EDGES.windows(2) {
            assert!(pair[0] < pair[1], "{} !< {}", pair[0], pair[1]);
        }
        assert_eq!(BUCKET_EDGES[0], 50);
        // The table still spans ~25 minutes.
        assert!(BUCKET_EDGES[BUCKETS - 1] > 20 * 60 * 1_000_000_000);
    }

    #[test]
    fn bucket_assignment_is_exact_at_every_edge() {
        // An observation exactly on an edge belongs to that bucket; one
        // nanosecond past it belongs to the next. The old ln()-based
        // index drifted at edges whose log landed within float rounding
        // of an integer, shifting boundary observations one bucket off.
        for (idx, &edge) in BUCKET_EDGES.iter().enumerate() {
            assert_eq!(LatencyHistogram::bucket_of(edge), idx, "at edge {edge}");
            if idx + 1 < BUCKETS {
                assert_eq!(
                    LatencyHistogram::bucket_of(edge + 1),
                    idx + 1,
                    "past edge {edge}"
                );
            }
        }
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn recorded_observation_never_exceeds_its_bucket_upper() {
        // bucket_of and bucket_upper agree: every observation is <= the
        // upper bound iter_buckets reports for its bucket (the invariant
        // a Prometheus `le` rendering relies on).
        for nanos in (0..5_000_000u64).step_by(997) {
            let idx = LatencyHistogram::bucket_of(nanos);
            assert!(
                nanos <= LatencyHistogram::bucket_upper(idx) || idx == BUCKETS - 1,
                "{nanos} lands in bucket {idx} with upper {}",
                LatencyHistogram::bucket_upper(idx)
            );
            if idx > 0 {
                assert!(
                    nanos > LatencyHistogram::bucket_upper(idx - 1),
                    "{nanos} also fits bucket {}",
                    idx - 1
                );
            }
        }
    }
}
