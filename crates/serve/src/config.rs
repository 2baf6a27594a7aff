//! Serving configuration.

use std::time::Duration;

use crate::{Result, ServeError};

/// What happens when a shard queue is full at enqueue time — the
/// overload policy of the serving tier.
///
/// The default, [`Block`](AdmissionPolicy::Block), gives natural
/// backpressure: producers wait for queue space, which is the right
/// behavior for cooperating in-process callers but silently converts an
/// *open-loop* arrival process into a closed loop under sustained
/// overload (every producer serializes on the queue — the classic
/// coordinated-omission trap). [`Shed`](AdmissionPolicy::Shed) bounds
/// both sides instead: a producer waits at most `enqueue_timeout` for
/// space (then fails fast with [`ServeError::Overloaded`]), and a
/// request that sat in its queue past `request_deadline` is dropped at
/// dequeue with [`ServeError::DeadlineExceeded`] rather than burning a
/// store read on an answer nobody is still waiting for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Producers block while the queue is full (backpressure). No
    /// request is ever shed or expired.
    #[default]
    Block,
    /// Deadline-aware load shedding.
    Shed {
        /// Longest a producer waits for queue space before the request
        /// is shed with [`ServeError::Overloaded`]. `Duration::ZERO`
        /// means reject immediately when full.
        enqueue_timeout: Duration,
        /// End-to-end time budget, measured from the moment a request
        /// is issued (before any admission wait): a serve turn that
        /// dequeues a request older than this drops it with
        /// [`ServeError::DeadlineExceeded`] instead of serving it. The
        /// budget covers the admission wait too (the caller has been
        /// waiting that whole time). `None` disables the dequeue-side
        /// check (admission-only shedding).
        request_deadline: Option<Duration>,
    },
}

impl AdmissionPolicy {
    /// Whether this policy can shed requests at admission.
    pub fn sheds(&self) -> bool {
        matches!(self, AdmissionPolicy::Shed { .. })
    }
}

/// How much the serving tier measures about itself.
///
/// The always-on counters (per-model rows, control plane) are exported
/// at both levels; the level decides whether anything is *timed*.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// No telemetry (the default). The hot path pays nothing beyond the
    /// always-on counters — no extra clock reads, no histogram records,
    /// no tracing.
    #[default]
    Off,
    /// Everything: per-stage latency histograms (admission wait, queue
    /// wait, store decode per dtype, forward, slab write; the batch
    /// assembly stage stays empty, since no serve turn holds a batch open)
    /// and sampled request tracing. Costs a few clock reads per batch and
    /// one short uncontended lock per batch per shard.
    Full,
}

/// Telemetry knobs for [`ServeConfig`] (see [`crate::telemetry`]).
///
/// The default is [`TelemetryLevel::Off`]: serving pays nothing for the
/// instrumentation it is not using. Turning on [`TelemetryLevel::Full`]
/// additionally samples request traces at `sample_rate` (every k-th
/// request with `k = round(1 / sample_rate)`, so sampling needs no
/// random-number source on the hot path); completed spans are kept in a
/// 256-span most-recent ring plus the 32 slowest ever seen.
///
/// ```
/// use memcom_serve::{ServeConfig, TelemetryConfig, TelemetryLevel};
///
/// let config = ServeConfig {
///     telemetry: TelemetryConfig::full(0.05), // trace ~1 in 20 requests
///     ..ServeConfig::default()
/// };
/// assert_eq!(config.telemetry.level, TelemetryLevel::Full);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// What to record (default [`TelemetryLevel::Off`]).
    pub level: TelemetryLevel,
    /// Fraction of requests stamped with a trace span in `[0, 1]`, used
    /// only at [`TelemetryLevel::Full`]. `0` disables tracing while
    /// keeping the stage histograms.
    pub sample_rate: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Off,
            sample_rate: 0.01,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off (the default).
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// Everything on ([`TelemetryLevel::Full`]) with the given trace
    /// sample rate.
    pub fn full(sample_rate: f64) -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Full,
            sample_rate,
        }
    }

    /// Validates the telemetry knobs (see [`ServeConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] when `sample_rate` is not a
    /// finite value in `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !self.sample_rate.is_finite() || !(0.0..=1.0).contains(&self.sample_rate) {
            return Err(ServeError::BadConfig {
                context: format!(
                    "telemetry sample_rate must be in [0, 1], got {}",
                    self.sample_rate
                ),
            });
        }
        Ok(())
    }
}

/// Tuning knobs for [`crate::Router`].
///
/// Defaults are sized for the workloads in this repository's examples:
/// 4 shards, micro-batches of up to 32 of whatever is queued when a
/// shard is served (it never waits for a batch to fill), a 4 096-deep
/// bounded queue per shard, blocking admission, and no simulated store
/// latency. The storage dtype is not a server-wide knob:
/// [`crate::Router::register`] stores fp32 and
/// [`crate::Router::register_with_dtype`] names the dtype per model.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of shards: one queue and one serve turn per shard, and no
    /// thread. A request pushed onto an idle shard is served on the
    /// submitting thread; what queues while the shard is busy is served
    /// batch by batch, each batch on the thread of its oldest request.
    pub n_shards: usize,
    /// Most queued requests one serve turn takes into a batch.
    pub max_batch: usize,
    /// Read by nothing: a serve turn takes whatever is queued and never
    /// holds a batch open. A vestige kept because frozen `crates/perf`
    /// names the field (ROADMAP item 1(f) removes it with its reader).
    pub max_wait: Duration,
    /// Bounded depth of each shard's request queue (producers block when
    /// full — natural backpressure under overload).
    pub queue_depth: usize,
    /// Read by nothing: the store has no cache. A vestige kept because
    /// frozen `crates/perf` names the field (ROADMAP item 1(f) removes
    /// it with its reader).
    pub cache_capacity: usize,
    /// Page size of each shard's [`memcom_ondevice::PagedTable`]s (the
    /// lazily-resident pages the on-device engine also runs on).
    pub page_size: usize,
    /// Overload policy: what happens when a shard queue is full at
    /// enqueue time, and whether queued requests carry a deadline.
    pub admission: AdmissionPolicy,
    /// Simulated backing-store service time, charged once per flushed
    /// batch before the serving thread touches its store. The in-memory
    /// [`memcom_ondevice::PagedTable`] costs nanoseconds per row, so a real
    /// on-device backing store (flash/NVMe page reads) is modeled here;
    /// a non-zero value gives each shard a calibrated service capacity
    /// of `max_batch / store_latency` rows per second, which is what
    /// makes overload experiments (offered load vs goodput) meaningful.
    /// `Duration::ZERO` (the default) disables the simulation.
    pub store_latency: Duration,
    /// What the serving tier measures about itself (default: nothing).
    /// See [`TelemetryConfig`] and [`crate::telemetry`].
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_shards: 4,
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_depth: 4096,
            cache_capacity: 1024,
            page_size: memcom_ondevice::pages::DEFAULT_PAGE_SIZE,
            admission: AdmissionPolicy::Block,
            store_latency: Duration::ZERO,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// A config with `n_shards` shards and defaults elsewhere.
    pub fn with_shards(n_shards: usize) -> Self {
        ServeConfig {
            n_shards,
            ..ServeConfig::default()
        }
    }

    /// A config with deadline-aware shedding
    /// ([`AdmissionPolicy::Shed`]) and defaults elsewhere.
    pub fn with_shedding(enqueue_timeout: Duration, request_deadline: Option<Duration>) -> Self {
        ServeConfig {
            admission: AdmissionPolicy::Shed {
                enqueue_timeout,
                request_deadline,
            },
            ..ServeConfig::default()
        }
    }

    /// Suggested client backoff after an admission rejection observing
    /// `queued_requests` in the shard's queue: the backlog ahead of a
    /// retry divided by the shard's calibrated capacity (`max_batch`
    /// requests per `store_latency`) — i.e. the queue
    /// (plus the batch in flight) expressed in batch service times.
    /// Queue depth and `max_batch` are both in request units, so the
    /// ratio is well-defined regardless of how many ids each request
    /// carries. Without a simulated store latency the router knows no
    /// service time, so it gives no hint: `Duration::ZERO`.
    pub fn suggested_backoff(&self, queued_requests: usize) -> Duration {
        if self.store_latency.is_zero() {
            return Duration::ZERO;
        }
        let batches_ahead = queued_requests.div_ceil(self.max_batch) + 1;
        self.store_latency
            .saturating_mul(u32::try_from(batches_ahead).unwrap_or(u32::MAX))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero shard count, batch
    /// size, queue depth, or page size, or for a shedding policy with a
    /// zero `request_deadline` (every request would expire before any
    /// serve turn could dequeue it).
    pub fn validate(&self) -> Result<()> {
        let reject = |context: &str| {
            Err(ServeError::BadConfig {
                context: context.to_string(),
            })
        };
        if self.n_shards == 0 {
            return reject("n_shards must be >= 1");
        }
        if self.max_batch == 0 {
            return reject("max_batch must be >= 1");
        }
        if self.queue_depth == 0 {
            return reject("queue_depth must be >= 1");
        }
        if self.page_size == 0 {
            return reject("page_size must be >= 1");
        }
        if let AdmissionPolicy::Shed {
            request_deadline: Some(deadline),
            ..
        } = self.admission
        {
            if deadline.is_zero() {
                return reject("request_deadline must be positive when set");
            }
        }
        self.telemetry.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
        assert_eq!(ServeConfig::with_shards(8).n_shards, 8);
        assert_eq!(ServeConfig::default().admission, AdmissionPolicy::Block);
        assert_eq!(ServeConfig::default().store_latency, Duration::ZERO);
    }

    #[test]
    fn shedding_constructor_and_validation() {
        let shed =
            ServeConfig::with_shedding(Duration::from_micros(100), Some(Duration::from_millis(5)));
        assert!(shed.admission.sheds());
        assert!(!AdmissionPolicy::Block.sheds());
        assert!(shed.validate().is_ok());
        // A zero enqueue budget (reject-when-full) is legal…
        assert!(ServeConfig::with_shedding(Duration::ZERO, None)
            .validate()
            .is_ok());
        // …but a zero request deadline would expire everything unserved.
        assert!(matches!(
            ServeConfig::with_shedding(Duration::ZERO, Some(Duration::ZERO)).validate(),
            Err(ServeError::BadConfig { .. })
        ));
    }

    #[test]
    fn capacity_and_backoff_derivation() {
        let config = ServeConfig {
            max_batch: 8,
            store_latency: Duration::from_millis(2),
            ..ServeConfig::default()
        };
        // Queue depth ÷ capacity, plus the in-flight batch.
        assert_eq!(
            config.suggested_backoff(0),
            Duration::from_millis(2),
            "empty queue: one batch service time"
        );
        assert_eq!(config.suggested_backoff(8), Duration::from_millis(4));
        assert_eq!(config.suggested_backoff(17), Duration::from_millis(8));
        // Without a simulated store read there is no calibrated
        // capacity and no known service time, so no hint.
        let uncalibrated = ServeConfig::default();
        assert_eq!(uncalibrated.suggested_backoff(4_096), Duration::ZERO);
    }

    #[test]
    fn rejects_degenerate_knobs() {
        for broken in [
            ServeConfig {
                n_shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                page_size: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?} should be rejected");
        }
    }

    #[test]
    fn telemetry_defaults_and_validation() {
        let t = TelemetryConfig::default();
        assert_eq!(t.level, TelemetryLevel::Off);
        assert_eq!(ServeConfig::default().telemetry, TelemetryConfig::off());
        let full = TelemetryConfig::full(0.25);
        assert_eq!(full.level, TelemetryLevel::Full);
        assert_eq!(full.sample_rate, 0.25);
        assert!(TelemetryLevel::Off < TelemetryLevel::Full);
        // Edge rates are legal; out-of-range and non-finite are not.
        assert!(TelemetryConfig::full(0.0).validate().is_ok());
        assert!(TelemetryConfig::full(1.0).validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let config = ServeConfig {
                telemetry: TelemetryConfig::full(bad),
                ..ServeConfig::default()
            };
            assert!(matches!(
                config.validate(),
                Err(ServeError::BadConfig { .. })
            ));
        }
    }
}
