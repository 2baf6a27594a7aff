//! Zipf-driven load generation: one driver, two entry points.
//!
//! Replays the paper's traffic assumption — power-law id popularity over
//! a frequency-sorted vocabulary (§4, §5.1) — against a running server.
//! [`drive`] owns everything that is *policy*: config validation,
//! per-client seeding (`seed + client_idx`), the weighted model pick,
//! Zipf sampling, the traffic digest, the arrival schedule, pacing, the
//! client fan-out, and the merge into one [`LoadReport`]. What it does
//! not own is *how a request is submitted*: each client thread gets a
//! closure from `connect(client_idx)` that turns `(model_idx, ids)` into
//! an [`Outcome`]. [`run_load`] connects that closure to
//! [`RouterHandle::get_batch_into`]; `memcom-net`'s `run_net_load`
//! connects it to a socket, for lookups or scores. Same config and targets
//! ⇒ same `traffic_checksum` through every one of them, so a difference
//! between two runs is the tier's, not the traffic's.
//!
//! The two arrival disciplines, stated once for every tier:
//!
//! * **Closed loop** — a client issues its next request when the
//!   previous one resolves. Latency is timed around the submit call
//!   alone. A shed's `retry_after` hint is slept *after* the outcome is
//!   recorded, so pacing never lands inside a timed interval.
//! * **Open loop** — request `k` of client `c` is due at
//!   `(c + k·clients) / target_qps` regardless of completions, and
//!   latency is measured from that *scheduled* send, so queueing delay
//!   under overload is charged to the system (no coordinated omission).
//!   Hints are recorded but never slept: the schedule is the pacing.
//!
//! Either way the run's clock starts once every client has connected:
//! thread spawns and `connect` calls (a TCP connect, for the socket
//! entry points) are the generator's cost, not latency the server owes.
//!
//! Overload rejections don't abort a run — under
//! [`crate::AdmissionPolicy::Shed`] they *are* the measurement, tallied
//! as `shed`/`expired` next to the latency of completed requests. Under
//! [`crate::AdmissionPolicy::Block`] the same traffic blocks producers
//! on full queues, silently serializing the "open" arrival process on
//! backpressure; the schedule-based latencies make that collapse
//! visible.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use memcom_data::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::EmbedBatch;
use crate::histogram::LatencyHistogram;
use crate::router::{Router, RouterHandle};
use crate::{Result, ServeError};

/// Arrival discipline for the generated load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Issue-on-completion (saturation throughput).
    Closed,
    /// Fixed aggregate arrival rate in requests/second.
    Open {
        /// Target aggregate arrival rate across all clients.
        target_qps: f64,
    },
}

/// Load-generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Ids embedded per request (`1` = point lookups; the paper's
    /// session inputs are 128-id requests, each read whole by one serving
    /// thread from every shard its ids live on).
    pub ids_per_request: usize,
    /// Zipf exponent of the id popularity distribution.
    pub zipf_exponent: f64,
    /// Arrival discipline.
    pub mode: LoadMode,
    /// Base RNG seed (client `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 4,
            requests_per_client: 1_000,
            ids_per_request: 1,
            zipf_exponent: 1.1,
            mode: LoadMode::Closed,
            seed: 42,
        }
    }
}

/// How one submitted request resolved — the only thing [`drive`] needs
/// to know about the tier it is driving. Anything that is not one of
/// these (an unknown model, a dead connection) is the submit closure's
/// `Err` and aborts the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with rows or scores; its latency is recorded.
    Served,
    /// Rejected at admission ([`ServeError::Overloaded`], or the wire's
    /// `overloaded`), carrying the server's suggested backoff.
    Shed {
        /// The server's hint (see
        /// [`crate::ServeConfig::suggested_backoff`]).
        retry_after: Duration,
    },
    /// Accepted but dropped past its deadline
    /// ([`ServeError::DeadlineExceeded`] / `deadline_exceeded`).
    Expired,
    /// Answered `shutting_down` by a draining network server; such a
    /// request never entered the router. In-process runs never produce
    /// it.
    Refused,
}

/// What a load run observed — for the whole run, and again (same type,
/// same methods) for each target's slice of it in
/// [`per_model`](Self::per_model).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The model this slice covers; on the total of a multi-model run,
    /// the target names joined by `+`.
    pub model: String,
    /// Requests that *completed* ([`Outcome::Served`]).
    pub requests: u64,
    /// Requests shed at admission ([`Outcome::Shed`]). Always `0` under
    /// [`crate::AdmissionPolicy::Block`].
    pub shed: u64,
    /// Requests accepted but expired in queue ([`Outcome::Expired`]).
    pub expired: u64,
    /// Requests a draining network server answered `shutting_down`
    /// ([`Outcome::Refused`]); always `0` in-process.
    pub refused: u64,
    /// Ids embedded per request.
    pub ids_per_request: usize,
    /// Wall-clock span of the whole run (shared across models).
    pub elapsed: Duration,
    /// Latency distribution of completed requests (p50/p95/p99 in
    /// nanoseconds via [`LatencyHistogram`]).
    pub histogram: LatencyHistogram,
    /// Mean backoff the server *suggested* per shed request. Zero when
    /// nothing was shed.
    pub mean_backoff: Duration,
    /// Total time clients spent sleeping out those hints between
    /// requests (closed loop only; never inside a timed interval).
    pub slept: Duration,
    /// Order-independent digest of the issued traffic (which target
    /// each request went to and which ids it asked for). Clients
    /// accumulate per-request hashes with wrapping adds, so thread
    /// scheduling cannot perturb it: the same config and targets
    /// reproduce the same checksum through every entry point, making
    /// loadgen regressions (Zipf sampling, weighted model picks,
    /// per-client seeding) detectable as a value change.
    pub traffic_checksum: u64,
    /// Per-target breakdown, ordered as the targets were given (one
    /// entry for a single-model run). Empty on the entries themselves.
    pub per_model: Vec<LoadReport>,
}

impl LoadReport {
    /// *Completed* requests per second.
    pub fn goodput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// Requests issued: completed + shed + expired + refused.
    pub fn offered(&self) -> u64 {
        self.requests + self.shed + self.expired + self.refused
    }

    /// Fraction of issued requests rejected instead of answered
    /// (`0.0` when nothing was issued).
    pub fn shed_rate(&self) -> f64 {
        match self.offered() {
            0 => 0.0,
            offered => (offered - self.requests) as f64 / offered as f64,
        }
    }
}

fn bad_config(context: String) -> ServeError {
    ServeError::BadConfig { context }
}

/// Spacing of the aggregate open-loop schedule (zero for closed loop).
fn arrival_tick(mode: LoadMode) -> Result<Duration> {
    let LoadMode::Open { target_qps } = mode else {
        return Ok(Duration::ZERO);
    };
    // `try_from`: a positive rate can still be so small (1e-300) that
    // its period overflows a `Duration`, which `from_secs_f64` panics on.
    match Duration::try_from_secs_f64(1.0 / target_qps) {
        Ok(tick) if target_qps.is_finite() && target_qps > 0.0 => Ok(tick),
        _ => Err(bad_config(format!(
            "open-loop target_qps must be positive with a representable period, \
             got {target_qps}"
        ))),
    }
}

/// FNV-style digest of one request's routing and payload, combined
/// across requests with wrapping adds (order-independent, so concurrent
/// clients sum to a deterministic total).
fn request_digest(model_idx: usize, ids: &[usize]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (model_idx as u64).wrapping_mul(FNV_PRIME);
    for &id in ids {
        h ^= id as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One target's running totals, per client and then merged.
#[derive(Clone, Default)]
struct Tally {
    histogram: LatencyHistogram,
    shed: u64,
    expired: u64,
    refused: u64,
    /// Sum of `retry_after` hints over shed requests.
    backoff_nanos: u64,
    checksum: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.histogram.merge(&other.histogram);
        self.shed += other.shed;
        self.expired += other.expired;
        self.refused += other.refused;
        self.backoff_nanos += other.backoff_nanos;
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }

    fn report(
        self,
        model: String,
        config: &LoadGenConfig,
        elapsed: Duration,
        per_model: Vec<LoadReport>,
    ) -> LoadReport {
        let hinted = Duration::from_nanos(self.backoff_nanos);
        LoadReport {
            model,
            requests: self.histogram.count(),
            shed: self.shed,
            expired: self.expired,
            refused: self.refused,
            ids_per_request: config.ids_per_request,
            elapsed,
            histogram: self.histogram,
            mean_backoff: Duration::from_nanos(
                self.backoff_nanos.checked_div(self.shed).unwrap_or(0),
            ),
            // A closed loop sleeps every hint it is given, an open loop
            // none.
            slept: match config.mode {
                LoadMode::Closed => hinted,
                LoadMode::Open { .. } => Duration::ZERO,
            },
            traffic_checksum: self.checksum,
            per_model,
        }
    }
}

/// The validated schedule every client thread of one run shares.
struct Plan<'a> {
    config: &'a LoadGenConfig,
    /// One id sampler per target.
    zipfs: Vec<Zipf>,
    /// Running sum of the target weights (the last entry is the total).
    cumulative: Vec<f64>,
    tick: Duration,
    /// Where every client waits, connected or not, before its first
    /// request.
    connected: Barrier,
    /// The run's epoch, stamped by the first client past `connected`.
    started: OnceLock<Instant>,
}

impl<'a> Plan<'a> {
    fn new(config: &'a LoadGenConfig, targets: &[(&str, usize, f64)]) -> Result<Self> {
        if config.clients == 0 || config.requests_per_client == 0 || config.ids_per_request == 0 {
            return Err(bad_config(
                "load generation needs >= 1 client, request, and id per request".into(),
            ));
        }
        if targets.is_empty() {
            return Err(bad_config("load generation needs >= 1 target model".into()));
        }
        let mut zipfs = Vec::with_capacity(targets.len());
        let mut cumulative = Vec::with_capacity(targets.len());
        let mut total_weight = 0.0f64;
        for &(model, vocab, weight) in targets {
            if !weight.is_finite() || weight <= 0.0 {
                return Err(bad_config(format!(
                    "model {model:?} has non-positive weight {weight}"
                )));
            }
            total_weight += weight;
            cumulative.push(total_weight);
            zipfs.push(
                Zipf::new(vocab, config.zipf_exponent)
                    .map_err(|e| bad_config(format!("zipf construction failed: {e}")))?,
            );
        }
        Ok(Plan {
            config,
            zipfs,
            cumulative,
            tick: arrival_tick(config.mode)?,
            connected: Barrier::new(config.clients),
            started: OnceLock::new(),
        })
    }

    /// The instant the open-loop schedule and `elapsed` count from.
    fn epoch(&self) -> Instant {
        *self.started.get_or_init(Instant::now)
    }

    /// When request `k` of `client_idx` starts, under the configured
    /// discipline. Open loop sleeps until the scheduled arrival and
    /// measures from it, charging queueing delay to the server, not the
    /// sleeping client.
    fn request_start(&self, epoch: Instant, client_idx: usize, k: usize) -> Instant {
        match self.config.mode {
            LoadMode::Closed => Instant::now(),
            LoadMode::Open { .. } => {
                // u32 Duration multiplication would wrap on long soaks;
                // scale in f64 seconds instead.
                let index = (client_idx + k * self.config.clients) as f64;
                let due = Duration::from_secs_f64(self.tick.as_secs_f64() * index);
                let scheduled = epoch + due;
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                scheduled
            }
        }
    }

    /// Issues one client's requests through `submit` and returns its
    /// per-target tallies.
    fn run_client<S, E>(
        &self,
        client_idx: usize,
        mut submit: S,
    ) -> std::result::Result<Vec<Tally>, E>
    where
        S: FnMut(usize, &[usize]) -> std::result::Result<Outcome, E>,
    {
        let config = self.config;
        let epoch = self.epoch();
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(client_idx as u64));
        let mut tallies = vec![Tally::default(); self.zipfs.len()];
        for k in 0..config.requests_per_client {
            let model_idx = match self.cumulative.as_slice() {
                // A single target spends no draw on the pick, so a
                // one-model mix issues exactly the socket entry points'
                // stream.
                [_] => 0,
                cumulative => {
                    let draw = rng.gen::<f64>() * cumulative[cumulative.len() - 1];
                    cumulative
                        .iter()
                        .position(|&c| draw < c)
                        .unwrap_or(cumulative.len() - 1)
                }
            };
            let ids = self.zipfs[model_idx].sample_many(config.ids_per_request, &mut rng);
            let tally = &mut tallies[model_idx];
            tally.checksum = tally.checksum.wrapping_add(request_digest(model_idx, &ids));
            let t0 = self.request_start(epoch, client_idx, k);
            let outcome = submit(model_idx, &ids)?;
            let latency_nanos = t0.elapsed().as_nanos() as u64;
            match outcome {
                Outcome::Served => tally.histogram.record(latency_nanos),
                Outcome::Shed { retry_after } => {
                    tally.shed += 1;
                    tally.backoff_nanos += retry_after.as_nanos().min(u64::MAX as u128) as u64;
                    // Cooperative pacing instead of hammering the
                    // admission gate — but only where the client owns
                    // its pacing; an open loop keeps its schedule.
                    if config.mode == LoadMode::Closed {
                        std::thread::sleep(retry_after);
                    }
                }
                Outcome::Expired => tally.expired += 1,
                Outcome::Refused => tally.refused += 1,
            }
        }
        Ok(tallies)
    }
}

/// Runs `config`'s traffic against `targets` — `(model name, vocabulary
/// size, relative weight)` each — on `config.clients` threads. Client
/// `i` calls `connect(i)` once, on its own thread, for the closure that
/// submits its requests: `(target index, ids) -> Outcome`. See the
/// module docs for everything the driver decides on the closure's
/// behalf.
///
/// # Errors
///
/// [`ServeError::BadConfig`] (through `E::from`) for a zero
/// client/request/id count, no targets, a non-positive weight or Zipf
/// exponent, an empty vocabulary, or an unusable open-loop rate;
/// otherwise the first `Err` any `connect` or submit call returned.
pub fn drive<C, S, E>(
    config: &LoadGenConfig,
    targets: &[(&str, usize, f64)],
    connect: C,
) -> std::result::Result<LoadReport, E>
where
    C: Fn(usize) -> std::result::Result<S, E> + Sync,
    S: FnMut(usize, &[usize]) -> std::result::Result<Outcome, E>,
    E: From<ServeError> + Send,
{
    let plan = Plan::new(config, targets)?;
    let clients: Vec<std::result::Result<Vec<Tally>, E>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.clients)
            .map(|client_idx| {
                let (plan, connect) = (&plan, &connect);
                scope.spawn(move || {
                    let submit = connect(client_idx);
                    // A failed connect still arrives, or the rest hang.
                    plan.connected.wait();
                    plan.run_client(client_idx, submit?)
                })
            })
            .collect();
        workers
            .into_iter()
            // A panic here is a bug in the load generator itself, not a
            // serving failure — propagate it rather than mislabel it.
            .map(|w| w.join().expect("load-generator client panicked"))
            .collect()
    });
    let elapsed = plan.epoch().elapsed();

    let mut merged = vec![Tally::default(); targets.len()];
    for client in clients {
        for (into, from) in merged.iter_mut().zip(&client?) {
            into.merge(from);
        }
    }
    let mut total = Tally::default();
    let mut per_model = Vec::with_capacity(targets.len());
    for (tally, &(model, ..)) in merged.into_iter().zip(targets) {
        total.merge(&tally);
        per_model.push(tally.report(model.to_string(), config, elapsed, Vec::new()));
    }
    let names: Vec<&str> = targets.iter().map(|&(model, ..)| model).collect();
    Ok(total.report(names.join("+"), config, elapsed, per_model))
}

/// A client's submit closure over in-process handles (one per target):
/// every request rides the zero-copy slab path into one reused
/// [`EmbedBatch`].
fn submit_in_process(
    handles: &[RouterHandle],
) -> impl FnMut(usize, &[usize]) -> Result<Outcome> + '_ {
    let mut batch = EmbedBatch::new();
    move |model_idx, ids| match handles[model_idx].get_batch_into(ids, &mut batch) {
        Ok(()) => Ok(Outcome::Served),
        Err(ServeError::Overloaded { retry_after, .. }) => Ok(Outcome::Shed { retry_after }),
        Err(ServeError::DeadlineExceeded { .. }) => Ok(Outcome::Expired),
        Err(e) => Err(e),
    }
}

/// Runs Zipf traffic against a [`Router`]'s models: each request picks
/// its target from `mix` — `(registered model name, relative weight)`,
/// any positive scale — and samples that model's own Zipf id
/// distribution. A one-model run is a one-element mix; a longer one is
/// the multi-model analogue of production traffic where per-country or
/// A/B table variants share one serving tier.
/// [`LoadReport::per_model`] is ordered as `mix`.
///
/// # Errors
///
/// As [`drive`], plus [`ServeError::ModelNotFound`] for unregistered
/// mix entries; any request failure other than an overload rejection
/// aborts the run.
pub fn run_load(
    router: &Router,
    mix: &[(&str, f64)],
    config: &LoadGenConfig,
) -> Result<LoadReport> {
    let handles: Vec<RouterHandle> = mix
        .iter()
        .map(|&(model, _)| router.handle(model))
        .collect::<Result<_>>()?;
    let targets: Vec<(&str, usize, f64)> = mix
        .iter()
        .zip(&handles)
        .map(|(&(model, weight), handle)| (model, handle.vocab(), weight))
        .collect();
    drive(config, &targets, |_| Ok(submit_in_process(&handles)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, DEFAULT_MODEL};
    use memcom_core::{MemCom, MemComConfig};

    const ONE: &[(&str, f64)] = &[(DEFAULT_MODEL, 1.0)];

    fn test_router() -> Router {
        let mut rng = StdRng::seed_from_u64(9);
        let emb = MemCom::new(MemComConfig::new(1_000, 8, 100), &mut rng).unwrap();
        let config = ServeConfig {
            n_shards: 4,
            max_batch: 16,
            ..ServeConfig::default()
        };
        let router = Router::start(config).unwrap();
        router.register(DEFAULT_MODEL, &emb).unwrap();
        router
    }

    #[test]
    fn closed_loop_completes_all_requests() {
        let router = test_router();
        let config = LoadGenConfig {
            clients: 4,
            requests_per_client: 200,
            ..LoadGenConfig::default()
        };
        let report = run_load(&router, ONE, &config).unwrap();
        assert_eq!(report.requests, 800);
        // Blocking admission: nothing shed or expired, offered ==
        // completed.
        assert_eq!(report.shed, 0);
        assert_eq!(report.expired, 0);
        assert_eq!(report.offered(), 800);
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.per_model[0].offered(), 800);
        assert_eq!(report.per_model[0].shed_rate(), 0.0);
        assert!(report.goodput() > 0.0);
        assert!(report.histogram.p50() > 0);
        assert!(report.histogram.p99() >= report.histogram.p50());
        assert_eq!(report.per_model.len(), 1);
        assert_eq!(report.per_model[0].requests, 800);
        let stats = router.stats(DEFAULT_MODEL).unwrap();
        assert_eq!(stats.requests, 800);
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let router = test_router();
        let config = LoadGenConfig {
            clients: 2,
            requests_per_client: 50,
            mode: LoadMode::Open {
                target_qps: 2_000.0,
            },
            ..LoadGenConfig::default()
        };
        let report = run_load(&router, ONE, &config).unwrap();
        assert_eq!(report.requests, 100);
        // 100 requests at 2 kQPS should take ≈ 50 ms of schedule.
        assert!(
            report.elapsed >= Duration::from_millis(40),
            "{:?}",
            report.elapsed
        );
        // Achieved rate must not exceed the offered rate (plus slack).
        assert!(report.goodput() <= 2_600.0, "qps {}", report.goodput());
    }

    #[test]
    fn degenerate_configs_rejected() {
        let router = test_router();
        for config in [
            LoadGenConfig {
                clients: 0,
                ..LoadGenConfig::default()
            },
            LoadGenConfig {
                requests_per_client: 0,
                ..LoadGenConfig::default()
            },
            LoadGenConfig {
                ids_per_request: 0,
                ..LoadGenConfig::default()
            },
            LoadGenConfig {
                zipf_exponent: 0.0,
                ..LoadGenConfig::default()
            },
            LoadGenConfig {
                mode: LoadMode::Open { target_qps: 0.0 },
                ..LoadGenConfig::default()
            },
            // A positive rate whose period overflows a `Duration`.
            LoadGenConfig {
                mode: LoadMode::Open { target_qps: 1e-300 },
                ..LoadGenConfig::default()
            },
        ] {
            assert!(run_load(&router, ONE, &config).is_err(), "{config:?}");
        }
    }

    fn two_model_router() -> Router {
        let mut rng = StdRng::seed_from_u64(31);
        let a = MemCom::new(MemComConfig::new(1_000, 8, 100), &mut rng).unwrap();
        let b = MemCom::new(MemComConfig::new(500, 8, 50), &mut rng).unwrap();
        let router = Router::start(ServeConfig {
            n_shards: 2,
            max_batch: 16,
            ..ServeConfig::default()
        })
        .unwrap();
        router.register("a", &a).unwrap();
        router.register("b", &b).unwrap();
        router
    }

    #[test]
    fn mixed_load_reports_per_model() {
        let router = two_model_router();
        let mix = [("a", 3.0), ("b", 1.0)];
        let config = LoadGenConfig {
            clients: 2,
            requests_per_client: 400,
            ids_per_request: 4,
            ..LoadGenConfig::default()
        };
        let report = run_load(&router, &mix, &config).unwrap();
        assert_eq!(report.requests, 800);
        assert_eq!(report.per_model.len(), 2);
        let (a, b) = (&report.per_model[0], &report.per_model[1]);
        assert_eq!(a.model, "a");
        assert_eq!(b.model, "b");
        assert_eq!(a.requests + b.requests, 800);
        // 3:1 weights: a should clearly dominate (allowing sampling noise).
        assert!(
            a.requests > 2 * b.requests,
            "expected ~3:1 split, got {}:{}",
            a.requests,
            b.requests
        );
        assert!(a.goodput() > 0.0 && b.goodput() > 0.0);
        assert!(a.histogram.p99() >= a.histogram.p50());
        // Server-side per-model accounting saw the same totals (in rows).
        let stats_a = router.stats("a").unwrap();
        let stats_b = router.stats("b").unwrap();
        assert_eq!(
            stats_a.requests + stats_b.requests,
            800 * config.ids_per_request as u64
        );
    }

    #[test]
    fn mixed_load_is_deterministic_for_a_seed() {
        // Same seed ⇒ identical traffic: total and per-model request
        // counts and the order-independent id/model checksum all match
        // across two runs (latency histograms are timing-dependent and
        // deliberately excluded). Guards the Zipf sampling, the weighted
        // model pick, and the per-client seeding against silent drift.
        let router = two_model_router();
        let mix = [("a", 2.0), ("b", 1.0)];
        let config = LoadGenConfig {
            clients: 3,
            requests_per_client: 150,
            ids_per_request: 3,
            ..LoadGenConfig::default()
        };
        let first = run_load(&router, &mix, &config).unwrap();
        let second = run_load(&router, &mix, &config).unwrap();
        assert_eq!(first.traffic_checksum, second.traffic_checksum);
        assert_ne!(first.traffic_checksum, 0);
        assert_eq!(first.requests, second.requests);
        assert_eq!(first.ids_per_request, second.ids_per_request);
        for (a, b) in first.per_model.iter().zip(&second.per_model) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.requests, b.requests, "model {}", a.model);
            assert_eq!(a.traffic_checksum, b.traffic_checksum);
        }

        // A different seed must actually change the traffic.
        let reseeded = run_load(
            &router,
            &mix,
            &LoadGenConfig {
                seed: config.seed + 1,
                ..config
            },
        )
        .unwrap();
        assert_ne!(first.traffic_checksum, reseeded.traffic_checksum);
    }

    #[test]
    fn mixed_load_accounts_shed_per_model() {
        use crate::AdmissionPolicy;
        // A wedged 1-shard router: depth-1 queue behind a 50ms
        // simulated store read, rejecting overflow immediately. Four
        // closed-loop clients (more than queue + in-flight batch) must
        // shed most of their traffic, and every rejection must be
        // attributed to the right model.
        let mut rng = StdRng::seed_from_u64(77);
        let a = MemCom::new(MemComConfig::new(500, 8, 50), &mut rng).unwrap();
        let b = MemCom::new(MemComConfig::new(500, 8, 50), &mut rng).unwrap();
        let router = Router::start(ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            store_latency: Duration::from_millis(50),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: None,
            },
            ..ServeConfig::default()
        })
        .unwrap();
        router.register("a", &a).unwrap();
        router.register("b", &b).unwrap();
        let mix = [("a", 1.0), ("b", 1.0)];
        let config = LoadGenConfig {
            clients: 4,
            requests_per_client: 25,
            ..LoadGenConfig::default()
        };
        let report = run_load(&router, &mix, &config).unwrap();
        assert_eq!(report.offered(), 100, "every issued request accounted");
        assert!(report.shed > 0, "the wedged router must shed");
        assert!(report.shed_rate() > 0.0);
        // Per-model splits sum to the totals and reconcile with the
        // router's own counters (single-id requests: rows == requests).
        let (ma, mb) = (&report.per_model[0], &report.per_model[1]);
        assert_eq!(ma.shed + mb.shed, report.shed);
        assert_eq!(ma.expired + mb.expired, report.expired);
        assert_eq!(ma.offered() + mb.offered(), 100);
        let stats_a = router.stats("a").unwrap();
        let stats_b = router.stats("b").unwrap();
        assert_eq!(stats_a.shed, ma.shed);
        assert_eq!(stats_b.shed, mb.shed);
        assert_eq!(stats_a.requests, ma.requests);
        assert_eq!(stats_b.requests, mb.requests);
    }

    #[test]
    fn mixed_load_rejects_bad_mixes() {
        let router = two_model_router();
        let config = LoadGenConfig {
            clients: 1,
            requests_per_client: 10,
            ..LoadGenConfig::default()
        };
        assert!(matches!(
            run_load(&router, &[], &config),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(matches!(
            run_load(&router, &[("a", 0.0)], &config),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(matches!(
            run_load(&router, &[("nope", 1.0)], &config),
            Err(ServeError::ModelNotFound { .. })
        ));
    }

    fn open_loop(clients: usize) -> LoadGenConfig {
        LoadGenConfig {
            clients,
            requests_per_client: 5,
            mode: LoadMode::Open {
                target_qps: 1_000.0,
            },
            ..LoadGenConfig::default()
        }
    }

    #[test]
    fn open_loop_clock_starts_after_every_client_connected() {
        // A 50 ms connect in front of an instant server: the schedule
        // must count from the moment the clients exist, or every first
        // request reads as 50 ms late.
        let report = drive(&open_loop(2), &[("m", 100, 1.0)], |_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok::<_, ServeError>(|_: usize, _: &[usize]| Ok(Outcome::Served))
        })
        .unwrap();
        assert_eq!(report.requests, 10);
        assert!(
            report.histogram.max_nanos() < 25_000_000,
            "connect time charged as latency: max {} ns",
            report.histogram.max_nanos()
        );
    }

    #[test]
    fn a_failed_connect_fails_the_run_without_hanging_the_others() {
        let result = drive(&open_loop(3), &[("m", 100, 1.0)], |client_idx| {
            if client_idx == 1 {
                return Err(ServeError::ShuttingDown);
            }
            Ok(|_: usize, _: &[usize]| Ok(Outcome::Served))
        });
        assert!(matches!(result, Err(ServeError::ShuttingDown)));
    }
}
