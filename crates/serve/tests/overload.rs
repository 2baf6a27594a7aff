//! Overload semantics, end to end: under a saturating open loop the
//! `Shed` admission policy must serve no request that waited in its
//! queue past the deadline and report a non-zero shed rate, while
//! `Block` on the same traffic shows the unbounded queueing-latency
//! growth of blocked producers (the coordinated-omission failure the
//! shed policy exists to avoid).
//! Expired requests must fail loudly at dequeue, shutdown must answer
//! every accepted request, and client-side load-report counters must
//! reconcile with the router's server-side counters.
//!
//! Capacity engineering: `store_latency` charges a simulated backing-
//! store read per flushed batch, so a shard serves at most
//! `max_batch / store_latency` rows per second — which makes "offered
//! load ≥ 2× capacity" a configuration, not a race against the host.

use std::time::Duration;

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
use memcom_serve::{
    run_load, AdmissionPolicy, EmbedBatch, LoadGenConfig, LoadMode, Router, ServeConfig,
    ServeError, TelemetryConfig, DEFAULT_MODEL,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ONE: &[(&str, f64)] = &[(DEFAULT_MODEL, 1.0)];

fn memcom(seed: u64) -> MemCom {
    let mut rng = StdRng::seed_from_u64(seed);
    MemCom::new(MemComConfig::new(1_000, 8, 100), &mut rng).unwrap()
}

fn start(emb: &dyn EmbeddingCompressor, config: ServeConfig) -> memcom_serve::Result<Router> {
    let router = Router::start(config)?;
    router.register(DEFAULT_MODEL, emb)?;
    Ok(router)
}

/// The acceptance-criteria test: one saturating open-loop traffic
/// pattern (offered = 4× capacity), served once under `Shed` and once
/// under `Block`.
#[test]
fn shed_bounds_p99_where_block_collapses() {
    // Capacity: 1 shard × max_batch 4 / store_latency 4ms = 1 000 rows/s.
    const CAPACITY_QPS: f64 = 1_000.0;
    let deadline = Duration::from_millis(25);
    let store_latency = Duration::from_millis(4);
    let base = ServeConfig {
        n_shards: 1,
        max_batch: 4,
        queue_depth: 8,
        store_latency,
        ..ServeConfig::default()
    };
    // Offered: 4× capacity, paced by 32 open-loop clients. Each client
    // is sequential, so only clients beyond the 12 the queue (8) and the
    // batch in service (4) can hold find the queue full: there must be
    // more of them, or Shed sheds only when a client beats the serving
    // thread's next pop (and Block never really wedges producers).
    let load = LoadGenConfig {
        clients: 32,
        requests_per_client: 40,
        ids_per_request: 1,
        zipf_exponent: 1.1,
        mode: LoadMode::Open {
            target_qps: 4.0 * CAPACITY_QPS,
        },
        seed: 7,
    };
    let offered_total = (load.clients * load.requests_per_client) as u64;

    let emb = memcom(3);

    // --- Shed: producers never wait past their budget ---------------
    let router = start(
        &emb,
        ServeConfig {
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: Some(deadline),
            },
            // Full telemetry records every dequeued request's queue wait.
            telemetry: TelemetryConfig::full(0.01),
            ..base.clone()
        },
    )
    .unwrap();
    let shed_report = run_load(&router, ONE, &load).unwrap();
    let queue_wait = router.metrics().stages.remove(0).queue_wait;
    let shed_stats = router.shutdown().remove(0).1;

    // Every issued request is accounted for: completed + shed + expired.
    assert_eq!(shed_report.offered(), offered_total);
    assert!(
        shed_report.shed > 0,
        "4x-capacity traffic against a depth-8 queue must shed"
    );
    assert!(shed_report.shed_rate() > 0.25, "most overflow is shed");
    // Goodput plateaus at capacity instead of collapsing.
    assert!(
        shed_report.goodput() > 0.4 * CAPACITY_QPS,
        "goodput {:.0} too far below capacity",
        shed_report.goodput()
    );
    assert!(
        shed_report.goodput() < 1.4 * CAPACITY_QPS,
        "goodput {:.0} cannot exceed capacity",
        shed_report.goodput()
    );
    // Shed's bound, where the policy enforces it: a serving thread serves
    // a request only if it dequeues it inside `request_deadline`. Every
    // dequeued request's wait is recorded; those in buckets wholly past
    // the deadline must all have expired, so no served request waited
    // past it. (A served request's latency from its *scheduled* send
    // would add the sequential client's own lag behind its schedule.)
    assert_eq!(
        queue_wait.count(),
        shed_stats.requests + shed_stats.expired,
        "every dequeued request's wait is recorded"
    );
    let deadline_nanos = deadline.as_nanos() as u64;
    let mut lower_edge = 0;
    let waited_past_deadline: u64 = queue_wait
        .iter_buckets()
        .map(|(upper_edge, count)| {
            let past = lower_edge >= deadline_nanos;
            lower_edge = upper_edge;
            if past {
                count
            } else {
                0
            }
        })
        .sum();
    assert!(
        waited_past_deadline <= shed_stats.expired,
        "{waited_past_deadline} requests waited past {deadline:?}, only {} expired",
        shed_stats.expired
    );
    // Client-side tallies reconcile with the router's counters
    // (single-id requests, so rows == requests).
    assert_eq!(shed_stats.requests, shed_report.requests);
    assert_eq!(shed_stats.shed, shed_report.shed);
    assert_eq!(shed_stats.expired, shed_report.expired);
    let model = &shed_report.per_model[0];
    assert_eq!(model.shed, shed_report.shed);
    assert_eq!(model.expired, shed_report.expired);
    assert_eq!(model.offered(), offered_total);
    assert!((model.shed_rate() - shed_report.shed_rate()).abs() < 1e-9);

    // --- Block: the same traffic turns the open loop closed ---------
    let router = start(&emb, base).unwrap();
    let block_report = run_load(&router, ONE, &load).unwrap();
    let block_stats = router.shutdown().remove(0).1;

    // Identical issued traffic (same seed), radically different fate.
    assert_eq!(block_report.traffic_checksum, shed_report.traffic_checksum);
    assert_eq!(block_report.shed, 0, "Block never sheds");
    assert_eq!(block_report.expired, 0, "Block never expires");
    assert_eq!(block_report.requests, offered_total, "Block answers all");
    assert_eq!(block_stats.shed, 0);
    assert_eq!(block_stats.expired, 0);
    // Blocked producers serialize on backpressure: scheduled-send p99
    // grows with the backlog (~1 s here: 1 280 requests at 1 000 rows/s
    // against a 0.32 s schedule), far past the deadline Shed enforces.
    let block_p99 = Duration::from_nanos(block_report.histogram.p99());
    assert!(
        block_p99 >= 4 * deadline,
        "block p99 {block_p99:?} should dwarf the {deadline:?} deadline"
    );
}

/// Runs `probe` while a blocker request holds the only shard's serving
/// thread asleep in its `store_latency` read, so whatever the probe enqueues ages behind
/// it.
fn behind_blocker<T>(router: &Router, probe: impl FnOnce() -> T) -> T {
    let batches = || router.stats(DEFAULT_MODEL).unwrap().batches;
    let before = batches();
    std::thread::scope(|scope| {
        let blocker = router.handle(DEFAULT_MODEL).unwrap();
        scope.spawn(move || blocker.get(0).unwrap());
        // `batches` counts a batch before its store read.
        while batches() == before {
            std::thread::yield_now();
        }
        probe()
    })
}

/// A request whose deadline passes while it waits in the queue is
/// answered with `DeadlineExceeded` at dequeue — never silence, and
/// never a wasted store read.
#[test]
fn expired_requests_fail_at_dequeue_not_silently() {
    let emb = memcom(5);
    let deadline = Duration::from_millis(25);
    // Each probe queues behind a blocker served for 100ms —
    // far past the probe's 25ms deadline.
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 512,
            store_latency: Duration::from_millis(100),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::from_secs(5),
                request_deadline: Some(deadline),
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();

    // Single-id path.
    match behind_blocker(&router, || handle.get(3)) {
        Err(ServeError::DeadlineExceeded {
            queued,
            deadline: reported,
        }) => {
            assert_eq!(reported, deadline);
            assert!(queued >= deadline, "queued {queued:?} < {deadline:?}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = router.stats(DEFAULT_MODEL).unwrap();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.requests, 1, "no store read for a dead request");

    // Slab paths expire identically (and count in rows).
    assert!(matches!(
        behind_blocker(&router, || handle.get_many(&[1, 2, 3])),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let mut batch = EmbedBatch::new();
    assert!(matches!(
        behind_blocker(&router, || handle.get_batch_into(&[4, 5, 6], &mut batch)),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let stats = router.shutdown().remove(0).1;
    assert_eq!(stats.expired, 7);
    assert_eq!(stats.requests, 3, "the three blockers' rows only");
}

/// The admission reject is a typed, budget-stamped error, surfaced
/// after exactly the configured enqueue wait.
#[test]
fn shed_rejection_reports_the_enqueue_budget() {
    let emb = memcom(9);
    let enqueue_timeout = Duration::from_millis(5);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            // Wedge the serving thread: the first flush sleeps 400ms, so the
            // queue stays occupied while we probe the reject path.
            store_latency: Duration::from_millis(400),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    std::thread::scope(|scope| {
        let wedger = handle.clone();
        scope.spawn(move || wedger.get(0).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        let parker = handle.clone();
        scope.spawn(move || parker.get(1).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        // Queue full, serving thread asleep: this push waits out its budget,
        // then sheds.
        let t0 = std::time::Instant::now();
        match handle.get(2) {
            Err(ServeError::Overloaded {
                waited,
                retry_after,
            }) => {
                assert_eq!(waited, enqueue_timeout);
                // Queue depth 1 ÷ capacity (max_batch 1 / 400ms store
                // read), plus the wedged in-flight batch: 2 batch
                // service times of suggested backoff.
                assert_eq!(retry_after, Duration::from_millis(800));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let elapsed = t0.elapsed();
        assert!(elapsed >= enqueue_timeout, "returned early: {elapsed:?}");
        assert!(
            elapsed < Duration::from_millis(200),
            "blocked past the budget: {elapsed:?}"
        );
    });
    let stats = router.shutdown().remove(0).1;
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.requests, 2, "wedger and parker were served");
}

/// A lookup whose ids span every shard is one request on its first id's
/// shard, admitted or shed whole: shed, all its rows count as shed and
/// none as served — `requests + shed + expired` equals the rows issued.
#[test]
fn a_shed_lookup_spanning_shards_counts_every_row_shed() {
    let emb = memcom(13);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 3,
            max_batch: 1,
            queue_depth: 1,
            // Wedge window: each flush sleeps 300ms.
            store_latency: Duration::from_millis(300),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    std::thread::scope(|scope| {
        // Wedge shard 0 (ids ≡ 0 mod 3): one request in flight, one
        // parked in its depth-1 queue.
        let wedger = handle.clone();
        scope.spawn(move || wedger.get(0).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        let parker = handle.clone();
        scope.spawn(move || parker.get(3).unwrap());
        std::thread::sleep(Duration::from_millis(50));

        // Ids on shards 0, 1 and 2 ride shard 0's full queue: shed whole,
        // though shards 1 and 2 are idle.
        let mut batch = EmbedBatch::new();
        assert!(matches!(
            handle.get_batch_into(&[0, 1, 2], &mut batch),
            Err(ServeError::Overloaded { .. })
        ));
    });
    let stats = router.shutdown().remove(0).1;
    // Rows issued: wedger 1 + parker 1 + the spanning lookup 3 = 5.
    assert_eq!(stats.requests, 2, "wedger and parker only");
    assert_eq!(stats.shed, 3, "every row of the spanning lookup");
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.requests + stats.shed + stats.expired, 5);
}

/// Budgets too large to represent as a point in time (an `Instant +
/// Duration::MAX` would overflow) must mean "no limit", not a panic.
#[test]
fn unrepresentable_budgets_serve_normally() {
    let emb = memcom(17);
    let router = start(
        &emb,
        ServeConfig::with_shedding(Duration::MAX, Some(Duration::MAX)),
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    assert_eq!(handle.get(5).unwrap().len(), 8, "never expires");
    let stats = router.shutdown().remove(0).1;
    assert_eq!((stats.shed, stats.expired), (0, 0));
}

/// Shutdown under a shedding policy still answers every accepted
/// request — served, expired, or rejected, but never silence.
#[test]
fn shed_mode_drain_leaves_no_request_unanswered() {
    let emb = memcom(11);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 4,
            store_latency: Duration::from_millis(60),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::from_millis(1),
                request_deadline: Some(Duration::from_millis(30)),
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    let (stats, outcomes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..6)
            .map(|i| {
                let handle = handle.clone();
                scope.spawn(move || handle.get(i * 7))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let stats = router.shutdown().remove(0).1;
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (stats, outcomes)
    });
    let mut served = 0u64;
    let mut expired = 0u64;
    for outcome in outcomes {
        match outcome {
            Ok(row) => {
                assert_eq!(row.len(), 8);
                served += 1;
            }
            Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
            Err(ServeError::Overloaded { .. }) | Err(ServeError::ShuttingDown) => {}
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(stats.requests, served, "every served answer was counted");
    assert_eq!(stats.expired, expired, "every expiry was counted");
    assert!(matches!(handle.get(1), Err(ServeError::ShuttingDown)));
}

/// The retry-after hint: closed-loop clients honor the server's
/// suggested backoff (queue depth ÷ calibrated capacity) by pacing
/// themselves, and the load report records the mean suggestion.
#[test]
fn closed_loop_honors_retry_after_and_reports_mean_backoff() {
    let emb = memcom(41);
    let store_latency = Duration::from_millis(20);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            store_latency,
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Three closed-loop clients against a capacity of 50 rows/s with a
    // depth-1 queue: most arrivals are shed, and each shed client backs
    // off by the hint before its next request.
    let load = LoadGenConfig {
        clients: 3,
        requests_per_client: 10,
        ids_per_request: 1,
        zipf_exponent: 1.1,
        mode: LoadMode::Closed,
        seed: 3,
    };
    let started = std::time::Instant::now();
    let report = run_load(&router, ONE, &load).unwrap();
    let elapsed = started.elapsed();
    router.shutdown();

    assert!(report.shed > 0, "the saturated depth-1 queue must shed");
    let model = &report.per_model[0];
    // At rejection the queue holds 1 request (it is full) and one batch
    // is in flight: the hint is 1 or 2 batch service times, depending on
    // whether the serving thread drained the queue between the reject and the
    // depth probe.
    assert!(
        model.mean_backoff >= store_latency,
        "mean backoff {:?} below one batch service time",
        model.mean_backoff
    );
    assert!(
        model.mean_backoff <= store_latency * 2,
        "mean backoff {:?} above queue+in-flight drain time",
        model.mean_backoff
    );
    // Honoring the hint really paced the clients: the busiest client
    // slept out at least its own sheds' backoffs.
    let min_sleep = store_latency
        .mul_f64(report.shed as f64 / load.clients as f64)
        .mul_f64(0.5);
    assert!(
        elapsed >= min_sleep,
        "elapsed {elapsed:?} too short for {} honored backoffs",
        report.shed
    );

    // An open-loop client must keep its schedule: the hint is recorded,
    // not slept (the sleep call is gated on the closed discipline —
    // wall-clock bounds are too host-dependent to assert here, but the
    // recorded mean proves the hint still flows through the report).
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            store_latency,
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let open_load = LoadGenConfig {
        mode: LoadMode::Open { target_qps: 500.0 },
        ..load
    };
    let open_report = run_load(&router, ONE, &open_load).unwrap();
    router.shutdown();
    assert!(open_report.shed > 0);
    assert!(
        open_report.per_model[0].mean_backoff >= store_latency,
        "open loop still records the suggestion"
    );
}
