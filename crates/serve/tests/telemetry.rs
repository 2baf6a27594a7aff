//! Telemetry integration tests.
//!
//! Three angles, per the observability acceptance criteria:
//!
//! 1. **Histogram algebra** — property tests that `merge` is associative
//!    and quantiles are monotone in `q`, so per-shard accumulators can
//!    be folded in any order without changing what the exporter reports.
//! 2. **Exposition format** — the Prometheus text rendering parses with
//!    a strict hand-rolled parser: line grammar, label escaping,
//!    `_total`/`_bytes` naming, cumulative buckets, `+Inf` == `_count`.
//! 3. **Consistency under load** — rolling snapshots taken while an
//!    overloaded shedding server runs never tear
//!    (`issued >= requests + shed + expired`, all counters monotone),
//!    and the final server-side stage breakdown reconciles exactly with
//!    the client-side loadgen totals.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
use memcom_serve::{
    run_load, AdmissionPolicy, LatencyHistogram, LoadGenConfig, LoadMode, MetricsSnapshot, Router,
    ServeConfig, SpanOutcome, TelemetryConfig, TelemetryLevel, DEFAULT_MODEL,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn memcom(seed: u64, vocab: usize) -> MemCom {
    let mut rng = StdRng::seed_from_u64(seed);
    MemCom::new(MemComConfig::new(vocab, 8, vocab / 10), &mut rng).unwrap()
}

fn start(emb: &dyn EmbeddingCompressor, config: ServeConfig) -> memcom_serve::Result<Router> {
    let router = Router::start(config)?;
    router.register(DEFAULT_MODEL, emb)?;
    Ok(router)
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn hists_equal(a: &LatencyHistogram, b: &LatencyHistogram) -> bool {
    a.count() == b.count()
        && a.sum_nanos() == b.sum_nanos()
        && a.max_nanos() == b.max_nanos()
        && a.iter_buckets().eq(b.iter_buckets())
}

proptest! {
    #[test]
    fn prop_histogram_merge_is_associative(
        a in proptest::collection::vec(1u64..100_000_000, 0..40),
        b in proptest::collection::vec(1u64..100_000_000, 0..40),
        c in proptest::collection::vec(1u64..100_000_000, 0..40),
    ) {
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): fold order across shards must not
        // matter.
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert!(hists_equal(&left, &right));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(left.quantile(q), right.quantile(q));
        }
    }

    #[test]
    fn prop_quantiles_monotone_in_q(
        samples in proptest::collection::vec(1u64..10_000_000_000, 1..80),
    ) {
        let h = hist_of(&samples);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        for pair in qs.windows(2) {
            prop_assert!(
                h.quantile(pair[0]) <= h.quantile(pair[1]),
                "quantile({}) = {} > quantile({}) = {}",
                pair[0], h.quantile(pair[0]), pair[1], h.quantile(pair[1]),
            );
        }
        // Clamping keeps every quantile inside the observed range.
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        for q in qs {
            prop_assert!(h.quantile(q) <= hi);
            prop_assert!(h.quantile(q) >= lo.min(h.quantile(0.0)));
        }
        prop_assert_eq!(h.quantile(1.0), hi);
    }
}

// ---------------------------------------------------------------------
// Prometheus exposition: strict parse of real output.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses one `name{k="v",...} value` line, unescaping label values.
fn parse_sample(line: &str) -> Sample {
    let (name, rest) = match line.find('{') {
        Some(brace) => (&line[..brace], &line[brace..]),
        None => {
            let (name, value) = line.split_once(' ').expect("bare sample has a value");
            return Sample {
                name: name.to_string(),
                labels: Vec::new(),
                value: value.trim().parse().expect("numeric value"),
            };
        }
    };
    let close = rest.rfind('}').expect("labels close");
    let (label_text, value_text) = (&rest[1..close], &rest[close + 1..]);
    let mut labels = Vec::new();
    let mut chars = label_text.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        assert_eq!(chars.next(), Some('"'), "label value opens with a quote");
        let mut value = String::new();
        loop {
            match chars.next().expect("unterminated label value") {
                '\\' => match chars.next().expect("dangling escape") {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => panic!("unknown escape \\{other}"),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.push((key, value));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    Sample {
        name: name.to_string(),
        labels,
        value: value_text.trim().parse().expect("numeric value"),
    }
}

/// Parses a full exposition, checking the line grammar and that every
/// sample belongs to a `# TYPE`-declared family (allowing the
/// histogram/summary `_bucket`/`_sum`/`_count` sub-series).
fn parse_exposition(text: &str) -> (BTreeMap<String, String>, Vec<Sample>) {
    let mut helps: Vec<String> = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            assert!(!help.is_empty());
            helps.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "histogram", "summary"].contains(&kind),
                "unknown kind {kind:?}"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "family {name} declared twice"
            );
        } else {
            assert!(!line.starts_with('#'), "unknown comment line: {line:?}");
            samples.push(parse_sample(line));
        }
    }
    for name in types.keys() {
        assert!(helps.contains(name), "family {name} has no HELP line");
    }
    for sample in &samples {
        let family = types.get(&sample.name).cloned().or_else(|| {
            ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                let base = sample.name.strip_suffix(suffix)?;
                let kind = types.get(base)?;
                (kind == "histogram" || (kind == "summary" && *suffix != "_bucket"))
                    .then(|| kind.clone())
            })
        });
        let family = family.unwrap_or_else(|| panic!("undeclared family for {}", sample.name));
        // Naming conventions: counters end `_total`, gauges carry a
        // unit suffix.
        if types.get(&sample.name) == Some(&family) {
            match family.as_str() {
                "counter" => assert!(
                    sample.name.ends_with("_total"),
                    "counter {} must end with _total",
                    sample.name
                ),
                "gauge" => assert!(
                    ["_bytes", "_rows", "_seconds"]
                        .iter()
                        .any(|s| sample.name.ends_with(s)),
                    "gauge {} must carry a unit suffix",
                    sample.name
                ),
                _ => {}
            }
        }
    }
    (types, samples)
}

#[test]
fn prometheus_exposition_parses_and_reconciles() {
    // A model name that exercises every escape the format defines.
    let evil = "us\"east\\1\nblue";
    let emb = memcom(5, 200);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 2,
            max_batch: 8,
            telemetry: TelemetryConfig::full(1.0),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    router.register(evil, &emb).unwrap();
    let handle = router.handle(DEFAULT_MODEL).unwrap();
    for id in 0..20 {
        handle.get(id).unwrap();
    }
    router.handle(evil).unwrap().get(7).unwrap();

    let snapshot = router.metrics();
    let text = snapshot.to_prometheus();
    let (types, samples) = parse_exposition(&text);

    // Families the snapshot promises, with their kinds.
    for (name, kind) in [
        ("memcom_uptime_seconds", "gauge"),
        ("memcom_requests_total", "counter"),
        ("memcom_issued_rows_total", "counter"),
        ("memcom_decode_rows_total", "counter"),
        ("memcom_stage_latency_nanos", "histogram"),
        ("memcom_batch_size", "summary"),
    ] {
        assert_eq!(types.get(name).map(String::as_str), Some(kind), "{name}");
    }

    // Label escaping round-trips: the evil model name comes back intact.
    let model = |name: &str, want: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.label("model") == Some(want))
            .unwrap_or_else(|| panic!("no {name} sample for {want:?}"))
    };
    assert_eq!(model("memcom_requests_total", evil).value, 1.0);
    let default = model("memcom_requests_total", "default");
    assert_eq!(default.value, snapshot.models[0].requests as f64);
    assert_eq!(default.value, 20.0);

    // Histogram contract: within each series, cumulative bucket counts
    // are non-decreasing and the +Inf bucket equals its _count sample.
    let mut series: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    for s in &samples {
        if s.name == "memcom_stage_latency_nanos_bucket" {
            let key: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            series
                .entry(key.join(","))
                .or_default()
                .push((s.label("le").unwrap().to_string(), s.value));
        }
    }
    assert!(!series.is_empty(), "full telemetry emits stage histograms");
    for (key, buckets) in &series {
        for pair in buckets.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{key}: cumulative counts dip");
        }
        let (last_le, last_value) = buckets.last().unwrap();
        assert_eq!(last_le, "+Inf", "{key}: last bucket is +Inf");
        let count = samples
            .iter()
            .find(|s| {
                s.name == "memcom_stage_latency_nanos_count"
                    && key.split(',').all(|kv| {
                        kv == format!("{}={}", s.labels[0].0, s.labels[0].1)
                            || s.labels.iter().any(|(k, v)| format!("{k}={v}") == kv)
                    })
            })
            .expect("each histogram series has a _count");
        assert_eq!(*last_value, count.value, "{key}: +Inf != _count");
    }

    // The queue-wait histogram accounts for every served row.
    let queue_counts: f64 = samples
        .iter()
        .filter(|s| {
            s.name == "memcom_stage_latency_nanos_count" && s.label("stage") == Some("queue_wait")
        })
        .map(|s| s.value)
        .sum();
    assert_eq!(queue_counts, 21.0);
}

#[test]
fn off_level_exports_counters_without_stages() {
    let emb = memcom(6, 100);
    let router = start(&emb, ServeConfig::with_shards(2)).unwrap();
    router.handle(DEFAULT_MODEL).unwrap().get(3).unwrap();
    let snapshot = router.metrics();
    assert_eq!(snapshot.level, TelemetryLevel::Off);
    assert_eq!(snapshot.traced_spans, 0);
    assert!(snapshot
        .stages
        .iter()
        .all(|s| s.queue_wait.count() == 0 && s.admission_wait.count() == 0));
    let text = snapshot.to_prometheus();
    assert!(!text.contains("memcom_stage_latency_nanos"));
    assert!(!text.contains("memcom_batch_size"));
    // The always-on counters still render.
    assert!(text.contains("memcom_requests_total{model=\"default\"} 1\n"));
    assert!(text.contains("memcom_issued_rows_total{model=\"default\"} 1\n"));
}

// ---------------------------------------------------------------------
// Consistency under load.
// ---------------------------------------------------------------------

fn model_tuple(snapshot: &MetricsSnapshot) -> (u64, u64, u64, u64) {
    let m = &snapshot.models[0];
    (m.issued, m.requests, m.shed, m.expired)
}

/// Rolling snapshots during an overloaded shedding run never violate the
/// counter contract and never move backwards; the final counts reconcile
/// exactly with what the load generator observed.
#[test]
fn snapshot_under_load_never_tears() {
    let emb = memcom(7, 2_000);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 4,
            queue_depth: 4,
            store_latency: Duration::from_millis(1),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: Some(Duration::from_millis(10)),
            },
            telemetry: TelemetryConfig::full(0.05),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let load = LoadGenConfig {
        clients: 8,
        requests_per_client: 50,
        ids_per_request: 1,
        zipf_exponent: 1.1,
        mode: LoadMode::Open {
            target_qps: 20_000.0,
        },
        seed: 5,
    };
    let (report, snapshots) = std::thread::scope(|scope| {
        let loader = scope.spawn(|| run_load(&router, &[(DEFAULT_MODEL, 1.0)], &load).unwrap());
        let mut taken = 0u32;
        let mut prev = (0u64, 0u64, 0u64, 0u64);
        while !loader.is_finished() {
            let now = model_tuple(&router.metrics());
            let (issued, requests, shed, expired) = now;
            assert!(
                issued >= requests + shed + expired,
                "snapshot tears: issued {issued} < {requests} + {shed} + {expired}"
            );
            assert!(
                now.0 >= prev.0 && now.1 >= prev.1 && now.2 >= prev.2 && now.3 >= prev.3,
                "counters moved backwards: {prev:?} -> {now:?}"
            );
            prev = now;
            taken += 1;
        }
        (loader.join().unwrap(), taken)
    });
    assert!(snapshots > 0, "load ran long enough to snapshot");
    assert!(
        report.shed > 0,
        "5x-overload against a depth-4 queue must shed"
    );

    // Drained: the server-side tallies match the client-side ones row
    // for row, and the inequality closes to an equality.
    let stats = router.shutdown().remove(0).1;
    assert_eq!(stats.requests, report.requests);
    assert_eq!(stats.shed, report.shed);
    assert_eq!(stats.expired, report.expired);
    assert_eq!(stats.issued, report.offered());
    assert_eq!(stats.issued, stats.requests + stats.shed + stats.expired);
}

/// The acceptance-criteria test: the server's stage breakdown reconciles
/// with the client-side loadgen totals — every issued row shows up in
/// admission, queueing, batching, decode, and tracing exactly once.
#[test]
fn stage_breakdown_reconciles_with_loadgen() {
    let emb = memcom(8, 2_000);
    let router = start(
        &emb,
        ServeConfig {
            n_shards: 2,
            max_batch: 8,
            telemetry: TelemetryConfig::full(1.0),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = run_load(
        &router,
        &[(DEFAULT_MODEL, 1.0)],
        &LoadGenConfig {
            clients: 4,
            requests_per_client: 100,
            ids_per_request: 1,
            zipf_exponent: 1.1,
            mode: LoadMode::Closed,
            seed: 9,
        },
    )
    .unwrap();
    let total = report.requests;
    assert_eq!(total, 400);

    // The last batch's stage recording can trail the last client's
    // response by a hair; poll until the books balance, then assert.
    let deadline = Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        let snapshot = router.metrics();
        let rows: u64 = snapshot.stages.iter().map(|s| s.decode_rows).sum();
        if (snapshot.traced_spans == total && rows == total) || Instant::now() > deadline {
            break snapshot;
        }
        std::thread::yield_now();
    };

    let m = &snapshot.models[0];
    assert_eq!(
        (m.issued, m.requests, m.shed, m.expired),
        (total, total, 0, 0)
    );

    let sum_count =
        |f: fn(&memcom_serve::ShardStageMetrics) -> u64| snapshot.stages.iter().map(f).sum::<u64>();
    assert_eq!(sum_count(|s| s.admission_wait.count()), total);
    assert_eq!(sum_count(|s| s.queue_wait.count()), total);
    assert_eq!(sum_count(|s| s.batch_size.sum), total);
    assert_eq!(sum_count(|s| s.decode_rows), total);
    // No batch is held open, so batch assembly records nothing; every
    // served request records exactly one decode-or-forward sample and
    // one slab_write sample.
    assert_eq!(sum_count(|s| s.batch_assembly.count()), 0);
    assert_eq!(sum_count(|s| s.slab_write.count()), total);
    assert_eq!(
        sum_count(|s| s.decode.iter().map(|(_, h)| h.count()).sum::<u64>() + s.forward.count()),
        total
    );

    // Every row was sampled (rate 1.0) and every span served.
    assert_eq!(snapshot.traced_spans, total);
    assert!(snapshot.slowest_traces.len() <= 32);
    assert!(!snapshot.recent_traces.is_empty());
    assert!(snapshot
        .slowest_traces
        .iter()
        .chain(&snapshot.recent_traces)
        .all(|span| span.outcome == SpanOutcome::Served && span.rows == 1));

    router.shutdown();
}
