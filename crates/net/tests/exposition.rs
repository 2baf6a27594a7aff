//! Exposition golden: both tiers' Prometheus text and JSON, pinned whole.
//!
//! Literal snapshots of the network tier (with the serve tier embedded)
//! at `Off` and at `Full` — a model name that needs escaping, two
//! shards, an int8 decode histogram, one sampled span, one live
//! connection and a `closed` row — rendered and compared with the text
//! in `tests/golden/`. Prometheus text must match byte for byte; JSON
//! must match once whitespace outside strings is stripped, and both
//! JSON renderings must parse.
//!
//! Run after touching either exporter:
//! `cargo test -p memcom-net --test exposition`.

use std::time::Duration;

use memcom_net::{ConnectionMetrics, NetMetricsSnapshot};
use memcom_serve::{
    LatencyHistogram, MetricsSnapshot, ModelMetrics, ShardStageMetrics, SizeStats, Span,
    SpanOutcome, TelemetryLevel,
};

fn hist(nanos: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &n in nanos {
        h.record(n);
    }
    h
}

fn model(name: &str, base: u64) -> ModelMetrics {
    ModelMetrics {
        name: name.to_string(),
        issued: base + 12,
        requests: base + 9,
        shed: base + 2,
        expired: base + 1,
        snapshot_swaps: 1,
        delta_applies: 3,
        delta_cow_bytes: 4096,
        delta_pages_touched: 2,
        lru_invalidations: 0,
    }
}

fn decode(f32_nanos: &[u64], int8_nanos: &[u64]) -> Vec<(&'static str, LatencyHistogram)> {
    vec![
        ("f32", hist(f32_nanos)),
        ("f16", hist(&[])),
        ("int8", hist(int8_nanos)),
        ("int4", hist(&[])),
        ("int2", hist(&[])),
    ]
}

fn serve_snapshot(level: TelemetryLevel) -> MetricsSnapshot {
    let span = Span {
        seq: 4,
        shard: 1,
        rows: 2,
        queue_wait_nanos: 1_000,
        service_nanos: 2_000,
        total_nanos: 3_000,
        outcome: SpanOutcome::Served,
    };
    MetricsSnapshot {
        level,
        uptime: Duration::from_millis(1_500),
        traced_spans: 1,
        models: vec![
            model("default", 0),
            model("quote\"back\\slash\nline\ttab\u{1}", 100),
        ],
        stages: vec![
            ShardStageMetrics {
                shard: 0,
                admission_wait: hist(&[700]),
                queue_wait: hist(&[10_000, 20_000]),
                batch_assembly: LatencyHistogram::new(),
                batch_size: SizeStats {
                    count: 2,
                    sum: 12,
                    mean: 6.0,
                    p50: 4,
                    p99: 8,
                    max: 8,
                },
                decode: decode(&[], &[5_000]),
                forward: LatencyHistogram::new(),
                slab_write: hist(&[300]),
                decode_rows: 10,
            },
            ShardStageMetrics {
                shard: 1,
                admission_wait: LatencyHistogram::new(),
                queue_wait: hist(&[1_000]),
                batch_assembly: LatencyHistogram::new(),
                batch_size: SizeStats {
                    count: 1,
                    sum: 2,
                    mean: 2.0,
                    p50: 2,
                    p99: 2,
                    max: 2,
                },
                decode: decode(&[900], &[]),
                forward: hist(&[40_000]),
                slab_write: hist(&[250]),
                decode_rows: 0,
            },
        ],
        recent_traces: vec![span],
        slowest_traces: vec![span],
    }
}

fn net_snapshot(level: TelemetryLevel) -> NetMetricsSnapshot {
    NetMetricsSnapshot {
        level,
        uptime: Duration::from_millis(2_250),
        accepted: 3,
        active: 1,
        frame_decode: hist(&[400, 800, 1_600]),
        response_encode: hist(&[900, 1_100]),
        socket_write: LatencyHistogram::new(),
        connections: vec![
            ConnectionMetrics {
                id: 3,
                peer: "127.0.0.1:40001".to_string(),
                frames_in: 5,
                frames_out: 4,
                bytes_in: 160,
                bytes_out: 2_048,
                served: 3,
                errors_sent: 1,
                protocol_errors: 1,
                shutdown_rejected: 0,
                open: true,
            },
            ConnectionMetrics {
                id: 0,
                peer: "closed".to_string(),
                frames_in: 7,
                frames_out: 7,
                bytes_in: 224,
                bytes_out: 3_584,
                served: 6,
                errors_sent: 1,
                protocol_errors: 0,
                shutdown_rejected: 1,
                open: false,
            },
        ],
        serve: serve_snapshot(level),
    }
}

/// Drops whitespace that sits outside JSON string literals.
fn strip_json_whitespace(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in json.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// A minimal JSON syntax check: one value, then only whitespace.
fn assert_json_parses(json: &str) {
    let bytes = json.as_bytes();
    let end = json_value(bytes, skip_ws(bytes, 0))
        .unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {}", &json[at.min(json.len())..]));
    assert_eq!(
        skip_ws(bytes, end),
        bytes.len(),
        "trailing bytes after JSON"
    );
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Parses one JSON value at `i`; returns the index just past it.
fn json_value(b: &[u8], i: usize) -> Result<usize, usize> {
    match b.get(i) {
        Some(b'{') => json_items(b, i + 1, b'}', |b, i| {
            let i = json_string(b, i)?;
            let i = skip_ws(b, i);
            if b.get(i) != Some(&b':') {
                return Err(i);
            }
            json_value(b, skip_ws(b, i + 1))
        }),
        Some(b'[') => json_items(b, i + 1, b']', json_value),
        Some(b'"') => json_string(b, i),
        Some(b't') if b[i..].starts_with(b"true") => Ok(i + 4),
        Some(b'f') if b[i..].starts_with(b"false") => Ok(i + 5),
        Some(b'n') if b[i..].starts_with(b"null") => Ok(i + 4),
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_digit() || b"+-.eE".contains(&b[j])) {
                j += 1;
            }
            std::str::from_utf8(&b[i..j])
                .unwrap()
                .parse::<f64>()
                .map_err(|_| i)?;
            Ok(j)
        }
        _ => Err(i),
    }
}

/// Comma-separated `item`s up to `close`, starting just past the opener.
fn json_items(
    b: &[u8],
    i: usize,
    close: u8,
    item: fn(&[u8], usize) -> Result<usize, usize>,
) -> Result<usize, usize> {
    let mut i = skip_ws(b, i);
    if b.get(i) == Some(&close) {
        return Ok(i + 1);
    }
    loop {
        i = skip_ws(b, item(b, skip_ws(b, i))?);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(c) if *c == close => return Ok(i + 1),
            _ => return Err(i),
        }
    }
}

fn json_string(b: &[u8], i: usize) -> Result<usize, usize> {
    if b.get(i) != Some(&b'"') {
        return Err(i);
    }
    let mut j = i + 1;
    while let Some(&c) = b.get(j) {
        match c {
            b'"' => return Ok(j + 1),
            b'\\' => match b.get(j + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => j += 2,
                Some(b'u')
                    if b.len() > j + 5 && b[j + 2..j + 6].iter().all(u8::is_ascii_hexdigit) =>
                {
                    j += 6
                }
                _ => return Err(j),
            },
            c if c < 0x20 => return Err(j),
            _ => j += 1,
        }
    }
    Err(j)
}

fn check(level: TelemetryLevel, prom_golden: &str, json_golden: &str) {
    let snapshot = net_snapshot(level);
    let prom = snapshot.to_prometheus();
    assert!(
        prom == prom_golden,
        "Prometheus exposition at {level:?} drifted from the golden:\n{prom}"
    );
    let json = snapshot.to_json();
    assert_json_parses(&json);
    assert_json_parses(&snapshot.serve.to_json());
    let stripped = strip_json_whitespace(&json);
    assert!(
        stripped == json_golden.trim_end(),
        "JSON at {level:?} drifted from the golden:\n{stripped}"
    );
}

#[test]
fn full_exposition_matches_the_golden() {
    check(
        TelemetryLevel::Full,
        include_str!("golden/exposition_full.prom"),
        include_str!("golden/exposition_full.json"),
    );
}

#[test]
fn off_exposition_matches_the_golden() {
    check(
        TelemetryLevel::Off,
        include_str!("golden/exposition_off.prom"),
        include_str!("golden/exposition_off.json"),
    );
}

#[test]
fn the_syntax_check_rejects_broken_json() {
    for bad in [
        "{\"a\":1,}",
        "{\"a\" 1}",
        "[1 2]",
        "{\"a\":\"x\ny\"}",
        "{\"a\":1}}",
    ] {
        let bytes = bad.as_bytes();
        let ok = json_value(bytes, 0).is_ok_and(|end| skip_ws(bytes, end) == bytes.len());
        assert!(!ok, "accepted {bad:?}");
    }
    let stripped = strip_json_whitespace("{ \"a b\" : [ 1 , \"c\\\" d\" ] }\n");
    assert_eq!(stripped, "{\"a b\":[1,\"c\\\" d\"]}");
}
