//! Network-tier telemetry: the connection registry, and the tables that
//! declare this tier's metrics for `memcom-serve`'s exporter.
//!
//! * **Counters are always on** — per-connection frame/byte counts are
//!   relaxed atomics, like the serve tier's per-model row counters.
//! * **Stage histograms are timed only at [`TelemetryLevel::Full`]** —
//!   the registry holds serve's [`LevelGate`], so the connection loop
//!   reads its clocks (`frame_decode`, `response_encode`,
//!   `socket_write`) behind the same `stages_on()` the router does;
//!   `tests/net.rs` asserts the off-level snapshot stays empty under
//!   traffic.
//! * A closing connection folds its counters and histograms into one
//!   `closed` row, so what a long-lived server tracks is bounded by the
//!   connections open now.
//!
//! Each metric's names are written once, as a row of `NET_METRICS`,
//! `CONN_METRICS` or `NET_STAGES`; rendering is
//! `memcom_serve::telemetry`'s. A connection counter also needs its
//! slot: a `Count` variant, in `CONN_METRICS` series order, and a line
//! of `ConnectionMetrics::from_counts`. `totals()` sums through the
//! series and relies on that order; `counter_slots_follow_the_table`
//! checks it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memcom_serve::telemetry::{
    json_field, json_histograms, json_key, json_metrics, json_object, json_objects, json_string,
    json_uptime, labels, prom_histograms, prom_metrics, LevelGate, Metric, Stage,
};
use memcom_serve::{LatencyHistogram, MetricsSnapshot, TelemetryConfig, TelemetryLevel};
use parking_lot::Mutex;

/// Counters of the server as a whole.
const NET_METRICS: [Metric<NetMetricsSnapshot>; 2] = [
    Metric {
        family: "memcom_net_connections_accepted_total",
        help: "Connections accepted since server start.",
        series: &[("accepted", "", |n| n.accepted)],
    },
    Metric {
        family: "memcom_net_connections_active",
        help: "Connections currently open.",
        series: &[("active", "", |n| n.active)],
    },
];

/// Always-on counters per connection. Their series, in order, are the
/// slots of [`ConnTelemetry`]'s counter array, indexed by [`Count`].
const CONN_METRICS: [Metric<ConnectionMetrics>; 6] = [
    Metric {
        family: "memcom_net_frames_total",
        help: "Frames received per connection.",
        series: &[
            ("frames_in", "direction=\"in\"", |c| c.frames_in),
            ("frames_out", "direction=\"out\"", |c| c.frames_out),
        ],
    },
    Metric {
        family: "memcom_net_bytes_total",
        help: "Wire bytes per connection.",
        series: &[
            ("bytes_in", "direction=\"in\"", |c| c.bytes_in),
            ("bytes_out", "direction=\"out\"", |c| c.bytes_out),
        ],
    },
    Metric {
        family: "memcom_net_served_total",
        help: "Lookup and score requests answered with a rows frame, per connection.",
        series: &[("served", "", |c| c.served)],
    },
    Metric {
        family: "memcom_net_errors_sent_total",
        help: "Typed error frames sent, per connection.",
        series: &[("errors_sent", "", |c| c.errors_sent)],
    },
    Metric {
        family: "memcom_net_protocol_errors_total",
        help: "Malformed or unsupported inbound frames, per connection.",
        series: &[("protocol_errors", "", |c| c.protocol_errors)],
    },
    Metric {
        family: "memcom_net_shutdown_rejected_total",
        help: "Requests rejected shutting_down during the drain, per connection.",
        series: &[("shutdown_rejected", "", |c| c.shutdown_rejected)],
    },
];

/// Network stage histograms. Their order is the slots of a connection's
/// stage array, indexed by [`NetStage`].
const NET_STAGES: [Stage<NetMetricsSnapshot>; 3] = [
    ("frame_decode", |n| &n.frame_decode),
    ("response_encode", |n| &n.response_encode),
    ("socket_write", |n| &n.socket_write),
];

/// Number of connection counters: the series of [`CONN_METRICS`].
const COUNTS: usize = Count::ShutdownRejected as usize + 1;

/// A connection counter: its slot in the series order of
/// [`CONN_METRICS`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Count {
    FramesIn,
    FramesOut,
    BytesIn,
    BytesOut,
    /// Lookup and score requests answered with a rows frame.
    Served,
    /// Typed error frames sent (any code).
    ErrorsSent,
    /// Malformed/unsupported frames received.
    ProtocolErrors,
    /// Requests answered `shutting_down` during the drain grace.
    ShutdownRejected,
}

/// A network stage: its row in [`NET_STAGES`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetStage {
    /// Wire bytes → decoded request (strict parse of one payload).
    FrameDecode,
    /// Router answer → encoded response frame.
    ResponseEncode,
    /// Encoded frame → socket accepted the bytes (`write_all` +
    /// `flush`).
    SocketWrite,
}

type StageSet = [LatencyHistogram; NET_STAGES.len()];

/// Always-on counters plus Full-level stage state for one connection
/// (or, with `id` 0, for every connection that has closed).
#[derive(Debug, Default)]
pub(crate) struct ConnTelemetry {
    id: u64,
    peer: String,
    counts: [AtomicU64; COUNTS],
    stages: Mutex<StageSet>,
}

impl ConnTelemetry {
    fn new(id: u64, peer: String) -> Self {
        ConnTelemetry {
            id,
            peer,
            ..ConnTelemetry::default()
        }
    }

    /// One relaxed add — inlined into the connection loop.
    #[inline]
    pub(crate) fn count(&self, counter: Count, n: u64) {
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_stage(&self, stage: NetStage, started: Instant) {
        self.stages.lock()[stage as usize].record(started.elapsed().as_nanos() as u64);
    }

    /// Adds `other`'s counters and histograms into this one.
    fn absorb(&self, other: &ConnTelemetry) {
        for (n, m) in self.counts.iter().zip(&other.counts) {
            n.fetch_add(m.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        merge(&mut self.stages.lock(), &other.stages.lock());
    }

    fn metrics(&self, open: bool) -> ConnectionMetrics {
        let counts = self.counts.each_ref().map(|n| n.load(Ordering::Relaxed));
        ConnectionMetrics::from_counts(self.id, self.peer.clone(), open, counts)
    }
}

fn merge(into: &mut StageSet, from: &StageSet) {
    for (h, g) in into.iter_mut().zip(from) {
        h.merge(g);
    }
}

/// Exported connection counters: one row per open connection, accept
/// order, then at most one `peer = "closed"` row (`id` 0) holding the
/// sum over every connection that has closed, so a post-shutdown
/// snapshot still reconciles while the export stays bounded under
/// connection churn.
#[derive(Debug, Clone)]
pub struct ConnectionMetrics {
    /// Server-assigned connection id (accept order, starting at 1).
    pub id: u64,
    /// Peer address label.
    pub peer: String,
    /// Frames received on this connection.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Wire bytes received.
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Lookup and score requests answered with a rows frame.
    pub served: u64,
    /// Typed error frames sent.
    pub errors_sent: u64,
    /// Malformed/unsupported inbound frames.
    pub protocol_errors: u64,
    /// Requests rejected `shutting_down` during the drain.
    pub shutdown_rejected: u64,
    /// Whether the connection is still open.
    pub open: bool,
}

impl ConnectionMetrics {
    /// A row from its counters in [`Count`] order.
    fn from_counts(id: u64, peer: String, open: bool, counts: [u64; COUNTS]) -> Self {
        ConnectionMetrics {
            id,
            peer,
            frames_in: counts[Count::FramesIn as usize],
            frames_out: counts[Count::FramesOut as usize],
            bytes_in: counts[Count::BytesIn as usize],
            bytes_out: counts[Count::BytesOut as usize],
            served: counts[Count::Served as usize],
            errors_sent: counts[Count::ErrorsSent as usize],
            protocol_errors: counts[Count::ProtocolErrors as usize],
            shutdown_rejected: counts[Count::ShutdownRejected as usize],
            open,
        }
    }
}

/// The connections a server is tracking: the open ones, plus everything
/// the closed ones counted, folded into one row as each closes.
#[derive(Debug, Default)]
struct Conns {
    live: Vec<Arc<ConnTelemetry>>,
    closed: Option<ConnTelemetry>,
}

/// The server's network-telemetry registry: its level gate and the
/// connections it tracks.
#[derive(Debug)]
pub(crate) struct NetTelemetry {
    pub(crate) gate: LevelGate,
    accepted: AtomicU64,
    conns: Mutex<Conns>,
}

impl NetTelemetry {
    pub(crate) fn new(config: &TelemetryConfig) -> Self {
        NetTelemetry {
            gate: LevelGate::new(config.level),
            accepted: AtomicU64::new(0),
            conns: Mutex::new(Conns::default()),
        }
    }

    pub(crate) fn connection_opened(&self, peer: String) -> Arc<ConnTelemetry> {
        let mut conns = self.conns.lock();
        let id = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        let conn = Arc::new(ConnTelemetry::new(id, peer));
        conns.live.push(Arc::clone(&conn));
        conn
    }

    /// Folds a finished connection into the `closed` row and stops
    /// tracking it: a long-lived server with connection churn keeps one
    /// entry per *open* connection, not one per connection ever accepted.
    pub(crate) fn connection_closed(&self, conn: &ConnTelemetry) {
        let mut conns = self.conns.lock();
        conns.live.retain(|c| c.id != conn.id);
        conns
            .closed
            .get_or_insert_with(|| ConnTelemetry::new(0, "closed".into()))
            .absorb(conn);
    }

    pub(crate) fn snapshot(&self, serve: MetricsSnapshot) -> NetMetricsSnapshot {
        let conns = self.conns.lock();
        let rows = conns.live.iter().map(|c| (&**c, true));
        let mut connections = Vec::new();
        let mut stages = StageSet::default();
        for (conn, open) in rows.chain(conns.closed.iter().map(|c| (c, false))) {
            connections.push(conn.metrics(open));
            merge(&mut stages, &conn.stages.lock());
        }
        let [frame_decode, response_encode, socket_write] = stages;
        NetMetricsSnapshot {
            level: self.gate.level(),
            uptime: self.gate.uptime(),
            accepted: self.accepted.load(Ordering::Relaxed),
            active: conns.live.len() as u64,
            frame_decode,
            response_encode,
            socket_write,
            connections,
            serve,
        }
    }
}

/// One consistent view of the network tier plus the embedded serve-tier
/// snapshot, renderable as Prometheus text or JSON.
#[derive(Debug, Clone)]
pub struct NetMetricsSnapshot {
    /// The network tier's telemetry level.
    pub level: TelemetryLevel,
    /// Time since the server started.
    pub uptime: Duration,
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Frame-decode latency across all connections (Full level only;
    /// empty otherwise).
    pub frame_decode: LatencyHistogram,
    /// Response-encode latency (Full level only).
    pub response_encode: LatencyHistogram,
    /// Socket-write latency (Full level only).
    pub socket_write: LatencyHistogram,
    /// Counters of each open connection, accept order, then the
    /// `closed` aggregate row if any connection has closed.
    pub connections: Vec<ConnectionMetrics>,
    /// The router's own snapshot
    /// ([`memcom_serve::Router::metrics`]), embedded so one scrape
    /// covers both tiers.
    pub serve: MetricsSnapshot,
}

impl NetMetricsSnapshot {
    /// Every connection's counters summed into one row (`id` 0,
    /// `peer` `"total"`).
    pub fn totals(&self) -> ConnectionMetrics {
        let mut sums = [0; COUNTS];
        for c in &self.connections {
            let series = CONN_METRICS.iter().flat_map(|metric| metric.series);
            for (sum, (_, _, get)) in sums.iter_mut().zip(series) {
                *sum += get(c);
            }
        }
        ConnectionMetrics::from_counts(0, "total".into(), false, sums)
    }

    /// Prometheus text exposition: `memcom_net_*` series for the
    /// network tier followed by the embedded serve-tier exposition, so
    /// one scrape endpoint serves both.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        prom_metrics(&mut out, &NET_METRICS, std::slice::from_ref(self), |_| {
            String::new()
        });
        prom_metrics(&mut out, &CONN_METRICS, &self.connections, |c| {
            labels(&[("conn", &c.id.to_string()), ("peer", &c.peer)])
        });
        prom_histograms(
            &mut out,
            "memcom_net_stage_latency_nanos",
            "Network-stage latency: frame_decode, response_encode, socket_write.",
            NET_STAGES
                .iter()
                .map(|(stage, get)| (labels(&[("stage", stage)]), get(self)))
                .filter(|(_, h)| h.count() > 0),
        );
        out.push_str(&self.serve.to_prometheus());
        out
    }

    /// JSON rendering: a `net` object plus the embedded serve snapshot
    /// under `serve`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json_object(&mut out, |out| {
            json_key(out, "net");
            json_object(out, |out| {
                json_uptime(out, self.uptime);
                json_metrics(out, &NET_METRICS, self);
                json_key(out, "stages");
                json_histograms(out, NET_STAGES.iter().map(|(key, get)| (*key, get(self))));
                json_objects(out, "connections", &self.connections, |out, c| {
                    json_field(out, "id", c.id);
                    json_string(out, "peer", &c.peer);
                    json_metrics(out, &CONN_METRICS, c);
                    json_field(out, "open", c.open);
                });
            });
            json_key(out, "serve");
            out.push_str(&self.serve.to_json());
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_slots_follow_the_table() {
        let series: Vec<_> = CONN_METRICS.iter().flat_map(|m| m.series).collect();
        assert_eq!(series.len(), COUNTS);
        let row = ConnectionMetrics::from_counts(1, "p".into(), true, [1, 2, 3, 4, 5, 6, 7, 8]);
        let read: Vec<u64> = series.iter().map(|(_, _, get)| get(&row)).collect();
        assert_eq!(read, [1, 2, 3, 4, 5, 6, 7, 8]);
        for (count, key) in [
            (Count::FramesIn, "frames_in"),
            (Count::FramesOut, "frames_out"),
            (Count::BytesIn, "bytes_in"),
            (Count::BytesOut, "bytes_out"),
            (Count::Served, "served"),
            (Count::ErrorsSent, "errors_sent"),
            (Count::ProtocolErrors, "protocol_errors"),
            (Count::ShutdownRejected, "shutdown_rejected"),
        ] {
            assert_eq!(series[count as usize].0, key);
        }
        for (stage, key) in [
            (NetStage::FrameDecode, "frame_decode"),
            (NetStage::ResponseEncode, "response_encode"),
            (NetStage::SocketWrite, "socket_write"),
        ] {
            assert_eq!(NET_STAGES[stage as usize].0, key);
        }
    }
}
