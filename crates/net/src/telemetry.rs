//! Network-tier telemetry: frame-level stage histograms and
//! per-connection counters, exported next to the serve tier's snapshot.
//!
//! The discipline mirrors `memcom-serve`'s registry exactly:
//!
//! * **Counters are always on** — per-connection frame/byte counts are
//!   relaxed atomics, like the serve tier's per-model row counters.
//! * **Stage histograms cost clock reads only at
//!   [`TelemetryLevel::Full`]** — the connection loop takes its
//!   `Instant::now` stamps *only* when `stages_on()` says so, so the
//!   `off()` zero-extra-clock-read guarantee extends across the network
//!   stages (`frame_decode`, `response_encode`, `socket_write`);
//!   `tests/net.rs` asserts the off-level snapshot stays empty under
//!   traffic.
//! * Histograms live behind per-connection mutexes the connection's
//!   single handler thread locks uncontended; snapshots merge them on
//!   demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memcom_serve::telemetry::{escape_json, escape_label, family, json_hist, render_hist};
use memcom_serve::{LatencyHistogram, MetricsSnapshot, TelemetryConfig, TelemetryLevel};
use parking_lot::Mutex;

/// The network stage histograms of one connection.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetStageSet {
    /// Wire bytes → decoded request (strict parse of one payload).
    pub(crate) frame_decode: LatencyHistogram,
    /// Router answer → encoded response frame.
    pub(crate) response_encode: LatencyHistogram,
    /// Encoded frame → socket accepted the bytes (`write_all` +
    /// `flush`).
    pub(crate) socket_write: LatencyHistogram,
}

impl NetStageSet {
    fn merge(&mut self, other: &NetStageSet) {
        self.frame_decode.merge(&other.frame_decode);
        self.response_encode.merge(&other.response_encode);
        self.socket_write.merge(&other.socket_write);
    }
}

/// Always-on counters plus Full-level stage state for one connection.
#[derive(Debug, Default)]
pub(crate) struct ConnTelemetry {
    pub(crate) id: u64,
    pub(crate) peer: String,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    /// Lookup and score requests answered with a rows frame.
    pub(crate) served: AtomicU64,
    /// Typed error frames sent (any code).
    pub(crate) errors_sent: AtomicU64,
    /// Malformed/unsupported frames received.
    pub(crate) protocol_errors: AtomicU64,
    /// Requests answered `shutting_down` during the drain grace.
    pub(crate) shutdown_rejected: AtomicU64,
    stages: Mutex<NetStageSet>,
}

impl ConnTelemetry {
    pub(crate) fn record_stage(
        &self,
        pick: impl FnOnce(&mut NetStageSet) -> &mut LatencyHistogram,
        started: Instant,
    ) {
        pick(&mut self.stages.lock()).record(started.elapsed().as_nanos() as u64);
    }

    fn metrics(&self) -> ConnectionMetrics {
        ConnectionMetrics {
            id: self.id,
            peer: self.peer.clone(),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            errors_sent: self.errors_sent.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            shutdown_rejected: self.shutdown_rejected.load(Ordering::Relaxed),
            open: true,
        }
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
    /// An all-zero aggregate row (`id` 0 is never a connection's).
    fn aggregate(peer: &str) -> Self {
        ConnectionMetrics {
            id: 0,
            peer: peer.into(),
            frames_in: 0,
            frames_out: 0,
            bytes_in: 0,
            bytes_out: 0,
            served: 0,
            errors_sent: 0,
            protocol_errors: 0,
            shutdown_rejected: 0,
            open: false,
        }
    }

    fn add(&mut self, c: &ConnectionMetrics) {
        self.frames_in += c.frames_in;
        self.frames_out += c.frames_out;
        self.bytes_in += c.bytes_in;
        self.bytes_out += c.bytes_out;
        self.served += c.served;
        self.errors_sent += c.errors_sent;
        self.protocol_errors += c.protocol_errors;
        self.shutdown_rejected += c.shutdown_rejected;
    }
}

/// The connections a server is tracking: the open ones, plus everything
/// the closed ones counted, folded into one aggregate as each closes.
#[derive(Debug, Default)]
struct Conns {
    live: Vec<Arc<ConnTelemetry>>,
    closed: Option<(ConnectionMetrics, NetStageSet)>,
}

/// The server's network-telemetry registry.
#[derive(Debug)]
pub(crate) struct NetTelemetry {
    level: TelemetryLevel,
    started_at: Instant,
    accepted: AtomicU64,
    conns: Mutex<Conns>,
}

impl NetTelemetry {
    pub(crate) fn new(config: &TelemetryConfig) -> Self {
        NetTelemetry {
            level: config.level,
            started_at: Instant::now(),
            accepted: AtomicU64::new(0),
            conns: Mutex::new(Conns::default()),
        }
    }

    /// Whether stage histograms (and their clock reads) are on.
    pub(crate) fn stages_on(&self) -> bool {
        self.level == TelemetryLevel::Full
    }

    pub(crate) fn connection_opened(&self, peer: String) -> Arc<ConnTelemetry> {
        let mut conns = self.conns.lock();
        let id = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        let conn = Arc::new(ConnTelemetry {
            id,
            peer,
            ..ConnTelemetry::default()
        });
        conns.live.push(Arc::clone(&conn));
        conn
    }

    /// Folds a finished connection into the `closed` aggregate and stops
    /// tracking it: a long-lived server with connection churn keeps one
    /// entry per *open* connection, not one per connection ever accepted.
    pub(crate) fn connection_closed(&self, conn: &ConnTelemetry) {
        let mut conns = self.conns.lock();
        conns.live.retain(|c| c.id != conn.id);
        let (counters, stages) = conns.closed.get_or_insert_with(|| {
            (
                ConnectionMetrics::aggregate("closed"),
                NetStageSet::default(),
            )
        });
        counters.add(&conn.metrics());
        stages.merge(&conn.stages.lock());
    }

    pub(crate) fn snapshot(&self, serve: MetricsSnapshot) -> NetMetricsSnapshot {
        let conns = self.conns.lock();
        let mut connections: Vec<ConnectionMetrics> =
            conns.live.iter().map(|c| c.metrics()).collect();
        let mut stages = NetStageSet::default();
        for c in &conns.live {
            stages.merge(&c.stages.lock());
        }
        if let Some((counters, closed_stages)) = &conns.closed {
            connections.push(counters.clone());
            stages.merge(closed_stages);
        }
        NetMetricsSnapshot {
            level: self.level,
            uptime: self.started_at.elapsed(),
            accepted: self.accepted.load(Ordering::Relaxed),
            active: conns.live.len() as u64,
            frame_decode: stages.frame_decode,
            response_encode: stages.response_encode,
            socket_write: stages.socket_write,
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
        let mut t = ConnectionMetrics::aggregate("total");
        for c in &self.connections {
            t.add(c);
        }
        t
    }

    /// Prometheus text exposition: `memcom_net_*` series for the
    /// network tier followed by the embedded serve-tier exposition, so
    /// one scrape endpoint serves both.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        family(
            &mut out,
            "memcom_net_connections_accepted_total",
            "counter",
            "Connections accepted since server start.",
        );
        let _ = writeln!(
            out,
            "memcom_net_connections_accepted_total {}",
            self.accepted
        );
        family(
            &mut out,
            "memcom_net_connections_active",
            "gauge",
            "Connections currently open.",
        );
        let _ = writeln!(out, "memcom_net_connections_active {}", self.active);

        for (name, help, pick) in [
            (
                "memcom_net_frames_total",
                "Frames received per connection.",
                0usize,
            ),
            ("memcom_net_bytes_total", "Wire bytes per connection.", 1),
            (
                "memcom_net_served_total",
                "Lookup and score requests answered with a rows frame, per connection.",
                2,
            ),
            (
                "memcom_net_errors_sent_total",
                "Typed error frames sent, per connection.",
                3,
            ),
            (
                "memcom_net_protocol_errors_total",
                "Malformed or unsupported inbound frames, per connection.",
                4,
            ),
            (
                "memcom_net_shutdown_rejected_total",
                "Requests rejected shutting_down during the drain, per connection.",
                5,
            ),
        ] {
            family(&mut out, name, "counter", help);
            for c in &self.connections {
                let conn = format!("conn=\"{}\",peer=\"{}\"", c.id, escape_label(&c.peer));
                match pick {
                    0 => {
                        let _ = writeln!(
                            out,
                            "{name}{{{conn},direction=\"in\"}} {}\n{name}{{{conn},direction=\"out\"}} {}",
                            c.frames_in, c.frames_out
                        );
                    }
                    1 => {
                        let _ = writeln!(
                            out,
                            "{name}{{{conn},direction=\"in\"}} {}\n{name}{{{conn},direction=\"out\"}} {}",
                            c.bytes_in, c.bytes_out
                        );
                    }
                    2 => {
                        let _ = writeln!(out, "{name}{{{conn}}} {}", c.served);
                    }
                    3 => {
                        let _ = writeln!(out, "{name}{{{conn}}} {}", c.errors_sent);
                    }
                    4 => {
                        let _ = writeln!(out, "{name}{{{conn}}} {}", c.protocol_errors);
                    }
                    _ => {
                        let _ = writeln!(out, "{name}{{{conn}}} {}", c.shutdown_rejected);
                    }
                }
            }
        }

        family(
            &mut out,
            "memcom_net_stage_latency_nanos",
            "histogram",
            "Network-stage latency: frame_decode, response_encode, socket_write.",
        );
        for (stage, hist) in [
            ("frame_decode", &self.frame_decode),
            ("response_encode", &self.response_encode),
            ("socket_write", &self.socket_write),
        ] {
            if hist.count() > 0 {
                render_hist(
                    &mut out,
                    "memcom_net_stage_latency_nanos",
                    &format!("stage=\"{stage}\""),
                    hist,
                );
            }
        }

        out.push_str(&self.serve.to_prometheus());
        out
    }

    /// JSON rendering: a `net` object plus the embedded serve snapshot
    /// under `serve`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"net\": {\n");
        let _ = writeln!(
            out,
            "    \"uptime_seconds\": {:.3},\n    \"accepted\": {},\n    \"active\": {},",
            self.uptime.as_secs_f64(),
            self.accepted,
            self.active
        );
        let _ = writeln!(
            out,
            "    \"stages\": {{\"frame_decode\": {}, \"response_encode\": {}, \"socket_write\": {}}},",
            json_hist(&self.frame_decode),
            json_hist(&self.response_encode),
            json_hist(&self.socket_write)
        );
        out.push_str("    \"connections\": [");
        for (i, c) in self.connections.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"id\": {}, \"peer\": \"{}\", \"frames_in\": {}, \"frames_out\": {}, \
                 \"bytes_in\": {}, \"bytes_out\": {}, \"served\": {}, \"errors_sent\": {}, \
                 \"protocol_errors\": {}, \"shutdown_rejected\": {}, \"open\": {}}}",
                c.id,
                escape_json(&c.peer),
                c.frames_in,
                c.frames_out,
                c.bytes_in,
                c.bytes_out,
                c.served,
                c.errors_sent,
                c.protocol_errors,
                c.shutdown_rejected,
                c.open
            );
        }
        out.push_str("]\n  },\n  \"serve\": ");
        out.push_str(&self.serve.to_json());
        out.push_str("\n}\n");
        out
    }
}
