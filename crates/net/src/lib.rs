//! Network-attached serving for memcom (MEmCom, MLSys 2022).
//!
//! The serve tier batches and shards lookups inside one process; this
//! crate puts it behind a socket, because the paper's deployment
//! target — an embedding store too large to replicate into every
//! inference process — implies lookups arrive over a network. The
//! overload semantics the serve tier spent previous iterations earning
//! (typed sheds with `retry_after` hints, deadline drops, loss-free
//! drains) would die at the process boundary without a protocol that
//! carries them; this crate is that protocol plus the two endpoints.
//!
//! * [`wire`] — the length-framed binary protocol: a versioned header,
//!   a request id for pipelining, batch lookups **and full-model score
//!   requests** (same body, one kind byte apart) with a model name +
//!   ids + an advisory dtype hint + an optional deadline, and
//!   responses that are either a row slab or a typed error carrying
//!   `retry_after` nanos. Strict decode: every malformation is a typed
//!   [`WireError`], never a panic; oversized length prefixes are
//!   rejected before allocation.
//! * [`NetServer`] — accepts many concurrent clients, one OS thread
//!   per connection, and feeds the existing
//!   [`Router`](memcom_serve::Router)'s shard queues: each lookup or
//!   score frame is one
//!   [`RouterHandle::submit`](memcom_serve::RouterHandle::submit), its
//!   ids decoded straight into the buffer the router reads, and its
//!   wire deadline the call's per-request deadline. Graceful shutdown
//!   drains connections
//!   (in-flight responses flushed, already-sent frames answered with a
//!   typed `shutting_down` — never silence) before shutting the
//!   router down.
//!   Both endpoints are concrete over `std::net` TCP: there is no
//!   transport seam in the product, and fault injection belongs in a
//!   seeded loopback TCP proxy under `tests/` (real short reads, resets
//!   and stalls).
//! * [`NetClient`] — request pipelining over one connection: one
//!   ticket-based [`NetClient::send`] taking a
//!   [`RequestKind`](memcom_serve::RequestKind) and an optional
//!   deadline, with blocking [`NetClient::lookup`] /
//!   [`NetClient::score`] over it. The client never sleeps: a shed
//!   reaches the caller with the server's `retry_after` hint, and
//!   pacing is the caller's.
//! * [`loadgen`] — [`run_net_load`]: [`memcom_serve::drive`], the serve
//!   tier's load driver, submitting one
//!   [`RequestKind`](memcom_serve::RequestKind) through one
//!   [`NetClient`] per client thread:
//!   the traffic, schedule, pacing, and [`memcom_serve::LoadReport`]
//!   are the in-process generator's own, so networked and in-process
//!   runs are directly comparable.
//! * [`telemetry`] — the connection registry and this tier's metric
//!   tables: network-stage histograms (`frame_decode`,
//!   `response_encode`, `socket_write`) and always-on per-connection
//!   counters, each named once and rendered as `memcom_net_*`
//!   Prometheus series or JSON by the serve tier's one exporter, with
//!   the serve tier's snapshot embedded. The registry holds the serve
//!   tier's `LevelGate`, so the zero-clock-read guarantee at
//!   `TelemetryConfig::off()` covers the network stages too.
//!
//! # Reconciliation contract
//!
//! Every lookup a client sends is answered exactly once: with rows,
//! with a typed router error (`overloaded` / `deadline_exceeded` / …),
//! or with `shutting_down` during a drain. Rows and router errors pass
//! through the router and appear in [`ServeStats`](memcom_serve::ServeStats);
//! drain answers never enter the router and are counted in the net
//! tier's `shutdown_rejected`. Client tallies therefore reconcile
//! exactly with server stats — the integration tests assert equality,
//! not approximation.

pub mod client;
pub mod error;
pub mod loadgen;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::{NetClient, NetClientConfig, NetClientStats, Pending};
pub use error::{error_response_for, ErrorCode, NetError, Result};
pub use loadgen::run_net_load;
pub use server::{NetServer, NetServerConfig};
pub use telemetry::{ConnectionMetrics, NetMetricsSnapshot};
pub use wire::{
    ErrorResponse, FrameReader, LookupRequest, Message, ReadEvent, RowsResponse, ScoreRequest,
    WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
