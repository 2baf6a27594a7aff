//! The network server: accepts many concurrent clients and feeds their
//! lookups and scores into an existing [`Router`]'s shard queues, each
//! frame one [`RouterHandle::submit`].
//!
//! # Shutdown ordering
//!
//! [`NetServer::shutdown`] drains in a fixed order so no request is
//! silently dropped:
//!
//! 1. The draining flag is raised and the acceptor is unblocked with a
//!    self-connect; it stops accepting and exits.
//! 2. Each connection finishes the request it is serving (its response
//!    is flushed), then spends up to `drain_grace` answering any frames
//!    already on the wire with a typed `shutting_down` error — an
//!    answer, not silence — before closing.
//! 3. Every connection thread is joined, and only then is the
//!    router shut down (its queued requests are answered per the serve
//!    tier's own guarantees).
//!
//! The reconciliation consequence: every lookup a client sent either
//! passed through the router (rows / `overloaded` / `deadline_exceeded`
//! — all visible in [`ServeStats`]) or was answered `shutting_down`
//! (visible in the net tier's `shutdown_rejected` counter). Client and
//! server tallies therefore reconcile exactly; `tests/net.rs` proves
//! it.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memcom_serve::{RequestKind, Router, RouterHandle, ServeError, ServeStats, TelemetryConfig};
use parking_lot::Mutex;

use crate::error::{error_response_for, ErrorCode, NetError};
use crate::telemetry::{ConnTelemetry, Count, NetMetricsSnapshot, NetStage, NetTelemetry};
use crate::wire::{
    decode_frame, encode_error_lossy, encode_rows, ErrorResponse, Frame, FrameError, FrameReader,
    ReadEvent, RequestRef, WireError, CONNECTION_REQUEST_ID, DEFAULT_MAX_FRAME_LEN,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral loopback port
    /// (read it back from [`NetServer::local_addr`]).
    pub addr: String,
    /// How long a draining connection keeps answering already-sent
    /// frames with `shutting_down` before closing.
    pub drain_grace: Duration,
    /// Network-tier telemetry. Per-connection counters are always on;
    /// stage histograms (`frame_decode`, `response_encode`,
    /// `socket_write`) record only at [`TelemetryLevel::Full`]
    /// (zero extra clock reads otherwise).
    ///
    /// [`TelemetryLevel::Full`]: memcom_serve::TelemetryLevel::Full
    pub telemetry: TelemetryConfig,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".to_string(),
            drain_grace: Duration::from_millis(50),
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// Read-timeout granularity for idle connections: how quickly a blocked
/// connection notices the draining flag.
const POLL_TICK: Duration = Duration::from_millis(10);

struct Shared {
    router: Arc<Router>,
    config: NetServerConfig,
    telemetry: NetTelemetry,
    draining: AtomicBool,
}

/// The live connection threads: one OS thread per accepted connection,
/// reaped as new ones are dispatched, joined at shutdown.
#[derive(Default)]
struct ConnThreads {
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ConnThreads {
    fn dispatch(&self, serve: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let mut handles = self.handles.lock();
        // Long-lived servers churn connections: reap finished threads
        // here so the vector tracks live connections, not history.
        handles.retain(|h| !h.is_finished());
        handles.push(
            std::thread::Builder::new()
                .name("memcom-net-conn".into())
                .spawn(serve)?,
        );
        Ok(())
    }

    /// Blocks until every dispatched connection has finished. Called
    /// after the acceptor has exited, so no dispatch races the drain.
    fn drain(&self) {
        for handle in std::mem::take(&mut *self.handles.lock()) {
            let _ = handle.join();
        }
    }
}

/// A running network front-end over a [`Router`]: a TCP listener whose
/// accepted connections are each served on their own OS thread.
///
/// Dropping the server without calling
/// [`shutdown`](NetServer::shutdown) leaks the acceptor thread until
/// process exit — always shut down explicitly to get the drain
/// guarantees (and the final stats) described in the module docs.
pub struct NetServer {
    shared: Arc<Shared>,
    connections: Arc<ConnThreads>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: String,
}

impl NetServer {
    /// Binds and starts serving over TCP.
    ///
    /// # Errors
    ///
    /// Fails on bind errors, and with [`NetError::BadConfig`] for a
    /// `telemetry` config [`Router::start`] would refuse.
    pub fn start(router: Router, config: NetServerConfig) -> crate::Result<Self> {
        config.telemetry.validate()?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?.to_string();
        let telemetry = NetTelemetry::new(&config.telemetry);
        let shared = Arc::new(Shared {
            router: Arc::new(router),
            config,
            telemetry,
            draining: AtomicBool::new(false),
        });
        let connections = Arc::new(ConnThreads::default());
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("memcom-net-accept".into())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if shared.draining.load(Ordering::Acquire) {
                                // The shutdown wake-up (or a client that
                                // raced the drain): refuse and exit.
                                let _ = stream.shutdown(Shutdown::Both);
                                return;
                            }
                            let peer = stream
                                .peer_addr()
                                .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
                            let conn = shared.telemetry.connection_opened(peer);
                            let (serving, served) = (Arc::clone(&shared), Arc::clone(&conn));
                            let spawned = connections
                                .dispatch(move || serve_connection(&serving, stream, &served));
                            if spawned.is_err() {
                                // Out of threads: the stream went down
                                // with the closure, so the peer sees a
                                // close, like any refused connection.
                                shared.telemetry.connection_closed(&conn);
                            }
                        }
                        Err(_) if shared.draining.load(Ordering::Acquire) => return,
                        // Transient accept failures (e.g. the peer reset
                        // before we picked it up) don't stop the server.
                        Err(_) => {}
                    }
                })
                .map_err(NetError::Io)?
        };
        Ok(NetServer {
            shared,
            connections,
            acceptor: Some(acceptor),
            local_addr,
        })
    }

    /// The bound address, with ephemeral ports resolved — hand this to
    /// [`NetClient::connect`](crate::NetClient::connect).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The router behind this server, for registering models and
    /// reading stats while serving.
    pub fn router(&self) -> &Router {
        &self.shared.router
    }

    /// One consistent snapshot of both tiers: network-stage latencies
    /// and per-connection counters wrapped around the router's own
    /// [`metrics`](Router::metrics).
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.shared.telemetry.snapshot(self.shared.router.metrics())
    }

    /// Drains and stops everything in the order the module docs
    /// describe, returning the per-model [`ServeStats`] from the
    /// router's shutdown plus the final network snapshot.
    pub fn shutdown(mut self) -> (Vec<(String, ServeStats)>, NetMetricsSnapshot) {
        self.shared.draining.store(true, Ordering::Release);
        // Unblock the acceptor: it wakes on this connection, sees the
        // flag, and exits.
        let _ = TcpStream::connect(&self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // No new dispatches can happen now; join every connection.
        self.connections.drain();
        let snapshot = self.shared.telemetry.snapshot(self.shared.router.metrics());
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            // memcom-lint: allow(L003) -- not a wire path: shutdown() consumed self after joining every connection thread, so this Arc is provably unique
            unreachable!("all connection threads joined, no other Shared owners");
        };
        let Ok(router) = Arc::try_unwrap(shared.router) else {
            // memcom-lint: allow(L003) -- not a wire path: the acceptor and all connections are joined; only shutdown() still holds this Router Arc
            unreachable!("all connection threads joined, no other Router owners");
        };
        (router.shutdown(), snapshot)
    }
}

/// Per-connection service state, reused across requests so the steady
/// state allocates nothing per frame. The [`FrameReader`] lives beside
/// it: a decoded request borrows the reader's payload while the reply
/// is built here. `ids` and `out` are the buffers every request hands
/// to [`RouterHandle::submit`], lookup or score.
struct ConnCtx {
    write_buf: Vec<u8>,
    ids: Vec<usize>,
    out: Vec<f32>,
    handles: HashMap<String, RouterHandle>,
    stages_on: bool,
}

// memcom-lint: hot-path
fn serve_connection(shared: &Shared, mut stream: TcpStream, conn: &ConnTelemetry) {
    // Latency-bound RPC: frames go on the wire immediately.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_LEN);
    let mut ctx = ConnCtx {
        write_buf: Vec::new(),
        ids: Vec::new(),
        out: Vec::new(),
        handles: HashMap::new(),
        stages_on: shared.telemetry.gate.stages_on(),
    };
    let mut drain_eligible = true;
    loop {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        match reader.read_frame(&mut stream) {
            Ok(ReadEvent::Frame) => {
                if !handle_frame(shared, &mut stream, conn, &mut ctx, reader.payload(), false) {
                    drain_eligible = false;
                    break;
                }
            }
            // The peer closed; there is nothing left to drain.
            Ok(ReadEvent::Eof) => {
                drain_eligible = false;
                break;
            }
            Ok(ReadEvent::TimedOut) => continue,
            Err(FrameError::Wire(err)) => {
                // An oversized length prefix — rejected before any
                // allocation. The framing is no longer trustworthy, so
                // answer once at connection level and close.
                conn.count(Count::ProtocolErrors, 1);
                send_error(
                    &mut stream,
                    conn,
                    &mut ctx,
                    CONNECTION_REQUEST_ID,
                    ErrorCode::Malformed,
                    Duration::ZERO,
                    &err.to_string(),
                );
                drain_eligible = false;
                break;
            }
            Err(FrameError::Io(_)) => {
                drain_eligible = false;
                break;
            }
        }
    }
    if drain_eligible && shared.draining.load(Ordering::Acquire) {
        drain_connection(shared, &mut stream, conn, &mut reader, &mut ctx);
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.telemetry.connection_closed(conn);
}
// memcom-lint: end-hot-path

/// The shutdown drain: keep answering frames already on the wire with
/// typed `shutting_down` errors (never silence) until the grace period
/// lapses or the peer closes.
fn drain_connection(
    shared: &Shared,
    stream: &mut TcpStream,
    conn: &ConnTelemetry,
    reader: &mut FrameReader,
    ctx: &mut ConnCtx,
) {
    let deadline = Instant::now() + shared.config.drain_grace;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let _ = stream.set_read_timeout(Some((deadline - now).min(POLL_TICK)));
        match reader.read_frame(stream) {
            Ok(ReadEvent::Frame) => {
                if !handle_frame(shared, stream, conn, ctx, reader.payload(), true) {
                    return;
                }
            }
            Ok(ReadEvent::TimedOut) => continue,
            Ok(ReadEvent::Eof) | Err(_) => return,
        }
    }
}

/// Serves one decoded frame. Returns `false` when the connection must
/// close (protocol violation or a failed write).
// memcom-lint: hot-path
fn handle_frame(
    shared: &Shared,
    stream: &mut TcpStream,
    conn: &ConnTelemetry,
    ctx: &mut ConnCtx,
    payload: &[u8],
    draining: bool,
) -> bool {
    conn.count(Count::FramesIn, 1);
    conn.count(Count::BytesIn, 4 + payload.len() as u64);
    let started = ctx.stages_on.then(Instant::now);
    let decoded = decode_frame(payload);
    if let Some(started) = started {
        conn.record_stage(NetStage::FrameDecode, started);
    }
    let (req, kind) = match decoded {
        Ok(Frame::Lookup(req)) => (req, RequestKind::Lookup),
        // A score frame has the lookup frame's layout; only the kind
        // byte — carried on as `kind` — differs.
        Ok(Frame::Score(req)) => (req, RequestKind::Score),
        // Rows/Error frames flow server→client only; a client sending
        // one is confused but the framing is intact, so answer typed
        // and keep the connection.
        Ok(Frame::Rows { request_id, .. }) | Ok(Frame::Error(ErrorResponse { request_id, .. })) => {
            conn.count(Count::ProtocolErrors, 1);
            return send_error(
                stream,
                conn,
                ctx,
                request_id,
                ErrorCode::Unsupported,
                Duration::ZERO,
                "rows and error frames are server-to-client only",
            );
        }
        Err(err) => {
            // The payload did not parse: answer once at connection
            // level, then close — a peer this confused may also have
            // confused framing.
            conn.count(Count::ProtocolErrors, 1);
            let code = match err {
                WireError::UnknownVersion(_) | WireError::UnknownKind(_) => ErrorCode::Unsupported,
                _ => ErrorCode::Malformed,
            };
            send_error(
                stream,
                conn,
                ctx,
                CONNECTION_REQUEST_ID,
                code,
                Duration::ZERO,
                &err.to_string(),
            );
            return false;
        }
    };
    if draining {
        conn.count(Count::ShutdownRejected, 1);
        return send_error(
            stream,
            conn,
            ctx,
            req.request_id,
            ErrorCode::ShuttingDown,
            Duration::ZERO,
            "server is draining",
        );
    }
    serve_request(shared, stream, conn, ctx, req, kind)
}

/// Serves one request through [`RouterHandle::submit`]: a lookup is
/// answered as `ids.len()` rows of the store's `dim`, a score as a
/// single-row slab of `dim = K` output scores — same handle caching,
/// deregistration retry, and downgrade-to-typed-error paths for both.
fn serve_request(
    shared: &Shared,
    stream: &mut TcpStream,
    conn: &ConnTelemetry,
    ctx: &mut ConnCtx,
    req: RequestRef<'_>,
    kind: RequestKind,
) -> bool {
    // The one copy of the ids: frame bytes straight into the buffer the
    // router reads.
    ctx.ids.clear();
    ctx.ids.extend(req.ids().map(|id| id as usize));
    // The dtype hint is advisory (a cache/runtime prefetch hint); the
    // server always answers decoded f32 values regardless.
    let mut retried = false;
    let result = loop {
        let handle = match ctx.handles.get(req.model) {
            Some(h) => h,
            None => match shared.router.handle(req.model) {
                Ok(h) => ctx.handles.entry(req.model.to_string()).or_insert(h),
                Err(e) => break Err(e),
            },
        };
        let r = handle.submit(kind, &mut ctx.ids, req.deadline, &mut ctx.out);
        // A cached handle outlives deregistration; drop it and resolve
        // once more (the ids are untouched: a retired model fails before
        // its request is built) so a re-registered model under the same
        // name is picked up.
        if !retried && matches!(r, Err(ServeError::ModelNotFound { .. })) {
            ctx.handles.remove(req.model);
            retried = true;
            continue;
        }
        break r;
    };
    let dim = match result {
        Ok(dim) => dim,
        Err(err) => {
            let resp = error_response_for(req.request_id, &err);
            return send_error(
                stream,
                conn,
                ctx,
                resp.request_id,
                resp.code,
                resp.retry_after,
                &resp.message,
            );
        }
    };
    ctx.write_buf.clear();
    let started = ctx.stages_on.then(Instant::now);
    let encoded = u32::try_from(dim)
        .map_err(|_| WireError::TooLarge {
            payload: dim as u64,
            max: DEFAULT_MAX_FRAME_LEN,
        })
        .and_then(|dim| encode_rows(req.request_id, dim, &ctx.out, &mut ctx.write_buf));
    if let Err(wire_err) = encoded {
        // The slab cannot travel (e.g. a batch over the frame cap): the
        // client still deserves an answer on this request id, so
        // downgrade to a typed error frame.
        return send_error(
            stream,
            conn,
            ctx,
            req.request_id,
            ErrorCode::Internal,
            Duration::ZERO,
            &wire_err.to_string(),
        );
    }
    if let Some(started) = started {
        conn.record_stage(NetStage::ResponseEncode, started);
    }
    conn.count(Count::Served, 1);
    send_buffered(stream, conn, ctx)
}

fn send_error(
    stream: &mut TcpStream,
    conn: &ConnTelemetry,
    ctx: &mut ConnCtx,
    request_id: u64,
    code: ErrorCode,
    retry_after: Duration,
    message: &str,
) -> bool {
    ctx.write_buf.clear();
    let started = ctx.stages_on.then(Instant::now);
    encode_error_lossy(request_id, code, retry_after, message, &mut ctx.write_buf);
    if let Some(started) = started {
        conn.record_stage(NetStage::ResponseEncode, started);
    }
    conn.count(Count::ErrorsSent, 1);
    send_buffered(stream, conn, ctx)
}

/// Flushes `ctx.write_buf` to the socket, timing the write at Full
/// telemetry. Returns `false` when the write fails (peer gone).
fn send_buffered(stream: &mut TcpStream, conn: &ConnTelemetry, ctx: &mut ConnCtx) -> bool {
    let started = ctx.stages_on.then(Instant::now);
    let ok = stream
        .write_all(&ctx.write_buf)
        .and_then(|_| stream.flush())
        .is_ok();
    if let Some(started) = started {
        conn.record_stage(NetStage::SocketWrite, started);
    }
    if ok {
        conn.count(Count::FramesOut, 1);
        conn.count(Count::BytesOut, ctx.write_buf.len() as u64);
    }
    ok
}
// memcom-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn connection_threads_run_and_drain() {
        let pool = ConnThreads::default();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.dispatch(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        // Drain on an empty pool is a no-op.
        pool.drain();
    }
}
