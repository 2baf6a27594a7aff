//! The pipelined network client.
//!
//! One connection carries many in-flight requests: [`NetClient::send`]
//! writes a frame and returns a [`Pending`] ticket immediately; a
//! dedicated reader thread matches response frames back to tickets by
//! request id and answers each ticket through the serve tier's
//! [`ReplySlot`], so callers overlap request latency freely. `send`
//! takes the request's [`RequestKind`], lookup or score, and an optional
//! per-request deadline; the blocking [`NetClient::lookup`] and
//! [`NetClient::score`] are `send` + [`Pending::wait`] with none.
//!
//! The client sends and matches, nothing else: it never sleeps and
//! never paces. An overload rejection reaches the caller as
//! [`NetError::Remote`] carrying the server's `retry_after` hint, and
//! [`NetClientStats::backoff_hint_nanos`] sums the hints; when to retry
//! is the caller's call (the load driver, [`crate::loadgen`], sleeps a
//! hint between requests, outside the latency it times).

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use memcom_serve::{ReplySlot, RequestKind};
use parking_lot::Mutex;

use crate::error::{ErrorCode, NetError};
use crate::wire::{
    decode_payload, encode_request, FrameReader, Message, ReadEvent, RowsResponse,
    CONNECTION_REQUEST_ID, DEFAULT_MAX_FRAME_LEN, KIND_LOOKUP, KIND_SCORE,
};
use crate::Result;

/// Client settings: there are none. [`NetClient::connect`] still takes
/// one, so its callers keep their signature.
#[derive(Debug, Clone, Default)]
pub struct NetClientConfig {}

/// Outcome tallies, snapshot via [`NetClient::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetClientStats {
    /// Requests successfully written to the socket.
    pub sent: u64,
    /// Row responses received.
    pub served: u64,
    /// `overloaded` rejections received.
    pub shed: u64,
    /// `deadline_exceeded` rejections received.
    pub expired: u64,
    /// `shutting_down` rejections received (the server's drain answers;
    /// these never entered the router).
    pub shutdown_rejected: u64,
    /// Every other typed error received.
    pub other_errors: u64,
    /// Sum of the server's `retry_after` hints, nanoseconds.
    pub backoff_hint_nanos: u64,
}

/// Folds another connection's tallies in (a load run sums its clients).
impl std::ops::AddAssign for NetClientStats {
    fn add_assign(&mut self, other: Self) {
        self.sent += other.sent;
        self.served += other.served;
        self.shed += other.shed;
        self.expired += other.expired;
        self.shutdown_rejected += other.shutdown_rejected;
        self.other_errors += other.other_errors;
        self.backoff_hint_nanos += other.backoff_hint_nanos;
    }
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    shutdown_rejected: AtomicU64,
    other_errors: AtomicU64,
    backoff_hint_nanos: AtomicU64,
}

/// One reply's rendezvous: the reader thread fills it, the waiter
/// blocks on it.
type Reply = ReplySlot<Result<RowsResponse>>;

struct WriterState {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct ClientInner {
    writer: Mutex<WriterState>,
    pending: Mutex<HashMap<u64, Arc<Reply>>>,
    next_id: AtomicU64,
    closed: AtomicBool,
    /// Set (under the `pending` lock) when the reader thread gives up
    /// on the connection; no reply can arrive past this point.
    dead: AtomicBool,
    counters: Counters,
}

impl ClientInner {
    /// Fails every pending request with `make()`'s error and hands the
    /// slots their verdicts; used on connection teardown. Marks the
    /// connection dead *while holding the pending lock*, so a
    /// concurrent `send` either sees the flag (and refuses) or its
    /// entry is drained here — a ticket can never be orphaned.
    fn fail_all(&self, make: impl Fn() -> NetError) {
        let drained: Vec<Arc<Reply>> = {
            let mut pending = self.pending.lock();
            self.dead.store(true, Ordering::Release);
            pending.drain().map(|(_, s)| s).collect()
        };
        for slot in drained {
            slot.fill(Err(make()));
        }
    }

    fn tally_error(&self, code: ErrorCode, retry_after: Duration) {
        match code {
            ErrorCode::Overloaded => {
                // ORDERING: client-side outcome tally, bumped only by
                // the single reader thread; not the server-side
                // `issued >= requests + shed + expired` contract.
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .backoff_hint_nanos
                    .fetch_add(retry_after.as_nanos() as u64, Ordering::Relaxed);
            }
            ErrorCode::DeadlineExceeded => {
                // ORDERING: same single-reader client tally as `shed`
                // above; no cross-counter invariant to preserve.
                self.counters.expired.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::ShuttingDown => {
                self.counters
                    .shutdown_rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.counters.other_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A ticket for one in-flight request; [`wait`](Pending::wait) blocks
/// until its response frame arrives (or the connection dies).
pub struct Pending {
    slot: Arc<Reply>,
    request_id: u64,
}

impl Pending {
    /// The request id this ticket tracks.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Blocks for the reply.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for typed server rejections,
    /// [`NetError::ConnectionClosed`] if the connection died with this
    /// request unanswered.
    pub fn wait(self) -> Result<RowsResponse> {
        self.slot.wait()
    }
}

/// A pipelined connection to a [`NetServer`](crate::NetServer).
///
/// Cheap to share: wrap it in an [`Arc`] and issue sends from many
/// threads — the writer is serialized internally, replies are routed by
/// request id.
pub struct NetClient {
    inner: Arc<ClientInner>,
    reader: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures surface as
    /// [`NetError::Io`].
    pub fn connect(addr: &str, _config: NetClientConfig) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Latency-bound RPC: frames go on the wire immediately.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(None)?;
        let read_half = stream.try_clone()?;
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(WriterState {
                stream,
                buf: Vec::new(),
            }),
            pending: Mutex::new(HashMap::new()),
            // Id 0 is reserved for connection-level errors.
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let reader = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("memcom-net-client".into())
                .spawn(move || reader_loop(&inner, read_half))
                .map_err(NetError::Io)?
        };
        Ok(NetClient {
            inner,
            reader: Some(reader),
        })
    }

    /// Current outcome tallies.
    pub fn stats(&self) -> NetClientStats {
        let c = &self.inner.counters;
        NetClientStats {
            sent: c.sent.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed), // ORDERING: advisory client tally, no contract
            expired: c.expired.load(Ordering::Relaxed), // ORDERING: advisory client tally, no contract
            shutdown_rejected: c.shutdown_rejected.load(Ordering::Relaxed),
            other_errors: c.other_errors.load(Ordering::Relaxed),
            backoff_hint_nanos: c.backoff_hint_nanos.load(Ordering::Relaxed),
        }
    }

    /// Requests currently awaiting replies (pipeline depth).
    pub fn in_flight(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// Sends one lookup or score request without waiting; pipeline as
    /// many as you like before collecting the [`Pending`] tickets. A
    /// lookup's reply slab holds the ids' rows, a score's one row of the
    /// backend's K output scores.
    ///
    /// # Errors
    ///
    /// [`NetError::ClientClosed`] after close, [`NetError::Io`] if the
    /// write fails, [`NetError::Protocol`] if the request cannot be
    /// encoded (model name over [`crate::wire::MAX_MODEL_LEN`], id
    /// batch over the frame cap).
    // memcom-lint: hot-path
    pub fn send(
        &self,
        kind: RequestKind,
        model: &str,
        ids: &[u64],
        deadline: Option<Duration>,
    ) -> Result<Pending> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(NetError::ClientClosed);
        }
        let request_id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Reply::new());
        {
            let mut pending = self.inner.pending.lock();
            if self.inner.dead.load(Ordering::Acquire) {
                // The reader thread is gone; nothing can ever answer.
                return Err(NetError::ConnectionClosed);
            }
            pending.insert(request_id, Arc::clone(&slot));
        }
        let mut w = self.inner.writer.lock();
        w.buf.clear();
        let kind = match kind {
            RequestKind::Lookup => KIND_LOOKUP,
            RequestKind::Score => KIND_SCORE,
        };
        // The server answers decoded f32 whatever the advisory dtype
        // hint says, so the client sends none.
        if let Err(e) = encode_request(kind, request_id, model, ids, None, deadline, &mut w.buf) {
            // Unencodable request (model name or id batch over the
            // frame cap): surface it typed instead of shipping a frame
            // with silently-wrapped counts, and forget the reply slot —
            // nothing was sent, so nothing will answer it.
            drop(w);
            self.inner.pending.lock().remove(&request_id);
            return Err(NetError::Protocol(e));
        }
        let WriterState { stream, buf } = &mut *w;
        match stream.write_all(buf).and_then(|_| stream.flush()) {
            Ok(()) => {
                self.inner.counters.sent.fetch_add(1, Ordering::Relaxed);
                Ok(Pending { slot, request_id })
            }
            Err(e) => {
                drop(w);
                self.inner.pending.lock().remove(&request_id);
                Err(NetError::Io(e))
            }
        }
    }
    // memcom-lint: end-hot-path

    /// Blocking lookup with no deadline.
    ///
    /// # Errors
    ///
    /// See [`Pending::wait`] and [`send`](NetClient::send).
    pub fn lookup(&self, model: &str, ids: &[u64]) -> Result<RowsResponse> {
        self.send(RequestKind::Lookup, model, ids, None)?.wait()
    }

    /// Blocking full-model score with no deadline: the returned slab is
    /// one row of K scores (`dim == data.len()`).
    ///
    /// # Errors
    ///
    /// See [`Pending::wait`] and [`send`](NetClient::send).
    pub fn score(&self, model: &str, ids: &[u64]) -> Result<RowsResponse> {
        self.send(RequestKind::Score, model, ids, None)?.wait()
    }

    /// Closes the connection, fails any still-pending requests with
    /// [`NetError::ConnectionClosed`], and returns the final tallies.
    pub fn close(mut self) -> NetClientStats {
        self.close_inner();
        self.stats()
    }

    fn close_inner(&mut self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Shutting down the socket unblocks the reader thread's read;
        // it observes EOF and fails whatever is still pending.
        let _ = self.inner.writer.lock().stream.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.close_inner();
    }
}

fn reader_loop(inner: &ClientInner, mut stream: TcpStream) {
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_LEN);
    loop {
        match reader.read_frame(&mut stream) {
            Ok(ReadEvent::Frame) => match decode_payload(reader.payload()) {
                Ok(Message::Rows(rows)) => {
                    inner.counters.served.fetch_add(1, Ordering::Relaxed);
                    if let Some(slot) = inner.pending.lock().remove(&rows.request_id) {
                        slot.fill(Ok(rows));
                    }
                }
                Ok(Message::Error(err)) => {
                    inner.tally_error(err.code, err.retry_after);
                    if err.request_id == CONNECTION_REQUEST_ID {
                        // A connection-level verdict condemns every
                        // in-flight request; the server will close next.
                        let code = err.code;
                        let retry_after = err.retry_after;
                        let message = err.message;
                        inner.fail_all(|| NetError::Remote {
                            code,
                            retry_after,
                            message: message.clone(),
                        });
                        break;
                    }
                    if let Some(slot) = inner.pending.lock().remove(&err.request_id) {
                        slot.fill(Err(NetError::Remote {
                            code: err.code,
                            retry_after: err.retry_after,
                            message: err.message,
                        }));
                    }
                }
                // Lookup/score requests flow client→server only.
                Ok(Message::Lookup(_) | Message::Score(_)) | Err(_) => {
                    inner.fail_all(|| NetError::ConnectionClosed);
                    break;
                }
            },
            Ok(ReadEvent::TimedOut) => {
                if inner.closed.load(Ordering::Acquire) {
                    inner.fail_all(|| NetError::ClientClosed);
                    break;
                }
            }
            Ok(ReadEvent::Eof) | Err(_) => {
                inner.fail_all(|| NetError::ConnectionClosed);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// The client never sleeps on a backoff hint: an `overloaded`
    /// answer is tallied, and the next send goes straight out.
    #[test]
    fn a_backoff_hint_never_delays_a_send() {
        // Frames land in the socket buffer of a connection nobody
        // accepts; no reply is needed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = NetClient::connect(&addr, NetClientConfig::default()).unwrap();

        client
            .inner
            .tally_error(ErrorCode::Overloaded, Duration::from_secs(5));
        let start = Instant::now();
        client.send(RequestKind::Lookup, "m", &[1], None).unwrap();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "send slept {took:?}");
        assert_eq!(client.stats().backoff_hint_nanos, 5_000_000_000);
        assert_eq!(client.close().sent, 1);
    }
}
