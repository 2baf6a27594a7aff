//! The pipelined network client.
//!
//! One connection carries many in-flight requests: [`NetClient::send`]
//! writes a frame and returns a [`Pending`] ticket immediately; a
//! dedicated reader thread matches response frames back to tickets by
//! request id, so callers overlap request latency freely. `send` takes
//! the request's [`RequestKind`], lookup or score, and an optional
//! per-request deadline; the blocking [`NetClient::lookup`] and
//! [`NetClient::score`] are `send` + [`Pending::wait`] with the config's
//! default deadline.
//!
//! # Backoff
//!
//! Overload rejections carry the server's `retry_after` hint. With
//! [`NetClientConfig::honor_backoff`] set (the default) the client
//! sleeps out the most recent hint before its next send, and
//! [`NetClientStats`] reports both the hinted and the actually-slept
//! backoff so experiments can prove the hints were honored. That sleep
//! happens *inside* `send`, so a caller timing its calls sees it as
//! latency; the load driver ([`crate::loadgen`]) therefore connects with
//! it off and paces between requests itself.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memcom_serve::RequestKind;
use parking_lot::{Condvar, Mutex};

use crate::error::{ErrorCode, NetError};
use crate::wire::{
    decode_payload, encode_request, FrameReader, Message, ReadEvent, RowsResponse,
    CONNECTION_REQUEST_ID, DEFAULT_MAX_FRAME_LEN, KIND_LOOKUP, KIND_SCORE,
};
use crate::Result;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Default per-request deadline attached to every
    /// [`lookup`](NetClient::lookup) and [`score`](NetClient::score); the
    /// server maps it onto admission control under shed-mode policies.
    pub deadline: Option<Duration>,
    /// Sleep out the server's most recent `retry_after` hint before
    /// the next send.
    pub honor_backoff: bool,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            deadline: None,
            honor_backoff: true,
        }
    }
}

/// Outcome tallies and backoff accounting, snapshot via
/// [`NetClient::stats`].
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
    /// Backoff actually slept before sends, nanoseconds.
    pub backoff_slept_nanos: u64,
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
        self.backoff_slept_nanos += other.backoff_slept_nanos;
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
    backoff_slept_nanos: AtomicU64,
}

/// One reply's rendezvous: the reader thread fills it, the waiter
/// blocks on it.
struct ReplySlot {
    state: Mutex<Option<Result<RowsResponse>>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<RowsResponse>) {
        let mut state = self.state.lock();
        // First write wins: a race between a real reply and the
        // connection teardown must not clobber the reply.
        if state.is_none() {
            *state = Some(result);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Result<RowsResponse> {
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            self.cv.wait(&mut state);
        }
    }
}

struct WriterState {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct ClientInner {
    config: NetClientConfig,
    writer: Mutex<WriterState>,
    pending: Mutex<HashMap<u64, Arc<ReplySlot>>>,
    next_id: AtomicU64,
    closed: AtomicBool,
    /// Set (under the `pending` lock) when the reader thread gives up
    /// on the connection; no reply can arrive past this point.
    dead: AtomicBool,
    backoff_until: Mutex<Option<Instant>>,
    counters: Counters,
}

impl ClientInner {
    /// Fails every pending request with `make()`'s error and hands the
    /// slots their verdicts; used on connection teardown. Marks the
    /// connection dead *while holding the pending lock*, so a
    /// concurrent `send` either sees the flag (and refuses) or its
    /// entry is drained here — a ticket can never be orphaned.
    fn fail_all(&self, make: impl Fn() -> NetError) {
        let drained: Vec<Arc<ReplySlot>> = {
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
                if !retry_after.is_zero() {
                    let until = Instant::now() + retry_after;
                    let mut slot = self.backoff_until.lock();
                    if slot.is_none_or(|prev| until > prev) {
                        *slot = Some(until);
                    }
                }
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
    slot: Arc<ReplySlot>,
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
    pub fn connect(addr: &str, config: NetClientConfig) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Latency-bound RPC: frames go on the wire immediately.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(None)?;
        let read_half = stream.try_clone()?;
        let inner = Arc::new(ClientInner {
            config,
            writer: Mutex::new(WriterState {
                stream,
                buf: Vec::new(),
            }),
            pending: Mutex::new(HashMap::new()),
            // Id 0 is reserved for connection-level errors.
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            backoff_until: Mutex::new(None),
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
            backoff_slept_nanos: c.backoff_slept_nanos.load(Ordering::Relaxed),
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
    /// Honors the active backoff hint first (when configured), so a
    /// shed storm self-paces even in pipelined use.
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
        if self.inner.config.honor_backoff {
            let until = *self.inner.backoff_until.lock();
            if let Some(until) = until {
                // memcom-lint: allow(L002) -- reached only while a server
                // backoff hint is active; deciding whether the pause has
                // lapsed requires a wall-clock read.
                let now = Instant::now();
                if until > now {
                    let pause = until - now;
                    std::thread::sleep(pause);
                    self.inner
                        .counters
                        .backoff_slept_nanos
                        .fetch_add(pause.as_nanos() as u64, Ordering::Relaxed);
                }
                // The pause has lapsed: clear the hint, unless a later one
                // replaced it meanwhile, so the next sends read no clock.
                let mut slot = self.inner.backoff_until.lock();
                if *slot == Some(until) {
                    *slot = None;
                }
            }
        }
        let request_id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ReplySlot::new());
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

    /// Blocking lookup with the config's default deadline.
    ///
    /// # Errors
    ///
    /// See [`Pending::wait`] and [`send`](NetClient::send).
    pub fn lookup(&self, model: &str, ids: &[u64]) -> Result<RowsResponse> {
        self.send(RequestKind::Lookup, model, ids, self.inner.config.deadline)?
            .wait()
    }

    /// Blocking full-model score with the config's default deadline:
    /// the returned slab is one row of K scores (`dim == data.len()`).
    ///
    /// # Errors
    ///
    /// See [`Pending::wait`] and [`send`](NetClient::send).
    pub fn score(&self, model: &str, ids: &[u64]) -> Result<RowsResponse> {
        self.send(RequestKind::Score, model, ids, self.inner.config.deadline)?
            .wait()
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

    /// A send sleeps out an active hint and then clears it, so the sends
    /// after it read no clock; a hint that lapsed before the send is
    /// cleared without a sleep.
    #[test]
    fn a_lapsed_backoff_hint_is_cleared() {
        // Frames land in the socket buffer of a connection nobody
        // accepts; no reply is needed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = NetClient::connect(&addr, NetClientConfig::default()).unwrap();
        let hint = || *client.inner.backoff_until.lock();

        client
            .inner
            .tally_error(ErrorCode::Overloaded, Duration::from_millis(5));
        assert!(hint().is_some());
        client.send(RequestKind::Lookup, "m", &[1], None).unwrap();
        assert_eq!(hint(), None, "the hint outlived its pause");
        let slept = client.stats().backoff_slept_nanos;
        assert!(slept > 0);

        client
            .inner
            .tally_error(ErrorCode::Overloaded, Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(1));
        client.send(RequestKind::Lookup, "m", &[2], None).unwrap();
        assert_eq!(hint(), None);
        assert_eq!(
            client.stats().backoff_slept_nanos,
            slept,
            "nothing left to sleep"
        );
        assert_eq!(client.close().sent, 2);
    }
}
