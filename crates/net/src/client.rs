//! The pipelined network client.
//!
//! One connection carries many in-flight requests: [`NetClient::send`]
//! writes a frame and returns a [`Pending`] ticket immediately, and
//! replies are matched back to tickets by request id, so callers overlap
//! request latency freely. `send` takes the request's [`RequestKind`],
//! lookup or score, and an optional per-request deadline; the blocking
//! [`NetClient::lookup`] and [`NetClient::score`] are `send` +
//! [`Pending::wait`] with none.
//!
//! The client spawns no thread: replies are read by the callers that wait
//! for them, one at a time, under the connection's **read turn**. A caller
//! in [`Pending::wait`] whose reply has not arrived takes the turn when it
//! is free, reads frames and answers each one's ticket through the serve
//! tier's [`ReplySlot`] until its own reply arrives, then passes the turn
//! to the oldest caller still blocked in `wait` — whose slot wakes with
//! the turn instead of an answer — or frees it. A caller that finds the
//! turn held waits on its slot. So a lone call reads its own reply and
//! wakes nobody. Only waiters are passed the turn: a ticket nobody waits
//! on is answered by whoever reads next, and a `send` that finds such
//! tickets and a free turn first drains the replies already buffered,
//! without blocking — and drains again whenever its write stalls with the
//! turn free — so one thread that pipelines many requests before it
//! waits keeps the server's replies flowing.
//!
//! The client sends and matches, nothing else: it never sleeps and
//! never paces. An overload rejection reaches the caller as
//! [`NetError::Remote`] carrying the server's `retry_after` hint, and
//! [`NetClientStats::backoff_hint_nanos`] sums the hints; when to retry
//! is the caller's call (the load driver, [`crate::loadgen`], sleeps a
//! hint between requests, outside the latency it times).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use memcom_serve::{ReplySlot, RequestKind};
use parking_lot::Mutex;

use crate::error::{ErrorCode, NetError};
use crate::wire::{
    decode_payload, encode_request, FrameReader, Message, ReadEvent, RowsResponse,
    CONNECTION_REQUEST_ID, DEFAULT_MAX_FRAME_LEN, KIND_LOOKUP, KIND_SCORE,
};
use crate::Result;

/// How long a request write may stall before its sender checks whether
/// anyone reads the connection's replies (see `ClientInner::write_frame`).
const WRITE_STALL: Duration = Duration::from_millis(1);

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

/// One reply's rendezvous: the read turn's holder fills it, the waiter
/// blocks on it — and is woken with the turn instead when it is passed
/// on.
type Reply = ReplySlot<Result<RowsResponse>>;

/// The tickets awaiting replies, and the read turn.
#[derive(Default)]
struct Tickets {
    /// Unanswered tickets by request id. A reply's slot leaves the map
    /// before it is filled, so a listed ticket has no answer yet.
    slots: HashMap<u64, Arc<Reply>>,
    /// Request ids of the callers that found the turn held and block on
    /// their slots, oldest first. An id no longer in `slots` was answered
    /// meanwhile and is skipped.
    waiters: VecDeque<u64>,
    /// Whether the read turn is out: held by a reader, or passed to a
    /// waiter and not yet taken. Only its holder reads the connection.
    turn: bool,
}

struct ClientInner {
    /// The connection: written under `writer`, read by the turn holder.
    stream: TcpStream,
    /// The encode buffer; its lock serializes writes.
    writer: Mutex<Vec<u8>>,
    /// The read side's partial-frame state, locked only by the turn
    /// holder (so never contended).
    reader: Mutex<FrameReader>,
    pending: Mutex<Tickets>,
    next_id: AtomicU64,
    closed: AtomicBool,
    /// Set (under the `pending` lock) when a reader or `close` gives up
    /// on the connection; no reply can arrive past this point.
    dead: AtomicBool,
    counters: Counters,
}

/// What one read of the connection did.
enum Read {
    /// The reader's own reply arrived, handed over without its slot.
    Own(Result<RowsResponse>),
    /// A reply for another ticket arrived, and answered it if pending.
    Other,
    /// No complete frame yet: the read would block or was interrupted.
    Idle,
    /// The connection is finished, and every pending ticket failed.
    Dead,
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
            pending.slots.drain().map(|(_, s)| s).collect()
        };
        for slot in drained {
            slot.fill(Err(make()));
        }
    }

    fn tally_error(&self, code: ErrorCode, retry_after: Duration) {
        match code {
            ErrorCode::Overloaded => {
                // ORDERING: client-side outcome tally, bumped only by
                // the read turn's holder, one thread at a time; not the
                // server-side `issued >= requests + shed + expired`
                // contract.
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .backoff_hint_nanos
                    .fetch_add(retry_after.as_nanos() as u64, Ordering::Relaxed);
            }
            ErrorCode::DeadlineExceeded => {
                // ORDERING: same turn-holder client tally as `shed`
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

    /// Hands request `id`'s reply to its ticket: back to the reader when
    /// it is the reader's `own`, into the ticket's slot when another
    /// ticket is still pending.
    fn answer(&self, id: u64, own: Option<u64>, reply: Result<RowsResponse>) -> Read {
        let slot = self.pending.lock().slots.remove(&id);
        if own == Some(id) {
            return Read::Own(reply);
        }
        if let Some(slot) = slot {
            slot.fill(reply);
        }
        Read::Other
    }

    /// Reads toward the next reply frame and dispatches it. Only the read
    /// turn's holder calls this, with its own request id if it waits.
    fn read_reply(&self, reader: &mut FrameReader, own: Option<u64>) -> Read {
        match reader.read_frame(&mut &self.stream) {
            Ok(ReadEvent::Frame) => match decode_payload(reader.payload()) {
                Ok(Message::Rows(rows)) => {
                    self.counters.served.fetch_add(1, Ordering::Relaxed);
                    self.answer(rows.request_id, own, Ok(rows))
                }
                Ok(Message::Error(err)) => {
                    self.tally_error(err.code, err.retry_after);
                    if err.request_id == CONNECTION_REQUEST_ID {
                        // A connection-level verdict condemns every
                        // in-flight request; the server will close next.
                        let code = err.code;
                        let retry_after = err.retry_after;
                        let message = err.message;
                        self.fail_all(|| NetError::Remote {
                            code,
                            retry_after,
                            message: message.clone(),
                        });
                        return Read::Dead;
                    }
                    self.answer(
                        err.request_id,
                        own,
                        Err(NetError::Remote {
                            code: err.code,
                            retry_after: err.retry_after,
                            message: err.message,
                        }),
                    )
                }
                // Lookup/score requests flow client→server only.
                Ok(Message::Lookup(_) | Message::Score(_)) | Err(_) => {
                    self.fail_all(|| NetError::ConnectionClosed);
                    Read::Dead
                }
            },
            Ok(ReadEvent::TimedOut) => Read::Idle,
            Ok(ReadEvent::Eof) | Err(_) => {
                self.fail_all(|| NetError::ConnectionClosed);
                Read::Dead
            }
        }
    }

    /// Registers a caller that waits for request `id`'s reply. Returns
    /// `true` when it took the free read turn; otherwise it queues behind
    /// the holder, or finds its reply already answered.
    fn enter_wait(&self, id: u64) -> bool {
        let mut pending = self.pending.lock();
        if !pending.slots.contains_key(&id) {
            return false;
        }
        if pending.turn {
            pending.waiters.push_back(id);
            return false;
        }
        pending.turn = true;
        true
    }

    /// Holds the read turn until request `id`'s reply arrives, answering
    /// every ticket whose reply comes first; then passes the turn on and
    /// returns the reply — or `None` when the connection died, which
    /// answered the ticket's slot.
    fn read_until(&self, id: u64) -> Option<Result<RowsResponse>> {
        let _turn = ReadTurn(self);
        let mut reader = self.reader.lock();
        loop {
            match self.read_reply(&mut reader, Some(id)) {
                Read::Own(reply) => return Some(reply),
                Read::Dead => return None,
                Read::Other | Read::Idle => {}
            }
        }
    }

    /// Writes one request frame whole, under the writer lock. A write
    /// that stalls for [`WRITE_STALL`] while nobody holds the read turn
    /// takes it and drains the buffered replies before it goes on:
    /// unread, they block the server's writes, and a server that cannot
    /// write stops reading this frame.
    fn write_frame(&self, mut frame: &[u8]) -> std::io::Result<()> {
        let mut stream = &self.stream;
        while !frame.is_empty() {
            match stream.write(frame) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => frame = frame.get(n..).unwrap_or_default(),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.take_free_turn() {
                        self.drain();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Takes the read turn if it is free.
    fn take_free_turn(&self) -> bool {
        let mut pending = self.pending.lock();
        !std::mem::replace(&mut pending.turn, true)
    }

    /// Holds the read turn to answer the replies already buffered on the
    /// connection, without blocking. Called by a `send`, under the writer
    /// lock, so no write sees the socket non-blocking.
    fn drain(&self) {
        let _turn = ReadTurn(self);
        if self.stream.set_nonblocking(true).is_err() {
            return;
        }
        {
            let mut reader = self.reader.lock();
            while let Read::Other = self.read_reply(&mut reader, None) {}
        }
        if self.stream.set_nonblocking(false).is_err() {
            // A reader on a non-blocking socket would spin: give the
            // connection up instead.
            let _ = self.stream.shutdown(Shutdown::Both);
            self.fail_all(|| NetError::ConnectionClosed);
        }
    }
}

/// The connection's read turn, held while its holder reads. Dropping it
/// — on unwind too — passes the turn to the oldest caller still blocked
/// in [`Pending::wait`], or frees it.
struct ReadTurn<'a>(&'a ClientInner);

impl Drop for ReadTurn<'_> {
    fn drop(&mut self) {
        let mut pending = self.0.pending.lock();
        while let Some(id) = pending.waiters.pop_front() {
            if let Some(slot) = pending.slots.get(&id) {
                slot.pass_turn();
                return;
            }
        }
        pending.turn = false;
    }
}

/// A ticket for one in-flight request; [`wait`](Pending::wait) blocks
/// until its response frame arrives (or the connection dies). Dropped
/// unanswered, it forgets its slot, and its reply is read and discarded.
pub struct Pending {
    inner: Arc<ClientInner>,
    slot: Arc<Reply>,
    request_id: u64,
}

impl Pending {
    /// The request id this ticket tracks.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Blocks for the reply, reading the connection itself when the read
    /// turn is free or passed to it.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for typed server rejections,
    /// [`NetError::ConnectionClosed`] if the connection died with this
    /// request unanswered.
    pub fn wait(self) -> Result<RowsResponse> {
        if !self.inner.enter_wait(self.request_id) {
            if let Some(answer) = self.slot.wait_or_turn() {
                return answer;
            }
        }
        match self.inner.read_until(self.request_id) {
            Some(reply) => reply,
            None => self.slot.wait(),
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        // The pending map holds the slot's other `Arc` while the ticket
        // is unanswered; a lone `Arc` has nothing to forget.
        if Arc::strong_count(&self.slot) > 1 {
            self.inner.pending.lock().slots.remove(&self.request_id);
        }
    }
}

/// A pipelined connection to a [`NetServer`](crate::NetServer).
///
/// Cheap to share: wrap it in an [`Arc`] and issue sends from many
/// threads — the writer is serialized internally, replies are routed by
/// request id.
pub struct NetClient {
    inner: Arc<ClientInner>,
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
        stream.set_write_timeout(Some(WRITE_STALL))?;
        let inner = Arc::new(ClientInner {
            stream,
            writer: Mutex::new(Vec::new()),
            reader: Mutex::new(FrameReader::new(DEFAULT_MAX_FRAME_LEN)),
            pending: Mutex::new(Tickets::default()),
            // Id 0 is reserved for connection-level errors.
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            counters: Counters::default(),
        });
        Ok(NetClient { inner })
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
        self.inner.pending.lock().slots.len()
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
        let kind = match kind {
            RequestKind::Lookup => KIND_LOOKUP,
            RequestKind::Score => KIND_SCORE,
        };
        let mut buf = self.inner.writer.lock();
        buf.clear();
        // The server answers decoded f32 whatever the advisory dtype
        // hint says, so the client sends none. An unencodable request
        // (model name or id batch over the frame cap) surfaces typed
        // instead of shipping a frame with silently-wrapped counts;
        // nothing was sent, so no ticket is made.
        encode_request(kind, request_id, model, ids, None, deadline, &mut buf)
            .map_err(NetError::Protocol)?;
        let slot = Arc::new(Reply::new());
        let drain = {
            let mut pending = self.inner.pending.lock();
            if self.inner.dead.load(Ordering::Acquire) {
                // The connection is finished; nothing can ever answer.
                return Err(NetError::ConnectionClosed);
            }
            // Tickets with the turn free are tickets nobody waits on:
            // unread, their replies would fill the socket until the
            // server blocks writing them and stops reading this request.
            let drain = !pending.turn && !pending.slots.is_empty();
            pending.turn |= drain;
            pending.slots.insert(request_id, Arc::clone(&slot));
            drain
        };
        if drain {
            self.inner.drain();
        }
        match self.inner.write_frame(&buf) {
            Ok(()) => {
                self.inner.counters.sent.fetch_add(1, Ordering::Relaxed);
                Ok(Pending {
                    inner: Arc::clone(&self.inner),
                    slot,
                    request_id,
                })
            }
            Err(e) => {
                self.inner.pending.lock().slots.remove(&request_id);
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
    pub fn close(self) -> NetClientStats {
        self.close_inner();
        self.stats()
    }

    fn close_inner(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Shutting the socket down ends the turn holder's read at EOF;
        // the pending tickets are failed here, so each is answered
        // before `close` returns, whoever holds the turn.
        let _ = self.inner.stream.shutdown(Shutdown::Both);
        self.inner.fail_all(|| NetError::ConnectionClosed);
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.close_inner();
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
