//! Micro-batching request queues and response cells.
//!
//! Each shard owns one bounded queue and one worker. The worker is
//! work-conserving: it blocks for the first request, then takes up to
//! `max_batch` of whatever is already queued and serves at once — it
//! never holds a batch open waiting for company. Batches form under
//! load, from the backlog that queues while the worker serves the
//! previous batch; [`FlushReason`] counters record which bound closed
//! each one.
//!
//! One response cell answers every request the router enqueues (see
//! [`crate::router`]): a [`SlabSlot`], the [`ReplySlot`] that
//! round-trips the caller's id/output buffers, so they can be pooled and
//! reused across calls.
//!
//! Producers pick their overload behavior per [`ShardQueue::push`]:
//! with no budget it blocks while the queue is full (backpressure);
//! with one it never waits past it and hands the rejected request back
//! through [`PushError`] — the primitive under
//! [`crate::AdmissionPolicy::Shed`]'s admission control.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::{Result, ServeError};

/// Why a push failed — carrying the rejected request back to the
/// producer, so buffers it owns (e.g. a slab request's id/out vectors)
/// survive the rejection and can be recycled instead of reallocated.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue stayed full past the producer's budget (shed).
    Full(T),
    /// The queue is closed (shutdown).
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected request.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(request) | PushError::Closed(request) => request,
        }
    }
}

/// Why a worker closed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached `max_batch` requests.
    Full,
    /// The batch took every queued request.
    Emptied,
    /// The server is shutting down; remaining requests are drained.
    Drain,
}

/// What a [`SlabSlot`] carries back: the request's id list and output
/// slab (returned so the caller can recycle both buffers) plus the
/// serving outcome. On a worker-lost blanket the buffers come back
/// empty — they were consumed by the panicking batch.
#[derive(Debug)]
pub struct SlabOutcome {
    /// The ids the request asked for, handed back for reuse.
    pub ids: Vec<usize>,
    /// The output slab, `ids.len() * dim` values row-major on success.
    pub out: Vec<f32>,
    /// Whether the slab was filled.
    pub result: Result<()>,
}

/// The single-consumer response cell a requester blocks on: one
/// answer, first write wins. The router answers through a [`SlabSlot`];
/// `memcom-net`'s client answers its tickets through one too.
#[derive(Debug)]
pub struct ReplySlot<T> {
    state: Mutex<Option<T>>,
    ready: Condvar,
}

/// The router's reply cell: round-trips the caller's buffers so the
/// steady state allocates nothing per row.
pub type SlabSlot = ReplySlot<SlabOutcome>;

impl<T> ReplySlot<T> {
    /// Creates an unfilled slot.
    pub fn new() -> Self {
        ReplySlot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Publishes the answer, waking the waiting requester. The first
    /// write wins: a later fill (e.g. the worker's panic-recovery path
    /// blanketing a batch with errors, or a connection teardown racing
    /// a real reply) cannot clobber a real answer.
    pub fn fill(&self, answer: T) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(answer);
            self.ready.notify_all();
        }
    }

    /// Blocks until the answer arrives and takes it.
    pub fn wait(&self) -> T {
        let mut state = self.state.lock();
        loop {
            if let Some(answer) = state.take() {
                return answer;
            }
            self.ready.wait(&mut state);
        }
    }
}

impl<T> Default for ReplySlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl SlabSlot {
    /// Fails the request while handing the caller's buffers back for
    /// reuse. This is the failure path whenever the worker still owns
    /// the buffers (store error, expired-at-dequeue) — under load
    /// shedding it is hot, and losing the buffers here would cost the
    /// caller a reallocation per failed request.
    pub fn fail_with_buffers(&self, ids: Vec<usize>, out: Vec<f32>, error: ServeError) {
        self.fill(SlabOutcome {
            ids,
            out,
            result: Err(error),
        });
    }

    /// Fails the request *without* buffers. Only for the panic-recovery
    /// blanket, where the buffers died with the panicking batch —
    /// every other failure path must use
    /// [`fail_with_buffers`](Self::fail_with_buffers) so the caller's
    /// pool stays warm.
    pub fn fail(&self, error: ServeError) {
        self.fill(SlabOutcome {
            ids: Vec::new(),
            out: Vec::new(),
            result: Err(error),
        });
    }
}

#[derive(Debug)]
struct QueueState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Default for QueueState<T> {
    fn default() -> Self {
        QueueState {
            queue: VecDeque::new(),
            closed: false,
        }
    }
}

/// A bounded MPSC queue with batch-oriented consumption, generic over
/// the queued request type (the router enqueues [`crate::router`]'s
/// `Request`; tests use plain values).
#[derive(Debug)]
pub struct ShardQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Wakes the worker when requests arrive or the queue closes.
    ready: Condvar,
    /// Wakes blocked producers when capacity frees up.
    space: Condvar,
    capacity: usize,
}

impl<T> ShardQueue<T> {
    /// Creates a queue holding at most `capacity` pending requests.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0` — rejected earlier by config
    /// validation.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        ShardQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a request, waiting for queue space as long as `wait`
    /// allows: `None` blocks while the queue is full (backpressure — the
    /// [`crate::AdmissionPolicy::Block`] path); `Some(budget)` waits at
    /// most `budget` — the bounded admission of
    /// [`crate::AdmissionPolicy::Shed`], under which an open-loop caller
    /// keeps its arrival schedule even in sustained overload —
    /// and `Some(Duration::ZERO)` never waits. The clock is read only
    /// once the queue is found full.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] when the queue stayed full for the
    /// whole budget and [`PushError::Closed`] once the queue is closed,
    /// both with the request. A budget too large to represent as a
    /// point in time (e.g. `Duration::MAX`) waits indefinitely, like
    /// `None`.
    // memcom-lint: hot-path
    pub fn push(
        &self,
        request: T,
        wait: Option<Duration>,
    ) -> std::result::Result<(), PushError<T>> {
        let mut deadline = None;
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed(request));
            }
            if state.queue.len() < self.capacity {
                break;
            }
            let Some(budget) = wait else {
                self.space.wait(&mut state);
                continue;
            };
            if budget.is_zero() {
                return Err(PushError::Full(request));
            }
            // memcom-lint: allow(L002) -- the admission budget is defined in wall-clock time; read only while blocked on a full queue, never on the uncontended fast path
            let now = Instant::now();
            match *deadline.get_or_insert_with(|| now.checked_add(budget)) {
                Some(deadline) if now >= deadline => return Err(PushError::Full(request)),
                Some(deadline) => {
                    self.space.wait_for(&mut state, deadline - now);
                }
                None => self.space.wait(&mut state),
            }
        }
        state.queue.push_back(request);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }
    // memcom-lint: end-hot-path

    /// Pops the next micro-batch into the caller's reusable buffer
    /// (cleared first — the worker loop's zero-allocation steady state,
    /// certified by `tests/alloc_count.rs`): blocks for the first
    /// request, then takes up to `max_batch` of whatever is queued and
    /// returns at once, reading no clock. Returns why the batch closed,
    /// or `None` when the queue is closed *and* fully drained — the
    /// worker's exit signal.
    // memcom-lint: hot-path
    pub fn pop_batch_into(&self, batch: &mut Vec<T>, max_batch: usize) -> Option<FlushReason> {
        batch.clear();
        let mut state = self.state.lock();
        while state.queue.is_empty() {
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        }
        let take = state.queue.len().min(max_batch);
        batch.extend(state.queue.drain(..take));
        let reason = if batch.len() == max_batch {
            FlushReason::Full
        } else if state.closed {
            FlushReason::Drain
        } else {
            FlushReason::Emptied
        };
        drop(state);
        self.space.notify_all();
        Some(reason)
    }
    // memcom-lint: end-hot-path

    /// Closes the queue: producers start failing, the worker drains what
    /// remains and exits.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Pending request count (diagnostics).
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The one pop, into a fresh buffer.
    fn pop<T>(q: &ShardQueue<T>, max_batch: usize) -> Option<(Vec<T>, FlushReason)> {
        let mut batch = Vec::new();
        let reason = q.pop_batch_into(&mut batch, max_batch)?;
        Some((batch, reason))
    }

    #[test]
    fn a_backlog_splits_into_a_full_batch_then_the_rest() {
        let q = ShardQueue::new(16);
        for id in 0..5usize {
            q.push(id, None).unwrap();
        }
        let t0 = Instant::now();
        let (batch, reason) = pop(&q, 4).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(reason, FlushReason::Full);
        let (rest, reason) = pop(&q, 4).unwrap();
        assert_eq!(rest, vec![4]);
        assert_eq!(reason, FlushReason::Emptied);
        assert_eq!(q.depth(), 0);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "no pop waited: {took:?}");
    }

    #[test]
    fn a_lone_request_is_served_at_once() {
        let q = ShardQueue::new(16);
        q.push(7usize, None).unwrap();
        let t0 = Instant::now();
        let (batch, reason) = pop(&q, 64).unwrap();
        let took = t0.elapsed();
        assert_eq!(batch, vec![7]);
        assert_eq!(reason, FlushReason::Emptied);
        assert!(took < Duration::from_secs(1), "held the batch {took:?}");
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = ShardQueue::new(16);
        q.push(1usize, None).unwrap();
        q.push(2, None).unwrap();
        q.close();
        assert!(matches!(q.push(3, None), Err(PushError::Closed(3))));
        let (batch, reason) = pop(&q, 64).unwrap();
        assert_eq!(batch.len(), 2, "queued work survives close");
        assert_eq!(reason, FlushReason::Drain);
        assert!(pop(&q, 64).is_none(), "then the worker exits");
    }

    #[test]
    fn zero_budget_push_rejects_when_full_and_hands_the_request_back() {
        let q = ShardQueue::new(2);
        q.push(1usize, Some(Duration::ZERO)).unwrap();
        q.push(2, Some(Duration::ZERO)).unwrap();
        // Full: immediate rejection, request recovered intact.
        match q.push(3, Some(Duration::ZERO)) {
            Err(PushError::Full(rejected)) => assert_eq!(rejected, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        // Space frees up -> accepted again.
        let (batch, _) = pop(&q, 1).unwrap();
        assert_eq!(batch, vec![1]);
        q.push(3, Some(Duration::ZERO)).unwrap();
        q.close();
        assert!(matches!(
            q.push(4, Some(Duration::ZERO)),
            Err(PushError::Closed(4))
        ));
    }

    #[test]
    fn budgeted_push_waits_out_its_budget_then_sheds() {
        let q = ShardQueue::new(1);
        q.push(0usize, None).unwrap();
        // Nothing drains the queue: the push must give up after ~budget,
        // not block forever (the coordinated-omission fix).
        let t0 = Instant::now();
        let budget = Duration::from_millis(30);
        match q.push(9, Some(budget)) {
            Err(PushError::Full(rejected)) => assert_eq!(rejected, 9),
            other => panic!("expected Full, got {other:?}"),
        }
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "waited {waited:?}");
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");

        // With a consumer freeing space inside the budget, it succeeds.
        let q = Arc::new(ShardQueue::new(1));
        q.push(0usize, None).unwrap();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            pop(&q2, 1)
        });
        q.push(9, Some(Duration::from_secs(5))).unwrap();
        consumer.join().unwrap().unwrap();
        assert_eq!(q.depth(), 1);
        // A zero budget on a full queue rejects at once.
        assert!(matches!(
            q.push(7, Some(Duration::ZERO)),
            Err(PushError::Full(7))
        ));
    }

    #[test]
    fn unrepresentable_budgets_never_panic() {
        // `Instant::now() + Duration::MAX` would overflow-panic; these
        // budgets must instead mean "wait indefinitely".
        let q = Arc::new(ShardQueue::new(1));
        q.push(0usize, None).unwrap();
        let q1 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            pop(&q1, 1)
        });
        // Full queue, so the budget is turned into a deadline here.
        q.push(1, Some(Duration::MAX)).unwrap();
        let (first, _) = consumer.join().unwrap().unwrap();
        assert_eq!(first, vec![0]);
        let (batch, _) = pop(&q, 4).unwrap();
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn pop_reuses_the_callers_buffer() {
        let q = ShardQueue::new(16);
        let mut batch: Vec<usize> = Vec::with_capacity(8);
        for id in 0..6usize {
            q.push(id, None).unwrap();
        }
        let reason = q.pop_batch_into(&mut batch, 4).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(reason, FlushReason::Full);
        let capacity = batch.capacity();
        // Stale contents are cleared; capacity is reused, not reallocated.
        let reason = q.pop_batch_into(&mut batch, 4).unwrap();
        assert_eq!(batch, vec![4, 5]);
        assert_eq!(reason, FlushReason::Emptied);
        assert_eq!(batch.capacity(), capacity);
        q.close();
        assert!(q.pop_batch_into(&mut batch, 4).is_none());
    }

    #[test]
    fn cross_thread_wakeup() {
        let q = Arc::new(ShardQueue::new(4));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.push(9usize, None).unwrap();
        });
        // Worker parked on an empty queue gets woken by the push.
        let (batch, _) = pop(&q, 1).unwrap();
        assert_eq!(batch[0], 9);
        producer.join().unwrap();
    }

    #[test]
    fn slab_slot_round_trips_buffers() {
        let slot = Arc::new(SlabSlot::new());
        let slot2 = Arc::clone(&slot);
        let filler = std::thread::spawn(move || {
            slot2.fill(SlabOutcome {
                ids: vec![3, 9],
                out: vec![1.0, 2.0, 3.0, 4.0],
                result: Ok(()),
            });
        });
        let outcome = slot.wait();
        filler.join().unwrap();
        assert_eq!(outcome.ids, vec![3, 9]);
        assert_eq!(outcome.out, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(outcome.result.is_ok());
        // First write wins: a later fill cannot replace an earlier one.
        slot.fail(ServeError::WorkerLost);
        slot.fill(SlabOutcome {
            ids: Vec::new(),
            out: Vec::new(),
            result: Ok(()),
        });
        assert!(slot.wait().result.is_err());
    }

    #[test]
    fn fail_with_buffers_preserves_capacity() {
        let slot = SlabSlot::new();
        slot.fail_with_buffers(vec![1, 2], vec![0.0; 8], ServeError::ShuttingDown);
        let outcome = slot.wait();
        assert!(matches!(outcome.result, Err(ServeError::ShuttingDown)));
        // The buffers come back with their capacity intact, ready to be
        // recycled into the caller's pool.
        assert!(outcome.ids.capacity() >= 2);
        assert!(outcome.out.capacity() >= 8);
    }
}
