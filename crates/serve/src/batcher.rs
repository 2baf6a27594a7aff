//! Micro-batching request queues and response cells.
//!
//! Each shard owns one bounded queue and one worker. The worker blocks
//! for the first request, then holds the batch open until either
//! `max_batch` requests have coalesced or `max_wait` has elapsed since
//! the batch opened — the classic throughput/latency micro-batching
//! trade-off, made observable through [`FlushReason`] counters.
//!
//! One response cell answers every request the router enqueues (see
//! [`crate::router`]): a [`SlabSlot`] round-trips the caller's id/output
//! buffers, so they can be pooled and reused across calls.
//!
//! Producers pick their overload behavior per push: [`ShardQueue::push`]
//! blocks while the queue is full (backpressure), while
//! [`ShardQueue::try_push`] / [`ShardQueue::push_until`] never wait past
//! the caller's budget and hand the rejected request back through
//! [`PushError`] — the primitive under
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
    /// `max_wait` elapsed before the batch filled.
    Timeout,
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

/// The single-consumer response cell a requester blocks on: round-trips
/// the caller's buffers so the steady state allocates nothing per row.
#[derive(Debug)]
pub struct SlabSlot {
    state: Mutex<Option<SlabOutcome>>,
    ready: Condvar,
}

impl SlabSlot {
    /// Creates an unfilled slot.
    pub fn new() -> Self {
        SlabSlot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Publishes the outcome, waking the waiting requester. The first
    /// write wins: a later fill (e.g. the worker's panic-recovery path
    /// blanketing a batch with errors) cannot clobber a real answer.
    pub fn fill(&self, outcome: SlabOutcome) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(outcome);
            self.ready.notify_all();
        }
    }

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

    /// Blocks until the outcome arrives and takes it.
    pub fn wait(&self) -> SlabOutcome {
        let mut state = self.state.lock();
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            self.ready.wait(&mut state);
        }
    }
}

impl Default for SlabSlot {
    fn default() -> Self {
        Self::new()
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

    /// Enqueues a request, blocking while the queue is full
    /// (backpressure — the [`crate::AdmissionPolicy::Block`] path).
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] (with the request) once the queue
    /// is closed.
    pub fn push(&self, request: T) -> std::result::Result<(), PushError<T>> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed(request));
            }
            if state.queue.len() < self.capacity {
                break;
            }
            self.space.wait(&mut state);
        }
        state.queue.push_back(request);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueues without waiting: a full queue rejects immediately with
    /// [`PushError::Full`], handing the request back.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] when the queue is at capacity and
    /// [`PushError::Closed`] once it is closed.
    pub fn try_push(&self, request: T) -> std::result::Result<(), PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(request));
        }
        if state.queue.len() >= self.capacity {
            return Err(PushError::Full(request));
        }
        state.queue.push_back(request);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueues, waiting at most `budget` for queue space — the
    /// bounded-blocking admission path of
    /// [`crate::AdmissionPolicy::Shed`]: a producer never waits past its
    /// budget, so an open-loop caller keeps its arrival schedule even
    /// under sustained overload.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] when the queue stayed full for the
    /// whole budget and [`PushError::Closed`] once the queue is closed.
    /// A budget too large to represent as a point in time (e.g.
    /// `Duration::MAX`) waits indefinitely, like [`push`](Self::push).
    // memcom-lint: hot-path
    pub fn push_until(
        &self,
        request: T,
        budget: Duration,
    ) -> std::result::Result<(), PushError<T>> {
        // memcom-lint: allow(L002) -- the admission budget is defined in wall-clock time; one anchor read per push, before the loop
        let deadline = Instant::now().checked_add(budget);
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed(request));
            }
            if state.queue.len() < self.capacity {
                break;
            }
            match deadline {
                Some(deadline) => {
                    // memcom-lint: allow(L002) -- re-read only while blocked on a full queue, never on the uncontended fast path
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(PushError::Full(request));
                    }
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

    /// Pops the next micro-batch: blocks for the first request, then
    /// coalesces up to `max_batch` requests over at most `max_wait`.
    /// Returns `None` when the queue is closed *and* fully drained —
    /// the worker's exit signal.
    ///
    /// Allocates a fresh `Vec` per call; workers on the hot path reuse
    /// one buffer through [`pop_batch_into`](Self::pop_batch_into).
    pub fn pop_batch(&self, max_batch: usize, max_wait: Duration) -> Option<(Vec<T>, FlushReason)> {
        let mut batch = Vec::new();
        let reason = self.pop_batch_into(&mut batch, max_batch, max_wait)?;
        Some((batch, reason))
    }

    /// Like [`pop_batch`](Self::pop_batch), but drains the batch into
    /// the caller's reusable buffer (cleared first) instead of
    /// allocating one per flush — the worker loop's zero-allocation
    /// steady state, certified by `tests/alloc_count.rs`.
    pub fn pop_batch_into(
        &self,
        batch: &mut Vec<T>,
        max_batch: usize,
        max_wait: Duration,
    ) -> Option<FlushReason> {
        self.pop_batch_into_timed(batch, max_batch, max_wait)
            .map(|(reason, _)| reason)
    }

    /// Like [`pop_batch_into`](Self::pop_batch_into), additionally
    /// reporting how long the batch was held open (batch-open → flush,
    /// the assembly latency half of the micro-batching trade-off).
    /// Costs nothing extra: phase 2 reads the clock for its deadline
    /// anyway.
    // memcom-lint: hot-path
    pub fn pop_batch_into_timed(
        &self,
        batch: &mut Vec<T>,
        max_batch: usize,
        max_wait: Duration,
    ) -> Option<(FlushReason, Duration)> {
        batch.clear();
        let mut state = self.state.lock();
        // Phase 1: wait for the batch-opening request.
        loop {
            if !state.queue.is_empty() {
                break;
            }
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        }
        // Phase 2: hold the batch open until full, timed out, or closed.
        // A `max_wait` too large to represent as a point in time holds
        // the batch open until it fills or the queue closes.
        // memcom-lint: allow(L002) -- the batch window is defined in wall-clock time; one anchor read per flush, and it doubles as the assembly-latency start
        let opened = Instant::now();
        let deadline = opened.checked_add(max_wait);
        while state.queue.len() < max_batch && !state.closed {
            match deadline {
                Some(deadline) => {
                    // memcom-lint: allow(L002) -- re-read only while the batch is deliberately held open waiting for more requests
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    self.ready.wait_for(&mut state, deadline - now);
                }
                None => self.ready.wait(&mut state),
            }
        }
        let assembly = opened.elapsed();
        let take = state.queue.len().min(max_batch);
        batch.extend(state.queue.drain(..take));
        let reason = if batch.len() == max_batch {
            FlushReason::Full
        } else if state.closed {
            FlushReason::Drain
        } else {
            FlushReason::Timeout
        };
        drop(state);
        self.space.notify_all();
        Some((reason, assembly))
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

    #[test]
    fn batch_flushes_when_full() {
        let q = ShardQueue::new(16);
        for id in 0..5usize {
            q.push(id).unwrap();
        }
        let (batch, reason) = q.pop_batch(4, Duration::from_secs(10)).unwrap();
        assert_eq!(batch.len(), 4, "full batch without waiting out the clock");
        assert_eq!(reason, FlushReason::Full);
        assert_eq!(q.depth(), 1);
        let (rest, reason) = q.pop_batch(4, Duration::from_millis(1)).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(reason, FlushReason::Timeout);
    }

    #[test]
    fn batch_flushes_on_timeout() {
        let q = ShardQueue::new(16);
        q.push(7usize).unwrap();
        let t0 = Instant::now();
        let (batch, reason) = q.pop_batch(64, Duration::from_millis(30)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(reason, FlushReason::Timeout);
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "waited out max_wait"
        );
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = ShardQueue::new(16);
        q.push(1usize).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(matches!(q.push(3), Err(PushError::Closed(3))));
        let (batch, reason) = q.pop_batch(64, Duration::from_secs(10)).unwrap();
        assert_eq!(batch.len(), 2, "queued work survives close");
        assert_eq!(reason, FlushReason::Drain);
        assert!(
            q.pop_batch(64, Duration::from_secs(10)).is_none(),
            "then the worker exits"
        );
    }

    #[test]
    fn try_push_rejects_when_full_and_hands_the_request_back() {
        let q = ShardQueue::new(2);
        q.try_push(1usize).unwrap();
        q.try_push(2).unwrap();
        // Full: immediate rejection, request recovered intact.
        match q.try_push(3) {
            Err(PushError::Full(rejected)) => assert_eq!(rejected, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        // Space frees up -> accepted again.
        let (batch, _) = q.pop_batch(1, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![1]);
        q.try_push(3).unwrap();
        q.close();
        assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
    }

    #[test]
    fn push_until_waits_out_its_budget_then_sheds() {
        let q = ShardQueue::new(1);
        q.push(0usize).unwrap();
        // Nothing drains the queue: the push must give up after ~budget,
        // not block forever (the coordinated-omission fix).
        let t0 = Instant::now();
        let budget = Duration::from_millis(30);
        match q.push_until(9, budget) {
            Err(PushError::Full(rejected)) => assert_eq!(rejected, 9),
            other => panic!("expected Full, got {other:?}"),
        }
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "waited {waited:?}");
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");

        // With a consumer freeing space inside the budget, it succeeds.
        let q = Arc::new(ShardQueue::new(1));
        q.push(0usize).unwrap();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.pop_batch(1, Duration::from_millis(1))
        });
        q.push_until(9, Duration::from_secs(5)).unwrap();
        consumer.join().unwrap().unwrap();
        assert_eq!(q.depth(), 1);
        // A zero budget behaves like try_push on a full queue.
        assert!(matches!(
            q.push_until(7, Duration::ZERO),
            Err(PushError::Full(7))
        ));
    }

    #[test]
    fn unrepresentable_budgets_never_panic() {
        // `Instant::now() + Duration::MAX` would overflow-panic; these
        // budgets must instead mean "wait indefinitely".
        let q = ShardQueue::new(2);
        q.push_until(1usize, Duration::MAX).unwrap();
        let (batch, _) = q.pop_batch(4, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![1]);
        // Phase-2 hold with an unrepresentable max_wait still flushes
        // when the batch fills.
        let q2 = Arc::new(ShardQueue::new(4));
        let q3 = Arc::clone(&q2);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q3.push(8usize).unwrap();
            q3.push(9).unwrap();
        });
        let (batch, reason) = q2.pop_batch(2, Duration::MAX).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![8, 9]);
        assert_eq!(reason, FlushReason::Full);
    }

    #[test]
    fn pop_batch_into_reuses_the_callers_buffer() {
        let q = ShardQueue::new(16);
        let mut batch: Vec<usize> = Vec::with_capacity(8);
        for id in 0..6usize {
            q.push(id).unwrap();
        }
        let reason = q
            .pop_batch_into(&mut batch, 4, Duration::from_secs(1))
            .unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(reason, FlushReason::Full);
        let capacity = batch.capacity();
        // Stale contents are cleared; capacity is reused, not reallocated.
        let reason = q
            .pop_batch_into(&mut batch, 4, Duration::from_millis(1))
            .unwrap();
        assert_eq!(batch, vec![4, 5]);
        assert_eq!(reason, FlushReason::Timeout);
        assert_eq!(batch.capacity(), capacity);
        q.close();
        assert!(q
            .pop_batch_into(&mut batch, 4, Duration::from_secs(1))
            .is_none());
    }

    #[test]
    fn timed_pop_reports_assembly_hold() {
        let q = ShardQueue::new(16);
        let mut batch: Vec<usize> = Vec::new();
        // A full batch flushes without waiting out the clock.
        for id in 0..4usize {
            q.push(id).unwrap();
        }
        let (reason, held) = q
            .pop_batch_into_timed(&mut batch, 4, Duration::from_secs(10))
            .unwrap();
        assert_eq!(reason, FlushReason::Full);
        assert!(held < Duration::from_secs(1), "held {held:?}");
        // A timeout flush reports roughly the configured hold.
        q.push(9).unwrap();
        let (reason, held) = q
            .pop_batch_into_timed(&mut batch, 4, Duration::from_millis(30))
            .unwrap();
        assert_eq!(reason, FlushReason::Timeout);
        assert!(held >= Duration::from_millis(25), "held {held:?}");
    }

    #[test]
    fn cross_thread_wakeup() {
        let q = Arc::new(ShardQueue::new(4));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.push(9usize).unwrap();
        });
        // Worker parked on an empty queue gets woken by the push.
        let (batch, _) = q.pop_batch(1, Duration::from_secs(5)).unwrap();
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
