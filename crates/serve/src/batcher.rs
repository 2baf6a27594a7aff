//! Micro-batching request queues and response cells.
//!
//! Each shard owns one bounded queue and one **serve turn**: at most one
//! thread serves a shard at a time — its worker, or a producer whose
//! push found the shard idle. [`ShardQueue::push`] hands such a producer
//! the [`Turn`] and wakes nobody, so an uncontended request is served on
//! the thread that submitted it, with no worker round trip. A push onto
//! a shard that is being served wakes nobody either: the turn holder
//! re-checks the queue as its turn ends and, if requests arrived in the
//! meantime, hands them to the worker ([`ShardQueue::next_turn`]) and
//! wakes it; a producer that drops its turn unused hands its own request
//! over the same way. The worker keeps the turn while a backlog lasts,
//! and pushes queue behind it: requests that overlap in time batch as
//! they did when the worker served every request, while a request that
//! overlaps with none is served on its own thread, in a batch of one.
//!
//! Serving is work-conserving: a turn takes up to `max_batch` of
//! whatever is already queued and serves at once — it never holds a
//! batch open waiting for company. Batches form under load, from the
//! backlog that queues while the shard serves the previous batch;
//! [`FlushReason`] counters record which bound closed each one.
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

/// Who may serve a shard next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TurnState {
    /// Nobody serves and nothing is queued: the next push takes the turn.
    Free,
    /// A [`Turn`] is out.
    Held,
    /// A turn ended on a non-empty queue: the backlog is the worker's,
    /// and pushes queue behind it (batching) until it takes the turn.
    Handed,
}

#[derive(Debug)]
struct QueueState<T> {
    queue: VecDeque<T>,
    closed: bool,
    turn: TurnState,
}

impl<T> Default for QueueState<T> {
    fn default() -> Self {
        QueueState {
            queue: VecDeque::new(),
            closed: false,
            turn: TurnState::Free,
        }
    }
}

/// A bounded MPSC queue with batch-oriented consumption and one serve
/// [`Turn`], generic over the queued request type (the router enqueues
/// [`crate::router`]'s `Request`; tests use plain values).
#[derive(Debug)]
pub struct ShardQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Wakes the worker when a turn is handed to it or the queue closes.
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
    /// Returns the shard's [`Turn`] when the shard was idle: the
    /// producer serves (a batch holding its own request) or drops the
    /// turn, which hands what is queued to the worker. A push onto a
    /// shard being served, or whose backlog the worker is yet to take,
    /// returns `None` and wakes nobody — the turn holder re-checks the
    /// queue when its turn ends.
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
    ) -> std::result::Result<Option<Turn<'_, T>>, PushError<T>> {
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
        if state.turn != TurnState::Free {
            return Ok(None);
        }
        state.turn = TurnState::Held;
        Ok(Some(Turn { queue: self }))
    }
    // memcom-lint: end-hot-path

    /// The worker's wait: blocks until a turn that ended on a non-empty
    /// queue hands the backlog over, then takes the turn. Returns `None`
    /// when the queue is closed, drained *and* no turn is out — the
    /// worker's exit signal, which so waits out a producer's turn in
    /// flight.
    pub fn next_turn(&self) -> Option<Turn<'_, T>> {
        let mut state = self.state.lock();
        loop {
            match state.turn {
                TurnState::Handed => break,
                TurnState::Free if state.closed => return None,
                TurnState::Free | TurnState::Held => self.ready.wait(&mut state),
            }
        }
        state.turn = TurnState::Held;
        Some(Turn { queue: self })
    }

    /// Closes the queue: producers start failing, the worker drains what
    /// remains and exits once no turn is out.
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

/// The right to serve one shard: while a `Turn` is out, nobody else pops
/// the shard's queue. [`ShardQueue::push`] hands it to a producer that
/// found the shard idle and [`ShardQueue::next_turn`] to the worker.
/// Dropping it ends the turn: requests that queued meanwhile are handed
/// to the worker, which is woken for them (or for its exit, once the
/// queue is closed and empty); an empty queue wakes nobody.
#[derive(Debug)]
pub struct Turn<'a, T> {
    queue: &'a ShardQueue<T>,
}

impl<T> Turn<'_, T> {
    /// Takes the next micro-batch into the caller's reusable buffer
    /// (cleared first — the zero-allocation steady state certified by
    /// `tests/alloc_count.rs`): up to `max_batch` of whatever is queued,
    /// at once, reading no clock. A turn begins on a non-empty queue and
    /// nobody else pops while it is out, so a turn's first batch holds at
    /// least one request. Frees queue space for `Block` producers and
    /// returns why the batch closed.
    // memcom-lint: hot-path
    pub fn pop_batch_into(&mut self, batch: &mut Vec<T>, max_batch: usize) -> FlushReason {
        batch.clear();
        let mut state = self.queue.state.lock();
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
        self.queue.space.notify_all();
        reason
    }
    // memcom-lint: end-hot-path
}

impl<T> Drop for Turn<'_, T> {
    fn drop(&mut self) {
        let mut state = self.queue.state.lock();
        let handed = !state.queue.is_empty();
        state.turn = if handed {
            TurnState::Handed
        } else {
            TurnState::Free
        };
        let wake = handed || state.closed;
        drop(state);
        if wake {
            self.queue.ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A consumer's one turn, one batch.
    trait PopBatch<T> {
        fn pop_batch_into(&self, batch: &mut Vec<T>, max_batch: usize) -> Option<FlushReason>;
    }

    impl<T> PopBatch<T> for ShardQueue<T> {
        /// Waits as [`ShardQueue::next_turn`] does and takes a batch
        /// with [`Turn::pop_batch_into`]; the turn ends as this returns.
        fn pop_batch_into(&self, batch: &mut Vec<T>, max_batch: usize) -> Option<FlushReason> {
            Some(self.next_turn()?.pop_batch_into(batch, max_batch))
        }
    }

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
    fn a_dropped_turn_hands_its_backlog_to_a_parked_pop() {
        let q = Arc::new(ShardQueue::new(4));
        let turn = q.push(1usize, None).unwrap().expect("an idle shard's turn");
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || pop(&q2, 4));
        // The consumer cannot pop while the turn is out, whatever it
        // waits on; what queues meanwhile is handed over on drop.
        assert!(q.push(2, None).unwrap().is_none());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.depth(), 2);
        drop(turn);
        let (batch, reason) = consumer.join().unwrap().unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(reason, FlushReason::Emptied);
    }

    #[test]
    fn a_push_onto_a_served_shard_returns_no_turn() {
        let q = ShardQueue::new(4);
        let mut turn = q.push(1usize, None).unwrap().expect("an idle shard's turn");
        assert!(q.push(2, None).unwrap().is_none(), "the shard is served");
        let mut batch = Vec::new();
        assert_eq!(turn.pop_batch_into(&mut batch, 4), FlushReason::Emptied);
        assert_eq!(batch, vec![1, 2]);
        assert!(q.push(3, None).unwrap().is_none(), "still served");
        drop(turn);
        // The turn ended on a backlog: it is the worker's, not a pusher's.
        assert!(q.push(4, None).unwrap().is_none());
        let mut turn = q.next_turn().unwrap();
        assert_eq!(turn.pop_batch_into(&mut batch, 4), FlushReason::Emptied);
        assert_eq!(batch, vec![3, 4]);
        drop(turn);
        // Drained: the next push finds the shard idle again.
        assert!(q.push(5, None).unwrap().is_some());
    }

    #[test]
    fn a_callers_turn_releases_a_blocked_producer() {
        let q = Arc::new(ShardQueue::new(1));
        let mut turn = q.push(0usize, None).unwrap().expect("an idle shard's turn");
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1, None).map(|turn| turn.is_some()));
        std::thread::sleep(Duration::from_millis(10));
        let mut batch = Vec::new();
        turn.pop_batch_into(&mut batch, 4);
        assert_eq!(batch, vec![0]);
        // Taking the batch freed the queue's one slot: the blocked
        // producer's push lands, behind the turn still out.
        assert!(matches!(producer.join().unwrap(), Ok(false)));
        assert_eq!(q.depth(), 1);
        drop(turn);
        q.close();
        assert_eq!(pop(&q, 4).unwrap().0, vec![1]);
        assert!(pop(&q, 4).is_none());
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
