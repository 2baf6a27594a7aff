//! Micro-batching request queues and response cells.
//!
//! Each shard owns one bounded queue and one **serve turn**: at most one
//! thread serves a shard at a time, and it is always the thread of a
//! request in the shard's queue — no thread exists only to serve.
//! [`ShardQueue::push`] hands a producer that found the shard idle the
//! [`Turn`] and wakes nobody, so an uncontended request is served on the
//! thread that submitted it. A push onto a shard that is being served
//! wakes nobody either: it queues, and its producer blocks on its reply.
//! The turn holder re-checks the queue as its turn ends and, if requests
//! arrived in the meantime, passes the turn to the caller of the oldest
//! one ([`Caller::pass_turn`]), which takes it
//! ([`ShardQueue::take_turn`]) and serves one batch — a batch that
//! holds its own request, so it then reads its own answer and ends the
//! turn the same way. Each batch is served on the thread of its oldest
//! request, and no caller serves more than one batch: flat combining
//! with the combiner chosen by queue order. Requests that overlap in
//! time batch; a request that overlaps with none is served on its own
//! thread, in a batch of one.
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
//! reused across calls, and that wakes its caller with the serve turn
//! instead of an answer when its request heads a backlog.
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

/// Why a serve turn closed a batch.
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
    /// The answer, and whether a serve turn was passed to the waiter and
    /// not yet taken.
    state: Mutex<(Option<T>, bool)>,
    ready: Condvar,
}

/// The router's reply cell: round-trips the caller's buffers so the
/// steady state allocates nothing per row.
pub type SlabSlot = ReplySlot<SlabOutcome>;

impl<T> ReplySlot<T> {
    /// Creates an unfilled slot.
    pub fn new() -> Self {
        ReplySlot {
            state: Mutex::new((None, false)),
            ready: Condvar::new(),
        }
    }

    /// Publishes the answer, waking the waiting requester. The first
    /// write wins: a later fill (e.g. the panic-recovery path
    /// blanketing a batch with errors, or a connection teardown racing
    /// a real reply) cannot clobber a real answer.
    pub fn fill(&self, answer: T) {
        let mut state = self.state.lock();
        if state.0.is_none() {
            state.0 = Some(answer);
            self.ready.notify_all();
        }
    }

    /// Blocks until the answer arrives and takes it.
    ///
    /// # Panics
    ///
    /// Panics when a serve turn is passed to this waiter instead — only
    /// the router's callers are passed turns, and they wait with
    /// `wait_or_turn`, which returns it.
    pub fn wait(&self) -> T {
        self.wait_or_turn()
            .expect("a serve turn was passed to a plain wait")
    }

    /// Wakes the waiter with a shard's serve turn instead of an answer
    /// (see [`Caller`]).
    pub(crate) fn pass_turn(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }

    /// Blocks until the answer arrives and takes it — or returns `None`,
    /// once, when the serve turn is passed to this waiter first.
    pub(crate) fn wait_or_turn(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(answer) = state.0.take() {
                return Some(answer);
            }
            if std::mem::take(&mut state.1) {
                return None;
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
    /// reuse. This is the failure path whenever the serving thread still
    /// owns the buffers (store error, expired-at-dequeue) — under load
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

/// A queued request whose caller blocks until it is answered — and so
/// can be woken to serve instead.
pub trait Caller {
    /// Passes the shard's serve turn to this request's caller, who takes
    /// it with [`ShardQueue::take_turn`]. Called under the queue's lock,
    /// on the request at the head of the queue.
    fn pass_turn(&self);
}

#[derive(Debug)]
struct QueueState<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Whether the serve turn is out — held by a [`Turn`], or passed to
    /// the caller of the queue's head and not yet taken. While it is,
    /// pushes queue behind it (batching); while it is not, nothing is
    /// queued and the next push takes it.
    held: bool,
}

impl<T> Default for QueueState<T> {
    fn default() -> Self {
        QueueState {
            queue: VecDeque::new(),
            closed: false,
            held: false,
        }
    }
}

/// A bounded MPSC queue with batch-oriented consumption and one serve
/// [`Turn`], generic over the queued request type (the router enqueues
/// [`crate::router`]'s `Request`; tests use plain values).
#[derive(Debug)]
pub struct ShardQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Wakes [`wait_drained`](Self::wait_drained) when a turn ends on a
    /// closed, empty queue.
    drained: Condvar,
    /// Wakes blocked producers when capacity frees up.
    space: Condvar,
    capacity: usize,
}

impl<T: Caller> ShardQueue<T> {
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
            drained: Condvar::new(),
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
    /// producer serves a batch holding its own request (or drops the
    /// turn unused, which passes it to the caller of the queue's head).
    /// A push onto a shard being served, or whose turn is yet to be
    /// taken, returns `None` and wakes nobody — the turn holder
    /// re-checks the queue when its turn ends.
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
        if state.held {
            return Ok(None);
        }
        state.held = true;
        Ok(Some(Turn { queue: self }))
    }
    // memcom-lint: end-hot-path

    /// Takes the turn an ending [`Turn`] passed to the caller of the
    /// queue's head ([`Caller::pass_turn`]): the turn stayed out in
    /// transit, so only the caller it was passed to may take it, once.
    pub fn take_turn(&self) -> Turn<'_, T> {
        Turn { queue: self }
    }

    /// Closes the queue: producers start failing, while what is queued
    /// stays to be served by its callers.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.space.notify_all();
    }

    /// After [`close`](Self::close), blocks until the queue is drained:
    /// no turn is out and, so, nothing is queued. Each queued request's
    /// caller serves its batch when the turn passes to it, so this waits
    /// out exactly the requests accepted before the close.
    pub fn wait_drained(&self) {
        let mut state = self.state.lock();
        while state.held {
            self.drained.wait(&mut state);
        }
    }

    /// Pending request count (diagnostics).
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }
}

/// The right to serve one shard: while a `Turn` is out, nobody else pops
/// the shard's queue. [`ShardQueue::push`] hands it to a producer that
/// found the shard idle and [`ShardQueue::take_turn`] to a caller it was
/// passed to. Dropping it ends the turn: when requests queued meanwhile,
/// it passes to the caller of the oldest one; an empty queue frees the
/// shard and wakes nobody but, once the queue is closed,
/// [`ShardQueue::wait_drained`].
#[derive(Debug)]
pub struct Turn<'a, T: Caller> {
    queue: &'a ShardQueue<T>,
}

impl<T: Caller> Turn<'_, T> {
    /// Takes the next micro-batch into the caller's reusable buffer
    /// (cleared first — the zero-allocation steady state certified by
    /// `tests/alloc_count.rs`): up to `max_batch` of whatever is queued,
    /// at once, reading no clock. A turn begins on a non-empty queue and
    /// nobody else pops while it is out, so a turn's first batch holds at
    /// least one request — and a passed turn's holds its taker's own.
    /// Frees queue space for `Block` producers and returns why the batch
    /// closed.
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

impl<T: Caller> Drop for Turn<'_, T> {
    fn drop(&mut self) {
        let mut state = self.queue.state.lock();
        match state.queue.front() {
            Some(head) => head.pass_turn(),
            None => {
                state.held = false;
                if state.closed {
                    self.queue.drained.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A plain value's caller is the test itself, which takes a passed
    /// turn with [`ShardQueue::take_turn`].
    impl Caller for usize {
        fn pass_turn(&self) {}
    }

    /// A queued value whose caller blocks on a reply slot, as the
    /// router's callers do.
    #[derive(Debug)]
    struct Call(usize, Arc<ReplySlot<()>>);

    impl Caller for Call {
        fn pass_turn(&self) {
            self.1.pass_turn();
        }
    }

    /// The caller of the queue's head takes the turn passed to it and
    /// pops one batch; the turn ends as this returns.
    fn pop<T: Caller>(q: &ShardQueue<T>, max_batch: usize) -> (Vec<T>, FlushReason) {
        let mut batch = Vec::new();
        let reason = q.take_turn().pop_batch_into(&mut batch, max_batch);
        (batch, reason)
    }

    /// Pushes `id` as a [`Call`] from a new thread whose caller waits on
    /// its slot, serves the batch the turn passes to it with `max_batch`,
    /// and returns that batch's ids (none when it was answered unpassed).
    fn call(
        q: &Arc<ShardQueue<Call>>,
        id: usize,
        max_batch: usize,
    ) -> std::thread::JoinHandle<Vec<usize>> {
        let q = Arc::clone(q);
        let slot = Arc::new(ReplySlot::new());
        assert!(q.push(Call(id, Arc::clone(&slot)), None).unwrap().is_none());
        std::thread::spawn(move || {
            let mut served = Vec::new();
            while slot.wait_or_turn().is_none() {
                let (mut turn, mut batch) = (q.take_turn(), Vec::new());
                turn.pop_batch_into(&mut batch, max_batch);
                for Call(id, slot) in batch {
                    served.push(id);
                    slot.fill(());
                }
            }
            served
        })
    }

    #[test]
    fn a_backlog_splits_into_a_full_batch_then_the_rest() {
        let q = ShardQueue::new(16);
        for id in 0..5usize {
            q.push(id, None).unwrap();
        }
        let t0 = Instant::now();
        let (batch, reason) = pop(&q, 4);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(reason, FlushReason::Full);
        let (rest, reason) = pop(&q, 4);
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
        let (batch, reason) = pop(&q, 64);
        let took = t0.elapsed();
        assert_eq!(batch, vec![7]);
        assert_eq!(reason, FlushReason::Emptied);
        assert!(took < Duration::from_secs(1), "held the batch {took:?}");
    }

    #[test]
    fn close_drains_then_frees_the_shard() {
        let q = ShardQueue::new(16);
        q.push(1usize, None).unwrap();
        q.push(2, None).unwrap();
        q.close();
        assert!(matches!(q.push(3, None), Err(PushError::Closed(3))));
        let (batch, reason) = pop(&q, 64);
        assert_eq!(batch.len(), 2, "queued work survives close");
        assert_eq!(reason, FlushReason::Drain);
        // The turn ended on an empty queue: drained, so this returns.
        q.wait_drained();
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
        let (batch, _) = pop(&q, 1);
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
        consumer.join().unwrap();
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
        let (first, _) = consumer.join().unwrap();
        assert_eq!(first, vec![0]);
        let (batch, _) = pop(&q, 4);
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn pop_reuses_the_callers_buffer() {
        let q = ShardQueue::new(16);
        let mut batch: Vec<usize> = Vec::with_capacity(8);
        for id in 0..6usize {
            q.push(id, None).unwrap();
        }
        let reason = q.take_turn().pop_batch_into(&mut batch, 4);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(reason, FlushReason::Full);
        let capacity = batch.capacity();
        // Stale contents are cleared; capacity is reused, not reallocated.
        let reason = q.take_turn().pop_batch_into(&mut batch, 4);
        assert_eq!(batch, vec![4, 5]);
        assert_eq!(reason, FlushReason::Emptied);
        assert_eq!(batch.capacity(), capacity);
        q.close();
        q.wait_drained();
    }

    #[test]
    fn cross_thread_hand_off() {
        let q = Arc::new(ShardQueue::new(4));
        let mut turn = q
            .push(Call(1, Arc::new(ReplySlot::new())), None)
            .unwrap()
            .expect("an idle shard's turn");
        // A caller parked on its slot is woken by the turn's end.
        let caller = call(&q, 9, 1);
        let mut batch = Vec::new();
        turn.pop_batch_into(&mut batch, 1);
        assert_eq!(batch[0].0, 1);
        drop(turn);
        assert_eq!(caller.join().unwrap(), vec![9]);
        q.close();
        q.wait_drained();
    }

    #[test]
    fn a_dropped_turn_passes_its_backlog_to_the_oldest_caller() {
        let q = Arc::new(ShardQueue::new(4));
        let mut turn = q
            .push(Call(1, Arc::new(ReplySlot::new())), None)
            .unwrap()
            .expect("an idle shard's turn");
        let mut batch = Vec::new();
        turn.pop_batch_into(&mut batch, 4);
        // Nobody else pops while the turn is out, whoever waits; what
        // queues meanwhile passes, on drop, to its oldest caller, who
        // serves it in one batch, its own request first.
        let (oldest, next) = (call(&q, 2, 4), call(&q, 3, 4));
        assert_eq!(q.depth(), 2);
        drop(turn);
        assert_eq!(oldest.join().unwrap(), vec![2, 3]);
        assert_eq!(next.join().unwrap(), Vec::<usize>::new());
        q.close();
        q.wait_drained();
    }

    #[test]
    fn each_batch_of_a_backlog_is_served_by_its_oldest_caller() {
        let q = Arc::new(ShardQueue::new(8));
        let mut turn = q
            .push(Call(0, Arc::new(ReplySlot::new())), None)
            .unwrap()
            .expect("an idle shard's turn");
        let mut batch = Vec::new();
        turn.pop_batch_into(&mut batch, 2);
        let callers: Vec<_> = (1..6).map(|id| call(&q, id, 2)).collect();
        drop(turn);
        let served: Vec<Vec<usize>> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        assert_eq!(served, [vec![1, 2], vec![], vec![3, 4], vec![], vec![5]]);
        q.close();
        q.wait_drained();
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
        // The turn ended on a backlog: it was passed to the head's
        // caller, not to a pusher.
        assert!(q.push(4, None).unwrap().is_none());
        let mut turn = q.take_turn();
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
        assert_eq!(pop(&q, 4).0, vec![1]);
        q.wait_drained();
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
