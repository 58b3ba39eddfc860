//! The streaming pipelined engine: continuous transaction ingest with bulk
//! formation overlapped with bulk execution.
//!
//! The one-shot bulk path amortizes per-transaction overhead *within* a bulk;
//! the paper additionally pipelines bulk *formation* with bulk *execution*, so
//! bulk `N+1` fills while bulk `N` runs (§3.2). This module implements that
//! with the submitters themselves forming bulks and one execution thread:
//!
//! ```text
//!  submitters ──batch──▶ open bulk ──close──▶ closed bulks ──▶ [execution thread]
//!            one Mutex:   at max_bulk_size,    FIFO            runs bulk N in
//!            ids + append or at max_wait once                  timestamp order,
//!            (queue_depth the executor is free                 group-commits it,
//!             backpressure)                                    delivers one run
//!                                                              per reply queue
//! ```
//!
//! * **formation** — a submitter hands over a *batch* of transactions
//!   (in-process `submit` is a batch of one) under one mutex: each gets the
//!   monotone transaction id (the submission timestamp) and is appended to
//!   the open bulk. A bulk closes when it reaches `max_bulk_size`, or when
//!   the execution thread is free and the bulk's oldest transaction has
//!   waited `max_wait`. A bulk whose deadline passes while the executor is
//!   busy keeps admitting until the executor takes it: bulk `N+1` forms
//!   while bulk `N` runs.
//! * **execution** — one thread takes each closed bulk in order, runs the
//!   [`BulkRunner`] (the owner of the database, which also group-commits
//!   the bulk) and then delivers the results.
//! * **delivery** — every submitter owns a [`ReplyQueue`] that receives its
//!   results in submission order. A submitter's consecutive transactions in
//!   one bulk form a *run*, and each run is delivered under one lock with
//!   at most one wake-up, so a network connection pays per (bulk,
//!   connection) what a ticket per transaction paid per transaction. A
//!   [`Ticket`] is a reply queue that receives one result.
//!
//! `queue_depth` bounds the transactions admitted but not yet taken by the
//! executor: a full queue parks a blocking submission and refuses a no-wait
//! one. No result is ever lost: if a bulk fails its runs receive
//! [`PipelineError::BulkFailed`], and a run dropped unresolved (its bulk
//! abandoned, the execution thread dead) receives
//! [`PipelineError::Disconnected`] for each of its transactions.
//!
//! This module is deliberately generic: it knows about bulk formation,
//! delivery, timing and failure containment, but not about strategies or
//! databases. The GPUTx runner over the real database lives in
//! `gputx-core`'s `pipeline` module.

use crate::executor::ExecError;
use gputx_storage::Value;
use gputx_txn::{TxnId, TxnOutcome, TxnSignature, TxnTypeId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution side of the pipeline: owns the database and applies bulks
/// in sequence.
pub trait BulkRunner: Send + 'static {
    /// Final state handed back by [`PipelinedEngine::finish`] (typically the
    /// database).
    type Output: Send + 'static;

    /// Execute one bulk, sorted by ascending id (submission order). Must
    /// return exactly one `(id, outcome)` per transaction, sorted by
    /// ascending id. A [`ExecError`] fails the whole bulk (its transactions
    /// resolve with [`PipelineError::BulkFailed`]) but the pipeline keeps
    /// running.
    fn run(&mut self, bulk: Vec<TxnSignature>) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError>;

    /// Consume the runner after shutdown and hand back the final state.
    fn finish(self) -> Self::Output;
}

/// Errors surfaced by the pipelined engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The engine has been shut down; no further submissions are accepted.
    ShutDown,
    /// A no-wait submission found the bounded admission queue full.
    QueueFull,
    /// The bulk containing this transaction failed (runner error or panic);
    /// the message describes the cause.
    BulkFailed(String),
    /// The execution thread terminated before delivering this result.
    Disconnected,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::ShutDown => write!(f, "pipeline is shut down"),
            PipelineError::QueueFull => write!(f, "admission queue is full"),
            PipelineError::BulkFailed(msg) => write!(f, "bulk failed: {msg}"),
            PipelineError::Disconnected => write!(f, "pipeline stage disconnected"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// What one transaction resolves to: the assigned transaction id
/// (submission timestamp) and the commit/abort outcome.
pub type TicketResult = Result<(TxnId, TxnOutcome), PipelineError>;

/// Delivered results not yet taken, in submission order.
#[derive(Debug, Default)]
struct ReplyCell {
    /// The oldest result, kept inline: a queue that holds one result at a
    /// time (a [`Ticket`]) never allocates, and delivering to it touches
    /// one allocation, not two.
    head: Option<TicketResult>,
    /// The results after `head`; empty while `head` is `None`.
    tail: VecDeque<TicketResult>,
    /// Set by a waiter about to park: only then does a delivery pay for a
    /// wake-up.
    waiting: bool,
}

impl ReplyCell {
    fn push(&mut self, result: TicketResult) {
        if self.head.is_none() {
            self.head = Some(result);
        } else {
            self.tail.push_back(result);
        }
    }

    /// Move every result to the back of `out`; returns how many moved.
    fn move_into(&mut self, out: &mut VecDeque<TicketResult>) -> usize {
        let Some(head) = self.head.take() else {
            return 0;
        };
        let moved = 1 + self.tail.len();
        out.push_back(head);
        out.append(&mut self.tail);
        moved
    }
}

#[derive(Debug, Default)]
struct ReplyState {
    cell: Mutex<ReplyCell>,
    cond: Condvar,
}

/// Where one submitter's results arrive, in its submission order.
///
/// Hand the same queue to every [`SubmitHandle::submit_batch`] of one
/// submitter (a network connection, say): the execution thread delivers
/// each bulk's results for it as one run, under one lock and with at most
/// one wake-up. Only transactions the batch call admitted (answered
/// `Ok(())`) produce a result here. Clones share the queue.
#[derive(Debug, Clone, Default)]
pub struct ReplyQueue {
    state: Arc<ReplyState>,
}

impl ReplyQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, ReplyCell> {
        self.state.cell.lock().expect("reply queue poisoned")
    }

    /// Move every result delivered so far to the back of `out`, without
    /// blocking. Returns how many moved.
    pub fn take_ready(&self, out: &mut VecDeque<TicketResult>) -> usize {
        self.lock().move_into(out)
    }

    /// [`ReplyQueue::take_ready`], first blocking until at least one
    /// result is there.
    pub fn wait_ready(&self, out: &mut VecDeque<TicketResult>) {
        let mut cell = self.lock();
        while cell.head.is_none() {
            cell = self.park(cell);
        }
        cell.move_into(out);
    }

    fn park<'a>(&'a self, mut cell: MutexGuard<'a, ReplyCell>) -> MutexGuard<'a, ReplyCell> {
        cell.waiting = true;
        self.state.cond.wait(cell).expect("reply queue poisoned")
    }

    /// Append `results` under one lock and wake a parked waiter. A waiter
    /// marks itself under this lock before parking, so one that is not
    /// marked here has not parked yet and sees the results when it takes
    /// the lock: no wake-up is lost.
    fn deliver(&self, results: impl Iterator<Item = TicketResult>) {
        let mut cell = self.lock();
        results.for_each(|result| cell.push(result));
        let wake = std::mem::take(&mut cell.waiting);
        drop(cell);
        if wake {
            self.state.cond.notify_all();
        }
    }
}

/// A future-style handle returned by [`PipelinedEngine::submit`]: resolves to
/// the transaction's id and outcome once its bulk commits. It is a
/// [`ReplyQueue`] that receives one result.
#[derive(Debug)]
pub struct Ticket {
    replies: ReplyQueue,
}

impl Ticket {
    /// Block until the transaction's bulk is committed (or failed) and return
    /// the result. Can be called repeatedly; later calls return immediately.
    pub fn wait(&self) -> TicketResult {
        let mut cell = self.replies.lock();
        loop {
            if let Some(result) = &cell.head {
                return result.clone();
            }
            cell = self.replies.park(cell);
        }
    }

    /// Non-blocking poll: `None` while the transaction is still in flight.
    pub fn try_get(&self) -> Option<TicketResult> {
        self.replies.lock().head.clone()
    }
}

/// One submitter's consecutive transactions in one bulk: the execution
/// thread delivers their results to `replies` together. If a run is dropped
/// undelivered (the execution thread died, a bulk was abandoned), each of
/// its transactions receives [`PipelineError::Disconnected`] instead of
/// hanging its waiter.
#[derive(Debug)]
struct Run {
    replies: ReplyQueue,
    len: usize,
}

impl Run {
    /// Deliver the run's `len` results, the next ones of `results`.
    fn deliver(mut self, results: &mut impl Iterator<Item = TicketResult>) {
        let len = std::mem::take(&mut self.len);
        self.replies.deliver(results.take(len));
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        if self.len > 0 {
            let len = std::mem::take(&mut self.len);
            self.replies
                .deliver(std::iter::repeat_with(|| Err(PipelineError::Disconnected)).take(len));
        }
    }
}

/// One transaction of a batch handed to [`SubmitHandle::submit_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The procedure to run.
    pub ty: TxnTypeId,
    /// Its parameters.
    pub params: Vec<Value>,
    /// Park while the admission queue is full (backpressure) instead of
    /// being answered [`PipelineError::QueueFull`].
    pub block: bool,
}

/// Knobs of the pipelined engine (see `gputx-core`'s `PipelineConfig` for the
/// driver-level configuration that produces these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Close a bulk when it reaches this many transactions.
    pub max_bulk_size: usize,
    /// Close a non-empty bulk once its oldest transaction has waited this
    /// long and the execution thread is free to take it.
    pub max_wait: Duration,
    /// Most transactions admitted but not yet taken by the execution
    /// thread (so also a cap on a bulk's size); at this bound a blocking
    /// submission parks (backpressure) and a no-wait one fails.
    pub queue_depth: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            max_bulk_size: 8_192,
            max_wait: Duration::from_millis(2),
            queue_depth: 16_384,
        }
    }
}

/// Why each bulk closed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkCloseCounts {
    /// Bulks that reached `max_bulk_size`.
    pub by_size: u64,
    /// Bulks closed by the `max_wait` deadline.
    pub by_timer: u64,
    /// Non-empty bulks closed by an explicit `flush` (or final drain). A
    /// flush over an empty open bulk closes nothing and counts nothing; it
    /// still waits for every earlier bulk to commit.
    pub by_flush: u64,
}

impl BulkCloseCounts {
    fn total(&self) -> u64 {
        self.by_size + self.by_timer + self.by_flush
    }
}

/// Time per pipeline stage, in seconds, spent working (waiting for work is
/// excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBusy {
    /// Always 0: submitters form bulks themselves, so there is no admission
    /// thread to time.
    pub admission_secs: f64,
    /// Always 0: the pipeline builds no plan, so there is no grouping
    /// thread to time.
    pub grouping_secs: f64,
    /// Execution thread: bulk run plus group commit.
    pub execution_secs: f64,
    /// Execution thread: delivering results to the reply queues.
    pub commit_secs: f64,
}

/// Aggregate statistics of one pipelined-engine run, available after
/// shutdown.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Wall-clock seconds from engine start to shutdown.
    pub wall_secs: f64,
    /// Bulks formed, by close reason.
    pub closes: BulkCloseCounts,
    /// Bulks whose execution failed.
    pub bulks_failed: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted (procedure-level abort).
    pub aborted: u64,
    /// Transactions whose bulk failed (resolved with an error).
    pub failed: u64,
    /// Per-stage busy time.
    pub stage_busy: StageBusy,
}

impl PipelineStats {
    /// Total bulks formed.
    pub fn bulks(&self) -> u64 {
        self.closes.total()
    }

    /// Total transactions that entered a bulk.
    pub fn transactions(&self) -> u64 {
        self.committed + self.aborted + self.failed
    }

    /// Sustained throughput over the engine's lifetime.
    pub fn throughput_tps(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.transactions() as f64 / self.wall_secs
        }
    }
}

/// Transactions of one bulk in submission order, with the runs their
/// results go to (the runs' lengths sum to the bulk's).
#[derive(Debug, Default)]
struct Bulk {
    sigs: Vec<TxnSignature>,
    runs: Vec<Run>,
}

impl Bulk {
    fn with_capacity(n: usize) -> Self {
        Bulk {
            sigs: Vec::with_capacity(n),
            runs: Vec::with_capacity(n),
        }
    }

    /// Append `sig`, extending the last run if it goes to `replies` too.
    /// A new run takes `spare`, a clone of `replies` made before the lock,
    /// while there is one.
    fn push(&mut self, sig: TxnSignature, replies: &ReplyQueue, spare: &mut Option<ReplyQueue>) {
        self.sigs.push(sig);
        match self.runs.last_mut() {
            Some(run) if Arc::ptr_eq(&run.replies.state, &replies.state) => run.len += 1,
            _ => self.runs.push(Run {
                replies: spare.take().unwrap_or_else(|| replies.clone()),
                len: 1,
            }),
        }
    }
}

/// A closed bulk waiting for the execution thread; a flush adds a barrier,
/// a one-transaction run that resolves once the bulk (possibly empty) has
/// committed.
#[derive(Debug)]
struct ClosedBulk {
    bulk: Bulk,
    barrier: Option<Run>,
}

/// Everything submitters and the execution thread share, behind one mutex.
#[derive(Debug, Default)]
struct State {
    next_id: TxnId,
    open: Bulk,
    /// When the open bulk's oldest transaction has waited `max_wait`;
    /// `None` exactly while the open bulk is empty.
    deadline: Option<Instant>,
    closed: VecDeque<ClosedBulk>,
    /// Pre-sized vectors the next close swaps in, allocated by the
    /// execution thread outside the lock.
    spare: Option<Bulk>,
    /// Admitted transactions the execution thread has not yet taken.
    pending: usize,
    closes: BulkCloseCounts,
    /// The execution thread waits on `work` and no wake-up is on its way.
    executor_parked: bool,
    /// Some submitter waits on `room` and no wake-up is on its way.
    submitter_parked: bool,
    shut: bool,
}

impl State {
    /// Queue the open bulk (with `barrier`, if a flush closes it).
    fn close(&mut self, barrier: Option<Run>) {
        let bulk = if self.open.sigs.is_empty() {
            Bulk::default()
        } else {
            let next = self.spare.take().unwrap_or_default();
            std::mem::replace(&mut self.open, next)
        };
        self.deadline = None;
        self.closed.push_back(ClosedBulk { bulk, barrier });
    }

    /// Whether a submitter that just changed the state must wake the
    /// execution thread; clears the flag, since that wake-up is on its way.
    fn wake_executor(&mut self) -> bool {
        std::mem::take(&mut self.executor_parked)
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// The execution thread waits here for a bulk to close.
    work: Condvar,
    /// Submitters wait here while `queue_depth` transactions are pending.
    room: Condvar,
    opts: PipelineOptions,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pipeline state poisoned")
    }

    /// Admit `batch` in order for `replies`, answering each submission
    /// through `answer` at its own position: `Ok(())` once admitted (its
    /// result will arrive in `replies`), or the error that refused it. The
    /// whole batch takes the lock once, unless a blocking submission parks
    /// on a full queue; a size cut inside the batch splits its run between
    /// the two bulks.
    fn submit_batch(
        &self,
        replies: &ReplyQueue,
        batch: impl IntoIterator<Item = Submission>,
        mut answer: impl FnMut(Result<(), PipelineError>),
    ) {
        // The reference count of the batch's first run is taken outside the
        // lock, which every submitter and the execution thread contend for.
        let mut spare = Some(replies.clone());
        let mut state = self.lock();
        // A parked executor needs the first transaction of a bulk (to start
        // the deadline) and a bulk closed by size; nothing else wakes it.
        let mut wake = false;
        for Submission { ty, params, block } in batch {
            let admitted = loop {
                if state.shut {
                    break Err(PipelineError::ShutDown);
                }
                if state.pending < self.opts.queue_depth {
                    break Ok(());
                }
                if !block {
                    break Err(PipelineError::QueueFull);
                }
                // Room comes only from the executor taking a bulk, which
                // may be the one this batch started or closed.
                if std::mem::take(&mut wake) && state.wake_executor() {
                    self.work.notify_one();
                }
                state.submitter_parked = true;
                state = self.room.wait(state).expect("pipeline state poisoned");
            };
            if admitted.is_ok() {
                let id = state.next_id;
                state.next_id += 1;
                state.pending += 1;
                state
                    .open
                    .push(TxnSignature::new(id, ty, params), replies, &mut spare);
                let len = state.open.sigs.len();
                if len == 1 {
                    state.deadline = Some(Instant::now() + self.opts.max_wait);
                    wake = true;
                }
                if len >= self.opts.max_bulk_size {
                    state.closes.by_size += 1;
                    state.close(None);
                    wake = true;
                }
            }
            answer(admitted);
        }
        let wake = wake && state.wake_executor();
        drop(state);
        if wake {
            self.work.notify_one();
        }
    }

    /// A batch of one, answered with a [`Ticket`].
    fn submit_one(
        &self,
        ty: TxnTypeId,
        params: Vec<Value>,
        block: bool,
    ) -> Result<Ticket, PipelineError> {
        let replies = ReplyQueue::new();
        let mut admitted = None;
        self.submit_batch(&replies, [Submission { ty, params, block }], |a| {
            admitted = Some(a);
        });
        admitted
            .expect("a batch answers each submission")
            .map(|()| Ticket { replies })
    }

    fn flush(&self) -> Result<(), PipelineError> {
        let replies = ReplyQueue::new();
        let mut state = self.lock();
        if state.shut {
            return Err(PipelineError::ShutDown);
        }
        if !state.open.sigs.is_empty() {
            state.closes.by_flush += 1;
        }
        state.close(Some(Run {
            replies: replies.clone(),
            len: 1,
        }));
        let wake = state.wake_executor();
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Ticket { replies }.wait().map(|_| ())
    }

    /// The execution thread's next bulk, in close order; `None` once the
    /// engine is shut down and everything admitted has been taken. Closes
    /// the open bulk when its deadline has passed (or at shutdown), and
    /// parks while there is nothing to run. `spare` is handed over for the
    /// next close if the last one used the previous pair.
    fn next_bulk(&self, spare: &mut Option<Bulk>) -> Option<ClosedBulk> {
        let mut state = self.lock();
        if state.spare.is_none() {
            state.spare = spare.take();
        }
        loop {
            if let Some(next) = state.closed.pop_front() {
                state.pending -= next.bulk.sigs.len();
                let wake = std::mem::take(&mut state.submitter_parked);
                drop(state);
                if wake {
                    self.room.notify_all();
                }
                return Some(next);
            }
            if let Some(deadline) = state.deadline {
                if state.shut {
                    state.closes.by_flush += 1;
                    state.close(None);
                    continue;
                }
                let now = Instant::now();
                if now >= deadline {
                    state.closes.by_timer += 1;
                    state.close(None);
                    continue;
                }
                state.executor_parked = true;
                state = self
                    .work
                    .wait_timeout(state, deadline - now)
                    .expect("pipeline state poisoned")
                    .0;
            } else if state.shut {
                return None;
            } else {
                state.executor_parked = true;
                state = self.work.wait(state).expect("pipeline state poisoned");
            }
            state.executor_parked = false;
        }
    }
}

/// A cloneable, engine-independent submission handle.
///
/// Obtained from [`PipelinedEngine::handle`]; hand clones to client threads
/// (a network server's connection handlers, stream drivers) that must outlive
/// or race the engine's shutdown. Unlike a shared `&PipelinedEngine`, a
/// handle never blocks the engine's drop: once the engine shuts down, every
/// handle call fails fast with [`PipelineError::ShutDown`], and transactions
/// already admitted still resolve (committed, or `Disconnected` if their bulk
/// never ran).
#[derive(Debug, Clone)]
pub struct SubmitHandle {
    shared: Arc<Shared>,
}

impl SubmitHandle {
    /// Submit a transaction; blocks while the admission queue is full
    /// (backpressure). Fails with [`PipelineError::ShutDown`] once the engine
    /// shut down. See [`PipelinedEngine::submit`].
    pub fn submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.shared.submit_one(ty, params, true)
    }

    /// Non-blocking [`SubmitHandle::submit`]: fails with
    /// [`PipelineError::QueueFull`] instead of blocking when the admission
    /// queue is full.
    pub fn try_submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.shared.submit_one(ty, params, false)
    }

    /// Admit a burst of submissions under one lock, in order, for one
    /// submitter whose results arrive in `replies`. `answer` is called once
    /// per submission, in order: `Ok(())` when it was admitted (its result
    /// follows, in submission order, in `replies`), or the error that
    /// refused it — [`PipelineError::QueueFull`] for a no-wait submission
    /// at a full queue, [`PipelineError::ShutDown`] once the engine shut
    /// down. A blocking submission at a full queue parks first, which may
    /// let other submitters' transactions in between.
    pub fn submit_batch(
        &self,
        replies: &ReplyQueue,
        batch: impl IntoIterator<Item = Submission>,
        answer: impl FnMut(Result<(), PipelineError>),
    ) {
        self.shared.submit_batch(replies, batch, answer);
    }

    /// Close the currently open partial bulk and block until everything
    /// submitted before the flush has committed. See
    /// [`PipelinedEngine::flush`].
    pub fn flush(&self) -> Result<(), PipelineError> {
        self.shared.flush()
    }

    /// True once the engine has shut down (every subsequent call fails with
    /// [`PipelineError::ShutDown`]).
    pub fn is_closed(&self) -> bool {
        self.shared.lock().shut
    }
}

/// What the execution thread counts while it runs.
#[derive(Debug, Default)]
struct ExecStats {
    committed: u64,
    aborted: u64,
    failed: u64,
    bulks_failed: u64,
    execution_secs: f64,
    commit_secs: f64,
}

/// The streaming pipelined engine. See the [module docs](self) for the
/// layout; construct one through the driver in `gputx-core` unless you are
/// providing your own runner.
#[derive(Debug)]
pub struct PipelinedEngine<R: BulkRunner> {
    shared: Arc<Shared>,
    execution: Option<JoinHandle<(R, ExecStats)>>,
    started: Instant,
    finished: Option<(Result<R::Output, PipelineError>, PipelineStats)>,
}

impl<R: BulkRunner> PipelinedEngine<R> {
    /// Start the engine: spawns the execution thread and begins accepting
    /// submissions immediately. Transaction ids are assigned from 0 in
    /// admission order.
    pub fn new(runner: R, opts: PipelineOptions) -> Self {
        assert!(opts.max_bulk_size > 0, "max_bulk_size must be positive");
        assert!(opts.queue_depth > 0, "queue_depth must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            room: Condvar::new(),
            opts,
        });
        let executor = Arc::clone(&shared);
        let execution = std::thread::Builder::new()
            .name("gputx-execution".into())
            .spawn(move || execution_loop(runner, &executor))
            .expect("spawn execution thread");
        PipelinedEngine {
            shared,
            execution: Some(execution),
            started: Instant::now(),
            finished: None,
        }
    }

    /// Submit a transaction. Blocks while the admission queue is full
    /// (backpressure); returns the [`Ticket`] that resolves when the
    /// transaction's bulk commits. Errors once the engine is shut down.
    ///
    /// # Examples
    ///
    /// A minimal runner (it counts submissions) driven through the
    /// pipeline:
    ///
    /// ```
    /// use gputx_exec::{BulkRunner, ExecError, PipelineOptions, PipelinedEngine};
    /// use gputx_storage::Value;
    /// use gputx_txn::{TxnId, TxnOutcome, TxnSignature};
    ///
    /// struct CountRunner { total: usize }
    /// impl BulkRunner for CountRunner {
    ///     type Output = usize;
    ///     fn run(
    ///         &mut self,
    ///         bulk: Vec<TxnSignature>,
    ///     ) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError> {
    ///         self.total += bulk.len();
    ///         Ok(bulk.iter().map(|s| (s.id, TxnOutcome::Committed)).collect())
    ///     }
    ///     fn finish(self) -> usize { self.total }
    /// }
    ///
    /// let engine = PipelinedEngine::new(CountRunner { total: 0 }, PipelineOptions::default());
    /// let ticket = engine.submit(0, vec![Value::Int(7)]).unwrap();
    /// let (id, outcome) = ticket.wait().unwrap();
    /// assert_eq!(id, 0);
    /// assert!(outcome.is_committed());
    /// let (total, stats) = engine.finish().unwrap();
    /// assert_eq!(total, 1);
    /// assert_eq!(stats.committed, 1);
    /// ```
    pub fn submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.shared.submit_one(ty, params, true)
    }

    /// Non-blocking [`PipelinedEngine::submit`]: fails with
    /// [`PipelineError::QueueFull`] instead of blocking when the admission
    /// queue is full (the shed-load policy of an open-loop client). Both are
    /// a batch of one through [`SubmitHandle::submit_batch`].
    pub fn try_submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.shared.submit_one(ty, params, false)
    }

    /// Close the currently open (partial) bulk immediately and block until
    /// everything submitted before the flush has committed. Returns the
    /// failure of the flushed bulk, if any.
    pub fn flush(&self) -> Result<(), PipelineError> {
        self.shared.flush()
    }

    /// A cloneable [`SubmitHandle`] for submitter threads that may outlive or
    /// race the engine's shutdown (e.g. a network server's connection
    /// handlers). Handles never keep the engine alive and never block its
    /// drop: after shutdown every handle call fails with
    /// [`PipelineError::ShutDown`].
    pub fn handle(&self) -> SubmitHandle {
        SubmitHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drain and stop: close the open bulk, run everything admitted, join
    /// the execution thread and collect [`PipelineStats`]. Idempotent; after
    /// shutdown, `submit` returns [`PipelineError::ShutDown`].
    ///
    /// Safe to call (and safe to `drop` the engine) while [`SubmitHandle`]
    /// clones are still submitting from other threads: every submit after
    /// the shutdown starts, including one parked on a full queue, fails
    /// with [`PipelineError::ShutDown`], and every transaction admitted
    /// before it runs in the final drain.
    pub fn shutdown(&mut self) {
        if self.finished.is_some() {
            return;
        }
        self.shared.lock().shut = true;
        self.shared.work.notify_one();
        self.shared.room.notify_all();
        let mut stats = PipelineStats::default();
        let output = match self.execution.take().map(JoinHandle::join) {
            Some(Ok((runner, exec))) => {
                stats.committed = exec.committed;
                stats.aborted = exec.aborted;
                stats.failed = exec.failed;
                stats.bulks_failed = exec.bulks_failed;
                stats.stage_busy.execution_secs = exec.execution_secs;
                stats.stage_busy.commit_secs = exec.commit_secs;
                Ok(runner.finish())
            }
            _ => Err(PipelineError::Disconnected),
        };
        // Whatever a dead execution thread left queued delivers
        // `Disconnected` as its runs drop here.
        let (open, closed) = {
            let mut state = self.shared.lock();
            stats.closes = state.closes;
            (
                std::mem::take(&mut state.open),
                std::mem::take(&mut state.closed),
            )
        };
        drop((open, closed));
        stats.wall_secs = self.started.elapsed().as_secs_f64();
        self.finished = Some((output, stats));
    }

    /// Run statistics; `None` before [`PipelinedEngine::shutdown`].
    pub fn stats(&self) -> Option<&PipelineStats> {
        self.finished.as_ref().map(|(_, stats)| stats)
    }

    /// Shut down (if still running) and hand back the runner's final state
    /// plus the run statistics. Errors if the execution thread itself died.
    pub fn finish(mut self) -> Result<(R::Output, PipelineStats), PipelineError> {
        self.shutdown();
        let (output, stats) = self.finished.take().expect("shutdown populates finished");
        Ok((output?, stats))
    }
}

impl<R: BulkRunner> Drop for PipelinedEngine<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn execution_loop<R: BulkRunner>(mut runner: R, shared: &Shared) -> (R, ExecStats) {
    let mut stats = ExecStats::default();
    let spare_cap = shared.opts.max_bulk_size.min(shared.opts.queue_depth);
    let mut spare = None;
    while let Some(ClosedBulk { bulk, barrier }) = shared.next_bulk(&mut spare) {
        let Bulk { sigs, runs } = bulk;
        let len = sigs.len();
        let t0 = Instant::now();
        let outcomes = if sigs.is_empty() {
            Ok(Vec::new())
        } else {
            match catch_unwind(AssertUnwindSafe(|| runner.run(sigs))) {
                Ok(Ok(outcomes)) if outcomes.len() == len => Ok(outcomes),
                Ok(Ok(outcomes)) => Err(format!(
                    "runner returned {} outcomes for a {len}-transaction bulk",
                    outcomes.len()
                )),
                Ok(Err(e)) => Err(e.to_string()),
                Err(payload) => Err(crate::parallel::panic_message(payload)),
            }
        };
        let t1 = Instant::now();
        stats.execution_secs += (t1 - t0).as_secs_f64();
        deliver(&mut stats, runs, barrier, outcomes);
        stats.commit_secs += t1.elapsed().as_secs_f64();
        if spare.is_none() {
            // Sized for a bulk like this one, outside the lock.
            spare = Some(Bulk::with_capacity(len.next_power_of_two().min(spare_cap)));
        }
    }
    (runner, stats)
}

/// Deliver a bulk's results run by run, then its barrier's.
fn deliver(
    stats: &mut ExecStats,
    runs: Vec<Run>,
    barrier: Option<Run>,
    outcomes: Result<Vec<(TxnId, TxnOutcome)>, String>,
) {
    match outcomes {
        Ok(outcomes) => {
            // Ids ascend in submission order, so the runs, in order, take
            // the id-sorted outcomes 1:1.
            let mut results = outcomes.into_iter().map(|(id, outcome)| {
                if outcome.is_committed() {
                    stats.committed += 1;
                } else {
                    stats.aborted += 1;
                }
                Ok((id, outcome))
            });
            for run in runs {
                run.deliver(&mut results);
            }
            if let Some(barrier) = barrier {
                barrier.deliver(&mut std::iter::once(Ok((0, TxnOutcome::Committed))));
            }
        }
        Err(msg) => {
            stats.bulks_failed += 1;
            let err = PipelineError::BulkFailed(msg);
            let mut failed = std::iter::repeat_with(|| Err(err.clone()));
            for run in runs {
                stats.failed += run.len as u64;
                run.deliver(&mut failed);
            }
            if let Some(barrier) = barrier {
                barrier.deliver(&mut failed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// Where a gated runner stops: it announces `entered`, then waits for
    /// `release`.
    struct Gate {
        entered: Sender<()>,
        release: Receiver<()>,
    }

    /// A panic payload whose drop panics again: the second panic escapes
    /// the runner's `catch_unwind` and kills the execution thread.
    struct Explosive;

    impl Drop for Explosive {
        fn drop(&mut self) {
            panic!("the execution thread dies");
        }
    }

    /// Toy runner: counts per key and records each bulk's size and each
    /// transaction's `(id, key)`; type 9 fails the bulk, type 8 panics,
    /// type 7 sleeps, type 6 stops at the gate and type 5 kills the
    /// execution thread.
    #[derive(Default)]
    struct CountRunner {
        counts: HashMap<i64, i64>,
        sizes: Vec<usize>,
        keys: Vec<(TxnId, i64)>,
        gate: Option<Gate>,
    }
    impl BulkRunner for CountRunner {
        type Output = CountRunner;
        fn run(&mut self, bulk: Vec<TxnSignature>) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError> {
            if bulk.iter().any(|s| s.ty == 9) {
                return Err(ExecError::WorkerPanicked {
                    shard: 0,
                    message: "injected failure".into(),
                });
            }
            if bulk.iter().any(|s| s.ty == 8) {
                panic!("injected runner panic");
            }
            if bulk.iter().any(|s| s.ty == 5) {
                std::panic::panic_any(Explosive);
            }
            if bulk.iter().any(|s| s.ty == 7) {
                std::thread::sleep(Duration::from_millis(20));
            }
            if bulk.iter().any(|s| s.ty == 6) {
                if let Some(gate) = &self.gate {
                    gate.entered.send(()).expect("test listens");
                    gate.release.recv().expect("gate opens");
                }
            }
            for s in &bulk {
                let key = s.params[0].as_int();
                *self.counts.entry(key).or_insert(0) += 1;
                self.keys.push((s.id, key));
            }
            self.sizes.push(bulk.len());
            Ok(bulk.iter().map(|s| (s.id, TxnOutcome::Committed)).collect())
        }
        fn finish(self) -> CountRunner {
            self
        }
    }

    fn engine(opts: PipelineOptions) -> PipelinedEngine<CountRunner> {
        PipelinedEngine::new(CountRunner::default(), opts)
    }

    /// An engine whose runner is held at the gate: a type-6 transaction,
    /// alone in the first bulk (closed by size or timer), is running when
    /// this returns. Send on the returned sender to release it.
    fn gated(opts: PipelineOptions) -> (PipelinedEngine<CountRunner>, Sender<()>) {
        let (entered, entered_rx) = channel();
        let (release_tx, release) = channel();
        let eng = PipelinedEngine::new(
            CountRunner {
                gate: Some(Gate { entered, release }),
                ..CountRunner::default()
            },
            opts,
        );
        eng.submit(6, vec![Value::Int(0)]).unwrap();
        entered_rx.recv().expect("the runner reaches the gate");
        (eng, release_tx)
    }

    #[test]
    fn submits_resolve_and_final_state_is_complete() {
        let eng = engine(PipelineOptions {
            max_bulk_size: 32,
            max_wait: Duration::from_secs(10),
            queue_depth: 64,
        });
        let tickets: Vec<Ticket> = (0..100)
            .map(|i| eng.submit(0, vec![Value::Int(i % 7)]).unwrap())
            .collect();
        let mut eng = eng;
        eng.shutdown();
        for (i, t) in tickets.iter().enumerate() {
            let (id, outcome) = t.wait().expect("ticket resolves ok");
            assert_eq!(id, i as u64, "ids follow submission order");
            assert!(outcome.is_committed());
        }
        let stats = eng.stats().unwrap().clone();
        assert_eq!(stats.transactions(), 100);
        assert_eq!(stats.committed, 100);
        // 3 full bulks of 32 close by size, the 4-transaction tail by drain.
        assert_eq!(stats.closes.by_size, 3);
        assert_eq!(stats.closes.by_flush, 1);
        assert!(stats.throughput_tps() > 0.0);
        let (out, _) = eng.finish().unwrap();
        assert_eq!(out.counts.values().sum::<i64>(), 100);
        assert_eq!(out.sizes, [32, 32, 32, 4]);
    }

    #[test]
    fn max_wait_deadline_closes_partial_bulks() {
        let eng = engine(PipelineOptions {
            max_bulk_size: 1_000_000,
            max_wait: Duration::from_millis(5),
            queue_depth: 16,
        });
        let t = eng.submit(0, vec![Value::Int(1)]).unwrap();
        // Without the deadline this would hang: the bulk never reaches
        // max_bulk_size and nobody flushes.
        let (id, outcome) = t.wait().expect("deadline must close the bulk");
        assert_eq!(id, 0);
        assert!(outcome.is_committed());
        let (_, stats) = eng.finish().unwrap();
        assert!(stats.closes.by_timer >= 1);
    }

    /// The transactions submitted while the runner is busy wait out
    /// `max_wait` in one open bulk, which the free executor then takes
    /// whole — cut only at `max_bulk_size`.
    #[test]
    fn a_bulk_keeps_admitting_while_the_executor_is_busy() {
        for (max_bulk_size, sizes, by_size) in [(64, vec![1, 10], 0), (4, vec![1, 4, 4, 2], 2)] {
            let (eng, release) = gated(PipelineOptions {
                max_bulk_size,
                max_wait: Duration::from_millis(1),
                queue_depth: 64,
            });
            let tickets: Vec<Ticket> = (0..10)
                .map(|i| eng.submit(0, vec![Value::Int(i)]).unwrap())
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            release.send(()).expect("runner waits at the gate");
            for t in &tickets {
                assert!(t.wait().expect("resolves").1.is_committed());
            }
            let (out, stats) = eng.finish().unwrap();
            assert_eq!(out.sizes, sizes, "max_bulk_size {max_bulk_size}");
            // One timer close is the gated bulk's own.
            assert_eq!(stats.closes.by_timer, 2, "max_bulk_size {max_bulk_size}");
            assert_eq!(stats.closes.by_size, by_size);
            assert_eq!(stats.closes.by_flush, 0);
        }
    }

    #[test]
    fn queue_depth_bounds_admitted_transactions_the_executor_has_not_taken() {
        let (eng, release) = gated(PipelineOptions {
            max_bulk_size: 1_000,
            max_wait: Duration::from_millis(1),
            queue_depth: 5,
        });
        let mut admitted = Vec::new();
        let last = loop {
            match eng.try_submit(0, vec![Value::Int(1)]) {
                Ok(t) => admitted.push(t),
                Err(e) => break e,
            }
            assert!(admitted.len() <= 5, "queue_depth bounds admission");
        };
        assert_eq!(last, PipelineError::QueueFull);
        assert_eq!(admitted.len(), 5);
        // A blocking submit parks until the executor takes a bulk.
        let handle = eng.handle();
        let (done_tx, done) = channel();
        let blocked = std::thread::spawn(move || {
            let ticket = handle.submit(0, vec![Value::Int(2)]);
            done_tx.send(()).expect("test listens");
            ticket
        });
        assert!(done.recv_timeout(Duration::from_millis(20)).is_err());
        release.send(()).expect("runner waits at the gate");
        done.recv()
            .expect("the submit returns once a bulk is taken");
        let ticket = blocked.join().unwrap().expect("admitted");
        assert!(ticket.wait().is_ok());
        for t in &admitted {
            assert!(t.wait().is_ok());
        }
        let (out, _) = eng.finish().unwrap();
        assert_eq!(out.counts[&1], 5);
        assert_eq!(out.counts[&2], 1);
    }

    #[test]
    fn flush_commits_partial_bulk_and_waits_for_it() {
        let eng = engine(PipelineOptions {
            max_bulk_size: 1_000_000,
            max_wait: Duration::from_secs(10),
            queue_depth: 16,
        });
        let t = eng.submit(0, vec![Value::Int(3)]).unwrap();
        eng.flush().expect("flush succeeds");
        // After flush returns, the earlier ticket must already be resolved.
        assert!(matches!(t.try_get(), Some(Ok(_))));
        let (out, stats) = eng.finish().unwrap();
        assert_eq!(out.counts[&3], 1);
        assert!(stats.closes.by_flush >= 1);
    }

    /// A flush right after a size cut finds an empty open bulk: it still
    /// waits for the cut bulk to commit, but counts no bulk of its own.
    #[test]
    fn flush_over_an_empty_open_bulk_counts_no_bulk() {
        let eng = engine(PipelineOptions {
            max_bulk_size: 4,
            max_wait: Duration::from_secs(10),
            queue_depth: 64,
        });
        for bulk in 0..10 {
            let tickets: Vec<Ticket> = (0..4)
                .map(|i| eng.submit(0, vec![Value::Int(bulk * 4 + i)]).unwrap())
                .collect();
            eng.flush().expect("flush succeeds");
            for t in &tickets {
                assert!(matches!(t.try_get(), Some(Ok(_))), "bulk {bulk}");
            }
        }
        let (out, stats) = eng.finish().unwrap();
        assert_eq!(stats.bulks(), 10);
        assert_eq!(stats.closes.by_size, 10);
        assert_eq!(stats.closes.by_flush, 0);
        assert_eq!(out.sizes, [4; 10]);
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let mut eng = engine(PipelineOptions::default());
        eng.shutdown();
        assert_eq!(eng.submit(0, vec![]).unwrap_err(), PipelineError::ShutDown);
        assert_eq!(
            eng.try_submit(0, vec![]).unwrap_err(),
            PipelineError::ShutDown
        );
        assert_eq!(eng.flush().unwrap_err(), PipelineError::ShutDown);
        eng.shutdown(); // idempotent
    }

    #[test]
    fn failed_bulk_resolves_tickets_with_error_and_pipeline_survives() {
        let eng = engine(PipelineOptions {
            max_bulk_size: 4,
            max_wait: Duration::from_secs(10),
            queue_depth: 16,
        });
        // First bulk fails (typed runner error), second bulk panics inside
        // the runner, third is healthy.
        let bad: Vec<Ticket> = (0..4)
            .map(|_| eng.submit(9, vec![Value::Int(0)]).unwrap())
            .collect();
        let ugly: Vec<Ticket> = (0..4)
            .map(|_| eng.submit(8, vec![Value::Int(0)]).unwrap())
            .collect();
        let good: Vec<Ticket> = (0..4)
            .map(|_| eng.submit(0, vec![Value::Int(5)]).unwrap())
            .collect();
        for t in &bad {
            assert!(
                matches!(t.wait(), Err(PipelineError::BulkFailed(msg)) if msg.contains("injected failure"))
            );
        }
        for t in &ugly {
            assert!(
                matches!(t.wait(), Err(PipelineError::BulkFailed(msg)) if msg.contains("injected runner panic"))
            );
        }
        for t in &good {
            assert!(t.wait().is_ok());
        }
        let (out, stats) = eng.finish().unwrap();
        assert_eq!(out.counts[&5], 4);
        assert_eq!(stats.bulks_failed, 2);
        assert_eq!(stats.failed, 8);
        assert_eq!(stats.committed, 4);
    }

    #[test]
    fn backpressure_drops_no_tickets() {
        // Tiny queue + tiny bulks: the submitter outruns the executor and
        // blocks on the full queue; every ticket must still resolve.
        let eng = engine(PipelineOptions {
            max_bulk_size: 2,
            max_wait: Duration::from_micros(50),
            queue_depth: 2,
        });
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| eng.submit(0, vec![Value::Int(i % 11)]).unwrap())
            .collect();
        let (out, stats) = eng.finish().unwrap();
        assert_eq!(tickets.iter().filter(|t| t.wait().is_ok()).count(), 500);
        assert_eq!(out.counts.values().sum::<i64>(), 500);
        assert_eq!(stats.transactions(), 500);
    }

    #[test]
    fn engine_drop_with_live_handle_submitters_does_not_block() {
        // A remote submitter (e.g. a network connection handler) is parked
        // in a blocking submit on a full queue when the engine is dropped
        // from another thread. The drop must return without waiting for the
        // submitter to stop first, the parked submit must end in ShutDown,
        // and every ticket the submitter obtained must resolve.
        let queue_depth = 3;
        let (eng, release) = gated(PipelineOptions {
            max_bulk_size: 1,
            max_wait: Duration::from_secs(10),
            queue_depth,
        });
        let handle = eng.handle();
        let (held_tx, held_rx) = channel();
        let submitter = std::thread::spawn(move || {
            let mut tickets = Vec::new();
            loop {
                match handle.submit(0, vec![Value::Int(1)]) {
                    Ok(t) => tickets.push(t),
                    Err(e) => return (tickets, e),
                }
                // Announce the ticket count before the next submit.
                let _ = held_tx.send(tickets.len());
            }
        });
        // With the runner gated, the queue holds exactly `queue_depth`
        // transactions; the submit after them parks.
        while held_rx.recv().expect("submitter alive") < queue_depth {}
        assert_eq!(
            eng.try_submit(0, vec![Value::Int(1)]).unwrap_err(),
            PipelineError::QueueFull
        );
        let gate_closed = eng.handle();
        let dropper = std::thread::spawn(move || drop(eng));
        // Shutdown refuses submits first; only then release the runner so
        // the engine can drain.
        while !gate_closed.is_closed() {
            std::thread::yield_now();
        }
        release.send(()).expect("runner waits at the gate");
        dropper.join().expect("drop returned");
        let (tickets, last) = submitter.join().expect("submitter exits");
        assert_eq!(last, PipelineError::ShutDown);
        assert_eq!(tickets.len(), queue_depth, "the parked submit is refused");
        for t in tickets {
            assert!(t.wait().expect("resolves").1.is_committed());
        }
    }

    #[test]
    fn handle_outlives_engine_and_reports_closed() {
        let eng = engine(PipelineOptions::default());
        let handle = eng.handle();
        let t = handle.submit(0, vec![Value::Int(2)]).unwrap();
        drop(eng);
        assert!(t.wait().is_ok(), "pre-shutdown submit drains normally");
        assert!(handle.is_closed());
        assert_eq!(
            handle.submit(0, vec![]).unwrap_err(),
            PipelineError::ShutDown
        );
        assert_eq!(
            handle.try_submit(0, vec![]).unwrap_err(),
            PipelineError::ShutDown
        );
        assert_eq!(handle.flush().unwrap_err(), PipelineError::ShutDown);
    }

    #[test]
    fn try_submit_sheds_load_when_queue_is_full() {
        // One-transaction bulks over a slow (20 ms) runner with a depth-1
        // queue: while one bulk runs, the next one closed behind it fills
        // the queue, so try_submit must report QueueFull instead of
        // blocking.
        let eng = engine(PipelineOptions {
            max_bulk_size: 1,
            max_wait: Duration::from_secs(10),
            queue_depth: 1,
        });
        let mut full_seen = false;
        for _ in 0..500 {
            match eng.try_submit(7, vec![Value::Int(0)]) {
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                Err(PipelineError::QueueFull) => {
                    full_seen = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(full_seen, "a depth-1 queue must eventually report Full");
        drop(eng);
    }

    /// A ticket resolves for a waiter parked before the result, a waiter
    /// that arrives after it and a poller, whether or not anyone parked.
    #[test]
    fn every_ticket_reader_sees_the_result() {
        let one = |replies: &ReplyQueue| Run {
            replies: replies.clone(),
            len: 1,
        };
        let ticket = Arc::new(Ticket {
            replies: ReplyQueue::new(),
        });
        let run = one(&ticket.replies);
        let parked = {
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || ticket.wait())
        };
        while !ticket.replies.lock().waiting {
            std::thread::yield_now();
        }
        run.deliver(&mut std::iter::once(Ok((7, TxnOutcome::Committed))));
        assert_eq!(parked.join().unwrap(), Ok((7, TxnOutcome::Committed)));
        assert_eq!(ticket.wait(), Ok((7, TxnOutcome::Committed)));
        assert_eq!(ticket.try_get(), Some(Ok((7, TxnOutcome::Committed))));

        let unwatched = Ticket {
            replies: ReplyQueue::new(),
        };
        one(&unwatched.replies).deliver(&mut std::iter::once(Ok((8, TxnOutcome::Committed))));
        assert!(!unwatched.replies.lock().waiting);
        assert_eq!(unwatched.try_get(), Some(Ok((8, TxnOutcome::Committed))));
        assert_eq!(unwatched.wait(), Ok((8, TxnOutcome::Committed)));

        // A run dropped undelivered still resolves its ticket.
        let orphaned = Ticket {
            replies: ReplyQueue::new(),
        };
        drop(one(&orphaned.replies));
        assert_eq!(orphaned.wait(), Err(PipelineError::Disconnected));
    }

    fn blocking(key: i64) -> Submission {
        Submission {
            ty: 0,
            params: vec![Value::Int(key)],
            block: true,
        }
    }

    /// Admit `batch` for `replies` and return each submission's answer.
    fn submit_batch(
        handle: &SubmitHandle,
        replies: &ReplyQueue,
        batch: Vec<Submission>,
    ) -> Vec<Result<(), PipelineError>> {
        let mut answers = Vec::new();
        handle.submit_batch(replies, batch, |a| answers.push(a));
        answers
    }

    /// Take `n` results from `replies`, blocking as needed.
    fn take(replies: &ReplyQueue, n: usize) -> Vec<TicketResult> {
        let mut got = VecDeque::new();
        while got.len() < n {
            replies.wait_ready(&mut got);
        }
        assert_eq!(got.len(), n, "no result beyond the admitted ones");
        got.into()
    }

    /// Two submitters interleave batches of random sizes across size and
    /// timer cuts: each receives every one of its results exactly once, in
    /// its own submission order, with ascending ids.
    #[test]
    fn two_submitters_see_their_own_results_in_order() {
        const PER_SUBMITTER: i64 = 2_000;
        let eng = engine(PipelineOptions {
            max_bulk_size: 7,
            max_wait: Duration::from_micros(200),
            queue_depth: 16,
        });
        let submitters: Vec<_> = (0..2i64)
            .map(|s| {
                let handle = eng.handle();
                std::thread::spawn(move || {
                    let replies = ReplyQueue::new();
                    let mut rng = 0x5EED_u64 + s as u64;
                    let mut next = 0;
                    while next < PER_SUBMITTER {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let size = ((rng >> 33) % 23 + 1).min((PER_SUBMITTER - next) as u64) as i64;
                        let batch = (next..next + size)
                            .map(|i| blocking(s * 1_000_000 + i))
                            .collect();
                        assert!(submit_batch(&handle, &replies, batch)
                            .iter()
                            .all(Result::is_ok));
                        next += size;
                        if (rng >> 40) % 8 == 0 {
                            // Let the open bulk's deadline pass.
                            std::thread::sleep(Duration::from_micros(500));
                        }
                    }
                    take(&replies, PER_SUBMITTER as usize)
                })
            })
            .collect();
        let results: Vec<_> = submitters
            .into_iter()
            .map(|t| t.join().expect("submitter"))
            .collect();
        let (out, stats) = eng.finish().unwrap();
        let key_of: HashMap<TxnId, i64> = out.keys.iter().copied().collect();
        assert_eq!(key_of.len(), 2 * PER_SUBMITTER as usize);
        for (s, results) in results.iter().enumerate() {
            let ids: Vec<TxnId> = results
                .iter()
                .map(|r| r.as_ref().expect("committed").0)
                .collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(key_of[id], s as i64 * 1_000_000 + i as i64);
            }
        }
        assert!(stats.closes.by_size > 0 && stats.closes.by_timer > 0);
        assert_eq!(stats.committed, 2 * PER_SUBMITTER as u64);
    }

    /// A no-wait submission at a full queue is answered `QueueFull` at its
    /// own position; the admitted ones around it resolve in order.
    #[test]
    fn no_wait_item_at_a_full_queue_is_refused_in_place() {
        let (eng, release) = gated(PipelineOptions {
            max_bulk_size: 1_000,
            max_wait: Duration::from_millis(1),
            queue_depth: 3,
        });
        let handle = eng.handle();
        let replies = ReplyQueue::new();
        let no_wait = |key| Submission {
            block: false,
            ..blocking(key)
        };
        let answers = submit_batch(&handle, &replies, vec![blocking(1), no_wait(2)]);
        assert_eq!(answers, [Ok(()), Ok(())]);
        let answers = submit_batch(
            &handle,
            &replies,
            vec![no_wait(3), no_wait(4), no_wait(5), no_wait(6)],
        );
        assert_eq!(
            answers,
            [
                Ok(()),
                Err(PipelineError::QueueFull),
                Err(PipelineError::QueueFull),
                Err(PipelineError::QueueFull)
            ]
        );
        release.send(()).expect("runner waits at the gate");
        let ids: Vec<TxnId> = take(&replies, 3)
            .into_iter()
            .map(|r| r.expect("committed").0)
            .collect();
        assert_eq!(ids, [1, 2, 3]);
        let (out, _) = eng.finish().unwrap();
        assert_eq!(out.keys, [(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    /// Every run of a failed bulk receives `BulkFailed` for each of its
    /// transactions; a later bulk of the same submitters commits.
    #[test]
    fn a_failed_bulk_fails_every_run() {
        let eng = engine(PipelineOptions {
            max_bulk_size: 6,
            max_wait: Duration::from_secs(10),
            queue_depth: 64,
        });
        let (a, b) = (eng.handle(), eng.handle());
        let (qa, qb) = (ReplyQueue::new(), ReplyQueue::new());
        let poisoned = Submission {
            ty: 9,
            ..blocking(0)
        };
        submit_batch(&a, &qa, vec![blocking(1), blocking(2)]);
        submit_batch(&b, &qb, vec![blocking(3), poisoned]);
        submit_batch(&a, &qa, vec![blocking(4), blocking(5)]);
        submit_batch(&b, &qb, (0..6).map(blocking).collect());
        let mut b_results = take(&qb, 8);
        let b_later = b_results.split_off(2);
        for r in take(&qa, 4).into_iter().chain(b_results) {
            assert!(
                matches!(r, Err(PipelineError::BulkFailed(msg)) if msg.contains("injected failure"))
            );
        }
        assert!(b_later.iter().all(Result::is_ok));
        let (_, stats) = eng.finish().unwrap();
        assert_eq!(
            (stats.bulks_failed, stats.failed, stats.committed),
            (1, 6, 6)
        );
    }

    /// When the execution thread dies, the bulk it was running and every
    /// batch admitted but not yet taken deliver `Disconnected` to each of
    /// their transactions as the engine drops.
    #[test]
    fn dropping_a_dead_engine_disconnects_every_untaken_run() {
        let (eng, release) = gated(PipelineOptions {
            max_bulk_size: 2,
            max_wait: Duration::from_millis(1),
            queue_depth: 64,
        });
        let (a, b) = (eng.handle(), eng.handle());
        let (qa, qb) = (ReplyQueue::new(), ReplyQueue::new());
        let fatal = Submission {
            ty: 5,
            ..blocking(0)
        };
        // Closed behind the gate: [fatal, a1], [b1, b2], [a2, a3], then
        // the open [b3].
        submit_batch(&a, &qa, vec![fatal, blocking(1)]);
        submit_batch(&b, &qb, vec![blocking(2), blocking(3)]);
        submit_batch(&a, &qa, vec![blocking(4), blocking(5)]);
        submit_batch(&b, &qb, vec![blocking(6)]);
        release.send(()).expect("runner waits at the gate");
        drop(eng);
        assert_eq!(take(&qa, 4), vec![Err(PipelineError::Disconnected); 4]);
        assert_eq!(take(&qb, 3), vec![Err(PipelineError::Disconnected); 3]);
    }
}
