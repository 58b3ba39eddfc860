//! The streaming pipelined engine: continuous transaction ingest with
//! overlapped bulk formation, grouping and execution.
//!
//! The one-shot bulk path amortizes per-transaction overhead *within* a bulk;
//! the paper additionally pipelines bulk *formation* with bulk *execution*, so
//! the grouping cost of bulk `N+1` hides behind the run of bulk `N` (§3.2).
//! This module implements that as an always-on front-end of four stage
//! threads connected by bounded channels:
//!
//! ```text
//!  clients ──submit()──▶ [admission] ──▶ [grouping] ──▶ [execution] ──▶ [commit]
//!            bounded        forms          plans the       runs bulk       resolves
//!            queue          bulks          next bulk       N while         tickets in
//!            (back-         (size OR       off-thread      grouping        submission
//!            pressure)      deadline)      (planner)       plans N+1       order
//! ```
//!
//! * **admission** — assigns monotone transaction ids (submission timestamps)
//!   and closes a bulk when it reaches `max_bulk_size` *or* when the oldest
//!   queued transaction has waited `max_wait`, whichever comes first.
//! * **grouping** — runs the [`BulkPlanner`] for the next bulk while the
//!   execution stage is still busy with the previous one. This is the
//!   paper's formation/execution overlap. In `gputx-core` the planner
//!   builds the gather step's access plan; the bulk itself runs in
//!   timestamp order.
//! * **execution** — runs the [`BulkRunner`] (the owner of the database and
//!   the [`Executor`](crate::Executor)).
//! * **commit** — resolves [`Ticket`]s in submission order.
//!
//! Every channel is bounded, so a slow stage backpressures its upstream all
//! the way to `submit`, which blocks the client. No ticket is ever dropped:
//! if a stage dies or a bulk is abandoned mid-flight, its tickets resolve
//! with an error instead of hanging their waiters.
//!
//! This module is deliberately generic: it knows about stage scheduling,
//! tickets, timing and failure containment, but not about strategies or
//! databases. The GPUTx driver (planner + runner over the real database)
//! lives in `gputx-core`'s `pipeline` module.

use crate::executor::ExecError;
use gputx_storage::Value;
use gputx_txn::{TxnId, TxnOutcome, TxnSignature, TxnTypeId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of each inter-stage channel. One in-flight bulk per stage
/// boundary is exactly the paper's overlap (grouping works one bulk ahead of
/// execution); a deeper pipeline would only add latency.
const STAGE_CHANNEL_DEPTH: usize = 1;

/// Grouping stage of the pipeline: prepares what the [`BulkRunner`] needs
/// for a bulk (in `gputx-core`, the pre-resolved access plan) from
/// transaction signatures alone, *off* the execution thread.
///
/// The planner must not touch the live database — it runs concurrently with
/// the execution of earlier bulks. Plan against immutable inputs (the
/// signatures plus, if needed, index contents shared copy-on-write at
/// pipeline start).
pub trait BulkPlanner: Send + 'static {
    /// The plan handed to the matching [`BulkRunner`].
    type Plan: Send + 'static;

    /// Build the plan for one bulk. `bulk` is sorted by ascending id
    /// (submission order).
    fn plan(&mut self, bulk: &[TxnSignature]) -> Self::Plan;
}

/// Execution stage of the pipeline: owns the database and applies bulks in
/// sequence using the plan produced by the [`BulkPlanner`].
pub trait BulkRunner: Send + 'static {
    /// The plan type consumed (must match the planner's).
    type Plan: Send + 'static;
    /// Final state handed back by [`PipelinedEngine::finish`] (typically the
    /// database).
    type Output: Send + 'static;

    /// Execute one bulk. Must return exactly one `(id, outcome)` per
    /// transaction, sorted by ascending id. A [`ExecError`] fails the whole
    /// bulk (its tickets resolve with [`PipelineError::BulkFailed`]) but the
    /// pipeline keeps running.
    fn run(
        &mut self,
        bulk: Vec<TxnSignature>,
        plan: Self::Plan,
    ) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError>;

    /// Consume the runner after shutdown and hand back the final state.
    fn finish(self) -> Self::Output;
}

/// Errors surfaced by the pipelined engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The engine has been shut down; no further submissions are accepted.
    ShutDown,
    /// `try_submit` found the bounded admission queue full.
    QueueFull,
    /// The bulk containing this transaction failed (planner/runner error or
    /// panic); the message describes the cause.
    BulkFailed(String),
    /// A pipeline stage terminated before resolving this ticket.
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

/// What a resolved ticket carries: the assigned transaction id (submission
/// timestamp) and the commit/abort outcome.
pub type TicketResult = Result<(TxnId, TxnOutcome), PipelineError>;

#[derive(Debug)]
struct TicketState {
    slot: Mutex<Option<TicketResult>>,
    cond: Condvar,
}

/// A future-style handle returned by [`PipelinedEngine::submit`]: resolves to
/// the transaction's id and outcome once its bulk commits.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the transaction's bulk is committed (or failed) and return
    /// the result. Can be called repeatedly; later calls return immediately.
    pub fn wait(&self) -> TicketResult {
        let mut slot = self.state.slot.lock().expect("ticket mutex poisoned");
        while slot.is_none() {
            slot = self.state.cond.wait(slot).expect("ticket mutex poisoned");
        }
        slot.clone().expect("checked above")
    }

    /// Non-blocking poll: `None` while the transaction is still in flight.
    pub fn try_get(&self) -> Option<TicketResult> {
        self.state
            .slot
            .lock()
            .expect("ticket mutex poisoned")
            .clone()
    }
}

/// The resolver half of a ticket. Travels through the stages with its bulk;
/// if it is dropped unresolved (a stage died, a bulk was abandoned), the
/// waiter wakes up with [`PipelineError::Disconnected`] instead of hanging.
#[derive(Debug)]
struct TicketSlot {
    state: Arc<TicketState>,
    resolved: bool,
}

impl TicketSlot {
    fn new() -> (Ticket, TicketSlot) {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        });
        (
            Ticket {
                state: Arc::clone(&state),
            },
            TicketSlot {
                state,
                resolved: false,
            },
        )
    }

    fn resolve(mut self, result: TicketResult) {
        self.fill(result);
    }

    fn fill(&mut self, result: TicketResult) {
        let mut slot = self.state.slot.lock().expect("ticket mutex poisoned");
        if slot.is_none() {
            *slot = Some(result);
            self.state.cond.notify_all();
        }
        self.resolved = true;
    }
}

impl Drop for TicketSlot {
    fn drop(&mut self) {
        if !self.resolved {
            self.fill(Err(PipelineError::Disconnected));
        }
    }
}

/// The shared submission gate: the master channel sender plus a closed flag.
///
/// Submitters (the engine itself and every cloned [`SubmitHandle`]) check the
/// flag, clone the sender out of the mutex and send *outside* the lock, so a
/// submit blocked on a full admission queue never holds the gate. Shutdown
/// sets the flag and drops the master sender; in-flight sends still complete
/// (admission keeps draining until every transient sender clone is gone), and
/// every later submit fails fast with [`PipelineError::ShutDown`] instead of
/// blocking the engine's drop.
#[derive(Debug)]
struct SubmitGate {
    closed: AtomicBool,
    sender: Mutex<Option<SyncSender<Input>>>,
}

impl SubmitGate {
    /// A transient sender clone, or `ShutDown` once the gate is closed.
    fn sender(&self) -> Result<SyncSender<Input>, PipelineError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PipelineError::ShutDown);
        }
        self.sender
            .lock()
            .expect("submit gate mutex poisoned")
            .clone()
            .ok_or(PipelineError::ShutDown)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        drop(
            self.sender
                .lock()
                .expect("submit gate mutex poisoned")
                .take(),
        );
    }
}

/// A cloneable, engine-independent submission handle.
///
/// Obtained from [`PipelinedEngine::handle`]; hand clones to client threads
/// (a network server's connection handlers, stream drivers) that must outlive
/// or race the engine's shutdown. Unlike a shared `&PipelinedEngine`, a
/// handle never blocks the engine's drop: once the engine shuts down, every
/// handle call fails fast with [`PipelineError::ShutDown`], and tickets
/// already obtained still resolve (committed, or `Disconnected` if their bulk
/// never ran).
#[derive(Debug, Clone)]
pub struct SubmitHandle {
    gate: Arc<SubmitGate>,
}

impl SubmitHandle {
    /// Submit a transaction; blocks while the admission queue is full
    /// (backpressure). Fails with [`PipelineError::ShutDown`] once the engine
    /// shut down. See [`PipelinedEngine::submit`].
    pub fn submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        let sender = self.gate.sender()?;
        let (ticket, slot) = TicketSlot::new();
        sender
            .send(Input::Submit { ty, params, slot })
            .map_err(|_| PipelineError::Disconnected)?;
        Ok(ticket)
    }

    /// Non-blocking [`SubmitHandle::submit`]: fails with
    /// [`PipelineError::QueueFull`] instead of blocking when the admission
    /// queue is full.
    pub fn try_submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        let sender = self.gate.sender()?;
        let (ticket, slot) = TicketSlot::new();
        match sender.try_send(Input::Submit { ty, params, slot }) {
            Ok(()) => Ok(ticket),
            Err(TrySendError::Full(_)) => Err(PipelineError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(PipelineError::Disconnected),
        }
    }

    /// Close the currently open partial bulk and block until everything
    /// submitted before the flush has committed. See
    /// [`PipelinedEngine::flush`].
    pub fn flush(&self) -> Result<(), PipelineError> {
        let sender = self.gate.sender()?;
        let (ticket, barrier) = TicketSlot::new();
        sender
            .send(Input::Flush { barrier })
            .map_err(|_| PipelineError::Disconnected)?;
        ticket.wait().map(|_| ())
    }

    /// True once the engine has shut down (every subsequent call fails with
    /// [`PipelineError::ShutDown`]).
    pub fn is_closed(&self) -> bool {
        self.gate.closed.load(Ordering::Acquire)
    }
}

/// Knobs of the pipelined engine (see `gputx-core`'s `PipelineConfig` for the
/// driver-level configuration that produces these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Close a bulk when it reaches this many transactions.
    pub max_bulk_size: usize,
    /// Close a non-empty bulk when its oldest transaction has waited this
    /// long (the latency bound of the admission stage).
    pub max_wait: Duration,
    /// Capacity of the bounded admission queue; a full queue blocks
    /// `submit` (backpressure) and fails `try_submit`.
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

enum Input {
    Submit {
        ty: TxnTypeId,
        params: Vec<Value>,
        slot: TicketSlot,
    },
    Flush {
        barrier: TicketSlot,
    },
}

struct FormedBulk {
    sigs: Vec<TxnSignature>,
    slots: Vec<TicketSlot>,
    barrier: Option<TicketSlot>,
}

struct PlannedBulk<Plan> {
    sigs: Vec<TxnSignature>,
    slots: Vec<TicketSlot>,
    barrier: Option<TicketSlot>,
    /// `Ok(None)` for an empty (barrier-only) bulk, `Err` when planning
    /// failed.
    plan: Result<Option<Plan>, String>,
}

struct ExecutedBulk {
    slots: Vec<TicketSlot>,
    barrier: Option<TicketSlot>,
    outcomes: Result<Vec<(TxnId, TxnOutcome)>, String>,
}

/// Why the admission stage closed each bulk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkCloseCounts {
    /// Bulks that reached `max_bulk_size`.
    pub by_size: u64,
    /// Bulks closed by the `max_wait` deadline.
    pub by_timer: u64,
    /// Bulks closed by an explicit `flush` (or final drain).
    pub by_flush: u64,
}

impl BulkCloseCounts {
    fn total(&self) -> u64 {
        self.by_size + self.by_timer + self.by_flush
    }
}

/// One stage's clock, in seconds: time spent working, and time spent
/// blocked handing work to a full downstream channel.
#[derive(Debug, Clone, Copy, Default)]
struct StageClock {
    busy: f64,
    blocked: f64,
}

impl StageClock {
    /// Hand `item` downstream, counting the time blocked on a full channel;
    /// false when the downstream stage is gone.
    fn send<T>(&mut self, tx: &SyncSender<T>, item: T) -> bool {
        let t0 = Instant::now();
        let sent = tx.send(item).is_ok();
        self.blocked += t0.elapsed().as_secs_f64();
        sent
    }
}

#[derive(Debug, Default)]
struct AdmissionStats {
    closes: BulkCloseCounts,
    clock: StageClock,
}

#[derive(Debug, Default)]
struct CommitStats {
    committed: u64,
    aborted: u64,
    failed: u64,
    bulks_failed: u64,
    busy_secs: f64,
}

/// Time per pipeline stage, in seconds. [`PipelineStats::stage_busy`] is
/// the time each stage spends working: it excludes waiting on an empty input
/// channel and waiting on a full output channel.
/// [`PipelineStats::stage_blocked`] is that second wait — a stage blocked
/// handing work downstream is backpressured by a slower successor. Commit
/// has no downstream, so its blocked time is always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBusy {
    /// Admission stage (bulk formation).
    pub admission_secs: f64,
    /// Grouping stage (plan construction).
    pub grouping_secs: f64,
    /// Execution stage (bulk run).
    pub execution_secs: f64,
    /// Commit stage (ticket resolution).
    pub commit_secs: f64,
}

/// Aggregate statistics of one pipelined-engine run, available after
/// shutdown.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Wall-clock seconds from engine start to shutdown.
    pub wall_secs: f64,
    /// Bulks formed by the admission stage, by close reason.
    pub closes: BulkCloseCounts,
    /// Bulks whose planning or execution failed.
    pub bulks_failed: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted (procedure-level abort).
    pub aborted: u64,
    /// Transactions whose bulk failed (resolved with an error).
    pub failed: u64,
    /// Per-stage busy time.
    pub stage_busy: StageBusy,
    /// Per-stage time blocked handing work to the next stage.
    pub stage_blocked: StageBusy,
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

/// The streaming pipelined engine. See the [module docs](self) for the stage
/// layout; construct one through the driver in `gputx-core` unless you are
/// providing your own planner/runner.
#[derive(Debug)]
pub struct PipelinedEngine<P, R>
where
    P: BulkPlanner,
    R: BulkRunner<Plan = P::Plan>,
{
    gate: Arc<SubmitGate>,
    admission: Option<JoinHandle<AdmissionStats>>,
    grouping: Option<JoinHandle<(P, StageClock)>>,
    execution: Option<JoinHandle<(R, StageClock)>>,
    commit: Option<JoinHandle<CommitStats>>,
    started: Instant,
    finished: Option<(Result<R::Output, PipelineError>, PipelineStats)>,
}

impl<P, R> PipelinedEngine<P, R>
where
    P: BulkPlanner,
    R: BulkRunner<Plan = P::Plan>,
{
    /// Start the engine: spawns the four stage threads and begins accepting
    /// submissions immediately. Transaction ids are assigned from 0 in
    /// admission order.
    pub fn new(planner: P, runner: R, opts: PipelineOptions) -> Self {
        assert!(opts.max_bulk_size > 0, "max_bulk_size must be positive");
        assert!(opts.queue_depth > 0, "queue_depth must be positive");
        let (input_tx, input_rx) = sync_channel::<Input>(opts.queue_depth);
        let (formed_tx, formed_rx) = sync_channel::<FormedBulk>(STAGE_CHANNEL_DEPTH);
        let (planned_tx, planned_rx) = sync_channel::<PlannedBulk<P::Plan>>(STAGE_CHANNEL_DEPTH);
        let (executed_tx, executed_rx) = sync_channel::<ExecutedBulk>(STAGE_CHANNEL_DEPTH);

        let spawn = |name: &str| std::thread::Builder::new().name(format!("gputx-{name}"));
        let admission = spawn("admission")
            .spawn(move || admission_loop(input_rx, formed_tx, opts))
            .expect("spawn admission stage");
        let grouping = spawn("grouping")
            .spawn(move || grouping_loop(planner, formed_rx, planned_tx))
            .expect("spawn grouping stage");
        let execution = spawn("execution")
            .spawn(move || execution_loop(runner, planned_rx, executed_tx))
            .expect("spawn execution stage");
        let commit = spawn("commit")
            .spawn(move || commit_loop(executed_rx))
            .expect("spawn commit stage");

        PipelinedEngine {
            gate: Arc::new(SubmitGate {
                closed: AtomicBool::new(false),
                sender: Mutex::new(Some(input_tx)),
            }),
            admission: Some(admission),
            grouping: Some(grouping),
            execution: Some(execution),
            commit: Some(commit),
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
    /// A minimal planner/runner pair (the "plan" is the parameter list, the
    /// runner counts submissions) driven through the full pipeline:
    ///
    /// ```
    /// use gputx_exec::{BulkPlanner, BulkRunner, ExecError, PipelineOptions, PipelinedEngine};
    /// use gputx_storage::Value;
    /// use gputx_txn::{TxnId, TxnOutcome, TxnSignature};
    ///
    /// struct EchoPlanner;
    /// impl BulkPlanner for EchoPlanner {
    ///     type Plan = usize;
    ///     fn plan(&mut self, bulk: &[TxnSignature]) -> usize { bulk.len() }
    /// }
    /// struct CountRunner { total: usize }
    /// impl BulkRunner for CountRunner {
    ///     type Plan = usize;
    ///     type Output = usize;
    ///     fn run(
    ///         &mut self,
    ///         bulk: Vec<TxnSignature>,
    ///         plan: usize,
    ///     ) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError> {
    ///         self.total += plan;
    ///         Ok(bulk.iter().map(|s| (s.id, TxnOutcome::Committed)).collect())
    ///     }
    ///     fn finish(self) -> usize { self.total }
    /// }
    ///
    /// let engine = PipelinedEngine::new(EchoPlanner, CountRunner { total: 0 },
    ///     PipelineOptions::default());
    /// let ticket = engine.submit(0, vec![Value::Int(7)]).unwrap();
    /// let (id, outcome) = ticket.wait().unwrap();
    /// assert_eq!(id, 0);
    /// assert!(outcome.is_committed());
    /// let (total, stats) = engine.finish().unwrap();
    /// assert_eq!(total, 1);
    /// assert_eq!(stats.committed, 1);
    /// ```
    pub fn submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.handle().submit(ty, params)
    }

    /// Non-blocking [`PipelinedEngine::submit`]: fails with
    /// [`PipelineError::QueueFull`] instead of blocking when the admission
    /// queue is full (the shed-load policy of an open-loop client).
    pub fn try_submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.handle().try_submit(ty, params)
    }

    /// Close the currently open (partial) bulk immediately and block until
    /// everything submitted before the flush has committed. Returns the
    /// failure of the flushed bulk, if any.
    pub fn flush(&self) -> Result<(), PipelineError> {
        self.handle().flush()
    }

    /// A cloneable [`SubmitHandle`] for submitter threads that may outlive or
    /// race the engine's shutdown (e.g. a network server's connection
    /// handlers). Handles never keep the engine alive and never block its
    /// drop: after shutdown every handle call fails with
    /// [`PipelineError::ShutDown`].
    pub fn handle(&self) -> SubmitHandle {
        SubmitHandle {
            gate: Arc::clone(&self.gate),
        }
    }

    /// Drain and stop: close the open bulk, run everything still queued, join
    /// the stage threads and collect [`PipelineStats`]. Idempotent; after
    /// shutdown, `submit` returns [`PipelineError::ShutDown`].
    ///
    /// Safe to call (and safe to `drop` the engine) while [`SubmitHandle`]
    /// clones are still submitting from other threads: the gate is closed
    /// first, so racing submitters either land in the final drain or fail
    /// with [`PipelineError::ShutDown`] — they can no longer keep the
    /// admission stage alive indefinitely, and tickets that never reach a
    /// bulk resolve as [`PipelineError::Disconnected`] instead of hanging.
    pub fn shutdown(&mut self) {
        if self.finished.is_some() {
            return;
        }
        // Close the gate (new submits fail fast), then drop the master
        // sender: admission sees the disconnect as soon as the last transient
        // sender clone is gone, closes the final partial bulk and lets the
        // stages drain in order.
        self.gate.close();
        let mut stats = PipelineStats::default();
        let mut output: Result<Option<R::Output>, PipelineError> = Ok(None);
        match self.admission.take().map(JoinHandle::join) {
            Some(Ok(a)) => {
                stats.closes = a.closes;
                stats.stage_busy.admission_secs = a.clock.busy;
                stats.stage_blocked.admission_secs = a.clock.blocked;
            }
            _ => output = Err(PipelineError::Disconnected),
        }
        match self.grouping.take().map(JoinHandle::join) {
            Some(Ok((_planner, clock))) => {
                stats.stage_busy.grouping_secs = clock.busy;
                stats.stage_blocked.grouping_secs = clock.blocked;
            }
            _ => output = Err(PipelineError::Disconnected),
        }
        match self.execution.take().map(JoinHandle::join) {
            Some(Ok((runner, clock))) => {
                stats.stage_busy.execution_secs = clock.busy;
                stats.stage_blocked.execution_secs = clock.blocked;
                if let Ok(slot) = &mut output {
                    *slot = Some(runner.finish());
                }
            }
            _ => output = Err(PipelineError::Disconnected),
        }
        match self.commit.take().map(JoinHandle::join) {
            Some(Ok(c)) => {
                stats.committed = c.committed;
                stats.aborted = c.aborted;
                stats.failed = c.failed;
                stats.bulks_failed = c.bulks_failed;
                stats.stage_busy.commit_secs = c.busy_secs;
            }
            _ => output = Err(PipelineError::Disconnected),
        }
        stats.wall_secs = self.started.elapsed().as_secs_f64();
        let output = match output {
            Ok(Some(out)) => Ok(out),
            Ok(None) | Err(PipelineError::Disconnected) => Err(PipelineError::Disconnected),
            Err(e) => Err(e),
        };
        self.finished = Some((output, stats));
    }

    /// Run statistics; `None` before [`PipelinedEngine::shutdown`].
    pub fn stats(&self) -> Option<&PipelineStats> {
        self.finished.as_ref().map(|(_, stats)| stats)
    }

    /// Shut down (if still running) and hand back the runner's final state
    /// plus the run statistics. Errors if a stage thread itself died.
    pub fn finish(mut self) -> Result<(R::Output, PipelineStats), PipelineError> {
        self.shutdown();
        let (output, stats) = self.finished.take().expect("shutdown populates finished");
        Ok((output?, stats))
    }
}

impl<P, R> Drop for PipelinedEngine<P, R>
where
    P: BulkPlanner,
    R: BulkRunner<Plan = P::Plan>,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn admission_loop(
    rx: Receiver<Input>,
    tx: SyncSender<FormedBulk>,
    opts: PipelineOptions,
) -> AdmissionStats {
    let mut stats = AdmissionStats::default();
    let mut next_id: TxnId = 0;
    let mut sigs: Vec<TxnSignature> = Vec::new();
    let mut slots: Vec<TicketSlot> = Vec::new();
    let mut deadline: Option<Instant> = None;

    // Close the open bulk: `None` when there is nothing to hand downstream.
    macro_rules! close {
        ($counter:ident, $barrier:expr) => {{
            let barrier: Option<TicketSlot> = $barrier;
            if sigs.is_empty() && barrier.is_none() {
                None
            } else {
                stats.closes.$counter += 1;
                Some(FormedBulk {
                    sigs: std::mem::take(&mut sigs),
                    slots: std::mem::take(&mut slots),
                    barrier,
                })
            }
        }};
    }

    loop {
        let msg = match deadline {
            None => rx.recv().ok(),
            Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => {
                    deadline = None;
                    if let Some(bulk) = close!(by_timer, None) {
                        if !stats.clock.send(&tx, bulk) {
                            return stats;
                        }
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => None,
            },
        };
        let Some(msg) = msg else {
            // Engine shut down: drain the final partial bulk.
            if let Some(bulk) = close!(by_flush, None) {
                stats.clock.send(&tx, bulk);
            }
            return stats;
        };
        let handled_at = Instant::now();
        let closed = match msg {
            Input::Submit { ty, params, slot } => {
                sigs.push(TxnSignature::new(next_id, ty, params));
                slots.push(slot);
                next_id += 1;
                if sigs.len() == 1 {
                    deadline = Some(Instant::now() + opts.max_wait);
                }
                if sigs.len() >= opts.max_bulk_size {
                    deadline = None;
                    close!(by_size, None)
                } else {
                    None
                }
            }
            Input::Flush { barrier } => {
                deadline = None;
                close!(by_flush, Some(barrier))
            }
        };
        stats.clock.busy += handled_at.elapsed().as_secs_f64();
        if let Some(bulk) = closed {
            if !stats.clock.send(&tx, bulk) {
                // Downstream died; unprocessed tickets resolve Disconnected
                // when their slots drop.
                return stats;
            }
        }
    }
}

fn grouping_loop<P: BulkPlanner>(
    mut planner: P,
    rx: Receiver<FormedBulk>,
    tx: SyncSender<PlannedBulk<P::Plan>>,
) -> (P, StageClock) {
    let mut clock = StageClock::default();
    while let Ok(FormedBulk {
        sigs,
        slots,
        barrier,
    }) = rx.recv()
    {
        let t0 = Instant::now();
        let plan = if sigs.is_empty() {
            Ok(None)
        } else {
            catch_unwind(AssertUnwindSafe(|| planner.plan(&sigs)))
                .map(Some)
                .map_err(crate::parallel::panic_message)
        };
        clock.busy += t0.elapsed().as_secs_f64();
        let planned = PlannedBulk {
            sigs,
            slots,
            barrier,
            plan,
        };
        if !clock.send(&tx, planned) {
            break;
        }
    }
    (planner, clock)
}

fn execution_loop<R: BulkRunner>(
    mut runner: R,
    rx: Receiver<PlannedBulk<R::Plan>>,
    tx: SyncSender<ExecutedBulk>,
) -> (R, StageClock) {
    let mut clock = StageClock::default();
    while let Ok(PlannedBulk {
        sigs,
        slots,
        barrier,
        plan,
    }) = rx.recv()
    {
        let t0 = Instant::now();
        let outcomes = match plan {
            Err(msg) => Err(format!("bulk planning failed: {msg}")),
            Ok(None) => Ok(Vec::new()),
            Ok(Some(plan)) => match catch_unwind(AssertUnwindSafe(|| runner.run(sigs, plan))) {
                Ok(Ok(outcomes)) => Ok(outcomes),
                Ok(Err(e)) => Err(e.to_string()),
                Err(payload) => Err(crate::parallel::panic_message(payload)),
            },
        };
        clock.busy += t0.elapsed().as_secs_f64();
        let executed = ExecutedBulk {
            slots,
            barrier,
            outcomes,
        };
        if !clock.send(&tx, executed) {
            break;
        }
    }
    (runner, clock)
}

fn commit_loop(rx: Receiver<ExecutedBulk>) -> CommitStats {
    let mut stats = CommitStats::default();
    while let Ok(ExecutedBulk {
        slots,
        barrier,
        outcomes,
    }) = rx.recv()
    {
        let t0 = Instant::now();
        let outcomes = match outcomes {
            Ok(outcomes) if outcomes.len() == slots.len() => Ok(outcomes),
            Ok(outcomes) => Err(format!(
                "runner returned {} outcomes for a {}-transaction bulk",
                outcomes.len(),
                slots.len()
            )),
            Err(msg) => Err(msg),
        };
        match outcomes {
            Ok(outcomes) => {
                // Admission assigns ascending ids, so slots and the
                // id-sorted outcomes line up 1:1 in submission order.
                for (slot, (id, outcome)) in slots.into_iter().zip(outcomes) {
                    if outcome.is_committed() {
                        stats.committed += 1;
                    } else {
                        stats.aborted += 1;
                    }
                    slot.resolve(Ok((id, outcome)));
                }
                if let Some(barrier) = barrier {
                    barrier.resolve(Ok((0, TxnOutcome::Committed)));
                }
            }
            Err(msg) => {
                stats.bulks_failed += 1;
                stats.failed += slots.len() as u64;
                let err = PipelineError::BulkFailed(msg);
                for slot in slots {
                    slot.resolve(Err(err.clone()));
                }
                if let Some(barrier) = barrier {
                    barrier.resolve(Err(err));
                }
            }
        }
        stats.busy_secs += t0.elapsed().as_secs_f64();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Toy planner: the "plan" is just the per-key increment list.
    struct CountPlanner;
    impl BulkPlanner for CountPlanner {
        type Plan = Vec<i64>;
        fn plan(&mut self, bulk: &[TxnSignature]) -> Vec<i64> {
            bulk.iter().map(|s| s.params[0].as_int()).collect()
        }
    }

    /// Toy runner: counts per key; type 9 fails the bulk, type 8 panics,
    /// type 7 sleeps and type 6 blocks until `gate` yields.
    struct CountRunner {
        counts: HashMap<i64, i64>,
        gate: Option<Receiver<()>>,
    }
    impl BulkRunner for CountRunner {
        type Plan = Vec<i64>;
        type Output = HashMap<i64, i64>;
        fn run(
            &mut self,
            bulk: Vec<TxnSignature>,
            plan: Vec<i64>,
        ) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError> {
            if bulk.iter().any(|s| s.ty == 9) {
                return Err(ExecError::WorkerPanicked {
                    shard: 0,
                    message: "injected failure".into(),
                });
            }
            if bulk.iter().any(|s| s.ty == 8) {
                panic!("injected runner panic");
            }
            if bulk.iter().any(|s| s.ty == 7) {
                std::thread::sleep(Duration::from_millis(20));
            }
            if bulk.iter().any(|s| s.ty == 6) {
                if let Some(gate) = &self.gate {
                    gate.recv().expect("gate opens");
                }
            }
            for key in plan {
                *self.counts.entry(key).or_insert(0) += 1;
            }
            Ok(bulk.iter().map(|s| (s.id, TxnOutcome::Committed)).collect())
        }
        fn finish(self) -> HashMap<i64, i64> {
            self.counts
        }
    }

    fn engine(opts: PipelineOptions) -> PipelinedEngine<CountPlanner, CountRunner> {
        PipelinedEngine::new(
            CountPlanner,
            CountRunner {
                counts: HashMap::new(),
                gate: None,
            },
            opts,
        )
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
        let (counts, _) = eng.finish().unwrap();
        assert_eq!(counts.values().sum::<i64>(), 100);
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
        let (counts, stats) = eng.finish().unwrap();
        assert_eq!(counts[&3], 1);
        assert!(stats.closes.by_flush >= 1);
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
        let (counts, stats) = eng.finish().unwrap();
        assert_eq!(counts[&5], 4);
        assert_eq!(stats.bulks_failed, 2);
        assert_eq!(stats.failed, 8);
        assert_eq!(stats.committed, 4);
    }

    #[test]
    fn backpressure_drops_no_tickets() {
        // Tiny queue + tiny bulks: the submitter outruns the pipeline and
        // blocks on the admission queue; every ticket must still resolve.
        let eng = engine(PipelineOptions {
            max_bulk_size: 2,
            max_wait: Duration::from_micros(50),
            queue_depth: 2,
        });
        let tickets: Vec<Ticket> = (0..500)
            .map(|i| eng.submit(0, vec![Value::Int(i % 11)]).unwrap())
            .collect();
        let (counts, stats) = eng.finish().unwrap();
        assert_eq!(tickets.iter().filter(|t| t.wait().is_ok()).count(), 500);
        assert_eq!(counts.values().sum::<i64>(), 500);
        assert_eq!(stats.transactions(), 500);
    }

    #[test]
    fn engine_drop_with_live_handle_submitters_does_not_block() {
        // A remote submitter (e.g. a network connection handler) is parked
        // in a blocking submit on a full admission queue when the engine is
        // dropped from another thread. The drop must return without waiting
        // for the submitter to stop first, the submitter must end in
        // ShutDown, and every ticket it obtained must resolve.
        let (open_gate, gate) = std::sync::mpsc::channel();
        let eng = PipelinedEngine::new(
            CountPlanner,
            CountRunner {
                counts: HashMap::new(),
                gate: Some(gate),
            },
            PipelineOptions {
                max_bulk_size: 1,
                max_wait: Duration::from_secs(10),
                queue_depth: 1,
            },
        );
        // The first transaction holds the runner at the gate. Behind it,
        // one-transaction bulks fill every slot that can hold one: the
        // planned and formed channels, the grouping and admission threads
        // (each blocked handing its bulk on) and the admission queue. With
        // those full, the next submit cannot complete until the gate opens.
        let stalled_capacity = 1 + 2 * STAGE_CHANNEL_DEPTH + 2 + 1;
        let handle = eng.handle();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let mut tickets = Vec::new();
            loop {
                let ty = if tickets.is_empty() { 6 } else { 0 };
                match handle.submit(ty, vec![Value::Int(1)]) {
                    Ok(t) => tickets.push(t),
                    Err(e) => return (tickets, e),
                }
                // Announce the ticket count before the next submit.
                let _ = held_tx.send(tickets.len());
            }
        });
        assert_eq!(held_rx.recv(), Ok(1), "the submitter's first ticket");
        while held_rx.recv().expect("submitter alive") < stalled_capacity {}
        // The submitter holds every slot and is in (or entering) its next
        // submit, which the full queue parks.
        assert_eq!(
            eng.try_submit(0, vec![Value::Int(1)]).unwrap_err(),
            PipelineError::QueueFull
        );
        let gate_closed = eng.handle();
        let dropper = std::thread::spawn(move || drop(eng));
        // Shutdown closes the submit gate first; only then release the
        // runner so the pipeline can drain.
        while !gate_closed.is_closed() {
            std::thread::yield_now();
        }
        open_gate.send(()).expect("runner waits at the gate");
        dropper.join().expect("drop returned");
        let (tickets, last) = submitter.join().expect("submitter exits");
        assert_eq!(last, PipelineError::ShutDown);
        // A parked submit already holds a queue sender, so it lands in the
        // final drain; the submit after it is refused.
        assert!(tickets.len() >= stalled_capacity);
        for t in tickets {
            assert!(t.wait().expect("resolves").1.is_committed());
        }
    }

    #[test]
    fn backpressure_counts_as_blocked_not_busy() {
        let (open_gate, gate) = std::sync::mpsc::channel();
        let eng = PipelinedEngine::new(
            CountPlanner,
            CountRunner {
                counts: HashMap::new(),
                gate: Some(gate),
            },
            PipelineOptions {
                max_bulk_size: 1,
                max_wait: Duration::from_secs(10),
                queue_depth: 1,
            },
        );
        // The first transaction holds the runner at the gate. Each of the
        // next five one-transaction bulks fills one slot behind it: the
        // planned channel, the grouping thread (blocked handing its bulk
        // on), the formed channel, the admission thread (blocked likewise)
        // and the admission queue. The last submit returns once admission
        // has taken the bulk it then blocks on.
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| eng.submit(if i == 0 { 6 } else { 0 }, vec![Value::Int(1)]))
            .collect::<Result<_, _>>()
            .unwrap();
        let held = Duration::from_millis(200);
        std::thread::sleep(held);
        open_gate.send(()).expect("runner waits at the gate");
        for t in &tickets {
            assert!(t.wait().expect("resolves").1.is_committed());
        }
        let (_, stats) = eng.finish().unwrap();
        // Grouping and admission reach their blocking send microseconds
        // after the last submit returns; half the hold absorbs scheduling
        // delay.
        let floor = held.as_secs_f64() / 2.0;
        assert!(stats.stage_blocked.grouping_secs >= floor, "{stats:?}");
        assert!(stats.stage_blocked.admission_secs >= floor, "{stats:?}");
        // The runner waiting at its own gate is work, not backpressure.
        assert!(stats.stage_busy.execution_secs >= floor, "{stats:?}");
        assert_eq!(stats.stage_blocked.commit_secs, 0.0);
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
        // One-transaction bulks over a slow (20 ms) runner: the stage
        // channels and the depth-1 admission queue fill up, so try_submit
        // must start reporting QueueFull instead of blocking.
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
}
