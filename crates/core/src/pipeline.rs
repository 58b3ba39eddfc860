//! Streaming execution: the pipelined engine driver and the
//! arrival/response-time simulation.
//!
//! Two things live here:
//!
//! * [`PipelinedGpuTx`] — the *real* streaming mode: an always-on
//!   front-end where clients `submit` transactions into the open bulk and
//!   receive [`Ticket`] handles; bulks close at `max_bulk_size` or
//!   `max_wait` and fill *while the previous bulk executes* on one
//!   execution thread, which runs each in timestamp order, group-commits it
//!   and delivers its results in submission order. This is the paper's
//!   formation/execution pipelining (§3.2) turned into an actual
//!   multi-threaded engine, configured by [`PipelineConfig`].
//! * [`simulate_pipeline`] — the original arrival/response-time *simulation*
//!   behind the paper's Figures 9 and 15 (periodic bulk cuts under a uniform
//!   arrival process, simulated time only).

use crate::adaptive::DecisionStats;
use crate::bulk::Bulk;
use crate::commit::GroupCommit;
use crate::config::{EngineConfig, PipelineConfig};
use crate::strategy::{execute_bulk, ExecContext, StrategyKind};
use gputx_exec::{
    BulkRunner, ExecError, ExecPolicy, Executor, PipelineError, PipelineOptions, PipelineStats,
    PipelinedEngine, SerialExecutor, SubmitHandle, Ticket,
};
use gputx_sim::{Gpu, SimDuration, Throughput};
use gputx_storage::{Database, Value};
use gputx_txn::{ProcedureRegistry, TxnId, TxnSignature, TxnTypeId};
use serde::{Deserialize, Serialize};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The streaming pipelined engine (driver over `gputx_exec::PipelinedEngine`).
// ---------------------------------------------------------------------------

/// The pipeline's runner: owns the live database and applies each bulk in
/// timestamp order on the [`SerialExecutor`], with no access plan.
///
/// Execution is purely functional (no simulated-GPU cost model): the
/// pipelined engine measures *wall-clock* busy time instead. A bulk's
/// result is its serial execution in timestamp order (Definition 1), which
/// every one-shot strategy's schedule reproduces, so the final database
/// state is bit-identical to [`execute_bulk`] over the same bulks. The
/// K-SET waves and PART groups that expose intra-bulk parallelism belong to
/// the one-shot engine and the simulated GPU.
///
/// # Failure semantics
///
/// A panicking stored procedure fails its bulk (every ticket resolves with
/// `BulkFailed`) and the pipeline keeps serving. Execution mutates the
/// database in place, so the transactions of the failed bulk that ran before
/// the panic remain applied. The failed bulk's *buffered inserts* are always
/// discarded — they never leak into a later bulk's batched-insert
/// application. A commit error (WAL append) fails the bulk's tickets too,
/// with its functional effects applied.
#[derive(Debug)]
pub struct GpuTxRunner {
    db: Database,
    registry: ProcedureRegistry,
    policy: ExecPolicy,
    /// Where committed bulks go. The execution thread is the pipeline's
    /// group-commit point: a bulk's record is appended (and fsynced per
    /// policy) and published before the bulk's tickets resolve, so they
    /// resolve only after their bulk is durable per policy — the fsync wait
    /// is naturally folded into every ticket's latency.
    commit: GroupCommit,
}

impl GpuTxRunner {
    /// Drop every table's pending insert buffer: called before a bulk (to
    /// clear leftovers of a predecessor that failed or unwound mid-run) and
    /// after a failed bulk, so a failed bulk's inserts are never applied by a
    /// later bulk's `apply_insert_buffers`.
    fn discard_insert_buffers(&mut self) {
        for t in 0..self.db.num_tables() {
            self.db
                .table_mut(t as gputx_storage::catalog::TableId)
                .clear_insert_buffer();
        }
    }
}

impl BulkRunner for GpuTxRunner {
    type Output = Database;

    fn run(
        &mut self,
        bulk: Vec<TxnSignature>,
    ) -> Result<Vec<(TxnId, gputx_txn::TxnOutcome)>, ExecError> {
        // A predecessor bulk that failed (typed error) or unwound (caught by
        // the execution thread) may have left buffered inserts behind;
        // applying them here would leak another bulk's partial effects.
        self.discard_insert_buffers();
        let capture = self.commit.arm(&mut self.db);
        // `bulk` arrives in ascending id (timestamp) order: run it as one
        // serial group in that order, probing indexes as it goes.
        let executed = SerialExecutor
            .run_groups(
                &mut self.db,
                &self.registry,
                &self.policy,
                &[bulk.iter().collect()],
                None,
            )
            .expect("the serial executor never fails");
        self.db.apply_insert_buffers();
        let outcomes: Vec<(TxnId, gputx_txn::TxnOutcome)> = executed
            .into_iter()
            .flatten()
            .map(|t| (t.id, t.outcome))
            .collect();
        debug_assert!(outcomes.windows(2).all(|w| w[0].0 < w[1].0));
        if let Some(capture) = capture {
            // A commit error fails this bulk's tickets: its functional
            // effects are applied, but nobody is told "durable" for work the
            // log cannot reproduce.
            self.commit.commit(&mut self.db, capture)?;
        }
        Ok(outcomes)
    }

    fn finish(mut self) -> Database {
        // Leftover buffers of a failed final bulk must not survive into the
        // returned state.
        self.discard_insert_buffers();
        self.db
    }
}

/// The streaming GPUTx engine: continuous transaction ingest with bulk
/// formation overlapped with execution.
///
/// ```text
/// submit() ─▶ open bulk ──────────▶ execution thread ─────────────────▶ Ticket resolves
///             (size/deadline;        run N in timestamp order, group
///              N+1 forms ∥ run N)    commit, resolve in submission order
/// ```
///
/// This is the engine that serves: the only one that commits to consumers
/// (write-ahead log, replication hub, analytics session) and the one the
/// server drives. The one-shot [`GpuTxEngine`](crate::GpuTxEngine) is the
/// paper's simulated-GPU bulk engine: use it for the simulated-GPU cost
/// model (the pipeline measures wall-clock only) and for per-bulk strategy
/// selection, since the pipeline ignores `StrategyChoice`.
#[derive(Debug)]
pub struct PipelinedGpuTx {
    engine: PipelinedEngine<GpuTxRunner>,
    health: gputx_faults::Health,
}

impl PipelinedGpuTx {
    /// Start the execution thread. `pipeline` supplies the admission knobs;
    /// `commit` the group-commit point.
    pub(crate) fn start(
        db: Database,
        registry: ProcedureRegistry,
        pipeline: PipelineConfig,
        commit: GroupCommit,
    ) -> Self {
        let health = commit.health();
        let runner = GpuTxRunner {
            db,
            registry,
            policy: ExecPolicy::functional(),
            commit,
        };
        let opts = PipelineOptions {
            max_bulk_size: pipeline.max_bulk_size,
            max_wait: Duration::from_micros(pipeline.max_wait_us),
            queue_depth: pipeline.queue_depth,
        };
        PipelinedGpuTx {
            engine: PipelinedEngine::new(runner, opts),
            health,
        }
    }

    /// Always `None`: the pipeline makes no strategy decision, so there is
    /// nothing to report. Adaptive decisions exist only in the one-shot
    /// engine ([`GpuTxEngine::decision_stats`](crate::GpuTxEngine::decision_stats)).
    /// Kept only for the benchmark, which still reads it; the benchmark
    /// change that drops its `core.*_share` and `core.switches` rows
    /// deletes this method.
    pub fn decision_stats(&self) -> Option<DecisionStats> {
        None
    }

    /// The engine's shared health surface: WAL state (including automatic
    /// heals and degradation), replication progress and fault-plane
    /// activity, updated at the group-commit point. Clone it into a server
    /// (`Server::serve_health`) to answer wire `Health` requests.
    pub fn health(&self) -> gputx_faults::Health {
        self.health.clone()
    }

    /// Submit a transaction; blocks while the admission queue is full
    /// (backpressure). The returned [`Ticket`] resolves with the
    /// transaction's id and outcome when its bulk commits.
    pub fn submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.engine.submit(ty, params)
    }

    /// Non-blocking [`PipelinedGpuTx::submit`]; fails with
    /// [`PipelineError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, PipelineError> {
        self.engine.try_submit(ty, params)
    }

    /// A cloneable [`SubmitHandle`] for submitter threads that may outlive or
    /// race this engine's shutdown — the ingest surface a network front door
    /// (`gputx-server`) serves connections from. After shutdown every handle
    /// call fails with [`PipelineError::ShutDown`] instead of blocking the
    /// engine's drop.
    pub fn handle(&self) -> SubmitHandle {
        self.engine.handle()
    }

    /// Close the currently open partial bulk and block until everything
    /// submitted before the flush has committed.
    pub fn flush(&self) -> Result<(), PipelineError> {
        self.engine.flush()
    }

    /// Drain and stop the execution thread. Idempotent; afterwards `submit`
    /// returns [`PipelineError::ShutDown`].
    pub fn shutdown(&mut self) {
        self.engine.shutdown()
    }

    /// Run statistics (throughput, bulk close reasons, busy time);
    /// `None` before shutdown.
    pub fn stats(&self) -> Option<&PipelineStats> {
        self.engine.stats()
    }

    /// Shut down (if still running) and hand back the final database plus the
    /// run statistics.
    pub fn finish(self) -> Result<(Database, PipelineStats), PipelineError> {
        self.engine.finish()
    }
}

// ---------------------------------------------------------------------------
// Arrival/response-time simulation (Figures 9 and 15).
// ---------------------------------------------------------------------------

/// Configuration of one arrival/response-time simulation run (Figures 9/15):
/// transactions arrive uniformly in time and the engine cuts a bulk every
/// fixed interval. Purely simulated time — for the real streaming engine see
/// [`PipelinedGpuTx`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSimConfig {
    /// Transaction arrival rate in transactions per second.
    pub arrival_rate_tps: f64,
    /// Interval between bulk cuts.
    pub interval: SimDuration,
    /// Length of the simulated arrival window.
    pub horizon: SimDuration,
}

/// Result of an arrival/response-time simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSimReport {
    /// Number of transactions that completed.
    pub completed: u64,
    /// Number of bulks executed.
    pub bulks: usize,
    /// Average response time (bulk completion − submission) over all
    /// transactions.
    pub avg_response: SimDuration,
    /// Sustained throughput: completed transactions over the time until the
    /// last bulk finished.
    pub throughput: Throughput,
}

/// Simulate periodic bulk execution under a uniform arrival process.
///
/// `make_txn(i)` produces the type and parameters of the `i`-th arriving
/// transaction; transactions are executed with the given strategy. Larger
/// intervals produce larger bulks (better GPU utilization, higher throughput)
/// at the cost of a higher average response time — the trade-off the paper's
/// response-time figures chart.
pub fn simulate_pipeline(
    db: &mut Database,
    registry: &ProcedureRegistry,
    config: &EngineConfig,
    strategy: StrategyKind,
    pipeline: &IntervalSimConfig,
    mut make_txn: impl FnMut(u64) -> (TxnTypeId, Vec<Value>),
) -> IntervalSimReport {
    assert!(
        pipeline.arrival_rate_tps > 0.0,
        "arrival rate must be positive"
    );
    assert!(!pipeline.interval.is_zero(), "interval must be positive");
    let total = (pipeline.arrival_rate_tps * pipeline.horizon.as_secs()).floor() as u64;
    let inter_arrival = 1.0 / pipeline.arrival_rate_tps;

    let mut gpu = Gpu::new(config.device.clone());
    let mut completed = 0u64;
    let mut bulks = 0usize;
    let mut response_sum = 0.0f64;
    let mut device_free_at = 0.0f64; // when the GPU finishes its current bulk
    let mut next_txn = 0u64;
    let mut window_start = 0.0f64;

    while next_txn < total {
        let window_end = window_start + pipeline.interval.as_secs();
        // Collect the arrivals of this interval.
        let mut sigs = Vec::new();
        let mut arrivals = Vec::new();
        while next_txn < total && (next_txn as f64) * inter_arrival < window_end {
            let arrival = next_txn as f64 * inter_arrival;
            let (ty, params) = make_txn(next_txn);
            sigs.push(TxnSignature::new(next_txn, ty, params));
            arrivals.push(arrival);
            next_txn += 1;
        }
        window_start = window_end;
        if sigs.is_empty() {
            continue;
        }
        let bulk = Bulk::new(sigs);
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db,
            registry,
            config,
        };
        let outcome = execute_bulk(&mut ctx, strategy, &bulk);
        // The bulk can start once the interval has elapsed and the device is free.
        let start = window_end.max(device_free_at);
        let finish = start + outcome.total().as_secs();
        device_free_at = finish;
        for arrival in arrivals {
            response_sum += finish - arrival;
        }
        completed += outcome.transactions as u64;
        bulks += 1;
    }

    let avg_response = if completed == 0 {
        SimDuration::ZERO
    } else {
        SimDuration::from_secs(response_sum / completed as f64)
    };
    let throughput = Throughput::from_count(
        completed,
        SimDuration::from_secs(device_free_at.max(f64::EPSILON)),
    );
    IntervalSimReport {
        completed,
        bulks,
        avg_response,
        throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::config::StrategyChoice;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataItemId, DataType};
    use gputx_txn::{BasicOp, ProcedureDef};

    fn setup(rows: i64) -> (Database, ProcedureRegistry) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "items",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![0],
        ));
        for i in 0..rows {
            db.table_mut(t).insert(vec![Value::Int(i), Value::Int(0)]);
        }
        let mut reg = ProcedureRegistry::new();
        reg.register(ProcedureDef::new(
            "touch",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let v = ctx.read(t, row, 1).as_int();
                ctx.compute_calls(4);
                ctx.write(t, row, 1, Value::Int(v + 1));
            },
        ));
        (db, reg)
    }

    fn run(interval_ms: f64) -> IntervalSimReport {
        let (mut db, reg) = setup(10_000);
        let config = EngineConfig::default();
        let pipeline = IntervalSimConfig {
            arrival_rate_tps: 200_000.0,
            interval: SimDuration::from_millis(interval_ms),
            horizon: SimDuration::from_millis(100.0),
        };
        simulate_pipeline(&mut db, &reg, &config, StrategyKind::Kset, &pipeline, |i| {
            (0, vec![Value::Int((i % 10_000) as i64)])
        })
    }

    #[test]
    fn all_arrivals_complete() {
        let r = run(10.0);
        assert_eq!(r.completed, 20_000);
        assert_eq!(r.bulks, 10);
        assert!(r.avg_response.as_millis() > 0.0);
        assert!(r.throughput.tps() > 0.0);
    }

    #[test]
    fn larger_intervals_increase_response_time_and_throughput() {
        // The paper's Figure 9/15 trend: bigger bulks amortize overhead
        // (higher throughput) but transactions wait longer (higher response
        // time).
        let small = run(2.0);
        let large = run(25.0);
        assert!(large.avg_response > small.avg_response);
        assert!(large.throughput.tps() >= small.throughput.tps() * 0.9);
        assert!(large.bulks < small.bulks);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let (mut db, reg) = setup(10);
        let config = EngineConfig::default();
        let pipeline = IntervalSimConfig {
            arrival_rate_tps: 0.0,
            interval: SimDuration::from_millis(1.0),
            horizon: SimDuration::from_millis(1.0),
        };
        simulate_pipeline(&mut db, &reg, &config, StrategyKind::Tpl, &pipeline, |_| {
            (0, vec![])
        });
    }

    // ---- streaming engine ---------------------------------------------------

    /// The pipelined engine must reach the same final state as replaying the
    /// stream sequentially, for every strategy.
    #[test]
    fn pipelined_engine_matches_sequential_replay() {
        let n = 600usize;
        let (db0, reg) = setup(64);
        // Sequential replay in timestamp order.
        let mut seq_db = db0.clone();
        for i in 0..n {
            let sig = TxnSignature::new(i as u64, 0, vec![Value::Int((i % 7) as i64)]);
            reg.execute(&sig, &mut seq_db);
        }
        seq_db.apply_insert_buffers();

        for strategy in [
            StrategyChoice::ForceKset,
            StrategyChoice::ForcePart,
            StrategyChoice::ForceTpl,
            StrategyChoice::Auto,
        ] {
            let engine = EngineBuilder::new(db0.clone(), reg.clone())
                .with_strategy(strategy)
                .with_max_bulk_size(128)
                .with_max_wait_us(10_000_000)
                .build_pipelined();
            let tickets: Vec<Ticket> = (0..n)
                .map(|i| {
                    engine
                        .submit(0, vec![Value::Int((i % 7) as i64)])
                        .expect("engine accepts submissions")
                })
                .collect();
            let (db, stats) = engine.finish().expect("the execution thread stays healthy");
            assert!(
                db == seq_db,
                "{strategy:?}: final state must equal sequential replay"
            );
            assert_eq!(stats.committed, n as u64);
            assert_eq!(stats.bulks(), (n as u64).div_ceil(128));
            for (i, t) in tickets.iter().enumerate() {
                let (id, outcome) = t.wait().expect("ticket resolves");
                assert_eq!(id, i as u64);
                assert!(outcome.is_committed());
            }
        }
    }

    /// A bulk that fails mid-run (panicking procedure after buffered inserts)
    /// must fail all its tickets, and its buffered inserts must never be
    /// applied by a later healthy bulk.
    #[test]
    fn failed_bulk_inserts_do_not_leak_into_later_bulks() {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "log",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![0],
        ));
        let mut reg = ProcedureRegistry::new();
        // Buffered insert keyed by a per-transaction dummy item (conflict-free).
        reg.register(ProcedureDef::new(
            "ins",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let k = ctx.param_int(0);
                ctx.insert(t, vec![Value::Int(k), Value::Int(1)]);
            },
        ));
        reg.register(ProcedureDef::new(
            "boom",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |_ctx| panic!("procedure bug"),
        ));
        let engine = EngineBuilder::new(db, reg)
            .with_strategy(StrategyChoice::ForceKset)
            .with_max_bulk_size(4)
            .with_max_wait_us(10_000_000)
            .build_pipelined();
        // Bulk 1: two inserts execute, then the panic fails the bulk with two
        // inserts still buffered.
        let bulk1: Vec<Ticket> = [(0u32, 1i64), (0, 2), (1, 3), (0, 4)]
            .iter()
            .map(|&(ty, k)| engine.submit(ty, vec![Value::Int(k)]).unwrap())
            .collect();
        // Bulk 2: four healthy inserts.
        let bulk2: Vec<Ticket> = (10..14)
            .map(|k| engine.submit(0, vec![Value::Int(k)]).unwrap())
            .collect();
        for ticket in &bulk1 {
            assert!(matches!(ticket.wait(), Err(PipelineError::BulkFailed(_))));
        }
        for ticket in &bulk2 {
            assert!(ticket.wait().is_ok());
        }
        let (db, stats) = engine.finish().unwrap();
        assert_eq!(stats.bulks_failed, 1);
        assert_eq!(stats.committed, 4);
        assert_eq!(
            db.table_by_name("log").num_rows(),
            4,
            "only the healthy bulk's inserts may be applied"
        );
        assert_eq!(db.table_by_name("log").pending_inserts(), 0);
    }

    #[test]
    fn deadline_bounds_latency_without_flush() {
        let (db0, reg) = setup(8);
        let engine = EngineBuilder::new(db0, reg)
            .with_max_bulk_size(1_000_000)
            .with_max_wait_us(3_000)
            .build_pipelined();
        let ticket = engine.submit(0, vec![Value::Int(1)]).unwrap();
        // The deadline (not size, not flush) must commit this transaction.
        assert!(ticket.wait().is_ok());
        let (_, stats) = engine.finish().unwrap();
        assert!(stats.closes.by_timer >= 1);
    }
}
