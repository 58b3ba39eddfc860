//! Streaming execution: the pipelined engine driver and the
//! arrival/response-time simulation.
//!
//! Two things live here:
//!
//! * [`PipelinedGpuTx`] — the *real* streaming mode: an always-on,
//!   multi-threaded front-end where clients `submit` transactions into a
//!   bounded admission queue and receive [`Ticket`] handles; bulks are formed
//!   adaptively (size or deadline), planned (strategy decision for bulk
//!   sizing, plus the gather step's access plan) on a dedicated stage thread
//!   *while the previous bulk executes*, executed in timestamp order, and
//!   committed in submission order. This is the paper's
//!   formation/execution pipelining (§3.2) turned into an actual
//!   multi-threaded engine, configured by
//!   [`PipelineConfig`].
//! * [`simulate_pipeline`] — the original arrival/response-time *simulation*
//!   behind the paper's Figures 9 and 15 (periodic bulk cuts under a uniform
//!   arrival process, simulated time only).

use crate::adaptive::{AdaptiveSelector, DecisionStats, DecisionStatsHandle};
use crate::bulk::Bulk;
use crate::commit::GroupCommit;
use crate::config::{EngineConfig, PipelineConfig};
use crate::profiler::profile_bulk;
use crate::select::{choose_strategy, selector_for};
use crate::strategy::{execute_bulk, ExecContext, StrategyKind};
use gputx_exec::{
    BulkPlanner, BulkRunner, BulkSizeKnob, ExecError, ExecPolicy, Executor, PipelineError,
    PipelineOptions, PipelineStats, PipelinedEngine, SerialExecutor, SubmitHandle, Ticket,
};
use gputx_sim::{Gpu, SimDuration, Throughput};
use gputx_storage::{Database, IndexSet, Value};
use gputx_txn::{AccessPlan, ProcedureRegistry, TxnId, TxnSignature, TxnTypeId};
use serde::{Deserialize, Serialize};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The streaming pipelined engine (driver over `gputx_exec::PipelinedEngine`).
// ---------------------------------------------------------------------------

/// Grouping-stage driver: plans bulks from signatures and index contents.
///
/// The planner runs concurrently with execution, so it never sees the live
/// database: strategy selection profiles the declared read/write sets and
/// partition keys, which must be state-independent (derivable from the
/// signature alone — Appendix B's static analysis; every bundled workload
/// satisfies this). It holds no table data at all.
#[derive(Debug)]
pub struct GpuTxPlanner {
    registry: ProcedureRegistry,
    /// The live database's indexes as of pipeline start, shared
    /// copy-on-write: profiling and the gather step resolve against them.
    /// An index exists twice only after the execution stage writes it, and
    /// only until the next plan releases this outdated copy.
    indexes: IndexSet,
    config: EngineConfig,
    /// The cost-model selector, present under `StrategyChoice::Adaptive`.
    /// It lives here because this is the grouping stage: decisions happen
    /// where bulks are formed into plans, overlapped with execution.
    selector: Option<AdaptiveSelector>,
    /// Feedback channel to the admission stage: each adaptive decision
    /// publishes its bulk-size suggestion here.
    size_knob: Option<BulkSizeKnob>,
}

impl BulkPlanner for GpuTxPlanner {
    /// The gather step: every planned procedure's index keys resolved to
    /// dense row ids, built off the execution thread against the planner's
    /// index share. The runner revalidates it against the live database's
    /// index versions before executing: entries through since-mutated or
    /// released indexes re-probe transparently (so they stay degraded for
    /// churning indexes — entries through static indexes keep the fast path;
    /// see `gputx_txn::access`). `None` when no procedure in the bulk
    /// declares a plan callback.
    type Plan = Option<AccessPlan>;

    fn plan(&mut self, bulk: &[TxnSignature]) -> Option<AccessPlan> {
        // Indexes the execution stage has since copied and written are
        // outdated here and held by nobody else: free them. Lookups through
        // them become stale plan entries.
        self.indexes.release_unshared();
        let indexes = &self.indexes;
        // The decision only sizes bulks: every bulk executes in timestamp
        // order, which Definition 1 makes equal to each strategy's schedule.
        let (_, size_hint) = choose_strategy(&self.config, self.selector.as_mut(), || {
            profile_bulk(&self.registry, indexes, bulk)
        });
        if let (Some(knob), Some(size)) = (self.size_knob.as_ref(), size_hint) {
            knob.set(size);
        }
        // The gather step, overlapped with the previous bulk's execution.
        let access = AccessPlan::build(&self.registry, indexes, bulk);
        (!access.is_empty()).then_some(access)
    }
}

/// Execution-stage driver: owns the live database and applies each bulk in
/// timestamp order on the [`SerialExecutor`].
///
/// Execution is purely functional (no simulated-GPU cost model): the
/// pipelined engine measures *wall-clock* stage timings instead. A bulk's
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
    /// Where committed bulks go. The execution stage is the pipeline's
    /// group-commit point: a bulk's record is appended (and fsynced per
    /// policy) and published before the bulk reaches the commit stage, so
    /// tickets resolve only after their bulk is durable per policy — the
    /// fsync wait is naturally folded into every ticket's latency.
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
    type Plan = Option<AccessPlan>;
    type Output = Database;

    fn run(
        &mut self,
        bulk: Vec<TxnSignature>,
        mut access: Option<AccessPlan>,
    ) -> Result<Vec<(TxnId, gputx_txn::TxnOutcome)>, ExecError> {
        // A predecessor bulk that failed (typed error) or unwound (caught by
        // the execution stage) may have left buffered inserts behind;
        // applying them here would leak another bulk's partial effects.
        self.discard_insert_buffers();
        // The access plan was resolved against the planner's index share;
        // earlier bulks may have mutated indexes since (applied inserts).
        // Mark entries of since-mutated indexes stale so they re-probe the
        // live database at consume time — correctness never depends on the
        // share's freshness.
        if let Some(access) = access.as_mut() {
            access.revalidate(&self.db);
        }
        let capture = self.commit.arm(&mut self.db);
        // `bulk` arrives in ascending id (timestamp) order from admission:
        // run it as one serial group in that order.
        let executed = SerialExecutor
            .run_groups(
                &mut self.db,
                &self.registry,
                &self.policy,
                &[bulk.iter().collect()],
                access.as_ref(),
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

/// The streaming GPUTx engine: continuous transaction ingest with overlapped
/// grouping and execution.
///
/// ```text
/// submit() ─▶ admission ─▶ grouping ─▶ execution ─▶ commit ─▶ Ticket resolves
///             (size/deadline) (plan N+1 ∥ run N)    (submission order)
/// ```
///
/// Prefer this over the one-shot [`GpuTxEngine`](crate::GpuTxEngine) when
/// transactions arrive continuously and per-transaction latency matters;
/// prefer one-shot bulks for offline/batch runs and for the simulated-GPU
/// cost model (the pipeline measures wall-clock only).
#[derive(Debug)]
pub struct PipelinedGpuTx {
    engine: PipelinedEngine<GpuTxPlanner, GpuTxRunner>,
    health: gputx_faults::Health,
    /// Observer handle onto the adaptive selector's decision stats; present
    /// only under `StrategyChoice::Adaptive`.
    decisions: Option<DecisionStatsHandle>,
}

impl PipelinedGpuTx {
    /// Start the stage threads. `engine_config` supplies strategy selection,
    /// thresholds and partition size; `pipeline` supplies the admission
    /// knobs.
    pub(crate) fn start(
        db: Database,
        registry: ProcedureRegistry,
        engine_config: EngineConfig,
        pipeline: PipelineConfig,
        commit: GroupCommit,
    ) -> Self {
        // Under Adaptive the grouping stage holds the selector (decisions
        // happen where bulks become plans) and feeds sizing suggestions back
        // into admission through a shared knob.
        let selector = selector_for(&engine_config, pipeline.max_bulk_size);
        let decisions = selector.as_ref().map(AdaptiveSelector::stats_handle);
        let size_knob = selector.as_ref().map(|_| BulkSizeKnob::new());
        let health = commit.health();
        let planner = GpuTxPlanner {
            registry: registry.clone(),
            indexes: db.indexes().clone(),
            config: engine_config,
            selector,
            size_knob: size_knob.clone(),
        };
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
            engine: PipelinedEngine::new_with_knob(planner, runner, opts, size_knob),
            health,
            decisions,
        }
    }

    /// Snapshot of the adaptive selector's per-bulk decision stats (strategy
    /// histogram, switches, sizing); `None` unless the engine was built with
    /// `StrategyChoice::Adaptive` (`EngineBuilder::adaptive()`). Available
    /// live, while the engine is still running.
    pub fn decision_stats(&self) -> Option<DecisionStats> {
        self.decisions.as_ref().map(|d| d.snapshot())
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

    /// Drain and stop the stage threads. Idempotent; afterwards `submit`
    /// returns [`PipelineError::ShutDown`].
    pub fn shutdown(&mut self) {
        self.engine.shutdown()
    }

    /// Run statistics (throughput, latency percentiles, per-stage busy time);
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
    use gputx_storage::{DataItemId, DataType, IndexId};
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
            let (db, stats) = engine.finish().expect("stages stay healthy");
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

    /// The grouping and execution stages [`PipelinedGpuTx::start`] wires
    /// together, serial and unlogged, to drive by hand.
    fn stages(db: Database, registry: ProcedureRegistry) -> (GpuTxPlanner, GpuTxRunner) {
        let config = EngineConfig::default();
        let commit = GroupCommit::open(
            &config.durability,
            &db,
            None,
            None,
            None,
            gputx_faults::HealPolicy::default(),
            gputx_faults::Health::new(),
        );
        let planner = GpuTxPlanner {
            registry: registry.clone(),
            indexes: db.indexes().clone(),
            config,
            selector: None,
            size_knob: None,
        };
        let runner = GpuTxRunner {
            db,
            registry,
            policy: ExecPolicy::functional(),
            commit,
        };
        (planner, runner)
    }

    /// TM1 writes only the two call-forwarding indexes. Once the execution
    /// stage has written them, the planner frees its outdated copies and
    /// keeps sharing every other index.
    #[test]
    fn planner_releases_exactly_the_indexes_the_runner_wrote() {
        // The stages must be the only holders, as in a started pipeline.
        let mut bundle = gputx_workloads::Tm1Config { scale_factor: 1 }.build();
        bundle.reseed(0x1dee);
        let sigs = bundle.generate_signatures(1_200, 0);
        let db = &bundle.db;
        let id = |table: &str, index: &str| -> IndexId {
            let t = db.table_id(table).expect("TM1 table");
            db.index_id(t, index).expect("TM1 index")
        };
        let written = [id("call_forwarding", "pk"), id("call_forwarding", "by_sf")];
        let static_ = [
            id("subscriber", "by_nbr"),
            id("access_info", "pk"),
            id("special_facility", "pk"),
        ];
        let (mut planner, mut runner) = stages(bundle.db, bundle.registry);
        let (first, second) = sigs.split_at(sigs.len() / 2);
        let plan = planner.plan(first);
        assert!(plan.is_some(), "gather step planned");
        for id in written.iter().chain(&static_) {
            assert!(planner.indexes.shares(runner.db.indexes(), *id));
        }
        runner.run(first.to_vec(), plan).expect("bulk runs");
        let plan = planner.plan(second);
        assert!(plan.is_some(), "gather step planned");
        for id in written {
            assert!(planner.indexes.get(id).is_none(), "released");
        }
        for id in static_ {
            assert!(
                planner.indexes.shares(runner.db.indexes(), id),
                "static indexes stay shared"
            );
        }
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
