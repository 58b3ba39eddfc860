//! The GPUTx engine facade.
//!
//! [`GpuTxEngine`] ties the pieces together the way §3.2 and §5 describe the
//! system: transaction types are registered up front, the database is loaded
//! into device memory, users submit transaction signatures into the pool, and
//! the engine periodically generates a bulk, profiles it, picks an execution
//! strategy and executes it on the (simulated) GPU. Results are collected in a
//! result pool on the host.

use crate::adaptive::{AdaptiveSelector, DecisionStats};
use crate::bulk::{Bulk, BulkReport};
use crate::config::EngineConfig;
use crate::profiler::{profile_bulk, BulkProfile};
use crate::select::{choose_strategy, selector_for};
use crate::strategy::{execute_bulk, ExecContext, StrategyKind};
use gputx_sim::{Gpu, SimDuration, Throughput};
use gputx_storage::{Database, Value};
use gputx_txn::{ProcedureRegistry, TransactionPool, TxnId, TxnOutcome, TxnTypeId};

/// A completed transaction in the result pool.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnResult {
    /// The transaction id.
    pub id: TxnId,
    /// Commit or abort.
    pub outcome: TxnOutcome,
}

/// The GPUTx engine. Constructed by
/// [`EngineBuilder::build`](crate::EngineBuilder::build).
///
/// It commits to no consumer: a write-ahead log, a replication hub and an
/// analytics session attach only to the streaming
/// [`PipelinedGpuTx`](crate::PipelinedGpuTx).
#[derive(Debug)]
pub struct GpuTxEngine {
    gpu: Gpu,
    db: Database,
    registry: ProcedureRegistry,
    pool: TransactionPool,
    config: EngineConfig,
    reports: Vec<BulkReport>,
    results: Vec<TxnResult>,
    load_time: SimDuration,
    /// Cost-model strategy selector, present under
    /// `StrategyChoice::Adaptive`. The one-shot engine applies its strategy
    /// decisions but keeps `config.bulk_size` bulk boundaries: nothing reads
    /// the selector's bulk-size suggestion beyond [`DecisionStats`].
    selector: Option<AdaptiveSelector>,
}

impl GpuTxEngine {
    /// Allocate the database in device memory, accounting for the initial
    /// host→device load (the "initialization" transfer of Figure 16).
    pub(crate) fn assemble(
        db: Database,
        registry: ProcedureRegistry,
        config: EngineConfig,
    ) -> Self {
        let mut gpu = Gpu::new(config.device.clone());
        let load_time = db.load_to_device(&mut gpu);
        let selector = selector_for(&config);
        GpuTxEngine {
            gpu,
            db,
            registry,
            pool: TransactionPool::new(),
            config,
            reports: Vec::new(),
            results: Vec::new(),
            load_time,
            selector,
        }
    }

    /// Submit a transaction (`Execute procedure_name(parameters)`); returns
    /// the assigned id/timestamp.
    pub fn submit(&mut self, ty: TxnTypeId, params: Vec<Value>) -> TxnId {
        self.pool.submit(ty, params)
    }

    /// Number of transactions waiting in the pool.
    pub fn pending(&self) -> usize {
        self.pool.len()
    }

    /// Profile the next bulk (up to `bulk_size` pending transactions) without
    /// executing it.
    pub fn profile_next_bulk(&self) -> Option<BulkProfile> {
        (!self.pool.is_empty())
            .then(|| profile_head(&self.pool, &self.registry, &self.db, self.config.bulk_size))
    }

    /// Generate and execute one bulk using the configured strategy choice
    /// (under `Adaptive`: cost-model scoring with hysteresis and decision
    /// stats; bulk boundaries stay at `config.bulk_size`). Returns `None`
    /// when the pool is empty.
    pub fn execute_pending(&mut self) -> Option<BulkReport> {
        if self.pool.is_empty() {
            return None;
        }
        let Self {
            pool,
            registry,
            db,
            config,
            selector,
            ..
        } = self;
        let strategy = choose_strategy(config, selector.as_mut(), || {
            profile_head(pool, registry, db, config.bulk_size)
        });
        self.execute_pending_with(strategy)
    }

    /// Snapshot of the adaptive selector's decision stats; `None` unless the
    /// engine runs with `StrategyChoice::Adaptive`.
    pub fn decision_stats(&self) -> Option<DecisionStats> {
        self.selector.as_ref().map(|s| s.stats_handle().snapshot())
    }

    /// Generate and execute one bulk with an explicit strategy.
    pub fn execute_pending_with(&mut self, strategy: StrategyKind) -> Option<BulkReport> {
        if self.pool.is_empty() {
            return None;
        }
        let sigs = self.pool.drain(self.config.bulk_size);
        let bulk = Bulk::new(sigs);
        let mut ctx = ExecContext {
            gpu: &mut self.gpu,
            db: &mut self.db,
            registry: &self.registry,
            config: &self.config,
        };
        let outcome = execute_bulk(&mut ctx, strategy, &bulk);
        for (id, o) in &outcome.outcomes {
            self.results.push(TxnResult {
                id: *id,
                outcome: o.clone(),
            });
        }
        let report = outcome.into_report();
        self.reports.push(report.clone());
        Some(report)
    }

    /// Execute bulks until the pool is empty; returns one report per bulk.
    pub fn run_until_empty(&mut self) -> Vec<BulkReport> {
        let mut out = Vec::new();
        while let Some(report) = self.execute_pending() {
            out.push(report);
        }
        out
    }

    /// Aggregate throughput over every bulk executed so far.
    pub fn overall_throughput(&self) -> Throughput {
        let txns: u64 = self.reports.iter().map(|r| r.transactions as u64).sum();
        let time: SimDuration = self.reports.iter().map(|r| r.total()).sum();
        Throughput::from_count(txns, time)
    }

    /// Simulated time of the initial database load.
    pub fn load_time(&self) -> SimDuration {
        self.load_time
    }

    /// The database (host view of the device-resident data).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the database (e.g. for loading more data).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The simulated GPU (stats, transfer log, memory usage).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The registered transaction types.
    pub fn registry(&self) -> &ProcedureRegistry {
        &self.registry
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Reports of every bulk executed so far.
    pub fn reports(&self) -> &[BulkReport] {
        &self.reports
    }

    /// The result pool: one entry per executed transaction.
    pub fn results(&self) -> &[TxnResult] {
        &self.results
    }

    /// Total committed transactions so far.
    pub fn total_committed(&self) -> usize {
        self.reports.iter().map(|r| r.committed).sum()
    }

    /// Total aborted transactions so far.
    pub fn total_aborted(&self) -> usize {
        self.reports.iter().map(|r| r.aborted).sum()
    }
}

/// Profile the (non-empty) pool's first `bulk_size` transactions.
fn profile_head(
    pool: &TransactionPool,
    registry: &ProcedureRegistry,
    db: &Database,
    bulk_size: usize,
) -> BulkProfile {
    let sigs: Vec<_> = pool.peek().take(bulk_size).cloned().collect();
    profile_bulk(registry, db, &sigs)
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
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
            ],
            vec![0],
        ));
        for i in 0..rows {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Double(100.0)]);
        }
        let mut reg = ProcedureRegistry::new();
        reg.register(ProcedureDef::new(
            "deposit",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let bal = ctx.read(t, row, 1).as_double();
                ctx.write(t, row, 1, Value::Double(bal + ctx.param_double(1)));
            },
        ));
        (db, reg)
    }

    #[test]
    fn end_to_end_submit_execute_collect() {
        let (db, reg) = setup(1000);
        let mut engine = EngineBuilder::new(db, reg).build();
        assert!(engine.load_time().as_secs() > 0.0);
        for i in 0..5000u64 {
            engine.submit(0, vec![Value::Int((i % 1000) as i64), Value::Double(1.0)]);
        }
        assert_eq!(engine.pending(), 5000);
        let reports = engine.run_until_empty();
        assert!(!reports.is_empty());
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.total_committed(), 5000);
        assert_eq!(engine.total_aborted(), 0);
        assert_eq!(engine.results().len(), 5000);
        assert!(engine.overall_throughput().tps() > 0.0);
        // Every account received 5 deposits of 1.0.
        assert_eq!(
            engine.db().table_by_name("accounts").get(42, 1),
            Value::Double(105.0)
        );
    }

    #[test]
    fn bulk_size_limits_each_bulk() {
        let (db, reg) = setup(100);
        let mut engine = EngineBuilder::new(db, reg).with_bulk_size(128).build();
        for i in 0..300u64 {
            engine.submit(0, vec![Value::Int((i % 100) as i64), Value::Double(1.0)]);
        }
        let reports = engine.run_until_empty();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].transactions, 128);
        assert_eq!(reports[2].transactions, 44);
    }

    #[test]
    fn explicit_strategy_is_respected() {
        let (db, reg) = setup(64);
        let mut engine = EngineBuilder::new(db, reg)
            .with_strategy(StrategyChoice::ForcePart)
            .build();
        for i in 0..64u64 {
            engine.submit(0, vec![Value::Int(i as i64), Value::Double(2.0)]);
        }
        let report = engine.execute_pending().unwrap();
        assert_eq!(report.strategy, StrategyKind::Part);
        let report2 = engine.execute_pending();
        assert!(report2.is_none(), "pool is empty");
    }

    #[test]
    fn profile_reflects_conflicts() {
        let (db, reg) = setup(10);
        let mut engine = EngineBuilder::new(db, reg).build();
        for _ in 0..10 {
            engine.submit(0, vec![Value::Int(3), Value::Double(1.0)]);
        }
        let profile = engine.profile_next_bulk().unwrap();
        assert_eq!(profile.size, 10);
        assert_eq!(profile.zero_set_size, 1);
        assert_eq!(profile.depth, 9);
        assert!(engine.profile_next_bulk().is_some());
    }
}
