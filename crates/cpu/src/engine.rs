//! The H-Store-style CPU engine.
//!
//! Following the design of H-Store (§2, §6.3): the database is partitioned on
//! the workload's partitioning key, each partition is owned by exactly one
//! worker thread (one per physical core), single-partition transactions are
//! pushed to their partition's worker and executed serially without any
//! locking, and cross-partition transactions are executed in a serial global
//! phase (the simple multi-partition handling of the original system).
//!
//! Functional execution and correctness handling are shared with GPUTx (the
//! same [`ProcedureRegistry`] and undo machinery); only the *timing* model
//! differs: per-core time uses the CPU cost model and the engine finishes when
//! its slowest core finishes.

use crate::cost::{trace_cpu_seconds, CPU_DISPATCH_OVERHEAD_NS};
use gputx_sim::{CpuSpec, SimDuration, Throughput};
use gputx_storage::Database;
use gputx_txn::{ProcedureRegistry, TxnId, TxnOutcome, TxnSignature};
use serde::{Deserialize, Serialize};

/// Timing/outcome report of one bulk executed by the CPU engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuBulkReport {
    /// Number of transactions executed.
    pub transactions: usize,
    /// Elapsed time: the slowest core's busy time plus the serial
    /// cross-partition phase.
    pub elapsed: SimDuration,
    /// Busy time per core.
    pub core_busy: Vec<SimDuration>,
    /// Time spent in the serial cross-partition phase.
    pub cross_partition_time: SimDuration,
    /// Committed transaction count.
    pub committed: usize,
    /// Aborted transaction count.
    pub aborted: usize,
    /// Per-transaction outcomes in timestamp order — the CPU engine's result
    /// pool, mirroring what `GpuTxEngine::results` exposes per bulk (the
    /// engine previously reported counts only).
    pub outcomes: Vec<(TxnId, TxnOutcome)>,
}

impl CpuBulkReport {
    /// Throughput of this bulk.
    pub fn throughput(&self) -> Throughput {
        Throughput::from_count(self.transactions as u64, self.elapsed)
    }
}

/// The H-Store-style partitioned CPU engine.
///
/// # Examples
///
/// Build a one-table bank, register a deposit procedure, and run a bulk on
/// the paper's quad-core CPU model:
///
/// ```
/// use gputx_cpu::engine::CpuEngine;
/// use gputx_storage::schema::{ColumnDef, TableSchema};
/// use gputx_storage::{DataItemId, Database, DataType, Value};
/// use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry, TxnSignature};
///
/// let mut db = Database::column_store();
/// let t = db.create_table(TableSchema::new(
///     "accounts",
///     vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("balance", DataType::Double)],
///     vec![0],
/// ));
/// for i in 0..8i64 {
///     db.table_mut(t).insert(vec![Value::Int(i), Value::Double(0.0)]);
/// }
/// let mut reg = ProcedureRegistry::new();
/// reg.register(ProcedureDef::new(
///     "deposit",
///     move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
///     |p| Some(p[0].as_int() as u64),
///     move |ctx| {
///         let row = ctx.param_int(0) as u64;
///         let bal = ctx.read(t, row, 1).as_double();
///         ctx.write(t, row, 1, Value::Double(bal + 1.0));
///     },
/// ));
///
/// let bulk: Vec<TxnSignature> = (0..64)
///     .map(|i| TxnSignature::new(i, 0, vec![Value::Int((i % 8) as i64)]))
///     .collect();
/// let report = CpuEngine::xeon_quad_core().execute_bulk(&mut db, &reg, &bulk);
/// assert_eq!(report.committed, 64);
/// assert_eq!(db.table(t).get(3, 1), Value::Double(8.0));
/// assert!(report.throughput().tps() > 0.0);
/// ```
#[derive(Debug)]
pub struct CpuEngine {
    spec: CpuSpec,
    /// Number of partitioning-key values per partition.
    partition_size: u64,
}

impl CpuEngine {
    /// Create an engine for a CPU specification.
    pub fn new(spec: CpuSpec) -> Self {
        CpuEngine {
            spec,
            partition_size: 1,
        }
    }

    /// Engine with the paper's quad-core Xeon E5520.
    pub fn xeon_quad_core() -> Self {
        Self::new(CpuSpec::xeon_e5520())
    }

    /// Engine restricted to a single core (the paper's normalization
    /// baseline: "the CPU-based engine on the single core").
    pub fn single_core(&self) -> Self {
        CpuEngine {
            spec: self.spec.single_core(),
            partition_size: self.partition_size,
        }
    }

    /// Builder-style: set the number of key values per partition.
    pub fn with_partition_size(mut self, partition_size: u64) -> Self {
        assert!(partition_size > 0, "partition size must be positive");
        self.partition_size = partition_size;
        self
    }

    /// The CPU specification.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Execute a bulk of transactions against the database and return the
    /// report. Transactions are executed functionally in timestamp order on
    /// the calling thread, so the final database state equals the sequential
    /// execution; each one is charged to its partition's core, or to the
    /// serial cross-partition phase when it has no partition key.
    pub fn execute_bulk(
        &self,
        db: &mut Database,
        registry: &ProcedureRegistry,
        bulk: &[TxnSignature],
    ) -> CpuBulkReport {
        let cores = self.spec.cores as usize;
        let mut core_busy = vec![0.0f64; cores];
        let mut cross_time = 0.0f64;
        let mut outcomes: Vec<(TxnId, TxnOutcome)> = Vec::with_capacity(bulk.len());

        let mut sorted: Vec<&TxnSignature> = bulk.iter().collect();
        sorted.sort_by_key(|s| s.id);

        for sig in sorted {
            let (trace, outcome, _) = registry.execute(sig, db);
            let seconds = trace_cpu_seconds(&trace, &self.spec) + CPU_DISPATCH_OVERHEAD_NS * 1e-9;
            match registry.partition_key(sig) {
                Some(key) => {
                    let partition = key / self.partition_size;
                    let core = (partition % cores as u64) as usize;
                    core_busy[core] += seconds;
                }
                None => {
                    // Cross-partition transactions run in a serial phase
                    // that stalls every worker (the simple H-Store
                    // approach).
                    cross_time += seconds;
                }
            }
            outcomes.push((sig.id, outcome));
        }
        db.apply_insert_buffers();

        let slowest = core_busy.iter().copied().fold(0.0f64, f64::max);
        let committed = outcomes.iter().filter(|(_, o)| o.is_committed()).count();
        CpuBulkReport {
            transactions: bulk.len(),
            elapsed: SimDuration::from_secs(slowest + cross_time),
            core_busy: core_busy.into_iter().map(SimDuration::from_secs).collect(),
            cross_partition_time: SimDuration::from_secs(cross_time),
            committed,
            aborted: bulk.len() - committed,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataItemId, DataType, Value};
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
                .insert(vec![Value::Int(i), Value::Double(0.0)]);
        }
        let mut reg = ProcedureRegistry::new();
        reg.register(ProcedureDef::new(
            "deposit",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let bal = ctx.read(t, row, 1).as_double();
                ctx.write(t, row, 1, Value::Double(bal + 1.0));
            },
        ));
        reg.register(ProcedureDef::new(
            "global_audit",
            move |_p, _| vec![BasicOp::read(DataItemId::new(t, 0, 1))],
            |_p| None,
            move |ctx| {
                ctx.read(t, 0, 1);
                ctx.compute_calls(8);
            },
        ));
        (db, reg)
    }

    fn bulk(n: u64, rows: u64) -> Vec<TxnSignature> {
        (0..n)
            .map(|i| TxnSignature::new(i, 0, vec![Value::Int((i % rows) as i64)]))
            .collect()
    }

    #[test]
    fn executes_correctly_and_balances_cores() {
        let (mut db, reg) = setup(64);
        let engine = CpuEngine::xeon_quad_core();
        let report = engine.execute_bulk(&mut db, &reg, &bulk(6400, 64));
        assert_eq!(report.committed, 6400);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.core_busy.len(), 4);
        assert!(report.core_busy.iter().all(|c| c.as_secs() > 0.0));
        assert_eq!(db.table_by_name("accounts").get(5, 1), Value::Double(100.0));
        assert!(report.throughput().tps() > 0.0);
    }

    #[test]
    fn quad_core_beats_single_core() {
        let (db0, reg) = setup(1024);
        let work = bulk(10_000, 1024);
        let quad = CpuEngine::xeon_quad_core();
        let single = quad.single_core();
        let mut db1 = db0.clone();
        let r_quad = quad.execute_bulk(&mut db1, &reg, &work);
        let mut db2 = db0.clone();
        let r_single = single.execute_bulk(&mut db2, &reg, &work);
        assert!(db1 == db2, "timing model must not change results");
        assert!(r_quad.elapsed < r_single.elapsed);
        // Near-linear scaling on a perfectly partitionable workload.
        let speedup = r_single.elapsed.as_secs() / r_quad.elapsed.as_secs();
        assert!(speedup > 3.0, "speedup {speedup} should be close to 4");
    }

    #[test]
    fn cross_partition_transactions_serialize() {
        let (db0, reg) = setup(64);
        let mut single_partition = bulk(1000, 64);
        let quad = CpuEngine::xeon_quad_core();
        let mut db1 = db0.clone();
        let without = quad.execute_bulk(&mut db1, &reg, &single_partition);
        // Add 200 cross-partition audits.
        for i in 0..200 {
            single_partition.push(TxnSignature::new(10_000 + i, 1, vec![]));
        }
        let mut db2 = db0.clone();
        let with = quad.execute_bulk(&mut db2, &reg, &single_partition);
        assert!(with.cross_partition_time.as_secs() > 0.0);
        assert!(with.elapsed > without.elapsed);
    }

    #[test]
    fn matches_sequential_replay() {
        let (db0, reg) = setup(32);
        let work = bulk(500, 7);
        let mut serial = db0.clone();
        for sig in &work {
            reg.execute(sig, &mut serial);
        }
        serial.apply_insert_buffers();
        let mut db = db0.clone();
        CpuEngine::xeon_quad_core().execute_bulk(&mut db, &reg, &work);
        assert!(db == serial, "CPU engine must match the sequential replay");
    }
}
