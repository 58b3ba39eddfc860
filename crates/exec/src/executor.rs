//! The [`Executor`] trait, the serial reference implementation and the
//! per-transaction runner shared by every execution path.

use gputx_sim::ThreadTrace;
use gputx_storage::{Database, StorageView};
use gputx_txn::{AccessPlan, ProcedureRegistry, TxnId, TxnOutcome, TxnScratch, TxnSignature};

/// Trace-accounting policy applied on top of the functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Charge undo-log writes for transaction types that are not two-phase
    /// (Appendix D, "Logging").
    pub undo_logging: bool,
    /// Charge the log-replay traffic of rolling an aborted transaction back
    /// in place. The GPU strategies model this; the CPU engine does not.
    pub rollback_traffic: bool,
}

impl ExecPolicy {
    /// The GPU engine's policy: rollback traffic always, undo logging as
    /// configured.
    pub fn gpu(undo_logging: bool) -> Self {
        ExecPolicy {
            undo_logging,
            rollback_traffic: true,
        }
    }

    /// The CPU engine's policy: functional execution only, no extra traffic.
    pub fn functional() -> Self {
        ExecPolicy::default()
    }
}

/// Typed failure of a bulk execution.
///
/// The multi-threaded executor turns worker panics into this error instead of
/// unwinding through `std::thread::scope`: a panicking stored procedure fails
/// the *whole bulk* deterministically and the caller decides whether to
/// retry, skip or surface the failure. When the bulk ran on worker shards,
/// no shard delta is merged and the base database is left exactly as it was
/// before the bulk; when the bulk was small enough for the inline serial
/// fallback, it executed in place, so transactions that ran before the panic
/// remain applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread panicked while executing its shard. `shard` is the
    /// lowest-indexed shard that panicked (ties resolved deterministically),
    /// `message` the stringified panic payload.
    WorkerPanicked {
        /// Index of the failing shard.
        shard: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// The durability layer failed to persist the bulk's redo record (disk
    /// full, I/O error). The bulk's *functional* effects were applied before
    /// the append was attempted; callers fail the bulk's completion handles
    /// so no client mistakes the bulk for durable.
    LogAppendFailed {
        /// Stringified I/O error from the write-ahead log.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanicked { shard, message } => {
                write!(f, "executor worker for shard {shard} panicked: {message}")
            }
            ExecError::LogAppendFailed { message } => {
                write!(f, "durability log append failed: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// One executed transaction: its id, outcome and the thread trace fed to the
/// cost models.
#[derive(Debug, Clone)]
pub struct ExecutedTxn {
    /// The transaction id (timestamp).
    pub id: TxnId,
    /// Commit or abort.
    pub outcome: TxnOutcome,
    /// The recorded memory/compute trace.
    pub trace: ThreadTrace,
}

/// Execute one transaction against a storage view, applying the policy's
/// trace accounting. Convenience wrapper over [`run_txn_planned`] with no
/// access plan and a throw-away scratch — fine for one-off execution; bulk
/// loops should call [`run_txn_planned`] with a per-worker [`TxnScratch`].
pub fn run_txn(
    view: &mut dyn StorageView,
    registry: &ProcedureRegistry,
    policy: &ExecPolicy,
    sig: &TxnSignature,
) -> ExecutedTxn {
    run_txn_planned(
        view,
        registry,
        policy,
        sig,
        None,
        &mut TxnScratch::default(),
    )
}

/// Execute one transaction against a storage view, applying the policy's
/// trace accounting. This is the single per-transaction code path shared by
/// the serial and parallel executors (and by the GPU strategies' serial TPL
/// loop), so every path produces identical traces and outcomes.
///
/// `plan` carries the bulk's pre-resolved index lookups (the gather step);
/// `scratch` is the per-worker buffer pool that keeps undo-log allocations
/// off the per-transaction path.
pub fn run_txn_planned(
    view: &mut dyn StorageView,
    registry: &ProcedureRegistry,
    policy: &ExecPolicy,
    sig: &TxnSignature,
    plan: Option<&AccessPlan>,
    scratch: &mut TxnScratch,
) -> ExecutedTxn {
    let (mut trace, outcome, undo_records) = registry.execute_planned(sig, view, plan, scratch);
    let def = registry.get(sig.ty);
    if policy.undo_logging && !def.two_phase && undo_records > 0 {
        // Writing the undo log into device memory: old value + item id per record.
        trace.write(24 * undo_records as u64);
    }
    if policy.rollback_traffic && !outcome.is_committed() && undo_records > 0 {
        // Log-based recovery replays the undo records (roll back in place).
        trace.read(24 * undo_records as u64);
        trace.write(8 * undo_records as u64);
    }
    ExecutedTxn {
        id: sig.id,
        outcome,
        trace,
    }
}

/// Executes conflict-free transaction sets and disjoint transaction groups.
///
/// The contracts callers must uphold:
///
/// * [`Executor::run_conflict_free`] — the transactions are pairwise
///   conflict-free (a 0-set, Property 1 of the paper).
/// * [`Executor::run_groups`] — transactions in different groups are pairwise
///   conflict-free; transactions within one group may conflict and are
///   executed serially in the order given (the engines pass timestamp order).
///
/// Under these contracts every implementation returns identical outcomes,
/// traces and final database state.
///
/// Both methods are fallible: the parallel executor reports panicking
/// procedures as [`ExecError::WorkerPanicked`] on its worker path *and* on
/// its inline serial fallback (see [`ExecError`] for what state each leaves
/// behind); the serial executor never fails (a panicking procedure unwinds
/// through the caller, exactly as it always did).
pub trait Executor: std::fmt::Debug + Send + Sync {
    /// Execute disjoint groups; within a group, transactions run serially in
    /// the order given. Returns one result vector per group, in group order.
    ///
    /// `plan` carries the bulk's pre-resolved index lookups (`None` executes
    /// with live probes — bit-identical, just slower).
    fn run_groups(
        &self,
        db: &mut Database,
        registry: &ProcedureRegistry,
        policy: &ExecPolicy,
        groups: &[Vec<&TxnSignature>],
        plan: Option<&AccessPlan>,
    ) -> Result<Vec<Vec<ExecutedTxn>>, ExecError>;

    /// Execute a pairwise conflict-free set; results come back in input
    /// order.
    fn run_conflict_free(
        &self,
        db: &mut Database,
        registry: &ProcedureRegistry,
        policy: &ExecPolicy,
        txns: &[&TxnSignature],
        plan: Option<&AccessPlan>,
    ) -> Result<Vec<ExecutedTxn>, ExecError> {
        let groups: Vec<Vec<&TxnSignature>> = txns.iter().map(|sig| vec![*sig]).collect();
        Ok(self
            .run_groups(db, registry, policy, &groups, plan)?
            .into_iter()
            .flatten()
            .collect())
    }
}

/// The serial reference executor: one transaction after another on the
/// calling thread, mutating the database in place.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn run_groups(
        &self,
        db: &mut Database,
        registry: &ProcedureRegistry,
        policy: &ExecPolicy,
        groups: &[Vec<&TxnSignature>],
        plan: Option<&AccessPlan>,
    ) -> Result<Vec<Vec<ExecutedTxn>>, ExecError> {
        let mut scratch = TxnScratch::default();
        Ok(groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|sig| run_txn_planned(db, registry, policy, sig, plan, &mut scratch))
                    .collect()
            })
            .collect())
    }

    fn run_conflict_free(
        &self,
        db: &mut Database,
        registry: &ProcedureRegistry,
        policy: &ExecPolicy,
        txns: &[&TxnSignature],
        plan: Option<&AccessPlan>,
    ) -> Result<Vec<ExecutedTxn>, ExecError> {
        let mut scratch = TxnScratch::default();
        Ok(txns
            .iter()
            .map(|sig| run_txn_planned(db, registry, policy, sig, plan, &mut scratch))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataItemId, DataType, Value};
    use gputx_txn::{BasicOp, ProcedureDef};

    fn counter_db(rows: i64) -> (Database, ProcedureRegistry) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "counters",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("value", DataType::Int),
            ],
            vec![0],
        ));
        for i in 0..rows {
            db.table_mut(t).insert(vec![Value::Int(i), Value::Int(0)]);
        }
        let mut reg = ProcedureRegistry::new();
        reg.register(ProcedureDef::new(
            "increment",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let v = ctx.read(t, row, 1).as_int();
                ctx.write(t, row, 1, Value::Int(v + 1));
            },
        ));
        (db, reg)
    }

    #[test]
    fn serial_executor_runs_groups_in_order() {
        let (mut db, reg) = counter_db(4);
        let sigs: Vec<TxnSignature> = (0..8)
            .map(|i| TxnSignature::new(i, 0, vec![Value::Int((i % 4) as i64)]))
            .collect();
        let groups: Vec<Vec<&TxnSignature>> = (0..4)
            .map(|p| sigs.iter().filter(|s| s.id % 4 == p).collect())
            .collect();
        let out = SerialExecutor
            .run_groups(&mut db, &reg, &ExecPolicy::functional(), &groups, None)
            .expect("serial execution is infallible");
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|g| g.len() == 2));
        assert!(out
            .iter()
            .flatten()
            .all(|e| e.outcome.is_committed() && e.trace.global_writes == 1));
        for row in 0..4 {
            assert_eq!(db.table_by_name("counters").get(row, 1), Value::Int(2));
        }
    }

    #[test]
    fn policy_charges_rollback_traffic_only_when_asked() {
        let (mut db, reg) = counter_db(2);
        let mut reg = reg;
        let t = 0u32; // table id of "counters"
        let aborting = reg.register(
            ProcedureDef::new(
                "write_then_abort",
                move |_p, _| vec![BasicOp::write(DataItemId::new(t, 0, 1))],
                |_p| Some(0),
                move |ctx| {
                    ctx.write(0, 0, 1, Value::Int(9));
                    ctx.abort("nope");
                },
            )
            .not_two_phase(),
        );
        let sig = TxnSignature::new(0, aborting, vec![]);
        let quiet = run_txn(&mut db, &reg, &ExecPolicy::functional(), &sig);
        let gpu = run_txn(&mut db, &reg, &ExecPolicy::gpu(true), &sig);
        assert!(!quiet.outcome.is_committed());
        assert!(gpu.trace.write_bytes > quiet.trace.write_bytes);
        assert!(gpu.trace.read_bytes > quiet.trace.read_bytes);
    }
}
