//! Registered transaction types (stored procedures) and their execution.
//!
//! GPUTx only supports pre-defined transaction types; every type is registered
//! as a stored procedure and the registered procedures are combined into a
//! single kernel with a `switch` clause over the type id (§3.2). In this
//! reproduction a procedure is an ordinary Rust closure executed against the
//! in-memory database through a [`TxnCtx`], which:
//!
//! * performs the reads/writes/inserts/deletes,
//! * records the per-thread [`ThreadTrace`] fed to the GPU cost model,
//! * records undo information so aborted transactions roll back, and
//! * reports the outcome.
//!
//! A procedure also declares its *read/write set* (the basic operations it
//! will perform given its parameters) and its partitioning key. The paper
//! derives this information from primary-key accesses, tree-shaped schemas and
//! DBA annotations (Appendix B and E); here each workload provides it
//! explicitly as a function of the parameters.

use crate::access::{AccessPlan, PlanCursor, PlanProbe, PlannedMulti, PlannedUnique};
use crate::op::BasicOp;
use crate::signature::{TxnSignature, TxnTypeId};
use gputx_sim::ThreadTrace;
use gputx_storage::catalog::TableId;
use gputx_storage::index::IndexKey;
use gputx_storage::{Database, IndexId, IndexSet, RowId, StorageView, Value};
use std::fmt;
use std::sync::Arc;

/// Outcome of executing one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed.
    Committed,
    /// The transaction aborted (user abort or failed lookup); all its writes
    /// were rolled back.
    Aborted(String),
}

impl TxnOutcome {
    /// True when the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

/// Undo-log record for one change made by a transaction.
#[derive(Debug, Clone, PartialEq)]
enum UndoRecord {
    /// A field update: restore the old value.
    Update {
        table: TableId,
        row: RowId,
        col: usize,
        old: Value,
    },
    /// A delete: restore the prior deleted flag (a row can already be deleted
    /// when a transaction deletes it again; rollback must not resurrect it).
    Delete {
        table: TableId,
        row: RowId,
        was_deleted: bool,
    },
    /// A buffered insert: drop the last `count` rows from the table's insert
    /// buffer.
    BufferedInsert { table: TableId, count: usize },
}

/// Execution context handed to a stored procedure.
///
/// All data access goes through this context so that the engine can observe
/// (a) the memory traffic for the GPU cost model and (b) the undo information
/// for rollback. Storage access is routed through a [`StorageView`], so the
/// same procedure body runs unchanged against the database directly (serial
/// execution) or against a per-worker shard overlay (the parallel executor in
/// `gputx-exec`).
pub struct TxnCtx<'a> {
    db: &'a mut (dyn StorageView + 'a),
    params: &'a [Value],
    txn_id: u64,
    trace: ThreadTrace,
    undo: Vec<UndoRecord>,
    aborted: Option<String>,
    /// Extra compute cycles charged per `sinf`-style math call (micro benchmark).
    compute_per_call: u64,
    /// Pre-resolved index lookups of this transaction (the gather step),
    /// consumed in order by the `*_by` lookup methods. `None` when the
    /// transaction was not planned — every lookup then probes live.
    cursor: Option<PlanCursor<'a>>,
}

/// Cycles charged for one transcendental math call (`sinf` in the paper's
/// micro benchmark).
pub const SINF_CYCLES: u64 = 16;

impl<'a> TxnCtx<'a> {
    /// Create a context for one transaction execution. `txn_id` is the
    /// transaction's id/timestamp (used to tag buffered inserts so batched
    /// updates apply in timestamp order).
    pub fn new(
        db: &'a mut (dyn StorageView + 'a),
        params: &'a [Value],
        path: u32,
        txn_id: u64,
    ) -> Self {
        Self::with_cursor(db, params, path, txn_id, None, Vec::new())
    }

    /// Full constructor used by [`ProcedureRegistry::execute_planned`]: an
    /// optional pre-resolved lookup cursor plus a recycled undo buffer.
    fn with_cursor(
        db: &'a mut (dyn StorageView + 'a),
        params: &'a [Value],
        path: u32,
        txn_id: u64,
        cursor: Option<PlanCursor<'a>>,
        undo: Vec<UndoRecord>,
    ) -> Self {
        debug_assert!(undo.is_empty());
        TxnCtx {
            db,
            params,
            txn_id,
            trace: ThreadTrace::new(path),
            undo,
            aborted: None,
            compute_per_call: SINF_CYCLES,
            cursor,
        }
    }

    /// The executing transaction's id (timestamp).
    pub fn txn_id(&self) -> u64 {
        self.txn_id
    }

    /// The transaction's parameters. The returned slice borrows the
    /// signature, not the context, so key closures handed to
    /// [`TxnCtx::lookup_unique_by`] can capture it without freezing `self`.
    pub fn params(&self) -> &'a [Value] {
        self.params
    }

    /// Parameter `i` as an integer.
    pub fn param_int(&self, i: usize) -> i64 {
        self.params[i].as_int()
    }

    /// Parameter `i` as a double.
    pub fn param_double(&self, i: usize) -> f64 {
        self.params[i].as_double()
    }

    /// Parameter `i` as a string.
    pub fn param_str(&self, i: usize) -> &str {
        self.params[i].as_str()
    }

    /// Bytes a single field access moves through global memory. With the
    /// column layout neighbouring threads read adjacent 8-byte fields
    /// (coalesced); with the row layout each access drags the whole row in
    /// (Appendix F.2's locality argument).
    fn field_bytes(&self, table: TableId) -> u64 {
        let base = self.db.base();
        match base.layout() {
            gputx_storage::StorageLayout::Column => 8,
            gputx_storage::StorageLayout::Row => base.table(table).schema().row_width_bytes(),
        }
    }

    /// Read one field.
    pub fn read(&mut self, table: TableId, row: RowId, col: usize) -> Value {
        let bytes = self.field_bytes(table);
        self.trace.read(bytes);
        self.db.get_field(table, row, col)
    }

    /// Read one integer field without materializing a [`Value`] (the typed
    /// columnar fast path; identical trace accounting to [`TxnCtx::read`]).
    #[inline]
    pub fn read_i64(&mut self, table: TableId, row: RowId, col: usize) -> i64 {
        let bytes = self.field_bytes(table);
        self.trace.read(bytes);
        self.db.get_i64(table, row, col)
    }

    /// Read one double field without materializing a [`Value`] (integer
    /// columns widen, mirroring `read(..).as_double()`).
    #[inline]
    pub fn read_f64(&mut self, table: TableId, row: RowId, col: usize) -> f64 {
        let bytes = self.field_bytes(table);
        self.trace.read(bytes);
        self.db.get_f64(table, row, col)
    }

    /// Write one field (undo-logged).
    pub fn write(&mut self, table: TableId, row: RowId, col: usize, value: Value) {
        let old = self.db.get_field(table, row, col);
        self.undo.push(UndoRecord::Update {
            table,
            row,
            col,
            old,
        });
        let bytes = self.field_bytes(table);
        self.trace.write(bytes);
        self.db.set_field(table, row, col, &value);
    }

    /// Write one integer field (undo-logged; identical behaviour to
    /// [`TxnCtx::write`] with a `Value::Int`, including the widening store
    /// into double columns). The undo read goes through `get_field` so the
    /// undo record holds the column's own representation, exactly like
    /// [`TxnCtx::write`]; scalar `Value`s carry no heap allocation, so this
    /// costs one enum construct per write.
    #[inline]
    pub fn write_i64(&mut self, table: TableId, row: RowId, col: usize, value: i64) {
        let old = self.db.get_field(table, row, col);
        self.undo.push(UndoRecord::Update {
            table,
            row,
            col,
            old,
        });
        let bytes = self.field_bytes(table);
        self.trace.write(bytes);
        self.db.set_i64(table, row, col, value);
    }

    /// Write one double field (undo-logged; identical behaviour to
    /// [`TxnCtx::write`] with a `Value::Double` — see [`TxnCtx::write_i64`]
    /// for why the undo read uses `get_field`).
    #[inline]
    pub fn write_f64(&mut self, table: TableId, row: RowId, col: usize, value: f64) {
        let old = self.db.get_field(table, row, col);
        self.undo.push(UndoRecord::Update {
            table,
            row,
            col,
            old,
        });
        let bytes = self.field_bytes(table);
        self.trace.write(bytes);
        self.db.set_f64(table, row, col, value);
    }

    /// Look up a row through a unique index by interned handle.
    ///
    /// This is the plan-backed fast path: when the transaction carries an
    /// access plan, the pre-resolved row is returned and `key` is **never
    /// built** — no key allocation, no hashing, no probe. Without a plan (or
    /// for a stale plan entry) the closure supplies the key and the live
    /// index is probed. Trace accounting (one bucket-header read + one entry
    /// read) is identical either way, so planned and unplanned executions
    /// stay bit-identical.
    pub fn lookup_unique_by(
        &mut self,
        idx: IndexId,
        key: impl FnOnce() -> IndexKey,
    ) -> Option<RowId> {
        // Hash probe: bucket header + entry.
        self.trace.read(8);
        self.trace.read(16);
        if let Some(cursor) = &mut self.cursor {
            if let PlannedUnique::Resolved(row) = cursor.next_unique() {
                return row;
            }
        }
        self.db.base().lookup_unique_id(idx, &key())
    }

    /// Look up all rows matching a key through an index by interned handle;
    /// the multi-row counterpart of [`TxnCtx::lookup_unique_by`], with the
    /// same lazy key and identical trace accounting. The planned path returns the
    /// plan's row span *borrowed* (`Cow::Borrowed`, zero allocation; its
    /// lifetime comes from the plan, not from `self`, so the context stays
    /// usable); only the live-probe fallback allocates.
    pub fn lookup_by(
        &mut self,
        idx: IndexId,
        key: impl FnOnce() -> IndexKey,
    ) -> std::borrow::Cow<'a, [RowId]> {
        self.trace.read(8);
        let planned: Option<&'a [RowId]> = match &mut self.cursor {
            Some(cursor) => match cursor.next_multi() {
                PlannedMulti::Resolved(rows) => Some(rows),
                PlannedMulti::Probe => None,
            },
            None => None,
        };
        let rows: std::borrow::Cow<'a, [RowId]> = match planned {
            Some(rows) => std::borrow::Cow::Borrowed(rows),
            None => std::borrow::Cow::Owned(self.db.base().lookup_id(idx, &key()).to_vec()),
        };
        self.trace.read(16 * rows.len().max(1) as u64);
        rows
    }

    /// Insert a row through the table's insert buffer (§3.2): the row becomes
    /// visible when the engine applies the buffers after the bulk.
    pub fn insert(&mut self, table: TableId, row: Vec<Value>) {
        self.trace
            .write(self.db.base().table(table).schema().row_width_bytes());
        let tag = self.txn_id;
        self.db.buffer_insert(table, tag, row);
        self.undo
            .push(UndoRecord::BufferedInsert { table, count: 1 });
    }

    /// Delete a row (undo-logged).
    pub fn delete(&mut self, table: TableId, row: RowId) {
        self.trace.write(1);
        let was_deleted = self.db.is_row_deleted(table, row);
        self.db.mark_deleted(table, row);
        self.undo.push(UndoRecord::Delete {
            table,
            row,
            was_deleted,
        });
    }

    /// Charge `calls` transcendental math calls of compute (the micro
    /// benchmark's `sinf(100·x)` loop).
    pub fn compute_calls(&mut self, calls: u64) {
        self.trace.compute(calls * self.compute_per_call);
    }

    /// Charge raw compute cycles.
    pub fn compute_cycles(&mut self, cycles: u64) {
        self.trace.compute(cycles);
    }

    /// Abort the transaction; all changes made so far are rolled back after
    /// the procedure returns.
    pub fn abort(&mut self, reason: impl Into<String>) {
        if self.aborted.is_none() {
            self.aborted = Some(reason.into());
        }
    }

    /// Whether `abort` has been called.
    pub fn is_aborted(&self) -> bool {
        self.aborted.is_some()
    }

    /// Access to the base database for read-only helpers (e.g. row counts and
    /// schema queries). Field values must be read through [`TxnCtx::read`],
    /// which also observes the transaction's own uncommitted writes.
    pub fn db(&self) -> &Database {
        self.db.base()
    }

    fn rollback(&mut self) {
        // Undo in reverse order.
        while let Some(rec) = self.undo.pop() {
            match rec {
                UndoRecord::Update {
                    table,
                    row,
                    col,
                    old,
                } => self.db.set_field(table, row, col, &old),
                UndoRecord::Delete {
                    table,
                    row,
                    was_deleted,
                } => {
                    if was_deleted {
                        self.db.mark_deleted(table, row);
                    } else {
                        self.db.unmark_deleted(table, row);
                    }
                }
                UndoRecord::BufferedInsert { table, count } => {
                    // The buffered rows of this transaction are the most recent
                    // `count` entries of the table's insert buffer.
                    for _ in 0..count {
                        self.db
                            .pop_last_buffered_insert(table)
                            .expect("undo of buffered insert with empty buffer");
                    }
                }
            }
        }
    }

    /// Finish the execution: roll back if aborted, and return the trace,
    /// outcome, number of undo records written, and the (emptied) undo buffer
    /// for reuse by the next transaction.
    fn finish(mut self) -> (ThreadTrace, TxnOutcome, usize, Vec<UndoRecord>) {
        let undo_records = self.undo.len();
        let outcome = match self.aborted.take() {
            Some(reason) => {
                self.rollback();
                TxnOutcome::Aborted(reason)
            }
            None => TxnOutcome::Committed,
        };
        self.undo.clear();
        (self.trace, outcome, undo_records, self.undo)
    }
}

/// Reusable per-worker execution scratch: buffers that every transaction
/// needs but that would otherwise be reallocated per transaction (currently
/// the undo log). Executors keep one per worker thread and thread it through
/// [`ProcedureRegistry::execute_planned`], so a bulk of a million
/// transactions performs a handful of undo-log allocations instead of a
/// million.
#[derive(Debug, Default)]
pub struct TxnScratch {
    undo: Vec<UndoRecord>,
}

/// Callback computing a procedure's read/write set from its parameters. It
/// may resolve row ids through the indexes but never reads a field.
pub type ReadWriteSetFn = Arc<dyn Fn(&[Value], &IndexSet) -> Vec<BasicOp> + Send + Sync>;

/// Callback computing a procedure's partitioning key from its parameters;
/// `None` marks a cross-partition transaction.
pub type PartitionKeyFn = Arc<dyn Fn(&[Value]) -> Option<u64> + Send + Sync>;

/// Callback resolving a procedure's index lookups ahead of execution (the
/// gather step). Must issue the lookups through the [`PlanProbe`] in exactly
/// the order the procedure body consumes them; it may stop early on a miss
/// the body will abort on. See [`crate::access`].
pub type PlanAccessFn = Arc<dyn Fn(&[Value], &mut PlanProbe<'_>) + Send + Sync>;

/// A registered transaction type.
#[derive(Clone)]
pub struct ProcedureDef {
    /// Name of the stored procedure.
    pub name: String,
    /// Whether the procedure is *two-phase* in the H-Store sense (all reads
    /// and the abort decision happen before any write), which lets the engine
    /// skip undo logging for it (Appendix D, "Logging").
    pub two_phase: bool,
    /// Declared read/write set for a given parameter list; index lookups
    /// may resolve row ids. It may be evaluated against an [`IndexSet`]
    /// share that lags the live database, so it must not depend on what
    /// earlier bulks insert.
    pub read_write_set: ReadWriteSetFn,
    /// Partitioning key for a given parameter list; `None` marks a
    /// cross-partition transaction.
    pub partition_key: PartitionKeyFn,
    /// Optional gather-step callback: pre-resolves the procedure's index
    /// lookups into an [`AccessPlan`] during bulk grouping so the body
    /// executes without hash lookups. `None` keeps the probe-at-execution
    /// behaviour.
    pub plan_access: Option<PlanAccessFn>,
    /// The procedure body.
    pub execute: Arc<dyn Fn(&mut TxnCtx<'_>) + Send + Sync>,
}

impl fmt::Debug for ProcedureDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcedureDef")
            .field("name", &self.name)
            .field("two_phase", &self.two_phase)
            .finish_non_exhaustive()
    }
}

impl ProcedureDef {
    /// Create a procedure definition.
    pub fn new(
        name: impl Into<String>,
        read_write_set: impl Fn(&[Value], &IndexSet) -> Vec<BasicOp> + Send + Sync + 'static,
        partition_key: impl Fn(&[Value]) -> Option<u64> + Send + Sync + 'static,
        execute: impl Fn(&mut TxnCtx<'_>) + Send + Sync + 'static,
    ) -> Self {
        ProcedureDef {
            name: name.into(),
            two_phase: true,
            read_write_set: Arc::new(read_write_set),
            partition_key: Arc::new(partition_key),
            plan_access: None,
            execute: Arc::new(execute),
        }
    }

    /// Mark the procedure as not two-phase (it may abort after writing), which
    /// forces undo logging for conflicting types.
    pub fn not_two_phase(mut self) -> Self {
        self.two_phase = false;
        self
    }

    /// Attach the gather-step callback that pre-resolves this procedure's
    /// index lookups into an [`AccessPlan`] (see [`crate::access`]).
    pub fn with_plan_access(
        mut self,
        plan: impl Fn(&[Value], &mut PlanProbe<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.plan_access = Some(Arc::new(plan));
        self
    }
}

/// The registry of transaction types: the paper's combined kernel with a
/// `switch` clause over the type id.
#[derive(Debug, Clone, Default)]
pub struct ProcedureRegistry {
    procedures: Vec<ProcedureDef>,
}

impl ProcedureRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a transaction type ("add the stored procedure into the switch
    /// clause and recompile the kernel"). Returns its type id.
    pub fn register(&mut self, def: ProcedureDef) -> TxnTypeId {
        self.procedures.push(def);
        (self.procedures.len() - 1) as TxnTypeId
    }

    /// Number of registered types (`T`, the number of branches in the switch).
    pub fn num_types(&self) -> usize {
        self.procedures.len()
    }

    /// The definition of a type.
    pub fn get(&self, ty: TxnTypeId) -> &ProcedureDef {
        &self.procedures[ty as usize]
    }

    /// Declared read/write set of a signature, resolved against `indexes`:
    /// a [`Database`] or an [`IndexSet`] share.
    pub fn read_write_set(
        &self,
        sig: &TxnSignature,
        indexes: &impl AsRef<IndexSet>,
    ) -> Vec<BasicOp> {
        (self.get(sig.ty).read_write_set)(&sig.params, indexes.as_ref())
    }

    /// Partitioning key of a signature.
    pub fn partition_key(&self, sig: &TxnSignature) -> Option<u64> {
        (self.get(sig.ty).partition_key)(&sig.params)
    }

    /// Execute one transaction: the "switch clause" dispatch. Returns the
    /// thread trace (for the cost model), the outcome, and the number of undo
    /// records the transaction wrote before committing/aborting.
    ///
    /// `db` is any [`StorageView`]: pass `&mut Database` for serial in-place
    /// execution or a [`gputx_storage::ShardView`] for overlay execution on a
    /// worker thread.
    ///
    /// Convenience wrapper over [`ProcedureRegistry::execute_planned`] with
    /// no access plan and a throw-away scratch; hot loops should hold a
    /// [`TxnScratch`] and pass the bulk's [`AccessPlan`] instead.
    pub fn execute(
        &self,
        sig: &TxnSignature,
        db: &mut dyn StorageView,
    ) -> (ThreadTrace, TxnOutcome, usize) {
        self.execute_planned(sig, db, None, &mut TxnScratch::default())
    }

    /// Execute one transaction against an optional per-bulk [`AccessPlan`]
    /// (pre-resolved index lookups) with a reusable [`TxnScratch`].
    ///
    /// With a plan entry for `sig.id`, the procedure's `*_by` lookups return
    /// the pre-resolved rows and never touch an index hash table; without one
    /// (or for stale entries) they probe live. Outcomes, traces and undo
    /// behaviour are bit-identical either way.
    pub fn execute_planned(
        &self,
        sig: &TxnSignature,
        db: &mut dyn StorageView,
        plan: Option<&AccessPlan>,
        scratch: &mut TxnScratch,
    ) -> (ThreadTrace, TxnOutcome, usize) {
        let def = self.get(sig.ty);
        let cursor = plan.and_then(|p| p.cursor(sig.id));
        let undo = std::mem::take(&mut scratch.undo);
        let mut ctx = TxnCtx::with_cursor(db, &sig.params, sig.ty, sig.id, cursor, undo);
        (def.execute)(&mut ctx);
        let (trace, outcome, undo_records, undo_buf) = ctx.finish();
        scratch.undo = undo_buf;
        (trace, outcome, undo_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataType, StorageLayout};

    fn test_db() -> (Database, TableId) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
            ],
            vec![0],
        ));
        db.create_index(t, "pk", vec![0], true);
        for i in 0..4i64 {
            db.insert_indexed(t, vec![Value::Int(i), Value::Double(100.0)]);
        }
        (db, t)
    }

    fn transfer_proc(table: TableId) -> ProcedureDef {
        ProcedureDef::new(
            "transfer",
            move |params, _db| {
                let from = params[0].as_int() as u64;
                let to = params[1].as_int() as u64;
                vec![
                    BasicOp::write(gputx_storage::DataItemId::new(table, from, 1)),
                    BasicOp::write(gputx_storage::DataItemId::new(table, to, 1)),
                ]
            },
            |params| Some(params[0].as_int() as u64),
            move |ctx| {
                let from = ctx.param_int(0) as RowId;
                let to = ctx.param_int(1) as RowId;
                let amount = ctx.param_double(2);
                let from_bal = ctx.read(table, from, 1).as_double();
                if from_bal < amount {
                    ctx.abort("insufficient funds");
                    return;
                }
                let to_bal = ctx.read(table, to, 1).as_double();
                ctx.write(table, from, 1, Value::Double(from_bal - amount));
                ctx.write(table, to, 1, Value::Double(to_bal + amount));
            },
        )
    }

    #[test]
    fn committed_transaction_applies_writes_and_traces() {
        let (mut db, t) = test_db();
        let mut reg = ProcedureRegistry::new();
        let ty = reg.register(transfer_proc(t));
        let sig = TxnSignature::new(
            0,
            ty,
            vec![Value::Int(0), Value::Int(1), Value::Double(25.0)],
        );
        let (trace, outcome, undo) = reg.execute(&sig, &mut db);
        assert_eq!(outcome, TxnOutcome::Committed);
        assert_eq!(db.table(t).get(0, 1), Value::Double(75.0));
        assert_eq!(db.table(t).get(1, 1), Value::Double(125.0));
        assert_eq!(trace.global_reads, 2);
        assert_eq!(trace.global_writes, 2);
        assert_eq!(undo, 2);
        assert_eq!(trace.path, ty);
    }

    #[test]
    fn aborted_transaction_rolls_back() {
        let (mut db, t) = test_db();
        let before = db.clone();
        let mut reg = ProcedureRegistry::new();
        let ty = reg.register(transfer_proc(t));
        // Asking to move more money than row 0 has triggers an abort before
        // any write, so the database must be unchanged.
        let sig = TxnSignature::new(
            0,
            ty,
            vec![Value::Int(0), Value::Int(1), Value::Double(1e9)],
        );
        let (_, outcome, _) = reg.execute(&sig, &mut db);
        assert!(matches!(outcome, TxnOutcome::Aborted(_)));
        assert!(
            db == before,
            "abort before any write must leave the database unchanged"
        );
    }

    #[test]
    fn abort_after_write_restores_old_values() {
        let (mut db, t) = test_db();
        let before = db.clone();
        let mut reg = ProcedureRegistry::new();
        let ty = reg.register(
            ProcedureDef::new(
                "write_then_abort",
                move |_p, _d| vec![BasicOp::write(gputx_storage::DataItemId::new(t, 0, 1))],
                |_p| Some(0),
                move |ctx| {
                    ctx.write(t, 0, 1, Value::Double(-1.0));
                    ctx.delete(t, 2);
                    ctx.insert(t, vec![Value::Int(99), Value::Double(1.0)]);
                    ctx.abort("changed my mind");
                },
            )
            .not_two_phase(),
        );
        let sig = TxnSignature::new(0, ty, vec![]);
        let (_, outcome, _) = reg.execute(&sig, &mut db);
        assert!(matches!(outcome, TxnOutcome::Aborted(_)));
        assert!(db == before, "rollback must restore the database exactly");
        assert_eq!(db.table(t).pending_inserts(), 0);
        assert!(!db.table(t).is_deleted(2));
    }

    #[test]
    fn rollback_does_not_resurrect_previously_deleted_rows() {
        let (mut db, t) = test_db();
        // A delete committed by an earlier bulk.
        db.table_mut(t).delete(2);
        let mut reg = ProcedureRegistry::new();
        let ty = reg.register(
            ProcedureDef::new(
                "delete_again_then_abort",
                move |_p, _d| vec![BasicOp::write(gputx_storage::DataItemId::new(t, 2, 0))],
                |_p| Some(2),
                move |ctx| {
                    ctx.delete(t, 2);
                    ctx.abort("changed my mind");
                },
            )
            .not_two_phase(),
        );
        let sig = TxnSignature::new(0, ty, vec![]);
        let (_, outcome, _) = reg.execute(&sig, &mut db);
        assert!(!outcome.is_committed());
        assert!(
            db.table(t).is_deleted(2),
            "rollback must restore the prior deleted flag, not clear it"
        );
    }

    #[test]
    fn registry_dispatch_uses_type_ids() {
        let (mut db, t) = test_db();
        let mut reg = ProcedureRegistry::new();
        let noop = ProcedureDef::new(
            "noop",
            |_p, _d| vec![],
            |_p| None,
            |ctx| ctx.compute_calls(1),
        );
        let ty0 = reg.register(noop.clone());
        let ty1 = reg.register(transfer_proc(t));
        assert_eq!(reg.num_types(), 2);
        assert_eq!(reg.get(ty0).name, "noop");
        assert_eq!(reg.get(ty1).name, "transfer");
        let sig = TxnSignature::new(5, ty0, vec![]);
        let (trace, outcome, _) = reg.execute(&sig, &mut db);
        assert!(outcome.is_committed());
        assert_eq!(trace.compute_cycles, SINF_CYCLES);
        assert_eq!(reg.partition_key(&sig), None);
        assert!(reg.read_write_set(&sig, &db).is_empty());
    }

    #[test]
    fn lookup_helpers_charge_trace_reads() {
        let (mut db, t) = test_db();
        let pk = db.index_id(t, "pk").expect("index exists");
        let params = vec![Value::Int(2)];
        let mut ctx = TxnCtx::new(&mut db, &params, 0, 9);
        assert_eq!(ctx.txn_id(), 9);
        let row = ctx
            .lookup_unique_by(pk, || IndexKey::single(2i64))
            .expect("row exists");
        assert_eq!(row, 2);
        // Hash probe: bucket header (8) + entry (16).
        assert!(ctx.trace.global_reads >= 2);
        assert_eq!(ctx.param_int(0), 2);
    }

    #[test]
    fn unplanned_handle_lookups_probe_the_live_index() {
        // Without an access plan the handle API must fall back to a live
        // probe — same rows, same trace charges — so procedures behave
        // identically whether or not the bulk carried plans for them.
        let (mut db, t) = test_db();
        let pk = db.index_id(t, "pk").expect("index exists");
        let params = vec![Value::Int(2)];
        let mut ctx = TxnCtx::new(&mut db, &params, 0, 9);
        assert_eq!(ctx.lookup_unique_by(pk, || IndexKey::single(2i64)), Some(2));
        assert_eq!(ctx.lookup_unique_by(pk, || IndexKey::single(99i64)), None);
        let rows = ctx.lookup_by(pk, || IndexKey::single(3i64));
        assert_eq!(rows.as_ref(), &[3]);
        // Three probes: bucket header + entries each time.
        assert!(ctx.trace.global_reads >= 6);
    }

    #[test]
    fn typed_writes_widen_into_double_columns_like_the_value_path() {
        // Every typed accessor must behave exactly like its `Value` twin: the
        // same value, trace, undo count, state after the access and state
        // after rollback. `field_bytes` differs between layouts, so both run.
        // Column 0 is Int and column 1 is Double: `ReadF64(0)` is the widening
        // read and `WriteI64(1, _)` the widening store.
        #[derive(Debug, Clone, Copy)]
        enum Access {
            ReadI64(usize),
            ReadF64(usize),
            WriteI64(usize, i64),
            WriteF64(usize, f64),
        }
        /// Run one access (typed, or through its `Value` twin) on a copy of
        /// `db0`, then roll it back. Returns the value read, the state right
        /// after the access, the trace, the undo count and the rolled-back
        /// state.
        fn run(
            db0: &Database,
            t: TableId,
            access: Access,
            typed: bool,
        ) -> (Option<Value>, Database, ThreadTrace, usize, Database) {
            let mut db = db0.clone();
            let params: [Value; 0] = [];
            let mut ctx = TxnCtx::new(&mut db, &params, 0, 1);
            let row = 2;
            let read = match (access, typed) {
                (Access::ReadI64(col), true) => Some(Value::Int(ctx.read_i64(t, row, col))),
                (Access::ReadI64(col), false) => Some(Value::Int(ctx.read(t, row, col).as_int())),
                (Access::ReadF64(col), true) => Some(Value::Double(ctx.read_f64(t, row, col))),
                (Access::ReadF64(col), false) => {
                    Some(Value::Double(ctx.read(t, row, col).as_double()))
                }
                (Access::WriteI64(col, v), true) => {
                    ctx.write_i64(t, row, col, v);
                    None
                }
                (Access::WriteI64(col, v), false) => {
                    ctx.write(t, row, col, Value::Int(v));
                    None
                }
                (Access::WriteF64(col, v), true) => {
                    ctx.write_f64(t, row, col, v);
                    None
                }
                (Access::WriteF64(col, v), false) => {
                    ctx.write(t, row, col, Value::Double(v));
                    None
                }
            };
            let after_access = ctx.db().clone();
            ctx.abort("roll back");
            let (trace, outcome, undo, _) = ctx.finish();
            assert!(!outcome.is_committed());
            (read, after_access, trace, undo, db)
        }

        let cases = [
            Access::ReadI64(0),
            Access::ReadF64(0),
            Access::ReadF64(1),
            Access::WriteI64(0, 7),
            Access::WriteI64(1, 7),
            Access::WriteF64(1, 2.5),
        ];
        let (column_db, t) = test_db();
        for layout in [StorageLayout::Column, StorageLayout::Row] {
            let db0 = column_db.rebuilt_with_layout(layout);
            for access in cases {
                let (value, after, trace, undo, rolled_back) = run(&db0, t, access, true);
                let twin = run(&db0, t, access, false);
                let what = format!("{layout:?} {access:?}");
                assert_eq!(value, twin.0, "{what}: value read");
                assert!(after == twin.1, "{what}: state after the access");
                assert_eq!(trace, twin.2, "{what}: trace");
                assert_eq!(undo, twin.3, "{what}: undo count");
                assert!(rolled_back == twin.4, "{what}: state after rollback");
                assert!(rolled_back == db0, "{what}: rollback restores the original");
                let writes = matches!(access, Access::WriteI64(..) | Access::WriteF64(..));
                assert_eq!(after != db0, writes, "{what}: only writes change state");
            }
        }
    }

    #[test]
    fn planned_execution_is_bit_identical_to_unplanned() {
        let (db0, t) = test_db();
        let pk = db0.index_id(t, "pk").expect("index exists");
        let mut reg = ProcedureRegistry::new();
        let ty = reg.register(
            ProcedureDef::new(
                "planned_deposit",
                move |p, _| {
                    vec![BasicOp::write(gputx_storage::DataItemId::new(
                        t,
                        p[0].as_int() as u64,
                        1,
                    ))]
                },
                |p| Some(p[0].as_int() as u64),
                move |ctx| {
                    let p = ctx.params();
                    let Some(row) = ctx.lookup_unique_by(pk, || IndexKey::single(p[0].as_int()))
                    else {
                        ctx.abort("no such account");
                        return;
                    };
                    let bal = ctx.read_f64(t, row, 1);
                    ctx.write_f64(t, row, 1, bal + 1.0);
                },
            )
            .with_plan_access(move |p, probe| {
                probe.unique(pk, &IndexKey::single(p[0].as_int()));
            }),
        );
        let sigs: Vec<TxnSignature> = (0..6)
            .map(|i| TxnSignature::new(i, ty, vec![Value::Int((i % 4) as i64)]))
            .collect();
        // Unplanned (probe-at-execution) reference.
        let mut db_a = db0.clone();
        let mut out_a = Vec::new();
        for sig in &sigs {
            out_a.push(reg.execute(sig, &mut db_a));
        }
        // Planned: lookups resolved up front, zero probes during execution.
        let plan = AccessPlan::build(&reg, &db0, &sigs);
        assert_eq!(plan.num_entries(), sigs.len());
        let mut db_b = db0.clone();
        let mut scratch = TxnScratch::default();
        let mut out_b = Vec::new();
        for sig in &sigs {
            out_b.push(reg.execute_planned(sig, &mut db_b, Some(&plan), &mut scratch));
        }
        assert_eq!(out_a, out_b, "traces/outcomes/undo counts must match");
        assert!(db_a == db_b, "final state must match");
    }
}
