//! The three bulk execution strategies (§5) and their shared machinery.
//!
//! All strategies execute the transaction logic *functionally* against the
//! in-memory database in an order that the concurrency-control argument proves
//! equivalent to the timestamp order (Definition 1), while recording one
//! [`ThreadTrace`](gputx_sim::ThreadTrace) per logical GPU thread. The traces are then replayed
//! through the simulated device's cost model to obtain kernel timings.

pub mod kset;
pub mod part;
pub mod tpl;

use crate::bulk::{Bulk, BulkReport};
use crate::config::EngineConfig;
use crate::error::EngineError;
use gputx_exec::{ExecPolicy, Executor, SerialExecutor};
use gputx_sim::{Gpu, SimDuration};
use gputx_storage::Database;
use gputx_txn::{AccessPlan, ProcedureRegistry, TxnId, TxnOutcome};
use serde::{Deserialize, Serialize};

/// Which execution strategy ran a bulk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Two-phase locking with counter-based spin locks (§5.1).
    Tpl,
    /// Partition-based execution, one thread per partition (§5.2).
    Part,
    /// Iterative 0-set execution (§5.3).
    Kset,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::Tpl => write!(f, "TPL"),
            StrategyKind::Part => write!(f, "PART"),
            StrategyKind::Kset => write!(f, "K-SET"),
        }
    }
}

/// Everything a strategy needs to execute a bulk.
pub struct ExecContext<'a> {
    /// The simulated GPU.
    pub gpu: &'a mut Gpu,
    /// The database (device resident; mutated by the execution).
    pub db: &'a mut Database,
    /// The registered transaction types.
    pub registry: &'a ProcedureRegistry,
    /// Engine configuration.
    pub config: &'a EngineConfig,
}

/// Outcome of executing one bulk with one strategy.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The strategy that was requested.
    pub strategy: StrategyKind,
    /// Number of transactions executed.
    pub transactions: usize,
    /// Bulk generation time (rank computation, sorting, grouping).
    pub generation: SimDuration,
    /// Kernel execution time.
    pub execution: SimDuration,
    /// Host↔device transfer time for inputs and results.
    pub transfer: SimDuration,
    /// Committed transaction count.
    pub committed: usize,
    /// Aborted transaction count.
    pub aborted: usize,
    /// Per-transaction outcomes.
    pub outcomes: Vec<(TxnId, TxnOutcome)>,
    /// True when PART detected cross-partition transactions and fell back to
    /// TPL for the whole bulk (§5.2).
    pub fell_back_to_tpl: bool,
}

impl StrategyOutcome {
    pub(crate) fn empty(strategy: StrategyKind) -> Self {
        StrategyOutcome {
            strategy,
            transactions: 0,
            generation: SimDuration::ZERO,
            execution: SimDuration::ZERO,
            transfer: SimDuration::ZERO,
            committed: 0,
            aborted: 0,
            outcomes: Vec::new(),
            fell_back_to_tpl: false,
        }
    }

    /// Total simulated time.
    pub fn total(&self) -> SimDuration {
        self.generation + self.execution + self.transfer
    }

    /// Convert into the engine-level bulk report.
    pub fn into_report(self) -> BulkReport {
        BulkReport {
            strategy: self.strategy,
            transactions: self.transactions,
            generation: self.generation,
            execution: self.execution,
            transfer: self.transfer,
            committed: self.committed,
            aborted: self.aborted,
            outcomes: self.outcomes,
        }
    }
}

/// The trace-accounting policy of the GPU strategies: undo logging as
/// configured (Appendix D), abort-rollback replay traffic always.
pub(crate) fn exec_policy(config: &EngineConfig) -> ExecPolicy {
    ExecPolicy::gpu(config.undo_logging)
}

/// Account for the PCIe transfers of one bulk: parameters in, results out
/// (Appendix F.2 / Figure 16: "input" and "output" components).
pub(crate) fn account_transfers(gpu: &mut Gpu, bulk: &Bulk) -> SimDuration {
    let input = gpu.transfer_to_device("bulk parameters", bulk.wire_bytes());
    // Result record: transaction id + status + a result value.
    let output = gpu.transfer_to_host("bulk results", 16 * bulk.len() as u64);
    input + output
}

/// Tally commit/abort counts from per-transaction outcomes.
pub(crate) fn tally(outcomes: &[(TxnId, TxnOutcome)]) -> (usize, usize) {
    let committed = outcomes.iter().filter(|(_, o)| o.is_committed()).count();
    (committed, outcomes.len() - committed)
}

/// Execute a bulk with the given strategy on a caller-supplied executor and
/// pre-built access plan, applying insert buffers afterwards (the batched
/// update of §3.2). The engines pass [`SerialExecutor`]; the equivalence
/// suites also pass `gputx_exec::ParallelExecutor` here, which runs K-SET
/// waves and PART partition groups on worker threads with bit-identical
/// results. TPL executes its host loop serially regardless (its
/// counter-based locks enforce a total timestamp order, leaving no host-side
/// parallelism to exploit).
///
/// A panicking procedure under the parallel executor surfaces as
/// [`EngineError`] instead of unwinding. On the executor's worker path the
/// failing wave/group-set makes no state change (no shard delta is merged);
/// earlier K-SET waves of the same bulk, and the inline serial fallback,
/// execute in place, so their effects remain (insert buffers are not applied
/// on failure either way). [`SerialExecutor`] never fails.
pub fn try_execute_bulk_planned(
    ctx: &mut ExecContext<'_>,
    strategy: StrategyKind,
    bulk: &Bulk,
    executor: &dyn Executor,
    access: Option<&AccessPlan>,
) -> Result<StrategyOutcome, EngineError> {
    let mut outcome = match strategy {
        StrategyKind::Tpl => tpl::run(ctx, bulk, access),
        StrategyKind::Part => part::run(ctx, bulk, executor, access)?,
        StrategyKind::Kset => kset::run(ctx, bulk, executor, access)?,
    };
    ctx.db.apply_insert_buffers();
    outcome.transfer += account_transfers(ctx.gpu, bulk);
    Ok(outcome)
}

/// Execute a bulk with the given strategy on the [`SerialExecutor`].
///
/// The gather step comes first: every planned procedure's index keys are
/// resolved to dense row ids once, against the database the bulk is about
/// to run on (index state is frozen for the duration of a bulk — buffered
/// inserts only reach the indexes when the insert buffers are applied — so
/// the plan is exact). Execution then performs zero index hash lookups for
/// planned transactions. The streaming pipeline builds this plan on its
/// grouping stage instead, overlapped with the previous bulk's execution.
pub fn execute_bulk(
    ctx: &mut ExecContext<'_>,
    strategy: StrategyKind,
    bulk: &Bulk,
) -> StrategyOutcome {
    let access = AccessPlan::build(ctx.registry, ctx.db, &bulk.txns);
    let access = (!access.is_empty()).then_some(access);
    try_execute_bulk_planned(ctx, strategy, bulk, &SerialExecutor, access.as_ref())
        .expect("the serial executor never fails")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kind_display() {
        assert_eq!(StrategyKind::Tpl.to_string(), "TPL");
        assert_eq!(StrategyKind::Part.to_string(), "PART");
        assert_eq!(StrategyKind::Kset.to_string(), "K-SET");
    }

    #[test]
    fn outcome_total_and_report_round_trip() {
        let mut o = StrategyOutcome::empty(StrategyKind::Kset);
        o.transactions = 10;
        o.generation = SimDuration::from_millis(1.0);
        o.execution = SimDuration::from_millis(2.0);
        o.transfer = SimDuration::from_millis(0.5);
        o.committed = 10;
        assert!((o.total().as_millis() - 3.5).abs() < 1e-9);
        let report = o.into_report();
        assert_eq!(report.transactions, 10);
        assert_eq!(report.committed, 10);
        assert!((report.total().as_millis() - 3.5).abs() < 1e-9);
    }
}
