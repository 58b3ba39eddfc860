//! # gputx-exec — host bulk execution
//!
//! GPUTx's bulk model exposes massive intra-bulk parallelism: the K-SET
//! strategy extracts waves of pairwise conflict-free transactions (§5.3) and
//! the PART strategy groups transactions into disjoint partitions (§5.2).
//! The simulated device (`gputx-sim`) models that parallelism; on the host,
//! an [`Executor`] runs the conflict-free sets and partition groups
//! functionally.
//!
//! Two implementations are provided:
//!
//! * [`SerialExecutor`] — the host loop every engine runs: one transaction
//!   after another, mutating the [`Database`](gputx_storage::Database) in
//!   place.
//! * [`ParallelExecutor`] — a measured alternative no engine selects. It
//!   splits the work across `std::thread::scope` workers. Each worker owns one shard (a
//!   [`ShardDelta`](gputx_storage::ShardDelta) overlay over the shared base
//!   database, behind its own mutex — interior mutability per shard, no
//!   cross-shard aliasing) and the deltas are merged back in ascending shard
//!   order once every worker has joined (the commit-order merge).
//!
//! ## Determinism guarantee
//!
//! For inputs that satisfy the executor contracts (pairwise conflict-free
//! sets for [`Executor::run_conflict_free`], pairwise disjoint groups for
//! [`Executor::run_groups`]), the parallel executor produces exactly the same
//! transaction outcomes, thread traces and final database state as the serial
//! executor, for every thread count. The engines obtain those inputs from the
//! k-set computation (`gputx_txn::kset`) and the partition grouping, which the
//! paper proves conflict-free; the property tests in the workspace verify the
//! equivalence end-to-end on random TM1 and micro bulks.
//!
//! On a two-core host the parallel executor loses to the serial one on
//! every workload (it opens a thread scope per wave), so the engines run
//! [`SerialExecutor`]. The parallel executor stays as a standalone
//! [`Executor`] for the equivalence suites and the per-layer benchmark.
//!
//! ## Failure containment
//!
//! Both executor entry points are fallible: the parallel executor converts a
//! worker panic into a typed [`ExecError`] and fails the bulk *atomically*
//! (no shard delta is merged), instead of unwinding through the thread scope.
//!
//! ## Streaming mode
//!
//! The [`pipeline`] module adds the always-on streaming front-end:
//! [`PipelinedEngine`] accepts a continuous stream of `submit` calls into a
//! bounded admission queue, forms bulks adaptively (size or deadline) and
//! overlaps the grouping of bulk `N+1` with the execution of bulk `N` on
//! dedicated stage threads — the pipelining the paper uses to hide bulk
//! formation cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod parallel;
pub mod pipeline;

pub use executor::{
    run_txn, run_txn_planned, ExecError, ExecPolicy, ExecutedTxn, Executor, SerialExecutor,
};
pub use parallel::{partition_ranges, ParallelExecutor};
pub use pipeline::{
    BulkCloseCounts, BulkPlanner, BulkRunner, PipelineError, PipelineOptions, PipelineStats,
    PipelinedEngine, StageBusy, SubmitHandle, Ticket, TicketResult,
};
