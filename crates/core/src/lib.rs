//! # gputx-core — the GPUTx bulk transaction execution engine
//!
//! This crate implements the paper's primary contribution: an OLTP engine that
//! executes *bulks* of transactions on the (simulated) GPU.
//!
//! * [`config`] — engine configuration: device, bulk size, grouping passes,
//!   partition size, strategy-selection thresholds, logging policy.
//! * [`bulk`] — bulks and per-bulk execution reports (generation / execution /
//!   transfer time split, committed/aborted counts, throughput).
//! * [`profiler`] — the bulk profiler: computes the structural indicators of
//!   the T-dependency graph used for strategy selection (depth `d`, 0-set
//!   width `w0`, cross-partition count `c`; Appendix D).
//! * [`grouping`] — transaction-type grouping via multi-pass radix
//!   partitioning to minimize branch divergence (Appendix D, Figure 3/12).
//! * [`strategy`] — the three bulk execution strategies: TPL (two-phase
//!   locking with counter-based spin locks), PART (partition-based, one thread
//!   per partition) and K-SET (iterative 0-set execution) — §5.1–5.3.
//! * [`select`] — the rule-based strategy selection of Appendix D Algorithm 1.
//! * [`logging`] — undo-logging policy and recovery accounting (Appendix D).
//! * [`relaxed`] — the serializability-only variants without the timestamp
//!   constraint (Appendix G).
//! * [`pipeline`] — streaming execution: the [`pipeline::PipelinedGpuTx`]
//!   engine (continuous ingest, bulk formation overlapped with execution on
//!   stage threads) and the arrival/response-time simulation behind the
//!   response-time-vs-throughput figures (Figures 9 and 15).
//! * [`builder`] — the [`EngineBuilder`]: one fluent construction surface
//!   for the one-shot, pipelined and CPU engines, including the replication
//!   role (primary log shipping via `gputx-replication`) and the HTAP read
//!   path (bulk-boundary analytics snapshots via `gputx-analytics`).
//! * [`error`] — typed engine errors ([`EngineError`]).
//! * [`engine`] — the [`engine::GpuTxEngine`] facade: register procedures,
//!   load the database to the device, submit transactions, execute bulks and
//!   collect results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adaptive;
pub mod builder;
pub mod bulk;
mod commit;
pub mod config;
pub mod engine;
pub mod error;
pub mod grouping;
pub mod logging;
pub mod pipeline;
pub mod profiler;
pub mod relaxed;
pub mod select;
pub mod strategy;

pub use adaptive::{AdaptiveConfig, AdaptiveSelector, Decision, DecisionStats, StrategyScores};
pub use builder::EngineBuilder;
pub use bulk::{Bulk, BulkReport};
pub use config::{EngineConfig, PipelineConfig, StrategyChoice};
pub use engine::GpuTxEngine;
pub use error::EngineError;
pub use pipeline::PipelinedGpuTx;
pub use profiler::BulkProfile;
pub use select::choose_strategy;
pub use strategy::{execute_bulk, ExecContext, StrategyKind, StrategyOutcome};
