//! # gputx-durability — bulk-granular redo logging, checkpoints, recovery
//!
//! GPUTx commits an entire *bulk* of transactions atomically (§3.2 of the
//! paper), which makes redo-only, group-commit logging at bulk boundaries the
//! natural durability design: one log record per bulk, carrying the bulk's
//! *net* typed write-set, appended and fsynced once per bulk instead of once
//! per transaction. This crate implements that design:
//!
//! * [`capture`] — assembles a committed bulk's redo write-set (a
//!   [`ShardDelta`](gputx_storage::shard::ShardDelta), the same dense typed-cell
//!   container the parallel executor uses) by reading the storage layer's
//!   dirty-field marks back out of the committed database state.
//! * [`wal`] — the write-ahead log: length+CRC framed [`BulkLogRecord`]s with
//!   a group-commit [`WalWriter`] whose [`FsyncPolicy`] trades durability
//!   latency for throughput (`PerBulk`, `EveryN`, `Async`).
//! * [`checkpoint`] — whole-database snapshots written atomically
//!   (temp file + fsync + rename) that truncate the log.
//! * [`manager`] — the engine-facing [`Durability`] handle
//!   ([`DurabilityConfig`] lives in `gputx-core`'s `EngineConfig`) and
//!   [`recover`], which rebuilds a [`Database`](gputx_storage::Database)
//!   bit-identical to the committed-prefix state, dropping a torn tail.
//!
//! The recovery invariants — why replaying these records reproduces the
//! pre-crash state exactly — are documented in `docs/durability.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod capture;
pub mod checkpoint;
pub mod manager;
pub mod wal;

#[cfg(test)]
mod test_dir;

pub use capture::WriteCapture;
pub use checkpoint::{read_checkpoint, write_checkpoint, Checkpoint};
pub use manager::{
    fresh_epoch, recover, recover_from, Durability, DurabilityConfig, DurabilityStats, Recovery,
};
pub use wal::{read_wal, BulkLogRecord, FsyncPolicy, WalScan, WalWriter};
