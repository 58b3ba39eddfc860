//! # gputx-analytics — the HTAP read path
//!
//! GPUTx commits whole *bulks* atomically, which makes the bulk boundary the
//! natural consistency point for analytics: between two bulks the database is
//! exactly "the committed prefix after N bulks", never a half-applied
//! transaction. This crate turns that observation into a concurrent read
//! path, following the Polynesia blueprint (arxiv 2103.00798, 2204.11275) of
//! isolating *update propagation* from *analytical execution*:
//!
//! * [`session`] — the [`AnalyticsSession`] an engine publishes committed
//!   bulk records into ([`EngineBuilder::analytics`] in `gputx-core` wires it
//!   to the group-commit point). Update propagation folds each record's
//!   net write-set straight into the store's column chunks — no second
//!   copy of the database, no replay.
//! * [`store`] — the chunked snapshot store behind the session: per-column
//!   `Arc`'d chunks that a record writes through `Arc::make_mut`, so a
//!   chunk is copied only while a held snapshot shares it, and a cut is a
//!   copy of the chunk pointers.
//! * [`snapshot`] — the [`SnapshotHandle`]: an immutable committed-prefix
//!   view made of shared chunks. Holding one never blocks the write path
//!   (the next write to a chunk it shares copies that chunk once); it stays
//!   readable after the engine shuts down or later snapshots supersede it.
//! * [`ops`] — a small scan/aggregate operator set (predicate scan,
//!   count/sum/group-by over the typed `get_i64`/`get_f64` accessors) over a
//!   [`ScanSource`] abstraction, so the same scan runs against a local
//!   snapshot or a replica's `snapshot_db()` (replica offload). Parallel
//!   scans partition fixed-size row blocks across threads with the
//!   executor's `partition_ranges` rule and reduce partials in block order,
//!   so every aggregate is bit-deterministic for every thread count.
//!
//! The consistency guarantee and its verification harness are documented in
//! `docs/htap.md`; `tests/htap_consistency.rs` asserts scans under load equal
//! a serial replay of the frozen committed prefix.
//!
//! [`EngineBuilder::analytics`]: https://docs.rs/gputx-core
//! [`AnalyticsSession`]: session::AnalyticsSession
//! [`SnapshotHandle`]: snapshot::SnapshotHandle
//! [`ScanSource`]: ops::ScanSource

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ops;
pub mod session;
pub mod snapshot;
pub mod store;

#[cfg(test)]
mod tests;

pub use ops::{
    count_rows, group_by_i64, sum_f64, sum_i64, GroupRow, Predicate, ScanOptions, ScanSource,
};
pub use session::{AnalyticsConfig, AnalyticsSession, AnalyticsStats};
pub use snapshot::SnapshotHandle;
