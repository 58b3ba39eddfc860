//! # gputx-storage — in-memory storage for the GPUTx reproduction
//!
//! GPUTx keeps the working database resident in GPU device memory as arrays
//! (§3.2). This crate implements the storage substrate:
//!
//! * [`value`] — typed values and column data types.
//! * [`schema`] — table schemas and column metadata.
//! * [`column_store`] — the paper's column-based layout: fixed-length columns
//!   as flat arrays, variable-length columns as (offset, length) into a byte
//!   heap (Appendix E, "Implementation").
//! * [`row_store`] — the row-based alternative used for the storage-layout
//!   comparison in Appendix F.2.
//! * [`table`] — a unified table API over either layout, with the temporary
//!   insert buffer that is applied as a batched update after kernel execution
//!   (§3.2) and a delete bitmap.
//! * [`index`] — hash indexes for primary-key and secondary lookups.
//! * [`partition`] — partitioning maps used by the PART strategy and by the
//!   CPU (H-Store-style) engine.
//! * [`view`] — the [`StorageView`] seam all transaction execution goes
//!   through: the serial path mutates the [`Database`] in place, the parallel
//!   executor layers per-worker overlays over a shared base.
//! * [`shard`] — per-worker write overlays ([`shard::ShardDelta`] /
//!   [`shard::ShardView`]) and the commit-order merge used by `gputx-exec`.
//! * [`catalog`] — the database catalog: named tables, indexes and device
//!   residency accounting.
//! * [`item`] — compact identifiers for individual data fields, the
//!   granularity at which GPUTx detects conflicts (§3.2, §4.1).
//! * [`wire`] — binary (de)serialization primitives: the typed-cell codec for
//!   [`ShardDelta`] redo payloads and whole-[`Database`] checkpoint
//!   snapshots used by the durability subsystem (`gputx-durability`).

// `deny` instead of `forbid`: the column store's string heap read opts out
// locally (one `from_utf8_unchecked` whose validity is established at write
// time); everything else stays safe code.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod column_store;
pub mod index;
pub mod item;
pub mod partition;
pub mod row_store;
pub mod schema;
pub mod shard;
pub mod table;
pub mod value;
pub mod view;
pub mod wire;

pub use catalog::{Database, IndexId, IndexSet};
pub use item::DataItemId;
pub use schema::{ColumnDef, TableSchema};
pub use shard::{ShardDelta, ShardView};
pub use table::{RowId, StorageLayout, Table};
pub use value::{DataType, Value};
pub use view::StorageView;
pub use wire::{WireError, WireReader, WireWriter};
