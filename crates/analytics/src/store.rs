//! The chunked copy-on-write snapshot store behind an analytics session.
//!
//! The store keeps one copy of the committed prefix: per table, each column
//! as a vector of `Arc`-shared chunks of `chunk_rows` values, plus chunked
//! live flags. Every [`SnapshotHandle`] cut from the store shares them.
//!
//! 1. [`SnapshotStore::apply`] folds one committed [`BulkLogRecord`] straight
//!    into the chunks at the engine's group-commit point. Appended rows go
//!    onto the tail chunks, column by column; field writes and delete flags
//!    go into their chunk through [`Arc::make_mut`], which copies a chunk
//!    only while a live snapshot still shares it.
//! 2. [`SnapshotStore::freeze`] copies the chunk pointers into a
//!    [`SnapshotHandle`]: `Arc` bumps, whatever the churn since the last cut.
//!
//! Inside one record, appended rows land first, then field writes, then
//! delete flags. Today no write or flag targets a row the same record
//! appends (buffered inserts have no `RowId` until applied); with this order
//! one that did would find its chunk in place.

use crate::session::AnalyticsStats;
use crate::snapshot::{ColChunk, FrozenTable, FrozenView, SnapshotHandle};
use gputx_durability::BulkLogRecord;
use gputx_storage::shard::Cell;
use gputx_storage::{DataType, Database, RowId, Table, Value};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Default rows per copy-on-write chunk (and per scan block).
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

/// Copy-on-write column chunks of the committed prefix. Owned by
/// [`AnalyticsSession`](crate::session::AnalyticsSession) behind a mutex;
/// exposed for direct use in tests and single-threaded tools.
#[derive(Debug)]
pub struct SnapshotStore {
    chunk_rows: usize,
    tables: Vec<FrozenTable>,
    /// Declared column types per table: the variant a new chunk starts as.
    types: Vec<Vec<DataType>>,
    last_lsn: Option<u64>,
    retained: Option<Vec<BulkLogRecord>>,
    stats: AnalyticsStats,
}

impl SnapshotStore {
    /// Build a store over a starting database state (bulk count zero).
    ///
    /// `retain_records` keeps a copy of every applied record so a verifier
    /// can replay the same committed prefix serially (see
    /// [`retained_records`](Self::retained_records)).
    pub fn new(seed: &Database, chunk_rows: usize, retain_records: bool) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let tables = (0..seed.num_tables() as u32).map(|t| seed.table(t));
        SnapshotStore {
            chunk_rows,
            types: tables
                .clone()
                .map(|tbl| tbl.schema().columns.iter().map(|c| c.data_type).collect())
                .collect(),
            tables: tables.map(|tbl| seed_table(tbl, chunk_rows)).collect(),
            last_lsn: None,
            retained: retain_records.then(Vec::new),
            stats: AnalyticsStats::default(),
        }
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Committed bulk records folded in so far.
    pub fn records_applied(&self) -> u64 {
        self.stats.records_applied
    }

    /// The LSN the *next* published record is expected to carry, used when
    /// the analytics session is the engine's only log consumer.
    pub fn next_lsn(&self) -> u64 {
        self.last_lsn.map_or(self.stats.records_applied, |l| l + 1)
    }

    /// Work counters.
    pub fn stats(&self) -> AnalyticsStats {
        self.stats.clone()
    }

    /// Copies of every record applied so far (requires `retain_records`).
    pub fn retained_records(&self) -> Vec<BulkLogRecord> {
        self.retained
            .as_ref()
            .expect("retain_records not enabled on this store")
            .clone()
    }

    /// Fold one committed bulk record into the chunks. Must be called in
    /// commit order — the engine's group-commit point guarantees that.
    pub fn apply(&mut self, record: &BulkLogRecord) {
        let t0 = Instant::now();
        let chunk_rows = self.chunk_rows;
        let mut touched = 0;
        record.write_set.for_each_table_inserts(|t, rows| {
            let (table, types) = (&mut self.tables[t as usize], &self.types[t as usize]);
            touched += append_rows(table, types, rows, chunk_rows);
        });
        record.write_set.for_each_field_write(|t, row, col, cell| {
            let (chunk, off) = split(row, chunk_rows);
            let chunk = &mut self.tables[t as usize].cols[col as usize][chunk];
            cow(chunk, &mut touched).set(off, cell);
        });
        record.write_set.for_each_delete_flag(|t, row, deleted| {
            let (chunk, off) = split(row, chunk_rows);
            cow(&mut self.tables[t as usize].live[chunk], &mut touched)[off] = !deleted;
        });
        if let Some(kept) = self.retained.as_mut() {
            kept.push(record.clone());
        }
        self.last_lsn = Some(record.lsn);
        self.stats.records_applied += 1;
        self.stats.chunks_rebuilt += touched;
        self.stats.apply_us += t0.elapsed().as_secs_f64() * 1e6;
    }

    /// Cut a consistent snapshot of the current committed prefix: a
    /// [`SnapshotHandle`] sharing every chunk by `Arc`.
    pub fn freeze(&mut self) -> SnapshotHandle {
        let t0 = Instant::now();
        let handle = SnapshotHandle::new(FrozenView {
            tables: self.tables.clone(),
            chunk_rows: self.chunk_rows,
            records_applied: self.stats.records_applied,
            last_lsn: self.last_lsn,
        });
        self.stats.snapshots += 1;
        self.stats.last_cut_us = t0.elapsed().as_secs_f64() * 1e6;
        handle
    }
}

/// Chunk one seed table column by column, through the typed getters.
fn seed_table(tbl: &Table, chunk_rows: usize) -> FrozenTable {
    let rows = tbl.num_rows();
    let ranges = || {
        (0..rows)
            .step_by(chunk_rows)
            .map(move |s| s..rows.min(s + chunk_rows))
    };
    FrozenTable {
        name: tbl.schema().name.clone(),
        rows,
        cols: (tbl.schema().columns.iter().enumerate())
            .map(|(c, def)| {
                ranges()
                    .map(|r| Arc::new(build_chunk(tbl, def.data_type, c, r)))
                    .collect()
            })
            .collect(),
        live: ranges()
            .map(|r| Arc::new(r.map(|row| !tbl.is_deleted(row as RowId)).collect()))
            .collect(),
    }
}

fn build_chunk(tbl: &Table, ty: DataType, col: usize, rows: Range<usize>) -> ColChunk {
    let rows = rows.map(|r| r as RowId);
    match ty {
        DataType::Int => ColChunk::Int(rows.map(|r| tbl.get_i64(r, col)).collect()),
        DataType::Double => ColChunk::Double(rows.map(|r| tbl.get_f64(r, col)).collect()),
        DataType::Str => ColChunk::Other(rows.map(|r| tbl.get(r, col)).collect()),
    }
}

/// Append one table's inserted rows onto its tail chunks, column by column,
/// taking each tail chunk once. Returns the chunks copied or started.
fn append_rows(
    table: &mut FrozenTable,
    types: &[DataType],
    rows: &[&[Value]],
    chunk_rows: usize,
) -> u64 {
    let mut touched = 0;
    let mut done = 0;
    while done < rows.len() {
        let at = table.rows + done;
        let new = done..rows.len().min(done + chunk_rows - at % chunk_rows);
        for (c, chunks) in table.cols.iter_mut().enumerate() {
            let (values, empty) = (rows[new.clone()].iter(), || ColChunk::empty(types[c]));
            tail(chunks, at, chunk_rows, empty, &mut touched)
                .extend(values.map(|row| &row[c]), chunk_rows);
        }
        let live = tail(&mut table.live, at, chunk_rows, Vec::new, &mut touched);
        extend_to(live, chunk_rows, std::iter::repeat(true).take(new.len()));
        done = new.end;
    }
    table.rows += rows.len();
    touched
}

/// The tail chunk that row `at` lands in, unshared: a new one from `empty`
/// when `at` starts a chunk, else the old tail, copied while a snapshot
/// shares it.
fn tail<'c, T: Clone>(
    chunks: &'c mut Vec<Arc<T>>,
    at: usize,
    chunk_rows: usize,
    empty: impl FnOnce() -> T,
    touched: &mut u64,
) -> &'c mut T {
    if at % chunk_rows == 0 {
        chunks.push(Arc::new(empty()));
        *touched += 1;
    }
    cow(chunks.last_mut().expect("a tail chunk"), touched)
}

/// [`Arc::make_mut`], counting the copy it makes while a snapshot shares
/// `chunk`.
fn cow<'c, T: Clone>(chunk: &'c mut Arc<T>, touched: &mut u64) -> &'c mut T {
    *touched += u64::from(Arc::strong_count(chunk) > 1);
    Arc::make_mut(chunk)
}

fn split(row: RowId, chunk_rows: usize) -> (usize, usize) {
    (row as usize / chunk_rows, row as usize % chunk_rows)
}

impl ColChunk {
    fn empty(ty: DataType) -> Self {
        match ty {
            DataType::Int => ColChunk::Int(Vec::new()),
            DataType::Double => ColChunk::Double(Vec::new()),
            DataType::Str => ColChunk::Other(Vec::new()),
        }
    }

    /// Append inserted values; `Int` widens into a `Double` column. A
    /// record's rows are read back from the engine's columns, so a numeric
    /// column never holds NULL here.
    fn extend<'v>(&mut self, values: impl Iterator<Item = &'v Value>, chunk_rows: usize) {
        match self {
            ColChunk::Int(v) => extend_to(v, chunk_rows, values.map(Value::as_int)),
            ColChunk::Double(v) => extend_to(v, chunk_rows, values.map(Value::as_double)),
            ColChunk::Other(v) => extend_to(v, chunk_rows, values.cloned()),
        }
    }

    /// Overwrite the value at `off` with a field write's final value, as the
    /// column layout's typed setters do.
    fn set(&mut self, off: usize, cell: &Cell) {
        match (self, cell) {
            (ColChunk::Int(v), Cell::I64(x)) => v[off] = *x,
            (ColChunk::Double(v), Cell::I64(x)) => v[off] = *x as f64,
            (ColChunk::Double(v), Cell::F64(x)) => v[off] = *x,
            (ColChunk::Other(v), Cell::Val(x)) => v[off] = x.clone(),
            (_, cell) => panic!("field write {cell:?} does not match its column's type"),
        }
    }
}

/// Append to a chunk, keeping room for exactly `chunk_rows` values so a
/// filled chunk (or a tail copied at any length) holds no slack.
fn extend_to<T>(chunk: &mut Vec<T>, chunk_rows: usize, values: impl Iterator<Item = T>) {
    chunk.reserve_exact(chunk_rows - chunk.len());
    chunk.extend(values);
}
