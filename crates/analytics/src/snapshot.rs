//! Immutable committed-prefix snapshots made of shared column chunks.
//!
//! A [`SnapshotHandle`] is cut at a bulk boundary by
//! [`SnapshotStore::freeze`](crate::store::SnapshotStore) and freezes the
//! state "after exactly N committed bulks". The handle owns nothing but
//! `Arc`s to fixed-size column chunks, so:
//!
//! * cutting it is O(number of chunks) pointer copies — the data itself is
//!   shared with the store and with other snapshots;
//! * holding it never blocks the write path: a later record that writes a
//!   shared chunk gives the store its own copy, and the snapshot keeps the
//!   old one alive;
//! * it stays valid after the engine, the session and the store are gone.

use gputx_storage::catalog::TableId;
use gputx_storage::{Database, RowId, Value};
use std::sync::Arc;

/// One fixed-size run of column values, typed by the column's declared
/// [`DataType`](gputx_storage::DataType) so scans hit dense `i64`/`f64`
/// vectors instead of boxed [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColChunk {
    /// Dense chunk of an `Int` column.
    Int(Vec<i64>),
    /// Dense chunk of a `Double` column.
    Double(Vec<f64>),
    /// Fallback representation for `Str` (and any future) columns.
    Other(Vec<Value>),
}

/// The frozen image of one table: its chunked columns plus chunked live
/// flags. The store's working copy, and what every snapshot cut from it
/// shares chunk by chunk.
#[derive(Debug, Clone)]
pub(crate) struct FrozenTable {
    /// Table name, for name-based lookup on the handle.
    pub name: String,
    /// Rows covered by the frozen image (committed rows at the cut).
    pub rows: usize,
    /// `cols[c][i]` = chunk `i` of column `c`.
    pub cols: Vec<Vec<Arc<ColChunk>>>,
    /// `live[i][r]` = liveness of row `i * chunk_rows + r`.
    pub live: Vec<Arc<Vec<bool>>>,
}

#[derive(Debug)]
pub(crate) struct FrozenView {
    pub tables: Vec<FrozenTable>,
    pub chunk_rows: usize,
    pub records_applied: u64,
    pub last_lsn: Option<u64>,
}

/// A consistent, immutable view of the database after exactly
/// [`records_applied`](SnapshotHandle::records_applied) committed bulks.
///
/// Cloning the handle is an `Arc` bump; all clones share the same frozen
/// chunks. The handle implements [`ScanSource`](crate::ops::ScanSource), so
/// every operator in [`ops`](crate::ops) runs against it directly.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    inner: Arc<FrozenView>,
}

impl SnapshotHandle {
    pub(crate) fn new(view: FrozenView) -> Self {
        SnapshotHandle {
            inner: Arc::new(view),
        }
    }

    /// Number of committed bulk records folded into this snapshot.
    pub fn records_applied(&self) -> u64 {
        self.inner.records_applied
    }

    /// LSN of the last bulk record folded in, if any bulk committed yet.
    pub fn last_lsn(&self) -> Option<u64> {
        self.inner.last_lsn
    }

    /// Number of tables in the snapshot.
    pub fn num_tables(&self) -> usize {
        self.inner.tables.len()
    }

    /// Resolve a table by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner
            .tables
            .iter()
            .position(|t| t.name == name)
            .map(|p| p as TableId)
    }

    /// Name of a table.
    pub fn table_name(&self, table: TableId) -> &str {
        &self.inner.tables[table as usize].name
    }

    /// Total rows (live and deleted) frozen for `table`.
    pub fn num_rows(&self, table: TableId) -> usize {
        self.inner.tables[table as usize].rows
    }

    /// Whether a frozen row is live (not deleted) in this snapshot.
    pub fn is_live(&self, table: TableId, row: RowId) -> bool {
        let (chunk, off) = self.split(row);
        self.inner.tables[table as usize].live[chunk][off]
    }

    /// Read an `Int` column without boxing. Panics if the column is not an
    /// `Int` column, mirroring the storage accessors.
    pub fn get_i64(&self, table: TableId, row: RowId, col: usize) -> i64 {
        let (chunk, off) = self.split(row);
        match &*self.inner.tables[table as usize].cols[col][chunk] {
            ColChunk::Int(v) => v[off],
            ColChunk::Double(_) | ColChunk::Other(_) => {
                panic!("get_i64 on non-Int column {col} of table {table}")
            }
        }
    }

    /// Read a numeric column as `f64`; `Int` values widen, like
    /// [`Value::as_double`](gputx_storage::Value::as_double).
    pub fn get_f64(&self, table: TableId, row: RowId, col: usize) -> f64 {
        let (chunk, off) = self.split(row);
        match &*self.inner.tables[table as usize].cols[col][chunk] {
            ColChunk::Double(v) => v[off],
            ColChunk::Int(v) => v[off] as f64,
            ColChunk::Other(_) => panic!("get_f64 on non-numeric column {col} of table {table}"),
        }
    }

    /// Read any column as a boxed [`Value`].
    pub fn get(&self, table: TableId, row: RowId, col: usize) -> Value {
        let (chunk, off) = self.split(row);
        match &*self.inner.tables[table as usize].cols[col][chunk] {
            ColChunk::Int(v) => Value::Int(v[off]),
            ColChunk::Double(v) => Value::Double(v[off]),
            ColChunk::Other(v) => v[off].clone(),
        }
    }

    /// Full-fidelity comparison against a reference database — every table,
    /// row, live flag and cell. Returns the first mismatch as an error
    /// string. The HTAP consistency harness replays the committed prefix
    /// serially and calls this to prove the snapshot is exactly that prefix.
    pub fn check_against(&self, db: &Database) -> Result<(), String> {
        if self.num_tables() != db.num_tables() {
            return Err(format!(
                "table count mismatch: snapshot {} vs reference {}",
                self.num_tables(),
                db.num_tables()
            ));
        }
        for t in 0..db.num_tables() as TableId {
            let tbl = db.table(t);
            let name = self.table_name(t);
            if name != tbl.schema().name {
                return Err(format!(
                    "table {t} name mismatch: snapshot {name:?} vs reference {:?}",
                    tbl.schema().name
                ));
            }
            if self.num_rows(t) != tbl.num_rows() {
                return Err(format!(
                    "table {name}: row count mismatch: snapshot {} vs reference {}",
                    self.num_rows(t),
                    tbl.num_rows()
                ));
            }
            let cols = tbl.schema().num_columns();
            if self.inner.tables[t as usize].cols.len() != cols {
                return Err(format!(
                    "table {name}: column count mismatch: snapshot {} vs reference {cols}",
                    self.inner.tables[t as usize].cols.len()
                ));
            }
            for row in 0..tbl.num_rows() as RowId {
                if self.is_live(t, row) == tbl.is_deleted(row) {
                    return Err(format!(
                        "table {name} row {row}: live flag mismatch: snapshot {} vs reference {}",
                        self.is_live(t, row),
                        !tbl.is_deleted(row)
                    ));
                }
                for col in 0..cols {
                    let ours = self.get(t, row, col);
                    let theirs = tbl.get(row, col);
                    if ours != theirs {
                        return Err(format!(
                            "table {name} row {row} col {col}: {ours:?} vs reference {theirs:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn split(&self, row: RowId) -> (usize, usize) {
        let row = row as usize;
        (row / self.inner.chunk_rows, row % self.inner.chunk_rows)
    }
}
