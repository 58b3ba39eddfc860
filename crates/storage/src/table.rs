//! The table abstraction: a schema plus data in either storage layout, with
//! an insert buffer and delete bitmap.
//!
//! GPUTx handles inserts by writing them into a temporary buffer that is
//! sufficiently large for the new data and applying them as a batched update
//! after the kernel execution (§3.2). Deletes are handled with a bitmap so
//! row ids stay stable within a bulk.

use crate::column_store::ColumnStore;
use crate::row_store::RowStore;
use crate::schema::{ColumnDef, TableSchema};
use crate::value::Value;
use crate::wire::{WireError, WireReader, WireWriter};
use serde::{Deserialize, Serialize};

/// Row identifier within a table.
pub type RowId = u64;

/// Which physical layout backs a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageLayout {
    /// Column-based (the GPUTx default).
    Column,
    /// Row-based (Appendix F.2 comparison).
    Row,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TableData {
    Column(ColumnStore),
    Row(RowStore),
}

/// Dirty-field tracking used by the durability subsystem: when enabled,
/// every committed-path mutation (field setters, delete-flag flips) records
/// which field it touched, so a bulk's physical redo write-set can be read
/// back after commit without instrumenting any execution path — serial
/// in-place execution, TPL, the CPU engine and the parallel executor's
/// commit-order merge all funnel through these setters.
///
/// Disabled (the default) this costs one predictable branch per setter.
/// Entries may repeat (each write pushes); consumers deduplicate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct DirtyLog {
    enabled: bool,
    /// `(row, col)` of every field written since the last drain.
    fields: Vec<(RowId, u32)>,
    /// Rows whose delete flag was flipped (either direction) since the last
    /// drain.
    flags: Vec<RowId>,
}

/// A table: schema + data + insert buffer + delete bitmap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: TableSchema,
    data: TableData,
    deleted: Vec<bool>,
    /// Buffered inserts tagged with the id (timestamp) of the inserting
    /// transaction, so the batched update can apply them in timestamp order
    /// regardless of the execution strategy's functional order.
    insert_buffer: Vec<(u64, Vec<Value>)>,
    /// Redo-capture bookkeeping; excluded from equality like the index
    /// mutation counters (it describes *how* the state was reached, not the
    /// state).
    dirty: DirtyLog,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.data == other.data
            && self.deleted == other.deleted
            && self.insert_buffer == other.insert_buffer
    }
}

impl Table {
    /// Create an empty table with the given layout.
    pub fn new(schema: TableSchema, layout: StorageLayout) -> Self {
        let data = match layout {
            StorageLayout::Column => TableData::Column(ColumnStore::new(&schema)),
            StorageLayout::Row => TableData::Row(RowStore::new(&schema)),
        };
        Table {
            schema,
            data,
            deleted: Vec::new(),
            insert_buffer: Vec::new(),
            dirty: DirtyLog::default(),
        }
    }

    /// Enable or disable dirty-field tracking, clearing any recorded marks.
    /// Enabled by the durability capture for the lifetime of a logged engine;
    /// freshly built and decoded tables start disabled.
    pub fn set_dirty_tracking(&mut self, enabled: bool) {
        self.dirty.enabled = enabled;
        self.dirty.fields.clear();
        self.dirty.flags.clear();
    }

    /// The recorded dirty marks since tracking was last enabled or cleared:
    /// `(written fields, flipped delete-flag rows)`, in mutation order,
    /// possibly with repeats (consumers deduplicate).
    pub fn dirty_marks(&self) -> (&[(RowId, u32)], &[RowId]) {
        (&self.dirty.fields, &self.dirty.flags)
    }

    /// Clear the recorded dirty marks, keeping the buffers' capacity (the
    /// durability capture drains marks once per bulk; retaining capacity
    /// keeps the commit path allocation-free after warm-up).
    pub fn clear_dirty(&mut self) {
        self.dirty.fields.clear();
        self.dirty.flags.clear();
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The storage layout in use.
    pub fn layout(&self) -> StorageLayout {
        match self.data {
            TableData::Column(_) => StorageLayout::Column,
            TableData::Row(_) => StorageLayout::Row,
        }
    }

    /// Number of rows, including deleted ones (row ids are never reused).
    pub fn num_rows(&self) -> usize {
        match &self.data {
            TableData::Column(c) => c.num_rows(),
            TableData::Row(r) => r.num_rows(),
        }
    }

    /// Number of live (non-deleted) rows.
    pub fn num_live_rows(&self) -> usize {
        self.num_rows() - self.deleted.iter().filter(|&&d| d).count()
    }

    /// Insert a row immediately (used for initial data loading) and return its
    /// row id.
    pub fn insert(&mut self, row: Vec<Value>) -> RowId {
        self.schema
            .validate_row(&row)
            .unwrap_or_else(|e| panic!("{e}"));
        let id = self.num_rows() as RowId;
        match &mut self.data {
            TableData::Column(c) => c.push_row(&row),
            TableData::Row(r) => r.push_row(&row),
        }
        self.deleted.push(false);
        id
    }

    /// Queue a row in the insert buffer (the in-kernel insert path of §3.2),
    /// tagged with the inserting transaction's id. The row becomes visible
    /// after [`Table::apply_insert_buffer`], which applies buffered rows in
    /// ascending tag order.
    pub fn buffered_insert(&mut self, tag: u64, row: Vec<Value>) {
        self.schema
            .validate_row(&row)
            .unwrap_or_else(|e| panic!("{e}"));
        self.insert_buffer.push((tag, row));
    }

    /// Queue an already-validated row in the insert buffer. Used by the shard
    /// merge, where every row was validated when it entered its shard's
    /// overlay; re-validating at merge time would double the cost of the
    /// parallel insert path.
    pub(crate) fn buffered_insert_prevalidated(&mut self, tag: u64, row: Vec<Value>) {
        debug_assert!(self.schema.validate_row(&row).is_ok());
        self.insert_buffer.push((tag, row));
    }

    /// Number of rows waiting in the insert buffer.
    pub fn pending_inserts(&self) -> usize {
        self.insert_buffer.len()
    }

    /// Apply the insert buffer as a batched update in ascending tag
    /// (timestamp) order, returning the row ids assigned to the buffered rows.
    pub fn apply_insert_buffer(&mut self) -> Vec<RowId> {
        self.take_insert_buffer().map(|r| self.insert(r)).collect()
    }

    /// Empty the insert buffer, yielding its rows in the ascending tag
    /// (timestamp) order [`Table::apply_insert_buffer`] applies them in.
    pub(crate) fn take_insert_buffer(&mut self) -> impl Iterator<Item = Vec<Value>> {
        let mut rows = std::mem::take(&mut self.insert_buffer);
        rows.sort_by_key(|(tag, _)| *tag);
        rows.into_iter().map(|(_, r)| r)
    }

    /// Discard the insert buffer (used when a bulk aborts before applying it).
    pub fn clear_insert_buffer(&mut self) {
        self.insert_buffer.clear();
    }

    /// Remove and return the most recently buffered insert (undo of a single
    /// transaction's insert during rollback).
    pub fn pop_last_buffered_insert(&mut self) -> Option<Vec<Value>> {
        self.insert_buffer.pop().map(|(_, row)| row)
    }

    /// Read one field.
    pub fn get(&self, row: RowId, col: usize) -> Value {
        match &self.data {
            TableData::Column(c) => c.get(row as usize, col),
            TableData::Row(r) => r.get(row as usize, col),
        }
    }

    /// Write one field.
    pub fn set(&mut self, row: RowId, col: usize, value: &Value) {
        if self.dirty.enabled {
            self.dirty.fields.push((row, col as u32));
        }
        match &mut self.data {
            TableData::Column(c) => c.set(row as usize, col, value),
            TableData::Row(r) => r.set(row as usize, col, value),
        }
    }

    /// Read one integer field without materializing a [`Value`]. The column
    /// layout reads the flat array directly; the row layout falls back
    /// through [`Value`] (it stores rows as value vectors anyway).
    #[inline]
    pub fn get_i64(&self, row: RowId, col: usize) -> i64 {
        match &self.data {
            TableData::Column(c) => c.get_i64(row as usize, col),
            TableData::Row(r) => r.get(row as usize, col).as_int(),
        }
    }

    /// Read one double field without materializing a [`Value`] (integer
    /// fields widen, mirroring [`Value::as_double`]).
    #[inline]
    pub fn get_f64(&self, row: RowId, col: usize) -> f64 {
        match &self.data {
            TableData::Column(c) => c.get_f64(row as usize, col),
            TableData::Row(r) => r.get(row as usize, col).as_double(),
        }
    }

    /// Write one integer field without materializing a [`Value`].
    #[inline]
    pub fn set_i64(&mut self, row: RowId, col: usize, value: i64) {
        if self.dirty.enabled {
            self.dirty.fields.push((row, col as u32));
        }
        match &mut self.data {
            TableData::Column(c) => c.set_i64(row as usize, col, value),
            TableData::Row(r) => r.set(row as usize, col, &Value::Int(value)),
        }
    }

    /// Write one double field without materializing a [`Value`].
    #[inline]
    pub fn set_f64(&mut self, row: RowId, col: usize, value: f64) {
        if self.dirty.enabled {
            self.dirty.fields.push((row, col as u32));
        }
        match &mut self.data {
            TableData::Column(c) => c.set_f64(row as usize, col, value),
            TableData::Row(r) => r.set(row as usize, col, &Value::Double(value)),
        }
    }

    /// Read a full row.
    pub fn get_row(&self, row: RowId) -> Vec<Value> {
        match &self.data {
            TableData::Column(c) => c.get_row(row as usize),
            TableData::Row(r) => r.get_row(row as usize),
        }
    }

    /// Mark a row deleted.
    pub fn delete(&mut self, row: RowId) {
        if self.dirty.enabled {
            self.dirty.flags.push(row);
        }
        self.deleted[row as usize] = true;
    }

    /// Un-delete a row (used by undo-log rollback).
    pub fn undelete(&mut self, row: RowId) {
        if self.dirty.enabled {
            self.dirty.flags.push(row);
        }
        self.deleted[row as usize] = false;
    }

    /// Whether a row is deleted.
    pub fn is_deleted(&self, row: RowId) -> bool {
        self.deleted[row as usize]
    }

    /// Iterate over live row ids.
    pub fn live_rows(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.num_rows() as RowId).filter(move |&r| !self.is_deleted(r))
    }

    /// Total host-memory bytes used by the table data.
    pub fn total_bytes(&self) -> u64 {
        match &self.data {
            TableData::Column(c) => c.total_bytes(),
            TableData::Row(r) => r.total_bytes(),
        }
    }

    /// Bytes that must reside in GPU device memory for this table.
    pub fn device_bytes(&self) -> u64 {
        match &self.data {
            TableData::Column(c) => c.device_bytes(&self.schema),
            TableData::Row(r) => r.device_bytes(),
        }
    }

    /// Encode the full table state (schema, data, delete bitmap, insert
    /// buffer) for checkpointing.
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        // Schema.
        w.put_str(&self.schema.name);
        w.put_len(self.schema.columns.len());
        for col in &self.schema.columns {
            w.put_str(&col.name);
            w.put_data_type(col.data_type);
            w.put_u8(col.device_resident as u8);
        }
        w.put_len(self.schema.primary_key.len());
        for &pk in &self.schema.primary_key {
            w.put_len(pk);
        }
        // Data.
        match &self.data {
            TableData::Column(c) => {
                w.put_u8(0);
                c.encode_into(w);
            }
            TableData::Row(r) => {
                w.put_u8(1);
                r.encode_into(w);
            }
        }
        // Delete bitmap.
        w.put_len(self.deleted.len());
        for &flag in &self.deleted {
            w.put_u8(flag as u8);
        }
        // Insert buffer (normally empty in a checkpoint: engines apply the
        // buffers at bulk commit, before any checkpoint can run).
        w.put_len(self.insert_buffer.len());
        for (tag, row) in &self.insert_buffer {
            w.put_u64(*tag);
            w.put_len(row.len());
            for v in row {
                w.put_value(v);
            }
        }
    }

    /// Decode a table encoded by [`Table::encode_into`].
    pub(crate) fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = r.get_str()?;
        let n_cols = r.get_len()?;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let col_name = r.get_str()?;
            let data_type = r.get_data_type()?;
            let device_resident = r.get_u8()? != 0;
            columns.push(ColumnDef {
                name: col_name,
                data_type,
                device_resident,
            });
        }
        let n_pk = r.get_len()?;
        let mut primary_key = Vec::with_capacity(n_pk);
        for _ in 0..n_pk {
            primary_key.push(r.get_len()?);
        }
        if primary_key.iter().any(|&pk| pk >= columns.len()) {
            return Err(WireError::Invalid(format!(
                "primary key out of range in table {name}"
            )));
        }
        let schema = TableSchema::new(name, columns, primary_key);
        let data = match r.get_u8()? {
            0 => TableData::Column(ColumnStore::decode(r)?),
            1 => TableData::Row(RowStore::decode(r, &schema)?),
            tag => return Err(WireError::Invalid(format!("unknown layout tag {tag}"))),
        };
        let n_deleted = r.get_len()?;
        let mut deleted = Vec::with_capacity(n_deleted);
        for _ in 0..n_deleted {
            deleted.push(r.get_u8()? != 0);
        }
        let rows = match &data {
            TableData::Column(c) => c.num_rows(),
            TableData::Row(rs) => rs.num_rows(),
        };
        if deleted.len() != rows {
            return Err(WireError::Invalid(format!(
                "delete bitmap covers {} rows, table {} holds {rows}",
                deleted.len(),
                schema.name
            )));
        }
        let n_buffered = r.get_len()?;
        let mut insert_buffer = Vec::with_capacity(n_buffered);
        for _ in 0..n_buffered {
            let tag = r.get_u64()?;
            let arity = r.get_len()?;
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(r.get_value()?);
            }
            schema.validate_row(&row).map_err(WireError::Invalid)?;
            insert_buffer.push((tag, row));
        }
        Ok(Table {
            schema,
            data,
            deleted,
            insert_buffer,
            dirty: DirtyLog::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
            ],
            vec![0],
        )
    }

    fn row(id: i64, bal: f64) -> Vec<Value> {
        vec![Value::Int(id), Value::Double(bal)]
    }

    #[test]
    fn insert_and_read_both_layouts() {
        for layout in [StorageLayout::Column, StorageLayout::Row] {
            let mut t = Table::new(schema(), layout);
            let r0 = t.insert(row(1, 10.0));
            let r1 = t.insert(row(2, 20.0));
            assert_eq!((r0, r1), (0, 1));
            assert_eq!(t.num_rows(), 2);
            assert_eq!(t.get(1, 1), Value::Double(20.0));
            t.set(0, 1, &Value::Double(11.0));
            assert_eq!(t.get(0, 1), Value::Double(11.0));
            assert_eq!(t.layout(), layout);
        }
    }

    #[test]
    fn insert_buffer_is_applied_as_a_batch_in_tag_order() {
        let mut t = Table::new(schema(), StorageLayout::Column);
        t.insert(row(1, 1.0));
        // Buffered out of timestamp order: the batch applies them sorted.
        t.buffered_insert(7, row(3, 3.0));
        t.buffered_insert(2, row(2, 2.0));
        assert_eq!(t.num_rows(), 1, "buffered rows are not visible yet");
        assert_eq!(t.pending_inserts(), 2);
        let ids = t.apply_insert_buffer();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.pending_inserts(), 0);
        assert_eq!(t.get(1, 0), Value::Int(2), "lower tag applied first");
        assert_eq!(t.get(2, 0), Value::Int(3));
    }

    #[test]
    fn clear_insert_buffer_discards_rows() {
        let mut t = Table::new(schema(), StorageLayout::Column);
        t.buffered_insert(0, row(1, 1.0));
        t.clear_insert_buffer();
        assert_eq!(t.apply_insert_buffer(), Vec::<RowId>::new());
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn delete_bitmap_and_live_rows() {
        let mut t = Table::new(schema(), StorageLayout::Column);
        for i in 0..5 {
            t.insert(row(i, 0.0));
        }
        t.delete(1);
        t.delete(3);
        assert!(t.is_deleted(1));
        assert_eq!(t.num_live_rows(), 3);
        let live: Vec<RowId> = t.live_rows().collect();
        assert_eq!(live, vec![0, 2, 4]);
        t.undelete(1);
        assert_eq!(t.num_live_rows(), 4);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(schema(), StorageLayout::Column);
        t.insert(vec![Value::Int(1)]);
    }

    #[test]
    fn dirty_tracking_records_setters_and_flag_flips_only_when_enabled() {
        let mut t = Table::new(schema(), StorageLayout::Column);
        for i in 0..3 {
            t.insert(row(i, 0.0));
        }
        // Disabled (the default): nothing is recorded.
        t.set(0, 1, &Value::Double(1.0));
        t.delete(1);
        assert_eq!(t.dirty_marks(), (&[][..], &[][..]));
        // Enabled: every setter and flag flip pushes a mark, repeats and all.
        t.set_dirty_tracking(true);
        t.set(0, 1, &Value::Double(2.0));
        t.set_f64(0, 1, 3.0);
        t.set_i64(2, 0, 9);
        t.undelete(1);
        let (fields, flags) = t.dirty_marks();
        assert_eq!(fields, &[(0, 1), (0, 1), (2, 0)]);
        assert_eq!(flags, &[1]);
        // Clearing keeps tracking on; inserts are not field marks (the
        // capture derives them from the row-count delta instead).
        t.clear_dirty();
        t.insert(row(7, 7.0));
        assert_eq!(t.dirty_marks(), (&[][..], &[][..]));
        // The marks are bookkeeping, not state: equality ignores them.
        t.set(0, 1, &Value::Double(4.0));
        let mut other = t.clone();
        other.set_dirty_tracking(false);
        assert!(t == other);
    }
}
