//! Sharded write overlays for multi-threaded bulk execution.
//!
//! The parallel executor (`gputx-exec`) splits a conflict-free transaction
//! set across worker threads. Each worker owns one *shard*: a [`ShardDelta`]
//! holding every mutation its transactions make, layered over a shared
//! immutable base [`Database`] through a [`ShardView`]. Because transactions
//! in a conflict-free set touch pairwise-disjoint data items, no two shards
//! ever write the same field, so the deltas can be merged back into the base
//! in ascending shard order (the *commit-order merge*) and the result is
//! bit-identical to executing the same transactions serially.
//!
//! What a delta records mirrors exactly what serial execution would have done
//! to the database:
//!
//! * field updates — a *dense slot buffer*: one typed cell per distinct
//!   `(table, row, column)` written, in first-write order. A field's slot is
//!   assigned the first time the executing transaction's plan scatters to it;
//!   later writes overwrite the cell in place and reads hit the cell without
//!   materializing a [`Value`]. A small field→slot map exists only to find
//!   the assigned position; the values themselves live in the flat buffer,
//!   so the merge is a linear scatter over typed cells rather than a hash-map
//!   walk over boxed values;
//! * buffered inserts — per table, in execution order, tagged with the
//!   inserting transaction's id (the batched update of §3.2 later sorts all
//!   buffered rows by tag, so the interleaving across shards is irrelevant as
//!   long as transaction ids are unique);
//! * delete-bitmap flags — last flag per `(table, row)`, covering both
//!   `delete` and the `undelete` issued by undo-log rollback.
//!
//! Reads through a [`ShardView`] check the delta first (so a transaction
//! observes its own writes and those of earlier transactions in the same
//! shard) and fall back to the base. Index lookups always resolve against the
//! base — identical to the serial path, where indexes are only updated after
//! the bulk by [`Database::apply_insert_buffers`].
//!
//! Deltas are designed to be *pooled*: [`ShardDelta::merge_into`] drains the
//! buffers instead of consuming the delta, and [`ShardDelta::clear`] resets
//! one for reuse, so a long-running executor (the streaming pipeline) stops
//! paying allocation and rehash cost on every bulk.

use crate::catalog::{Database, TableId};
use crate::table::RowId;
use crate::value::Value;
use crate::view::StorageView;
use crate::wire::{WireError, WireReader, WireWriter};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash (the rustc/Firefox multiply-xor hash): the overlay keys are small
/// integer tuples on the hot path of every field access, where SipHash's
/// per-write overhead is measurable. Not DoS-resistant — fine for keys the
/// executor derives from row ids, never from external input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`] — exported for other crates that index
/// by small integer tuples on a hot path (e.g. access-plan spans).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`] — the set counterpart of
/// [`FxHashMap`], used e.g. by the durability capture to deduplicate dirty
/// field marks on the group-commit path.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// One buffered field value. Scalars are stored unboxed so the common case
/// (integer and double columns — every device-resident column in the bundled
/// workloads) never clones a [`Value`]; strings and NULLs keep the general
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer write (widened when the column is `Double`).
    I64(i64),
    /// A double write.
    F64(f64),
    /// Any other value: strings and NULL.
    Val(Value),
}

impl Cell {
    #[inline]
    fn from_value(value: &Value) -> Cell {
        match value {
            Value::Int(v) => Cell::I64(*v),
            Value::Double(v) => Cell::F64(*v),
            other => Cell::Val(other.clone()),
        }
    }

    #[inline]
    fn to_value(&self) -> Value {
        match self {
            Cell::I64(v) => Value::Int(*v),
            Cell::F64(v) => Value::Double(*v),
            Cell::Val(v) => v.clone(),
        }
    }

    /// Mirror of [`Value::as_int`].
    #[inline]
    fn as_i64(&self) -> i64 {
        match self {
            Cell::I64(v) => *v,
            Cell::F64(v) => panic!("expected Int, found Double({v})"),
            Cell::Val(v) => v.as_int(),
        }
    }

    /// Mirror of [`Value::as_double`] (integers widen).
    #[inline]
    fn as_f64(&self) -> f64 {
        match self {
            Cell::F64(v) => *v,
            Cell::I64(v) => *v as f64,
            Cell::Val(v) => v.as_double(),
        }
    }
}

/// One dense-buffer slot: the field it scatters to plus its current value.
#[derive(Debug, Clone, PartialEq)]
struct SlotWrite {
    table: TableId,
    row: RowId,
    col: u32,
    cell: Cell,
}

/// The mutations one worker thread made while executing its share of a
/// conflict-free transaction set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardDelta {
    /// Dense write buffer: one typed cell per distinct field, positions
    /// assigned in first-write order (the order the executing transactions'
    /// plans scatter their writes).
    slots: Vec<SlotWrite>,
    /// Field → assigned slot position.
    index: FxHashMap<(TableId, RowId, u32), u32>,
    /// Buffered inserts per table, in execution order, tagged with the
    /// inserting transaction id.
    inserts: FxHashMap<TableId, Vec<(u64, Vec<Value>)>>,
    /// Final delete-bitmap flag per row touched by a delete/undelete.
    deleted: FxHashMap<(TableId, RowId), bool>,
}

impl ShardDelta {
    /// Create an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the delta records no mutations. (A merged/reused delta may
    /// retain empty per-table insert buffers for their capacity; those do not
    /// count as mutations.)
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.inserts.values().all(Vec::is_empty) && self.deleted.is_empty()
    }

    /// Number of distinct fields written.
    pub fn num_updates(&self) -> usize {
        self.slots.len()
    }

    /// Number of rows waiting in the delta's insert buffers.
    pub fn num_buffered_inserts(&self) -> usize {
        self.inserts.values().map(Vec::len).sum()
    }

    /// Reset the delta for reuse, keeping allocated capacity (the executor
    /// pools deltas across bulks).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.inserts.clear();
        self.deleted.clear();
    }

    #[inline]
    fn cell(&self, table: TableId, row: RowId, col: u32) -> Option<&Cell> {
        self.index
            .get(&(table, row, col))
            .map(|&slot| &self.slots[slot as usize].cell)
    }

    #[inline]
    fn write_cell(&mut self, table: TableId, row: RowId, col: u32, cell: Cell) {
        match self.index.entry((table, row, col)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.slots[*e.get() as usize].cell = cell;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.slots.len() as u32);
                self.slots.push(SlotWrite {
                    table,
                    row,
                    col,
                    cell,
                });
            }
        }
    }

    /// Encode the delta's typed cells, buffered inserts and delete flags —
    /// the redo payload of a bulk log record (`gputx-durability`). Scalar
    /// cells are written unboxed (tag + 8 bytes), exactly mirroring the dense
    /// in-memory representation; insert buffers and delete flags are encoded
    /// in ascending table/row order so the byte stream is deterministic for a
    /// given delta.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_len(self.slots.len());
        for slot in &self.slots {
            w.put_u32(slot.table);
            w.put_u64(slot.row);
            w.put_u32(slot.col);
            match &slot.cell {
                Cell::I64(v) => {
                    w.put_u8(0);
                    w.put_i64(*v);
                }
                Cell::F64(v) => {
                    w.put_u8(1);
                    w.put_f64(*v);
                }
                Cell::Val(v) => {
                    w.put_u8(2);
                    w.put_value(v);
                }
            }
        }
        let mut tables: Vec<&TableId> = self.inserts.keys().collect();
        tables.sort_unstable();
        w.put_len(tables.len());
        for &table in tables {
            w.put_u32(table);
            let rows = &self.inserts[&table];
            w.put_len(rows.len());
            for (tag, row) in rows {
                w.put_u64(*tag);
                w.put_len(row.len());
                for v in row {
                    w.put_value(v);
                }
            }
        }
        let mut deleted: Vec<(&(TableId, RowId), &bool)> = self.deleted.iter().collect();
        deleted.sort_unstable_by_key(|(key, _)| **key);
        w.put_len(deleted.len());
        for ((table, row), &flag) in deleted {
            w.put_u32(*table);
            w.put_u64(*row);
            w.put_u8(flag as u8);
        }
    }

    /// Decode a delta encoded by [`ShardDelta::encode_into`]. The field→slot
    /// map is rebuilt, so the decoded delta behaves exactly like the one that
    /// was encoded (reads, further writes, [`ShardDelta::merge_into`]).
    pub fn decode(r: &mut WireReader<'_>) -> Result<ShardDelta, WireError> {
        let mut delta = ShardDelta::new();
        let n_slots = r.get_len()?;
        for _ in 0..n_slots {
            let table = r.get_u32()?;
            let row = r.get_u64()?;
            let col = r.get_u32()?;
            let cell = match r.get_u8()? {
                0 => Cell::I64(r.get_i64()?),
                1 => Cell::F64(r.get_f64()?),
                2 => Cell::Val(r.get_value()?),
                tag => return Err(WireError::Invalid(format!("unknown cell tag {tag}"))),
            };
            delta.write_cell(table, row, col, cell);
        }
        let n_tables = r.get_len()?;
        for _ in 0..n_tables {
            let table = r.get_u32()?;
            let n_rows = r.get_len()?;
            let rows = delta.inserts.entry(table).or_default();
            for _ in 0..n_rows {
                let tag = r.get_u64()?;
                let arity = r.get_len()?;
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(r.get_value()?);
                }
                rows.push((tag, row));
            }
        }
        let n_deleted = r.get_len()?;
        for _ in 0..n_deleted {
            let table = r.get_u32()?;
            let row = r.get_u64()?;
            let flag = r.get_u8()? != 0;
            delta.deleted.insert((table, row), flag);
        }
        Ok(delta)
    }

    /// Visit the final value of every distinct field the delta writes, in
    /// first-write order, scalars unboxed: a consumer with its own copy of
    /// the columns (the analytics engine's copy-on-write chunks) folds a
    /// record in without replaying it or building a [`Value`] per field.
    pub fn for_each_field_write(&self, mut f: impl FnMut(TableId, RowId, u32, &Cell)) {
        for slot in &self.slots {
            f(slot.table, slot.row, slot.col, &slot.cell);
        }
    }

    /// Visit each table's buffered inserts in ascending tag order, the order
    /// [`Table::apply_insert_buffer`](crate::table::Table::apply_insert_buffer)
    /// appends them in: row `i` of the batch becomes the table's row
    /// `num_rows() + i`. Tables come in unspecified order; a pooled delta
    /// may hand out a table with no rows.
    pub fn for_each_table_inserts(&self, mut f: impl FnMut(TableId, &[&[Value]])) {
        for (&table, buffered) in &self.inserts {
            let mut tagged: Vec<&(u64, Vec<Value>)> = buffered.iter().collect();
            tagged.sort_by_key(|(tag, _)| *tag);
            let rows: Vec<&[Value]> = tagged.into_iter().map(|(_, row)| &row[..]).collect();
            f(table, &rows);
        }
    }

    /// Visit every final delete-bitmap flag the delta carries (`true` =
    /// deleted, `false` = undeleted), in unspecified order — the flags are
    /// last-writer values over disjoint rows, so order never matters.
    pub fn for_each_delete_flag(&self, mut f: impl FnMut(TableId, RowId, bool)) {
        for (&(table, row), &flag) in &self.deleted {
            f(table, row, flag);
        }
    }

    /// Apply the delta to the database and drain it (the delta keeps its
    /// capacity and can be reused for the next bulk). Field updates and
    /// delete flags are idempotent last-writer values over disjoint keys, so
    /// the final database state does not depend on the order shards are
    /// merged in; the executor still merges in ascending shard index for a
    /// deterministic merge schedule. The dense buffer scatters in slot
    /// (first-write) order through the typed setters — no hash-map walk, no
    /// [`Value`] round trip for scalars. Buffered inserts are appended to the
    /// tables' insert buffers and pick up their final position when the
    /// engine applies the buffers in tag (timestamp) order after the bulk.
    pub fn merge_into(&mut self, db: &mut Database) {
        for slot in self.slots.drain(..) {
            let table = db.table_mut(slot.table);
            match slot.cell {
                Cell::I64(v) => table.set_i64(slot.row, slot.col as usize, v),
                Cell::F64(v) => table.set_f64(slot.row, slot.col as usize, v),
                Cell::Val(v) => table.set(slot.row, slot.col as usize, &v),
            }
        }
        self.index.clear();
        // Drain the per-table buffers but keep the (now empty) map entries:
        // the next bulk of a pooled delta reuses their capacity instead of
        // re-allocating per table.
        for (table, rows) in self.inserts.iter_mut() {
            for (tag, row) in rows.drain(..) {
                // Validated when it entered the overlay (ShardView::buffer_insert).
                db.table_mut(*table).buffered_insert_prevalidated(tag, row);
            }
        }
        for ((table, row), flag) in self.deleted.drain() {
            if flag {
                db.table_mut(table).delete(row);
            } else {
                db.table_mut(table).undelete(row);
            }
        }
    }
}

/// A worker thread's mutable view of the database: a [`ShardDelta`] overlay
/// on top of a shared immutable base.
#[derive(Debug)]
pub struct ShardView<'a> {
    base: &'a Database,
    delta: &'a mut ShardDelta,
}

impl<'a> ShardView<'a> {
    /// Create a view over `base` writing into `delta`.
    pub fn new(base: &'a Database, delta: &'a mut ShardDelta) -> Self {
        ShardView { base, delta }
    }
}

impl StorageView for ShardView<'_> {
    fn base(&self) -> &Database {
        self.base
    }

    fn get_field(&self, table: TableId, row: RowId, col: usize) -> Value {
        match self.delta.cell(table, row, col as u32) {
            Some(cell) => cell.to_value(),
            None => self.base.table(table).get(row, col),
        }
    }

    fn set_field(&mut self, table: TableId, row: RowId, col: usize, value: &Value) {
        self.delta
            .write_cell(table, row, col as u32, Cell::from_value(value));
    }

    fn get_i64(&self, table: TableId, row: RowId, col: usize) -> i64 {
        match self.delta.cell(table, row, col as u32) {
            Some(cell) => cell.as_i64(),
            None => self.base.table(table).get_i64(row, col),
        }
    }

    fn get_f64(&self, table: TableId, row: RowId, col: usize) -> f64 {
        match self.delta.cell(table, row, col as u32) {
            Some(cell) => cell.as_f64(),
            None => self.base.table(table).get_f64(row, col),
        }
    }

    fn set_i64(&mut self, table: TableId, row: RowId, col: usize, value: i64) {
        self.delta
            .write_cell(table, row, col as u32, Cell::I64(value));
    }

    fn set_f64(&mut self, table: TableId, row: RowId, col: usize, value: f64) {
        self.delta
            .write_cell(table, row, col as u32, Cell::F64(value));
    }

    fn buffer_insert(&mut self, table: TableId, tag: u64, row: Vec<Value>) {
        // Same eager validation as Table::buffered_insert, so the serial and
        // sharded paths reject malformed rows at the same point.
        self.base
            .table(table)
            .schema()
            .validate_row(&row)
            .unwrap_or_else(|e| panic!("{e}"));
        self.delta
            .inserts
            .entry(table)
            .or_default()
            .push((tag, row));
    }

    fn pop_last_buffered_insert(&mut self, table: TableId) -> Option<Vec<Value>> {
        self.delta
            .inserts
            .get_mut(&table)
            .and_then(|rows| rows.pop())
            .map(|(_, row)| row)
    }

    fn mark_deleted(&mut self, table: TableId, row: RowId) {
        self.delta.deleted.insert((table, row), true);
    }

    fn unmark_deleted(&mut self, table: TableId, row: RowId) {
        self.delta.deleted.insert((table, row), false);
    }

    fn is_row_deleted(&self, table: TableId, row: RowId) -> bool {
        match self.delta.deleted.get(&(table, row)) {
            Some(&flag) => flag,
            None => self.base.table(table).is_deleted(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn db_with_rows(rows: i64) -> (Database, TableId) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Double),
            ],
            vec![0],
        ));
        for i in 0..rows {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Double(0.0)]);
        }
        (db, t)
    }

    #[test]
    fn reads_see_own_writes_and_fall_back_to_base() {
        let (db, t) = db_with_rows(4);
        let mut delta = ShardDelta::new();
        let mut view = ShardView::new(&db, &mut delta);
        assert_eq!(view.get_field(t, 0, 1), Value::Double(0.0));
        view.set_field(t, 0, 1, &Value::Double(5.0));
        assert_eq!(view.get_field(t, 0, 1), Value::Double(5.0));
        // Base is untouched until the merge.
        assert_eq!(db.table(t).get(0, 1), Value::Double(0.0));
        assert_eq!(delta.num_updates(), 1);
    }

    #[test]
    fn typed_accessors_round_trip_through_the_overlay() {
        let (db, t) = db_with_rows(4);
        let mut delta = ShardDelta::new();
        {
            let mut view = ShardView::new(&db, &mut delta);
            assert_eq!(view.get_f64(t, 2, 1), 0.0, "falls back to base");
            assert_eq!(view.get_i64(t, 2, 0), 2, "falls back to base");
            view.set_f64(t, 2, 1, 7.5);
            assert_eq!(view.get_f64(t, 2, 1), 7.5, "overlay cell visible");
            assert_eq!(
                view.get_field(t, 2, 1),
                Value::Double(7.5),
                "typed write visible through the Value path"
            );
            view.set_field(t, 3, 1, &Value::Double(1.25));
            assert_eq!(view.get_f64(t, 3, 1), 1.25, "Value write visible typed");
            // Repeated writes to the same field reuse the assigned slot.
            view.set_f64(t, 2, 1, 9.0);
            assert_eq!(view.get_f64(t, 2, 1), 9.0);
        }
        assert_eq!(delta.num_updates(), 2);
    }

    #[test]
    fn merge_matches_direct_mutation() {
        let (db0, t) = db_with_rows(4);
        // Direct (serial) mutation.
        let mut serial = db0.clone();
        serial.table_mut(t).set(1, 1, &Value::Double(2.0));
        serial
            .table_mut(t)
            .buffered_insert(7, vec![Value::Int(10), Value::Double(1.0)]);
        serial.table_mut(t).delete(3);
        // The same mutations through a shard view, merged afterwards.
        let mut sharded = db0.clone();
        let mut delta = ShardDelta::new();
        {
            let mut view = ShardView::new(&sharded, &mut delta);
            view.set_field(t, 1, 1, &Value::Double(2.0));
            view.buffer_insert(t, 7, vec![Value::Int(10), Value::Double(1.0)]);
            view.mark_deleted(t, 3);
        }
        delta.merge_into(&mut sharded);
        assert!(sharded == serial, "merged shard must equal direct mutation");
        assert!(delta.is_empty(), "merge drains the delta for reuse");
    }

    #[test]
    fn cleared_delta_is_reusable() {
        let (db0, t) = db_with_rows(4);
        let mut delta = ShardDelta::new();
        {
            let mut view = ShardView::new(&db0, &mut delta);
            view.set_f64(t, 0, 1, 3.0);
            view.buffer_insert(t, 1, vec![Value::Int(9), Value::Double(0.0)]);
            view.mark_deleted(t, 2);
        }
        delta.clear();
        assert!(delta.is_empty());
        let mut db = db0.clone();
        delta.merge_into(&mut db);
        assert!(db == db0, "cleared delta must merge as a no-op");
    }

    #[test]
    fn pop_last_buffered_insert_undoes_own_insert_only() {
        let (db, t) = db_with_rows(2);
        let mut delta = ShardDelta::new();
        let mut view = ShardView::new(&db, &mut delta);
        assert!(view.pop_last_buffered_insert(t).is_none());
        view.buffer_insert(t, 3, vec![Value::Int(5), Value::Double(5.0)]);
        view.buffer_insert(t, 4, vec![Value::Int(6), Value::Double(6.0)]);
        let popped = view.pop_last_buffered_insert(t).unwrap();
        assert_eq!(popped[0], Value::Int(6));
        assert_eq!(delta.num_buffered_inserts(), 1);
    }

    #[test]
    fn delete_then_rollback_round_trips() {
        let (db0, t) = db_with_rows(3);
        let mut db = db0.clone();
        let mut delta = ShardDelta::new();
        {
            let mut view = ShardView::new(&db, &mut delta);
            view.mark_deleted(t, 1);
            view.unmark_deleted(t, 1);
        }
        delta.merge_into(&mut db);
        assert!(db == db0, "delete + undo must restore the base exactly");
    }

    #[test]
    fn is_row_deleted_reads_overlay_then_base() {
        let (mut db, t) = db_with_rows(3);
        db.table_mut(t).delete(0);
        let mut delta = ShardDelta::new();
        let mut view = ShardView::new(&db, &mut delta);
        assert!(view.is_row_deleted(t, 0), "base flag visible");
        assert!(!view.is_row_deleted(t, 1));
        view.mark_deleted(t, 1);
        assert!(view.is_row_deleted(t, 1), "own delete visible");
        view.mark_deleted(t, 0);
        view.unmark_deleted(t, 0);
        assert!(!view.is_row_deleted(t, 0), "overlay overrides base");
    }

    #[test]
    fn disjoint_deltas_merge_to_the_serial_state() {
        let (db0, t) = db_with_rows(8);
        // Serial: two transactions writing rows 0..4 and 4..8 respectively.
        let mut serial = db0.clone();
        for r in 0..8u64 {
            serial.table_mut(t).set(r, 1, &Value::Double(r as f64));
        }
        // Sharded: the same writes split across two shards, merged in order.
        let mut sharded = db0.clone();
        let mut d1 = ShardDelta::new();
        let mut d2 = ShardDelta::new();
        {
            let mut v1 = ShardView::new(&sharded, &mut d1);
            for r in 0..4u64 {
                v1.set_field(t, r, 1, &Value::Double(r as f64));
            }
        }
        {
            let mut v2 = ShardView::new(&sharded, &mut d2);
            for r in 4..8u64 {
                v2.set_field(t, r, 1, &Value::Double(r as f64));
            }
        }
        d1.merge_into(&mut sharded);
        d2.merge_into(&mut sharded);
        assert!(sharded == serial);
    }
}
