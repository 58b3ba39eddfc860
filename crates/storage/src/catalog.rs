//! The database catalog: named tables, their indexes and device residency.

use crate::index::{HashIndex, IndexKey};
use crate::item::DataItemId;
use crate::schema::TableSchema;
use crate::table::{RowId, StorageLayout, Table};
use crate::value::Value;
use crate::wire::{WireError, WireReader, WireWriter};
use gputx_sim::{Gpu, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a table within a [`Database`].
pub type TableId = u32;

/// Interned handle of one index of one table.
///
/// Index names are resolved to positions exactly once — at
/// [`Database::create_index`] time (which returns the handle) or via
/// [`Database::index_id`] — so the per-lookup hot path never compares index
/// names again. Handle-based lookups ([`Database::lookup_unique_id`],
/// [`Database::lookup_id`]) go straight to the index's hash table.
///
/// A handle is only meaningful for the database (or clones of the database)
/// it was resolved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexId {
    table: TableId,
    pos: u32,
}

impl IndexId {
    /// The table the index belongs to.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Position of the index within its table's index list.
    pub fn position(&self) -> usize {
        self.pos as usize
    }
}

/// Panic message of a database-side access to an index slot: only a shared
/// [`IndexSet`] clone ever releases an index.
const HELD: &str = "a database holds every index it created";

/// The hash indexes of a database, per table, each a copy-on-write [`Arc`].
///
/// Cloning a set — or the [`Database`] that owns one — shares every index;
/// [`Database::insert_indexed`], the only index mutator, copies just the
/// index it writes, and only while another holder still shares it. A clone
/// of a live database's set costs nothing until the database writes an
/// index, and then only the written index exists twice until
/// [`IndexSet::release_unshared`] lets the clone's holder drop its outdated
/// copy.
///
/// Lookups through a released index answer `None`. A database's own set
/// never releases an index.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexSet {
    tables: Vec<Vec<Option<Arc<HashIndex>>>>,
}

impl IndexSet {
    fn slot(&self, id: IndexId) -> Option<&Arc<HashIndex>> {
        self.tables[id.table as usize][id.pos as usize].as_ref()
    }

    /// The index behind a handle; `None` once this set released it.
    pub fn get(&self, id: IndexId) -> Option<&HashIndex> {
        self.slot(id).map(|idx| &**idx)
    }

    /// True when both sets hold the very same copy of index `id`: neither
    /// side has written it since they were cloned from one another.
    pub fn shares(&self, other: &IndexSet, id: IndexId) -> bool {
        matches!((self.slot(id), other.slot(id)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Drop every index this set is the last holder of — the ones whose
    /// every other holder has since written (and so copied) its own — and
    /// return how many were released. A set that is the sole holder of an
    /// index stays so: nothing else can clone its `Arc`.
    pub fn release_unshared(&mut self) -> usize {
        let mut released = 0;
        for slot in self.tables.iter_mut().flatten() {
            if slot.as_ref().is_some_and(|idx| Arc::strong_count(idx) == 1) {
                *slot = None;
                released += 1;
            }
        }
        released
    }

    /// Every index of one table, in creation order.
    fn table(&self, table: TableId) -> impl Iterator<Item = &HashIndex> {
        self.tables[table as usize]
            .iter()
            .map(|slot| slot.as_deref().expect(HELD))
    }
}

impl AsRef<IndexSet> for IndexSet {
    fn as_ref(&self) -> &IndexSet {
        self
    }
}

/// An in-memory database: a set of tables plus their indexes.
///
/// The database is `Clone` so tests can snapshot it, execute a bulk with one
/// strategy and compare against a sequential replay on the snapshot
/// (Definition 1 of the paper). A clone copies the tables and shares the
/// indexes copy-on-write (see [`IndexSet`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Database {
    layout: StorageLayout,
    tables: Vec<Table>,
    names: HashMap<String, TableId>,
    indexes: IndexSet,
}

impl AsRef<IndexSet> for Database {
    fn as_ref(&self) -> &IndexSet {
        &self.indexes
    }
}

impl Database {
    /// Create an empty database using the given storage layout for all tables.
    pub fn new(layout: StorageLayout) -> Self {
        Database {
            layout,
            tables: Vec::new(),
            names: HashMap::new(),
            indexes: IndexSet::default(),
        }
    }

    /// Create an empty column-store database (the GPUTx default).
    pub fn column_store() -> Self {
        Self::new(StorageLayout::Column)
    }

    /// The storage layout used by this database.
    pub fn layout(&self) -> StorageLayout {
        self.layout
    }

    /// Create a table from a schema and return its id.
    pub fn create_table(&mut self, schema: TableSchema) -> TableId {
        assert!(
            !self.names.contains_key(&schema.name),
            "table {} already exists",
            schema.name
        );
        let id = self.tables.len() as TableId;
        self.names.insert(schema.name.clone(), id);
        self.tables.push(Table::new(schema, self.layout));
        self.indexes.tables.push(Vec::new());
        id
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.names.get(name).copied()
    }

    /// Access a table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id as usize]
    }

    /// Mutably access a table by id.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id as usize]
    }

    /// Access a table by name, panicking when missing.
    pub fn table_by_name(&self, name: &str) -> &Table {
        let id = self
            .table_id(name)
            .unwrap_or_else(|| panic!("no table named {name}"));
        self.table(id)
    }

    /// Create a hash index on a table; returns its interned [`IndexId`]
    /// handle (resolve once, probe by handle forever after).
    pub fn create_index(
        &mut self,
        table: TableId,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> IndexId {
        let indexes = &mut self.indexes.tables[table as usize];
        indexes.push(Some(Arc::new(HashIndex::new(name, columns, unique))));
        IndexId {
            table,
            pos: (indexes.len() - 1) as u32,
        }
    }

    /// Resolve an index name to its interned [`IndexId`] handle. This is the
    /// one remaining name comparison; do it once at setup, not per lookup.
    pub fn index_id(&self, table: TableId, name: &str) -> Option<IndexId> {
        self.indexes
            .table(table)
            .position(|i| i.name == name)
            .map(|pos| IndexId {
                table,
                pos: pos as u32,
            })
    }

    /// Access an index by table and name.
    pub fn index(&self, table: TableId, name: &str) -> Option<&HashIndex> {
        self.indexes.table(table).find(|i| i.name == name)
    }

    /// Access an index by its interned handle (no name comparison).
    pub fn index_by_id(&self, id: IndexId) -> &HashIndex {
        self.indexes.get(id).expect(HELD)
    }

    /// Every index of every table, shared copy-on-write: clone it to plan
    /// against this database's index contents without copying them.
    pub fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    /// Look up a single row through a unique index by handle.
    pub fn lookup_unique_id(&self, id: IndexId, key: &IndexKey) -> Option<RowId> {
        self.index_by_id(id).get_unique(key)
    }

    /// Look up all rows matching a key through an index by handle. Returns a
    /// borrowed slice — no per-lookup allocation.
    pub fn lookup_id(&self, id: IndexId, key: &IndexKey) -> &[RowId] {
        self.index_by_id(id).get(key)
    }

    /// Insert a row and update every index of the table. Returns the row id.
    ///
    /// This is the only index mutator. An index still shared with a clone of
    /// this database is copied first, so the clone never sees the write.
    pub fn insert_indexed(&mut self, table: TableId, row: Vec<Value>) -> RowId {
        // Row ids are dense, so the keys are built from the borrowed row
        // before it moves into the table.
        let row_id = self.tables[table as usize].num_rows() as RowId;
        for slot in &mut self.indexes.tables[table as usize] {
            let idx = Arc::make_mut(slot.as_mut().expect(HELD));
            let key = idx.key_of(&row);
            idx.insert(key, row_id)
                .unwrap_or_else(|e| panic!("index {} on table {}: {e}", idx.name, table));
        }
        let inserted = self.tables[table as usize].insert(row);
        debug_assert_eq!(inserted, row_id);
        row_id
    }

    /// Look up a single row through a unique index, resolving the index by
    /// name. Prefer resolving an [`IndexId`] once and calling
    /// [`Database::lookup_unique_id`] on the hot path.
    pub fn lookup_unique(&self, table: TableId, index_name: &str, key: &IndexKey) -> Option<RowId> {
        self.index(table, index_name)
            .and_then(|idx| idx.get_unique(key))
    }

    /// The data-item identifier of one field of one row.
    pub fn item(&self, table: TableId, row: RowId, col: usize) -> DataItemId {
        DataItemId::new(table, row, col as u32)
    }

    /// Enable or disable dirty-field tracking on every table, clearing any
    /// recorded marks (see [`Table::set_dirty_tracking`]). The durability
    /// capture turns this on for the lifetime of a logged engine and drains
    /// the marks at each bulk boundary.
    pub fn set_dirty_tracking(&mut self, enabled: bool) {
        for table in &mut self.tables {
            table.set_dirty_tracking(enabled);
        }
    }

    /// Apply every table's insert buffer as a batched update (the post-kernel
    /// step of §3.2), maintaining indexes for the newly visible rows.
    pub fn apply_insert_buffers(&mut self) {
        for t in 0..self.tables.len() as TableId {
            for row in self.tables[t as usize].take_insert_buffer() {
                // Buffered inserts from aborted transactions were already
                // discarded, so a duplicate key here is a programming error.
                self.insert_indexed(t, row);
            }
        }
    }

    /// Total host-memory bytes of all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.total_bytes()).sum::<u64>() + self.index_bytes()
    }

    /// Bytes that must be resident in device memory (tables + indexes).
    pub fn device_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.device_bytes()).sum::<u64>() + self.index_bytes()
    }

    /// Bytes used by all indexes.
    pub fn index_bytes(&self) -> u64 {
        (0..self.tables.len() as TableId)
            .flat_map(|t| self.indexes.table(t))
            .map(HashIndex::bytes)
            .sum()
    }

    /// Rebuild this database's live rows and index definitions under a
    /// different storage layout. Used by the Appendix F.2 column-vs-row
    /// comparison. Row ids are re-assigned densely over the live rows.
    pub fn rebuilt_with_layout(&self, layout: StorageLayout) -> Database {
        let mut out = Database::new(layout);
        for (t, table) in self.tables.iter().enumerate() {
            let id = out.create_table(table.schema().clone());
            for idx in self.indexes.table(t as TableId) {
                out.create_index(id, idx.name.clone(), idx.columns.clone(), idx.unique);
            }
            for row in table.live_rows() {
                out.insert_indexed(id, table.get_row(row));
            }
        }
        out
    }

    /// Encode the complete database state for checkpointing: layout, every
    /// table (schema, data, delete bitmap, insert buffer) and every index
    /// (definition plus entries). The encoding is self-contained — decoding
    /// needs no schema registry — and `decode(encode(db)) == db` under the
    /// catalog's content equality.
    ///
    /// Framing, versioning and checksums are the caller's job; the durability
    /// crate (`gputx-durability`) wraps this in its checkpoint file format.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_u8(match self.layout {
            StorageLayout::Column => 0,
            StorageLayout::Row => 1,
        });
        w.put_len(self.tables.len());
        for (t, table) in self.tables.iter().enumerate() {
            table.encode_into(w);
            w.put_len(self.indexes.tables[t].len());
            for idx in self.indexes.table(t as TableId) {
                idx.encode_into(w);
            }
        }
    }

    /// Decode a database encoded by [`Database::encode_into`]. Table ids are
    /// assigned in encode order, so ids, index handles and row ids resolved
    /// against the original database stay valid against the decoded one.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Database, WireError> {
        let layout = match r.get_u8()? {
            0 => StorageLayout::Column,
            1 => StorageLayout::Row,
            tag => return Err(WireError::Invalid(format!("unknown layout tag {tag}"))),
        };
        let n_tables = r.get_len()?;
        let mut db = Database::new(layout);
        for _ in 0..n_tables {
            let table = Table::decode(r)?;
            let name = table.schema().name.clone();
            if db.names.contains_key(&name) {
                return Err(WireError::Invalid(format!("duplicate table {name}")));
            }
            let id = db.tables.len() as TableId;
            db.names.insert(name, id);
            db.tables.push(table);
            let n_indexes = r.get_len()?;
            let mut indexes = Vec::with_capacity(n_indexes);
            for _ in 0..n_indexes {
                indexes.push(Some(Arc::new(HashIndex::decode(r)?)));
            }
            db.indexes.tables.push(indexes);
        }
        Ok(db)
    }

    /// Account for loading the database into GPU device memory: allocates the
    /// device footprint and models the PCIe transfer ("initialization" in
    /// Figure 16). Returns the simulated transfer time.
    pub fn load_to_device(&self, gpu: &mut Gpu) -> SimDuration {
        let bytes = self.device_bytes();
        gpu.memory
            .alloc("database tables and indexes", bytes)
            .unwrap_or_else(|e| panic!("database does not fit in device memory: {e}"));
        gpu.transfer_to_device("database initialization", bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn accounts_schema() -> TableSchema {
        TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
            ],
            vec![0],
        )
    }

    fn setup() -> (Database, TableId) {
        let mut db = Database::column_store();
        let t = db.create_table(accounts_schema());
        db.create_index(t, "pk", vec![0], true);
        for i in 0..10i64 {
            db.insert_indexed(t, vec![Value::Int(i), Value::Double(100.0 * i as f64)]);
        }
        (db, t)
    }

    #[test]
    fn create_and_lookup() {
        let (db, t) = setup();
        assert_eq!(db.num_tables(), 1);
        assert_eq!(db.table_id("accounts"), Some(t));
        assert!(db.table_id("missing").is_none());
        let row = db.lookup_unique(t, "pk", &IndexKey::single(7i64)).unwrap();
        assert_eq!(db.table(t).get(row, 1), Value::Double(700.0));
        assert_eq!(db.table_by_name("accounts").num_rows(), 10);
    }

    #[test]
    fn insert_buffers_maintain_indexes() {
        let (mut db, t) = setup();
        db.table_mut(t)
            .buffered_insert(0, vec![Value::Int(100), Value::Double(5.0)]);
        assert!(db
            .lookup_unique(t, "pk", &IndexKey::single(100i64))
            .is_none());
        db.apply_insert_buffers();
        let row = db
            .lookup_unique(t, "pk", &IndexKey::single(100i64))
            .unwrap();
        assert_eq!(db.table(t).get(row, 1), Value::Double(5.0));
    }

    #[test]
    fn clone_snapshot_is_equal_then_diverges() {
        let (mut db, t) = setup();
        let snapshot = db.clone();
        assert_eq!(db, snapshot);
        db.table_mut(t).set(0, 1, &Value::Double(-1.0));
        assert_ne!(db, snapshot);
    }

    /// [`setup`] plus a second indexed table the tests below never write.
    fn two_tables() -> (Database, IndexId, IndexId) {
        let (mut db, t) = setup();
        let other = db.create_table(TableSchema::new(
            "other",
            vec![ColumnDef::new("id", DataType::Int)],
            vec![0],
        ));
        let other_pk = db.create_index(other, "pk", vec![0], true);
        db.insert_indexed(other, vec![Value::Int(1)]);
        let pk = db.index_id(t, "pk").expect("pk");
        (db, pk, other_pk)
    }

    #[test]
    fn clone_shares_every_index() {
        let (db, pk, other_pk) = two_tables();
        let copy = db.clone();
        for id in [pk, other_pk] {
            assert!(Arc::ptr_eq(
                db.indexes.slot(id).unwrap(),
                copy.indexes.slot(id).unwrap()
            ));
            assert!(db.indexes().shares(copy.indexes(), id));
        }
    }

    #[test]
    fn insert_copies_only_the_written_index_and_leaves_the_clone_alone() {
        let (db, pk, other_pk) = two_tables();
        let version = db.index_by_id(pk).version();
        let mut copy = db.clone();
        copy.insert_indexed(pk.table(), vec![Value::Int(100), Value::Double(5.0)]);
        assert!(!db.indexes().shares(copy.indexes(), pk), "written: copied");
        assert!(db.indexes().shares(copy.indexes(), other_pk), "untouched");
        assert_eq!(copy.index_by_id(pk).version(), version + 1);
        assert_eq!(
            copy.lookup_unique_id(pk, &IndexKey::single(100i64)),
            Some(10)
        );
        // The original is exactly its pre-write state, index version included.
        assert_eq!(db, two_tables().0);
        assert_eq!(db.index_by_id(pk).version(), version);
        assert_eq!(db.lookup_unique_id(pk, &IndexKey::single(100i64)), None);
        // A sole holder writes in place.
        let before = Arc::as_ptr(copy.indexes.slot(pk).unwrap());
        copy.insert_indexed(pk.table(), vec![Value::Int(101), Value::Double(5.0)]);
        assert_eq!(Arc::as_ptr(copy.indexes.slot(pk).unwrap()), before);
    }

    #[test]
    fn release_unshared_drops_only_indexes_nobody_else_holds() {
        let (mut db, pk, other_pk) = two_tables();
        let mut planner = db.indexes().clone();
        assert_eq!(planner.release_unshared(), 0, "everything still shared");
        db.insert_indexed(pk.table(), vec![Value::Int(100), Value::Double(5.0)]);
        assert_eq!(planner.release_unshared(), 1);
        assert!(planner.get(pk).is_none(), "the outdated copy is gone");
        assert!(planner.shares(db.indexes(), other_pk));
        assert!(!planner.shares(db.indexes(), pk));
    }

    #[test]
    fn device_bytes_smaller_with_host_only_columns() {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::host_only("comment", DataType::Str),
            ],
            vec![0],
        ));
        for i in 0..100i64 {
            db.insert_indexed(t, vec![Value::Int(i), Value::Str("some text here".into())]);
        }
        assert!(db.device_bytes() < db.total_bytes());
    }

    #[test]
    fn load_to_device_accounts_memory_and_transfer() {
        let (db, _) = setup();
        let mut gpu = Gpu::c1060();
        let time = db.load_to_device(&mut gpu);
        assert!(time.as_secs() > 0.0);
        assert_eq!(gpu.memory.used(), db.device_bytes());
        assert_eq!(gpu.stats().h2d_bytes, db.device_bytes());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_table_rejected() {
        let mut db = Database::column_store();
        db.create_table(accounts_schema());
        db.create_table(accounts_schema());
    }

    /// A database whose every index holds exactly one key, so its encoding
    /// does not depend on hash-map iteration order. The keys cover a
    /// negative int, a 15-byte string, `-0.0`, `i64::MAX`, a two-row
    /// non-unique key and a composite key too long to store inline.
    fn one_key_per_index_db() -> Database {
        let mut db = Database::column_store();
        let subs = db.create_table(TableSchema::new(
            "subscriber",
            vec![
                ColumnDef::new("s_id", DataType::Int),
                ColumnDef::new("sub_nbr", DataType::Str),
                ColumnDef::new("bal", DataType::Double),
            ],
            vec![0],
        ));
        db.create_index(subs, "pk", vec![0], true);
        db.create_index(subs, "by_nbr", vec![1], true);
        db.create_index(subs, "by_bal", vec![2], true);
        db.insert_indexed(
            subs,
            vec![
                Value::Int(-7),
                Value::Str("000000000000042".into()),
                Value::Double(-0.0),
            ],
        );
        let notes = db.create_table(TableSchema::new(
            "notes",
            vec![
                ColumnDef::new("s_id", DataType::Int),
                ColumnDef::new("note", DataType::Str),
                ColumnDef::new("w", DataType::Double),
            ],
            vec![0],
        ));
        db.create_index(notes, "by_sub", vec![0], false);
        db.create_index(notes, "by_note", vec![1, 0, 2], false);
        for _ in 0..2 {
            db.insert_indexed(
                notes,
                vec![
                    Value::Int(i64::MAX),
                    Value::Str("a note longer than twenty-two bytes".into()),
                    Value::Double(1.5),
                ],
            );
        }
        db
    }

    /// The checkpoint / replication-snapshot bytes of
    /// [`one_key_per_index_db`]. They must not change: checkpoints and
    /// snapshots already written decode through the same path. Index keys
    /// travel as `Value`s, whatever their in-memory layout.
    const ONE_KEY_PER_INDEX_DB_HEX: [&str; 21] = [
        "0002000000000000000a00000000000000737562736372696265720300000000000000040000000000000073",
        "5f6964000107000000000000007375625f6e62720201030000000000000062616c0101010000000000000000",
        "000000000000000001000000000000000300000000000000000100000000000000f9ffffffffffffff020100",
        "0000000000000f00000000000000303030303030303030303030303432010100000000000000000000000000",
        "0080010000000000000000000000000000000003000000000000000200000000000000706b01000000000000",
        "000000000000000000010100000000000000010000000000000000f9ffffffffffffff010000000000000000",
        "00000000000000060000000000000062795f6e62720100000000000000010000000000000001010000000000",
        "00000100000000000000020f0000000000000030303030303030303030303030343201000000000000000000",
        "000000000000060000000000000062795f62616c010000000000000002000000000000000101000000000000",
        "0001000000000000000100000000000000800100000000000000000000000000000005000000000000006e6f",
        "74657303000000000000000400000000000000735f6964000104000000000000006e6f746502010100000000",
        "0000007701010100000000000000000000000000000000020000000000000003000000000000000002000000",
        "00000000ffffffffffffff7fffffffffffffff7f020200000000000000230000000000000061206e6f746520",
        "6c6f6e676572207468616e207477656e74792d74776f206279746573230000000000000061206e6f7465206c",
        "6f6e676572207468616e207477656e74792d74776f206279746573010200000000000000000000000000f83f",
        "000000000000f83f020000000000000000000000000000000000020000000000000006000000000000006279",
        "5f73756201000000000000000000000000000000000100000000000000010000000000000000ffffffffffff",
        "ff7f020000000000000000000000000000000100000000000000070000000000000062795f6e6f7465030000",
        "0000000000010000000000000000000000000000000200000000000000000100000000000000030000000000",
        "000002230000000000000061206e6f7465206c6f6e676572207468616e207477656e74792d74776f20627974",
        "657300ffffffffffffff7f01000000000000f83f020000000000000000000000000000000100000000000000",
    ];

    #[test]
    fn database_wire_encoding_is_pinned_byte_for_byte() {
        let hex = ONE_KEY_PER_INDEX_DB_HEX.concat();
        let pinned: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect();
        let db = one_key_per_index_db();
        let mut w = WireWriter::new();
        db.encode_into(&mut w);
        assert_eq!(w.bytes(), &pinned[..], "the index wire format moved");
        // Bytes written by the old layout decode to the same database.
        let mut r = WireReader::new(&pinned);
        let decoded = Database::decode(&mut r).expect("pinned bytes decode");
        r.expect_end().expect("no trailing bytes");
        assert_eq!(decoded, db);
        let notes = decoded.table_id("notes").expect("table");
        let by_note = decoded.index_id(notes, "by_note").expect("index");
        let key = IndexKey::triple("a note longer than twenty-two bytes", i64::MAX, 1.5);
        assert_eq!(decoded.lookup_id(by_note, &key), &[0, 1]);
    }

    #[test]
    fn item_ids_reflect_table_row_col() {
        let (db, t) = setup();
        let item = db.item(t, 3, 1);
        assert_eq!(item.table(), t);
        assert_eq!(item.row(), 3);
        assert_eq!(item.column(), 1);
    }
}
