//! Unit tests: snapshot correctness, incremental cuts, deterministic scans.

use crate::ops::{count_rows, group_by_i64, sum_f64, sum_i64, GroupRow, Predicate, ScanOptions};
use crate::session::{AnalyticsConfig, AnalyticsSession};
use crate::store::SnapshotStore;
use gputx_durability::{BulkLogRecord, WriteCapture};
use gputx_storage::schema::{ColumnDef, TableSchema};
use gputx_storage::{DataType, Database, Value};
use proptest::prelude::*;
use std::time::Duration;

/// Two-table test database: an Int/Double "accounts" table plus a table
/// with a Str column to exercise the fallback chunk representation.
fn setup(rows: i64) -> Database {
    let mut db = Database::column_store();
    let accounts = db.create_table(TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("region", DataType::Int),
            ColumnDef::new("balance", DataType::Double),
        ],
        vec![0],
    ));
    for i in 0..rows {
        db.table_mut(accounts)
            .insert(vec![Value::Int(i), Value::Int(i % 4), Value::Double(100.0)]);
    }
    let labels = db.create_table(TableSchema::new(
        "labels",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::host_only("tag", DataType::Str),
        ],
        vec![0],
    ));
    for i in 0..4 {
        db.table_mut(labels)
            .insert(vec![Value::Int(i), Value::Str(format!("tag-{i}"))]);
    }
    db
}

/// Run `mutate` against `db` as one captured bulk and return its record —
/// the same capture path the engines use at their group-commit point.
fn bulk(db: &mut Database, lsn: u64, mutate: impl FnOnce(&mut Database)) -> BulkLogRecord {
    let capture = WriteCapture::begin(db);
    mutate(db);
    db.apply_insert_buffers();
    BulkLogRecord {
        lsn,
        write_set: capture.finish(db),
    }
}

#[test]
fn snapshot_matches_mirror_exactly() {
    let mut db = setup(300);
    let mut store = SnapshotStore::new(&db, 64, false);
    let empty = store.freeze();
    empty.check_against(&db).unwrap();

    let r0 = bulk(&mut db, 0, |db| {
        db.table_mut(0).set_f64(7, 2, 250.5);
        db.table_mut(0).delete(11);
        db.table_mut(0)
            .insert(vec![Value::Int(300), Value::Int(1), Value::Double(1.25)]);
        db.table_mut(1).set(2, 1, &Value::Str("renamed".into()));
    });
    store.apply(&r0);
    let snap = store.freeze();
    snap.check_against(&db).unwrap();
    assert_eq!(snap.records_applied(), 1);
    assert_eq!(snap.last_lsn(), Some(0));
    assert_eq!(snap.num_rows(0), 301);
    assert!(!snap.is_live(0, 11));
    assert_eq!(snap.get_f64(0, 7, 2), 250.5);
    assert_eq!(snap.get(1, 2, 1), Value::Str("renamed".into()));
}

#[test]
fn old_snapshots_are_immutable() {
    let mut db = setup(100);
    let mut store = SnapshotStore::new(&db, 32, false);
    let before = store.freeze();
    let r0 = bulk(&mut db, 0, |db| {
        db.table_mut(0).set_f64(3, 2, -1.0);
        db.table_mut(0).delete(40);
    });
    store.apply(&r0);
    let after = store.freeze();
    // The old handle still reads the pre-bulk state.
    assert_eq!(before.get_f64(0, 3, 2), 100.0);
    assert!(before.is_live(0, 40));
    assert_eq!(after.get_f64(0, 3, 2), -1.0);
    assert!(!after.is_live(0, 40));
}

#[test]
fn held_snapshot_copies_only_the_chunks_it_shares() {
    let mut db = setup(1000);
    // 32-row chunks => accounts has ceil(1000/32) = 32 chunks per column.
    let mut store = SnapshotStore::new(&db, 32, false);
    let copied = |store: &SnapshotStore| store.stats().chunks_rebuilt;
    let held = store.freeze();
    // A cut copies no chunk.
    let _ = store.freeze();
    assert_eq!(copied(&store), 0);

    // One field write copies exactly the one column chunk the held
    // snapshot shares.
    let write = |db: &mut Database| db.table_mut(0).set_f64(5, 2, 7.0);
    let r0 = bulk(&mut db, 0, write);
    store.apply(&r0);
    assert_eq!(copied(&store), 1);

    // A delete copies exactly one live chunk.
    let r1 = bulk(&mut db, 1, |db| db.table_mut(0).delete(999));
    store.apply(&r1);
    assert_eq!(copied(&store), 2);
    assert_eq!(held.get_f64(0, 5, 2), 100.0);
    assert!(held.is_live(0, 999));

    // With no snapshot held, the same write copies nothing.
    drop(held);
    let _ = store.freeze();
    let r2 = bulk(&mut db, 2, write);
    store.apply(&r2);
    assert_eq!(copied(&store), 2);
    store.freeze().check_against(&db).unwrap();
}

#[test]
fn appends_rebuild_only_the_tail() {
    let mut db = setup(64);
    let mut store = SnapshotStore::new(&db, 32, false);
    let _ = store.freeze();
    let baseline = store.stats().chunks_rebuilt;
    // One appended row starts chunk 2 of "accounts": 3 column chunks plus
    // one live chunk are rebuilt, nothing else.
    let r0 = bulk(&mut db, 0, |db| {
        db.table_mut(0)
            .insert(vec![Value::Int(64), Value::Int(0), Value::Double(0.5)]);
    });
    store.apply(&r0);
    let snap = store.freeze();
    snap.check_against(&db).unwrap();
    assert_eq!(store.stats().chunks_rebuilt, baseline + 4);
}

#[test]
fn scans_are_deterministic_across_thread_counts() {
    let mut db = setup(5000);
    // Non-trivial doubles so float ordering would show up.
    let r0 = bulk(&mut db, 0, |db| {
        for i in 0..5000u64 {
            db.table_mut(0).set_f64(i, 2, (i as f64) * 0.1 + 0.01);
        }
    });
    let mut store = SnapshotStore::new(&setup(5000), 128, false);
    store.apply(&r0);
    let snap = store.freeze();
    snap.check_against(&db).unwrap();

    let pred = Predicate::I64Between {
        col: 0,
        lo: 100,
        hi: 4200,
    };
    let serial = ScanOptions::sequential();
    for threads in [2, 3, 8] {
        let par = ScanOptions::parallel(threads);
        assert_eq!(
            count_rows(&snap, 0, &pred, serial),
            count_rows(&snap, 0, &pred, par)
        );
        assert_eq!(
            sum_i64(&snap, 0, 1, &pred, serial),
            sum_i64(&snap, 0, 1, &pred, par)
        );
        // Bit-identical, not approximately equal.
        assert_eq!(
            sum_f64(&snap, 0, 2, &pred, serial).to_bits(),
            sum_f64(&snap, 0, 2, &pred, par).to_bits()
        );
        assert_eq!(
            group_by_i64(&snap, 0, 1, 2, &pred, serial),
            group_by_i64(&snap, 0, 1, 2, &pred, par)
        );
    }
}

#[test]
fn database_scan_source_matches_snapshot() {
    let mut db = setup(700);
    let r0 = bulk(&mut db, 0, |db| {
        db.table_mut(0).delete(13);
        db.table_mut(0).set_f64(20, 2, 55.0);
    });
    let mut store = SnapshotStore::new(&setup(700), 64, false);
    store.apply(&r0);
    let snap = store.freeze();

    // The same operators over Database (replica offload path) agree with
    // the snapshot bit for bit.
    let opts = ScanOptions::parallel(4);
    assert_eq!(
        count_rows(&snap, 0, &Predicate::All, opts),
        count_rows(&db, 0, &Predicate::All, opts)
    );
    assert_eq!(
        sum_f64(&snap, 0, 2, &Predicate::All, opts).to_bits(),
        sum_f64(&db, 0, 2, &Predicate::All, opts).to_bits()
    );
    let pred = Predicate::F64AtLeast {
        col: 2,
        bound: 55.0,
    };
    assert_eq!(
        count_rows(&snap, 0, &pred, opts),
        count_rows(&db, 0, &pred, opts)
    );
    assert_eq!(
        group_by_i64(&snap, 0, 1, 2, &Predicate::All, opts),
        group_by_i64(&db, 0, 1, 2, &Predicate::All, opts)
    );
}

#[test]
fn group_by_shape() {
    let db = setup(8);
    let store = SnapshotStore::new(&db, 4, false);
    let mut store = store;
    let snap = store.freeze();
    let groups = group_by_i64(&snap, 0, 1, 2, &Predicate::All, ScanOptions::sequential());
    assert_eq!(
        groups,
        vec![
            GroupRow {
                key: 0,
                rows: 2,
                sum: 200.0
            },
            GroupRow {
                key: 1,
                rows: 2,
                sum: 200.0
            },
            GroupRow {
                key: 2,
                rows: 2,
                sum: 200.0
            },
            GroupRow {
                key: 3,
                rows: 2,
                sum: 200.0
            },
        ]
    );
}

#[test]
fn session_publish_wait_and_replay() {
    let mut db = setup(200);
    let seed = db.clone();
    let session =
        AnalyticsSession::with_config(&seed, AnalyticsConfig::default().with_retained_records());
    assert_eq!(session.next_lsn(), 0);

    for lsn in 0..3u64 {
        let record = bulk(&mut db, lsn, |db| {
            db.table_mut(0).set_f64(lsn, 2, 1000.0 + lsn as f64);
        });
        assert_eq!(session.next_lsn(), lsn);
        session.publish(&record);
    }
    assert!(session.wait_applied(3, Duration::from_secs(1)));
    assert!(!session.wait_applied(4, Duration::from_millis(10)));

    let snap = session.snapshot();
    assert_eq!(snap.records_applied(), 3);
    // Serial replay of the retained prefix is exactly the snapshot state.
    let replayed = session.replay_prefix(&seed, 3);
    snap.check_against(&replayed).unwrap();
    assert_eq!(replayed, db);

    let stats = session.stats();
    assert_eq!(stats.records_applied, 3);
    assert!(stats.snapshots >= 1);
}

#[test]
fn snapshot_outlives_session() {
    let mut db = setup(50);
    let session = AnalyticsSession::new(&db);
    let record = bulk(&mut db, 0, |db| db.table_mut(0).set_i64(10, 1, 99));
    session.publish(&record);
    let snap = session.snapshot();
    drop(session);
    assert_eq!(snap.get_i64(0, 10, 1), 99);
    snap.check_against(&db).unwrap();
}

/// A row of the property test's tables, derived from one integer.
fn prop_row(v: i64) -> Vec<Value> {
    vec![
        Value::Int(v),
        Value::Double(v as f64 * 0.5),
        Value::Str(format!("s{v}")),
    ]
}

/// One random mutation inside a bulk: `(kind, table, pick, value)`. `pick`
/// chooses the row (among the `base` rows that existed when the bulk began,
/// as in an engine-made record), the column, or the number of appended rows.
fn prop_mutate(db: &mut Database, (kind, t, pick, v): (u8, u32, u64, i64), base: &[usize]) {
    let table = db.table_mut(t);
    let rows = base[t as usize] as u64;
    match kind {
        0..=2 if rows == 0 => {}
        0 => match (pick / 100) % 3 {
            0 => table.set_i64(pick % rows, 0, v),
            1 => table.set_f64(pick % rows, 1, v as f64 * 0.25),
            _ => table.set(pick % rows, 2, &Value::Str(format!("w{v}"))),
        },
        1 => table.delete(pick % rows),
        2 => table.undelete(pick % rows),
        _ => {
            for i in 0..pick as i64 % 9 {
                table.insert(prop_row(v + i));
            }
        }
    }
}

proptest! {
    /// Random bulks of writes, deletes, undeletes and appends that cross
    /// chunk boundaries, with snapshots cut and held at random points: every
    /// held snapshot still equals a serial replay of its own prefix, and the
    /// final cut equals the final replay.
    #[test]
    fn held_snapshots_stay_frozen(
        seed_rows in (0usize..10, 0usize..10),
        seven in prop::bool::ANY,
        bulks in prop::collection::vec(
            (
                prop::bool::ANY,
                prop::collection::vec((0u8..4, 0u32..2, 0u64..1000, -50i64..50), 0..6),
            ),
            1..16,
        ),
    ) {
        let mut seed = Database::column_store();
        for (name, rows) in [("left", seed_rows.0), ("right", seed_rows.1)] {
            let t = seed.create_table(TableSchema::new(
                name,
                vec![
                    ColumnDef::new("n", DataType::Int),
                    ColumnDef::new("x", DataType::Double),
                    ColumnDef::host_only("s", DataType::Str),
                ],
                vec![0],
            ));
            for i in 0..rows as i64 {
                seed.table_mut(t).insert(prop_row(i));
            }
        }
        let mut db = seed.clone();
        let mut store = SnapshotStore::new(&seed, if seven { 7 } else { 4 }, false);
        let mut held = vec![store.freeze()];
        let mut records = Vec::new();
        for (cut, ops) in bulks {
            let base: Vec<usize> = (0..2).map(|t| db.table(t).num_rows()).collect();
            let record = bulk(&mut db, records.len() as u64, |db| {
                for op in ops {
                    prop_mutate(db, op, &base);
                }
            });
            store.apply(&record);
            records.push(record);
            if cut {
                held.push(store.freeze());
            }
        }
        held.push(store.freeze());
        for snap in &held {
            let mut reference = seed.clone();
            for record in &records[..snap.records_applied() as usize] {
                record.clone().replay_into(&mut reference);
            }
            let frozen = snap.check_against(&reference);
            prop_assert!(frozen.is_ok(), "after {} records: {frozen:?}", snap.records_applied());
        }
        let last = held.last().expect("the final cut");
        prop_assert_eq!(last.records_applied(), records.len() as u64);
        prop_assert!(last.check_against(&db).is_ok());
    }
}
