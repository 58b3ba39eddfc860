//! Checkpoints: atomic whole-database snapshots that truncate the log.
//!
//! # File format
//!
//! ```text
//! [ magic "GPTXCKP1" (8 bytes) ]
//! [ payload len: u64 LE ][ crc32(payload): u32 LE ][ payload ]
//! payload := [ epoch: u64 LE ][ next_lsn: u64 LE ][ Database wire encoding ]
//! ```
//!
//! The `epoch` ties the snapshot to the WAL written alongside it; recovery
//! only replays a log carrying the same token (see `wal.rs` for why).
//!
//! A checkpoint is written to a temporary file, fsynced, and renamed over the
//! previous checkpoint — readers therefore always see either the old snapshot
//! or the new one, never a half-written file, and a crash mid-checkpoint
//! recovers from the old snapshot plus the still-untruncated log.

use gputx_storage::wire::crc32;
use gputx_storage::{Database, WireReader, WireWriter};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint file (format version 1).
pub const CKPT_MAGIC: [u8; 8] = *b"GPTXCKP1";

/// A loaded checkpoint: the snapshot plus the LSN the next WAL record after
/// it must carry.
#[derive(Debug)]
pub struct Checkpoint {
    /// The database exactly as it was when the checkpoint was taken.
    pub db: Database,
    /// Durability epoch tying this snapshot to its WAL.
    pub epoch: u64,
    /// LSN of the first log record that post-dates this snapshot.
    pub next_lsn: u64,
}

/// Persist a directory's entries (new files, renames) so they survive a
/// crash — fsyncing file *data* does not persist the directory entry that
/// names the file. No-op on paths without a parent component.
pub(crate) fn fsync_dir(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Write a checkpoint of `db` to `path` atomically (temp file + fsync +
/// rename + directory fsync). `next_lsn` is the LSN the first WAL record
/// after this snapshot will carry; `epoch` is the durability epoch shared
/// with that WAL.
pub fn write_checkpoint(
    path: impl AsRef<Path>,
    db: &Database,
    next_lsn: u64,
    epoch: u64,
) -> io::Result<()> {
    let path = path.as_ref();
    let mut w = WireWriter::new();
    w.put_u64(epoch);
    w.put_u64(next_lsn);
    db.encode_into(&mut w);
    let payload = w.into_bytes();

    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&CKPT_MAGIC)?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(&crc32(&payload).to_le_bytes())?;
        file.write_all(&payload)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the containing directory.
    fsync_dir(path)?;
    Ok(())
}

/// Read a checkpoint written by [`write_checkpoint`]. Unlike a WAL tail, a
/// checkpoint is written atomically, so any corruption here is a hard error —
/// there is no prefix to salvage.
pub fn read_checkpoint(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut buf)?;
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if buf.len() < 20 || buf[..8] != CKPT_MAGIC {
        return Err(invalid("missing checkpoint magic header"));
    }
    let len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;
    let crc = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    if buf.len() - 20 != len {
        return Err(invalid("checkpoint payload length mismatch"));
    }
    let payload = &buf[20..];
    if crc32(payload) != crc {
        return Err(invalid("checkpoint checksum mismatch"));
    }
    let mut r = WireReader::new(payload);
    let epoch = r.get_u64().map_err(|e| invalid(&e.to_string()))?;
    let next_lsn = r.get_u64().map_err(|e| invalid(&e.to_string()))?;
    let db = Database::decode(&mut r).map_err(|e| invalid(&e.to_string()))?;
    r.expect_end().map_err(|e| invalid(&e.to_string()))?;
    Ok(Checkpoint {
        db,
        epoch,
        next_lsn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use gputx_storage::index::IndexKey;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataType, StorageLayout, Value};
    use std::path::PathBuf;

    /// A checkpoint path in a directory removed when the guard drops.
    fn tmp(name: &str) -> (TestDir, PathBuf) {
        let dir = TestDir::new(&format!("ckpt-test-{name}"));
        let path = dir.path().join("test.ckpt");
        (dir, path)
    }

    fn populated_db(layout: StorageLayout) -> Database {
        let mut db = Database::new(layout);
        let t = db.create_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
                ColumnDef::host_only("name", DataType::Str),
            ],
            vec![0],
        ));
        db.create_index(t, "pk", vec![0], true);
        db.create_index(t, "by_name", vec![2], false);
        for i in 0..50i64 {
            db.insert_indexed(
                t,
                vec![
                    Value::Int(i),
                    Value::Double(i as f64 * 1.5),
                    Value::Str(format!("name-{}", i % 7)),
                ],
            );
        }
        db.table_mut(t).delete(3);
        db.table_mut(t).set(5, 2, &Value::Str("rewritten".into()));
        db
    }

    #[test]
    fn round_trip_both_layouts() {
        let long_name = "a name too long to keep inline in an index key";
        for (i, layout) in [StorageLayout::Column, StorageLayout::Row]
            .into_iter()
            .enumerate()
        {
            let mut db = populated_db(layout);
            // A spilled (long) non-unique key holding several rows.
            let t = db.table_id("accounts").expect("table exists");
            for id in [100i64, 101, 102] {
                db.insert_indexed(
                    t,
                    vec![
                        Value::Int(id),
                        Value::Double(0.0),
                        Value::Str(long_name.into()),
                    ],
                );
            }
            let (_dir, path) = tmp(&format!("roundtrip{i}"));
            write_checkpoint(&path, &db, 42, 7).expect("write");
            let ckpt = read_checkpoint(&path).expect("read");
            assert_eq!(ckpt.next_lsn, 42);
            assert!(ckpt.db == db, "{layout:?}: snapshot must equal the source");
            // Index handles resolved pre-checkpoint stay valid post-decode.
            let pk = ckpt.db.index_id(t, "pk").expect("index exists");
            assert_eq!(
                ckpt.db.lookup_unique_id(pk, &IndexKey::single(5i64)),
                Some(5)
            );
            // Non-unique keys keep their rows in insertion order.
            let by_name = ckpt.db.index_id(t, "by_name").expect("index exists");
            assert_eq!(
                ckpt.db.lookup_id(by_name, &IndexKey::single(long_name)),
                &[50, 51, 52]
            );
            let name_2 = IndexKey::single("name-2");
            assert_eq!(ckpt.db.lookup_id(by_name, &name_2).len(), 7);
            assert_eq!(
                ckpt.db.lookup_id(by_name, &name_2),
                db.lookup_id(by_name, &name_2)
            );
        }
    }

    #[test]
    fn rewrite_replaces_previous_checkpoint() {
        let mut db = populated_db(StorageLayout::Column);
        let (_dir, path) = tmp("rewrite");
        write_checkpoint(&path, &db, 1, 7).expect("write v1");
        let t = db.table_id("accounts").unwrap();
        db.table_mut(t).set(0, 1, &Value::Double(999.0));
        write_checkpoint(&path, &db, 9, 8).expect("write v2");
        let ckpt = read_checkpoint(&path).expect("read");
        assert_eq!(ckpt.next_lsn, 9);
        assert_eq!(ckpt.db.table(t).get(0, 1), Value::Double(999.0));
    }

    #[test]
    fn corruption_is_a_hard_error() {
        let db = populated_db(StorageLayout::Column);
        let (_dir, path) = tmp("corrupt");
        write_checkpoint(&path, &db, 0, 7).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corrupted");
        assert!(read_checkpoint(&path).is_err());
        // Truncation too.
        let full = {
            write_checkpoint(&path, &db, 0, 7).expect("rewrite");
            std::fs::read(&path).expect("read")
        };
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        assert!(read_checkpoint(&path).is_err());
    }
}
