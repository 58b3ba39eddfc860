//! The write-ahead log: framed bulk redo records and the group-commit writer.
//!
//! # File format
//!
//! ```text
//! [ magic "GPTXWAL1" (8 bytes) ][ epoch: u64 LE ]
//! [ frame ]*
//!
//! frame := [ payload len: u32 LE ][ crc32(payload): u32 LE ][ payload ]
//! payload := [ lsn: u64 LE ][ ShardDelta wire encoding ]
//! ```
//!
//! Each frame is appended with a single `write(2)` call, so a crash can only
//! tear the *tail* of the file: [`read_wal`] stops at the first frame whose
//! length runs past EOF, whose checksum mismatches, or whose LSN breaks the
//! strictly-increasing sequence, and reports everything before it as the
//! committed prefix. Dropping the torn tail is correct because a record is
//! only acknowledged as durable *after* its frame (and, per policy, its
//! fsync) completed — an incomplete frame was never promised to anyone.
//!
//! The `epoch` ties the log to the checkpoint it extends: the checkpoint and
//! log of one durability epoch carry the same token, and recovery ignores a
//! log whose epoch differs from the checkpoint's. This is what makes the
//! initialize/checkpoint sequences crash-safe — a crash after the new
//! checkpoint landed but before the old log was truncated leaves a
//! *mismatched-epoch* log on disk, whose stale records (which the snapshot
//! already contains, and whose LSNs may even collide with the new epoch's)
//! must not replay.

use gputx_storage::{Database, ShardDelta, WireError, WireReader, WireWriter};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file (format version 1).
pub const WAL_MAGIC: [u8; 8] = *b"GPTXWAL1";

/// When the group-commit writer forces its appends to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every bulk record: a resolved ticket is durable. The
    /// safest and slowest policy — one synchronous disk flush per bulk (still
    /// amortized over every transaction in the bulk, which is the whole point
    /// of bulk-granular logging).
    PerBulk,
    /// `fsync` every `n` records (and on checkpoint/shutdown): a crash can
    /// lose at most the last `n` bulks. The middle ground for workloads that
    /// tolerate a bounded redo window.
    EveryN(u32),
    /// Never `fsync` on append; the OS page cache decides when bytes reach
    /// the disk (an explicit [`WalWriter::sync`], checkpoint or clean
    /// shutdown still flushes). Fastest; a crash may lose recently committed
    /// bulks, but recovery still yields a consistent committed prefix.
    Async,
}

/// One bulk's redo record: the log sequence number plus the bulk's net
/// typed write-set in the dense [`ShardDelta`] representation.
#[derive(Debug, Clone, PartialEq)]
pub struct BulkLogRecord {
    /// Log sequence number: the first record after a checkpoint carries the
    /// checkpoint's `next_lsn`, and every following record increments by one.
    pub lsn: u64,
    /// The bulk's net effect: last-written value per field, inserted rows in
    /// application order (tagged 0..n per table), final delete flags.
    pub write_set: ShardDelta,
}

impl BulkLogRecord {
    /// Encode the record payload (no framing; the writer frames it).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.lsn);
        self.write_set.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode a payload produced by [`BulkLogRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload);
        let lsn = r.get_u64()?;
        let write_set = ShardDelta::decode(&mut r)?;
        r.expect_end()?;
        Ok(BulkLogRecord { lsn, write_set })
    }

    /// Apply the record to `db`, reproducing exactly what committing the
    /// original bulk did: scatter the typed cells, append the inserted rows
    /// through the insert buffers (applied in tag order with full index
    /// maintenance, the batched update of §3.2), and set the delete flags.
    pub fn replay_into(mut self, db: &mut Database) {
        self.write_set.merge_into(db);
        db.apply_insert_buffers();
    }
}

/// Appends framed [`BulkLogRecord`]s to a WAL file under an [`FsyncPolicy`].
///
/// Each record is written with one `write_all` of the complete frame, so a
/// torn write can only truncate the file tail — never interleave two frames.
///
/// # Failure poisoning
///
/// A failed append (or fsync) **poisons** the writer: the failing frame may
/// sit half-written at the tail, and a bulk whose record never landed has
/// already been applied to the live database, so any *later* record would be
/// built against state the log cannot reproduce — and appending it after the
/// torn bytes would make it unreachable to recovery anyway. A poisoned
/// writer therefore fails every subsequent append/sync (after best-effort
/// truncating the file back to its last intact frame) until a checkpoint
/// supersedes the log with a fresh snapshot and a fresh writer.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced: u32,
    records: u64,
    bytes: u64,
    syncs: u64,
    poisoned: bool,
    faults: Option<std::sync::Arc<gputx_faults::WalFaults>>,
}

impl WalWriter {
    /// Create (truncating any previous log) a WAL at `path`, stamped with
    /// the durability `epoch` that ties it to its checkpoint. The header is
    /// written and synced immediately, so a zero-record log is readable.
    /// The caller is responsible for fsyncing the containing directory so
    /// the new file's entry itself survives a crash.
    pub fn create(path: impl Into<PathBuf>, policy: FsyncPolicy, epoch: u64) -> io::Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&epoch.to_le_bytes())?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            path,
            policy,
            unsynced: 0,
            records: 0,
            bytes: (WAL_MAGIC.len() + 8) as u64,
            syncs: 0,
            poisoned: false,
            faults: None,
        })
    }

    /// Install a deterministic fault-decision stream. Each append/sync first
    /// consults the stream; an injected fault behaves exactly like the real
    /// I/O error it models (including poisoning the writer). The stream is
    /// shared via `Arc` so a fresh post-checkpoint writer continues it
    /// rather than replaying it from the start.
    pub fn set_faults(&mut self, faults: Option<std::sync::Arc<gputx_faults::WalFaults>>) {
        self.faults = faults;
    }

    fn poisoned_error() -> io::Error {
        io::Error::other(
            "WAL writer poisoned by an earlier append/sync failure; \
             checkpoint to start a fresh log epoch",
        )
    }

    /// Record a failure: best-effort truncate back to the last intact frame
    /// so the on-disk file stays a clean committed prefix, then refuse all
    /// further appends (see the type docs for why continuing would corrupt
    /// recovery).
    fn poison(&mut self) {
        self.poisoned = true;
        let _ = self.file.set_len(self.bytes);
    }

    /// True after an append/sync failure; only a fresh writer (checkpoint)
    /// clears the condition.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append one record and apply the fsync policy. When this returns under
    /// `PerBulk`, the record is on stable storage. A failure poisons the
    /// writer (see the type docs).
    pub fn append(&mut self, record: &BulkLogRecord) -> io::Result<()> {
        if self.poisoned {
            return Err(Self::poisoned_error());
        }
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&gputx_storage::wire::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        match self.faults.as_ref().and_then(|f| f.on_append()) {
            Some(gputx_faults::WalFault::AppendError) => {
                self.poison();
                return Err(io::Error::other("injected WAL append error"));
            }
            Some(gputx_faults::WalFault::ShortWrite) => {
                // Model a torn write: a prefix of the frame reaches the file,
                // then the append fails. `poison` truncates back to the last
                // intact frame, same as a real short write would be handled.
                let torn = frame.len() / 2;
                let _ = self.file.write_all(&frame[..torn]);
                self.poison();
                return Err(io::Error::other("injected WAL short write"));
            }
            _ => {}
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.poison();
            return Err(e);
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::PerBulk => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Async => {}
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage. A failed fsync
    /// poisons the writer — after `fsync` reports an error, the kernel may
    /// have already dropped the dirty pages, so retrying cannot be trusted
    /// to durably land the data.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.poisoned {
            return Err(Self::poisoned_error());
        }
        if self.unsynced > 0 {
            if self.faults.as_ref().and_then(|f| f.on_sync()).is_some() {
                self.poison();
                return Err(io::Error::other("injected WAL fsync error"));
            }
            if let Err(e) = self.file.sync_all() {
                self.poison();
                return Err(e);
            }
            self.syncs += 1;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Records appended over the writer's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written, including the header and frames.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Number of `fsync` calls issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Clean shutdown flushes even under `Async`; a crash obviously
        // doesn't, which is exactly the policy's documented trade-off.
        let _ = self.sync();
    }
}

/// Result of scanning a WAL file: the committed-prefix records plus whether
/// (and where) a torn tail was dropped.
#[derive(Debug)]
pub struct WalScan {
    /// The durability epoch stamped in the header (must match the
    /// checkpoint's for the records to be replayable).
    pub epoch: u64,
    /// Every record of the committed prefix, in LSN order.
    pub records: Vec<BulkLogRecord>,
    /// True when trailing bytes were dropped (torn frame, checksum mismatch
    /// or LSN discontinuity).
    pub torn_tail: bool,
    /// Bytes of the file covered by the committed prefix (header included).
    pub valid_bytes: u64,
}

/// Read a WAL file, returning the longest committed prefix of records. A
/// torn or corrupted tail is dropped, not an error; a missing/garbled header
/// *is* an error (that file was never a WAL).
pub fn read_wal(path: impl AsRef<Path>) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut buf)?;
    let header_len = WAL_MAGIC.len() + 8;
    if buf.len() < header_len || buf[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "missing WAL magic header",
        ));
    }
    let epoch = u64::from_le_bytes(
        buf[WAL_MAGIC.len()..header_len]
            .try_into()
            .expect("8 bytes"),
    );
    let mut records = Vec::new();
    let mut pos = header_len;
    let mut expected_lsn: Option<u64> = None;
    let mut torn_tail = false;
    while pos < buf.len() {
        // Frame header: payload length + checksum.
        if buf.len() - pos < 8 {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if buf.len() - pos - 8 < len {
            torn_tail = true;
            break;
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        if gputx_storage::wire::crc32(payload) != crc {
            torn_tail = true;
            break;
        }
        let record = match BulkLogRecord::decode(payload) {
            Ok(record) => record,
            Err(_) => {
                torn_tail = true;
                break;
            }
        };
        if let Some(expected) = expected_lsn {
            if record.lsn != expected {
                torn_tail = true;
                break;
            }
        }
        expected_lsn = Some(record.lsn + 1);
        pos += 8 + len;
        records.push(record);
    }
    Ok(WalScan {
        epoch,
        records,
        torn_tail,
        valid_bytes: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataType, ShardView, StorageView, Value};

    /// A log file path in a directory removed when the guard drops.
    fn tmp(name: &str) -> (TestDir, PathBuf) {
        let dir = TestDir::new(&format!("wal-test-{name}"));
        let path = dir.path().join("test.wal");
        (dir, path)
    }

    fn sample_db() -> (Database, u32) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Double),
            ],
            vec![0],
        ));
        for i in 0..4i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Double(0.0)]);
        }
        (db, t)
    }

    fn sample_record(db: &Database, t: u32, lsn: u64) -> BulkLogRecord {
        let mut delta = ShardDelta::default();
        {
            let mut view = ShardView::new(db, &mut delta);
            view.set_f64(t, 1, 1, lsn as f64 + 0.5);
            view.buffer_insert(t, 0, vec![Value::Int(100 + lsn as i64), Value::Double(1.0)]);
            view.mark_deleted(t, 0);
        }
        BulkLogRecord {
            lsn,
            write_set: delta,
        }
    }

    #[test]
    fn record_encode_decode_round_trip() {
        let (db, t) = sample_db();
        let record = sample_record(&db, t, 7);
        let payload = record.encode();
        let decoded = BulkLogRecord::decode(&payload).expect("decodes");
        assert_eq!(decoded, record);
    }

    #[test]
    fn append_and_read_back() {
        let (db, t) = sample_db();
        let (_dir, path) = tmp("roundtrip");
        let mut wal = WalWriter::create(&path, FsyncPolicy::PerBulk, 7).expect("create");
        for lsn in 0..3 {
            wal.append(&sample_record(&db, t, lsn)).expect("append");
        }
        assert_eq!(wal.records(), 3);
        assert_eq!(wal.syncs(), 3, "PerBulk syncs once per append");
        drop(wal);
        let scan = read_wal(&path).expect("read");
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].lsn, 2);
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let (db, t) = sample_db();
        let (_dir, path) = tmp("everyn");
        let mut wal = WalWriter::create(&path, FsyncPolicy::EveryN(4), 7).expect("create");
        for lsn in 0..10 {
            wal.append(&sample_record(&db, t, lsn)).expect("append");
        }
        assert_eq!(wal.syncs(), 2, "10 records at EveryN(4) = syncs at 4 and 8");
        wal.sync().expect("final sync");
        assert_eq!(wal.syncs(), 3);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let (db, t) = sample_db();
        let (_dir, path) = tmp("torn");
        let mut wal = WalWriter::create(&path, FsyncPolicy::Async, 7).expect("create");
        let header = WAL_MAGIC.len() + 8; // magic + epoch
        let mut ends = vec![header as u64];
        for lsn in 0..3 {
            wal.append(&sample_record(&db, t, lsn)).expect("append");
            ends.push(wal.bytes_written());
        }
        drop(wal);
        let full = std::fs::read(&path).expect("read file");
        for cut in header..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write truncated");
            let scan = read_wal(&path).expect("scan");
            let expected = ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            assert_eq!(
                scan.records.len(),
                expected,
                "cut at {cut}: longest committed prefix"
            );
            assert_eq!(scan.torn_tail, cut as u64 != ends[expected]);
        }
    }

    #[test]
    fn corrupted_byte_drops_the_tail() {
        let (db, t) = sample_db();
        let (_dir, path) = tmp("corrupt");
        let mut wal = WalWriter::create(&path, FsyncPolicy::PerBulk, 7).expect("create");
        let mut first_end = 0;
        for lsn in 0..2 {
            wal.append(&sample_record(&db, t, lsn)).expect("append");
            if lsn == 0 {
                first_end = wal.bytes_written() as usize;
            }
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one payload byte of the second record.
        let target = first_end + 9;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let scan = read_wal(&path).expect("scan");
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1, "only the intact record survives");
    }

    #[test]
    fn replay_reproduces_the_mutations() {
        let (db0, t) = sample_db();
        let record = sample_record(&db0, t, 0);
        // Reference: the same mutations applied directly.
        let mut direct = db0.clone();
        direct.table_mut(t).set_f64(1, 1, 0.5);
        direct
            .table_mut(t)
            .buffered_insert(0, vec![Value::Int(100), Value::Double(1.0)]);
        direct.table_mut(t).delete(0);
        direct.apply_insert_buffers();
        let mut replayed = db0.clone();
        record.replay_into(&mut replayed);
        assert!(replayed == direct);
    }

    #[test]
    fn poisoned_writer_refuses_further_work_and_keeps_a_clean_prefix() {
        let (db, t) = sample_db();
        let (_dir, path) = tmp("poison");
        let mut wal = WalWriter::create(&path, FsyncPolicy::Async, 7).expect("create");
        wal.append(&sample_record(&db, t, 0)).expect("append");
        wal.append(&sample_record(&db, t, 1)).expect("append");
        assert!(!wal.is_poisoned());
        wal.poison();
        assert!(wal.is_poisoned());
        assert!(wal.append(&sample_record(&db, t, 2)).is_err());
        assert!(wal.sync().is_err());
        assert_eq!(wal.records(), 2, "the failed append is not counted");
        drop(wal);
        let scan = read_wal(&path).expect("scan");
        assert!(
            !scan.torn_tail,
            "poison truncates back to the intact prefix"
        );
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn missing_magic_is_an_error() {
        let (_dir, path) = tmp("nomagic");
        std::fs::write(&path, b"definitely not a wal").expect("write");
        assert!(read_wal(&path).is_err());
    }
}
