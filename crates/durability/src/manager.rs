//! The engine-facing durability handle and crash recovery.
//!
//! A durability *directory* holds exactly two files:
//!
//! * `gputx.ckpt` — the latest checkpoint (atomic snapshot + `next_lsn`);
//! * `gputx.wal` — redo records for every bulk committed since.
//!
//! [`Durability::create`] writes an initial checkpoint of the starting
//! database and opens a fresh log, so [`recover`] is always self-contained:
//! checkpoint plus log prefix reproduce the committed state with no
//! out-of-band inputs. [`Durability::checkpoint`] re-snapshots and truncates
//! the log (snapshot first — a crash between the two steps recovers from the
//! new snapshot and *skips* the stale log records below its `next_lsn`,
//! whose inserts would otherwise apply twice; see `docs/durability.md` for
//! why the ordering is snapshot → truncate and never the reverse).

use crate::capture::WriteCapture;
use crate::checkpoint;
use crate::checkpoint::{read_checkpoint, write_checkpoint};
use crate::wal::{read_wal, BulkLogRecord, FsyncPolicy, WalWriter};
use gputx_storage::Database;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the checkpoint within a durability directory.
pub const CHECKPOINT_FILE: &str = "gputx.ckpt";
/// File name of the write-ahead log within a durability directory.
pub const WAL_FILE: &str = "gputx.wal";

/// Durability configuration carried by `gputx-core`'s `EngineConfig`.
///
/// Disabled by default (`dir: None`): the engines behave exactly as before.
/// Point `dir` at a directory to make every committed bulk emit a redo
/// record, with [`FsyncPolicy`] picking the durability/throughput trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory for the checkpoint and WAL; `None` disables durability.
    pub dir: Option<PathBuf>,
    /// When appended records are forced to stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            fsync: FsyncPolicy::PerBulk,
        }
    }
}

impl DurabilityConfig {
    /// Durability disabled (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Log to `dir` with the default `PerBulk` fsync policy.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: Some(dir.into()),
            fsync: FsyncPolicy::PerBulk,
        }
    }

    /// Builder-style: pick the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// True when a directory is configured.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// Cumulative cost accounting of the durability path, for the benchmark's
/// `durability.*` metrics and operator dashboards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityStats {
    /// Bulk records appended.
    pub records: u64,
    /// Bytes appended to the log (header + frames).
    pub wal_bytes: u64,
    /// `fsync` calls issued by the log writer.
    pub syncs: u64,
    /// Wall-clock seconds spent capturing write-sets, encoding, appending
    /// and fsyncing — the logging overhead a bulk's commit path pays.
    pub log_secs: f64,
}

/// The engine-facing durability handle: owns the WAL writer and the
/// checkpoint/recovery lifecycle of one durability directory.
///
/// # Examples
///
/// ```
/// use gputx_durability::{recover, Durability, FsyncPolicy};
/// use gputx_storage::schema::{ColumnDef, TableSchema};
/// use gputx_storage::{DataItemId, Database, DataType, Value};
/// use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry, TxnSignature};
///
/// // A one-table database and a one-procedure registry.
/// let mut db = Database::column_store();
/// let t = db.create_table(TableSchema::new(
///     "counters",
///     vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("v", DataType::Int)],
///     vec![0],
/// ));
/// db.table_mut(t).insert(vec![Value::Int(0), Value::Int(0)]);
/// let mut reg = ProcedureRegistry::new();
/// reg.register(ProcedureDef::new(
///     "bump",
///     move |_p, _| vec![BasicOp::write(DataItemId::new(t, 0, 1))],
///     |_p| Some(0),
///     move |ctx| {
///         let v = ctx.read(t, 0, 1).as_int();
///         ctx.write(t, 0, 1, Value::Int(v + 1));
///     },
/// ));
///
/// let dir = std::env::temp_dir().join(format!("gputx-doc-{}", std::process::id()));
/// let mut durability = Durability::create(&dir, FsyncPolicy::PerBulk, &db).unwrap();
///
/// // One logged bulk: capture → execute → commit the redo record.
/// let bulk = vec![TxnSignature::new(0, 0, vec![])];
/// let capture = durability.begin_bulk(&mut db);
/// for sig in &bulk {
///     reg.execute(sig, &mut db);
/// }
/// db.apply_insert_buffers();
/// durability.commit_bulk(capture, &mut db).unwrap();
///
/// // Crash recovery: checkpoint + log reproduce the committed state exactly.
/// let recovered = recover(&dir).unwrap();
/// assert!(recovered.db == db);
/// assert_eq!(recovered.replayed, 1);
/// ```
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    fsync: FsyncPolicy,
    wal: WalWriter,
    epoch: u64,
    next_lsn: u64,
    log_secs: f64,
    faults: Option<std::sync::Arc<gputx_faults::WalFaults>>,
}

/// A fresh durability-epoch token. Epochs tie a checkpoint to the WAL
/// written alongside it; recovery refuses to replay a log whose epoch does
/// not match the checkpoint's, which is what makes the
/// checkpoint-then-truncate sequence crash-safe (a crash in between leaves
/// a *previous-epoch* log next to the new snapshot — its records, already
/// folded into the snapshot and possibly LSN-colliding with the new epoch,
/// must not replay). Wall-clock nanoseconds make collisions with any stale
/// on-disk epoch practically impossible; the value is a token, not a
/// timestamp — though replication additionally leans on its coarse
/// monotonicity: a primary promoted *later* carries a numerically larger
/// epoch, which is what lets followers fence a stale primary by comparison.
pub fn fresh_epoch() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        | 1 // never 0, so a zeroed stale header can't collide
}

impl Durability {
    /// Initialize a durability directory for a database at its current state:
    /// writes the initial checkpoint and opens a fresh (truncated) log, both
    /// stamped with a new epoch. Any previous contents of the directory are
    /// superseded — recover *before* creating if the directory may hold
    /// state worth keeping. Crash-safe at every point: until the new
    /// checkpoint's rename lands, recovery sees the old pair; after it, the
    /// old log's mismatched epoch keeps its stale records out of replay.
    pub fn create(dir: impl Into<PathBuf>, fsync: FsyncPolicy, db: &Database) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let epoch = fresh_epoch();
        let wal_path = dir.join(WAL_FILE);
        write_checkpoint(dir.join(CHECKPOINT_FILE), db, 0, epoch)?;
        let wal = WalWriter::create(&wal_path, fsync, epoch)?;
        // The WAL's data is synced by its creation; its *directory entry*
        // needs a directory fsync, or a crash could drop the whole file —
        // including records already acknowledged durable — without a trace.
        checkpoint::fsync_dir(&wal_path)?;
        Ok(Durability {
            dir,
            fsync,
            wal,
            epoch,
            next_lsn: 0,
            log_secs: 0.0,
            faults: None,
        })
    }

    /// Install the fault plane's WAL decision stream on this manager. The
    /// current writer and every fresh writer opened by later checkpoints
    /// share the same stream, so one seeded schedule spans heals.
    pub fn set_faults(&mut self, injector: &gputx_faults::FaultInjector) {
        let stream = std::sync::Arc::new(injector.wal("wal"));
        self.wal.set_faults(Some(stream.clone()));
        self.faults = Some(stream);
    }

    /// [`Durability::create`] from a [`DurabilityConfig`]; `Ok(None)` when
    /// durability is disabled.
    pub fn from_config(config: &DurabilityConfig, db: &Database) -> io::Result<Option<Self>> {
        match &config.dir {
            Some(dir) => Self::create(dir, config.fsync, db).map(Some),
            None => Ok(None),
        }
    }

    /// Begin capturing a bulk: arm the storage layer's dirty-field tracking
    /// and snapshot the row counts. Call immediately before executing the
    /// bulk; every mutation between `begin_bulk` and [`Durability::
    /// commit_bulk`] lands in the bulk's record.
    pub fn begin_bulk(&self, db: &mut Database) -> WriteCapture {
        WriteCapture::begin(db)
    }

    /// Commit a bulk's redo record: read the net write-set out of the
    /// post-commit database (insert buffers applied), append it to the log
    /// and apply the fsync policy. Returns the record's LSN. When this
    /// returns under [`FsyncPolicy::PerBulk`], the bulk is durable.
    pub fn commit_bulk(&mut self, capture: WriteCapture, db: &mut Database) -> io::Result<u64> {
        let record = BulkLogRecord {
            lsn: self.next_lsn,
            write_set: capture.finish(db),
        };
        self.append_record(&record)
    }

    /// Append an already-assembled redo record (its `lsn` must be this
    /// handle's [`Durability::next_lsn`]) and apply the fsync policy.
    /// Returns the record's LSN. This is the lower-level half of
    /// [`Durability::commit_bulk`] for callers that build the record once and
    /// feed it to several sinks — e.g. the WAL *and* a replication fan-out.
    pub fn append_record(&mut self, record: &BulkLogRecord) -> io::Result<u64> {
        let start = Instant::now();
        assert_eq!(
            record.lsn, self.next_lsn,
            "redo record LSN must continue the log sequence"
        );
        self.wal.append(record)?;
        self.next_lsn += 1;
        self.log_secs += start.elapsed().as_secs_f64();
        Ok(record.lsn)
    }

    /// Take a checkpoint of `db` (which must reflect every bulk logged so
    /// far) and truncate the log. Snapshot first (under a new epoch),
    /// truncate second: a crash in between recovers from the fresh
    /// snapshot, and the old log's mismatched epoch keeps its stale records
    /// out of replay. (No log sync is needed — the snapshot supersedes
    /// every existing record.)
    ///
    /// This is also the recovery path after a *poisoned* log writer (a
    /// failed append/sync): the snapshot captures the full live state,
    /// including bulks whose records never landed, and the fresh writer
    /// starts a clean epoch.
    pub fn checkpoint(&mut self, db: &Database) -> io::Result<()> {
        let epoch = fresh_epoch();
        let wal_path = self.dir.join(WAL_FILE);
        write_checkpoint(self.dir.join(CHECKPOINT_FILE), db, self.next_lsn, epoch)?;
        self.wal = WalWriter::create(&wal_path, self.fsync, epoch)?;
        self.wal.set_faults(self.faults.clone());
        checkpoint::fsync_dir(&wal_path)?;
        self.epoch = epoch;
        Ok(())
    }

    /// Supervised heal after a poisoned log writer: `records_absorbed`
    /// logically-committed records whose appends never landed (their effects
    /// are already in `db`) are absorbed into a fresh checkpoint by
    /// advancing the LSN past them — so downstream consumers of the same
    /// record stream (replication, analytics) stay in step — and a fresh
    /// log epoch is opened. On success the manager accepts appends again.
    pub fn heal(&mut self, db: &Database, records_absorbed: u64) -> io::Result<()> {
        let saved = self.next_lsn;
        self.next_lsn += records_absorbed;
        // On failure, roll the LSN back so the log sequence stays in step
        // with replication/analytics consumers that never saw the record.
        match self.checkpoint(db) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.next_lsn = saved;
                Err(e)
            }
        }
    }

    /// Force every appended record to stable storage regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN the next committed bulk will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// True when the log writer was poisoned by an append/sync failure —
    /// every further [`Durability::commit_bulk`] fails until a
    /// [`Durability::checkpoint`] starts a fresh epoch.
    pub fn log_poisoned(&self) -> bool {
        self.wal.is_poisoned()
    }

    /// Cost accounting so far.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            records: self.wal.records(),
            wal_bytes: self.wal.bytes_written(),
            syncs: self.wal.syncs(),
            log_secs: self.log_secs,
        }
    }
}

/// Outcome of a recovery: the reconstructed database plus what the log held.
#[derive(Debug)]
pub struct Recovery {
    /// The committed-prefix state: checkpoint plus every intact log record.
    pub db: Database,
    /// Number of bulk records replayed on top of the checkpoint.
    pub replayed: u64,
    /// True when a torn/corrupt log tail was detected and dropped.
    pub torn_tail: bool,
    /// LSN the next record would carry — the resume point for a new
    /// [`Durability`] epoch.
    pub next_lsn: u64,
}

/// Recover the committed state from a durability directory (see
/// [`recover_from`] for the file-level variant and the [`Durability`]
/// example for an end-to-end round trip).
pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovery> {
    let dir = dir.as_ref();
    recover_from(&dir.join(CHECKPOINT_FILE), &dir.join(WAL_FILE))
}

/// Recover from an explicit checkpoint + WAL pair: load the snapshot, then
/// replay every intact log record whose LSN continues the checkpoint's
/// sequence. A torn tail (incomplete frame, checksum mismatch, LSN gap) ends
/// the replay; everything before it is reproduced bit-identically.
///
/// A log whose *epoch* differs from the checkpoint's is ignored entirely:
/// it predates the snapshot (a crash hit the window between writing the new
/// checkpoint and truncating the old log), so its records are already folded
/// into the snapshot and must not replay. The `lsn < next_lsn` skip below is
/// a second line of defense for manually assembled pairs.
pub fn recover_from(checkpoint: &Path, wal: &Path) -> io::Result<Recovery> {
    let ckpt = read_checkpoint(checkpoint)?;
    let mut db = ckpt.db;
    let mut next_lsn = ckpt.next_lsn;
    let mut replayed = 0u64;
    let scan = match read_wal(wal) {
        Ok(scan) => scan,
        // A durability directory always has a log (create writes it before
        // any record), but recovery from a manually assembled pair tolerates
        // its absence: the checkpoint alone is a consistent state.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Recovery {
                db,
                replayed: 0,
                torn_tail: false,
                next_lsn,
            })
        }
        Err(e) => return Err(e),
    };
    if scan.epoch != ckpt.epoch {
        // Stale previous-epoch log next to a fresh snapshot: nothing in it
        // is replayable (and its LSNs may collide with the new epoch's).
        return Ok(Recovery {
            db,
            replayed: 0,
            torn_tail: false,
            next_lsn,
        });
    }
    let torn_tail = scan.torn_tail;
    for record in scan.records {
        if record.lsn < next_lsn {
            // Already folded into the checkpoint (crash between snapshot and
            // log truncation) — replaying would be redundant but *not*
            // harmless for non-idempotent inserts, so skip.
            continue;
        }
        if record.lsn != next_lsn {
            // A gap above the checkpoint horizon: everything past it is
            // unreachable (should have been caught by the scan; double
            // protection for manually assembled pairs).
            break;
        }
        record.replay_into(&mut db);
        next_lsn += 1;
        replayed += 1;
    }
    Ok(Recovery {
        db,
        replayed,
        torn_tail,
        next_lsn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataItemId, DataType, Value};
    use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry, TxnSignature};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gputx-mgr-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn setup(rows: i64) -> (Database, ProcedureRegistry, u32) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
            ],
            vec![0],
        ));
        db.create_index(t, "pk", vec![0], true);
        for i in 0..rows {
            db.insert_indexed(t, vec![Value::Int(i), Value::Double(0.0)]);
        }
        let mut reg = ProcedureRegistry::new();
        reg.register(ProcedureDef::new(
            "deposit",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let bal = ctx.read(t, row, 1).as_double();
                ctx.write(t, row, 1, Value::Double(bal + 1.0));
            },
        ));
        reg.register(ProcedureDef::new(
            "open",
            move |p, _| {
                vec![BasicOp::write(DataItemId::whole_row(
                    t,
                    p[0].as_int() as u64,
                ))]
            },
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let id = ctx.param_int(0);
                ctx.insert(t, vec![Value::Int(id), Value::Double(0.5)]);
            },
        ));
        (db, reg, t)
    }

    /// Run `bulks` logged bulks serially; returns the final live state.
    fn run_bulks(
        durability: &mut Durability,
        db: &mut Database,
        reg: &ProcedureRegistry,
        bulks: usize,
        rows: i64,
    ) {
        let mut next_id = 0u64;
        for b in 0..bulks {
            // Fresh primary keys for inserts, unique across run_bulks calls.
            let fresh_key = 1000 + db.table(0).num_rows() as i64;
            let sigs: Vec<TxnSignature> = (0..6)
                .map(|i| {
                    let id = next_id;
                    next_id += 1;
                    if i == 5 {
                        TxnSignature::new(id, 1, vec![Value::Int(fresh_key)])
                    } else {
                        TxnSignature::new(
                            id,
                            0,
                            vec![Value::Int((id as i64 * 7 + b as i64) % rows)],
                        )
                    }
                })
                .collect();
            let capture = durability.begin_bulk(db);
            for sig in &sigs {
                reg.execute(sig, db);
            }
            db.apply_insert_buffers();
            durability.commit_bulk(capture, db).expect("log");
        }
    }

    #[test]
    fn create_log_recover_round_trip() {
        let dir = tmp_dir("roundtrip");
        let (mut db, reg, _t) = setup(16);
        let mut durability = Durability::create(&dir, FsyncPolicy::PerBulk, &db).expect("create");
        run_bulks(&mut durability, &mut db, &reg, 5, 16);
        assert_eq!(durability.stats().records, 5);
        assert!(durability.stats().wal_bytes > 0);
        drop(durability);
        let recovery = recover(&dir).expect("recover");
        assert_eq!(recovery.replayed, 5);
        assert!(!recovery.torn_tail);
        assert!(
            recovery.db == db,
            "recovered state must equal the live state"
        );
    }

    #[test]
    fn checkpoint_truncates_and_recovery_resumes_from_it() {
        let dir = tmp_dir("checkpoint");
        let (mut db, reg, _t) = setup(16);
        let mut durability = Durability::create(&dir, FsyncPolicy::EveryN(2), &db).expect("create");
        run_bulks(&mut durability, &mut db, &reg, 3, 16);
        durability.checkpoint(&db).expect("checkpoint");
        assert_eq!(durability.stats().records, 0, "fresh log after checkpoint");
        run_bulks(&mut durability, &mut db, &reg, 2, 16);
        durability.sync().expect("sync");
        drop(durability);
        let recovery = recover(&dir).expect("recover");
        assert_eq!(recovery.replayed, 2, "only post-checkpoint records replay");
        assert_eq!(recovery.next_lsn, 5);
        assert!(recovery.db == db);
    }

    #[test]
    fn torn_tail_recovers_the_committed_prefix() {
        let dir = tmp_dir("torn");
        let (mut db, reg, _t) = setup(16);
        let db0 = db.clone();
        let mut durability = Durability::create(&dir, FsyncPolicy::PerBulk, &db).expect("create");
        // Track the state after every bulk so each prefix has a reference.
        let mut states = vec![db.clone()];
        for _ in 0..4 {
            let before_records = durability.stats().records;
            run_bulks(&mut durability, &mut db, &reg, 1, 16);
            assert_eq!(durability.stats().records, before_records + 1);
            states.push(db.clone());
        }
        drop(durability);
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).expect("read wal");
        // Chop the log at a byte offset inside the third record.
        let scan = read_wal(&wal_path).expect("scan");
        assert_eq!(scan.records.len(), 4);
        let cut = (scan.valid_bytes as usize) - full.len() / 3;
        std::fs::write(&wal_path, &full[..cut]).expect("truncate");
        let recovery = recover(&dir).expect("recover");
        assert!(recovery.replayed < 4);
        assert!(
            recovery.db == states[recovery.replayed as usize],
            "recovery must land exactly on the committed-prefix state"
        );
        // Restarting durability from the recovered state starts a new epoch.
        let mut durability =
            Durability::create(&dir, FsyncPolicy::PerBulk, &recovery.db).expect("re-create");
        let mut db2 = recovery.db;
        run_bulks(&mut durability, &mut db2, &reg, 1, 16);
        drop(durability);
        let again = recover(&dir).expect("recover again");
        assert_eq!(again.replayed, 1);
        assert!(again.db == db2);
        assert!(db2 != db0, "sanity: work actually happened");
    }

    #[test]
    fn stale_previous_epoch_log_is_not_replayed_onto_a_fresh_checkpoint() {
        // The create/checkpoint crash window: the new checkpoint lands but
        // the crash hits before the old WAL is truncated. The stale log's
        // records are already folded into the snapshot (and their LSNs can
        // collide with the new epoch's numbering, both starting at 0 after
        // a fresh create) — replaying them would double-apply inserts and
        // updates. The epoch stamp makes them unreachable.
        let dir = tmp_dir("stale-epoch");
        let (mut db, reg, _t) = setup(16);
        let mut durability = Durability::create(&dir, FsyncPolicy::PerBulk, &db).expect("create");
        run_bulks(&mut durability, &mut db, &reg, 3, 16);
        drop(durability);
        let stale_wal = std::fs::read(dir.join(WAL_FILE)).expect("read old wal");
        // Simulated restart that crashed mid-create: the new checkpoint (of
        // the current state) is written, but the old log survives.
        drop(Durability::create(&dir, FsyncPolicy::PerBulk, &db).expect("re-create"));
        std::fs::write(dir.join(WAL_FILE), &stale_wal).expect("restore stale wal");
        let recovery = recover(&dir).expect("recover");
        assert_eq!(
            recovery.replayed, 0,
            "previous-epoch records must not replay onto the new snapshot"
        );
        assert!(!recovery.torn_tail);
        assert!(
            recovery.db == db,
            "recovery must land on the snapshot state, not a double-applied one"
        );
    }

    #[test]
    fn from_config_respects_disabled() {
        let (db, _reg, _t) = setup(2);
        assert!(Durability::from_config(&DurabilityConfig::disabled(), &db)
            .expect("ok")
            .is_none());
        let dir = tmp_dir("fromcfg");
        let config = DurabilityConfig::at(&dir).with_fsync(FsyncPolicy::Async);
        let durability = Durability::from_config(&config, &db)
            .expect("ok")
            .expect("enabled");
        assert_eq!(durability.next_lsn(), 0);
        assert!(config.enabled());
        assert!(!DurabilityConfig::default().enabled());
    }
}
