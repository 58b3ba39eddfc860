//! The engine-facing analytics endpoint.
//!
//! An [`AnalyticsSession`] is the handle `EngineBuilder::analytics()` (in
//! `gputx-core`) clones into the engine: the engine's group-commit point calls
//! [`publish`](AnalyticsSession::publish) with every committed
//! [`BulkLogRecord`] — the same record the WAL appends and the replication
//! hub ships — while any number of scanner threads hold their own clones and
//! call [`snapshot`](AnalyticsSession::snapshot) whenever they want a fresh
//! consistent cut.
//!
//! Update propagation (`publish`) runs inline at the group-commit point and
//! only replays the redo record into the mirror plus marks dirty chunks;
//! the chunk rebuild cost is paid by the *scanner* at cut time. Because the
//! session is an `Arc` shared by engine and scanners, it — and every
//! snapshot cut from it — outlives engine shutdown.

use crate::snapshot::SnapshotHandle;
use crate::store::{SnapshotStore, StoreStats, DEFAULT_CHUNK_ROWS};
use gputx_durability::BulkLogRecord;
use gputx_storage::Database;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for an [`AnalyticsSession`].
#[derive(Debug, Clone)]
pub struct AnalyticsConfig {
    /// Rows per copy-on-write chunk (and snapshot access granularity).
    /// Smaller chunks mean finer dirty tracking but more `Arc` overhead.
    pub chunk_rows: usize,
    /// Keep a copy of every published record so verifiers can serially
    /// replay the exact committed prefix a snapshot froze. Off by default —
    /// it grows without bound and exists for tests and the HTAP harness.
    pub retain_records: bool,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        AnalyticsConfig {
            chunk_rows: DEFAULT_CHUNK_ROWS,
            retain_records: false,
        }
    }
}

impl AnalyticsConfig {
    /// Override the copy-on-write chunk size.
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows;
        self
    }

    /// Retain published records for serial-replay verification.
    pub fn with_retained_records(mut self) -> Self {
        self.retain_records = true;
        self
    }
}

/// Work counters of a session, in microseconds where timed. A thin
/// published view over [`StoreStats`].
#[derive(Debug, Default, Clone)]
pub struct AnalyticsStats {
    /// Committed bulk records folded into the mirror.
    pub records_applied: u64,
    /// Snapshots cut so far.
    pub snapshots: u64,
    /// Column/live chunks rebuilt across all cuts.
    pub chunks_rebuilt: u64,
    /// Cumulative update-propagation time in microseconds.
    pub apply_us: f64,
    /// Cumulative chunk-rebuild time across cuts, in microseconds.
    pub refresh_us: f64,
    /// Cost of the most recent snapshot cut, in microseconds.
    pub last_cut_us: f64,
}

impl From<StoreStats> for AnalyticsStats {
    fn from(s: StoreStats) -> Self {
        AnalyticsStats {
            records_applied: s.records_applied,
            snapshots: s.snapshots,
            chunks_rebuilt: s.chunks_rebuilt,
            apply_us: s.apply_nanos as f64 / 1_000.0,
            refresh_us: s.refresh_nanos as f64 / 1_000.0,
            last_cut_us: s.last_cut_nanos as f64 / 1_000.0,
        }
    }
}

struct Shared {
    store: Mutex<SnapshotStore>,
    applied: Condvar,
}

/// Cloneable endpoint connecting one engine (publisher) to any number of
/// scanner threads (snapshot consumers). See the [module docs](self).
#[derive(Clone)]
pub struct AnalyticsSession {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for AnalyticsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticsSession")
            .field("records_applied", &self.records_applied())
            .finish()
    }
}

impl AnalyticsSession {
    /// Session with default configuration over a starting database state.
    pub fn new(seed: &Database) -> Self {
        Self::with_config(seed, AnalyticsConfig::default())
    }

    /// Session with explicit configuration over a starting database state.
    pub fn with_config(seed: &Database, config: AnalyticsConfig) -> Self {
        AnalyticsSession {
            shared: Arc::new(Shared {
                store: Mutex::new(SnapshotStore::new(
                    seed,
                    config.chunk_rows,
                    config.retain_records,
                )),
                applied: Condvar::new(),
            }),
        }
    }

    /// Fold one committed bulk record into the session. Called by the
    /// engine's group-commit point, in commit order.
    pub fn publish(&self, record: &BulkLogRecord) {
        let mut store = self.shared.store.lock().expect("analytics store poisoned");
        store.apply(record);
        self.shared.applied.notify_all();
    }

    /// The LSN the next published record should carry, when this session is
    /// the engine's only log consumer.
    pub fn next_lsn(&self) -> u64 {
        self.shared
            .store
            .lock()
            .expect("analytics store poisoned")
            .next_lsn()
    }

    /// Committed bulk records folded in so far.
    pub fn records_applied(&self) -> u64 {
        self.shared
            .store
            .lock()
            .expect("analytics store poisoned")
            .records_applied()
    }

    /// Block until at least `records` bulk records have been folded in.
    /// Returns `false` on timeout.
    pub fn wait_applied(&self, records: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut store = self.shared.store.lock().expect("analytics store poisoned");
        while store.records_applied() < records {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, result) = self
                .shared
                .applied
                .wait_timeout(store, left)
                .expect("analytics store poisoned");
            store = guard;
            if result.timed_out() && store.records_applied() < records {
                return false;
            }
        }
        true
    }

    /// Cut a consistent snapshot of the committed prefix right now.
    pub fn snapshot(&self) -> SnapshotHandle {
        self.shared
            .store
            .lock()
            .expect("analytics store poisoned")
            .freeze()
    }

    /// Work counters.
    pub fn stats(&self) -> AnalyticsStats {
        self.shared
            .store
            .lock()
            .expect("analytics store poisoned")
            .stats()
            .into()
    }

    /// Copies of every published record (requires
    /// [`AnalyticsConfig::retain_records`]). Verifiers replay a prefix of
    /// these serially to prove snapshot consistency.
    pub fn retained_records(&self) -> Vec<BulkLogRecord> {
        self.shared
            .store
            .lock()
            .expect("analytics store poisoned")
            .retained_records()
    }

    /// Serially replay the first `records` retained records onto a clone of
    /// `seed` and return the resulting database — the reference state the
    /// snapshot with `records_applied() == records` must equal.
    pub fn replay_prefix(&self, seed: &Database, records: u64) -> Database {
        let retained = self.retained_records();
        assert!(
            records as usize <= retained.len(),
            "cannot replay {records} records, only {} retained",
            retained.len()
        );
        let mut db = seed.clone();
        for record in retained.into_iter().take(records as usize) {
            record.replay_into(&mut db);
        }
        db
    }
}
