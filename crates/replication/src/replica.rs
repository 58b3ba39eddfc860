//! The follower side of log shipping: subscribe, bootstrap from a chunked
//! snapshot, apply shipped redo records through the recovery replay path,
//! and promote to a primary seed when the primary is lost or hands off.

use crate::{percentile_ns, unix_nanos};
use gputx_durability::{fresh_epoch, BulkLogRecord};
use gputx_server::proto::{
    decode_repl, encode_repl, read_frame, write_frame, ReplMsg, MAX_FRAME_LEN,
};
use gputx_server::Duplex;
use gputx_storage::{Database, WireReader};
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on retained lag samples; enough for any bench run, bounded so a
/// long-lived replica doesn't grow without limit.
const MAX_LAG_SAMPLES: usize = 1 << 20;

/// A follower's durable identity when re-subscribing: the database it
/// already holds and how far it got. A fresh follower uses
/// [`ReplicaSeed::empty`] (epoch `0` never matches a primary, forcing a full
/// snapshot).
#[derive(Debug, Clone)]
pub struct ReplicaSeed {
    /// The state after `applied_lsn` records of `epoch` (ignored when
    /// `epoch` is `0`).
    pub db: Database,
    /// Replication epoch the state belongs to; `0` = none.
    pub epoch: u64,
    /// Records of `epoch` applied so far.
    pub applied_lsn: u64,
}

impl ReplicaSeed {
    /// A follower with no prior state: always bootstraps from a snapshot.
    pub fn empty() -> Self {
        ReplicaSeed {
            db: Database::column_store(),
            epoch: 0,
            applied_lsn: 0,
        }
    }
}

/// The result of promoting a replica: everything `EngineBuilder` (in
/// `gputx-core`) needs to continue the database as the new primary.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// The replica's state: the acked prefix of the old primary's log,
    /// fully applied.
    pub db: Database,
    /// The **new** epoch — strictly greater than the old primary's, so any
    /// stale primary that tries to serve this group again is fenced.
    pub epoch: u64,
    /// How many records of the *old* epoch were applied (informational;
    /// LSNs restart at 0 under the new epoch).
    pub applied_lsn: u64,
}

/// Observable replica state, snapshot via [`Replica::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Epoch of the state currently held (`0` before the first sync).
    pub epoch: u64,
    /// Records applied in the current epoch == next expected LSN.
    pub applied_lsn: u64,
    /// Shipped records applied over the replica's lifetime (across epochs).
    pub records_applied: u64,
    /// Full snapshots installed (initial sync + resyncs).
    pub snapshots_installed: u64,
    /// Snapshot transfers abandoned part-way because a newer one (or a
    /// promotion/teardown) superseded them.
    pub partial_snapshots_discarded: u64,
    /// True once a snapshot is installed or the caught-up fast path was
    /// taken — i.e. [`Replica::snapshot_db`] returns meaningful state.
    pub synced: bool,
    /// True once the session ended (primary gone, fenced, or stopped).
    pub disconnected: bool,
    /// Epoch offered by a `Promote` frame from a retiring primary, if any.
    pub promote_offer: Option<u64>,
    /// Replication lag, nanoseconds, 50th percentile (commit stamp on the
    /// primary → applied on the replica; includes clock skew).
    pub lag_p50_ns: u64,
    /// Replication lag, nanoseconds, 99th percentile.
    pub lag_p99_ns: u64,
}

struct ReplState {
    db: Database,
    epoch: u64,
    applied_lsn: u64,
    synced: bool,
    disconnected: bool,
    promote_offer: Option<u64>,
    records_applied: u64,
    snapshots_installed: u64,
    partial_snapshots_discarded: u64,
    lag_samples: Vec<u64>,
}

/// The state a session's reader thread maintains, shared with everyone who
/// watches the session's progress.
pub(crate) struct ReplicaShared {
    state: Mutex<ReplState>,
    changed: Condvar,
}

impl ReplicaShared {
    pub(crate) fn applied_lsn(&self) -> u64 {
        self.state
            .lock()
            .expect("replica state poisoned")
            .applied_lsn
    }

    pub(crate) fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, |s| s.applied_lsn >= lsn)
            .applied_lsn
            >= lsn
    }

    pub(crate) fn wait_disconnected(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |s| s.disconnected).disconnected
    }

    fn wait_until(
        &self,
        timeout: Duration,
        done: impl Fn(&ReplState) -> bool,
    ) -> std::sync::MutexGuard<'_, ReplState> {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.state.lock().expect("replica state poisoned");
        loop {
            if done(&s) || s.disconnected {
                return s;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return s;
            }
            s = self
                .changed
                .wait_timeout(s, deadline - now)
                .expect("replica state poisoned")
                .0;
        }
    }
}

/// A read-only follower: applies the primary's shipped redo records to its
/// own copy of the database via the same
/// [`BulkLogRecord::replay_into`] path crash recovery uses, acking each
/// applied LSN back. All progress APIs ([`snapshot_db`](Replica::snapshot_db),
/// [`wait_applied`](Replica::wait_applied), [`stats`](Replica::stats)) are
/// served from shared state the reader thread maintains.
pub struct Replica {
    shared: Arc<ReplicaShared>,
    stream: Box<dyn Duplex>,
    reader: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.state.lock().expect("replica state poisoned");
        f.debug_struct("Replica")
            .field("epoch", &s.epoch)
            .field("applied_lsn", &s.applied_lsn)
            .field("synced", &s.synced)
            .field("disconnected", &s.disconnected)
            .finish()
    }
}

impl Replica {
    /// Subscribe as a brand-new follower over `stream`: the primary will
    /// answer with a full snapshot, then the live record stream.
    pub fn start<S: Duplex>(stream: S) -> io::Result<Self> {
        Self::resume(stream, ReplicaSeed::empty())
    }

    /// Re-subscribe with prior state. If `seed` matches the primary's epoch
    /// and tail LSN exactly, the snapshot is skipped and records stream from
    /// `seed.applied_lsn`; any mismatch falls back to a full snapshot.
    pub fn resume<S: Duplex>(stream: S, seed: ReplicaSeed) -> io::Result<Self> {
        let mut write_half = stream.try_clone_box()?;
        let read_half = stream.try_clone_box()?;
        write_frame(
            &mut write_half,
            &encode_repl(&ReplMsg::Subscribe {
                epoch: seed.epoch,
                applied_lsn: seed.applied_lsn,
            }),
        )?;
        let shared = Arc::new(ReplicaShared {
            state: Mutex::new(ReplState {
                db: seed.db,
                epoch: seed.epoch,
                applied_lsn: seed.applied_lsn,
                // A resume is provisionally synced: if the primary takes the
                // caught-up fast path it sends no snapshot, and the seed
                // state is already correct.
                synced: seed.epoch != 0,
                disconnected: false,
                promote_offer: None,
                records_applied: 0,
                snapshots_installed: 0,
                partial_snapshots_discarded: 0,
                lag_samples: Vec::new(),
            }),
            changed: Condvar::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gputx-repl-replica".into())
                .spawn(move || reader_loop(&shared, read_half, write_half))
                .map_err(io::Error::other)?
        };
        Ok(Replica {
            shared,
            stream: Box::new(stream),
            reader: Some(reader),
        })
    }

    /// A copy of the replicated database as of [`applied_lsn`](Replica::applied_lsn).
    /// `None` until the first sync completes.
    pub fn snapshot_db(&self) -> Option<Database> {
        let s = self.shared.state.lock().expect("replica state poisoned");
        if s.synced {
            Some(s.db.clone())
        } else {
            None
        }
    }

    /// Replication epoch of the held state (`0` before the first sync).
    pub fn epoch(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("replica state poisoned")
            .epoch
    }

    /// Records applied in the current epoch (== the next LSN expected).
    pub fn applied_lsn(&self) -> u64 {
        self.shared.applied_lsn()
    }

    /// Block until `applied_lsn >= lsn` (in any epoch), the session ends, or
    /// `timeout` elapses; returns whether the watermark was reached.
    pub fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        self.shared.wait_applied(lsn, timeout)
    }

    /// Block until the first sync completes (snapshot installed or fast
    /// path); returns whether it did within `timeout`.
    pub fn wait_synced(&self, timeout: Duration) -> bool {
        self.shared.wait_until(timeout, |s| s.synced).synced
    }

    /// Block until the session ends (primary gone, handoff, or fenced);
    /// returns whether it did within `timeout`.
    pub fn wait_disconnected(&self, timeout: Duration) -> bool {
        self.shared.wait_disconnected(timeout)
    }

    /// The session's shared progress state: lets a caller wait on it
    /// without holding whatever lock guards this `Replica`.
    pub(crate) fn progress(&self) -> Arc<ReplicaShared> {
        Arc::clone(&self.shared)
    }

    /// Snapshot the observable state, with lag percentiles over every sample
    /// recorded so far.
    pub fn stats(&self) -> ReplicaStats {
        let s = self.shared.state.lock().expect("replica state poisoned");
        ReplicaStats {
            epoch: s.epoch,
            applied_lsn: s.applied_lsn,
            records_applied: s.records_applied,
            snapshots_installed: s.snapshots_installed,
            partial_snapshots_discarded: s.partial_snapshots_discarded,
            synced: s.synced,
            disconnected: s.disconnected,
            promote_offer: s.promote_offer,
            lag_p50_ns: percentile_ns(&s.lag_samples, 50.0),
            lag_p99_ns: percentile_ns(&s.lag_samples, 99.0),
        }
    }

    /// Shut the transport down without joining the reader: unblocks the
    /// session from another thread holding only a shared reference (the
    /// supervisor's stop path). The reader notices the close, finishes
    /// applying what it already received, and marks the session
    /// disconnected; [`stop`](Replica::stop) or `Drop` still joins it.
    pub fn disconnect(&self) {
        let _ = self.stream.shutdown_both();
    }

    /// Close the session and join the reader thread. Idempotent; the state
    /// (and [`Promotion`] via [`promote`](Replica::promote)) stays available.
    pub fn stop(&mut self) {
        let _ = self.stream.shutdown_both();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }

    /// Promote this replica: close the session, take everything it has
    /// applied and mint the new primary's epoch —
    /// `max(fresh_epoch(), old + 1, handoff offer)`, so it is strictly newer
    /// than the old primary's and any stale primary is fenced. Returns
    /// `None` if the replica never completed its first sync (it holds no
    /// meaningful state to promote).
    ///
    /// Call this after [`wait_disconnected`](Replica::wait_disconnected)
    /// observes primary loss (the reader applies its entire received prefix
    /// before reporting the disconnect) or after a `Promote` handoff offer
    /// arrives; calling it on a live session abandons in-flight records.
    pub fn promote(mut self) -> Option<Promotion> {
        self.stop();
        let s = self.shared.state.lock().expect("replica state poisoned");
        if !s.synced {
            return None;
        }
        let epoch = fresh_epoch()
            .max(s.epoch + 1)
            .max(s.promote_offer.unwrap_or(0));
        Some(Promotion {
            db: s.db.clone(),
            epoch,
            applied_lsn: s.applied_lsn,
        })
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A snapshot transfer in flight: accumulated chunks plus the header fields
/// every chunk repeats.
struct PartialSnapshot {
    epoch: u64,
    next_lsn: u64,
    next_seq: u32,
    bytes: Vec<u8>,
}

fn finish(shared: &ReplicaShared, had_partial: bool) {
    let mut s = shared.state.lock().expect("replica state poisoned");
    if had_partial {
        s.partial_snapshots_discarded += 1;
    }
    s.disconnected = true;
    drop(s);
    shared.changed.notify_all();
}

/// The reader state machine: snapshot chunks accumulate (a `seq == 0` chunk
/// discards any partial transfer — the primary superseded it), a complete
/// snapshot installs atomically, records replay in strict LSN order and are
/// acked, a `Promote` records the handoff offer, and any epoch older than
/// ours fences the sender (we disconnect).
fn reader_loop(
    shared: &Arc<ReplicaShared>,
    mut read_half: Box<dyn Duplex>,
    mut write_half: Box<dyn Duplex>,
) {
    let mut partial: Option<PartialSnapshot> = None;
    // Stops on EOF or a transport/frame error: the session is over, and
    // everything received before this point has already been applied.
    while let Ok(Some(payload)) = read_frame(&mut read_half, MAX_FRAME_LEN) {
        let msg = match decode_repl(&payload) {
            Ok(m) => m,
            Err(_) => break,
        };
        match msg {
            ReplMsg::SnapshotChunk {
                epoch,
                next_lsn,
                seq,
                last,
                bytes,
            } => {
                {
                    let s = shared.state.lock().expect("replica state poisoned");
                    if s.synced && epoch < s.epoch {
                        // A stale primary has nothing for us; drop it.
                        break;
                    }
                }
                if seq == 0 {
                    if partial.take().is_some() {
                        let mut s = shared.state.lock().expect("replica state poisoned");
                        s.partial_snapshots_discarded += 1;
                    }
                    partial = Some(PartialSnapshot {
                        epoch,
                        next_lsn,
                        next_seq: 0,
                        bytes: Vec::new(),
                    });
                }
                let Some(p) = partial.as_mut() else {
                    // A non-initial chunk with no transfer in progress:
                    // protocol violation.
                    break;
                };
                if seq != p.next_seq || epoch != p.epoch || next_lsn != p.next_lsn {
                    break;
                }
                p.next_seq += 1;
                p.bytes.extend_from_slice(&bytes);
                if last {
                    let p = partial.take().expect("checked above");
                    let mut r = WireReader::new(&p.bytes);
                    let Ok(db) = Database::decode(&mut r) else {
                        break;
                    };
                    if r.expect_end().is_err() {
                        break;
                    }
                    let mut s = shared.state.lock().expect("replica state poisoned");
                    s.db = db;
                    s.epoch = p.epoch;
                    s.applied_lsn = p.next_lsn;
                    s.synced = true;
                    s.snapshots_installed += 1;
                    let ack = s.applied_lsn;
                    drop(s);
                    shared.changed.notify_all();
                    if write_frame(
                        &mut write_half,
                        &encode_repl(&ReplMsg::Ack { applied_lsn: ack }),
                    )
                    .is_err()
                    {
                        break;
                    }
                }
            }
            ReplMsg::LogRecord {
                epoch,
                commit_nanos,
                payload,
            } => {
                let Ok(record) = BulkLogRecord::decode(&payload) else {
                    break;
                };
                let mut s = shared.state.lock().expect("replica state poisoned");
                if !s.synced || epoch != s.epoch || record.lsn != s.applied_lsn {
                    // Records are only valid in our exact epoch, in strict
                    // LSN order, after a sync. (A record racing ahead of a
                    // resync snapshot is legal on the wire only in the
                    // window before the primary noticed the gap — the
                    // primary's session discards the queue before resync,
                    // so in practice this is a protocol violation.)
                    break;
                }
                record.replay_into(&mut s.db);
                s.applied_lsn += 1;
                s.records_applied += 1;
                if s.lag_samples.len() < MAX_LAG_SAMPLES {
                    let lag = unix_nanos().saturating_sub(commit_nanos);
                    s.lag_samples.push(lag);
                }
                let ack = s.applied_lsn;
                drop(s);
                shared.changed.notify_all();
                if write_frame(
                    &mut write_half,
                    &encode_repl(&ReplMsg::Ack { applied_lsn: ack }),
                )
                .is_err()
                {
                    break;
                }
            }
            ReplMsg::Promote { epoch } => {
                let mut s = shared.state.lock().expect("replica state poisoned");
                s.promote_offer = Some(epoch);
                drop(s);
                shared.changed.notify_all();
                // The retiring primary ends the session after the offer.
            }
            ReplMsg::Subscribe { .. } | ReplMsg::Ack { .. } => break,
        }
    }
    let had_partial = partial.is_some();
    let _ = read_half.shutdown_both();
    finish(shared, had_partial);
}
