//! Self-healing wrapper around [`Replica`]: re-dials the primary when a
//! session dies, resuming from the state the previous session already
//! applied (so an epoch-matched resume skips the snapshot, and any mismatch
//! falls back to a full resync — the epoch re-validation the subscribe
//! handshake performs).

use crate::replica::{Replica, ReplicaSeed};
use gputx_faults::BackoffPolicy;
use gputx_server::Duplex;
use gputx_storage::Database;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one watch/wait slice lasts. Short enough that `stop` and a
/// reconnect are noticed promptly. No slice holds the supervisor's session
/// lock: waits are on the session's own progress state.
const SLICE: Duration = Duration::from_millis(25);

/// Knobs for a [`ReplicaSupervisor`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorConfig {
    /// Backoff between connect attempts within one outage; after
    /// `backoff.max_retries` *consecutive* failures the supervisor gives up
    /// (a success resets the count).
    pub backoff: BackoffPolicy,
}

/// Observable supervisor state, snapshot via [`ReplicaSupervisor::stats`].
/// Counters are cumulative across sessions (the live session included).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Sessions successfully established.
    pub connects: u64,
    /// Sessions established beyond the first — the reconnect count.
    pub reconnects: u64,
    /// Sessions that ended without `stop` being requested.
    pub sessions_lost: u64,
    /// Snapshots installed across every session (initial syncs + resyncs).
    pub snapshots_installed: u64,
    /// Shipped records applied across every session.
    pub records_applied: u64,
    /// True when the retry budget for one outage was exhausted and the
    /// supervisor exited.
    pub gave_up: bool,
    /// True while a session is currently up.
    pub connected: bool,
}

struct SupShared {
    /// The live session, if any. Held only for short reads and updates,
    /// never across a wait: a waiter takes the session's
    /// [`progress`](Replica::progress) handle and releases the lock.
    replica: Mutex<Option<Replica>>,
    /// Best state harvested from finished sessions: the resume seed, and the
    /// fallback the progress APIs serve between sessions / after stop.
    last_seed: Mutex<ReplicaSeed>,
    stopping: AtomicBool,
    connects: AtomicU64,
    sessions_lost: AtomicU64,
    snapshots_cum: AtomicU64,
    records_cum: AtomicU64,
    gave_up: AtomicBool,
}

type Connector = Box<dyn Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync>;

/// A [`Replica`] that survives its primary connection dying: a supervisor
/// thread re-dials through the connector with jittered exponential backoff,
/// resuming each new session from everything already applied. Progress APIs
/// span sessions — [`wait_applied`](ReplicaSupervisor::wait_applied) keeps
/// waiting across a reconnect, and
/// [`snapshot_db`](ReplicaSupervisor::snapshot_db) serves the last applied
/// state even between sessions.
pub struct ReplicaSupervisor {
    shared: Arc<SupShared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReplicaSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ReplicaSupervisor")
            .field("connects", &stats.connects)
            .field("connected", &stats.connected)
            .field("gave_up", &stats.gave_up)
            .finish()
    }
}

impl ReplicaSupervisor {
    /// Start supervising with no prior state (first sync bootstraps from a
    /// full snapshot).
    pub fn start<F>(connector: F, config: SupervisorConfig) -> io::Result<ReplicaSupervisor>
    where
        F: Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync + 'static,
    {
        Self::resume(connector, ReplicaSeed::empty(), config)
    }

    /// Start supervising from prior state (e.g. a previous supervisor's
    /// final seed).
    pub fn resume<F>(
        connector: F,
        seed: ReplicaSeed,
        config: SupervisorConfig,
    ) -> io::Result<ReplicaSupervisor>
    where
        F: Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync + 'static,
    {
        let shared = Arc::new(SupShared {
            replica: Mutex::new(None),
            last_seed: Mutex::new(seed),
            stopping: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            sessions_lost: AtomicU64::new(0),
            snapshots_cum: AtomicU64::new(0),
            records_cum: AtomicU64::new(0),
            gave_up: AtomicBool::new(false),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            let connector: Connector = Box::new(connector);
            std::thread::Builder::new()
                .name("gputx-repl-supervisor".into())
                .spawn(move || supervise(&shared, &connector, config.backoff))
                .map_err(io::Error::other)?
        };
        Ok(ReplicaSupervisor {
            shared,
            thread: Some(thread),
        })
    }

    /// Block until `applied_lsn >= lsn`, waiting across reconnects, or until
    /// `timeout` elapses / the supervisor gives up. Returns whether the
    /// watermark was reached.
    pub fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.applied_lsn() >= lsn {
                return true;
            }
            if self.shared.gave_up.load(Ordering::Acquire) {
                return false;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let slice = SLICE.min(deadline - now);
            let progress = self
                .shared
                .replica
                .lock()
                .expect("supervisor lock")
                .as_ref()
                .map(Replica::progress);
            match progress {
                Some(p) => {
                    p.wait_applied(lsn, slice);
                }
                // Between sessions: poll gently while the dial loop works.
                None => std::thread::sleep(slice.min(Duration::from_millis(5))),
            }
        }
    }

    /// Block until some session completes its first sync (snapshot installed
    /// or resume fast path). Returns whether it happened within `timeout`.
    pub fn wait_synced(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.epoch() != 0 {
                return true;
            }
            if self.shared.gave_up.load(Ordering::Acquire) || std::time::Instant::now() >= deadline
            {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The replicated database as of the latest applied LSN: the live
    /// session's state, or the last harvested state between sessions.
    /// `None` before the first sync ever completes.
    pub fn snapshot_db(&self) -> Option<Database> {
        if let Some(db) = self
            .shared
            .replica
            .lock()
            .expect("supervisor lock")
            .as_ref()
            .and_then(|r| r.snapshot_db())
        {
            return Some(db);
        }
        let seed = self.shared.last_seed.lock().expect("seed lock");
        if seed.epoch != 0 {
            Some(seed.db.clone())
        } else {
            None
        }
    }

    /// Replication epoch of the held state (`0` before the first sync).
    pub fn epoch(&self) -> u64 {
        match self
            .shared
            .replica
            .lock()
            .expect("supervisor lock")
            .as_ref()
        {
            Some(r) => r.epoch(),
            None => self.shared.last_seed.lock().expect("seed lock").epoch,
        }
    }

    /// Records applied in the current epoch (== the next LSN expected).
    pub fn applied_lsn(&self) -> u64 {
        match self
            .shared
            .replica
            .lock()
            .expect("supervisor lock")
            .as_ref()
        {
            Some(r) => r.applied_lsn(),
            None => self.shared.last_seed.lock().expect("seed lock").applied_lsn,
        }
    }

    /// Snapshot the cumulative supervisor counters.
    pub fn stats(&self) -> SupervisorStats {
        // The harvest folds a finished session into the cumulative counters
        // under this lock, so read both sides under it too.
        let guard = self.shared.replica.lock().expect("supervisor lock");
        let (live, connected) = match guard.as_ref() {
            Some(r) => (r.stats(), true),
            None => (Default::default(), false),
        };
        let snapshots_installed =
            self.shared.snapshots_cum.load(Ordering::Relaxed) + live.snapshots_installed;
        let records_applied =
            self.shared.records_cum.load(Ordering::Relaxed) + live.records_applied;
        drop(guard);
        let connects = self.shared.connects.load(Ordering::Relaxed);
        SupervisorStats {
            connects,
            reconnects: connects.saturating_sub(1),
            sessions_lost: self.shared.sessions_lost.load(Ordering::Relaxed),
            snapshots_installed,
            records_applied,
            gave_up: self.shared.gave_up.load(Ordering::Acquire),
            connected,
        }
    }

    /// The final resume seed: the supervisor's complete applied state. Most
    /// useful after [`stop`](ReplicaSupervisor::stop), e.g. to hand to a
    /// fresh supervisor or assert convergence in tests.
    pub fn seed(&self) -> ReplicaSeed {
        let guard = self.shared.replica.lock().expect("supervisor lock");
        if let Some(r) = guard.as_ref() {
            if let Some(db) = r.snapshot_db() {
                return ReplicaSeed {
                    db,
                    epoch: r.epoch(),
                    applied_lsn: r.applied_lsn(),
                };
            }
        }
        self.shared.last_seed.lock().expect("seed lock").clone()
    }

    /// Stop supervising: end the live session (its received prefix is fully
    /// applied and harvested first), stop re-dialing, and join the
    /// supervisor thread. Idempotent; also run by `Drop`. State stays
    /// available via [`seed`](ReplicaSupervisor::seed) /
    /// [`snapshot_db`](ReplicaSupervisor::snapshot_db).
    pub fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        if let Some(r) = self
            .shared
            .replica
            .lock()
            .expect("supervisor lock")
            .as_ref()
        {
            r.disconnect();
        }
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaSupervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The dial-watch-harvest loop.
fn supervise(shared: &Arc<SupShared>, connector: &Connector, backoff: BackoffPolicy) {
    let mut attempt = 0u32;
    while !shared.stopping.load(Ordering::SeqCst) {
        // Dial with the seed of everything applied so far.
        let seed = shared.last_seed.lock().expect("seed lock").clone();
        let replica = match connector().and_then(|s| Replica::resume(s, seed)) {
            Ok(r) => r,
            Err(_) => {
                if attempt >= backoff.max_retries {
                    shared.gave_up.store(true, Ordering::Release);
                    return;
                }
                std::thread::sleep(backoff.delay(attempt));
                attempt += 1;
                continue;
            }
        };
        attempt = 0;
        shared.connects.fetch_add(1, Ordering::Relaxed);
        let progress = replica.progress();
        *shared.replica.lock().expect("supervisor lock") = Some(replica);

        // Watch the session in short slices so `stop` can interleave.
        while !shared.stopping.load(Ordering::SeqCst) {
            if progress.wait_disconnected(SLICE) {
                break;
            }
        }

        // Harvest. End the session (a no-op if it already ended) and wait
        // until the reader marks it disconnected, which it does only after
        // applying its entire received prefix: from then on its state is
        // final.
        if let Some(r) = shared.replica.lock().expect("supervisor lock").as_ref() {
            r.disconnect();
        }
        while !progress.wait_disconnected(SLICE) {}
        // Fold its counters in, keep its state as the next seed and take it
        // out, all in one critical section, so the progress APIs see either
        // the session or its harvest, never neither.
        let finished = {
            let mut guard = shared.replica.lock().expect("supervisor lock");
            if let Some(r) = guard.as_ref() {
                let stats = r.stats();
                shared
                    .records_cum
                    .fetch_add(stats.records_applied, Ordering::Relaxed);
                shared
                    .snapshots_cum
                    .fetch_add(stats.snapshots_installed, Ordering::Relaxed);
                if let Some(db) = r.snapshot_db() {
                    *shared.last_seed.lock().expect("seed lock") = ReplicaSeed {
                        db,
                        epoch: stats.epoch,
                        applied_lsn: stats.applied_lsn,
                    };
                }
            }
            guard.take()
        };
        // Join the reader outside the lock.
        drop(finished);
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        shared.sessions_lost.fetch_add(1, Ordering::Relaxed);
        // Pause before the re-dial: the outage just started, give the
        // primary a beat.
        std::thread::sleep(backoff.delay(0));
    }
}
