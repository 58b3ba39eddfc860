//! The group-commit seam: the one path a committed bulk takes to its
//! consumers.
//!
//! A bulk is the unit of execution and the unit of commit. Its physical
//! writes are captured into one [`BulkLogRecord`], and that same record feeds
//! every attached consumer in a fixed order — write-ahead log, replication
//! hub, analytics session — so a record a follower or a snapshot holds is
//! always one the primary logged. One engine holds a [`GroupCommit`]: the
//! pipelined engine's runner, whose seam `EngineBuilder::build_pipelined`
//! opens once. The runner brackets each bulk with [`arm`](GroupCommit::arm) /
//! [`commit`](GroupCommit::commit), and a commit error fails the bulk's
//! tickets (see `docs/architecture.md`, "Group commit").

use gputx_analytics::AnalyticsSession;
use gputx_durability::{BulkLogRecord, Durability, DurabilityConfig, WriteCapture};
use gputx_exec::ExecError;
use gputx_faults::{FaultInjector, HealPolicy, Health, WalState};
use gputx_replication::PrimaryHub;
use gputx_storage::Database;

/// The consumers of committed bulks plus the supervised-heal state of the
/// first of them.
#[derive(Debug)]
pub(crate) struct GroupCommit {
    /// Redo log; `None` when durability is not configured, or after the
    /// engine degraded and dropped it.
    wal: Option<Durability>,
    /// Log shipping to followers. Publishing never blocks on a follower
    /// (bounded queues shed).
    hub: Option<PrimaryHub>,
    /// HTAP read path. Applying a record is a redo replay plus dirty-chunk
    /// marks; the copy-on-write rebuild is paid by scanners at snapshot cut
    /// time, never here.
    session: Option<AnalyticsSession>,
    /// Heal policy; `heal_budget` counts down as heals are spent.
    heal: HealPolicy,
    /// Shared health surface, updated on every commit.
    health: Health,
}

impl GroupCommit {
    /// Open the seam over the builder's parts: write the initial checkpoint
    /// of `db` and a fresh log (when `durability` names a directory), thread
    /// the fault plane into the log writer and the health surface, and
    /// publish the initial WAL state.
    ///
    /// Panics if the durability directory cannot be initialized — an engine
    /// that silently dropped its durability guarantee would be worse than
    /// one that refuses to start.
    pub(crate) fn open(
        durability: &DurabilityConfig,
        db: &Database,
        hub: Option<PrimaryHub>,
        session: Option<AnalyticsSession>,
        faults: Option<FaultInjector>,
        heal: HealPolicy,
        health: Health,
    ) -> Self {
        let mut wal = Durability::from_config(durability, db)
            .unwrap_or_else(|e| panic!("cannot initialize durability: {e}"));
        if let Some(injector) = faults {
            if let Some(wal) = wal.as_mut() {
                wal.set_faults(&injector);
            }
            health.attach_injector(injector);
        }
        health.set_wal(if wal.is_some() {
            WalState::Healthy
        } else {
            WalState::Disabled
        });
        // A fresh WAL numbers records from 0, so a hub that already shipped
        // records restarts its stream too (new epoch, followers resync):
        // every consumer numbers the same record identically.
        if wal.is_some() {
            if let Some(hub) = hub.as_ref().filter(|h| h.next_lsn() != 0) {
                hub.rotate_epoch();
            }
        }
        GroupCommit {
            wal,
            hub,
            session,
            heal,
            health,
        }
    }

    /// Arm dirty-field tracking on `db` so the bulk's physical writes can be
    /// read back into its redo record. `None` when no consumer is attached:
    /// an unlogged engine pays nothing. The capture brackets the live
    /// database's mutation window, so it is taken right before execution.
    pub(crate) fn arm(&self, db: &mut Database) -> Option<WriteCapture> {
        (self.wal.is_some() || self.hub.is_some() || self.session.is_some())
            .then(|| WriteCapture::begin(db))
    }

    /// Commit one executed bulk: close `capture` into a record numbered by
    /// the first present consumer, append it to the WAL (fsynced per
    /// policy), then publish it to the hub and the analytics session.
    ///
    /// A failed append goes through the supervised heal (see
    /// [`heal_or_degrade`](Self::heal_or_degrade)). The only error is a
    /// degraded log under `writes_when_degraded: false`; the record is then
    /// published nowhere, so nobody is told "durable" for work the log
    /// cannot reproduce.
    pub(crate) fn commit(
        &mut self,
        db: &mut Database,
        capture: WriteCapture,
    ) -> Result<(), ExecError> {
        let lsn = (self.wal.as_ref().map(Durability::next_lsn))
            .or_else(|| self.hub.as_ref().map(PrimaryHub::next_lsn))
            .or_else(|| self.session.as_ref().map(AnalyticsSession::next_lsn))
            .expect("a capture is only armed with a consumer attached");
        let record = BulkLogRecord {
            lsn,
            write_set: capture.finish(db),
        };
        if let Some(wal) = self.wal.as_mut() {
            if let Err(cause) = wal.append_record(&record) {
                self.heal_or_degrade(db, &cause)?;
            }
        }
        if let Some(hub) = self.hub.as_ref() {
            hub.publish(&record);
            let acks = hub.follower_acks();
            self.health.set_replication(
                acks.len() as u64,
                hub.next_lsn(),
                acks.iter().copied().min().unwrap_or(0),
            );
        }
        if let Some(session) = self.session.as_ref() {
            session.publish(&record);
        }
        Ok(())
    }

    /// Supervised recovery from a failed redo-record append. The failing
    /// bulk's effects are already applied to `db`, so a fresh checkpoint
    /// absorbs them: [`Durability::heal`] snapshots the full state under a
    /// fresh log epoch and advances the LSN past the record that never
    /// landed — after which this bulk is durable (via the snapshot) and the
    /// writer is clean again. Each attempt consumes one unit of
    /// [`HealPolicy::heal_budget`]; once it is spent the engine degrades
    /// visibly: writes either continue unlogged
    /// ([`HealPolicy::writes_when_degraded`] — the log is dropped, the hub
    /// and session keep numbering from their own counters, which never saw
    /// the failed record either) or keep failing with the poisoned writer's
    /// error.
    fn heal_or_degrade(&mut self, db: &Database, cause: &std::io::Error) -> Result<(), ExecError> {
        let wal = (self.wal.as_mut()).expect("an append only fails with a log attached");
        while self.heal.heal_budget > 0 {
            self.heal.heal_budget -= 1;
            if wal.heal(db, 1).is_ok() {
                self.health.record_heal();
                return Ok(());
            }
        }
        self.health.set_wal(WalState::Degraded);
        if self.heal.writes_when_degraded {
            self.wal = None;
            Ok(())
        } else {
            Err(ExecError::LogAppendFailed {
                message: format!("durability degraded (heal budget exhausted): {cause}"),
            })
        }
    }

    /// The health surface this seam updates.
    pub(crate) fn health(&self) -> Health {
        self.health.clone()
    }
}
