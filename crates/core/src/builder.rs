//! One construction surface for every engine flavor.
//!
//! [`EngineBuilder`] is the only way to construct an engine: database and
//! registry in, one fluent chain for
//! durability/pipeline/replication/analytics/robustness, then
//! [`build`](EngineBuilder::build) (one-shot),
//! [`build_pipelined`](EngineBuilder::build_pipelined) (streaming) or
//! [`build_cpu`](EngineBuilder::build_cpu) (the CPU reference engine). Only
//! `build_pipelined` opens the group-commit seam (`commit.rs`), once, from
//! the durability, replication, analytics and fault parts collected here;
//! `build` refuses a builder that holds any of them.
//!
//! ```
//! use gputx_core::{EngineBuilder, StrategyChoice};
//! use gputx_storage::Database;
//! use gputx_txn::ProcedureRegistry;
//!
//! let engine = EngineBuilder::new(Database::column_store(), ProcedureRegistry::new())
//!     .with_strategy(StrategyChoice::ForceKset)
//!     .build();
//! assert_eq!(engine.pending(), 0);
//! ```

use crate::commit::GroupCommit;
use crate::config::{EngineConfig, PipelineConfig, StrategyChoice};
use crate::engine::GpuTxEngine;
use crate::pipeline::PipelinedGpuTx;
use gputx_analytics::{AnalyticsConfig, AnalyticsSession};
use gputx_cpu::CpuEngine;
use gputx_durability::DurabilityConfig;
use gputx_replication::{PrimaryHub, Promotion, ReplicationOptions};
use gputx_sim::CpuSpec;
use gputx_storage::Database;
use gputx_txn::ProcedureRegistry;
use std::path::PathBuf;

/// Fluent construction of every engine flavor from one starting point: the
/// database and the registered transaction types.
///
/// The replication role belongs here because it must bind to the *initial*
/// database state: [`replicate`](EngineBuilder::replicate) seeds the
/// [`PrimaryHub`]'s mirror from the builder's database, so the mirror and the
/// engine can never start from different states. Grab the hub (to `listen`
/// for followers) with [`hub`](EngineBuilder::hub) before building.
#[derive(Debug)]
pub struct EngineBuilder {
    db: Database,
    registry: ProcedureRegistry,
    config: EngineConfig,
    pipeline: PipelineConfig,
    /// The pipelined engine's redo log (disabled by default).
    durability: DurabilityConfig,
    replication: Option<PrimaryHub>,
    analytics: Option<AnalyticsSession>,
    /// Epoch the hub must start under when this builder continues a promoted
    /// replica (`None` = mint a fresh epoch).
    epoch_seed: Option<u64>,
    /// Installed fault-injection plane (`None` = no faults, zero cost).
    faults: Option<gputx_faults::FaultInjector>,
    /// Supervised-heal policy for a poisoned WAL writer.
    heal_policy: gputx_faults::HealPolicy,
    /// Health surface shared between the built engine and any server.
    health: gputx_faults::Health,
}

impl EngineBuilder {
    /// Start building an engine over `db` with `registry`'s transaction
    /// types.
    pub fn new(db: Database, registry: ProcedureRegistry) -> Self {
        EngineBuilder {
            db,
            registry,
            config: EngineConfig::default(),
            pipeline: PipelineConfig::default(),
            durability: DurabilityConfig::disabled(),
            replication: None,
            analytics: None,
            epoch_seed: None,
            faults: None,
            heal_policy: gputx_faults::HealPolicy::default(),
            health: gputx_faults::Health::new(),
        }
    }

    /// Continue a promoted replica as the new primary: the database is the
    /// promotion's applied prefix, and a subsequent
    /// [`replicate`](EngineBuilder::replicate) starts the hub under the
    /// promotion's (bumped) epoch — which is what fences the old primary out
    /// of the group.
    pub fn from_promotion(promotion: Promotion, registry: ProcedureRegistry) -> Self {
        let mut b = Self::new(promotion.db, registry);
        b.epoch_seed = Some(promotion.epoch);
        b
    }

    // -- engine configuration -------------------------------------------------

    /// Replace the whole one-shot engine configuration (strategy,
    /// thresholds, device, …).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Force a bulk execution strategy (default: rule-based `Auto`).
    pub fn with_strategy(mut self, strategy: StrategyChoice) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Select execution strategies adaptively
    /// ([`StrategyChoice::Adaptive`]): the one-shot engine profiles every
    /// bulk and scores K-SET/PART/TPL through the SIMT and CPU cost models;
    /// the cheapest wins, with hysteresis against thrashing (see
    /// [`crate::adaptive`]). Decisions are observable through
    /// [`GpuTxEngine::decision_stats`]. The pipelined engine runs every
    /// bulk in timestamp order and ignores the strategy choice.
    ///
    /// # Examples
    ///
    /// A one-shot TPC-C run reporting the strategy decision histogram:
    ///
    /// ```
    /// use gputx_core::EngineBuilder;
    /// use gputx_workloads::TpccConfig;
    ///
    /// let mut bundle = TpccConfig {
    ///     warehouses: 2,
    ///     ..TpccConfig::default()
    /// }
    /// .build();
    /// let mut engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
    ///     .adaptive()
    ///     .with_bulk_size(256)
    ///     .build();
    /// for (ty, params) in bundle.generate(512) {
    ///     engine.submit(ty, params);
    /// }
    /// engine.run_until_empty();
    /// let stats = engine.decision_stats().expect("adaptive engines record decisions");
    /// assert_eq!(stats.total(), 2, "512 transactions in bulks of 256");
    /// for (strategy, bulks) in stats.histogram() {
    ///     println!("{strategy:?}: {bulks} bulks");
    /// }
    /// ```
    pub fn adaptive(self) -> Self {
        self.with_strategy(StrategyChoice::Adaptive)
    }

    /// Maximum transactions per one-shot bulk.
    pub fn with_bulk_size(mut self, bulk_size: usize) -> Self {
        self.config.bulk_size = bulk_size;
        self
    }

    // -- pipeline configuration ----------------------------------------------

    /// Replace the whole pipeline configuration (admission knobs) for
    /// [`build_pipelined`](EngineBuilder::build_pipelined).
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Pipeline admission: close a bulk at this many transactions.
    pub fn with_max_bulk_size(mut self, max_bulk_size: usize) -> Self {
        self.pipeline = self.pipeline.with_max_bulk_size(max_bulk_size);
        self
    }

    /// Pipeline admission: close a non-empty bulk after its oldest
    /// transaction waited this many microseconds.
    pub fn with_max_wait_us(mut self, max_wait_us: u64) -> Self {
        self.pipeline = self.pipeline.with_max_wait_us(max_wait_us);
        self
    }

    /// Pipeline admission queue capacity.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.pipeline = self.pipeline.with_queue_depth(queue_depth);
        self
    }

    /// Enable bulk-granular redo logging into `dir` with the default
    /// per-bulk fsync policy ([`build_pipelined`](EngineBuilder::build_pipelined)
    /// only).
    pub fn with_durability(self, dir: impl Into<PathBuf>) -> Self {
        self.with_durability_config(DurabilityConfig::at(dir))
    }

    /// Full durability configuration (directory + fsync policy).
    pub fn with_durability_config(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    // -- robustness -----------------------------------------------------------

    /// Install a deterministic fault-injection plan (see
    /// [`FaultPlan`](gputx_faults::FaultPlan)): the pipelined engine's WAL
    /// writer consults the plan's seeded decision stream on every
    /// append/fsync, and [`faults_injector`](EngineBuilder::faults_injector)
    /// exposes the injector for wrapping wire and replication streams
    /// (`gputx_server::chaos_wrap`). Engines built without this pay a single
    /// `Option` branch at the injection sites.
    pub fn faults(mut self, plan: gputx_faults::FaultPlan) -> Self {
        self.faults = Some(gputx_faults::FaultInjector::new(plan));
        self
    }

    /// The injector installed by [`faults`](EngineBuilder::faults)
    /// (`None` without it). Cloneable; take one before building to derive
    /// wire/follower fault streams or to drive the quiesce switch.
    pub fn faults_injector(&self) -> Option<gputx_faults::FaultInjector> {
        self.faults.clone()
    }

    /// Tune the supervised WAL heal path: how many automatic
    /// checkpoint-into-fresh-epoch heals are attempted after a poisoned log
    /// writer before the engine degrades, and whether a degraded engine
    /// keeps accepting (unlogged) writes.
    pub fn heal_policy(mut self, policy: gputx_faults::HealPolicy) -> Self {
        self.heal_policy = policy;
        self
    }

    /// The health surface the pipelined engine updates at its group-commit
    /// point. Clone it before building and hand it to
    /// `Server::serve_health` to answer wire `Health` requests.
    pub fn health(&self) -> gputx_faults::Health {
        self.health.clone()
    }

    // -- replication role ----------------------------------------------------

    /// Make the built engine a replication primary with default
    /// [`ReplicationOptions`]. See
    /// [`replicate_with`](EngineBuilder::replicate_with).
    pub fn replicate(self) -> Self {
        self.replicate_with(ReplicationOptions::default())
    }

    /// Make the pipelined engine a replication primary: every committed bulk's
    /// redo record is published to a [`PrimaryHub`] seeded **now**, from this
    /// builder's database. Call [`hub`](EngineBuilder::hub) to get the handle
    /// for `listen`/`attach`/`retire`; under a builder made by
    /// [`from_promotion`](EngineBuilder::from_promotion) the hub starts under
    /// the promotion's epoch.
    pub fn replicate_with(mut self, opts: ReplicationOptions) -> Self {
        let hub = match self.epoch_seed {
            Some(epoch) => PrimaryHub::with_epoch(&self.db, epoch, opts),
            None => PrimaryHub::with_epoch(&self.db, gputx_durability::fresh_epoch(), opts),
        };
        self.replication = Some(hub);
        self
    }

    /// The replication hub created by [`replicate`](EngineBuilder::replicate)
    /// (`None` without it). The hub is cloneable; take one before `build` to
    /// accept followers while the engine runs.
    pub fn hub(&self) -> Option<PrimaryHub> {
        self.replication.clone()
    }

    // -- HTAP read path -------------------------------------------------------

    /// Attach an analytics session with default configuration. See
    /// [`analytics_with`](EngineBuilder::analytics_with).
    pub fn analytics(self) -> Self {
        self.analytics_with(AnalyticsConfig::default())
    }

    /// Attach an [`AnalyticsSession`] to the pipelined engine: every committed
    /// bulk's redo record — the same one the WAL appends and the replication
    /// hub ships — is published into the session's snapshot store, so
    /// scanner threads can cut consistent bulk-boundary snapshots
    /// ([`AnalyticsSession::snapshot`]) while the engine keeps committing.
    ///
    /// Like [`replicate`](EngineBuilder::replicate), the session binds to
    /// the *initial* database state: its mirror is seeded **now**, from this
    /// builder's database, so engine and mirror can never start from
    /// different states. Grab the scanner-side handle with
    /// [`analytics_session`](EngineBuilder::analytics_session) before
    /// building.
    pub fn analytics_with(mut self, config: AnalyticsConfig) -> Self {
        self.analytics = Some(AnalyticsSession::with_config(&self.db, config));
        self
    }

    /// The analytics session created by
    /// [`analytics`](EngineBuilder::analytics) (`None` without it). The
    /// session is cloneable; take one before `build` to cut snapshots and
    /// run scans while the engine runs — and after it shuts down.
    pub fn analytics_session(&self) -> Option<AnalyticsSession> {
        self.analytics.clone()
    }

    // -- terminals ------------------------------------------------------------

    /// Build the one-shot bulk engine ([`GpuTxEngine`]): the simulated-GPU
    /// engine behind the paper's figures and strategy selection. It commits
    /// to no consumer.
    ///
    /// # Panics
    ///
    /// If the builder holds a durability directory, a replication hub, an
    /// analytics session or a fault plan: those attach only to
    /// [`build_pipelined`](EngineBuilder::build_pipelined).
    pub fn build(self) -> GpuTxEngine {
        let consumers = self.durability.enabled()
            || self.replication.is_some()
            || self.analytics.is_some()
            || self.faults.is_some();
        assert!(
            !consumers,
            "durability, replication, analytics and fault plans attach only to \
             `build_pipelined()`; the one-shot `build()` commits to no consumer"
        );
        GpuTxEngine::assemble(self.db, self.registry, self.config)
    }

    /// Build the streaming engine ([`PipelinedGpuTx`]): continuous ingest,
    /// bulk formation overlapped with execution. The one engine that commits
    /// to consumers: it opens the group-commit seam over the parts collected
    /// here.
    ///
    /// # Panics
    ///
    /// If the durability directory cannot be initialized.
    pub fn build_pipelined(self) -> PipelinedGpuTx {
        let commit = GroupCommit::open(
            &self.durability,
            &self.db,
            self.replication,
            self.analytics,
            self.faults,
            self.heal_policy,
            self.health,
        );
        PipelinedGpuTx::start(self.db, self.registry, self.pipeline, commit)
    }

    /// Build the CPU reference engine for `spec`. The CPU engine executes
    /// bulks against a caller-held database and keeps its own partition-size
    /// default, so the builder's database/registry/durability/replication
    /// settings do not apply to it — tune those with
    /// [`CpuEngine::with_partition_size`].
    pub fn build_cpu(&self, spec: CpuSpec) -> CpuEngine {
        CpuEngine::new(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataItemId, DataType, Value};
    use gputx_txn::{BasicOp, ProcedureDef};

    fn setup(rows: i64) -> (Database, ProcedureRegistry) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "items",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![0],
        ));
        for i in 0..rows {
            db.table_mut(t).insert(vec![Value::Int(i), Value::Int(0)]);
        }
        let mut reg = ProcedureRegistry::new();
        reg.register(ProcedureDef::new(
            "touch",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let v = ctx.read(t, row, 1).as_int();
                ctx.write(t, row, 1, Value::Int(v + 1));
            },
        ));
        (db, reg)
    }

    #[test]
    fn builder_configures_one_shot_engine() {
        let (db, reg) = setup(16);
        let mut engine = EngineBuilder::new(db, reg)
            .with_strategy(StrategyChoice::ForceKset)
            .with_bulk_size(8)
            .build();
        assert_eq!(engine.config().strategy, StrategyChoice::ForceKset);
        assert_eq!(engine.config().bulk_size, 8);
        for i in 0..16 {
            engine.submit(0, vec![Value::Int(i % 16)]);
        }
        let reports = engine.run_until_empty();
        assert_eq!(reports.len(), 2);
        assert_eq!(engine.total_committed(), 16);
    }

    #[test]
    fn adaptive_builder_records_decisions_in_the_one_shot_engine_only() {
        let (db, reg) = setup(64);
        let mut engine = EngineBuilder::new(db.clone(), reg.clone())
            .adaptive()
            .with_bulk_size(32)
            .build();
        for i in 0..64 {
            engine.submit(0, vec![Value::Int(i % 64)]);
        }
        engine.run_until_empty();
        assert_eq!(engine.total_committed(), 64);
        let stats = engine.decision_stats().expect("adaptive one-shot engine");
        assert_eq!(stats.total(), 2, "64 transactions in bulks of 32");
        // Conflict-free touches: the selector must never have picked TPL.
        assert_eq!(stats.tpl, 0);

        let engine = EngineBuilder::new(db, reg)
            .adaptive()
            .with_max_bulk_size(32)
            .with_max_wait_us(10_000_000)
            .build_pipelined();
        for i in 0..64 {
            engine.submit(0, vec![Value::Int(i % 64)]).unwrap();
        }
        engine.flush().unwrap();
        // The pipeline makes no strategy decision and closes every bulk at
        // `max_bulk_size`.
        assert!(engine.decision_stats().is_none());
        let (_, pipe_stats) = engine.finish().unwrap();
        assert_eq!(pipe_stats.committed, 64);
        assert_eq!(pipe_stats.closes.by_size, 2, "64 transactions at 32 each");
    }

    #[test]
    fn non_adaptive_engines_report_no_decision_stats() {
        let (db, reg) = setup(4);
        let engine = EngineBuilder::new(db.clone(), reg.clone()).build();
        assert!(engine.decision_stats().is_none());
        let engine = EngineBuilder::new(db, reg).build_pipelined();
        assert!(engine.decision_stats().is_none());
    }

    #[test]
    fn replicate_seeds_hub_from_builder_db() {
        let (db, reg) = setup(4);
        let builder = EngineBuilder::new(db.clone(), reg).replicate();
        let hub = builder.hub().expect("replicate() creates the hub");
        assert!(hub.mirror_db() == db);
        assert_eq!(hub.next_lsn(), 0);
        let engine = builder.build_pipelined();
        engine.submit(0, vec![Value::Int(1)]).unwrap();
        let (db, _) = engine.finish().unwrap();
        // The commit was published: mirror tracks the engine exactly.
        assert_eq!(hub.next_lsn(), 1);
        assert!(hub.mirror_db() == db);
        hub.stop();
    }

    #[test]
    fn analytics_session_tracks_commits_and_survives_shutdown() {
        let (db, reg) = setup(8);
        let builder = EngineBuilder::new(db, reg)
            .with_max_bulk_size(8)
            .with_max_wait_us(10_000_000)
            .analytics();
        let session = builder
            .analytics_session()
            .expect("analytics() creates the session");
        assert_eq!(session.records_applied(), 0);
        let engine = builder.build_pipelined();
        for i in 0..8 {
            engine.submit(0, vec![Value::Int(i)]).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(session.records_applied(), 1);
        let snap = session.snapshot();
        assert_eq!(snap.get_i64(0, 5, 1), 1);
        // The snapshot outlives the engine.
        let (db, _) = engine.finish().unwrap();
        snap.check_against(&db).unwrap();
        assert_eq!(snap.get_i64(0, 5, 1), 1);
    }

    #[test]
    fn durability_disabled_by_default() {
        let (db, reg) = setup(1);
        assert!(!EngineBuilder::new(db, reg).durability.enabled());
    }

    #[test]
    #[should_panic(expected = "build_pipelined")]
    fn one_shot_build_refuses_durability() {
        let (db, reg) = setup(1);
        let dir = std::env::temp_dir().join("gputx-builder-refused");
        EngineBuilder::new(db, reg).with_durability(dir).build();
    }

    #[test]
    fn analytics_rides_the_pipelined_commit_point() {
        let (db, reg) = setup(16);
        let builder = EngineBuilder::new(db, reg)
            .with_max_bulk_size(4)
            .with_max_wait_us(10_000_000)
            .analytics();
        let session = builder.analytics_session().unwrap();
        let engine = builder.build_pipelined();
        for i in 0..16 {
            engine.submit(0, vec![Value::Int(i % 16)]).unwrap();
        }
        let (db, stats) = engine.finish().unwrap();
        assert_eq!(stats.committed, 16);
        assert!(session.wait_applied(stats.bulks(), std::time::Duration::from_secs(5)));
        let snap = session.snapshot();
        assert_eq!(snap.records_applied(), stats.bulks());
        snap.check_against(&db).unwrap();
    }

    #[test]
    fn from_promotion_reuses_promotion_epoch() {
        let (db, reg) = setup(4);
        let promotion = Promotion {
            db,
            epoch: 12345,
            applied_lsn: 7,
        };
        let builder = EngineBuilder::from_promotion(promotion, reg).replicate();
        assert_eq!(builder.hub().unwrap().epoch(), 12345);
    }
}
