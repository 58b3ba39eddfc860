//! Chaos suite: seeded fault storms across WAL, wire and replication.
//!
//! The crash-window tests elsewhere prove each layer *fails cleanly*; this
//! suite installs a [`FaultPlan`] and proves the stack *recovers on its
//! own*:
//!
//! * **WAL storms heal deterministically** — the same seed injects the same
//!   append/fsync faults, the engine absorbs every one with a supervised
//!   checkpoint-heal, and two runs are bit-identical to each other and to
//!   the fault-free reference.
//! * **Budget exhaustion degrades, never corrupts** — with a zero heal
//!   budget the engine drops durability, keeps serving, and recovery still
//!   reproduces the last durable state.
//! * **Full-stack storm converges** — a reconnecting client, a supervised
//!   replica and a healing WAL all under one seeded storm: every reply
//!   resolves exactly once, commits are never lost or duplicated, and
//!   engine, mirror, replica and recovery agree on the final state.
//! * **Any seed converges (proptest)** — 64 seeded storms over engine +
//!   durability + supervised replication, each checked against a serial
//!   replay of the committed transactions.

use gputx_client::{Client, ClientConfig, TxnResult};
use gputx_core::{EngineBuilder, PipelineConfig, PipelinedGpuTx, StrategyChoice};
use gputx_durability::recover;
use gputx_faults::{BackoffPolicy, FaultPlan, HealPolicy, WalState};
use gputx_replication::{ReplicaSupervisor, SupervisorConfig};
use gputx_server::{chaos_wrap, socket_pair, Duplex, Server};
use gputx_storage::Database;
use gputx_txn::{ProcedureRegistry, TxnSignature};
use gputx_workloads::{MicroConfig, MicroWorkload, Tm1Config, WorkloadBundle};
use proptest::prelude::*;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gputx-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn micro(tuples: u64, seed: u64) -> WorkloadBundle {
    let mut bundle = MicroWorkload::build(
        &MicroConfig::default()
            .with_tuples(tuples)
            .with_types(4)
            .with_skew(0.3),
    );
    bundle.reseed(seed);
    bundle
}

fn tm1() -> WorkloadBundle {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    bundle.reseed(0xC4A0);
    bundle
}

/// Replay `bulks` serially (the paper's reference execution), applying the
/// insert buffers once per bulk exactly like the engine's commit.
fn serial_replay(
    db0: &Database,
    registry: &ProcedureRegistry,
    bulks: &[&[TxnSignature]],
) -> Database {
    let mut db = db0.clone();
    for bulk in bulks {
        for sig in *bulk {
            registry.execute(sig, &mut db);
        }
        db.apply_insert_buffers();
    }
    db
}

/// Submit `chunk` (at most one bulk's worth) to an engine that closes bulks
/// by size, and wait for its bulk to commit.
fn commit_bulk(engine: &PipelinedGpuTx, chunk: &[TxnSignature]) {
    for sig in chunk {
        engine.submit(sig.ty, sig.params.clone()).expect("submit");
    }
    engine.flush().expect("bulk commits");
}

/// Fast backoff so chaos runs spend their time injecting, not sleeping.
fn fast_backoff(seed: u64) -> BackoffPolicy {
    BackoffPolicy {
        base: Duration::from_millis(1),
        max: Duration::from_millis(20),
        max_retries: 50,
        seed,
    }
}

// ---------------------------------------------------------------------------
// WAL-only storms: bit-deterministic heal.
// ---------------------------------------------------------------------------

/// Aggressive WAL-only fault rates with a small budget: several faults are
/// certain over a 10-bulk run, and the default heal budget (8) outlasts the
/// fault budget (5), so the run heals and never degrades.
fn wal_storm_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        wal_append_error: 0.25,
        wal_short_write: 0.15,
        wal_fsync_error: 0.15,
        ..FaultPlan::disabled()
    }
    .with_max_faults(5)
}

/// What one WAL-storm run observed; equal across runs of one seed.
#[derive(Debug, PartialEq)]
struct StormOutcome {
    heals: u64,
    injected: u64,
    wal: WalState,
}

/// A durable pipelined engine builder over `bundle`'s database that closes
/// every bulk at `per_bulk` transactions by size.
fn storm_builder(bundle: &WorkloadBundle, dir: &std::path::Path, per_bulk: usize) -> EngineBuilder {
    EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_durability(dir)
        .with_max_bulk_size(per_bulk)
        .with_max_wait_us(10_000_000)
}

/// One seeded WAL-storm run: returns the final database plus what the health
/// surface observed, so callers can assert determinism.
fn run_wal_storm(plan: Option<FaultPlan>, name: &str) -> (Database, StormOutcome) {
    const BULKS: usize = 10;
    const PER_BULK: usize = 16;
    let bundle = micro(128, 0xD15C);
    let sigs = micro(128, 0xD15C).generate_signatures(BULKS * PER_BULK, 0);
    let dir = scratch_dir(name);
    let mut builder = storm_builder(&bundle, &dir, PER_BULK);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let health = builder.health();
    let engine = builder.build_pipelined();
    for sig in &sigs {
        engine.submit(sig.ty, sig.params.clone()).expect("submit");
    }
    let (db, stats) = engine.finish().expect("pipeline finishes cleanly");
    assert_eq!((stats.bulks(), stats.bulks_failed), (BULKS as u64, 0));
    let report = health.report();
    assert!(
        matches!(report.wal, WalState::Healthy | WalState::Healed),
        "a budgeted WAL storm must never degrade (got {:?})",
        report.wal
    );
    // Whatever the storm did, the log still replays to the live state.
    let recovered = recover(&dir).expect("recovery after WAL storm");
    assert!(
        recovered.db == db,
        "{name}: recovery must reproduce the live state exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = StormOutcome {
        heals: report.heals,
        injected: report.faults_injected,
        wal: report.wal,
    };
    (db, outcome)
}

/// The same seed injects the same WAL faults at the same appends; the engine
/// heals through all of them; the committed state is bit-identical to the
/// fault-free run.
#[test]
fn wal_fault_storm_heals_deterministically() {
    let plan = || Some(wal_storm_plan(0xBAD_5EED));
    let (db_a, a) = run_wal_storm(plan(), "wal-a");
    let (db_b, b) = run_wal_storm(plan(), "wal-b");
    assert!(a.injected > 0, "the storm must actually inject faults");
    assert!(a.heals >= 1, "injected WAL faults must trigger heals");
    assert_eq!(a, b, "same seed, same fault schedule, same heal count");
    assert!(db_a == db_b, "same seed must produce bit-identical state");

    let (db_clean, clean) = run_wal_storm(None, "wal-clean");
    assert_eq!((clean.heals, clean.injected), (0, 0));
    assert!(
        db_a == db_clean,
        "healed WAL faults must never change committed state"
    );
}

/// With the budget spent and `writes_when_degraded: false` the engine
/// refuses the write with a typed error: it fails the bulk's tickets with
/// `ExecError::LogAppendFailed`.
#[test]
fn degraded_log_fails_the_bulk_tickets_with_the_commit_error() {
    const PER_BULK: usize = 8;
    let bundle = micro(64, 0xF00D);
    let sigs = micro(64, 0xF00D).generate_signatures(PER_BULK, 0);
    let dir = scratch_dir("refuse");
    let builder = storm_builder(&bundle, &dir, PER_BULK)
        .faults(FaultPlan {
            seed: 7,
            wal_append_error: 1.0,
            ..FaultPlan::disabled()
        })
        .heal_policy(HealPolicy {
            heal_budget: 0,
            writes_when_degraded: false,
        });
    let health = builder.health();
    let engine = builder.build_pipelined();
    let tickets: Vec<_> = sigs
        .iter()
        .map(|sig| engine.submit(sig.ty, sig.params.clone()).expect("submit"))
        .collect();
    let mut errors: Vec<String> = tickets
        .iter()
        .map(|t| match t.wait() {
            Err(gputx_exec::PipelineError::BulkFailed(msg)) => msg,
            other => panic!("ticket must fail with the commit error, got {other:?}"),
        })
        .collect();
    errors.dedup();
    assert_eq!(errors.len(), 1, "one bulk, one error: {errors:?}");
    assert!(
        errors[0].starts_with("durability log append failed: "),
        "tickets carry ExecError::LogAppendFailed: {errors:?}"
    );
    assert_eq!(health.report().wal, WalState::Degraded);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the heal budget spent the engine degrades *visibly* instead of
/// panicking: reads and (policy-allowed) writes keep flowing, health says
/// `Degraded`, and recovery still reproduces the last durable state — here
/// the initial checkpoint, since the very first append failed.
#[test]
fn heal_budget_exhaustion_degrades_without_losing_the_engine() {
    const BULKS: usize = 4;
    const PER_BULK: usize = 16;
    let bundle = micro(96, 0xDE6A);
    let sigs = micro(96, 0xDE6A).generate_signatures(BULKS * PER_BULK, 0);
    let dir = scratch_dir("degrade");
    let plan = FaultPlan {
        seed: 7,
        wal_append_error: 1.0,
        ..FaultPlan::disabled()
    };
    let builder = storm_builder(&bundle, &dir, PER_BULK)
        .faults(plan)
        .heal_policy(HealPolicy {
            heal_budget: 0,
            writes_when_degraded: true,
        });
    let health = builder.health();
    let engine = builder.build_pipelined();
    assert_eq!(health.report().wal, WalState::Healthy);

    for chunk in sigs.chunks(PER_BULK) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|sig| engine.submit(sig.ty, sig.params.clone()).expect("submit"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("degraded engine keeps serving");
        }
    }
    let report = health.report();
    assert_eq!(
        report.wal,
        WalState::Degraded,
        "budget 0 degrades immediately"
    );
    assert_eq!(report.heals, 0, "no heals were available to spend");

    // Degradation sheds durability, not correctness: the live state is still
    // the serial replay of everything committed.
    let bulks: Vec<&[TxnSignature]> = sigs.chunks(PER_BULK).collect();
    let reference = serial_replay(&bundle.db, &bundle.registry, &bulks);
    let (db, _) = engine.finish().expect("pipeline finishes cleanly");
    assert!(db == reference);

    // The log was abandoned before any record landed, so recovery returns
    // exactly the initial checkpoint — stale but consistent, never torn.
    let recovered = recover(&dir).expect("recovery after degradation");
    assert_eq!(recovered.replayed, 0);
    assert!(recovered.db == bundle.db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Full-stack storm: client wire + replication + WAL under one seeded plan.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Tally {
    committed: u64,
    aborted: u64,
    shed: u64,
    failed: u64,
    ambiguous: u64,
}

impl Tally {
    fn total(&self) -> u64 {
        self.committed + self.aborted + self.shed + self.failed + self.ambiguous
    }
}

/// One full-stack seeded storm. Faults hit the WAL (append/fsync), the
/// client wire (drop/corrupt/delay/reset) and the follower stream
/// (stall/kill); the client reconnects, the supervisor resyncs, the WAL
/// heals. After quiesce the run must converge: every reply resolved exactly
/// once, no commit lost or duplicated, and engine == mirror == replica ==
/// recovery.
fn run_full_storm(seed: u64, n: usize, max_faults: u64, name: &str) {
    let dir = scratch_dir(name);
    let mut bundle = tm1();
    let stream = bundle.generate(n);
    let plan = FaultPlan::storm(seed).with_max_faults(max_faults);
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_durability(&dir)
        .replicate()
        .faults(plan)
        .with_pipeline(
            PipelineConfig::default()
                .with_max_bulk_size(32)
                .with_max_wait_us(2_000),
        );
    let injector = builder.faults_injector().expect("plan installed");
    let health = builder.health();
    let hub = builder.hub().expect("replicate() creates the hub");
    let engine = builder.build_pipelined();

    let server = Arc::new(Server::new(engine.handle()));
    server.serve_health(health.clone());

    // Reconnecting client over a chaos-wrapped socket pair. Each reconnect
    // generation gets its own deterministic wire-fault stream; the raw
    // client end is stashed so the quiesce step can yank a connection whose
    // in-flight requests were dropped by the chaos plane.
    let current: Arc<Mutex<Option<UnixStream>>> = Arc::new(Mutex::new(None));
    let client = {
        let server = Arc::clone(&server);
        let injector = injector.clone();
        let current = Arc::clone(&current);
        let generation = AtomicU64::new(0);
        Client::with_connector(
            move || {
                let (server_end, client_end) = socket_pair()?;
                server.attach(server_end)?;
                *current.lock().expect("stash lock") = Some(client_end.try_clone()?);
                let g = generation.fetch_add(1, Ordering::Relaxed);
                let wire = injector.wire(&format!("client-{g}"));
                Ok(Box::new(chaos_wrap(client_end, wire)) as Box<dyn Duplex>)
            },
            ClientConfig {
                connect_timeout: None,
                read_timeout: Some(Duration::from_millis(25)),
                reconnect: Some(fast_backoff(seed)),
            },
        )
        .expect("first dial succeeds")
    };

    // Supervised replica over a chaos-wrapped follower stream.
    let mut sup = {
        let hub = hub.clone();
        let injector = injector.clone();
        let generation = AtomicU64::new(0);
        ReplicaSupervisor::start(
            move || {
                let (server_end, follower_end) = socket_pair()?;
                hub.attach(server_end)?;
                let g = generation.fetch_add(1, Ordering::Relaxed);
                let wire = injector.follower_wire(&format!("follower-{g}"));
                Ok(Box::new(chaos_wrap(follower_end, wire)) as Box<dyn Duplex>)
            },
            SupervisorConfig {
                backoff: fast_backoff(seed ^ 0xF0),
            },
        )
        .expect("supervisor starts")
    };

    // Drive the storm: every submit hands back a reply future, even when the
    // connection under it dies mid-flight.
    let replies: Vec<_> = stream
        .iter()
        .map(|(ty, params)| {
            client
                .submit(*ty, params.clone())
                .expect("submit always yields a reply under reconnect")
        })
        .collect();

    // Quiesce: stop injecting, then barrier on a ping — responses are FIFO,
    // so the pong proves the server resolved every submit it ever received.
    injector.disarm();
    client.ping().expect("post-storm ping");
    // Requests whose frames the chaos plane *dropped* never reached the
    // server and can never be answered; yank the connection so the reader
    // resolves them as ambiguous (`Disconnected`) rather than hanging.
    if replies.iter().any(|r| r.try_get().is_none()) {
        if let Some(stream) = current.lock().expect("stash lock").take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    let mut tally = Tally::default();
    for reply in &replies {
        match reply.wait() {
            Ok(TxnResult::Committed(_)) => tally.committed += 1,
            Ok(TxnResult::Aborted(_)) => tally.aborted += 1,
            Ok(TxnResult::QueueFull) => tally.shed += 1,
            Ok(TxnResult::BulkFailed(_)) => tally.failed += 1,
            Ok(TxnResult::Disconnected) => tally.ambiguous += 1,
            Ok(other) => panic!("submit resolved as {other:?}"),
            Err(e) => panic!("reconnecting client must not surface hard errors: {e}"),
        }
    }
    assert_eq!(tally.total(), n as u64, "every reply resolves exactly once");
    assert_eq!(
        client.unmatched_responses(),
        0,
        "every response matched the request that caused it"
    );

    // The yank resolves ambiguous replies while the server may still be
    // executing those submits: drain the pipeline and wait for the publish
    // stream to go quiet before reading the final LSN.
    engine.flush().expect("pipeline drains");
    let deadline = std::time::Instant::now() + WAIT;
    let published = loop {
        let before = hub.next_lsn();
        std::thread::sleep(Duration::from_millis(50));
        if hub.next_lsn() == before || std::time::Instant::now() >= deadline {
            break before;
        }
    };

    // The supervised replica converges on everything the primary published.
    assert!(
        sup.wait_applied(published, WAIT),
        "supervised replica must converge after the storm (lsn {published})"
    );

    // Health over the wire agrees with the in-process surfaces.
    let report = client.health().expect("health probe after the storm");
    assert_ne!(report.wal, WalState::Disabled, "durability is configured");
    assert_eq!(report.faults_injected, injector.injected());
    assert_eq!(report.repl_next_lsn, published);
    assert_eq!(report.heals, health.report().heals);

    let client_reconnects = client.reconnects();
    drop(client);
    server.stop();
    let sup_db = sup.snapshot_db().expect("converged replica snapshots");
    let sup_stats = sup.stats();
    sup.stop();
    let (final_db, stats) = engine.finish().expect("pipeline finishes cleanly");
    let mirror = hub.mirror_db();
    hub.stop();

    // Convergence chain: engine == mirror == supervised replica == recovery.
    assert!(mirror == final_db, "replication mirror == engine state");
    assert!(sup_db == final_db, "supervised replica == engine state");
    if health.report().wal != WalState::Degraded {
        let recovered = recover(&dir).expect("post-storm recovery");
        assert!(
            recovered.db == final_db,
            "recovery must replay to the engine's final state"
        );
    }

    // Commit accounting: an acked commit is real, and every commit beyond
    // the acked ones is accounted for by an ambiguous (dropped/orphaned)
    // submit — nothing lost, nothing duplicated.
    let engine_committed = stats.committed;
    assert!(
        engine_committed >= tally.committed,
        "an acked commit must have committed ({engine_committed} < {})",
        tally.committed
    );
    assert!(
        engine_committed <= tally.committed + tally.ambiguous,
        "commits beyond the acked set must all be ambiguous submits \
         ({engine_committed} > {} + {})",
        tally.committed,
        tally.ambiguous
    );
    assert!(
        engine_committed + stats.aborted <= n as u64,
        "the engine can never execute more transactions than were submitted"
    );
    assert!(!sup_stats.gave_up, "the supervisor must not give up");

    let _ = std::fs::remove_dir_all(&dir);
    // Keep the run observable when it fails later under a different seed.
    eprintln!(
        "storm seed={seed:#x}: {} committed / {} ambiguous / {} injected faults / \
         {client_reconnects} client reconnects / {} replica reconnects / {} heals",
        tally.committed,
        tally.ambiguous,
        injector.injected(),
        sup_stats.reconnects,
        health.report().heals
    );
}

/// Two fixed seeds, moderate scale: the deterministic storm the fast CI
/// tier runs on every push.
#[test]
fn chaos_storm_full_stack_converges() {
    run_full_storm(0x5701, 280, 48, "storm-a");
    run_full_storm(0xC4A05, 280, 48, "storm-b");
}

/// The long soak behind the CI chaos job (`--ignored`): more seeds, more
/// transactions, a bigger fault budget.
#[test]
#[ignore = "long soak; run by the CI chaos job via --ignored"]
fn chaos_storm_long_soak() {
    for (i, seed) in [0x1D5EED, 0x2D5EED, 0x3D5EED].into_iter().enumerate() {
        run_full_storm(seed, 1200, 160, &format!("soak-{i}"));
    }
}

// ---------------------------------------------------------------------------
// Property: any seeded storm converges to serial replay.
// ---------------------------------------------------------------------------

/// One proptest case: engine + durability + supervised replication under a
/// seed-derived storm (WAL faults plus follower stall/kill). The default
/// heal policy keeps writing when degraded, so every bulk commits and the
/// final state must equal a serial replay of *all* submitted transactions —
/// and mirror, replica and recovery must agree with it.
fn assert_seeded_storm_converges(seed: u64) {
    const BULKS: usize = 3;
    const PER_BULK: usize = 8;
    let bundle = micro(64, 0x5EED);
    let sigs = micro(64, 0x5EED).generate_signatures(BULKS * PER_BULK, 0);
    let dir = scratch_dir(&format!("prop-{seed:x}"));
    let builder = storm_builder(&bundle, &dir, PER_BULK)
        .replicate()
        .faults(FaultPlan::storm(seed).with_max_faults(12));
    let health = builder.health();
    let hub = builder.hub().expect("replicate() creates the hub");
    let injector = builder.faults_injector().expect("plan installed");
    let engine = builder.build_pipelined();

    let mut sup = {
        let hub = hub.clone();
        let generation = AtomicU64::new(0);
        ReplicaSupervisor::start(
            move || {
                let (server_end, follower_end) = socket_pair()?;
                hub.attach(server_end)?;
                let g = generation.fetch_add(1, Ordering::Relaxed);
                let wire = injector.follower_wire(&format!("follower-{g}"));
                Ok(Box::new(chaos_wrap(follower_end, wire)) as Box<dyn Duplex>)
            },
            SupervisorConfig {
                backoff: fast_backoff(seed),
            },
        )
        .expect("supervisor starts")
    };

    for chunk in sigs.chunks(PER_BULK) {
        commit_bulk(&engine, chunk);
    }
    let (db, stats) = engine.finish().expect("pipeline finishes cleanly");
    assert_eq!(stats.bulks_failed, 0, "no bulk fails under the storm");

    // Every bulk committed, so the reference is the serial replay of the
    // full stream.
    let bulks: Vec<&[TxnSignature]> = sigs.chunks(PER_BULK).collect();
    let reference = serial_replay(&bundle.db, &bundle.registry, &bulks);
    assert!(
        db == reference,
        "engine state must equal serial replay (seed {seed:#x})"
    );
    assert!(
        hub.mirror_db() == reference,
        "mirror must equal serial replay (seed {seed:#x})"
    );
    let published = hub.next_lsn();
    assert!(
        sup.wait_applied(published, WAIT),
        "supervised replica must converge (seed {seed:#x})"
    );
    let sup_db = sup.snapshot_db().expect("converged replica snapshots");
    assert!(
        sup_db == reference,
        "replica state must equal serial replay (seed {seed:#x})"
    );
    if health.report().wal != WalState::Degraded {
        let recovered = recover(&dir).expect("recovery under the storm");
        assert!(
            recovered.db == reference,
            "recovery must equal serial replay (seed {seed:#x})"
        );
    }
    sup.stop();
    hub.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Any seeded [`FaultPlan::storm`] run converges to the serial replay of
    /// the acked transactions.
    #[test]
    fn prop_seeded_storms_converge_to_serial_replay(seed in 0u64..u64::MAX) {
        assert_seeded_storm_converges(seed);
    }
}
