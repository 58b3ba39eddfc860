//! Crash-recovery tests: checkpoint + WAL replay reproduces the committed
//! state bit-identically.
//!
//! Three angles:
//!
//! * **Equivalence** — run logged bulks on TM1 and micro; `recover()` must
//!   equal the live final
//!   database exactly (`Database` equality compares every table cell, delete
//!   flag and index entry).
//! * **Pipeline** — the streaming engine's execution stage is the group
//!   commit point; after a clean shutdown, recovery equals the pipeline's
//!   final state.
//! * **Torn tail (property)** — chop the WAL at an arbitrary byte offset;
//!   recovery must yield exactly the longest committed-bulk prefix, with the
//!   torn-tail flag set iff the cut landed inside a frame.

use gputx_core::config::StrategyChoice;
use gputx_core::EngineBuilder;
use gputx_durability::{recover, DurabilityConfig, FsyncPolicy};
use gputx_storage::Database;
use gputx_workloads::{MicroConfig, MicroWorkload, Tm1Config, WorkloadBundle};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Fresh scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gputx-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `n_txns` of the bundle's workload through a durability-enabled
/// one-shot engine in bulks of `bulk_size`. Returns the final live database
/// plus the state snapshot after every bulk (index 0 = initial state).
fn run_logged_bulks(
    bundle: &mut WorkloadBundle,
    dir: &Path,
    fsync: FsyncPolicy,
    n_txns: usize,
    bulk_size: usize,
) -> (Database, Vec<Database>) {
    let mut engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_bulk_size(bulk_size)
        .with_durability_config(DurabilityConfig::at(dir).with_fsync(fsync))
        .build();
    for (ty, params) in bundle.generate(n_txns) {
        engine.submit(ty, params);
    }
    let mut states = vec![engine.db().clone()];
    while engine.execute_pending().is_some() {
        states.push(engine.db().clone());
    }
    (engine.db().clone(), states)
}

#[test]
fn recovery_equals_live_state_on_tm1_and_micro() {
    let cases: Vec<(&str, WorkloadBundle)> = vec![
        ("tm1", Tm1Config { scale_factor: 1 }.build()),
        (
            "micro",
            MicroWorkload::build(&MicroConfig::default().with_tuples(2048).with_skew(0.3)),
        ),
    ];
    for (name, mut bundle) in cases {
        bundle.reseed(7);
        let dir = scratch_dir(&format!("equiv-{name}"));
        let (live, _) = run_logged_bulks(&mut bundle, &dir, FsyncPolicy::PerBulk, 2048, 512);
        let recovery = recover(&dir).expect("recover");
        assert_eq!(recovery.replayed, 4, "{name}: one record per bulk");
        assert!(!recovery.torn_tail, "{name}: clean shutdown");
        assert!(
            recovery.db == live,
            "{name}: recovered state must equal the live state"
        );
    }
}

#[test]
fn checkpoint_mid_run_truncates_log_and_recovery_resumes() {
    let mut bundle = MicroWorkload::build(&MicroConfig::default().with_tuples(1024));
    let dir = scratch_dir("mid-ckpt");
    let mut engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_bulk_size(256)
        .with_durability(&dir)
        .build();
    for (ty, params) in bundle.generate(1024) {
        engine.submit(ty, params);
    }
    engine.execute_pending().expect("bulk 1");
    engine.execute_pending().expect("bulk 2");
    assert!(engine.checkpoint(), "durability is enabled");
    engine.execute_pending().expect("bulk 3");
    engine.execute_pending().expect("bulk 4");
    let live = engine.db().clone();
    let stats = engine.durability_stats().expect("stats present");
    assert_eq!(
        stats.records, 2,
        "checkpoint truncated the first two records"
    );
    drop(engine);
    let recovery = recover(&dir).expect("recover");
    assert_eq!(recovery.replayed, 2, "only post-checkpoint bulks replay");
    assert_eq!(recovery.next_lsn, 4);
    assert!(recovery.db == live);
}

#[test]
fn pipelined_engine_recovers_bit_identical_after_clean_shutdown() {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    let dir = scratch_dir("pipeline");
    let engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_durability_config(DurabilityConfig::at(&dir).with_fsync(FsyncPolicy::EveryN(2)))
        .with_max_bulk_size(256)
        .with_max_wait_us(10_000_000)
        .build_pipelined();
    for (ty, params) in bundle.generate(1500) {
        engine.submit(ty, params).expect("pipeline accepts");
    }
    let (db, stats) = engine.finish().expect("pipeline stays healthy");
    assert!(stats.bulks() >= 6);
    // Clean shutdown synced the log even under EveryN batching (the writer's
    // drop flushes), so every bulk's record is recoverable.
    let recovery = recover(&dir).expect("recover");
    assert_eq!(recovery.replayed, stats.bulks());
    assert!(!recovery.torn_tail);
    assert!(
        recovery.db == db,
        "pipeline recovery must equal the final streamed state"
    );
}

/// Shared fixture for the torn-tail property: one logged run of the micro
/// workload, the per-bulk state snapshots, the raw WAL bytes and the byte
/// offset where each record's frame ends.
struct TornFixture {
    dir: PathBuf,
    wal: Vec<u8>,
    /// `boundaries[i]` = file offset after record `i` frames end;
    /// `boundaries[0]` = 8 (the header), so a cut at `boundaries[i]` keeps
    /// exactly `i` records intact.
    boundaries: Vec<usize>,
    /// `states[i]` = database state after `i` bulks committed.
    states: Vec<Database>,
}

fn torn_fixture() -> &'static TornFixture {
    static FIXTURE: OnceLock<TornFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut bundle =
            MicroWorkload::build(&MicroConfig::default().with_tuples(512).with_skew(0.3));
        let dir = scratch_dir("torn-fixture");
        let (_, states) = run_logged_bulks(&mut bundle, &dir, FsyncPolicy::PerBulk, 1536, 256);
        assert_eq!(states.len(), 7, "6 bulks + the initial state");
        let wal = std::fs::read(dir.join("gputx.wal")).expect("wal exists");
        // Walk the frames to find each record's end offset. The file header
        // is 16 bytes: 8-byte magic + 8-byte epoch.
        let mut boundaries = vec![16usize];
        let mut pos = 16usize;
        while pos + 8 <= wal.len() {
            let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 8 + len;
            assert!(pos <= wal.len(), "intact log has whole frames");
            boundaries.push(pos);
        }
        assert_eq!(boundaries.len(), 7, "one frame per bulk");
        TornFixture {
            dir,
            wal,
            boundaries,
            states,
        }
    })
}

proptest! {
    /// Kill the log at an arbitrary byte offset: recovery yields exactly the
    /// longest committed-bulk prefix, bit-identical to the state the engine
    /// had after that many bulks, and flags the torn tail iff the cut landed
    /// mid-frame.
    #[test]
    fn torn_wal_recovers_exactly_the_longest_committed_prefix(frac in 0.0f64..1.0) {
        let fx = torn_fixture();
        // Cuts range over everything past the 16-byte header (magic+epoch).
        let cut = 16 + ((fx.wal.len() - 16) as f64 * frac) as usize;
        let case_dir = fx.dir.join("torn-case");
        std::fs::create_dir_all(&case_dir).expect("mkdir");
        std::fs::copy(fx.dir.join("gputx.ckpt"), case_dir.join("gputx.ckpt"))
            .expect("copy checkpoint");
        std::fs::write(case_dir.join("gputx.wal"), &fx.wal[..cut]).expect("truncate");
        let recovery = recover(&case_dir).expect("recover");
        let expected = fx.boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(recovery.replayed as usize, expected, "cut at {}", cut);
        prop_assert_eq!(recovery.torn_tail, !fx.boundaries.contains(&cut));
        prop_assert!(
            recovery.db == fx.states[expected],
            "cut at {} must land exactly on the {}-bulk prefix state",
            cut,
            expected
        );
    }
}
