//! HTAP consistency gate: analytical scans running concurrently with the
//! pipelined engine must observe *exactly* a committed bulk prefix.
//!
//! Every test drives real ingest (TM1) while scanner threads cut
//! bulk-boundary snapshots, then hard-verifies the snapshots against a
//! serial replay of the retained redo records:
//!
//! * a scan under load equals the same scan replayed serially against the
//!   frozen committed prefix (count, bit-exact f64 sum, full group-by);
//! * a snapshot survives engine churn — later commits, shutdown and drop —
//!   with every cell intact;
//! * snapshots cut and dropped mid-scan never corrupt later bulks: the
//!   engine's final state is the serial replay of all retained records;
//! * a replica serving `snapshot_db()` answers the same scans with the same
//!   bits as the primary's final snapshot (replica offload).

use gputx_analytics::{
    count_rows, group_by_i64, sum_f64, AnalyticsConfig, GroupRow, Predicate, ScanOptions,
    ScanSource, SnapshotHandle,
};
use gputx_core::config::StrategyChoice;
use gputx_core::EngineBuilder;
use gputx_storage::catalog::TableId;
use gputx_storage::Database;
use gputx_txn::TxnSignature;
use gputx_workloads::Tm1Config;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const N_TXNS: usize = 4_096;
const MAX_BULK: usize = 128;
const WAIT: Duration = Duration::from_secs(30);

fn tm1_stream(seed: u64) -> (gputx_workloads::WorkloadBundle, Vec<TxnSignature>) {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    bundle.reseed(seed);
    let sigs = bundle.generate_signatures(N_TXNS, 0);
    (bundle, sigs)
}

/// The scan every test runs: count + bit-exact sum + group-by over the TM1
/// subscriber table (group key `bit_1`, aggregate `vlr_location`).
#[derive(Debug, PartialEq, Clone)]
struct ScanResult {
    count: u64,
    sum_bits: u64,
    groups: Vec<GroupRow>,
}

fn scan<S: ScanSource + ?Sized>(src: &S, table: TableId, opts: ScanOptions) -> ScanResult {
    ScanResult {
        count: count_rows(src, table, &Predicate::All, opts),
        sum_bits: sum_f64(src, table, 4, &Predicate::All, opts).to_bits(),
        groups: group_by_i64(src, table, 2, 4, &Predicate::All, opts),
    }
}

fn subscriber(db: &Database) -> TableId {
    db.table_id("subscriber")
        .expect("TM1 has a subscriber table")
}

/// Serially replay `records` retained records onto `seed` and return the
/// reference database the snapshot at that bulk count must equal.
fn replay_prefix(
    retained: &[gputx_durability::BulkLogRecord],
    seed: &Database,
    records: usize,
) -> Database {
    let mut db = seed.clone();
    for record in &retained[..records] {
        record.clone().replay_into(&mut db);
    }
    db
}

#[test]
fn scan_under_load_matches_serial_replay() {
    let (bundle, sigs) = tm1_stream(7);
    let seed = bundle.db.clone();
    let table = subscriber(&seed);
    let builder = EngineBuilder::new(seed.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(MAX_BULK)
        .with_max_wait_us(2_000)
        .analytics_with(AnalyticsConfig::default().with_retained_records());
    let session = builder.analytics_session().unwrap();
    let engine = builder.build_pipelined();

    let done = Arc::new(AtomicBool::new(false));
    // The scanner makes its first observation before anything is submitted,
    // so it observes once with `done` unset and once after: at least twice
    // however late its thread is first scheduled.
    let first_observed = Arc::new(Barrier::new(2));
    let scanner = {
        let session = session.clone();
        let done = done.clone();
        let first_observed = first_observed.clone();
        std::thread::spawn(move || {
            let mut observed: Vec<(u64, ScanResult)> = Vec::new();
            loop {
                let finished = done.load(Ordering::Acquire);
                let snap = session.snapshot();
                observed.push((
                    snap.records_applied(),
                    scan(&snap, table, ScanOptions::parallel(4)),
                ));
                if observed.len() == 1 {
                    first_observed.wait();
                }
                if finished {
                    return observed;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    first_observed.wait();
    for sig in &sigs {
        engine.submit(sig.ty, sig.params.clone()).unwrap();
    }
    let (final_db, stats) = engine.finish().unwrap();
    done.store(true, Ordering::Release);
    let observed = scanner.join().unwrap();
    assert!(
        observed.len() >= 2,
        "the scanner must observe the stream at least twice"
    );

    // Hard gate: each concurrent parallel scan equals the serial scan of
    // the serially replayed committed prefix it froze.
    let retained = session.retained_records();
    assert_eq!(retained.len() as u64, stats.bulks());
    for (records, result) in &observed {
        let reference = replay_prefix(&retained, &seed, *records as usize);
        let serial = scan(&reference, table, ScanOptions::sequential());
        assert_eq!(
            *result, serial,
            "scan at {records} bulks diverged from its serial replay"
        );
    }
    // And the final cut is the engine's own state, cell for cell.
    let final_snap = session.snapshot();
    assert_eq!(final_snap.records_applied(), retained.len() as u64);
    final_snap.check_against(&final_db).unwrap();
}

#[test]
fn snapshot_survives_engine_churn_and_shutdown() {
    let (bundle, sigs) = tm1_stream(11);
    let seed = bundle.db.clone();
    let table = subscriber(&seed);
    let builder = EngineBuilder::new(seed.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(MAX_BULK)
        .with_max_wait_us(2_000)
        .analytics_with(AnalyticsConfig::default().with_retained_records());
    let session = builder.analytics_session().unwrap();
    let engine = builder.build_pipelined();

    // Commit some prefix, cut a snapshot, remember what it said.
    let (head, tail) = sigs.split_at(N_TXNS / 4);
    for sig in head {
        engine.submit(sig.ty, sig.params.clone()).unwrap();
    }
    assert!(session.wait_applied(1, WAIT), "at least one bulk commits");
    let snap = session.snapshot();
    let frozen_records = snap.records_applied();
    let before = scan(&snap, table, ScanOptions::parallel(4));

    // Churn: the engine keeps committing bulks on top, then shuts down.
    for sig in tail {
        engine.submit(sig.ty, sig.params.clone()).unwrap();
    }
    let (_final_db, stats) = engine.finish().unwrap();
    assert!(stats.bulks() > frozen_records, "churn happened");

    // The old handle still answers bit-identically after churn + shutdown,
    // and still equals its own serial replay — even with the session gone.
    let retained = session.retained_records();
    drop(session);
    let after = scan(&snap, table, ScanOptions::sequential());
    assert_eq!(before, after, "snapshot changed under engine churn");
    let reference = replay_prefix(&retained, &seed, frozen_records as usize);
    snap.check_against(&reference).unwrap();
}

#[test]
fn snapshots_dropped_mid_scan_do_not_corrupt_later_bulks() {
    let (bundle, sigs) = tm1_stream(13);
    let seed = bundle.db.clone();
    let table = subscriber(&seed);
    let builder = EngineBuilder::new(seed.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(MAX_BULK)
        .with_max_wait_us(2_000)
        .analytics_with(AnalyticsConfig::default().with_retained_records());
    let session = builder.analytics_session().unwrap();
    let engine = builder.build_pipelined();

    // Scanner that cuts snapshots and abandons them mid-use: each iteration
    // starts a scan on a fresh cut and drops the handle (and a clone of it)
    // without finishing a full pass.
    let done = Arc::new(AtomicBool::new(false));
    let scanner = {
        let session = session.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut cuts = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap: SnapshotHandle = session.snapshot();
                let clone = snap.clone();
                // Touch a little data, then drop both handles mid-"scan".
                if snap.num_rows(table) > 0 {
                    let _ = snap.get_i64(table, 0, 0);
                    let _ = clone.is_live(table, 0);
                }
                drop(snap);
                drop(clone);
                cuts += 1;
            }
            cuts
        })
    };
    for sig in &sigs {
        engine.submit(sig.ty, sig.params.clone()).unwrap();
    }
    let (final_db, stats) = engine.finish().unwrap();
    done.store(true, Ordering::Release);
    let cuts = scanner.join().unwrap();
    assert!(cuts > 0, "the scanner must have cut snapshots");
    assert_eq!(stats.committed + stats.aborted, N_TXNS as u64);

    // Later bulks were not corrupted: the final engine state is exactly the
    // serial replay of every retained record, and a fresh final cut agrees.
    let retained = session.retained_records();
    let reference = replay_prefix(&retained, &seed, retained.len());
    assert!(
        reference == final_db,
        "dropped snapshots must not corrupt committed state"
    );
    session.snapshot().check_against(&final_db).unwrap();
}

#[test]
fn replica_offload_scans_match_primary_snapshot() {
    use gputx_replication::Replica;
    use gputx_server::socket_pair;

    let (bundle, sigs) = tm1_stream(17);
    let seed = bundle.db.clone();
    let table = subscriber(&seed);
    let builder = EngineBuilder::new(seed.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(MAX_BULK)
        .with_max_wait_us(2_000)
        .replicate()
        .analytics();
    let session = builder.analytics_session().unwrap();
    let hub = builder.hub().unwrap();
    let (server_end, follower_end) = socket_pair().unwrap();
    hub.attach(server_end).unwrap();
    let replica = Replica::start(follower_end).unwrap();
    assert!(replica.wait_synced(WAIT));
    let engine = builder.build_pipelined();

    for sig in &sigs {
        engine.submit(sig.ty, sig.params.clone()).unwrap();
    }
    let (final_db, stats) = engine.finish().unwrap();
    assert!(replica.wait_applied(stats.bulks(), WAIT));
    let replica_db = replica.snapshot_db().unwrap();
    hub.stop();

    // The same operators, the same bits: local snapshot, replica state and
    // the primary's own database all agree.
    let final_snap = session.snapshot();
    final_snap.check_against(&final_db).unwrap();
    let local = scan(&final_snap, table, ScanOptions::parallel(4));
    let offloaded = scan(&replica_db, table, ScanOptions::parallel(4));
    let primary = scan(&final_db, table, ScanOptions::sequential());
    assert_eq!(local, offloaded, "replica-offload scan diverged");
    assert_eq!(local, primary, "snapshot scan diverged from primary state");
    let two = scan(&replica_db, table, ScanOptions::parallel(2));
    assert_eq!(local, two, "scan result depends on the thread count");
}
