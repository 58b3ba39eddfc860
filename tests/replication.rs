//! End-to-end replication tests: the replica is the primary, bit for bit.
//!
//! * **Promoted prefix == serial replay** — drive a replicated pipelined
//!   engine over a seeded micro stream, promote the follower, and require its
//!   database to be bit-identical to the engine's own final state and to a
//!   serial replay of exactly the acked transactions.
//! * **Arbitrary stream chops** — capture the exact byte stream a primary
//!   sends a fresh follower (snapshot + records), then cut it at arbitrary
//!   byte offsets (proptest + every frame boundary): the replica must apply
//!   precisely the complete-record prefix, never a torn frame.
//! * **Kill/resync mid-run** — a follower stopped mid-stream and resumed
//!   from its seed (possibly many bulks behind) converges to the primary.
//! * **Promotion during resync** — a follower promoted while a snapshot
//!   resync is in flight discards the partial snapshot, promotes its last
//!   installed state, and a new group forms under the promoted epoch.
//! * **Slow followers shed, never block** — a follower that stops reading
//!   gets gap-marked and resynced; the commit path never waits on it.

use gputx_core::{EngineBuilder, PipelinedGpuTx};
use gputx_durability::BulkLogRecord;
use gputx_replication::{
    Replica, ReplicaSeed, ReplicaSupervisor, ReplicationOptions, SupervisorConfig,
};
use gputx_server::proto::{encode_repl, read_frame, write_frame, ReplMsg, MAX_FRAME_LEN};
use gputx_server::socket_pair;
use gputx_storage::{Database, WireWriter};
use gputx_txn::{ProcedureRegistry, TxnSignature};
use gputx_workloads::{MicroConfig, MicroWorkload, WorkloadBundle};
use proptest::prelude::*;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

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

/// A pipelined engine over `bundle` that closes every bulk at `per_bulk`
/// transactions by size: the timer never fires, so [`commit_bulk`] cuts the
/// bulks exactly where a test's chunks end.
fn bulk_builder(bundle: &WorkloadBundle, per_bulk: usize) -> EngineBuilder {
    EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_max_bulk_size(per_bulk)
        .with_max_wait_us(10_000_000)
}

/// Submit `chunk` (at most one bulk's worth) and wait for its bulk to
/// commit and publish.
fn commit_bulk(engine: &PipelinedGpuTx, chunk: &[TxnSignature]) {
    for sig in chunk {
        engine.submit(sig.ty, sig.params.clone()).expect("submit");
    }
    engine.flush().expect("bulk commits");
}

/// Replay `sigs` serially (the paper's reference execution) and apply the
/// insert buffers once per bulk, exactly like the engine's commit.
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

/// The tentpole property: run a replicated engine, kill the primary, and the
/// promoted follower's committed prefix is bit-identical — both to the
/// primary's own final state and to a serial replay of exactly the acked
/// transactions.
#[test]
fn promoted_follower_prefix_is_bit_identical_to_serial_replay() {
    const BULKS: usize = 8;
    const PER_BULK: usize = 32;
    let bundle = micro(256, 0xA11CE);
    let sigs = {
        let mut b = micro(256, 0xA11CE);
        b.generate_signatures(BULKS * PER_BULK, 0)
    };
    let builder = bulk_builder(&bundle, PER_BULK).replicate();
    let hub = builder.hub().expect("replicate() creates the hub");
    let engine = builder.build_pipelined();

    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach follower");
    let replica = Replica::start(follower_end).expect("start follower");
    assert!(replica.wait_synced(WAIT), "initial snapshot must install");

    for chunk in sigs.chunks(PER_BULK) {
        commit_bulk(&engine, chunk);
    }
    assert!(
        hub.wait_acked(BULKS as u64, WAIT),
        "follower must ack the full stream"
    );
    // The health surface tracks replication at the group-commit point.
    let report = engine.health().report();
    assert_eq!(report.repl_followers, 1);
    assert_eq!(report.repl_next_lsn, hub.next_lsn());
    let (primary, _) = engine.finish().expect("pipeline finishes cleanly");

    // Primary loss: fence the hub and hand off to the best follower.
    assert!(hub.retire(), "retire hands off to the acked follower");
    let promotion = replica.promote().expect("synced follower promotes");
    let applied = promotion.applied_lsn as usize;
    assert_eq!(applied, BULKS, "fully acked follower applied everything");
    assert!(
        promotion.db == primary,
        "promoted prefix must equal the primary's state at LSN {applied}"
    );
    // And the primary's state is itself the serial replay of those bulks.
    let bulks: Vec<&[TxnSignature]> = sigs.chunks(PER_BULK).collect();
    let reference = serial_replay(&bundle.db, &bundle.registry, &bulks[..applied]);
    assert!(
        promotion.db == reference,
        "promoted prefix must equal serial replay of the acked transactions"
    );
    hub.stop();
}

/// A captured primary→follower byte stream plus everything needed to predict
/// the replica's state for any chop point.
struct CapturedStream {
    /// The exact bytes the primary sent (snapshot chunks, then records).
    bytes: Vec<u8>,
    /// Cumulative end offset of each frame within `bytes`.
    frame_ends: Vec<usize>,
    /// Number of frames that make up the snapshot.
    snapshot_frames: usize,
    /// states[k] = database after applying k records (states[0] = snapshot).
    states: Vec<Database>,
}

fn captured_stream() -> &'static CapturedStream {
    static STREAM: OnceLock<CapturedStream> = OnceLock::new();
    STREAM.get_or_init(|| {
        const BULKS: usize = 6;
        const PER_BULK: usize = 24;
        let bundle = micro(128, 0xC0FFEE);
        let sigs = {
            let mut b = micro(128, 0xC0FFEE);
            b.generate_signatures(BULKS * PER_BULK, 0)
        };
        let builder = bulk_builder(&bundle, PER_BULK).replicate();
        let hub = builder.hub().expect("hub");
        let engine = builder.build_pipelined();

        // A raw witness follower: handshake by hand, then capture the
        // primary's frames verbatim.
        let (server_end, mut witness) = socket_pair().expect("socketpair");
        hub.attach(server_end).expect("attach witness");
        write_frame(
            &mut witness,
            &encode_repl(&ReplMsg::Subscribe {
                epoch: 0,
                applied_lsn: 0,
            }),
        )
        .expect("subscribe");
        // The witness must be *registered* (snapshot cut at LSN 0, queue
        // subscribed) before the first bulk commits, or the snapshot lands
        // at a later LSN and fewer than BULKS records follow. Registration
        // and the snapshot cut share one mirror-lock acquisition, so
        // `followers == 1` implies the LSN-0 cut.
        let deadline = Instant::now() + WAIT;
        while hub.stats().followers == 0 {
            assert!(Instant::now() < deadline, "witness never registered");
            std::thread::yield_now();
        }

        for chunk in sigs.chunks(PER_BULK) {
            commit_bulk(&engine, chunk);
        }

        let mut bytes = Vec::new();
        let mut frame_ends = Vec::new();
        let mut snapshot_frames = 0usize;
        let mut snapshot_bytes = Vec::new();
        let mut records: Vec<BulkLogRecord> = Vec::new();
        while records.len() < BULKS {
            let payload = read_frame(&mut witness, MAX_FRAME_LEN)
                .expect("frame reads")
                .expect("stream stays open until the last record");
            match gputx_server::proto::decode_repl(&payload).expect("valid repl frame") {
                ReplMsg::SnapshotChunk { last, bytes: b, .. } => {
                    assert!(records.is_empty(), "snapshot precedes records");
                    snapshot_frames += 1;
                    snapshot_bytes.extend_from_slice(&b);
                    let _ = last;
                }
                ReplMsg::LogRecord { payload, .. } => {
                    records.push(BulkLogRecord::decode(&payload).expect("record decodes"));
                }
                other => panic!("unexpected frame {other:?}"),
            }
            write_frame(&mut bytes, &payload).expect("reframe");
            frame_ends.push(bytes.len());
        }
        hub.stop();

        let mut r = gputx_storage::WireReader::new(&snapshot_bytes);
        let snapshot = Database::decode(&mut r).expect("snapshot decodes");
        let mut states = vec![snapshot];
        for record in records {
            let mut next = states.last().expect("non-empty").clone();
            record.replay_into(&mut next);
            states.push(next);
        }
        CapturedStream {
            bytes,
            frame_ends,
            snapshot_frames,
            states,
        }
    })
}

/// Feed the replica exactly `chop` bytes of the captured stream, then EOF,
/// and assert it lands on the predicted complete-record prefix.
fn assert_chop_lands_on_a_record_boundary(chop: usize) {
    let stream = captured_stream();
    let chop = chop.min(stream.bytes.len());
    let complete_frames = stream.frame_ends.iter().filter(|&&end| end <= chop).count();
    let (server_end, follower_end) = socket_pair().expect("socketpair");
    let feeder = std::thread::spawn(move || {
        let mut s: &UnixStream = &server_end;
        use std::io::Write;
        let _ = s.write_all(&captured_stream().bytes[..chop]);
        let _ = server_end.shutdown(Shutdown::Write);
        server_end // keep the read side open so the replica's acks never fail
    });
    let mut replica = Replica::start(follower_end).expect("start follower");
    assert!(
        replica.wait_disconnected(WAIT),
        "EOF must surface as a disconnect"
    );
    let stats = replica.stats();
    if complete_frames < stream.snapshot_frames {
        assert!(!stats.synced, "a torn snapshot must not install");
        assert_eq!(stats.snapshots_installed, 0);
        assert!(replica.snapshot_db().is_none());
    } else {
        let applied = complete_frames - stream.snapshot_frames;
        assert_eq!(
            stats.applied_lsn as usize, applied,
            "exactly the complete-record prefix applies (chop at byte {chop})"
        );
        let db = replica
            .snapshot_db()
            .expect("synced replica has a snapshot");
        assert!(
            db == stream.states[applied],
            "state after {applied} records must be bit-identical (chop at byte {chop})"
        );
    }
    replica.stop();
    let _ = feeder.join();
}

proptest! {
    /// Random chop offsets across the whole captured stream.
    #[test]
    fn prop_chopped_streams_apply_only_complete_records(frac in 0.0f64..1.0) {
        let len = captured_stream().bytes.len();
        assert_chop_lands_on_a_record_boundary((len as f64 * frac) as usize);
    }
}

/// The adversarial offsets proptest may miss: exactly on, one before, and
/// one after every frame boundary.
#[test]
fn chops_at_exact_frame_boundaries_apply_only_complete_records() {
    let ends = captured_stream().frame_ends.clone();
    for end in ends {
        assert_chop_lands_on_a_record_boundary(end.saturating_sub(1));
        assert_chop_lands_on_a_record_boundary(end);
        assert_chop_lands_on_a_record_boundary(end + 1);
    }
}

/// Kill a follower mid-run, keep committing, then resume it from its seed:
/// it must converge on the primary's final state (via the log tail or a
/// snapshot — its choice, but bit-identical either way).
#[test]
fn follower_killed_mid_run_resyncs_and_converges() {
    const PER_BULK: usize = 24;
    let bundle = micro(128, 0xDEAD);
    let sigs = {
        let mut b = micro(128, 0xDEAD);
        b.generate_signatures(8 * PER_BULK, 0)
    };
    let builder = bulk_builder(&bundle, PER_BULK).replicate();
    let hub = builder.hub().expect("hub");
    let engine = builder.build_pipelined();

    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach");
    let mut replica = Replica::start(follower_end).expect("start");
    assert!(replica.wait_synced(WAIT));

    let run_bulks = |range: std::ops::Range<usize>| {
        for chunk in sigs[range.start * PER_BULK..range.end * PER_BULK].chunks(PER_BULK) {
            commit_bulk(&engine, chunk);
        }
    };
    run_bulks(0..3);
    assert!(replica.wait_applied(3, WAIT));

    // Kill: stop the reader and remember what the follower had.
    replica.stop();
    let seed = ReplicaSeed {
        db: replica.snapshot_db().expect("was synced"),
        epoch: replica.epoch(),
        applied_lsn: replica.applied_lsn(),
    };
    drop(replica);

    // The primary keeps committing while the follower is down.
    run_bulks(3..8);

    // Resync from the seed; the primary sees a stale LSN and snapshots it.
    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("re-attach");
    let replica = Replica::resume(follower_end, seed).expect("resume");
    assert!(
        replica.wait_applied(8, WAIT),
        "resynced follower catches up"
    );
    let (primary, _) = engine.finish().expect("pipeline finishes cleanly");
    assert!(
        replica.snapshot_db().expect("synced") == primary,
        "resynced follower must be bit-identical to the primary"
    );
    hub.stop();
}

/// The supervised version of kill/resync: the wire dies repeatedly under a
/// [`ReplicaSupervisor`], which re-dials with backoff, resumes from
/// everything already applied (epoch re-validated by the subscribe
/// handshake), and converges to the primary — no manual seed plumbing.
#[test]
fn supervised_replica_reconnects_and_converges() {
    const PER_BULK: usize = 24;
    let bundle = micro(128, 0xFEED);
    let sigs = {
        let mut b = micro(128, 0xFEED);
        b.generate_signatures(8 * PER_BULK, 0)
    };
    let builder = bulk_builder(&bundle, PER_BULK).replicate();
    let hub = builder.hub().expect("hub");
    let engine = builder.build_pipelined();

    // The connector stashes the latest follower-side stream so the test can
    // yank the wire out from under the supervisor.
    let current: Arc<Mutex<Option<UnixStream>>> = Arc::new(Mutex::new(None));
    let mut sup = ReplicaSupervisor::start(
        {
            let hub = hub.clone();
            let current = Arc::clone(&current);
            move || {
                let (server_end, follower_end) = socket_pair()?;
                hub.attach(server_end)?;
                *current.lock().expect("stash lock") = Some(follower_end.try_clone()?);
                Ok(Box::new(follower_end) as Box<dyn gputx_server::Duplex>)
            }
        },
        SupervisorConfig::default(),
    )
    .expect("supervisor starts");
    assert!(sup.wait_synced(WAIT), "initial sync");

    let run_bulks = |range: std::ops::Range<usize>| {
        for chunk in sigs[range.start * PER_BULK..range.end * PER_BULK].chunks(PER_BULK) {
            commit_bulk(&engine, chunk);
        }
    };
    run_bulks(0..3);
    assert!(sup.wait_applied(3, WAIT), "live session applies");

    // Two outages, each with commits while the wire is down: the supervisor
    // must resync through each (log tail or snapshot, the primary's choice).
    for (kill, watermark) in [(3usize, 6u64), (6, 8)] {
        current
            .lock()
            .expect("stash lock")
            .as_ref()
            .expect("connected at least once")
            .shutdown(Shutdown::Both)
            .expect("yank the wire");
        run_bulks(kill..watermark as usize);
        assert!(
            sup.wait_applied(watermark, WAIT),
            "supervisor catches up to LSN {watermark} after the outage"
        );
    }
    let stats = sup.stats();
    assert!(
        stats.reconnects >= 2,
        "each outage forces a reconnect, got {stats:?}"
    );
    assert!(!stats.gave_up, "retry budget never exhausted: {stats:?}");
    let (primary, _) = engine.finish().expect("pipeline finishes cleanly");
    assert!(
        sup.snapshot_db().expect("synced") == primary,
        "supervised follower must be bit-identical to the primary"
    );
    sup.stop();
    // State survives stop: the final seed is the converged database.
    assert!(
        sup.seed().db == primary,
        "seed after stop is the converged state"
    );
    hub.stop();
}

/// Satellite: a follower promoted while a snapshot resync is in flight must
/// discard the partial snapshot, promote its last *installed* state, and a
/// fresh group must form under the promoted epoch.
#[test]
fn promotion_during_resync_discards_partial_snapshot() {
    // Act as the old primary by hand so the resync can be left half-sent.
    let (mut primary_end, follower_end) = socket_pair().expect("socketpair");
    let replica = Replica::start(follower_end).expect("start");

    // Drain the replica's Subscribe, then install a full snapshot at epoch
    // 101 with two records already folded in (next_lsn = 2).
    let sub = read_frame(&mut primary_end, MAX_FRAME_LEN)
        .expect("subscribe frame")
        .expect("open");
    assert!(matches!(
        gputx_server::proto::decode_repl(&sub).expect("decodes"),
        ReplMsg::Subscribe {
            epoch: 0,
            applied_lsn: 0
        }
    ));
    let (installed, registry) = {
        let bundle = micro(64, 0xBEE);
        (bundle.db.clone(), bundle.registry.clone())
    };
    let mut w = WireWriter::new();
    installed.encode_into(&mut w);
    let snapshot = w.into_bytes();
    write_frame(
        &mut primary_end,
        &encode_repl(&ReplMsg::SnapshotChunk {
            epoch: 101,
            next_lsn: 2,
            seq: 0,
            last: true,
            bytes: snapshot.clone(),
        }),
    )
    .expect("send snapshot");
    assert!(replica.wait_synced(WAIT));
    assert_eq!(replica.applied_lsn(), 2);

    // A newer primary (epoch 103) starts resyncing it — but only the first
    // half of the snapshot ever arrives.
    write_frame(
        &mut primary_end,
        &encode_repl(&ReplMsg::SnapshotChunk {
            epoch: 103,
            next_lsn: 9,
            seq: 0,
            last: false,
            bytes: snapshot[..snapshot.len() / 2].to_vec(),
        }),
    )
    .expect("send partial resync");

    // Operator promotes mid-resync: the partial snapshot must not leak into
    // the promotion — it promotes the installed epoch-101 state.
    let promotion = replica.promote().expect("was synced");
    assert_eq!(promotion.applied_lsn, 2, "promotes the installed prefix");
    assert!(
        promotion.db == installed,
        "partial resync bytes must be discarded"
    );
    assert!(
        promotion.epoch > 103,
        "promoted epoch must fence both old primaries"
    );

    // The promoted follower becomes a primary; a fresh follower syncs from
    // the *new* epoch and sees the promoted state.
    let builder = EngineBuilder::from_promotion(promotion, registry).replicate();
    let hub = builder.hub().expect("hub");
    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach");
    let fresh = Replica::start(follower_end).expect("start");
    assert!(fresh.wait_synced(WAIT));
    assert_eq!(fresh.epoch(), hub.epoch(), "resyncs under the new epoch");
    assert!(fresh.snapshot_db().expect("synced") == installed);
    hub.stop();
}

/// Hub-side follower transport whose writes block by construction: reads
/// pass through (so the subscribe handshake completes), every write parks on
/// the gate, and only `shutdown_both` opens it — to fail the parked write.
/// No byte ever reaches the follower, whatever the kernel would buffer.
struct StalledWrites {
    inner: UnixStream,
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

#[derive(Default)]
struct Gate {
    open: bool,
    parked: usize,
}

impl std::io::Read for StalledWrites {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl std::io::Write for StalledWrites {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        let (lock, cond) = &*self.gate;
        let mut gate = lock.lock().expect("gate lock");
        gate.parked += 1;
        cond.notify_all();
        while !gate.open {
            gate = cond.wait(gate).expect("gate lock");
        }
        gate.parked -= 1;
        Err(std::io::ErrorKind::BrokenPipe.into())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl gputx_server::Duplex for StalledWrites {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn gputx_server::Duplex>> {
        Ok(Box::new(StalledWrites {
            inner: self.inner.try_clone()?,
            gate: Arc::clone(&self.gate),
        }))
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        let (lock, cond) = &*self.gate;
        lock.lock().expect("gate lock").open = true;
        cond.notify_all();
        self.inner.shutdown(Shutdown::Both)
    }
}

/// Regression: a follower that stops draining must never block the commit
/// path — the hub marks it gapped and sheds, and every bulk still commits.
/// The stall is by construction, not by racing the sender thread against a
/// kernel socket buffer: the follower's session is parked inside its first
/// write before the first publish and is still parked there after the last.
#[test]
fn slow_follower_sheds_but_never_blocks_commits() {
    const BULKS: usize = 64;
    const PER_BULK: usize = 16;
    const QUEUE_DEPTH: usize = 4;
    let bundle = micro(128, 0x51de);
    let sigs = {
        let mut b = micro(128, 0x51de);
        b.generate_signatures(BULKS * PER_BULK, 0)
    };
    let builder = bulk_builder(&bundle, PER_BULK).replicate_with(ReplicationOptions {
        queue_depth: QUEUE_DEPTH,
        ..ReplicationOptions::default()
    });
    let hub = builder.hub().expect("hub");
    let engine = builder.build_pipelined();

    let (server_end, mut follower) = socket_pair().expect("socketpair");
    let gate = Arc::new((Mutex::new(Gate::default()), Condvar::new()));
    hub.attach(StalledWrites {
        inner: server_end,
        gate: Arc::clone(&gate),
    })
    .expect("attach");
    write_frame(
        &mut follower,
        &encode_repl(&ReplMsg::Subscribe {
            epoch: 0,
            applied_lsn: 0,
        }),
    )
    .expect("subscribe");
    // The session registers the follower, then parks in its snapshot send.
    // (WAIT only guards against a hang; nothing below depends on timing.)
    let (lock, cond) = &*gate;
    let (guard, _) = cond
        .wait_timeout_while(lock.lock().expect("gate lock"), WAIT, |g| g.parked == 0)
        .expect("gate lock");
    assert_eq!(guard.parked, 1, "session must park in its first write");
    drop(guard);
    assert_eq!(hub.stats().followers, 1, "parked after registering");

    for chunk in sigs.chunks(PER_BULK) {
        commit_bulk(&engine, chunk);
    }
    // Every publish returned while the follower was provably stalled: the
    // gate never opened, so its session never left that first write.
    assert_eq!(
        lock.lock().expect("gate lock").parked,
        1,
        "follower stayed stalled throughout"
    );
    let (_, run) = engine.finish().expect("pipeline finishes cleanly");
    assert_eq!(run.committed + run.aborted, (BULKS * PER_BULK) as u64);
    assert_eq!(hub.next_lsn(), BULKS as u64, "every bulk published");
    // Nobody drained the queue: it took QUEUE_DEPTH records, the next one
    // overflowed it (gap), and everything after the gap was shed too.
    let stats = hub.stats();
    assert_eq!(
        stats.records_shed,
        (BULKS - QUEUE_DEPTH) as u64,
        "the stalled follower's queue overflowed and shed: {stats:?}"
    );
    hub.stop();
    drop(follower);
}

/// Soak (CI `replication` job runs it with `--ignored`): two followers under
/// pipelined load, one killed and resynced mid-run, then the primary retires
/// and the best follower's promoted prefix is verified bit-identical to a
/// serial replay of an acked prefix of the stream.
#[test]
#[ignore = "soak: run with --ignored in the replication CI job"]
fn soak_two_followers_kill_resync_promote_under_load() {
    const BULKS: usize = 120;
    const PER_BULK: usize = 32;
    let bundle = micro(256, 0x50AC);
    let sigs = {
        let mut b = micro(256, 0x50AC);
        b.generate_signatures(BULKS * PER_BULK, 0)
    };
    let builder = bulk_builder(&bundle, PER_BULK).replicate();
    let hub = builder.hub().expect("hub");
    let engine = builder.build_pipelined();

    let (a_srv, a_end) = socket_pair().expect("socketpair");
    hub.attach(a_srv).expect("attach a");
    let replica_a = Replica::start(a_end).expect("start a");
    let (b_srv, b_end) = socket_pair().expect("socketpair");
    hub.attach(b_srv).expect("attach b");
    let mut replica_b = Replica::start(b_end).expect("start b");
    assert!(replica_a.wait_synced(WAIT) && replica_b.wait_synced(WAIT));

    for (i, chunk) in sigs.chunks(PER_BULK).enumerate() {
        commit_bulk(&engine, chunk);
        if i == BULKS / 3 {
            // Kill B mid-run...
            replica_b.stop();
        }
        if i == BULKS / 2 {
            // ...and resync it from its seed a third of the run later.
            let seed = ReplicaSeed {
                db: replica_b.snapshot_db().expect("b was synced"),
                epoch: replica_b.epoch(),
                applied_lsn: replica_b.applied_lsn(),
            };
            let (b_srv, b_end) = socket_pair().expect("socketpair");
            hub.attach(b_srv).expect("re-attach b");
            replica_b = Replica::resume(b_end, seed).expect("resume b");
        }
    }
    assert!(hub.wait_acked(BULKS as u64, WAIT), "both followers drain");
    assert!(replica_b.wait_applied(BULKS as u64, WAIT));
    let (primary, _) = engine.finish().expect("pipeline finishes cleanly");
    let bulks: Vec<&[TxnSignature]> = sigs.chunks(PER_BULK).collect();
    assert!(
        primary == serial_replay(&bundle.db, &bundle.registry, &bulks),
        "the primary is the serial replay of the whole stream"
    );

    assert!(hub.retire(), "hand off to the best follower");
    drop(replica_b);
    let promotion = replica_a.promote().expect("a was synced");
    let applied = promotion.applied_lsn as usize;
    let reference = serial_replay(&bundle.db, &bundle.registry, &bulks[..applied]);
    assert!(
        promotion.db == reference,
        "promoted prefix equals serial replay of the acked stream"
    );
    hub.stop();
}
