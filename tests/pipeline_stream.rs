//! End-to-end tests of the streaming pipelined engine.
//!
//! * **Equivalence** — over the same seeded transaction stream with the same
//!   bulk boundaries, `PipelinedGpuTx` must commit the exact same final
//!   database state (and per-transaction outcomes) as the one-shot
//!   `execute_bulk` path, for the K-SET, PART and
//!   TPL strategies, on TM1 and the micro benchmark. The pipeline runs
//!   each bulk on its one execution thread without an access plan, and
//!   TM1's call-forwarding inserts update indexes that later bulks probe.
//!   The pipeline runs every bulk in timestamp order, so these tests also
//!   show that order equals each one-shot strategy's schedule.
//! * **Admission order** — a procedure that touches a row its declared
//!   write set leaves out pins the pipeline's execution order to timestamp
//!   order under every forced strategy, where K-SET waves and PART groups
//!   would order the bulk differently.
//! * **No strategy decision** — under `adaptive()` the pipeline derives no
//!   read/write sets and closes every bulk at `max_bulk_size`, even on a
//!   stream the one-shot selector scores as TPL.
//! * **Shutdown/drain semantics** — submitting after `shutdown()` errors,
//!   `flush()` commits a partial bulk, and no ticket is dropped under
//!   backpressure (seeded stress).

use gputx_core::config::StrategyChoice;
use gputx_core::{execute_bulk, Bulk, EngineBuilder, EngineConfig, ExecContext, StrategyKind};
use gputx_exec::{PipelineError, Ticket};
use gputx_sim::Gpu;
use gputx_storage::schema::{ColumnDef, TableSchema};
use gputx_storage::{DataItemId, DataType, Database, Value};
use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry, TxnId, TxnOutcome, TxnSignature};
use gputx_workloads::{MicroConfig, MicroWorkload, Tm1Config};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BULK: usize = 256;

fn tm1_stream(n: usize, seed: u64) -> (Database, ProcedureRegistry, Vec<TxnSignature>) {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    bundle.reseed(seed);
    let sigs = bundle.generate_signatures(n, 0);
    (bundle.db.clone(), bundle.registry.clone(), sigs)
}

fn micro_stream(n: usize, seed: u64) -> (Database, ProcedureRegistry, Vec<TxnSignature>) {
    let mut bundle = MicroWorkload::build(&MicroConfig::default().with_tuples(512).with_skew(0.3));
    bundle.reseed(seed);
    let sigs = bundle.generate_signatures(n, 0);
    (bundle.db.clone(), bundle.registry.clone(), sigs)
}

/// One-shot reference: the stream cut into `BULK`-sized bulks through
/// `execute_bulk` on the serial executor.
fn one_shot(
    db0: &Database,
    registry: &ProcedureRegistry,
    sigs: &[TxnSignature],
    strategy: StrategyKind,
) -> (Database, Vec<(TxnId, TxnOutcome)>) {
    let mut db = db0.clone();
    let mut gpu = Gpu::c1060();
    let config = EngineConfig::default();
    let mut outcomes = Vec::with_capacity(sigs.len());
    for chunk in sigs.chunks(BULK) {
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry,
            config: &config,
        };
        let out = execute_bulk(&mut ctx, strategy, &Bulk::new(chunk.to_vec()));
        outcomes.extend(out.outcomes);
    }
    (db, outcomes)
}

/// Streaming run: the same stream submitted in order with the same bulk-size
/// threshold (the huge deadline guarantees identical bulk boundaries).
fn pipelined(
    db0: &Database,
    registry: &ProcedureRegistry,
    sigs: &[TxnSignature],
    strategy: StrategyChoice,
) -> (Database, Vec<(TxnId, TxnOutcome)>) {
    // A copy that shares no index with `db0`: the engine is then the only
    // holder of its indexes, as in a served engine, so writing one never
    // clones it.
    let db = db0.rebuilt_with_layout(db0.layout());
    assert!(db == *db0);
    let engine = EngineBuilder::new(db, registry.clone())
        .with_strategy(strategy)
        .with_max_bulk_size(BULK)
        .with_max_wait_us(60_000_000)
        .build_pipelined();
    let tickets: Vec<Ticket> = sigs
        .iter()
        .map(|sig| {
            engine
                .submit(sig.ty, sig.params.clone())
                .expect("stream accepted")
        })
        .collect();
    let (db, stats) = engine.finish().expect("pipeline stays healthy");
    assert_eq!(stats.transactions(), sigs.len() as u64);
    let outcomes = tickets
        .iter()
        .map(|t| t.wait().expect("ticket resolves"))
        .collect();
    (db, outcomes)
}

fn assert_stream_equivalence(
    name: &str,
    db0: &Database,
    registry: &ProcedureRegistry,
    sigs: &[TxnSignature],
) {
    for (strategy, choice) in [
        (StrategyKind::Kset, StrategyChoice::ForceKset),
        (StrategyKind::Part, StrategyChoice::ForcePart),
        (StrategyKind::Tpl, StrategyChoice::ForceTpl),
    ] {
        let (ref_db, ref_outcomes) = one_shot(db0, registry, sigs, strategy);
        let (db, outcomes) = pipelined(db0, registry, sigs, choice);
        assert_eq!(
            outcomes, ref_outcomes,
            "{name}/{strategy}: outcomes must match"
        );
        assert!(
            db == ref_db,
            "{name}/{strategy}: final state must match one-shot"
        );
    }
}

#[test]
fn pipelined_equals_one_shot_on_tm1() {
    let (db0, registry, sigs) = tm1_stream(1_200, 0xfeed);
    assert_stream_equivalence("tm1", &db0, &registry, &sigs);
}

#[test]
fn pipelined_equals_one_shot_on_micro() {
    let (db0, registry, sigs) = micro_stream(1_500, 0xbeef);
    assert_stream_equivalence("micro", &db0, &registry, &sigs);
}

/// A `stamp(slot)` procedure: it takes the next value of a shared counter
/// and writes it into `slot`. Its declared write set names only the slot,
/// never the counter row, so every slot's final value records the order the
/// engine ran the bulk in. The partition key puts slot `k` in partition `k`.
fn stamp_stream() -> (Database, ProcedureRegistry, Vec<TxnSignature>) {
    let mut db = Database::column_store();
    let int_table = |name: &str| {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("value", DataType::Int),
            ],
            vec![0],
        )
    };
    let counter = db.create_table(int_table("counter"));
    let slots = db.create_table(int_table("slots"));
    db.table_mut(counter)
        .insert(vec![Value::Int(0), Value::Int(0)]);
    for k in 0..8 {
        db.table_mut(slots)
            .insert(vec![Value::Int(k), Value::Int(-1)]);
    }
    let partition_size = EngineConfig::default().partition_size;
    let mut registry = ProcedureRegistry::new();
    let stamp = registry.register(ProcedureDef::new(
        "stamp",
        move |params, _| {
            let slot = params[0].as_int() as u64;
            vec![BasicOp::write(DataItemId::new(slots, slot, 1))]
        },
        move |params| Some(params[0].as_int() as u64 * partition_size),
        move |ctx| {
            let slot = ctx.param_int(0) as u64;
            let next = ctx.read(counter, 0, 1).as_int();
            ctx.write(counter, 0, 1, Value::Int(next + 1));
            ctx.write(slots, slot, 1, Value::Int(next));
        },
    ));
    // K-SET waves would run t0, t2, t1 (t0 and t1 share slot 5); PART
    // groups would run t2, t0, t1 (partition 2 before partition 5).
    let sigs = [5, 5, 2]
        .into_iter()
        .enumerate()
        .map(|(id, slot)| TxnSignature::new(id as TxnId, stamp, vec![Value::Int(slot)]))
        .collect();
    (db, registry, sigs)
}

#[test]
fn pipelined_runs_each_bulk_in_timestamp_order() {
    let (db0, registry, sigs) = stamp_stream();
    let mut ref_db = db0.clone();
    let ref_outcomes: Vec<(TxnId, TxnOutcome)> = sigs
        .iter()
        .map(|sig| (sig.id, registry.execute(sig, &mut ref_db).1))
        .collect();
    ref_db.apply_insert_buffers();
    let slots = ref_db.table_by_name("slots");
    assert_eq!(slots.get(5, 1), Value::Int(1), "t1 ran second");
    assert_eq!(slots.get(2, 1), Value::Int(2), "t2 ran last");
    for choice in [
        StrategyChoice::ForceKset,
        StrategyChoice::ForcePart,
        StrategyChoice::ForceTpl,
    ] {
        let (db, outcomes) = pipelined(&db0, &registry, &sigs, choice);
        assert_eq!(outcomes, ref_outcomes, "{choice:?}: outcomes must match");
        assert!(
            db == ref_db,
            "{choice:?}: final state must equal the replay in id order"
        );
    }
}

/// A `bump(slot)` procedure over one hot counter row: every transaction
/// increments the counter and writes it into its slot, so a bulk is one
/// dependency chain, and no transaction has a partition key. The returned
/// counter tallies the registry's read/write-set derivations.
fn hot_row_stream(
    n: usize,
) -> (
    Database,
    ProcedureRegistry,
    Vec<TxnSignature>,
    Arc<AtomicUsize>,
) {
    let mut db = Database::column_store();
    let table = db.create_table(TableSchema::new(
        "counters",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("value", DataType::Int),
        ],
        vec![0],
    ));
    for k in 0..=n as i64 {
        db.table_mut(table)
            .insert(vec![Value::Int(k), Value::Int(0)]);
    }
    let rwset_calls = Arc::new(AtomicUsize::new(0));
    let calls = Arc::clone(&rwset_calls);
    let mut registry = ProcedureRegistry::new();
    let bump = registry.register(ProcedureDef::new(
        "bump",
        move |params, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            vec![
                BasicOp::read(DataItemId::new(table, 0, 1)),
                BasicOp::write(DataItemId::new(table, 0, 1)),
                BasicOp::write(DataItemId::new(table, params[0].as_int() as u64, 1)),
            ]
        },
        |_| None,
        move |ctx| {
            let next = ctx.read(table, 0, 1).as_int() + 1;
            ctx.write(table, 0, 1, Value::Int(next));
            ctx.write(table, ctx.param_int(0) as u64, 1, Value::Int(next));
        },
    ));
    let sigs = (1..=n)
        .map(|k| TxnSignature::new(k as TxnId - 1, bump, vec![Value::Int(k as i64)]))
        .collect();
    (db, registry, sigs, rwset_calls)
}

#[test]
fn adaptive_pipeline_closes_at_max_bulk_size_without_profiling() {
    let (db0, registry, sigs, rwset_calls) = hot_row_stream(256);
    // The premise: the one-shot adaptive engine scores this stream as TPL,
    // the strategy whose size hint is an eighth of the bulk ceiling.
    let mut one_shot = EngineBuilder::new(db0.clone(), registry.clone())
        .adaptive()
        .with_bulk_size(64)
        .build();
    for sig in &sigs {
        one_shot.submit(sig.ty, sig.params.clone());
    }
    one_shot.run_until_empty();
    let decisions = one_shot.decision_stats().expect("adaptive one-shot engine");
    assert_eq!(decisions.total(), 4, "256 transactions in bulks of 64");
    assert_eq!(decisions.tpl, 4, "the selector scores the stream as TPL");
    assert!(
        rwset_calls.swap(0, Ordering::Relaxed) > 0,
        "the one-shot selector profiles every bulk"
    );

    let engine = EngineBuilder::new(db0, registry)
        .adaptive()
        .with_max_bulk_size(64)
        .with_max_wait_us(10_000_000)
        .build_pipelined();
    for sig in &sigs {
        engine.submit(sig.ty, sig.params.clone()).unwrap();
    }
    let (db, stats) = engine.finish().expect("stages stay healthy");
    assert_eq!(stats.committed, 256);
    assert_eq!(
        stats.closes.by_size, 4,
        "every bulk closes at max_bulk_size"
    );
    assert_eq!(
        rwset_calls.load(Ordering::Relaxed),
        0,
        "the pipeline derives no read/write sets"
    );
    assert_eq!(db.table_by_name("counters").get(0, 1), Value::Int(256));
}

#[test]
fn submit_after_shutdown_errors() {
    let (db0, registry, _) = micro_stream(1, 1);
    let mut engine = EngineBuilder::new(db0, registry).build_pipelined();
    engine
        .submit(0, vec![Value::Int(0)])
        .expect("running engine accepts");
    engine.shutdown();
    assert_eq!(
        engine.submit(0, vec![Value::Int(0)]).unwrap_err(),
        PipelineError::ShutDown
    );
    assert_eq!(engine.flush().unwrap_err(), PipelineError::ShutDown);
    engine.shutdown(); // idempotent
    let stats = engine.stats().expect("stats available after shutdown");
    assert_eq!(stats.transactions(), 1);
}

#[test]
fn flush_commits_a_partial_bulk() {
    let (db0, registry, sigs) = micro_stream(10, 2);
    let engine = EngineBuilder::new(db0, registry)
        .with_max_bulk_size(1_000_000)
        .with_max_wait_us(60_000_000)
        .build_pipelined();
    let tickets: Vec<Ticket> = sigs
        .iter()
        .map(|s| engine.submit(s.ty, s.params.clone()).unwrap())
        .collect();
    assert!(
        tickets.iter().all(|t| t.try_get().is_none()),
        "nothing may commit before the flush (size and deadline are huge)"
    );
    engine.flush().expect("flush drains the partial bulk");
    for t in &tickets {
        assert!(matches!(t.try_get(), Some(Ok(_))));
    }
    let (_, stats) = engine.finish().unwrap();
    assert_eq!(stats.closes.by_flush, 1);
    assert_eq!(stats.transactions(), 10);
}

/// An analytics snapshot held across pipeline shutdown: every outstanding
/// ticket still resolves, the snapshot stays readable (bit-identically)
/// after the engine and the session are gone, and no drop order of
/// {engine, session, snapshot} deadlocks the execution thread.
#[test]
fn snapshot_held_across_pipeline_shutdown() {
    use gputx_analytics::{count_rows, sum_i64, Predicate, ScanOptions};

    let (db0, registry, sigs) = tm1_stream(600, 0x5a17);
    let table = db0.table_id("subscriber").expect("TM1 subscriber table");
    let builder = EngineBuilder::new(db0, registry)
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(64)
        .with_max_wait_us(2_000)
        .analytics();
    let session = builder.analytics_session().expect("session attached");
    let engine = builder.build_pipelined();

    // Submit a first batch and cut a snapshot while the pipeline is hot.
    let (head, tail) = sigs.split_at(sigs.len() / 2);
    let mut tickets: Vec<Ticket> = head
        .iter()
        .map(|s| engine.submit(s.ty, s.params.clone()).unwrap())
        .collect();
    assert!(
        session.wait_applied(1, std::time::Duration::from_secs(30)),
        "a bulk must commit before the cut"
    );
    let snap = session.snapshot();
    let frozen = snap.records_applied();
    let opts = ScanOptions::sequential();
    let count_before = count_rows(&snap, table, &Predicate::All, opts);
    let sum_before = sum_i64(&snap, table, 4, &Predicate::All, opts);

    // Keep committing on top of the held snapshot, then shut down with the
    // snapshot still alive. Shutdown must resolve every ticket.
    tickets.extend(
        tail.iter()
            .map(|s| engine.submit(s.ty, s.params.clone()).unwrap()),
    );
    let (final_db, stats) = engine.finish().expect("pipeline healthy");
    for t in &tickets {
        t.wait()
            .expect("every ticket resolves despite the held snapshot");
    }
    assert_eq!(stats.transactions(), sigs.len() as u64);
    assert!(stats.bulks() > frozen, "later bulks committed over the cut");

    // The held snapshot is untouched by the churn and the shutdown...
    assert_eq!(snap.records_applied(), frozen);
    assert_eq!(
        count_rows(&snap, table, &Predicate::All, opts),
        count_before
    );
    assert_eq!(sum_i64(&snap, table, 4, &Predicate::All, opts), sum_before);
    // ...while a fresh cut from the outliving session sees the final state.
    let final_snap = session.snapshot();
    assert_eq!(final_snap.records_applied(), stats.bulks());
    final_snap.check_against(&final_db).unwrap();

    // No drop order deadlocks: session before snapshots, then the handles.
    drop(session);
    assert_eq!(snap.records_applied(), frozen);
    drop(final_snap);
    drop(snap);
}

/// Seeded soak: a conflict-heavy micro stream pushed through tiny bulks and a
/// tiny admission queue (constant backpressure), with a flush every 97
/// submissions. Every ticket must resolve, the commit counts must add up,
/// and the final state must equal the sequential replay.
#[test]
fn soak_backpressure_drops_no_tickets() {
    let n = 800usize;
    let (db0, registry, sigs) = micro_stream(n, 0x50a4);

    // Sequential replay reference.
    let mut seq_db = db0.clone();
    for sig in &sigs {
        registry.execute(sig, &mut seq_db);
    }
    seq_db.apply_insert_buffers();

    let engine = EngineBuilder::new(db0, registry)
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(32)
        .with_max_wait_us(200)
        .with_queue_depth(8)
        .build_pipelined();
    let tickets: Vec<Ticket> = sigs
        .iter()
        .enumerate()
        .map(|(i, sig)| {
            if i % 97 == 0 {
                engine.flush().expect("mid-stream flush");
            }
            engine.submit(sig.ty, sig.params.clone()).expect("accepted")
        })
        .collect();
    let (db, stats) = engine.finish().expect("pipeline healthy");
    assert_eq!(tickets.len(), n);
    for t in &tickets {
        t.wait().expect("no ticket may be dropped or failed");
    }
    assert_eq!(stats.transactions(), n as u64);
    assert_eq!(stats.committed + stats.aborted, n as u64);
    assert_eq!(stats.failed, 0);
    assert!(
        db == seq_db,
        "soak: final state must equal sequential replay"
    );
}
