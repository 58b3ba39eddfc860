//! Plan-backed execution is bit-identical to live probing.
//!
//! Every workload whose procedures declare access-plan callbacks (TM1, TPC-C
//! and the ledger) runs one transaction stream through one registry twice:
//! with the stream's [`AccessPlan`], so each `lookup_*_by` returns a
//! pre-resolved row, and without one, so each lookup probes the live index —
//! the path the engine takes for a stale plan entry. This suite asserts
//! identical per-transaction outcomes, thread traces (byte-for-byte trace
//! accounting) and undo counts, and an identical final database —
//!
//! * per transaction through the registry (serial),
//! * through `Executor::run_groups` at 1/2/4/8 worker threads against the
//!   serial executor,
//! * through the full strategy path (`try_execute_bulk_planned`, K-SET and
//!   PART) at 1/2/4/8 worker threads,
//! * and for a plan gone *stale* (built against a snapshot whose indexes
//!   have since changed), which must transparently fall back to live probes.

use gputx_core::strategy::try_execute_bulk_planned;
use gputx_core::{Bulk, EngineConfig, ExecContext, StrategyKind};
use gputx_exec::{ExecPolicy, Executor, ExecutorChoice, ParallelExecutor, SerialExecutor};
use gputx_sim::Gpu;
use gputx_storage::Value;
use gputx_txn::{plan_kset_waves, plan_partition_groups, AccessPlan, TxnScratch, TxnSignature};
use gputx_workloads::{LedgerConfig, Tm1Config, TpccConfig, WorkloadBundle};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The workloads whose procedures declare access-plan callbacks.
const PLANNED_WORKLOADS: [&str; 3] = ["tm1", "tpcc", "ledger"];

/// Build one workload, draw `n` transactions at `seed`, and resolve their
/// access plan against the populated database.
fn fixture(name: &str, n: usize, seed: u64) -> (WorkloadBundle, Vec<TxnSignature>, AccessPlan) {
    let mut bundle = match name {
        "tm1" => Tm1Config { scale_factor: 1 }.build(),
        // The default mix, remote payments and remote new-orders included.
        "tpcc" => TpccConfig::default().with_warehouses(2).build(),
        "ledger" => LedgerConfig::default().with_accounts(1024).build(),
        other => panic!("unknown workload {other}"),
    };
    bundle.reseed(seed);
    let sigs = bundle.generate_signatures(n, 0);
    let plan = AccessPlan::build(&bundle.registry, &bundle.db, &sigs);
    assert!(!plan.is_empty(), "{name} procedures declare plan callbacks");
    (bundle, sigs, plan)
}

/// An executor schedule for a stream, as rounds of disjoint groups run one
/// after another: one round of partition groups when every transaction is
/// single-partition, otherwise one round per K-SET wave with one transaction
/// per group.
fn schedule<'a>(
    bundle: &WorkloadBundle,
    sigs: &'a [TxnSignature],
) -> Vec<Vec<Vec<&'a TxnSignature>>> {
    let registry = &bundle.registry;
    let keys: Vec<_> = sigs
        .iter()
        .map(|s| (s.id, registry.partition_key(s)))
        .collect();
    let rounds = match plan_partition_groups(&keys, 1) {
        Some(groups) => vec![groups],
        None => {
            let ops: Vec<_> = sigs
                .iter()
                .map(|s| (s.id, registry.read_write_set(s, &bundle.db)))
                .collect();
            plan_kset_waves(&ops)
                .into_iter()
                .map(|wave| wave.into_iter().map(|id| vec![id]).collect())
                .collect()
        }
    };
    // Signature ids start at 0, so an id is also the signature's index.
    rounds
        .into_iter()
        .map(|round: Vec<Vec<u64>>| {
            round
                .into_iter()
                .map(|group| group.into_iter().map(|id| &sigs[id as usize]).collect())
                .collect()
        })
        .collect()
}

/// Serial, per transaction: live-probe execution vs execution with the
/// pre-built access plan. Traces, outcomes and undo counts must be equal
/// transaction by transaction; the final databases must be equal.
#[test]
fn serial_per_txn_traces_outcomes_and_state_match() {
    for name in PLANNED_WORKLOADS {
        let (bundle, sigs, plan) = fixture(name, 1_500, 7);
        let mut live_db = bundle.db.clone();
        let live_out: Vec<_> = sigs
            .iter()
            .map(|sig| bundle.registry.execute(sig, &mut live_db))
            .collect();
        live_db.apply_insert_buffers();

        let mut planned_db = bundle.db.clone();
        let mut scratch = TxnScratch::default();
        let planned_out: Vec<_> = sigs
            .iter()
            .map(|sig| {
                bundle
                    .registry
                    .execute_planned(sig, &mut planned_db, Some(&plan), &mut scratch)
            })
            .collect();
        planned_db.apply_insert_buffers();

        assert_eq!(
            live_out, planned_out,
            "{name}: traces/outcomes/undo counts must be bit-identical"
        );
        assert!(
            live_db == planned_db,
            "{name}: final database state must be bit-identical"
        );
    }
}

/// Executor-level at 1/2/4/8 threads: the plan-backed parallel executor must
/// match the live-probe serial executor on the same schedule, traces included.
#[test]
fn parallel_executor_matches_live_probe_serial_reference() {
    for name in PLANNED_WORKLOADS {
        let (bundle, sigs, plan) = fixture(name, 1_200, 11);
        let rounds = schedule(&bundle, &sigs);
        let policy = ExecPolicy::gpu(true);
        let run = |exec: &dyn Executor, plan: Option<&AccessPlan>| {
            let mut db = bundle.db.clone();
            let mut out = Vec::new();
            for groups in &rounds {
                out.extend(
                    exec.run_groups(&mut db, &bundle.registry, &policy, groups, plan)
                        .unwrap(),
                );
            }
            db.apply_insert_buffers();
            (db, out)
        };

        let (ref_db, ref_out) = run(&SerialExecutor, None);
        for threads in THREAD_COUNTS {
            let exec = ParallelExecutor::new(threads).with_min_parallel_txns(2);
            let (db, out) = run(&exec, Some(&plan));
            assert!(
                db == ref_db,
                "{name}@{threads} threads: final state must match the live-probe reference"
            );
            assert_eq!(out.len(), ref_out.len());
            for (g, (got, want)) in out.iter().zip(&ref_out).enumerate() {
                assert_eq!(got.len(), want.len(), "{name}@{threads} group {g}: size");
                for (a, b) in got.iter().zip(want) {
                    assert_eq!(a.id, b.id, "{name}@{threads} group {g}: id order");
                    assert_eq!(a.outcome, b.outcome, "{name}@{threads} txn {}", a.id);
                    assert_eq!(a.trace, b.trace, "{name}@{threads} txn {} trace", a.id);
                }
            }
        }
    }
}

/// Full strategy path (K-SET + PART) at 1/2/4/8 threads, across both lookup
/// paths: the plan-backed bulk must produce the same outcomes, simulated
/// execution time and final state as the live-probe bulk on the serial
/// executor.
#[test]
fn execute_bulk_matches_across_apis_strategies_and_threads() {
    for name in PLANNED_WORKLOADS {
        let (bundle, sigs, plan) = fixture(name, 1_000, 23);
        let bulk = Bulk::new(sigs);
        let run = |choice: ExecutorChoice, strategy: StrategyKind, plan: Option<&AccessPlan>| {
            let mut db = bundle.db.clone();
            let mut gpu = Gpu::c1060();
            let config = EngineConfig::default();
            let mut ctx = ExecContext {
                gpu: &mut gpu,
                db: &mut db,
                registry: &bundle.registry,
                config: &config,
            };
            let executor = choice.build();
            let out = try_execute_bulk_planned(&mut ctx, strategy, &bulk, executor.as_ref(), plan)
                .expect("no procedure panics");
            (db, out)
        };
        for strategy in [StrategyKind::Kset, StrategyKind::Part] {
            let (ref_db, reference) = run(ExecutorChoice::Serial, strategy, None);
            for threads in THREAD_COUNTS {
                let (db, out) = run(ExecutorChoice::parallel(threads), strategy, Some(&plan));
                assert_eq!(
                    out.outcomes, reference.outcomes,
                    "{name}/{strategy}@{threads}: outcomes must match"
                );
                assert_eq!(
                    (out.committed, out.aborted),
                    (reference.committed, reference.aborted)
                );
                assert_eq!(
                    out.execution, reference.execution,
                    "{name}/{strategy}@{threads}: traces must cost the same"
                );
                assert!(
                    db == ref_db,
                    "{name}/{strategy}@{threads}: final state must match"
                );
            }
        }
    }
}

/// A plan built against a stale snapshot (indexes mutated since) must fall
/// back to live probes and still be bit-identical to unplanned execution —
/// the streaming pipeline's revalidation path.
#[test]
fn stale_plan_revalidates_and_falls_back_correctly() {
    let (bundle, sigs, mut plan) = fixture("tm1", 800, 42);

    // The live database has advanced past the snapshot the plan was resolved
    // against: an earlier bulk inserted (and indexed) new call-forwarding rows.
    let mut live = bundle.db.clone();
    let cf_t = live.table_id("call_forwarding").expect("table exists");
    for k in 0..20i64 {
        live.insert_indexed(
            cf_t,
            vec![
                Value::Int(k % 7),
                Value::Int(1 + k % 4),
                Value::Int(99),
                Value::Int(23),
                Value::Str(format!("{k:015}")),
            ],
        );
    }
    let stale = plan.revalidate(&live);
    assert!(stale > 0, "call-forwarding indexes must be detected stale");

    // Reference: unplanned execution on the live database.
    let mut ref_db = live.clone();
    let ref_out: Vec<_> = sigs
        .iter()
        .map(|sig| bundle.registry.execute(sig, &mut ref_db))
        .collect();
    ref_db.apply_insert_buffers();

    // Stale-plan execution on the same live database.
    let mut db = live.clone();
    let mut scratch = TxnScratch::default();
    let out: Vec<_> = sigs
        .iter()
        .map(|sig| {
            bundle
                .registry
                .execute_planned(sig, &mut db, Some(&plan), &mut scratch)
        })
        .collect();
    db.apply_insert_buffers();

    assert_eq!(out, ref_out, "stale entries must re-probe, not mis-resolve");
    assert!(db == ref_db, "final state must match unplanned execution");
}
