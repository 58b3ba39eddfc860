//! Property tests: the multi-threaded executor (`gputx-exec`) is
//! bit-identical to the serial reference.
//!
//! For random TM1 and micro bulks, executing through `ParallelExecutor` at
//! 1/2/4/8 worker threads must produce exactly the same per-transaction
//! outcomes and the same final database state as `SerialExecutor`, for both
//! strategies whose host work the executor parallelizes (K-SET waves and
//! PART partition groups). No engine selects the parallel executor; these
//! properties keep it a correct standalone `Executor`.

use gputx_core::strategy::try_execute_bulk_planned;
use gputx_core::{Bulk, EngineConfig, ExecContext, StrategyKind};
use gputx_exec::{Executor, ParallelExecutor, SerialExecutor};
use gputx_sim::Gpu;
use gputx_storage::Database;
use gputx_txn::{AccessPlan, ProcedureRegistry, TxnId, TxnOutcome, TxnSignature};
use gputx_workloads::{MicroConfig, MicroWorkload, Tm1Config, WorkloadBundle};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// TM1 takes a moment to populate; build it once and re-seed per case.
fn tm1() -> &'static Mutex<WorkloadBundle> {
    static TM1: OnceLock<Mutex<WorkloadBundle>> = OnceLock::new();
    TM1.get_or_init(|| Mutex::new(Tm1Config::default().build()))
}

fn micro() -> &'static Mutex<WorkloadBundle> {
    static MICRO: OnceLock<Mutex<WorkloadBundle>> = OnceLock::new();
    // A small, skewed relation so random bulks conflict and K-SET needs
    // several waves.
    MICRO.get_or_init(|| {
        Mutex::new(MicroWorkload::build(
            &MicroConfig::default().with_tuples(512).with_skew(0.3),
        ))
    })
}

/// Snapshot the bundle's database and draw a reproducible random bulk.
fn draw_bulk(
    bundle: &Mutex<WorkloadBundle>,
    seed: u64,
    n: usize,
) -> (Database, ProcedureRegistry, Vec<TxnSignature>) {
    let mut bundle = bundle.lock().expect("workload mutex poisoned");
    bundle.reseed(seed);
    let sigs = bundle.generate_signatures(n, 0);
    (bundle.db.clone(), bundle.registry.clone(), sigs)
}

/// Execute one bulk with one strategy on `executor`, with the gather step's
/// access plan the engines build; returns the final database and the
/// per-transaction outcomes.
fn run_gpu(
    db0: &Database,
    registry: &ProcedureRegistry,
    sigs: &[TxnSignature],
    strategy: StrategyKind,
    executor: &dyn Executor,
) -> (Database, Vec<(TxnId, TxnOutcome)>) {
    let mut db = db0.clone();
    let mut gpu = Gpu::c1060();
    let config = EngineConfig::default();
    let access = AccessPlan::build(registry, &db, sigs);
    let access = (!access.is_empty()).then_some(access);
    let mut ctx = ExecContext {
        gpu: &mut gpu,
        db: &mut db,
        registry,
        config: &config,
    };
    let out = try_execute_bulk_planned(
        &mut ctx,
        strategy,
        &Bulk::new(sigs.to_vec()),
        executor,
        access.as_ref(),
    )
    .expect("no procedure panics");
    (db, out.outcomes)
}

fn assert_equivalent_for(
    bundle: &Mutex<WorkloadBundle>,
    seed: u64,
    n: usize,
    threads: usize,
    strategies: &[StrategyKind],
) {
    let (db0, registry, sigs) = draw_bulk(bundle, seed, n);
    for &strategy in strategies {
        let (serial_db, serial_outcomes) =
            run_gpu(&db0, &registry, &sigs, strategy, &SerialExecutor);
        let (parallel_db, parallel_outcomes) = run_gpu(
            &db0,
            &registry,
            &sigs,
            strategy,
            &ParallelExecutor::new(threads),
        );
        assert_eq!(
            parallel_outcomes, serial_outcomes,
            "{strategy} outcomes must match at {threads} threads"
        );
        assert!(
            parallel_db == serial_db,
            "{strategy} final state must match at {threads} threads"
        );
    }
}

proptest! {
    /// Random micro bulks: parallel == serial at 1/2/4/8 threads, for both
    /// parallelized strategies.
    #[test]
    fn prop_micro_parallel_equals_serial(
        seed in 0u64..u64::MAX / 2,
        n in 16usize..400,
        threads_log2 in 0u32..4,
    ) {
        assert_equivalent_for(
            micro(),
            seed,
            n,
            1usize << threads_log2,
            &[StrategyKind::Kset, StrategyKind::Part],
        );
    }
}

/// Random TM1 bulks: parallel == serial at 1/2/4/8 threads.
///
/// TM1's populated database is large enough that cloning and comparing it is
/// the dominant cost in debug builds, so instead of the full
/// [`proptest::CASES`] matrix this test draws a smaller sample — every thread
/// count, alternating K-SET and PART — from the same deterministic proptest
/// RNG. The micro property above keeps full-case coverage.
#[test]
fn prop_tm1_parallel_equals_serial() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic();
    for case in 0..12usize {
        let threads = 1usize << (case % 4);
        let strategy = if case % 2 == 0 {
            StrategyKind::Kset
        } else {
            StrategyKind::Part
        };
        let seed = rng.next_u64();
        let n = rng.below(16, 220);
        assert_equivalent_for(tm1(), seed, n, threads, &[strategy]);
    }
}
