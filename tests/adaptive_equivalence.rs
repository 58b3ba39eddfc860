//! The adaptive-execution equivalence matrix: strategy selection is a pure
//! performance decision and must never change results.
//!
//! For TM1, TPC-B, TPC-C and the hot-key ledger, the same transaction
//! stream is executed under every strategy choice (ForceTpl / ForcePart /
//! ForceKset / Adaptive), all with the same fixed bulk boundaries. Every
//! configuration must produce exactly the reference's per-transaction
//! outcomes and a bit-identical final database; the reference itself is
//! cross-checked against an independent chunked serial TPL replay.
//!
//! The property tests then pin the selector itself: decisions are a pure
//! function of the profile stream (same stream, same decisions — no clocks,
//! no RNG), a conflict-free bulk is never sent to the serial TPL loop even
//! when hysteresis favours it, and a seeded adaptive engine run replays to
//! the same decision history and final state every time.

use gputx_core::{
    execute_bulk, AdaptiveConfig, AdaptiveSelector, Bulk, BulkProfile, EngineBuilder, EngineConfig,
    ExecContext, StrategyChoice, StrategyKind,
};
use gputx_sim::Gpu;
use gputx_storage::{Database, Value};
use gputx_txn::{ProcedureRegistry, TxnId, TxnOutcome, TxnSignature, TxnTypeId};
use gputx_workloads::{LedgerConfig, Tm1Config, TpcbConfig, TpccConfig, WorkloadBundle};
use proptest::prelude::*;

/// Transactions per workload and fixed bulk size: every engine run below
/// drains the same stream in the same `N / BULK` bulks.
const N: usize = 480;
const BULK: usize = 96;

fn bundle_for(name: &str) -> WorkloadBundle {
    match name {
        "tm1" => Tm1Config::default().build(),
        "tpcb" => TpcbConfig::default().build(),
        // Multi-warehouse with the default cross-partition mix: PART must
        // take its whole-bulk serial fallback and still agree.
        "tpcc" => TpccConfig::default().build(),
        "ledger" => LedgerConfig::default().with_accounts(1024).build(),
        other => panic!("unknown workload {other}"),
    }
}

/// One reproducible stream of submit-able (type, params) pairs. Drawn from
/// a fresh bundle so that generators with internal phase state (the ledger)
/// replay identically on every call.
fn draw_stream(bundle: &mut WorkloadBundle, seed: u64, n: usize) -> Vec<(TxnTypeId, Vec<Value>)> {
    bundle.reseed(seed);
    bundle.generate(n)
}

/// Run the full stream through a one-shot engine under one configuration;
/// return the final database, the per-transaction outcomes and (for the
/// adaptive configuration) the decision tally.
fn run_config(
    db0: &Database,
    registry: &ProcedureRegistry,
    txns: &[(TxnTypeId, Vec<Value>)],
    strategy: StrategyChoice,
) -> (
    Database,
    Vec<(TxnId, TxnOutcome)>,
    Option<gputx_core::DecisionStats>,
) {
    let mut engine = EngineBuilder::new(db0.clone(), registry.clone())
        .with_strategy(strategy)
        .with_bulk_size(BULK)
        .build();
    for (ty, params) in txns {
        engine.submit(*ty, params.clone());
    }
    engine.run_until_empty();
    let outcomes = engine
        .results()
        .iter()
        .map(|r| (r.id, r.outcome.clone()))
        .collect();
    let stats = engine.decision_stats();
    (engine.db().clone(), outcomes, stats)
}

/// Independent reference: chop the signature stream into the same bulks and
/// execute each with the serial TPL loop through the raw strategy entry
/// point — no engine, no pool, no selector.
fn chunked_serial_replay(
    db0: &Database,
    registry: &ProcedureRegistry,
    sigs: &[TxnSignature],
) -> Database {
    let mut db = db0.clone();
    let mut gpu = Gpu::c1060();
    let config = EngineConfig::default();
    for chunk in sigs.chunks(BULK) {
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry,
            config: &config,
        };
        execute_bulk(&mut ctx, StrategyKind::Tpl, &Bulk::new(chunk.to_vec()));
    }
    db
}

fn assert_matrix_equivalent(name: &str, seed: u64) {
    let mut bundle = bundle_for(name);
    let txns = draw_stream(&mut bundle, seed, N);
    // The signature stream for the raw replay comes from a second, fresh
    // bundle: stateful generators (the ledger's phase counter) would
    // otherwise produce a different stream on the second draw.
    let mut bundle2 = bundle_for(name);
    bundle2.reseed(seed);
    let sigs = bundle2.generate_signatures(N, 0);
    let (db0, registry) = (bundle.db.clone(), bundle.registry.clone());

    let (ref_db, ref_outcomes, _) = run_config(&db0, &registry, &txns, StrategyChoice::ForceTpl);
    assert!(
        ref_outcomes
            .iter()
            .any(|(_, o)| *o == TxnOutcome::Committed),
        "{name}: the reference run must commit something"
    );
    let replay_db = chunked_serial_replay(&db0, &registry, &sigs);
    assert!(
        replay_db == ref_db,
        "{name}: engine TPL reference must equal the raw chunked serial replay"
    );

    let strategies = [
        StrategyChoice::ForceTpl,
        StrategyChoice::ForcePart,
        StrategyChoice::ForceKset,
        StrategyChoice::Adaptive,
    ];
    for strategy in strategies {
        let (db, outcomes, stats) = run_config(&db0, &registry, &txns, strategy);
        assert_eq!(
            outcomes, ref_outcomes,
            "{name}: {strategy:?} outcomes must match the serial TPL reference"
        );
        assert!(
            db == ref_db,
            "{name}: {strategy:?} final state must match the serial TPL reference"
        );
        if strategy == StrategyChoice::Adaptive {
            let stats = stats.expect("adaptive engines expose decision stats");
            assert_eq!(
                stats.total(),
                (N / BULK) as u64,
                "{name}: one decision per bulk"
            );
        } else {
            assert!(stats.is_none(), "fixed strategies record no decisions");
        }
    }
}

#[test]
fn tm1_matrix_is_equivalent() {
    assert_matrix_equivalent("tm1", 11);
}

#[test]
fn tpcb_matrix_is_equivalent() {
    assert_matrix_equivalent("tpcb", 12);
}

#[test]
fn tpcc_matrix_is_equivalent() {
    assert_matrix_equivalent("tpcc", 13);
}

#[test]
fn ledger_matrix_is_equivalent() {
    assert_matrix_equivalent("ledger", 14);
}

/// Derive a structurally consistent bulk profile from five raw draws.
fn profile_from(size: usize, depth: u32, zero: usize, cross: usize, parts: usize) -> BulkProfile {
    let size = size.max(1);
    let depth = if size == 1 {
        0
    } else {
        depth.min(size as u32 - 1)
    };
    let zero = if depth == 0 {
        size
    } else {
        zero.clamp(1, size)
    };
    let cross = cross.min(size);
    let parts = parts.clamp(usize::from(cross < size), size - cross);
    BulkProfile {
        size,
        depth,
        zero_set_size: zero,
        cross_partition: cross,
        distinct_partitions: parts,
        distinct_types: 1,
        type_histogram: vec![size],
    }
}

fn fresh_selector() -> AdaptiveSelector {
    AdaptiveSelector::new(&EngineConfig::default(), AdaptiveConfig::default())
}

proptest! {
    /// The selector is a pure function of the profile stream: two fresh
    /// selectors fed the same stream make identical decisions (strategy,
    /// sizing hint, scores and switch flags alike).
    #[test]
    fn prop_selector_is_deterministic_for_a_profile_stream(
        draws in proptest::collection::vec(
            ((1usize..2048, 0u32..2048), (1usize..2048, 0usize..64, 1usize..2048)),
            1..24,
        ),
    ) {
        let profiles: Vec<BulkProfile> = draws
            .into_iter()
            .map(|((s, d), (z, c, p))| profile_from(s, d, z, c, p))
            .collect();
        let mut a = fresh_selector();
        let mut b = fresh_selector();
        for profile in &profiles {
            prop_assert_eq!(a.decide(profile), b.decide(profile));
        }
        prop_assert_eq!(a.stats_handle().snapshot(), b.stats_handle().snapshot());
    }

    /// A conflict-free bulk (depth 0, no cross-partition transactions) must
    /// never run the serial TPL loop — not even when hysteresis favours a
    /// TPL incumbent installed by a preceding hot-chain bulk.
    #[test]
    fn prop_never_tpl_for_a_conflict_free_bulk(
        chain_size in 2usize..2048,
        size in 1usize..2048,
        parts in 1usize..2048,
    ) {
        let mut selector = fresh_selector();
        // One long dependency chain first: TPL territory, installing a
        // serial incumbent for the hysteresis to defend.
        let chain = profile_from(chain_size, chain_size as u32 - 1, 1, 0, 1);
        selector.decide(&chain);
        let free = profile_from(size, 0, size, 0, parts);
        let decision = selector.decide(&free);
        prop_assert!(decision.strategy != StrategyKind::Tpl, "picked TPL: {:?}", decision);
        // The stateless one-shot resolution obeys the same invariant.
        let choice = gputx_core::adaptive::cost_based_choice(&EngineConfig::default(), &free);
        prop_assert!(choice != StrategyKind::Tpl, "one-shot resolution picked TPL");
    }
}

/// A seeded adaptive run replays bit-identically: same decision history,
/// same outcomes, same final state. Sampled over a handful of seeds on the
/// ledger (the workload whose phases actually exercise switching) using the
/// deterministic proptest RNG; kept out of the `proptest!` matrix because
/// each case builds and drains two full engines.
#[test]
fn prop_seeded_adaptive_runs_replay_identically() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic();
    for _ in 0..6 {
        let seed = rng.next_u64();
        let n = rng.below(128, 512);
        let mut bundle = LedgerConfig::default()
            .with_accounts(512)
            .with_phase_len(64)
            .build();
        let txns = draw_stream(&mut bundle, seed, n);
        let run = || {
            run_config(
                &bundle.db,
                &bundle.registry,
                &txns,
                StrategyChoice::Adaptive,
            )
        };
        let (db_a, out_a, stats_a) = run();
        let (db_b, out_b, stats_b) = run();
        let stats_a = stats_a.expect("adaptive stats");
        let stats_b = stats_b.expect("adaptive stats");
        assert_eq!(stats_a.history, stats_b.history, "seed {seed}");
        assert_eq!(stats_a, stats_b, "seed {seed}");
        assert_eq!(out_a, out_b, "seed {seed}");
        assert!(db_a == db_b, "seed {seed}");
    }
}
