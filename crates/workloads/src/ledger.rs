//! A hot-key payments ledger: the adaptive selector's stress workload.
//!
//! One `accounts` table and two transaction types — `TRANSFER` moves money
//! between two accounts, `BALANCE_CHECK` reads one — driven by a generator
//! that alternates between two phases every [`LedgerConfig::phase_len`]
//! transactions:
//!
//! * **Uniform phase**: source and destination are drawn uniformly, so a
//!   bulk's T-dependency graph is almost flat (only birthday collisions) and
//!   K-SET executes it in a handful of waves.
//! * **Hot phase**: the destination is drawn from a [`SkewedPicker`] whose
//!   hot key is account 0 (think of a merchant settlement account receiving
//!   nearly every payment). A bulk becomes one long dependency chain through
//!   that account, K-SET degenerates to one kernel launch per wave, and the
//!   serial TPL loop on the host wins.
//!
//! Because a transfer touches two accounts and every account is its own
//! partition, transfers are declared cross-partition — PART would fall back
//! to whole-bulk serial execution and is never competitive. A cost-driven
//! selector therefore *must* alternate between K-SET and TPL as the phases
//! alternate; a fixed strategy loses one phase or the other. This is the
//! workload behind the non-degenerate decision histogram asserted by
//! `adaptive_selector_switches_strategies_across_phases` below, and part of
//! the adaptive equivalence matrix.
//!
//! Both procedures declare access-plan callbacks: every account probe derives
//! from the parameters, so it is resolved at bulk-formation time.

use crate::skew::SkewedPicker;
use crate::workload::WorkloadBundle;
use gputx_storage::catalog::TableId;
use gputx_storage::index::IndexKey;
use gputx_storage::schema::{ColumnDef, TableSchema};
use gputx_storage::{DataItemId, DataType, Database, Value};
use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry, TxnTypeId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Transaction type ids, in registration order.
pub mod types {
    /// Transfer between two accounts (90 %).
    pub const TRANSFER: u32 = 0;
    /// Read-only balance check (10 %).
    pub const BALANCE_CHECK: u32 = 1;
}

/// Configuration of the ledger workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerConfig {
    /// Number of accounts.
    pub accounts: u64,
    /// Probability that a hot-phase transfer pays into account 0.
    pub hot_alpha: f64,
    /// Transactions per phase before the generator toggles between the
    /// uniform and the hot regime.
    pub phase_len: usize,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            accounts: 4096,
            hot_alpha: 0.95,
            phase_len: 256,
        }
    }
}

impl LedgerConfig {
    /// Builder-style: set the number of accounts.
    pub fn with_accounts(mut self, accounts: u64) -> Self {
        assert!(accounts >= 2, "a transfer needs at least two accounts");
        self.accounts = accounts;
        self
    }

    /// Builder-style: set the phase length.
    pub fn with_phase_len(mut self, phase_len: usize) -> Self {
        assert!(phase_len >= 1, "phases must be non-empty");
        self.phase_len = phase_len;
        self
    }

    /// Build the populated database, the two procedures and the
    /// phase-alternating generator.
    pub fn build(&self) -> WorkloadBundle {
        let accounts = self.accounts;
        let mut db = Database::column_store();
        let acct_t = db.create_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("a_id", DataType::Int),
                ColumnDef::new("balance", DataType::Double),
                ColumnDef::new("pay_cnt", DataType::Int),
            ],
            vec![0],
        ));
        let acct_pk = db.create_index(acct_t, "pk", vec![0], true);
        // Row id of an account equals its a_id because rows are inserted in
        // id order.
        for a in 0..accounts {
            db.insert_indexed(
                acct_t,
                vec![Value::Int(a as i64), Value::Double(1_000.0), Value::Int(0)],
            );
        }

        let mut registry = ProcedureRegistry::new();
        // 0: TRANSFER(src, dst, amount)
        registry.register(
            ProcedureDef::new(
                "TRANSFER",
                move |p, _| transfer_rwset(acct_t, p),
                transfer_partition,
                move |ctx| {
                    let src = ctx.param_int(0);
                    let dst = ctx.param_int(1);
                    let amount = ctx.param_double(2);
                    let s_row = ctx
                        .lookup_unique_by(acct_pk, || IndexKey::single(src))
                        .expect("source account exists");
                    let d_row = ctx
                        .lookup_unique_by(acct_pk, || IndexKey::single(dst))
                        .expect("destination account exists");
                    let s_bal = ctx.read_f64(acct_t, s_row, 1);
                    if s_bal < amount {
                        ctx.abort("insufficient funds");
                        return;
                    }
                    ctx.write_f64(acct_t, s_row, 1, s_bal - amount);
                    let d_bal = ctx.read_f64(acct_t, d_row, 1);
                    ctx.write_f64(acct_t, d_row, 1, d_bal + amount);
                    let cnt = ctx.read_i64(acct_t, d_row, 2);
                    ctx.write_i64(acct_t, d_row, 2, cnt + 1);
                },
            )
            .with_plan_access(move |p, probe| {
                probe.unique(acct_pk, &IndexKey::single(p[0].as_int()));
                probe.unique(acct_pk, &IndexKey::single(p[1].as_int()));
            }),
        );
        // 1: BALANCE_CHECK(account)
        registry.register(
            ProcedureDef::new(
                "BALANCE_CHECK",
                move |p, _| {
                    vec![BasicOp::read(DataItemId::new(
                        acct_t,
                        p[0].as_int() as u64,
                        1,
                    ))]
                },
                |p| Some(p[0].as_int() as u64),
                move |ctx| {
                    let account = ctx.param_int(0);
                    let row = ctx
                        .lookup_unique_by(acct_pk, || IndexKey::single(account))
                        .expect("account exists");
                    ctx.read_f64(acct_t, row, 1);
                    ctx.compute_cycles(10);
                },
            )
            .with_plan_access(move |p, probe| {
                probe.unique(acct_pk, &IndexKey::single(p[0].as_int()));
            }),
        );

        // Phase-alternating generator: `issued` counts drawn transactions so
        // the regime toggles every `phase_len` of them. The counter lives in
        // the closure and is NOT rewound by `WorkloadBundle::reseed` — for a
        // bit-identical replay of a stream, build a fresh bundle.
        let hot = SkewedPicker::new(self.hot_alpha, accounts);
        let phase_len = self.phase_len;
        let mut issued: usize = 0;
        let generator = Box::new(move |rng: &mut rand::rngs::StdRng| {
            let hot_phase = (issued / phase_len) % 2 == 1;
            issued += 1;
            let roll = rng.random_range(0..100u32);
            if roll < 90 {
                let src = rng.random_range(0..accounts) as i64;
                let dst = if hot_phase {
                    hot.pick(rng) as i64
                } else {
                    rng.random_range(0..accounts) as i64
                };
                // A self-payment would collapse to a single-account no-op;
                // redirect to the neighbour to keep every transfer two-sided.
                let dst = if dst == src {
                    (dst + 1) % accounts as i64
                } else {
                    dst
                };
                let amount = rng.random_range(1..=5_000) as f64 / 100.0;
                (
                    types::TRANSFER as TxnTypeId,
                    vec![Value::Int(src), Value::Int(dst), Value::Double(amount)],
                )
            } else {
                let account = if hot_phase {
                    hot.pick(rng) as i64
                } else {
                    rng.random_range(0..accounts) as i64
                };
                (types::BALANCE_CHECK as TxnTypeId, vec![Value::Int(account)])
            }
        });

        WorkloadBundle::new("ledger", db, registry, accounts, generator)
    }
}

/// TRANSFER's declared write set: the balance (and payment counter) of both
/// accounts. Account row id equals the account id.
fn transfer_rwset(acct_t: TableId, p: &[Value]) -> Vec<BasicOp> {
    vec![
        BasicOp::write(DataItemId::whole_row(acct_t, p[0].as_int() as u64)),
        BasicOp::write(DataItemId::whole_row(acct_t, p[1].as_int() as u64)),
    ]
}

/// Every account is its own partition; a transfer between two distinct
/// accounts is therefore cross-partition (PART would execute the whole bulk
/// serially — the selector must pick K-SET or TPL instead).
fn transfer_partition(p: &[Value]) -> Option<u64> {
    let (src, dst) = (p[0].as_int(), p[1].as_int());
    (src == dst).then_some(src as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_core::{execute_bulk, Bulk, EngineBuilder, EngineConfig, ExecContext, StrategyKind};
    use gputx_sim::Gpu;

    #[test]
    fn population_and_conservation_of_money() {
        let mut w = LedgerConfig::default().with_accounts(512).build();
        assert_eq!(w.db.table_by_name("accounts").num_rows(), 512);
        assert_eq!(w.registry.num_types(), 2);
        let sigs = w.generate_signatures(1000, 0);
        let mut db = w.db.clone();
        let mut gpu = Gpu::c1060();
        let config = EngineConfig::default();
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &w.registry,
            config: &config,
        };
        let out = execute_bulk(&mut ctx, StrategyKind::Kset, &Bulk::new(sigs));
        assert!(out.committed > 0);
        // Transfers only move money around: the total must be conserved.
        let accts = db.table_by_name("accounts");
        let total: f64 = (0..accts.num_rows() as u64)
            .map(|r| accts.get(r, 1).as_double())
            .sum();
        assert!((total - 512.0 * 1_000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn phases_alternate_between_uniform_and_hot_destinations() {
        let cfg = LedgerConfig::default().with_phase_len(256);
        let mut w = cfg.build();
        let txns = w.generate(512);
        let hot_hits = |slice: &[(TxnTypeId, Vec<Value>)]| {
            slice
                .iter()
                .filter(|(ty, p)| *ty == types::TRANSFER && p[1].as_int() == 0)
                .count()
        };
        let uniform = hot_hits(&txns[..256]);
        let hot = hot_hits(&txns[256..]);
        assert!(uniform <= 3, "uniform phase hit account 0 {uniform} times");
        assert!(hot >= 180, "hot phase hit account 0 only {hot} times");
    }

    #[test]
    fn strategies_agree_on_final_state() {
        let mut w = LedgerConfig::default().with_accounts(1024).build();
        let sigs = w.generate_signatures(600, 0);
        let config = EngineConfig::default();
        let mut states = Vec::new();
        for strategy in [StrategyKind::Tpl, StrategyKind::Part, StrategyKind::Kset] {
            let mut db = w.db.clone();
            let mut gpu = Gpu::c1060();
            let mut ctx = ExecContext {
                gpu: &mut gpu,
                db: &mut db,
                registry: &w.registry,
                config: &config,
            };
            execute_bulk(&mut ctx, strategy, &Bulk::new(sigs.clone()));
            states.push(db);
        }
        assert!(states[0] == states[1], "TPL and PART disagree");
        assert!(states[1] == states[2], "PART and K-SET disagree");
    }

    /// The reason this workload exists: driven through the adaptive one-shot
    /// engine with bulks aligned to the phases, the selector must pick K-SET
    /// for the uniform phases and TPL for the hot-chain phases.
    #[test]
    fn adaptive_selector_switches_strategies_across_phases() {
        let mut w = LedgerConfig::default().with_phase_len(256).build();
        let mut engine = EngineBuilder::new(w.db.clone(), w.registry.clone())
            .adaptive()
            .with_bulk_size(256)
            .build();
        for (ty, params) in w.generate(1024) {
            engine.submit(ty, params);
        }
        engine.run_until_empty();
        let stats = engine.decision_stats().expect("adaptive engine");
        assert_eq!(stats.total(), 4, "1024 transactions in bulks of 256");
        assert!(
            stats.kset >= 1 && stats.tpl >= 1,
            "both regimes must show up: {stats:?}"
        );
        assert!(stats.non_degenerate(), "≥2 strategies chosen");
        assert!(stats.switches >= 1, "the selector must switch mid-run");
    }
}
