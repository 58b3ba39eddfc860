//! TPC-B: the single-transaction database stress test.
//!
//! Schema: Branch, Teller, Account, History. The only transaction type updates
//! an account balance, its teller's balance and its branch's balance, and
//! appends a history row. The branch id is the partitioning key (Appendix E);
//! any two transactions against the same branch conflict, so the
//! T-dependency graph degenerates into one path per branch (Figure 2).
//!
//! Scaling: the original benchmark has 10 tellers and 100,000 accounts per
//! branch; this reproduction keeps 10 tellers and scales accounts down to
//! 1,000 per branch so simulation stays laptop-sized (the access pattern —
//! one account, one teller, one branch per transaction — is unchanged).

use crate::workload::WorkloadBundle;
use gputx_storage::schema::{ColumnDef, TableSchema};
use gputx_storage::{DataItemId, DataType, Database, IndexSet, Value};
use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Tellers per branch (as in the original benchmark).
pub const TELLERS_PER_BRANCH: u64 = 10;
/// Accounts per branch (scaled down from 100,000).
pub const ACCOUNTS_PER_BRANCH: u64 = 1_000;

/// Configuration of the TPC-B workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TpcbConfig {
    /// Scale factor: number of branches.
    pub scale_factor: u64,
}

impl Default for TpcbConfig {
    fn default() -> Self {
        TpcbConfig { scale_factor: 16 }
    }
}

impl TpcbConfig {
    /// Builder-style: set the scale factor (number of branches).
    pub fn with_scale_factor(mut self, sf: u64) -> Self {
        assert!(sf >= 1, "scale factor must be at least 1");
        self.scale_factor = sf;
        self
    }

    /// Build the populated database, registered procedure and generator.
    pub fn build(&self) -> WorkloadBundle {
        let branches = self.scale_factor;
        let mut db = Database::column_store();
        let branch_t = db.create_table(TableSchema::new(
            "branch",
            vec![
                ColumnDef::new("b_id", DataType::Int),
                ColumnDef::new("b_balance", DataType::Double),
            ],
            vec![0],
        ));
        let teller_t = db.create_table(TableSchema::new(
            "teller",
            vec![
                ColumnDef::new("t_id", DataType::Int),
                ColumnDef::new("t_b_id", DataType::Int),
                ColumnDef::new("t_balance", DataType::Double),
            ],
            vec![0],
        ));
        let account_t = db.create_table(TableSchema::new(
            "account",
            vec![
                ColumnDef::new("a_id", DataType::Int),
                ColumnDef::new("a_b_id", DataType::Int),
                ColumnDef::new("a_balance", DataType::Double),
            ],
            vec![0],
        ));
        let history_t = db.create_table(TableSchema::new(
            "history",
            vec![
                ColumnDef::new("h_a_id", DataType::Int),
                ColumnDef::new("h_t_id", DataType::Int),
                ColumnDef::new("h_b_id", DataType::Int),
                ColumnDef::new("h_delta", DataType::Double),
            ],
            vec![],
        ));

        for b in 0..branches {
            db.table_mut(branch_t)
                .insert(vec![Value::Int(b as i64), Value::Double(0.0)]);
        }
        for t in 0..branches * TELLERS_PER_BRANCH {
            db.table_mut(teller_t).insert(vec![
                Value::Int(t as i64),
                Value::Int((t / TELLERS_PER_BRANCH) as i64),
                Value::Double(0.0),
            ]);
        }
        for a in 0..branches * ACCOUNTS_PER_BRANCH {
            db.table_mut(account_t).insert(vec![
                Value::Int(a as i64),
                Value::Int((a / ACCOUNTS_PER_BRANCH) as i64),
                Value::Double(0.0),
            ]);
        }

        let mut registry = ProcedureRegistry::new();
        // The branch row (root of the tree-shaped schema) is the
        // conflict/locking object (§5.1).
        let read_write_set = move |params: &[Value], _: &IndexSet| {
            let branch = params[0].as_int() as u64;
            let teller = params[1].as_int() as u64;
            let account = params[2].as_int() as u64;
            vec![
                BasicOp::write(DataItemId::new(branch_t, branch, 1)),
                BasicOp::write(DataItemId::new(teller_t, teller, 2)),
                BasicOp::write(DataItemId::new(account_t, account, 2)),
            ]
        };
        let partition_key = |params: &[Value]| Some(params[0].as_int() as u64);
        registry.register(ProcedureDef::new(
            "tpcb_transaction",
            read_write_set,
            partition_key,
            move |ctx| {
                let branch = ctx.param_int(0) as u64;
                let teller = ctx.param_int(1) as u64;
                let account = ctx.param_int(2) as u64;
                let delta = ctx.param_double(3);
                let ab = ctx.read_f64(account_t, account, 2);
                ctx.write_f64(account_t, account, 2, ab + delta);
                let tb = ctx.read_f64(teller_t, teller, 2);
                ctx.write_f64(teller_t, teller, 2, tb + delta);
                let bb = ctx.read_f64(branch_t, branch, 1);
                ctx.write_f64(branch_t, branch, 1, bb + delta);
                ctx.insert(
                    history_t,
                    vec![
                        Value::Int(account as i64),
                        Value::Int(teller as i64),
                        Value::Int(branch as i64),
                        Value::Double(delta),
                    ],
                );
            },
        ));

        let generator = Box::new(move |rng: &mut rand::rngs::StdRng| {
            let branch = rng.random_range(0..branches);
            let teller = branch * TELLERS_PER_BRANCH + rng.random_range(0..TELLERS_PER_BRANCH);
            let account = branch * ACCOUNTS_PER_BRANCH + rng.random_range(0..ACCOUNTS_PER_BRANCH);
            let delta = rng.random_range(-1000..=1000) as f64 / 10.0;
            (
                0,
                vec![
                    Value::Int(branch as i64),
                    Value::Int(teller as i64),
                    Value::Int(account as i64),
                    Value::Double(delta),
                ],
            )
        });

        WorkloadBundle::new("tpcb", db, registry, branches, generator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_core::{execute_bulk, Bulk, EngineConfig, ExecContext, StrategyKind};
    use gputx_sim::Gpu;

    #[test]
    fn population_matches_scale_factor() {
        let w = TpcbConfig::default().with_scale_factor(4).build();
        assert_eq!(w.db.table_by_name("branch").num_rows(), 4);
        assert_eq!(w.db.table_by_name("teller").num_rows(), 40);
        assert_eq!(w.db.table_by_name("account").num_rows(), 4000);
        assert_eq!(w.registry.num_types(), 1);
        assert_eq!(w.partition_key_cardinality, 4);
    }

    #[test]
    fn balances_stay_consistent_after_a_bulk() {
        let mut w = TpcbConfig::default().with_scale_factor(8).build();
        let sigs = w.generate_signatures(2000, 0);
        let mut db = w.db.clone();
        let mut gpu = Gpu::c1060();
        let config = EngineConfig::default();
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &w.registry,
            config: &config,
        };
        let out = execute_bulk(&mut ctx, StrategyKind::Part, &Bulk::new(sigs));
        assert_eq!(out.committed, 2000);
        // Invariant: sum of branch balances == sum of account balances ==
        // sum of teller balances == sum of history deltas.
        let sum = |table: &str, col: usize| -> f64 {
            let t = db.table_by_name(table);
            (0..t.num_rows() as u64)
                .map(|r| t.get(r, col).as_double())
                .sum()
        };
        let branches = sum("branch", 1);
        let tellers = sum("teller", 2);
        let accounts = sum("account", 2);
        let history = sum("history", 3);
        assert!((branches - tellers).abs() < 1e-6);
        assert!((branches - accounts).abs() < 1e-6);
        assert!((branches - history).abs() < 1e-6);
        assert_eq!(db.table_by_name("history").num_rows(), 2000);
    }

    #[test]
    fn all_strategies_agree_on_final_state() {
        let mut w = TpcbConfig::default().with_scale_factor(4).build();
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
}
