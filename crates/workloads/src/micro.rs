//! The micro benchmark of §6.1.
//!
//! One relation of `num_tuples` tuples. There are `T` registered transaction
//! types; all perform the same work — read a tuple, compute (`100·x` simulated
//! `sinf` calls), write the result back — but each type is a distinct branch
//! of the combined kernel's switch clause, so mixing types inside a warp
//! causes branch divergence (Figure 3). Transactions are assigned a type
//! evenly. Lock acquisition (the tuple a transaction targets) is skewed by the
//! parameter `α`: the first tuple is chosen with probability `α`, the rest
//! uniformly (Figure 6).

use crate::skew::SkewedPicker;
use crate::workload::WorkloadBundle;
use gputx_storage::schema::{ColumnDef, TableSchema};
use gputx_storage::{DataItemId, DataType, Database, IndexSet, Value};
use gputx_txn::{BasicOp, ProcedureDef, ProcedureRegistry, TxnTypeId};
use serde::{Deserialize, Serialize};

/// Configuration of the micro benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroConfig {
    /// Number of transaction types `T` (branches in the switch clause).
    pub num_types: u32,
    /// Computation amount `x`: each transaction performs `100·x` simulated
    /// `sinf` calls. The paper uses `x = 1` for "low" and `x = 16` for "high"
    /// computation cost; the default is 16.
    pub compute_x: u32,
    /// Number of tuples in the relation (8 million in Figure 4).
    pub num_tuples: u64,
    /// Skew parameter `α` of the lock-acquisition distribution.
    pub skew_alpha: f64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            num_types: 8,
            compute_x: 16,
            num_tuples: 1 << 20,
            skew_alpha: 0.0,
        }
    }
}

impl MicroConfig {
    /// Builder-style: set the number of transaction types.
    pub fn with_types(mut self, t: u32) -> Self {
        assert!(t >= 1, "at least one transaction type is required");
        self.num_types = t;
        self
    }

    /// Builder-style: set the computation amount `x`.
    pub fn with_compute(mut self, x: u32) -> Self {
        self.compute_x = x;
        self
    }

    /// Builder-style: set the relation cardinality.
    pub fn with_tuples(mut self, n: u64) -> Self {
        assert!(n >= 1, "at least one tuple is required");
        self.num_tuples = n;
        self
    }

    /// Builder-style: set the skew parameter `α`.
    pub fn with_skew(mut self, alpha: f64) -> Self {
        self.skew_alpha = alpha;
        self
    }
}

/// Builder for the micro benchmark.
pub struct MicroWorkload;

impl MicroWorkload {
    /// Name of the single relation.
    pub const TABLE: &'static str = "tuples";

    /// Build the populated database, the `T` registered types and the skewed
    /// transaction generator.
    pub fn build(config: &MicroConfig) -> WorkloadBundle {
        let mut db = Database::column_store();
        let table = db.create_table(TableSchema::new(
            Self::TABLE,
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("value", DataType::Double),
            ],
            vec![0],
        ));
        for i in 0..config.num_tuples {
            db.table_mut(table)
                .insert(vec![Value::Int(i as i64), Value::Double(i as f64)]);
        }

        let mut registry = ProcedureRegistry::new();
        let calls = 100 * config.compute_x as u64;
        for ty in 0..config.num_types {
            let read_write_set = move |params: &[Value], _: &IndexSet| {
                let row = params[0].as_int() as u64;
                vec![BasicOp::write(DataItemId::new(table, row, 1))]
            };
            let partition_key = |params: &[Value]| Some(params[0].as_int() as u64);
            registry.register(ProcedureDef::new(
                format!("micro_type_{ty}"),
                read_write_set,
                partition_key,
                move |ctx| {
                    let row = ctx.param_int(0) as u64;
                    let v = ctx.read_f64(table, row, 1);
                    ctx.compute_calls(calls);
                    // A cheap type-dependent transformation keeps branches
                    // semantically distinct.
                    ctx.write_f64(table, row, 1, v + 1.0 + ty as f64 * 1e-9);
                },
            ));
        }

        let picker = SkewedPicker::new(config.skew_alpha, config.num_tuples);
        let num_types = config.num_types;
        let mut counter: u64 = 0;
        let generator = Box::new(move |rng: &mut rand::rngs::StdRng| {
            // Types are assigned evenly (round robin), tuples by the skewed picker.
            let ty = (counter % num_types as u64) as TxnTypeId;
            counter += 1;
            let row = picker.pick(rng);
            (ty, vec![Value::Int(row as i64)])
        });

        WorkloadBundle::new("micro", db, registry, config.num_tuples, generator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_core::{execute_bulk, Bulk, EngineConfig, ExecContext, StrategyKind};
    use gputx_sim::Gpu;

    #[test]
    fn builds_requested_schema_and_types() {
        let w = MicroWorkload::build(&MicroConfig::default().with_types(16).with_tuples(1000));
        assert_eq!(w.registry.num_types(), 16);
        assert_eq!(w.db.table_by_name(MicroWorkload::TABLE).num_rows(), 1000);
        assert_eq!(w.partition_key_cardinality, 1000);
    }

    #[test]
    fn generator_assigns_types_evenly() {
        let mut w = MicroWorkload::build(&MicroConfig::default().with_types(4).with_tuples(100));
        let txns = w.generate(400);
        let mut counts = [0usize; 4];
        for (ty, params) in &txns {
            counts[*ty as usize] += 1;
            assert!((params[0].as_int() as u64) < 100);
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn skew_targets_first_tuple() {
        let mut w = MicroWorkload::build(
            &MicroConfig::default()
                .with_types(2)
                .with_tuples(1000)
                .with_skew(0.9),
        );
        let txns = w.generate(2000);
        let hot = txns.iter().filter(|(_, p)| p[0].as_int() == 0).count();
        assert!(hot > 1500, "expected ~90% hot-key hits, got {hot}");
    }

    #[test]
    fn executes_on_the_engine_and_updates_values() {
        let mut w = MicroWorkload::build(
            &MicroConfig::default()
                .with_types(4)
                .with_compute(1)
                .with_tuples(256),
        );
        let sigs = w.generate_signatures(1000, 0);
        let mut gpu = Gpu::c1060();
        let config = EngineConfig::default();
        let mut db = w.db.clone();
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &w.registry,
            config: &config,
        };
        let out = execute_bulk(&mut ctx, StrategyKind::Kset, &Bulk::new(sigs));
        assert_eq!(out.committed, 1000);
        // The sum of all values grew by exactly ~one per committed transaction.
        let table = db.table_by_name(MicroWorkload::TABLE);
        let sum: f64 = (0..table.num_rows() as u64)
            .map(|r| table.get(r, 1).as_double())
            .sum();
        let base: f64 = (0..256u64).map(|i| i as f64).sum();
        assert!(
            (sum - base - 1000.0).abs() < 1e-3,
            "sum {sum} vs base {base}"
        );
    }
}
