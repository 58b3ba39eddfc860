//! The bulk profiler.
//!
//! Before choosing an execution strategy, GPUTx analyzes the characteristics
//! of the input transactions (§5). The profiler computes the three structural
//! indicators of the T-dependency graph identified in Appendix D:
//!
//! * `d` — the depth of the graph (critical path length of the bulk),
//! * `w0` — the number of transactions in the 0-set (available parallelism),
//! * `c` — the number of cross-partition transactions.

use gputx_storage::IndexSet;
use gputx_txn::kset::rank_ksets;
use gputx_txn::{ProcedureRegistry, TxnSignature};
use serde::{Deserialize, Serialize};

/// Structural profile of one bulk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BulkProfile {
    /// Number of transactions in the bulk.
    pub size: usize,
    /// Depth `d`: maximum rank over all transactions.
    pub depth: u32,
    /// `w0`: number of transactions without preceding conflicting transactions.
    pub zero_set_size: usize,
    /// `c`: number of cross-partition transactions (no single partition key).
    pub cross_partition: usize,
    /// Number of distinct partition keys among the single-partition
    /// transactions — the parallelism PART can extract (the adaptive
    /// selector divides this by the configured partition size to estimate
    /// group count).
    pub distinct_partitions: usize,
    /// Number of distinct transaction types present in the bulk.
    pub distinct_types: usize,
    /// Per-type transaction counts, indexed by type id.
    pub type_histogram: Vec<usize>,
}

/// Profile a bulk of transaction signatures, resolving read/write sets
/// against `indexes` (a [`gputx_storage::Database`] or an [`IndexSet`]).
pub fn profile_bulk(
    registry: &ProcedureRegistry,
    indexes: &impl AsRef<IndexSet>,
    bulk: &[TxnSignature],
) -> BulkProfile {
    let ops: Vec<_> = bulk
        .iter()
        .map(|sig| (sig.id, registry.read_write_set(sig, indexes)))
        .collect();
    let ranks = rank_ksets(&ops);
    let zero_set_size = ranks.zero_set().len();
    let depth = ranks.max_depth();

    let mut cross_partition = 0usize;
    let mut partition_keys = std::collections::BTreeSet::new();
    for sig in bulk {
        match registry.partition_key(sig) {
            Some(key) => {
                partition_keys.insert(key);
            }
            None => cross_partition += 1,
        }
    }
    let distinct_partitions = partition_keys.len();

    let mut type_histogram = vec![0usize; registry.num_types()];
    for sig in bulk {
        if (sig.ty as usize) < type_histogram.len() {
            type_histogram[sig.ty as usize] += 1;
        }
    }
    let distinct_types = type_histogram.iter().filter(|&&c| c > 0).count();

    BulkProfile {
        size: bulk.len(),
        depth,
        zero_set_size,
        cross_partition,
        distinct_partitions,
        distinct_types,
        type_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataItemId, DataType, Database, Value};
    use gputx_txn::{BasicOp, ProcedureDef};

    fn setup() -> (Database, ProcedureRegistry) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "items",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Double),
            ],
            vec![0],
        ));
        for i in 0..100i64 {
            db.table_mut(t)
                .insert(vec![Value::Int(i), Value::Double(0.0)]);
        }
        let mut reg = ProcedureRegistry::new();
        // Type 0: single-partition update of row `params[0]`.
        reg.register(ProcedureDef::new(
            "update_one",
            move |p, _| vec![BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1))],
            |p| Some(p[0].as_int() as u64),
            move |ctx| {
                let row = ctx.param_int(0) as u64;
                let v = ctx.read(t, row, 1).as_double();
                ctx.write(t, row, 1, Value::Double(v + 1.0));
            },
        ));
        // Type 1: cross-partition update of two rows.
        reg.register(ProcedureDef::new(
            "update_two",
            move |p, _| {
                vec![
                    BasicOp::write(DataItemId::new(t, p[0].as_int() as u64, 1)),
                    BasicOp::write(DataItemId::new(t, p[1].as_int() as u64, 1)),
                ]
            },
            |_| None,
            move |ctx| {
                for i in 0..2 {
                    let row = ctx.param_int(i) as u64;
                    let v = ctx.read(t, row, 1).as_double();
                    ctx.write(t, row, 1, Value::Double(v + 1.0));
                }
            },
        ));
        (db, reg)
    }

    #[test]
    fn profile_independent_bulk() {
        let (db, reg) = setup();
        let bulk: Vec<TxnSignature> = (0..50)
            .map(|i| TxnSignature::new(i, 0, vec![Value::Int(i as i64)]))
            .collect();
        let p = profile_bulk(&reg, &db, &bulk);
        assert_eq!(p.size, 50);
        assert_eq!(p.depth, 0);
        assert_eq!(p.zero_set_size, 50);
        assert_eq!(p.cross_partition, 0);
        assert_eq!(p.distinct_partitions, 50);
        assert_eq!(p.distinct_types, 1);
        assert_eq!(p.type_histogram, vec![50, 0]);
    }

    #[test]
    fn profile_conflicting_and_cross_partition_bulk() {
        let (db, reg) = setup();
        // Ten updates of the same row: a chain of depth 9; plus one
        // cross-partition transaction.
        let mut bulk: Vec<TxnSignature> = (0..10)
            .map(|i| TxnSignature::new(i, 0, vec![Value::Int(7)]))
            .collect();
        bulk.push(TxnSignature::new(10, 1, vec![Value::Int(1), Value::Int(2)]));
        let p = profile_bulk(&reg, &db, &bulk);
        assert_eq!(p.size, 11);
        assert_eq!(p.depth, 9);
        assert_eq!(
            p.zero_set_size, 2,
            "first writer of row 7 plus the cross-partition txn"
        );
        assert_eq!(p.cross_partition, 1);
        assert_eq!(p.distinct_partitions, 1, "every chained update hits row 7");
        assert_eq!(p.distinct_types, 2);
    }

    #[test]
    fn empty_bulk_profile() {
        let (db, reg) = setup();
        let p = profile_bulk(&reg, &db, &[]);
        assert_eq!(p.size, 0);
        assert_eq!(p.depth, 0);
        assert_eq!(p.zero_set_size, 0);
    }
}
