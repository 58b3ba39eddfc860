//! Off-thread bulk planning: grouping entry points that need neither the GPU
//! simulator nor mutable database access.
//!
//! The streaming pipeline overlaps the *grouping* of bulk `N+1` with the
//! *execution* of bulk `N` (§3.2), so set construction must be callable on a
//! thread that does not own the database. Everything here operates on
//! transaction ids, declared read/write sets and partition keys — the same
//! inputs the GPU-side bulk generation of §4.2/§5.2 consumes — and produces
//! exactly the waves/groups the one-shot strategies derive, so a pipelined
//! execution replays the identical schedule.
//!
//! The read/write sets themselves must be *state-independent* (derivable from
//! the signature alone, the paper's Appendix B static analysis); planning
//! against an index share, which lags the live database, is only correct
//! under that assumption, which all bundled workloads
//! satisfy.

use crate::kset::IncrementalKSet;
use crate::op::BasicOp;
use crate::signature::TxnId;
use std::collections::BTreeMap;

/// The precomputed execution schedule of one bulk, computed before the bulk
/// runs and consumed by its execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkPlan {
    /// K-SET: successive 0-sets (each wave is pairwise conflict-free and may
    /// fan out across worker threads), in extraction order; ids within a wave
    /// ascend.
    ConflictFreeWaves(Vec<Vec<TxnId>>),
    /// PART: pairwise-disjoint partition groups in ascending partition-id
    /// order; ids within a group ascend (timestamp order).
    DisjointGroups(Vec<Vec<TxnId>>),
    /// Serial execution in ascending id (timestamp) order — the TPL schedule,
    /// and the fallback when PART meets cross-partition transactions.
    Serial,
}

impl BulkPlan {
    /// Total number of transactions scheduled by this plan (`None` for
    /// [`BulkPlan::Serial`], which schedules whatever bulk it is given).
    pub fn scheduled(&self) -> Option<usize> {
        match self {
            BulkPlan::ConflictFreeWaves(waves) => Some(waves.iter().map(Vec::len).sum()),
            BulkPlan::DisjointGroups(groups) => Some(groups.iter().map(Vec::len).sum()),
            BulkPlan::Serial => None,
        }
    }
}

/// Compute the K-SET wave schedule of a bulk: iteratively extract the 0-set
/// until the pool is empty, exactly as the K-SET strategy does during
/// execution (§5.3). Each returned wave is pairwise conflict-free.
pub fn plan_kset_waves(ops: &[(TxnId, Vec<BasicOp>)]) -> Vec<Vec<TxnId>> {
    let mut pending = IncrementalKSet::new(ops);
    let mut waves = Vec::new();
    while !pending.is_empty() {
        let wave = pending.zero_set();
        debug_assert!(!wave.is_empty(), "a non-empty pool always has a 0-set");
        pending.remove(&wave);
        waves.push(wave);
    }
    waves
}

/// Compute the PART partition groups of a bulk from its partition keys:
/// transactions are grouped by `key / partition_size` in ascending partition
/// order, each group in ascending id order — the same grouping the PART
/// strategy derives with its map + radix-sort pipeline (§5.2).
///
/// Returns `None` when any transaction is cross-partition (`key == None`),
/// in which case the caller must fall back to [`BulkPlan::Serial`] (the
/// strategy-level TPL fallback).
pub fn plan_partition_groups(
    keys: &[(TxnId, Option<u64>)],
    partition_size: u64,
) -> Option<Vec<Vec<TxnId>>> {
    assert!(partition_size > 0, "partition size must be positive");
    let mut partitions: BTreeMap<u64, Vec<TxnId>> = BTreeMap::new();
    for &(id, key) in keys {
        partitions
            .entry(key? / partition_size)
            .or_default()
            .push(id);
    }
    Some(
        partitions
            .into_values()
            .map(|mut ids| {
                ids.sort_unstable();
                ids
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::transactions_conflict;
    use gputx_storage::DataItemId;
    use std::collections::HashMap;

    fn item(n: u64) -> DataItemId {
        DataItemId::new(0, n, 0)
    }

    #[test]
    fn kset_waves_partition_the_bulk_into_conflict_free_sets() {
        // Figure 1's example: waves must be [1], [2, 3], [4].
        let txns: Vec<(TxnId, Vec<BasicOp>)> = vec![
            (
                1,
                vec![
                    BasicOp::read(item(0)),
                    BasicOp::read(item(1)),
                    BasicOp::write(item(0)),
                    BasicOp::write(item(1)),
                ],
            ),
            (2, vec![BasicOp::read(item(0))]),
            (3, vec![BasicOp::read(item(0)), BasicOp::read(item(1))]),
            (
                4,
                vec![
                    BasicOp::read(item(2)),
                    BasicOp::write(item(2)),
                    BasicOp::read(item(0)),
                    BasicOp::write(item(0)),
                ],
            ),
        ];
        let waves = plan_kset_waves(&txns);
        assert_eq!(waves, vec![vec![1], vec![2, 3], vec![4]]);
        let ops_of: HashMap<TxnId, &Vec<BasicOp>> =
            txns.iter().map(|(id, ops)| (*id, ops)).collect();
        for wave in &waves {
            for (i, &a) in wave.iter().enumerate() {
                for &b in &wave[i + 1..] {
                    assert!(!transactions_conflict(ops_of[&a], ops_of[&b]));
                }
            }
        }
        assert_eq!(
            BulkPlan::ConflictFreeWaves(waves).scheduled(),
            Some(txns.len())
        );
    }

    #[test]
    fn empty_bulk_plans_to_no_waves() {
        assert!(plan_kset_waves(&[]).is_empty());
    }

    #[test]
    fn partition_groups_follow_partition_order_and_timestamp_order() {
        let keys: Vec<(TxnId, Option<u64>)> = vec![
            (5, Some(300)),
            (0, Some(10)),
            (3, Some(11)),
            (1, Some(299)),
            (2, Some(10)),
        ];
        let groups = plan_partition_groups(&keys, 128).expect("single-partition");
        // Partitions: 10/128=0, 11/128=0, 299/128=2, 300/128=2.
        assert_eq!(groups, vec![vec![0, 2, 3], vec![1, 5]]);
        assert_eq!(BulkPlan::DisjointGroups(groups).scheduled(), Some(5));
    }

    #[test]
    fn cross_partition_forces_serial_fallback() {
        let keys = vec![(0, Some(1)), (1, None)];
        assert_eq!(plan_partition_groups(&keys, 128), None);
        assert_eq!(BulkPlan::Serial.scheduled(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_partition_size_rejected() {
        plan_partition_groups(&[(0, Some(1))], 0);
    }
}
