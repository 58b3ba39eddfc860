//! The workload bundle consumed by engines, examples and the bench harness.

use gputx_storage::{Database, Value};
use gputx_txn::{ProcedureRegistry, TxnSignature, TxnTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Closure type that draws the next transaction (type + parameters).
pub type TxnGenerator = Box<dyn FnMut(&mut StdRng) -> (TxnTypeId, Vec<Value>) + Send>;

/// A fully built workload: populated database, registered procedures and a
/// random transaction generator.
pub struct WorkloadBundle {
    /// Workload name ("micro", "tm1", "tpcb", "tpcc").
    pub name: String,
    /// The populated database.
    pub db: Database,
    /// The registered transaction types.
    pub registry: ProcedureRegistry,
    /// Cardinality of the partitioning key (number of possible partitions at
    /// partition size 1), e.g. number of branches for TPC-B.
    pub partition_key_cardinality: u64,
    /// Random transaction generator.
    pub generator: TxnGenerator,
    /// Deterministic RNG used by [`WorkloadBundle::generate`].
    rng: StdRng,
}

impl WorkloadBundle {
    /// Assemble a bundle. The internal RNG is seeded deterministically so runs
    /// are reproducible; use [`WorkloadBundle::reseed`] to change it.
    pub fn new(
        name: impl Into<String>,
        db: Database,
        registry: ProcedureRegistry,
        partition_key_cardinality: u64,
        generator: TxnGenerator,
    ) -> Self {
        WorkloadBundle {
            name: name.into(),
            db,
            registry,
            partition_key_cardinality,
            generator,
            rng: StdRng::seed_from_u64(0x6770_7574),
        }
    }

    /// Re-seed the internal RNG.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Draw `n` transactions as (type, params) pairs.
    pub fn generate(&mut self, n: usize) -> Vec<(TxnTypeId, Vec<Value>)> {
        (0..n).map(|_| (self.generator)(&mut self.rng)).collect()
    }

    /// Draw `n` transactions as signatures with ids starting at `start_id`.
    pub fn generate_signatures(&mut self, n: usize, start_id: u64) -> Vec<TxnSignature> {
        self.generate(n)
            .into_iter()
            .enumerate()
            .map(|(i, (ty, params))| TxnSignature::new(start_id + i as u64, ty, params))
            .collect()
    }

    /// Draw one transaction.
    pub fn next_txn(&mut self) -> (TxnTypeId, Vec<Value>) {
        (self.generator)(&mut self.rng)
    }
}

impl std::fmt::Debug for WorkloadBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadBundle")
            .field("name", &self.name)
            .field("tables", &self.db.num_tables())
            .field("types", &self.registry.num_types())
            .field("partition_key_cardinality", &self.partition_key_cardinality)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::micro::{MicroConfig, MicroWorkload};

    #[test]
    fn signatures_are_sequential_and_reproducible() {
        let mut w1 = MicroWorkload::build(&MicroConfig::default().with_tuples(1000));
        let mut w2 = MicroWorkload::build(&MicroConfig::default().with_tuples(1000));
        let a = w1.generate_signatures(100, 5);
        let b = w2.generate_signatures(100, 5);
        assert_eq!(a.len(), 100);
        assert_eq!(a[0].id, 5);
        assert_eq!(a[99].id, 104);
        let pa: Vec<_> = a.iter().map(|s| (s.ty, s.params.clone())).collect();
        let pb: Vec<_> = b.iter().map(|s| (s.ty, s.params.clone())).collect();
        assert_eq!(pa, pb, "same seed, same workload stream");
        w1.reseed(42);
        let c = w1.generate_signatures(100, 0);
        let pc: Vec<_> = c.iter().map(|s| (s.ty, s.params.clone())).collect();
        assert_ne!(pa, pc, "different seed, different stream");
    }
}
