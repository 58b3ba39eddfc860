//! Per-bulk access plans: the paper's *gather* step made explicit.
//!
//! GPUTx turns a bulk's reads and writes into gather/scatter over locations
//! that are computed **before** kernel execution (§3.2, Appendix E). In this
//! reproduction the expensive per-operation location work is the index
//! lookup: hashing a composite [`IndexKey`], probing the hash table and (for
//! string keys) building the key at all. An [`AccessPlan`] hoists that work
//! out of procedure execution: before the bulk runs, every transaction's
//! index keys are resolved to dense [`RowId`]s once, and the procedure
//! bodies consume the resolved rows in order with **zero hash lookups**.
//! The one-shot engine builds a plan per bulk; the streaming pipeline builds
//! none.
//!
//! # How plans stay correct
//!
//! Index lookups are stable *within* a bulk (buffered inserts only reach the
//! indexes in [`Database::apply_insert_buffers`], after the bulk), so a plan
//! resolved against the very database the bulk will run on is always exact.
//! A plan may instead be built against another [`IndexSet`]: a copy-on-write
//! share of the live database's indexes, which lags the live database by the
//! inserts of the bulks run since it was taken. Every index therefore carries a mutation version
//! ([`gputx_storage::index::HashIndex::version`]); a plan records the
//! versions it resolved against, and [`AccessPlan::revalidate`] compares them
//! with the live database right before execution. Entries resolved through
//! an index that has since changed are marked stale and are transparently
//! **re-probed** at consume time (the consuming [`TxnCtx`] methods take the
//! key lazily for exactly this reason); once a stale entry is consumed the
//! rest of *that transaction's* plan is abandoned too, because later keys may
//! depend on the re-probed result.
//!
//! Staleness is tracked **per index**, so the degradation is proportional to
//! index churn, not all-or-nothing: in a TM1 stream, the first applied
//! call-forwarding insert makes every later bulk's call-forwarding entries
//! stale (the live database wrote its own copy of those indexes, and the
//! share's holder then releases its outdated one —
//! [`IndexSet::release_unshared`] — so lookups through it are recorded stale
//! without probing), but lookups through the static indexes — subscriber
//! number, access-info and special-facility primary keys, the bulk of TM1's
//! lookup volume — keep the pre-resolved fast path for as long as the share
//! is held. Plans built against the execution database itself (the one-shot
//! engine path) are always fully fresh. For static indexes the revalidation is a handful of
//! integer compares per bulk.
//!
//! [`TxnCtx`]: crate::procedure::TxnCtx
//! [`Database::apply_insert_buffers`]: gputx_storage::Database::apply_insert_buffers

use crate::signature::{TxnId, TxnSignature};
use gputx_storage::index::{HashIndex, IndexKey};
use gputx_storage::shard::FxHashMap;
use gputx_storage::{Database, IndexId, IndexSet, RowId};

/// One pre-resolved index lookup. `idx_ref` points into the plan's interned
/// index table (used for staleness checks); the payload is either the
/// resolved unique row or a span of the plan's flat row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanEntry {
    /// A unique-index lookup: the resolved row, or `None` for a miss.
    Unique { idx_ref: u16, row: Option<RowId> },
    /// A non-unique lookup: `start..start + len` into [`AccessPlan::rows`].
    Multi { idx_ref: u16, start: u32, len: u32 },
}

impl PlanEntry {
    fn idx_ref(&self) -> u16 {
        match self {
            PlanEntry::Unique { idx_ref, .. } | PlanEntry::Multi { idx_ref, .. } => *idx_ref,
        }
    }
}

/// The pre-resolved index lookups of one bulk: for each planned transaction,
/// the rows its lookups gather, in the exact order the procedure body
/// consumes them.
///
/// Build one per bulk with [`AccessPlan::build`] (off the execution thread
/// where possible), [`AccessPlan::revalidate`] it against the live database
/// if it was built from another [`IndexSet`], and hand it to the executor;
/// procedures
/// registered with a plan callback
/// ([`ProcedureDef::with_plan_access`](crate::procedure::ProcedureDef::with_plan_access))
/// then execute without touching an index hash table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessPlan {
    entries: Vec<PlanEntry>,
    rows: Vec<RowId>,
    /// Per planned transaction: `(start, len)` into `entries`.
    spans: FxHashMap<TxnId, (u32, u32)>,
    /// Interned indexes used by any entry, with the version each was
    /// resolved against; `None` for an index the build's [`IndexSet`] had
    /// released, whose entries are stale from the start.
    indexes: Vec<(IndexId, Option<u64>)>,
    /// Per interned index: does the live database disagree with the build
    /// version? Set at build for released indexes and recomputed by
    /// [`AccessPlan::revalidate`]; otherwise fresh (correct when the plan
    /// was built against the execution database itself).
    stale: Vec<bool>,
}

impl AccessPlan {
    /// Resolve the index lookups of every transaction in `txns` whose
    /// procedure declares a plan callback, against `indexes`: the
    /// [`Database`] the bulk runs on or an [`IndexSet`] share.
    /// Transactions without a callback simply get no span and keep probing
    /// at execution time.
    pub fn build(
        registry: &crate::procedure::ProcedureRegistry,
        indexes: &impl AsRef<IndexSet>,
        txns: &[TxnSignature],
    ) -> AccessPlan {
        let indexes = indexes.as_ref();
        let mut plan = AccessPlan::default();
        let mut interned: FxHashMap<IndexId, u16> = FxHashMap::default();
        for sig in txns {
            let Some(plan_fn) = registry.get(sig.ty).plan_access.clone() else {
                continue;
            };
            let start = plan.entries.len() as u32;
            {
                let mut probe = PlanProbe {
                    indexes,
                    plan: &mut plan,
                    interned: &mut interned,
                };
                plan_fn(&sig.params, &mut probe);
            }
            let len = plan.entries.len() as u32 - start;
            plan.spans.insert(sig.id, (start, len));
        }
        plan.stale = plan.indexes.iter().map(|(_, v)| v.is_none()).collect();
        plan
    }

    /// True when no transaction contributed any pre-resolved lookup.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of pre-resolved lookups across the bulk.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Compare the recorded index versions with the live database and mark
    /// entries resolved through since-mutated or released indexes as stale
    /// (they will be re-probed at consume time). Call this when the plan was
    /// built against another [`IndexSet`], right before the bulk executes. Returns the number
    /// of stale indexes.
    pub fn revalidate(&mut self, db: &Database) -> usize {
        let mut stale_count = 0;
        for (i, (idx, version)) in self.indexes.iter().enumerate() {
            let is_stale = *version != Some(db.index_by_id(*idx).version());
            self.stale[i] = is_stale;
            stale_count += usize::from(is_stale);
        }
        stale_count
    }

    /// The consume-side cursor for one transaction; `None` when the
    /// transaction was not planned.
    pub fn cursor(&self, id: TxnId) -> Option<PlanCursor<'_>> {
        let &(start, len) = self.spans.get(&id)?;
        Some(PlanCursor {
            entries: &self.entries[start as usize..(start + len) as usize],
            rows: &self.rows,
            stale: &self.stale,
            next: 0,
            poisoned: false,
        })
    }
}

/// Resolver handed to a procedure's plan callback: performs the actual index
/// probes (once, off the execution thread) and records the results.
///
/// The callback must issue its lookups **in the order the procedure body
/// consumes them**. It may stop early (e.g. after a miss the body will abort
/// on); the body's remaining lookups then fall back to live probes, which is
/// always correct — see the module docs.
///
/// Keys may be derived only from the transaction's **parameters** and from
/// **earlier resolutions of this probe** (the `Option<RowId>` / `Vec<RowId>`
/// return values). The probe sees index contents only, never a field value:
/// field updates never bump an index version, so a plan built on them would
/// silently mis-resolve under the streaming engine's lagging index share.
///
/// A lookup through an index the [`IndexSet`] has released is recorded as a
/// stale entry without probing and answers as a miss; the consumer re-probes
/// it live.
pub struct PlanProbe<'a> {
    indexes: &'a IndexSet,
    plan: &'a mut AccessPlan,
    interned: &'a mut FxHashMap<IndexId, u16>,
}

impl<'a> PlanProbe<'a> {
    /// The index behind `idx` (`None` once released) and its interned slot.
    fn intern(&mut self, idx: IndexId) -> (Option<&'a HashIndex>, u16) {
        let index = self.indexes.get(idx);
        let slot = *self.interned.entry(idx).or_insert_with(|| {
            self.plan.indexes.push((idx, index.map(HashIndex::version)));
            (self.plan.indexes.len() - 1) as u16
        });
        (index, slot)
    }

    /// Resolve a unique-index lookup and record it.
    pub fn unique(&mut self, idx: IndexId, key: &IndexKey) -> Option<RowId> {
        let (index, idx_ref) = self.intern(idx);
        let row = index.and_then(|index| index.get_unique(key));
        self.plan.entries.push(PlanEntry::Unique { idx_ref, row });
        row
    }

    /// Resolve a non-unique lookup and record it; returns the matching rows
    /// (borrowed from the index — no per-lookup allocation at build time).
    pub fn multi(&mut self, idx: IndexId, key: &IndexKey) -> &'a [RowId] {
        let (index, idx_ref) = self.intern(idx);
        let rows: &'a [RowId] = index.map_or(&[], |index| index.get(key));
        let start = self.plan.rows.len() as u32;
        self.plan.rows.extend_from_slice(rows);
        self.plan.entries.push(PlanEntry::Multi {
            idx_ref,
            start,
            len: rows.len() as u32,
        });
        rows
    }
}

/// Outcome of consuming one planned unique lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlannedUnique {
    /// Use the pre-resolved row (or miss) as-is.
    Resolved(Option<RowId>),
    /// The entry is stale/exhausted/mismatched: probe the live index.
    Probe,
}

/// Outcome of consuming one planned multi lookup.
#[derive(Debug)]
pub(crate) enum PlannedMulti<'a> {
    /// Use the pre-resolved row span as-is.
    Resolved(&'a [RowId]),
    /// The entry is stale/exhausted/mismatched: probe the live index.
    Probe,
}

/// Cursor over one transaction's pre-resolved lookups, consumed in order by
/// the plan-backed [`TxnCtx`](crate::procedure::TxnCtx) lookup methods.
#[derive(Debug, Clone)]
pub struct PlanCursor<'a> {
    entries: &'a [PlanEntry],
    rows: &'a [RowId],
    stale: &'a [bool],
    next: usize,
    /// Set once any consumed entry had to fall back to a live probe: later
    /// planned results may depend on the re-probed value, so everything after
    /// it probes too.
    poisoned: bool,
}

impl<'a> PlanCursor<'a> {
    #[inline]
    fn take(&mut self) -> Option<PlanEntry> {
        if self.poisoned {
            return None;
        }
        let entry = self.entries.get(self.next).copied();
        if let Some(e) = &entry {
            if self.stale[e.idx_ref() as usize] {
                // Consume the entry (it corresponds to this lookup) but force
                // a live probe for it and everything after it.
                self.next += 1;
                self.poisoned = true;
                return None;
            }
        }
        entry.inspect(|_| self.next += 1)
    }

    #[inline]
    pub(crate) fn next_unique(&mut self) -> PlannedUnique {
        match self.take() {
            Some(PlanEntry::Unique { row, .. }) => PlannedUnique::Resolved(row),
            Some(PlanEntry::Multi { .. }) => {
                // Plan/body disagreement (a plan callback bug): abandon the
                // plan for the rest of this transaction.
                self.poisoned = true;
                PlannedUnique::Probe
            }
            None => PlannedUnique::Probe,
        }
    }

    #[inline]
    pub(crate) fn next_multi(&mut self) -> PlannedMulti<'a> {
        match self.take() {
            Some(PlanEntry::Multi { start, len, .. }) => {
                PlannedMulti::Resolved(&self.rows[start as usize..(start + len) as usize])
            }
            Some(PlanEntry::Unique { .. }) => {
                self.poisoned = true;
                PlannedMulti::Probe
            }
            None => PlannedMulti::Probe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::{ProcedureDef, ProcedureRegistry};
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataType, Value};

    fn setup() -> (Database, IndexId, u32) {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Double),
            ],
            vec![0],
        ));
        let pk = db.create_index(t, "pk", vec![0], true);
        for i in 0..8i64 {
            db.insert_indexed(t, vec![Value::Int(i), Value::Double(0.0)]);
        }
        (db, pk, t)
    }

    fn registry_with_plan(pk: IndexId) -> ProcedureRegistry {
        let mut reg = ProcedureRegistry::new();
        reg.register(
            ProcedureDef::new(
                "planned",
                |_p, _db| vec![],
                |p| Some(p[0].as_int() as u64),
                |_ctx| {},
            )
            .with_plan_access(move |p, probe| {
                probe.unique(pk, &IndexKey::single(p[0].as_int()));
            }),
        );
        reg.register(ProcedureDef::new(
            "unplanned",
            |_p, _db| vec![],
            |p| Some(p[0].as_int() as u64),
            |_ctx| {},
        ));
        reg
    }

    #[test]
    fn build_resolves_planned_transactions_only() {
        let (db, pk, _t) = setup();
        let reg = registry_with_plan(pk);
        let txns = vec![
            TxnSignature::new(0, 0, vec![Value::Int(3)]),
            TxnSignature::new(1, 1, vec![Value::Int(4)]),
            TxnSignature::new(2, 0, vec![Value::Int(99)]), // miss
        ];
        let plan = AccessPlan::build(&reg, &db, &txns);
        assert!(!plan.is_empty());
        assert_eq!(plan.num_entries(), 2);
        let mut c0 = plan.cursor(0).expect("planned");
        assert_eq!(c0.next_unique(), PlannedUnique::Resolved(Some(3)));
        assert_eq!(c0.next_unique(), PlannedUnique::Probe, "exhausted");
        assert!(plan.cursor(1).is_none(), "no plan callback");
        let mut c2 = plan.cursor(2).expect("planned");
        assert_eq!(c2.next_unique(), PlannedUnique::Resolved(None), "miss kept");
    }

    #[test]
    fn revalidate_marks_mutated_indexes_stale() {
        let (mut db, pk, _t) = setup();
        let reg = registry_with_plan(pk);
        let txns = vec![TxnSignature::new(0, 0, vec![Value::Int(3)])];
        let mut plan = AccessPlan::build(&reg, &db, &txns);
        assert_eq!(plan.revalidate(&db), 0, "fresh against the same database");
        let mut c = plan.cursor(0).unwrap();
        assert_eq!(c.next_unique(), PlannedUnique::Resolved(Some(3)));
        // Mutate the index (a later bulk applied inserts) and revalidate.
        db.insert_indexed(0, vec![Value::Int(100), Value::Double(0.0)]);
        assert_eq!(plan.revalidate(&db), 1);
        let mut c = plan.cursor(0).unwrap();
        assert_eq!(
            c.next_unique(),
            PlannedUnique::Probe,
            "stale entries must be re-probed"
        );
        assert_eq!(
            c.next_unique(),
            PlannedUnique::Probe,
            "everything after a stale entry probes too"
        );
    }

    #[test]
    fn released_index_yields_probe_and_poisons_the_cursor() {
        let (mut db, pk, t) = setup();
        let u = db.create_table(TableSchema::new(
            "u",
            vec![ColumnDef::new("id", DataType::Int)],
            vec![0],
        ));
        let u_pk = db.create_index(u, "pk", vec![0], true);
        db.insert_indexed(u, vec![Value::Int(0)]);
        let mut reg = ProcedureRegistry::new();
        reg.register(
            ProcedureDef::new("two", |_p, _| vec![], |_| None, |_ctx| {}).with_plan_access(
                move |p, probe| {
                    probe.unique(pk, &IndexKey::single(p[0].as_int()));
                    probe.unique(u_pk, &IndexKey::single(0i64));
                },
            ),
        );
        // A share of the indexes; the live database then writes `pk`.
        let mut planner = db.indexes().clone();
        db.insert_indexed(t, vec![Value::Int(100), Value::Double(0.0)]);
        assert_eq!(planner.release_unshared(), 1);
        let txns = vec![TxnSignature::new(0, 0, vec![Value::Int(3)])];
        let mut plan = AccessPlan::build(&reg, &planner, &txns);
        assert_eq!(plan.num_entries(), 2, "the released lookup is recorded");
        for revalidated in [false, true] {
            if revalidated {
                assert_eq!(plan.revalidate(&db), 1, "only the released index");
            }
            let mut c = plan.cursor(0).unwrap();
            assert_eq!(c.next_unique(), PlannedUnique::Probe, "released: probe");
            assert_eq!(
                c.next_unique(),
                PlannedUnique::Probe,
                "a fresh entry after it probes too"
            );
        }
    }

    #[test]
    fn kind_mismatch_poisons_the_cursor() {
        let (db, pk, _t) = setup();
        let reg = registry_with_plan(pk);
        let txns = vec![TxnSignature::new(0, 0, vec![Value::Int(1)])];
        let plan = AccessPlan::build(&reg, &db, &txns);
        let mut c = plan.cursor(0).unwrap();
        assert!(matches!(c.next_multi(), PlannedMulti::Probe));
        assert_eq!(c.next_unique(), PlannedUnique::Probe, "poisoned");
    }
}
