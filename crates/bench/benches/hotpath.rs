//! Gather/scatter hot path: one TM1 registry run with its access plan against
//! the same registry run without one.
//!
//! Both sides execute the identical transaction stream on identical databases
//! through the same serial executor and the same procedure bodies; the only
//! difference is the [`AccessPlan`]:
//!
//! * **unplanned** — every `lookup_*_by` builds its key and probes the live
//!   hash index during execution;
//! * **planned** — index keys pre-resolved during grouping, zero hash
//!   lookups during execution.
//!
//! The plan build (the gather step) is benchmarked separately: in the
//! streaming engine it runs on the grouping stage, overlapped with the
//! previous bulk's execution, so it is not part of the execution-path cost.
//!
//! The headline numbers live in `figures -- hotpath` (64k bulks, database
//! clone excluded from the timed window, prints a `HOTPATH-SPEEDUP` line);
//! this criterion harness tracks the same paths at a smaller size suitable
//! for repeated sampling, with the clone *included* in each iteration (so
//! absolute ratios here understate the execution-path speedup). Run with:
//!
//! ```text
//! cargo bench --bench hotpath
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gputx_exec::{ExecPolicy, Executor, SerialExecutor};
use gputx_txn::AccessPlan;
use gputx_workloads::Tm1Config;

const BULK: usize = 8_192;

fn bench_hotpath(c: &mut Criterion) {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    let sigs = bundle.generate_signatures(BULK, 0);
    let plan = AccessPlan::build(&bundle.registry, &bundle.db, &sigs);
    let groups = gputx_bench::partition_groups(&bundle.registry, &sigs);
    let policy = ExecPolicy::gpu(true);

    let mut group = c.benchmark_group("hotpath_serial");
    for (label, plan) in [("unplanned", None), ("planned", Some(&plan))] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut db = bundle.db.clone();
                let out = SerialExecutor
                    .run_groups(&mut db, &bundle.registry, &policy, &groups, plan)
                    .expect("no procedure panics");
                black_box(out.len())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("hotpath_plan_build");
    group.bench_function("tm1", |b| {
        b.iter(|| {
            let plan = AccessPlan::build(&bundle.registry, &bundle.db, &sigs);
            black_box(plan.num_entries())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
