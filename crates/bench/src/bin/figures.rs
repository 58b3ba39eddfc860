//! Regenerate the tables and figures of the GPUTx paper (He & Yu, VLDB 2011).
//!
//! Usage:
//!
//! ```text
//! cargo run -p gputx-bench --release --bin figures -- <experiment> [...]
//! cargo run -p gputx-bench --release --bin figures -- all
//! ```
//!
//! Experiments: `fig3 fig4 fig5 fig6 fig7 cost fig8 fig9 fig12 fig13 fig14
//! fig15 fig16 fig17 adhoc storage all`. Each prints the same rows/series the
//! paper reports (scaled-down populations; see `docs/paper-map.md`). The
//! release output of `all` is pinned in `docs/paper-figures.txt`, and CI
//! fails on any difference from it.
//!
//! Two CI smokes are opt-in only (not part of `all`): `smoke` runs one tiny
//! TM1 bulk, and `hotpath` times plan-backed lookups against live index
//! probes. With `--json <path>` each writes its key metrics as a JSON file
//! that `scripts/check_artifact.py` checks. An unknown experiment name is an
//! error. Wall-clock throughput and latency of the engine behind its network
//! front door are measured by the `benchmark/` package, not here.

use gputx_bench::{
    adhoc_cpu_throughput, adhoc_gpu_throughput, cpu_workload_throughput, gpu_workload_throughput,
    run_gpu_bulk, TextTable,
};
use gputx_core::pipeline::{simulate_pipeline, IntervalSimConfig};
use gputx_core::relaxed::compare_strict_vs_relaxed;
use gputx_core::{Bulk, EngineConfig, StrategyKind};
use gputx_sim::{CpuSpec, SimDuration};
use gputx_storage::StorageLayout;
use gputx_workloads::{MicroConfig, MicroWorkload, Tm1Config, TpcbConfig, TpccConfig};

const STRATEGIES: [StrategyKind; 3] = [StrategyKind::Tpl, StrategyKind::Part, StrategyKind::Kset];

/// The paper experiments, in the order `all` runs them.
const PAPER: [(&str, fn()); 16] = [
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("cost", cost_efficiency),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("adhoc", adhoc),
    ("storage", storage_comparison),
];

/// A CI smoke, given the `--json` output path if any.
type Smoke = fn(Option<&str>);

/// The CI smokes: opt-in only, never part of `all`.
const SMOKES: [(&str, Smoke); 2] = [("smoke", smoke), ("hotpath", hotpath)];

/// A parsed command line.
#[derive(Debug)]
struct Args {
    /// Experiment names to run (`all` when none were given).
    wanted: Vec<String>,
    /// Where the smokes write their JSON metrics (`--json <path>`).
    json_path: Option<String>,
}

/// Parse the arguments after the program name. Every name must be a known
/// experiment or `all`; the error lists the valid ones.
fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut raw = raw.into_iter();
    let mut args = Args {
        wanted: Vec::new(),
        json_path: None,
    };
    while let Some(arg) = raw.next() {
        if arg == "--json" {
            args.json_path = Some(raw.next().ok_or("--json requires a file path")?);
        } else {
            args.wanted.push(arg);
        }
    }
    let known: Vec<&str> = PAPER
        .iter()
        .map(|(name, _)| *name)
        .chain(["all"])
        .chain(SMOKES.iter().map(|(name, _)| *name))
        .collect();
    if let Some(unknown) = args.wanted.iter().find(|w| !known.contains(&w.as_str())) {
        return Err(format!(
            "unknown experiment '{unknown}' (valid: {})",
            known.join(" ")
        ));
    }
    if args.wanted.is_empty() {
        args.wanted.push("all".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    let wants = |name: &str| args.wanted.iter().any(|w| w == name);
    for (name, experiment) in PAPER {
        if wants("all") || wants(name) {
            experiment();
        }
    }
    for (name, experiment) in SMOKES {
        if wants(name) {
            experiment(args.json_path.as_deref());
        }
    }
}

/// Hot-path experiment: one TM1 registry executing a 64k-transaction bulk
/// with its pre-resolved `AccessPlan` against the same registry with
/// `plan = None`, where every lookup probes the live index. Both runs execute
/// the identical transaction stream on identical databases through the same
/// serial executor and procedure bodies; only the plan differs. The plan is
/// built outside the timed window — in the streaming engine the gather step
/// runs on the grouping stage, overlapped with the previous bulk's execution
/// — and its build time is reported separately so the overlap assumption is
/// visible, not hidden.
fn hotpath(json_path: Option<&str>) {
    use gputx_exec::{ExecPolicy, Executor, SerialExecutor};
    use gputx_txn::AccessPlan;
    use std::time::Instant;

    banner("Hot path — plan-backed lookups vs live index probes (TM1)");
    const N_TXNS: usize = 65_536;
    const ROUNDS: usize = 3;

    let mut bundle = Tm1Config::default().build();
    let sigs = bundle.generate_signatures(N_TXNS, 0);
    let groups = gputx_bench::partition_groups(&bundle.registry, &sigs);

    // The gather step (timed separately, outside the execution windows).
    let build_start = Instant::now();
    let plan = AccessPlan::build(&bundle.registry, &bundle.db, &sigs);
    let plan_build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let policy = ExecPolicy::gpu(true);
    let time_ms = |plan: Option<&AccessPlan>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let mut db = bundle.db.clone();
            let start = Instant::now();
            SerialExecutor
                .run_groups(&mut db, &bundle.registry, &policy, &groups, plan)
                .expect("no procedure panics");
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let unplanned_ms = time_ms(None);
    let planned_ms = time_ms(Some(&plan));
    let speedup = unplanned_ms / planned_ms;
    println!(
        "HOTPATH-SPEEDUP tm1 serial {}k: {speedup:.2}x \
         (unplanned {unplanned_ms:.1} ms, planned {planned_ms:.1} ms, plan build {plan_build_ms:.1} ms)",
        N_TXNS / 1024,
    );

    let mut table = TextTable::new(&[
        "workload",
        "unplanned (ms)",
        "planned (ms)",
        "plan build (ms)",
        "speedup",
    ]);
    table.row(vec![
        "tm1".to_string(),
        format!("{unplanned_ms:.1}"),
        format!("{planned_ms:.1}"),
        format!("{plan_build_ms:.1}"),
        format!("{speedup:.2}x"),
    ]);
    println!("{}", table.render());

    // Hand-rolled JSON (the workspace serde is an offline shim).
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"hotpath\",\n  \"transactions\": {N_TXNS},\n  \
         \"tm1_unplanned_ms\": {unplanned_ms:.3},\n  \"tm1_planned_ms\": {planned_ms:.3},\n  \
         \"tm1_plan_build_ms\": {plan_build_ms:.3},\n  \"tm1_speedup\": {speedup:.4}\n}}\n",
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write hotpath JSON to {path}: {e}"));
            println!("hotpath metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

/// CI smoke: one tiny TM1 bulk through the full engine path, printed as a
/// table and optionally written as JSON (the first data point of a per-PR
/// performance trajectory). Also wall-clocks the serial vs parallel(4)
/// executor on the bulk's partition groups — the pure functional-execution
/// path, with the database clone kept outside the timed window so the metric
/// tracks the executor rather than constant setup cost.
fn smoke(json_path: Option<&str>) {
    use gputx_exec::{ExecPolicy, Executor, ParallelExecutor, SerialExecutor};

    banner("CI smoke — tiny TM1 bulk");
    let n_txns = 4_096;
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    let sigs = bundle.generate_signatures(n_txns, 0);
    let config = EngineConfig::default();
    let report = run_gpu_bulk(&bundle, sigs.clone(), StrategyKind::Kset, &config);

    let groups = gputx_bench::partition_groups(&bundle.registry, &sigs);
    let wall_ms = |executor: &dyn Executor| {
        let mut db = bundle.db.clone();
        let start = std::time::Instant::now();
        executor
            .run_groups(
                &mut db,
                &bundle.registry,
                &ExecPolicy::gpu(true),
                &groups,
                None,
            )
            .expect("no procedure panics");
        start.elapsed().as_secs_f64() * 1e3
    };
    let wall_serial_ms = wall_ms(&SerialExecutor);
    let wall_parallel4_ms = wall_ms(&ParallelExecutor::new(4));

    let mut table = TextTable::new(&[
        "txns",
        "committed",
        "aborted",
        "total (ms)",
        "ktps",
        "wall serial (ms)",
        "wall par-4 (ms)",
    ]);
    table.row(vec![
        n_txns.to_string(),
        report.committed.to_string(),
        report.aborted.to_string(),
        format!("{:.3}", report.total().as_millis()),
        format!("{:.0}", report.throughput().ktps()),
        format!("{wall_serial_ms:.1}"),
        format!("{wall_parallel4_ms:.1}"),
    ]);
    println!("{}", table.render());

    // Hand-rolled JSON: the workspace's serde is an offline shim, and the
    // payload is a flat record.
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"workload\": \"tm1\",\n  \"strategy\": \"{}\",\n  \
         \"transactions\": {},\n  \"committed\": {},\n  \"aborted\": {},\n  \
         \"generation_ms\": {:.6},\n  \"execution_ms\": {:.6},\n  \"transfer_ms\": {:.6},\n  \
         \"total_ms\": {:.6},\n  \"throughput_ktps\": {:.3},\n  \
         \"wall_serial_ms\": {wall_serial_ms:.3},\n  \"wall_parallel4_ms\": {wall_parallel4_ms:.3}\n}}\n",
        report.strategy,
        report.transactions,
        report.committed,
        report.aborted,
        report.generation.as_millis(),
        report.execution.as_millis(),
        report.transfer.as_millis(),
        report.total().as_millis(),
        report.throughput().ktps(),
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write smoke JSON to {path}: {e}"));
            println!("smoke metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Figure 3: throughput with/without type grouping, varying the number of
/// branches, for low (x=1) and high (x=16) computation cost.
fn fig3() {
    banner("Figure 3 — branch divergence: grouping vs no grouping");
    let n_txns = 32_768;
    let mut table = TextTable::new(&[
        "branches",
        "L no-group (ktps)",
        "L grouped (ktps)",
        "H no-group (ktps)",
        "H grouped (ktps)",
    ]);
    for branches in [1u32, 2, 4, 8, 16, 32, 64] {
        let mut cells = vec![branches.to_string()];
        for x in [1u32, 16] {
            for passes in [0u32, 8] {
                let cfg = MicroConfig::default()
                    .with_types(branches)
                    .with_compute(x)
                    .with_tuples(1 << 20);
                let mut bundle = MicroWorkload::build(&cfg);
                let sigs = bundle.generate_signatures(n_txns, 0);
                let engine_cfg = EngineConfig::default().with_grouping_passes(passes);
                let report = run_gpu_bulk(&bundle, sigs, StrategyKind::Kset, &engine_cfg);
                cells.push(format!("{:.0}", report.throughput().ktps()));
            }
        }
        // Reorder: branches, L-nogroup, L-group, H-nogroup, H-group.
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Figure 4: throughput of the three strategies as the bulk size varies.
fn fig4() {
    banner("Figure 4 — strategy throughput vs bulk size (1M tuples)");
    let cfg = MicroConfig::default().with_types(8).with_tuples(1 << 20);
    let mut table = TextTable::new(&["bulk size", "TPL (ktps)", "PART (ktps)", "K-SET (ktps)"]);
    for bulk_size in [4_096usize, 16_384, 65_536, 262_144] {
        let mut cells = vec![bulk_size.to_string()];
        for strategy in STRATEGIES {
            let mut bundle = MicroWorkload::build(&cfg);
            let sigs = bundle.generate_signatures(bulk_size, 0);
            let report = run_gpu_bulk(&bundle, sigs, strategy, &EngineConfig::default());
            cells.push(format!("{:.0}", report.throughput().ktps()));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Figure 5: time breakdown (bulk generation vs execution) per strategy.
fn fig5() {
    banner("Figure 5 — time breakdown: sort (generation) vs execution");
    let cfg = MicroConfig::default()
        .with_types(8)
        .with_compute(1)
        .with_tuples(1 << 18);
    let n_txns = 262_144;
    let mut table = TextTable::new(&["strategy", "sort %", "execution %", "total (ms)"]);
    for strategy in STRATEGIES {
        let mut bundle = MicroWorkload::build(&cfg);
        let sigs = bundle.generate_signatures(n_txns, 0);
        let report = run_gpu_bulk(&bundle, sigs, strategy, &EngineConfig::default());
        let total = report.total().as_millis();
        table.row(vec![
            strategy.to_string(),
            format!("{:.0}", 100.0 * report.generation.as_millis() / total),
            format!("{:.0}", 100.0 * report.execution.as_millis() / total),
            format!("{total:.1}"),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 6: strategy throughput as the lock-acquisition skew α varies.
///
/// This experiment is an *open* system (§6.2): transactions keep arriving
/// while the engine runs. TPL and PART naively pick everything in the pool as
/// a bulk, so a skewed workload hands them a deep T-dependency graph; K-SET
/// keeps extracting the 0-set of the pool, which stays large as fresh
/// transactions arrive, so its throughput is stable.
fn fig6() {
    banner("Figure 6 — strategy throughput vs workload skew (alpha)");
    let mut table = TextTable::new(&["alpha", "TPL (ktps)", "PART (ktps)", "K-SET (ktps)"]);
    let batch = 16_384usize;
    let rounds = 4usize;
    for alpha in [0.1f64, 0.3, 0.5, 0.7, 0.9] {
        let cfg = MicroConfig::default()
            .with_types(8)
            .with_compute(1)
            .with_tuples(1 << 16)
            .with_skew(alpha);
        let mut cells = vec![format!("{alpha:.1}")];
        for strategy in STRATEGIES {
            let mut bundle = MicroWorkload::build(&cfg);
            let mut db = bundle.db.clone();
            let mut gpu = gputx_sim::Gpu::new(EngineConfig::default().device.clone());
            let engine_cfg = EngineConfig::default();
            let mut pool: Vec<gputx_txn::TxnSignature> = Vec::new();
            let mut next_id = 0u64;
            let mut executed = 0u64;
            let mut elapsed = SimDuration::ZERO;
            for _ in 0..rounds {
                // New arrivals join the pool.
                let fresh = bundle.generate_signatures(batch, next_id);
                next_id += batch as u64;
                pool.extend(fresh);
                // TPL and PART take the whole pool; K-SET takes the 0-set only.
                let selected: Vec<gputx_txn::TxnSignature> = if strategy == StrategyKind::Kset {
                    let ops: Vec<_> = pool
                        .iter()
                        .map(|s| (s.id, bundle.registry.read_write_set(s, &db)))
                        .collect();
                    let zero: std::collections::HashSet<u64> = gputx_txn::kset::rank_ksets(&ops)
                        .zero_set()
                        .into_iter()
                        .collect();
                    let (take, keep): (Vec<_>, Vec<_>) =
                        pool.drain(..).partition(|s| zero.contains(&s.id));
                    pool = keep;
                    take
                } else {
                    std::mem::take(&mut pool)
                };
                let count = selected.len() as u64;
                let mut ctx = gputx_core::ExecContext {
                    gpu: &mut gpu,
                    db: &mut db,
                    registry: &bundle.registry,
                    config: &engine_cfg,
                };
                let out = gputx_core::execute_bulk(&mut ctx, strategy, &Bulk::new(selected));
                executed += count;
                elapsed += out.total();
            }
            let tput = gputx_sim::Throughput::from_count(executed, elapsed);
            cells.push(format!("{:.0}", tput.ktps()));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

fn public_workloads(scale: u64) -> Vec<(&'static str, gputx_workloads::WorkloadBundle)> {
    vec![
        (
            "TM-1",
            Tm1Config {
                scale_factor: scale,
            }
            .build(),
        ),
        (
            "TPC-B",
            TpcbConfig {
                scale_factor: scale * 256,
            }
            .build(),
        ),
        (
            "TPC-C",
            TpccConfig::default().with_warehouses(scale * 16).build(),
        ),
    ]
}

/// Figure 7: normalized throughput of the public benchmarks.
fn fig7() {
    banner("Figure 7 — normalized throughput on public benchmarks (vs 1 CPU core)");
    let n_txns = 30_000;
    let mut table = TextTable::new(&[
        "benchmark",
        "scale",
        "GPU 1-core",
        "CPU 1-core",
        "CPU 4-core",
        "GPUTx",
        "GPUTx ktps",
    ]);
    for scale in [1u64, 2, 4] {
        for (name, mut bundle) in public_workloads(scale) {
            let cpu1 = adhoc_cpu_throughput(&mut bundle, n_txns);
            let gpu1 = adhoc_gpu_throughput(&mut bundle, n_txns);
            let cpu4 = cpu_workload_throughput(&mut bundle, n_txns, &CpuSpec::xeon_e5520());
            let gputx = gpu_workload_throughput(
                &mut bundle,
                n_txns,
                &EngineConfig::default().with_bulk_size(n_txns),
            );
            table.row(vec![
                name.to_string(),
                scale.to_string(),
                format!("{:.2}", gpu1.normalized_to(cpu1)),
                "1.00".to_string(),
                format!("{:.2}", cpu4.normalized_to(cpu1)),
                format!("{:.2}", gputx.normalized_to(cpu1)),
                format!("{:.0}", gputx.ktps()),
            ]);
        }
    }
    println!("{}", table.render());
}

/// The §6.3 cost-efficiency comparison (throughput per dollar).
fn cost_efficiency() {
    banner("Cost efficiency — throughput per dollar (GPU $1699 vs CPU $649)");
    let n_txns = 30_000;
    let mut table = TextTable::new(&[
        "benchmark",
        "GPUTx tps/$",
        "CPU 4-core tps/$",
        "GPUTx advantage",
    ]);
    for (name, mut bundle) in public_workloads(2) {
        let gputx = gpu_workload_throughput(
            &mut bundle,
            n_txns,
            &EngineConfig::default().with_bulk_size(n_txns),
        );
        let cpu4 = cpu_workload_throughput(&mut bundle, n_txns, &CpuSpec::xeon_e5520());
        let gpu_eff = gputx.tps() / 1699.0;
        let cpu_eff = cpu4.tps() / 649.0;
        table.row(vec![
            name.to_string(),
            format!("{gpu_eff:.1}"),
            format!("{cpu_eff:.1}"),
            format!("{:+.0}%", 100.0 * (gpu_eff / cpu_eff - 1.0)),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 8: strategy throughput on TM-1 varying the scale factor.
fn fig8() {
    banner("Figure 8 — strategy throughput on TM-1 vs scale factor");
    let n_txns = 30_000;
    let mut table = TextTable::new(&["scale factor", "TPL (ktps)", "PART (ktps)", "K-SET (ktps)"]);
    for sf in [1u64, 2, 4, 8] {
        let mut cells = vec![sf.to_string()];
        for strategy in STRATEGIES {
            let mut bundle = Tm1Config { scale_factor: sf }.build();
            let sigs = bundle.generate_signatures(n_txns, 0);
            let report = run_gpu_bulk(&bundle, sigs, strategy, &EngineConfig::default());
            cells.push(format!("{:.0}", report.throughput().ktps()));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Figure 9: response time vs throughput on TM-1.
fn fig9() {
    banner("Figure 9 — response time vs throughput (TM-1, 1M tps arrivals)");
    let mut table = TextTable::new(&["interval (ms)", "avg response (ms)", "throughput (ktps)"]);
    for interval_ms in [1.0f64, 5.0, 20.0, 50.0, 100.0] {
        let mut bundle = Tm1Config { scale_factor: 4 }.build();
        let mut db = bundle.db.clone();
        let registry = bundle.registry.clone();
        let pipeline = IntervalSimConfig {
            arrival_rate_tps: 1_000_000.0,
            interval: SimDuration::from_millis(interval_ms),
            horizon: SimDuration::from_millis(100.0),
        };
        let report = simulate_pipeline(
            &mut db,
            &registry,
            &EngineConfig::default(),
            StrategyKind::Kset,
            &pipeline,
            |_| bundle.next_txn(),
        );
        table.row(vec![
            format!("{interval_ms:.0}"),
            format!("{:.1}", report.avg_response.as_millis()),
            format!("{:.0}", report.throughput.ktps()),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 12: grouping vs execution time as the number of grouping passes
/// (partitions) grows.
fn fig12() {
    banner("Figure 12 — grouping vs execution time (x=32, T=16)");
    let cfg = MicroConfig::default()
        .with_types(16)
        .with_compute(32)
        .with_tuples(1 << 18);
    let n_txns = 65_536;
    let mut table = TextTable::new(&[
        "passes",
        "groups",
        "grouping (ms)",
        "execution (ms)",
        "total (ms)",
    ]);
    for passes in 0..=4u32 {
        let mut bundle = MicroWorkload::build(&cfg);
        let sigs = bundle.generate_signatures(n_txns, 0);
        let engine_cfg = EngineConfig::default().with_grouping_passes(passes);
        let report = run_gpu_bulk(&bundle, sigs, StrategyKind::Kset, &engine_cfg);
        // Generation here is k-set computation + grouping; isolate grouping by
        // subtracting the passes=0 generation measured on the first row.
        table.row(vec![
            passes.to_string(),
            (1u32 << passes).to_string(),
            format!("{:.2}", report.generation.as_millis()),
            format!("{:.2}", report.execution.as_millis()),
            format!("{:.2}", report.total().as_millis()),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 13: PART throughput varying the partition size.
fn fig13() {
    banner("Figure 13 — PART throughput vs partition size (x=16)");
    let cfg = MicroConfig::default()
        .with_types(8)
        .with_compute(16)
        .with_tuples(1 << 16);
    let n_txns = 65_536;
    let mut table = TextTable::new(&["partition size", "throughput (ktps)"]);
    for partition_size in [1u64, 8, 32, 128, 512, 2048, 8192] {
        let mut bundle = MicroWorkload::build(&cfg);
        let sigs = bundle.generate_signatures(n_txns, 0);
        let engine_cfg = EngineConfig::default().with_partition_size(partition_size);
        let report = run_gpu_bulk(&bundle, sigs, StrategyKind::Part, &engine_cfg);
        table.row(vec![
            partition_size.to_string(),
            format!("{:.0}", report.throughput().ktps()),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 14: strategy throughput varying the relation cardinality.
fn fig14() {
    banner("Figure 14 — strategy throughput vs number of tuples (64K txns)");
    let n_txns = 65_536;
    let mut table = TextTable::new(&["tuples", "TPL (ktps)", "PART (ktps)", "K-SET (ktps)"]);
    for tuples in [1u64 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20] {
        let cfg = MicroConfig::default()
            .with_types(8)
            .with_compute(1)
            .with_tuples(tuples);
        let mut cells = vec![tuples.to_string()];
        for strategy in STRATEGIES {
            let mut bundle = MicroWorkload::build(&cfg);
            let sigs = bundle.generate_signatures(n_txns, 0);
            let report = run_gpu_bulk(&bundle, sigs, strategy, &EngineConfig::default());
            cells.push(format!("{:.0}", report.throughput().ktps()));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Figure 15: response time vs throughput on the micro benchmark.
fn fig15() {
    banner("Figure 15 — response time vs throughput (micro, 4M tps arrivals)");
    let mut table = TextTable::new(&[
        "interval (ms)",
        "TPL resp (ms) / ktps",
        "PART resp (ms) / ktps",
        "K-SET resp (ms) / ktps",
    ]);
    for interval_ms in [1.0f64, 10.0, 50.0, 200.0] {
        let mut cells = vec![format!("{interval_ms:.0}")];
        for strategy in STRATEGIES {
            let cfg = MicroConfig::default()
                .with_types(8)
                .with_compute(1)
                .with_tuples(1 << 16);
            let mut bundle = MicroWorkload::build(&cfg);
            let mut db = bundle.db.clone();
            let registry = bundle.registry.clone();
            let pipeline = IntervalSimConfig {
                arrival_rate_tps: 4_000_000.0,
                interval: SimDuration::from_millis(interval_ms),
                horizon: SimDuration::from_millis(25.0),
            };
            let report = simulate_pipeline(
                &mut db,
                &registry,
                &EngineConfig::default(),
                strategy,
                &pipeline,
                |_| bundle.next_txn(),
            );
            cells.push(format!(
                "{:.0} / {:.0}",
                report.avg_response.as_millis(),
                report.throughput.ktps()
            ));
        }
        table.row(cells);
    }
    println!("{}", table.render());
}

/// Figure 16: memory transfer cost between GPU memory and main memory on TM-1.
fn fig16() {
    banner("Figure 16 — PCIe transfer cost on TM-1 (initialization / input / output)");
    let mut bundle = Tm1Config { scale_factor: 4 }.build();
    let mut engine = gputx_core::EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_bulk_size(16_384)
        .build();
    for (ty, params) in bundle.generate(65_536) {
        engine.submit(ty, params);
    }
    engine.run_until_empty();
    let stats = engine.gpu().stats();
    let init = engine.load_time();
    let exec: SimDuration = engine.reports().iter().map(|r| r.total()).sum();
    let input = stats.h2d_time - init;
    let output = stats.d2h_time;
    let mut table = TextTable::new(&["component", "time (ms)", "% of bulk execution time"]);
    table.row(vec![
        "initialization (once)".into(),
        format!("{:.2}", init.as_millis()),
        "-".into(),
    ]);
    table.row(vec![
        "input (bulk parameters)".into(),
        format!("{:.2}", input.as_millis()),
        format!("{:.1}%", 100.0 * input.as_secs() / exec.as_secs()),
    ]);
    table.row(vec![
        "output (results)".into(),
        format!("{:.2}", output.as_millis()),
        format!("{:.1}%", 100.0 * output.as_secs() / exec.as_secs()),
    ]);
    println!("{}", table.render());
}

/// Figure 17: time breakdown without the timestamp constraint (Appendix G).
fn fig17() {
    banner("Figure 17 — time breakdown with relaxed timestamp constraint");
    let cfg = MicroConfig::default()
        .with_types(8)
        .with_compute(1)
        .with_tuples(1 << 18);
    let n_txns = 262_144;
    let mut table = TextTable::new(&[
        "strategy",
        "strict gen (ms)",
        "strict exec (ms)",
        "relaxed gen (ms)",
        "relaxed exec (ms)",
    ]);
    for strategy in STRATEGIES {
        let mut bundle = MicroWorkload::build(&cfg);
        let sigs = bundle.generate_signatures(n_txns, 0);
        let (strict, relaxed) = compare_strict_vs_relaxed(
            &bundle.db,
            &bundle.registry,
            &EngineConfig::default(),
            strategy,
            &Bulk::new(sigs),
        );
        table.row(vec![
            strategy.to_string(),
            format!("{:.2}", strict.generation.as_millis()),
            format!("{:.2}", strict.execution.as_millis()),
            format!("{:.2}", relaxed.generation.as_millis()),
            format!("{:.2}", relaxed.execution.as_millis()),
        ]);
    }
    println!("{}", table.render());
}

/// Bulk execution vs ad-hoc execution (the 16–146× claim) and GPU-core vs
/// CPU-core (the 25–50 % observation).
fn adhoc() {
    banner("Bulk vs ad-hoc execution, and single-core comparison");
    let n_txns = 20_000;
    let mut table = TextTable::new(&[
        "benchmark",
        "ad-hoc GPU core (ktps)",
        "GPUTx bulk (ktps)",
        "bulk / ad-hoc",
        "GPU core vs CPU core",
    ]);
    for (name, mut bundle) in public_workloads(1) {
        let adhoc_gpu = adhoc_gpu_throughput(&mut bundle, n_txns);
        let adhoc_cpu = adhoc_cpu_throughput(&mut bundle, n_txns);
        let bulk = gpu_workload_throughput(
            &mut bundle,
            n_txns,
            &EngineConfig::default().with_bulk_size(n_txns),
        );
        table.row(vec![
            name.to_string(),
            format!("{:.1}", adhoc_gpu.ktps()),
            format!("{:.0}", bulk.ktps()),
            format!("{:.0}x", bulk.tps() / adhoc_gpu.tps()),
            format!("{:.0}%", 100.0 * adhoc_gpu.tps() / adhoc_cpu.tps()),
        ]);
    }
    println!("{}", table.render());
}

/// Column- vs row-based storage (Appendix F.2).
fn storage_comparison() {
    banner("Column vs row storage on TM-1 (memory footprint and throughput)");
    let n_txns = 30_000;
    let mut table = TextTable::new(&["layout", "device MB", "throughput (ktps)"]);
    for layout in [StorageLayout::Column, StorageLayout::Row] {
        let mut bundle = Tm1Config { scale_factor: 4 }.build();
        if layout == StorageLayout::Row {
            // Rebuild the same logical content (rows + indexes) row-wise.
            bundle.db = bundle.db.rebuilt_with_layout(StorageLayout::Row);
        }
        let device_mb = bundle.db.device_bytes() as f64 / (1024.0 * 1024.0);
        let throughput = gpu_workload_throughput(
            &mut bundle,
            n_txns,
            &EngineConfig::default().with_bulk_size(n_txns),
        );
        table.row(vec![
            format!("{layout:?}"),
            format!("{device_mb:.1}"),
            format!("{:.0}", throughput.ktps()),
        ]);
    }
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_names_parse_and_no_names_means_all() {
        let args = parse(&["fig4", "--json", "out.json", "smoke"]).expect("valid");
        assert_eq!(args.wanted, ["fig4", "smoke"]);
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
        assert_eq!(parse(&[]).expect("valid").wanted, ["all"]);
    }

    #[test]
    fn unknown_name_is_rejected_with_the_valid_list() {
        let err = parse(&["fig4", "net"]).expect_err("net is not an experiment");
        assert!(err.contains("'net'"), "{err}");
        assert!(err.contains("fig17") && err.contains("hotpath"), "{err}");
    }

    #[test]
    fn json_without_a_path_is_rejected() {
        let err = parse(&["smoke", "--json"]).expect_err("missing path");
        assert!(err.contains("--json"), "{err}");
    }
}
