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
//! paper reports (scaled-down populations; see `docs/paper-map.md`).
//!
//! The extra `smoke` experiment (not part of `all`) runs a tiny TM1 bulk for
//! CI: it prints the usual table and, with `--json <path>`, writes the key
//! metrics as a JSON file the CI workflow uploads as a perf-trajectory
//! artifact. The extra `pipeline` experiment (also not part of `all`) drives
//! a tiny TM1 stream through the streaming pipelined engine and reports
//! throughput, p50/p99 ticket latency and per-stage occupancy, likewise as an
//! optional JSON artifact. The extra `durability` experiment measures the
//! WAL overhead of bulk-granular redo logging (logged vs. unlogged tps under
//! each fsync policy) and proves crash recovery reproduces the live state.
//! The extra `net` experiment drives the pipelined engine through the real
//! network front door (gputx-server over loopback TCP, several closed-loop
//! client connections) and reports per-transaction-type commit/error counts
//! and latency percentiles; `net-soak` is its CI hardening twin — more
//! connections, longer run, hard-failing on any lost or duplicated ticket
//! resolution. The extra `replication` experiment measures primary
//! throughput at 0/1/2 attached followers plus the follower apply-lag
//! percentiles, asserting every follower converges bit-identically. The
//! extra `htap` experiment drives TM1/TPC-B ingest through the pipelined
//! engine while scanner threads cut bulk-boundary snapshots and run
//! aggregate scans concurrently, hard-asserting every scan result equals
//! the same scan replayed serially against the frozen committed prefix —
//! plus a replica-offload pass running the same scans on a follower. The
//! extra `chaos` experiment runs seeded full-stack fault storms (WAL
//! append/fsync faults, client-wire drop/corrupt/delay/reset, follower
//! stall/kill) against the self-healing stack — reconnecting client,
//! supervised replica, WAL heal — hard-asserting convergence before
//! emitting the counters as a JSON artifact. The extra `tpcc` experiment
//! drives the weighted TPC-C standard mix through the network front door
//! against an adaptive pipelined engine and reports tpm-C (NewOrder commits
//! per minute), then drives the hot-key ledger through the adaptive
//! one-shot engine and reports the per-strategy decision histogram, which
//! must be non-degenerate (the phases force K-SET ↔ TPL switching).

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

fn main() {
    let mut json_path: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if arg == "--json" {
            json_path = Some(raw.next().expect("--json requires a file path"));
        } else {
            args.push(arg);
        }
    }
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let all = wanted.contains(&"all");
    let run = |name: &str| all || wanted.contains(&name);

    if run("fig3") {
        fig3();
    }
    if run("fig4") {
        fig4();
    }
    if run("fig5") {
        fig5();
    }
    if run("fig6") {
        fig6();
    }
    if run("fig7") {
        fig7();
    }
    if run("cost") {
        cost_efficiency();
    }
    if run("fig8") {
        fig8();
    }
    if run("fig9") {
        fig9();
    }
    if run("fig12") {
        fig12();
    }
    if run("fig13") {
        fig13();
    }
    if run("fig14") {
        fig14();
    }
    if run("fig15") {
        fig15();
    }
    if run("fig16") {
        fig16();
    }
    if run("fig17") {
        fig17();
    }
    if run("adhoc") {
        adhoc();
    }
    if run("storage") {
        storage_comparison();
    }
    // The CI smokes are opt-in only; `all` regenerates the paper figures.
    if wanted.contains(&"smoke") {
        smoke(json_path.as_deref());
    }
    if wanted.contains(&"pipeline") {
        pipeline_smoke(json_path.as_deref());
    }
    if wanted.contains(&"hotpath") {
        hotpath(json_path.as_deref());
    }
    if wanted.contains(&"durability") {
        durability(json_path.as_deref());
    }
    if wanted.contains(&"net") {
        net(json_path.as_deref());
    }
    if wanted.contains(&"net-soak") {
        net_soak();
    }
    if wanted.contains(&"replication") {
        replication(json_path.as_deref());
    }
    if wanted.contains(&"htap") {
        htap(json_path.as_deref());
    }
    if wanted.contains(&"chaos") {
        chaos(json_path.as_deref());
    }
    if wanted.contains(&"tpcc") {
        tpcc(json_path.as_deref());
    }
}

/// Per-connection closed-loop window that keeps two bulks' worth of requests
/// in flight across all connections. With less than one bulk in flight no
/// bulk can ever fill, every bulk closes on the `max_wait` timer, and the
/// run measures the timer instead of the engine.
fn two_bulks_in_flight(max_bulk: usize, connections: usize) -> usize {
    (2 * max_bulk).div_ceil(connections)
}

/// Shared setup for the network experiments: a TM1-backed pipelined engine
/// behind a real TCP listener on loopback, plus pre-drawn per-connection
/// transaction streams and type names for the client-side bench harness.
fn net_run(
    connections: usize,
    measure: std::time::Duration,
    max_bulk: usize,
) -> (
    gputx_client::bench_run::BenchReport,
    gputx_server::ServerStats,
) {
    use gputx_client::bench_run::{run_bench, BenchConfig, BenchMode};
    use gputx_client::Client;
    use gputx_core::config::StrategyChoice;
    use gputx_core::EngineBuilder;
    use gputx_server::Server;
    use gputx_txn::TxnTypeId;

    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    let type_names: Vec<String> = (0..bundle.registry.num_types())
        .map(|t| bundle.registry.get(t as TxnTypeId).name.clone())
        .collect();
    let streams: Vec<_> = (0..connections).map(|_| bundle.generate(2_048)).collect();
    let engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(max_bulk)
        .with_max_wait_us(2_000)
        .build_pipelined();
    let server = Server::new(engine.handle());
    let addr = server
        .listen("127.0.0.1:0")
        .expect("bind a loopback listener");
    let report = run_bench(
        &BenchConfig {
            connections,
            mode: BenchMode::Closed,
            warmup: std::time::Duration::from_millis(200),
            measure,
            max_in_flight: two_bulks_in_flight(max_bulk, connections),
        },
        &type_names,
        &streams,
        &|_| Client::connect(addr),
    )
    .expect("connect to the loopback server");
    server.stop();
    let stats = server.stats();
    engine
        .finish()
        .expect("pipeline stages must stay healthy under network load");
    (report, stats)
}

/// Network throughput experiment: several closed-loop client connections
/// drive TM1 through the wire protocol over loopback TCP; reports
/// per-transaction-type commit/error counts and latency percentiles plus a
/// tpm-style weighted summary. CI bench-smoke runs this and schema-checks
/// the JSON artifact.
fn net(json_path: Option<&str>) {
    banner("Network — closed-loop TM1 over loopback TCP (gputx-server)");
    let connections = 4;
    let (report, stats) = net_run(connections, std::time::Duration::from_millis(1_500), 512);

    let mut table = TextTable::new(&[
        "type",
        "committed",
        "aborted",
        "shed",
        "errors",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
    ]);
    let ms = |v: Option<u64>| match v {
        Some(us) => format!("{:.3}", us as f64 / 1e3),
        None => "-".to_string(),
    };
    for t in &report.per_type {
        table.row(vec![
            t.name.clone(),
            t.committed.to_string(),
            t.aborted.to_string(),
            t.queue_full.to_string(),
            t.errors.to_string(),
            ms(t.latency_percentile_us(50.0)),
            ms(t.latency_percentile_us(95.0)),
            ms(t.latency_percentile_us(99.0)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "NET-THROUGHPUT: {:.0} tps ({:.0} tpm) over {} connections; \
         {} submitted / {} resolved / {} unmatched; server saw {} requests",
        report.throughput_tps(),
        report.tpm(),
        report.connections,
        report.submitted_total,
        report.resolved_total,
        report.unmatched_total,
        stats.requests,
    );
    assert!(
        report.is_lossless(),
        "every submitted request must resolve exactly once"
    );

    // Hand-rolled JSON (the workspace serde is an offline shim); per-type
    // rows become a list of flat objects.
    let per_type_json: Vec<String> = report
        .per_type
        .iter()
        .map(|t| {
            let us = |v: Option<u64>| v.unwrap_or(0);
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"committed\": {},\n      \
                 \"aborted\": {},\n      \"queue_full\": {},\n      \"bulk_failed\": {},\n      \
                 \"errors\": {},\n      \"p50_us\": {},\n      \"p95_us\": {},\n      \
                 \"p99_us\": {}\n    }}",
                t.name,
                t.committed,
                t.aborted,
                t.queue_full,
                t.bulk_failed,
                t.errors,
                us(t.latency_percentile_us(50.0)),
                us(t.latency_percentile_us(95.0)),
                us(t.latency_percentile_us(99.0)),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"net\",\n  \"workload\": \"tm1\",\n  \
         \"mode\": \"closed\",\n  \"connections\": {},\n  \"elapsed_secs\": {:.3},\n  \
         \"committed\": {},\n  \"throughput_tps\": {:.3},\n  \"tpm\": {:.3},\n  \
         \"submitted_total\": {},\n  \"resolved_total\": {},\n  \"unmatched_total\": {},\n  \
         \"per_type\": [\n{}\n  ]\n}}\n",
        report.connections,
        report.elapsed_secs,
        report.committed(),
        report.throughput_tps(),
        report.tpm(),
        report.submitted_total,
        report.resolved_total,
        report.unmatched_total,
        per_type_json.join(",\n"),
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write net JSON to {path}: {e}"));
            println!("net metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

/// Network soak for CI: 8 closed-loop connections over loopback TCP for a
/// few seconds, hard-failing on any lost or duplicated ticket resolution
/// (submitted != resolved, or any response that matched no request).
fn net_soak() {
    banner("Network soak — 8 closed-loop connections over loopback TCP");
    let (report, stats) = net_run(8, std::time::Duration::from_millis(2_500), 512);
    println!(
        "soak: {} submitted / {} resolved / {} unmatched across {} connections \
         ({:.0} tps committed); server: {} requests, {} responses, {} protocol errors",
        report.submitted_total,
        report.resolved_total,
        report.unmatched_total,
        report.connections,
        report.throughput_tps(),
        stats.requests,
        stats.responses,
        stats.protocol_errors,
    );
    assert_eq!(
        report.submitted_total, report.resolved_total,
        "soak lost or duplicated a ticket resolution"
    );
    assert_eq!(report.unmatched_total, 0, "soak saw an unmatched response");
    assert_eq!(stats.protocol_errors, 0, "soak hit protocol errors");
    assert!(report.committed() > 0, "soak must commit transactions");
    println!(
        "NET-SOAK: OK (lossless under {} connections)",
        report.connections
    );
}

/// TPC-C experiment: the weighted standard mix (45 % NewOrder, 43 % Payment,
/// 4 % each OrderStatus/Delivery/StockLevel) driven by closed-loop clients
/// over loopback TCP against an adaptive pipelined engine, summarized as
/// tpm-C — the spec's metric, counting only NewOrder commits per minute —
/// followed by the hot-key ledger driven through the adaptive one-shot
/// engine with bulks aligned to its phases, whose per-strategy decision
/// histogram must be non-degenerate (uniform phases pick K-SET, hot-chain
/// phases pick TPL). CI bench-smoke runs this and schema-checks the JSON.
fn tpcc(json_path: Option<&str>) {
    use gputx_client::bench_run::{run_bench, BenchConfig, BenchMode};
    use gputx_client::Client;
    use gputx_core::EngineBuilder;
    use gputx_server::Server;
    use gputx_txn::TxnTypeId;
    use gputx_workloads::LedgerConfig;

    banner("TPC-C — standard mix over loopback TCP, adaptive engine (tpm-C)");
    let warehouses = 2u64;
    let connections = 2usize;
    let max_bulk = 256usize;
    let mut bundle = TpccConfig::default().with_warehouses(warehouses).build();
    let type_names: Vec<String> = (0..bundle.registry.num_types())
        .map(|t| bundle.registry.get(t as TxnTypeId).name.clone())
        .collect();
    let streams: Vec<_> = (0..connections).map(|_| bundle.generate(4_096)).collect();
    let engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .adaptive()
        .with_max_bulk_size(max_bulk)
        .with_max_wait_us(2_000)
        .build_pipelined();
    let server = Server::new(engine.handle());
    let addr = server
        .listen("127.0.0.1:0")
        .expect("bind a loopback listener");
    let report = run_bench(
        &BenchConfig {
            connections,
            mode: BenchMode::Closed,
            warmup: std::time::Duration::from_millis(200),
            measure: std::time::Duration::from_millis(1_500),
            max_in_flight: two_bulks_in_flight(max_bulk, connections),
        },
        &type_names,
        &streams,
        &|_| Client::connect(addr),
    )
    .expect("connect to the loopback server");
    server.stop();
    let wire_decisions = engine
        .decision_stats()
        .expect("the adaptive pipelined engine records decisions");
    engine
        .finish()
        .expect("pipeline stages must stay healthy under the TPC-C mix");

    // Executed-mix table: commit/abort counts per type plus each type's
    // share of the executed (committed + aborted) transactions.
    let executed_total: u64 = report
        .per_type
        .iter()
        .map(|t| t.committed + t.aborted)
        .sum();
    let share = |t: &gputx_client::bench_run::TypeStats| {
        if executed_total == 0 {
            0.0
        } else {
            (t.committed + t.aborted) as f64 * 100.0 / executed_total as f64
        }
    };
    let mut table = TextTable::new(&["type", "committed", "aborted", "mix share (%)"]);
    for t in &report.per_type {
        table.row(vec![
            t.name.clone(),
            t.committed.to_string(),
            t.aborted.to_string(),
            format!("{:.1}", share(t)),
        ]);
    }
    println!("{}", table.render());
    let tpm_c = report.tpm_of("NEW_ORDER");
    println!(
        "TPCC-TPMC: {tpm_c:.0} tpm-C ({:.0} tpm all types, {:.0} tps) over {} connections, \
         {} warehouses; adaptive made {} bulk decisions on the wire path",
        report.tpm(),
        report.throughput_tps(),
        report.connections,
        warehouses,
        wire_decisions.total(),
    );
    assert!(
        report.is_lossless(),
        "every submitted request must resolve exactly once"
    );
    assert!(tpm_c > 0.0, "a TPC-C run must commit NewOrders");

    // The ledger pass: deterministic phase-aligned bulks through the
    // adaptive one-shot engine, so the decision histogram provably needs
    // both K-SET (uniform phases) and TPL (hot-chain phases).
    let mut ledger = LedgerConfig::default().build();
    let mut ledger_engine = EngineBuilder::new(ledger.db.clone(), ledger.registry.clone())
        .adaptive()
        .with_bulk_size(256)
        .build();
    let ledger_n = 2_048usize;
    for (ty, params) in ledger.generate(ledger_n) {
        ledger_engine.submit(ty, params);
    }
    ledger_engine.run_until_empty();
    let ledger_committed = ledger_engine.total_committed();
    let stats = ledger_engine
        .decision_stats()
        .expect("the adaptive one-shot engine records decisions");
    let strategies_used = stats.histogram().iter().filter(|(_, n)| *n > 0).count();
    println!(
        "TPCC-LEDGER: {} bulks — kset {}, part {}, tpl {}, {} switches \
         ({} strategies used, {} of {} committed)",
        stats.total(),
        stats.kset,
        stats.part,
        stats.tpl,
        stats.switches,
        strategies_used,
        ledger_committed,
        ledger_n,
    );
    assert!(
        stats.non_degenerate(),
        "the ledger's phases must force at least two strategies: {stats:?}"
    );

    let per_type_json: Vec<String> = report
        .per_type
        .iter()
        .map(|t| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"committed\": {},\n      \
                 \"aborted\": {},\n      \"share\": {:.3}\n    }}",
                t.name,
                t.committed,
                t.aborted,
                share(t),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"tpcc\",\n  \"workload\": \"tpcc\",\n  \
         \"warehouses\": {},\n  \"connections\": {},\n  \"elapsed_secs\": {:.3},\n  \
         \"committed\": {},\n  \"throughput_tps\": {:.3},\n  \"tpm\": {:.3},\n  \
         \"tpm_c\": {:.3},\n  \"wire_decisions\": {},\n  \"per_type\": [\n{}\n  ],\n  \
         \"ledger\": {{\n    \"transactions\": {},\n    \"committed\": {},\n    \
         \"bulks\": {},\n    \"decisions\": {{\n      \"kset\": {},\n      \"part\": {},\n      \
         \"tpl\": {}\n    }},\n    \"switches\": {},\n    \"strategies_used\": {}\n  }}\n}}\n",
        warehouses,
        report.connections,
        report.elapsed_secs,
        report.committed(),
        report.throughput_tps(),
        report.tpm(),
        tpm_c,
        wire_decisions.total(),
        per_type_json.join(",\n"),
        ledger_n,
        ledger_committed,
        stats.total(),
        stats.kset,
        stats.part,
        stats.tpl,
        stats.switches,
        strategies_used,
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write tpcc JSON to {path}: {e}"));
            println!("tpcc metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

/// Replication experiment for CI: a TM1-backed primary committing a fixed
/// bulk stream at 0, 1 and 2 attached followers over socketpairs. Reports
/// primary throughput per follower count and the follower apply lag
/// (commit-to-applied, pooled across followers) at p50/p99, and asserts
/// every follower converges to the primary's exact final state.
fn replication(json_path: Option<&str>) {
    use gputx_core::EngineBuilder;
    use gputx_replication::Replica;
    use gputx_server::socket_pair;
    use std::time::{Duration, Instant};

    banner("Replication — log shipping: primary throughput and follower apply lag");
    const BULKS: usize = 48;
    const PER_BULK: usize = 256;
    const WAIT: Duration = Duration::from_secs(30);

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };

    let mut tps = [0.0f64; 3];
    // lag_us[f] = pooled (p50, p99) apply lag at f followers (f >= 1).
    let mut lag_p50 = [0.0f64; 3];
    let mut lag_p99 = [0.0f64; 3];
    let mut shed_total = 0u64;

    for followers in 0..=2usize {
        let mut bundle = Tm1Config { scale_factor: 1 }.build();
        let sigs = bundle.generate_signatures(BULKS * PER_BULK, 0);
        let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate();
        let hub = builder.hub().expect("replicating builder exposes the hub");
        let mut engine = builder.build();

        // Attach and fully sync each follower before the timed window, then
        // poll its applied-LSN watermark from a sampler thread so apply
        // timestamps are captured while the primary keeps committing.
        let mut pollers = Vec::new();
        for _ in 0..followers {
            let (server_end, follower_end) = socket_pair().expect("socketpair");
            hub.attach(server_end).expect("attach follower");
            let replica = Replica::start(follower_end).expect("start follower");
            assert!(
                replica.wait_synced(WAIT),
                "follower must finish initial sync"
            );
            pollers.push(std::thread::spawn(move || {
                let deadline = Instant::now() + 2 * WAIT;
                let mut apply_at: Vec<Instant> = Vec::with_capacity(BULKS);
                while apply_at.len() < BULKS {
                    let applied = (replica.applied_lsn() as usize).min(BULKS);
                    let now = Instant::now();
                    while apply_at.len() < applied {
                        apply_at.push(now);
                    }
                    if apply_at.len() >= BULKS {
                        break;
                    }
                    assert!(Instant::now() < deadline, "follower stalled mid-run");
                    std::thread::sleep(Duration::from_micros(50));
                }
                (replica, apply_at)
            }));
        }

        let start = Instant::now();
        let mut commit_at: Vec<Instant> = Vec::with_capacity(BULKS);
        for chunk in sigs.chunks(PER_BULK) {
            for sig in chunk {
                engine.submit(sig.ty, sig.params.clone());
            }
            engine.execute_pending().expect("bulk executes");
            commit_at.push(Instant::now());
        }
        tps[followers] = (BULKS * PER_BULK) as f64 / start.elapsed().as_secs_f64();

        let mut lag_us: Vec<f64> = Vec::new();
        for poller in pollers {
            let (replica, apply_at) = poller.join().expect("poller thread");
            assert!(
                replica.wait_applied(BULKS as u64, WAIT),
                "follower must apply the full stream"
            );
            assert!(
                replica
                    .snapshot_db()
                    .expect("synced follower has a snapshot")
                    == *engine.db(),
                "follower must converge bit-identically to the primary"
            );
            for (apply, commit) in apply_at.iter().zip(&commit_at) {
                // The sampler can observe an apply before the primary's
                // commit timestamp lands; clamp those to zero lag.
                let lag = apply.checked_duration_since(*commit).unwrap_or_default();
                lag_us.push(lag.as_secs_f64() * 1e6);
            }
        }
        lag_us.sort_by(|a, b| a.partial_cmp(b).expect("finite lag"));
        lag_p50[followers] = percentile(&lag_us, 0.50);
        lag_p99[followers] = percentile(&lag_us, 0.99);
        shed_total += hub.stats().records_shed;
        hub.stop();
    }

    let mut table = TextTable::new(&["followers", "tps", "lag p50 (us)", "lag p99 (us)"]);
    for f in 0..=2usize {
        table.row(vec![
            f.to_string(),
            format!("{:.0}", tps[f]),
            if f == 0 {
                "-".into()
            } else {
                format!("{:.0}", lag_p50[f])
            },
            if f == 0 {
                "-".into()
            } else {
                format!("{:.0}", lag_p99[f])
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "REPLICATION: OK ({} bulks x {} txns per follower count, {} records shed)",
        BULKS, PER_BULK, shed_total
    );

    // Hand-rolled JSON (the workspace serde is an offline shim).
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"replication\",\n  \
         \"transactions\": {},\n  \"bulks\": {},\n  \
         \"f0_tps\": {:.3},\n  \"f1_tps\": {:.3},\n  \"f2_tps\": {:.3},\n  \
         \"f1_lag_p50_us\": {:.3},\n  \"f1_lag_p99_us\": {:.3},\n  \
         \"f2_lag_p50_us\": {:.3},\n  \"f2_lag_p99_us\": {:.3},\n  \
         \"records_shed\": {}\n}}\n",
        BULKS * PER_BULK,
        BULKS,
        tps[0],
        tps[1],
        tps[2],
        lag_p50[1],
        lag_p99[1],
        lag_p50[2],
        lag_p99[2],
        shed_total,
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write replication JSON to {path}: {e}"));
            println!("replication metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

/// One scan's comparable result: live-row count, bit-exact aggregate sum
/// and a full group-by — everything the serial replay must reproduce.
#[derive(Debug, PartialEq)]
struct HtapScanResult {
    count: u64,
    sum_bits: u64,
    groups: Vec<gputx_analytics::GroupRow>,
}

/// The scan the HTAP experiment runs everywhere: against live snapshots,
/// against serially replayed reference databases and against a replica's
/// reconstructed state. Aggregates are block-deterministic, so parallel and
/// sequential runs must agree bit for bit.
fn htap_scan<S: gputx_analytics::ScanSource + ?Sized>(
    src: &S,
    table: gputx_storage::catalog::TableId,
    key_col: usize,
    sum_col: usize,
    opts: gputx_analytics::ScanOptions,
) -> HtapScanResult {
    use gputx_analytics::{count_rows, group_by_i64, sum_f64, Predicate};
    HtapScanResult {
        count: count_rows(src, table, &Predicate::All, opts),
        sum_bits: sum_f64(src, table, sum_col, &Predicate::All, opts).to_bits(),
        groups: group_by_i64(src, table, key_col, sum_col, &Predicate::All, opts),
    }
}

/// Per-workload metrics of one HTAP run.
struct HtapRun {
    txn_tps: f64,
    scans: usize,
    scan_p50_ms: f64,
    scan_p99_ms: f64,
    cut_p50_us: f64,
    cut_p99_us: f64,
    /// Wall-clock of the replica-offload scan (TM1 only; 0 without it).
    replica_scan_ms: f64,
}

/// Drive one workload's transaction stream through the pipelined engine
/// while a scanner thread concurrently cuts snapshots and scans them, then
/// hard-verify every observed scan against a serial replay of the retained
/// committed prefix. With `offload`, also attach a follower and run the
/// same scan against its reconstructed database.
fn htap_run(
    mut bundle: gputx_workloads::WorkloadBundle,
    table_name: &str,
    key_col_name: &str,
    sum_col_name: &str,
    offload: bool,
) -> HtapRun {
    use gputx_analytics::{AnalyticsConfig, ScanOptions};
    use gputx_core::config::StrategyChoice;
    use gputx_core::EngineBuilder;
    use gputx_replication::Replica;
    use gputx_server::socket_pair;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    const N_TXNS: usize = 8_192;
    const MAX_BULK: usize = 256;
    const MAX_SCANS: usize = 48;
    const WAIT: Duration = Duration::from_secs(30);

    let seed_db = bundle.db.clone();
    let table = seed_db.table_id(table_name).expect("scan table exists");
    let schema = seed_db.table(table).schema();
    let key_col = schema.column_index(key_col_name).expect("key column");
    let sum_col = schema.column_index(sum_col_name).expect("sum column");
    let sigs = bundle.generate_signatures(N_TXNS, 0);

    let mut builder = EngineBuilder::new(seed_db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(MAX_BULK)
        .with_max_wait_us(2_000)
        .analytics_with(AnalyticsConfig::default().with_retained_records());
    if offload {
        builder = builder.replicate();
    }
    let session = builder.analytics_session().expect("session attached");
    let hub = builder.hub();
    let replica = hub.as_ref().map(|hub| {
        let (server_end, follower_end) = socket_pair().expect("socketpair");
        hub.attach(server_end).expect("attach follower");
        let replica = Replica::start(follower_end).expect("start follower");
        assert!(replica.wait_synced(WAIT), "follower must finish sync");
        replica
    });
    let engine = builder.build_pipelined();

    // Scanner: cut a snapshot, scan it with 4 worker threads, remember the
    // result for post-hoc verification; repeat until ingest finishes, then
    // take one final cut so the committed suffix is covered too.
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let scanner = {
        let session = session.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let opts = ScanOptions::parallel(4);
            let mut observed: Vec<(u64, f64, f64, HtapScanResult)> = Vec::new();
            loop {
                let finished = done.load(Ordering::Acquire);
                let snap = session.snapshot();
                let cut_us = session.stats().last_cut_us;
                let t0 = Instant::now();
                let result = htap_scan(&snap, table, key_col, sum_col, opts);
                let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
                if observed.len() < MAX_SCANS {
                    observed.push((snap.records_applied(), cut_us, scan_ms, result));
                }
                if finished {
                    return observed;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };

    let start = Instant::now();
    for sig in &sigs {
        engine
            .submit(sig.ty, sig.params.clone())
            .expect("pipeline accepts the htap stream");
    }
    let (final_db, stats) = engine.finish().expect("pipeline stays healthy");
    let wall = start.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    let mut observed = scanner.join().expect("scanner thread");
    assert_eq!(stats.committed + stats.aborted, N_TXNS as u64);

    // The hard consistency gate: replay the retained records serially onto
    // the seed, stopping at each observed snapshot's bulk count, and demand
    // the concurrent parallel scan saw exactly the serial replay's answer.
    let retained = session.retained_records();
    assert_eq!(retained.len() as u64, stats.bulks(), "one record per bulk");
    observed.sort_by_key(|(records, ..)| *records);
    let mut replay_db = seed_db.clone();
    let mut applied = 0usize;
    for (records, _, _, result) in &observed {
        while applied < *records as usize {
            retained[applied].clone().replay_into(&mut replay_db);
            applied += 1;
        }
        let serial = htap_scan(
            &replay_db,
            table,
            key_col,
            sum_col,
            ScanOptions::sequential(),
        );
        assert_eq!(
            *result, serial,
            "concurrent scan at {records} bulks diverged from serial replay"
        );
    }
    // Full-fidelity check of the final cut: every cell of every table.
    let final_snap = session.snapshot();
    assert_eq!(final_snap.records_applied(), retained.len() as u64);
    while applied < retained.len() {
        retained[applied].clone().replay_into(&mut replay_db);
        applied += 1;
    }
    final_snap
        .check_against(&replay_db)
        .expect("final snapshot equals full serial replay");
    final_snap
        .check_against(&final_db)
        .expect("final snapshot equals the engine's own database");

    // Replica offload: the follower's reconstructed database answers the
    // same scan with the same bits.
    let mut replica_scan_ms = 0.0;
    if let Some(replica) = replica {
        assert!(
            replica.wait_applied(retained.len() as u64, WAIT),
            "follower must apply the full stream"
        );
        let replica_db = replica
            .snapshot_db()
            .expect("synced follower has a snapshot");
        let t0 = Instant::now();
        let offloaded = htap_scan(
            &replica_db,
            table,
            key_col,
            sum_col,
            ScanOptions::parallel(4),
        );
        replica_scan_ms = t0.elapsed().as_secs_f64() * 1e3;
        let local = htap_scan(
            &final_snap,
            table,
            key_col,
            sum_col,
            ScanOptions::parallel(4),
        );
        assert_eq!(offloaded, local, "replica-offload scan diverged");
    }
    if let Some(hub) = hub {
        hub.stop();
    }

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };
    let mut scan_ms: Vec<f64> = observed.iter().map(|(_, _, ms, _)| *ms).collect();
    let mut cut_us: Vec<f64> = observed.iter().map(|(_, us, ..)| *us).collect();
    scan_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite scan time"));
    cut_us.sort_by(|a, b| a.partial_cmp(b).expect("finite cut time"));
    HtapRun {
        txn_tps: stats.committed as f64 / wall,
        scans: observed.len(),
        scan_p50_ms: percentile(&scan_ms, 0.50),
        scan_p99_ms: percentile(&scan_ms, 0.99),
        cut_p50_us: percentile(&cut_us, 0.50),
        cut_p99_us: percentile(&cut_us, 0.99),
        replica_scan_ms,
    }
}

/// HTAP experiment: concurrent analytical scans over bulk-boundary
/// snapshots while TM1/TPC-B ingest keeps committing, with every scan
/// hard-verified against a serial replay of the frozen committed prefix.
/// CI runs this as part of bench-smoke and schema-checks the JSON artifact.
fn htap(json_path: Option<&str>) {
    banner("HTAP — concurrent scans over bulk-boundary snapshots (+ replica offload)");

    let tm1 = htap_run(
        Tm1Config { scale_factor: 1 }.build(),
        "subscriber",
        "bit_1",
        "vlr_location",
        true,
    );
    let tpcb = htap_run(
        TpcbConfig::default().build(),
        "account",
        "a_b_id",
        "a_balance",
        false,
    );

    let mut table = TextTable::new(&[
        "workload",
        "txn tps",
        "scans",
        "scan p50 (ms)",
        "scan p99 (ms)",
        "cut p50 (us)",
        "cut p99 (us)",
    ]);
    for (name, run) in [("tm1", &tm1), ("tpcb", &tpcb)] {
        table.row(vec![
            name.to_string(),
            format!("{:.0}", run.txn_tps),
            run.scans.to_string(),
            format!("{:.3}", run.scan_p50_ms),
            format!("{:.3}", run.scan_p99_ms),
            format!("{:.0}", run.cut_p50_us),
            format!("{:.0}", run.cut_p99_us),
        ]);
    }
    println!("{}", table.render());
    println!(
        "HTAP: OK (every concurrent scan equals its serial replay; \
         replica-offload scan in {:.3} ms)",
        tm1.replica_scan_ms
    );

    // Hand-rolled JSON (the workspace serde is an offline shim). The
    // `consistent` flag can only be true here — a divergence panics above —
    // but the artifact records the gate explicitly for the schema check.
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"htap\",\n  \
         \"tm1_txn_tps\": {:.3},\n  \"tm1_scans\": {},\n  \
         \"tm1_scan_p50_ms\": {:.6},\n  \"tm1_scan_p99_ms\": {:.6},\n  \
         \"tm1_cut_p50_us\": {:.3},\n  \"tm1_cut_p99_us\": {:.3},\n  \
         \"tpcb_txn_tps\": {:.3},\n  \"tpcb_scans\": {},\n  \
         \"tpcb_scan_p50_ms\": {:.6},\n  \"tpcb_scan_p99_ms\": {:.6},\n  \
         \"tpcb_cut_p50_us\": {:.3},\n  \"tpcb_cut_p99_us\": {:.3},\n  \
         \"replica_scan_ms\": {:.6},\n  \"consistent\": true\n}}\n",
        tm1.txn_tps,
        tm1.scans,
        tm1.scan_p50_ms,
        tm1.scan_p99_ms,
        tm1.cut_p50_us,
        tm1.cut_p99_us,
        tpcb.txn_tps,
        tpcb.scans,
        tpcb.scan_p50_ms,
        tpcb.scan_p99_ms,
        tpcb.cut_p50_us,
        tpcb.cut_p99_us,
        tm1.replica_scan_ms,
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write htap JSON to {path}: {e}"));
            println!("htap metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

/// Counters from one seeded chaos storm, for the table and the JSON artifact.
struct ChaosRun {
    committed: u64,
    ambiguous: u64,
    faults_injected: u64,
    wal_heals: u64,
    client_reconnects: u64,
    replica_reconnects: u64,
    wall_secs: f64,
}

/// One seeded full-stack fault storm (the `tests/chaos.rs` storm, sized for
/// bench-smoke). Faults hit the WAL (append/fsync), the client wire
/// (drop/corrupt/delay/reset) and the follower stream (stall/kill); the
/// reconnecting client, the supervised replica and the WAL heal path absorb
/// all of them. Every convergence property is hard-asserted — a divergence
/// panics — so returning *is* the proof; the counters are what the artifact
/// reports.
fn chaos_storm(seed: u64, n: usize, max_faults: u64) -> ChaosRun {
    use gputx_client::{Client, ClientConfig, TxnResult};
    use gputx_core::config::StrategyChoice;
    use gputx_core::{EngineBuilder, PipelineConfig};
    use gputx_durability::recover;
    use gputx_faults::{BackoffPolicy, FaultPlan, WalState};
    use gputx_replication::{ReplicaSupervisor, SupervisorConfig};
    use gputx_server::{chaos_wrap, socket_pair, Duplex, Server};
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);
    // Fast backoff so the storm spends its time injecting, not sleeping.
    let fast_backoff = |seed: u64| BackoffPolicy {
        base: Duration::from_millis(1),
        max: Duration::from_millis(20),
        max_retries: 50,
        seed,
    };

    let dir = std::env::temp_dir().join(format!(
        "gputx-figures-chaos-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    bundle.reseed(seed);
    let stream = bundle.generate(n);
    // The stock storm rates are per-frame, so the (rare) per-bulk WAL appends
    // and follower records barely see faults at this scale; boost them so the
    // artifact demonstrably exercises heal and replica-resync as well.
    let plan = FaultPlan {
        wal_append_error: 0.10,
        wal_fsync_error: 0.05,
        follower_stall: 0.08,
        follower_kill: 0.08,
        ..FaultPlan::storm(seed)
    }
    .with_max_faults(max_faults);
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_durability(&dir)
        .replicate()
        .faults(plan)
        .with_pipeline(
            PipelineConfig::default()
                .with_max_bulk_size(32)
                .with_max_wait_us(2_000),
        );
    let injector = builder.faults_injector().expect("plan installed");
    let health = builder.health();
    let hub = builder.hub().expect("replicate() creates the hub");
    let engine = builder.build_pipelined();

    let server = Arc::new(Server::new(engine.handle()));
    server.serve_health(health.clone());

    // Reconnecting client over a chaos-wrapped socket pair; the raw client
    // end is stashed so quiesce can yank a connection whose in-flight
    // requests were dropped by the chaos plane.
    let current: Arc<Mutex<Option<UnixStream>>> = Arc::new(Mutex::new(None));
    let client = {
        let server = Arc::clone(&server);
        let injector = injector.clone();
        let current = Arc::clone(&current);
        let generation = AtomicU64::new(0);
        Client::with_connector(
            move || {
                let (server_end, client_end) = socket_pair()?;
                server.attach(server_end)?;
                *current.lock().expect("stash lock") = Some(client_end.try_clone()?);
                let g = generation.fetch_add(1, Ordering::Relaxed);
                let wire = injector.wire(&format!("client-{g}"));
                Ok(Box::new(chaos_wrap(client_end, wire)) as Box<dyn Duplex>)
            },
            ClientConfig {
                connect_timeout: None,
                read_timeout: Some(Duration::from_millis(25)),
                reconnect: Some(fast_backoff(seed)),
            },
        )
        .expect("first dial succeeds")
    };

    // Supervised replica over a chaos-wrapped follower stream.
    let mut sup = {
        let hub = hub.clone();
        let injector = injector.clone();
        let generation = AtomicU64::new(0);
        ReplicaSupervisor::start(
            move || {
                let (server_end, follower_end) = socket_pair()?;
                hub.attach(server_end)?;
                let g = generation.fetch_add(1, Ordering::Relaxed);
                let wire = injector.follower_wire(&format!("follower-{g}"));
                Ok(Box::new(chaos_wrap(follower_end, wire)) as Box<dyn Duplex>)
            },
            SupervisorConfig {
                backoff: fast_backoff(seed ^ 0xF0),
            },
        )
        .expect("supervisor starts")
    };

    let started = std::time::Instant::now();
    let replies: Vec<_> = stream
        .iter()
        .map(|(ty, params)| {
            client
                .submit(*ty, params.clone())
                .expect("submit always yields a reply under reconnect")
        })
        .collect();

    // Quiesce: stop injecting, barrier on a ping (responses are FIFO), then
    // yank the connection if any reply is still unresolved — those request
    // frames were dropped on the wire and can never be answered.
    injector.disarm();
    client.ping().expect("post-storm ping");
    if replies.iter().any(|r| r.try_get().is_none()) {
        if let Some(stream) = current.lock().expect("stash lock").take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    let (mut committed, mut ambiguous, mut resolved) = (0u64, 0u64, 0u64);
    for reply in &replies {
        match reply.wait() {
            Ok(TxnResult::Committed(_)) => committed += 1,
            Ok(TxnResult::Disconnected) => ambiguous += 1,
            Ok(TxnResult::Aborted(_) | TxnResult::QueueFull | TxnResult::BulkFailed(_)) => {}
            Ok(other) => panic!("submit resolved as {other:?}"),
            Err(e) => panic!("reconnecting client must not surface hard errors: {e}"),
        }
        resolved += 1;
    }
    assert_eq!(resolved, n as u64, "every reply resolves exactly once");
    assert_eq!(client.unmatched_responses(), 0, "no orphaned responses");

    // The yank resolves ambiguous replies while the server may still be
    // executing those submits: drain the pipeline and wait for the publish
    // stream to go quiet before reading the final LSN.
    engine.flush().expect("pipeline drains");
    let deadline = std::time::Instant::now() + WAIT;
    let published = loop {
        let before = hub.next_lsn();
        std::thread::sleep(Duration::from_millis(50));
        if hub.next_lsn() == before || std::time::Instant::now() >= deadline {
            break before;
        }
    };
    let wall_secs = started.elapsed().as_secs_f64();

    assert!(
        sup.wait_applied(published, WAIT),
        "supervised replica must converge after the storm (lsn {published})"
    );

    // Health over the wire agrees with the in-process surfaces.
    let report = client.health().expect("health probe after the storm");
    assert_ne!(report.wal, WalState::Disabled, "durability is configured");
    assert_eq!(report.faults_injected, injector.injected());
    assert_eq!(report.repl_next_lsn, published);

    let client_reconnects = client.reconnects();
    drop(client);
    server.stop();
    let sup_db = sup.snapshot_db().expect("converged replica snapshots");
    let sup_stats = sup.stats();
    sup.stop();
    let (final_db, stats) = engine.finish().expect("pipeline finishes cleanly");
    let mirror = hub.mirror_db();
    hub.stop();

    // Convergence chain: engine == mirror == supervised replica == recovery.
    assert!(mirror == final_db, "replication mirror == engine state");
    assert!(sup_db == final_db, "supervised replica == engine state");
    if health.report().wal != WalState::Degraded {
        let recovered = recover(&dir).expect("post-storm recovery");
        assert!(
            recovered.db == final_db,
            "recovery must replay to the engine's final state"
        );
    }

    // Nothing lost, nothing duplicated: an acked commit is real and every
    // commit beyond the acked set is covered by an ambiguous submit.
    let engine_committed = stats.committed;
    assert!(
        engine_committed >= committed,
        "an acked commit must have committed"
    );
    assert!(
        engine_committed <= committed + ambiguous,
        "commits beyond the acked set must all be ambiguous submits"
    );
    assert!(!sup_stats.gave_up, "the supervisor must not give up");

    let _ = std::fs::remove_dir_all(&dir);
    ChaosRun {
        committed: engine_committed,
        ambiguous,
        faults_injected: injector.injected(),
        wal_heals: health.report().heals,
        client_reconnects,
        replica_reconnects: sup_stats.reconnects,
        wall_secs,
    }
}

/// Chaos experiment: deterministic seeded fault storms across WAL, wire and
/// replication, absorbed by the self-healing stack. Convergence is
/// hard-asserted inside each run (a divergence panics before any JSON is
/// written). CI runs this as part of bench-smoke and schema-checks the JSON
/// artifact, which gates on the literal `"convergence": true`.
fn chaos(json_path: Option<&str>) {
    banner("Chaos — seeded fault storms across WAL, wire and replication");

    const SEEDS: [u64; 2] = [0xFA11_0C01, 0xFA11_0C02];
    const N: usize = 1_200;
    const MAX_FAULTS: u64 = 160;
    let runs: Vec<(u64, ChaosRun)> = SEEDS
        .iter()
        .map(|&seed| (seed, chaos_storm(seed, N, MAX_FAULTS)))
        .collect();

    let mut table = TextTable::new(&[
        "seed",
        "txns",
        "committed",
        "ambiguous",
        "faults",
        "heals",
        "cli reconnects",
        "repl reconnects",
        "tps",
    ]);
    for (seed, run) in &runs {
        table.row(vec![
            format!("{seed:#x}"),
            N.to_string(),
            run.committed.to_string(),
            run.ambiguous.to_string(),
            run.faults_injected.to_string(),
            run.wal_heals.to_string(),
            run.client_reconnects.to_string(),
            run.replica_reconnects.to_string(),
            format!("{:.0}", run.committed as f64 / run.wall_secs),
        ]);
    }
    println!("{}", table.render());

    let transactions = (SEEDS.len() * N) as u64;
    let committed: u64 = runs.iter().map(|(_, r)| r.committed).sum();
    let ambiguous: u64 = runs.iter().map(|(_, r)| r.ambiguous).sum();
    let faults_injected: u64 = runs.iter().map(|(_, r)| r.faults_injected).sum();
    let wal_heals: u64 = runs.iter().map(|(_, r)| r.wal_heals).sum();
    let client_reconnects: u64 = runs.iter().map(|(_, r)| r.client_reconnects).sum();
    let replica_reconnects: u64 = runs.iter().map(|(_, r)| r.replica_reconnects).sum();
    let wall: f64 = runs.iter().map(|(_, r)| r.wall_secs).sum();
    println!(
        "chaos: OK ({} seeds converged; {faults_injected} faults absorbed, \
         {wal_heals} WAL heals, {client_reconnects} client + {replica_reconnects} \
         replica reconnects, no commit lost or duplicated)",
        SEEDS.len()
    );

    // Hand-rolled JSON (the workspace serde is an offline shim). The
    // `convergence` flag can only be true here — a divergence panics inside
    // `chaos_storm` — but the artifact records the gate explicitly for the
    // schema check.
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"chaos\",\n  \
         \"seeds\": {},\n  \"transactions\": {},\n  \"committed\": {},\n  \
         \"ambiguous\": {},\n  \"faults_injected\": {},\n  \
         \"wal_heals\": {},\n  \"client_reconnects\": {},\n  \
         \"replica_reconnects\": {},\n  \"throughput_tps\": {:.3},\n  \
         \"convergence\": true\n}}\n",
        SEEDS.len(),
        transactions,
        committed,
        ambiguous,
        faults_injected,
        wal_heals,
        client_reconnects,
        replica_reconnects,
        committed as f64 / wall,
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write chaos JSON to {path}: {e}"));
            println!("chaos metrics written to {path}");
        }
        None => println!("{json}"),
    }
}

/// Durability experiment: WAL overhead (logged vs. unlogged wall-clock tps on
/// TM1/TPC-B under each fsync policy) plus a crash-recovery proof — recover
/// the PerBulk run's directory and assert the reconstructed database is
/// bit-identical to the live engine's. CI runs this as part of bench-smoke
/// and schema-checks the JSON artifact.
fn durability(json_path: Option<&str>) {
    use gputx_bench::wal_overhead::{
        overhead_pct, run_logged, run_unlogged, scratch_dir, POLICIES,
    };
    use gputx_durability::{recover, FsyncPolicy};
    use gputx_workloads::WorkloadBundle;
    use std::time::Instant;

    banner("Durability — WAL overhead (bulk-granular redo logging) and recovery");
    const N_TXNS: usize = 8_192;
    const BULK: usize = 2_048;
    const ROUNDS: usize = 3;

    struct Case {
        name: &'static str,
        unlogged_tps: f64,
        policy_tps: [f64; 3],
        wal_bytes: u64,
        recovery_ms: f64,
        replayed: u64,
    }

    let mut cases: Vec<Case> = Vec::new();
    let workloads: [(&'static str, WorkloadBundle); 2] = [
        ("tm1", Tm1Config { scale_factor: 1 }.build()),
        ("tpcb", TpcbConfig::default().with_scale_factor(64).build()),
    ];
    for (name, mut bundle) in workloads {
        let sigs = bundle.generate_signatures(N_TXNS, 0);
        let mut unlogged_secs = f64::INFINITY;
        let mut unlogged_db = None;
        for _ in 0..ROUNDS {
            let (secs, db) = run_unlogged(&bundle, &sigs, BULK);
            if secs < unlogged_secs {
                unlogged_secs = secs;
                unlogged_db = Some(db);
            }
        }
        let unlogged_db = unlogged_db.expect("at least one round");
        let unlogged_tps = N_TXNS as f64 / unlogged_secs;

        let mut policy_tps = [0.0f64; 3];
        let mut wal_bytes = 0u64;
        let mut recovery_ms = 0.0f64;
        let mut replayed = 0u64;
        for (p, (policy_name, policy)) in POLICIES.iter().enumerate() {
            let dir = scratch_dir(&format!("figures-{name}-{policy_name}"));
            let mut best_secs = f64::INFINITY;
            let mut final_db = None;
            for _ in 0..ROUNDS {
                let (secs, db, bytes) = run_logged(&bundle, &sigs, &dir, *policy, BULK);
                wal_bytes = bytes;
                if secs < best_secs {
                    best_secs = secs;
                    final_db = Some(db);
                }
            }
            let final_db = final_db.expect("at least one round");
            assert!(
                final_db == unlogged_db,
                "{name}/{policy_name}: logging must not change execution"
            );
            policy_tps[p] = N_TXNS as f64 / best_secs;
            println!(
                "WAL-OVERHEAD {name} {policy_name}: {:+.1}% \
                 (unlogged {unlogged_tps:.0} tps, logged {:.0} tps)",
                overhead_pct(unlogged_secs, best_secs),
                policy_tps[p],
            );
            // The last-written directory recovers to the live state; time it
            // on the strongest policy.
            if *policy == FsyncPolicy::PerBulk {
                let start = Instant::now();
                let recovery = recover(&dir).expect("recover");
                recovery_ms = start.elapsed().as_secs_f64() * 1e3;
                replayed = recovery.replayed;
                assert!(
                    recovery.db == final_db,
                    "{name}: recovery must reproduce the live state bit-identically"
                );
                println!(
                    "WAL-RECOVERY {name}: {replayed} bulks replayed in {recovery_ms:.1} ms, \
                     state bit-identical"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        cases.push(Case {
            name,
            unlogged_tps,
            policy_tps,
            wal_bytes,
            recovery_ms,
            replayed,
        });
    }

    let mut table = TextTable::new(&[
        "workload",
        "unlogged (tps)",
        "perbulk (tps)",
        "everyn8 (tps)",
        "async (tps)",
        "wal (KiB)",
        "recovery (ms)",
    ]);
    for c in &cases {
        table.row(vec![
            c.name.to_string(),
            format!("{:.0}", c.unlogged_tps),
            format!("{:.0}", c.policy_tps[0]),
            format!("{:.0}", c.policy_tps[1]),
            format!("{:.0}", c.policy_tps[2]),
            format!("{:.1}", c.wal_bytes as f64 / 1024.0),
            format!("{:.1}", c.recovery_ms),
        ]);
    }
    println!("{}", table.render());

    // Hand-rolled JSON (the workspace serde is an offline shim).
    let per_case = |c: &Case| {
        format!(
            "  \"{0}_unlogged_tps\": {1:.3},\n  \"{0}_perbulk_tps\": {2:.3},\n  \
             \"{0}_everyn8_tps\": {3:.3},\n  \"{0}_async_tps\": {4:.3},\n  \
             \"{0}_wal_bytes\": {5},\n  \"{0}_recovery_ms\": {6:.4},\n  \
             \"{0}_replayed_bulks\": {7}",
            c.name,
            c.unlogged_tps,
            c.policy_tps[0],
            c.policy_tps[1],
            c.policy_tps[2],
            c.wal_bytes,
            c.recovery_ms,
            c.replayed,
        )
    };
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"durability\",\n  \"transactions\": {},\n{},\n{}\n}}\n",
        N_TXNS,
        per_case(&cases[0]),
        per_case(&cases[1]),
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write durability JSON to {path}: {e}"));
            println!("durability metrics written to {path}");
        }
        None => println!("{json}"),
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

/// CI pipeline smoke: a tiny TM1 stream through the streaming pipelined
/// engine (`PipelinedGpuTx`), reporting sustained throughput, p50/p99 ticket
/// latency and per-stage occupancy — the latency-side metrics the one-shot
/// smoke cannot measure.
fn pipeline_smoke(json_path: Option<&str>) {
    use gputx_core::config::StrategyChoice;
    use gputx_core::{profile_pipeline, EngineBuilder};
    use gputx_workloads::{run_open_loop, OpenLoopConfig};

    banner("CI smoke — TM1 stream through the pipelined engine");
    let n_txns = 4_096usize;
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    let engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(512)
        .with_max_wait_us(2_000)
        .build_pipelined();
    let offered = run_open_loop(
        &mut bundle,
        &OpenLoopConfig {
            rate_tps: 500_000.0,
            count: n_txns,
            burstiness: 0.2,
            seed: 42,
        },
        |ty, params| engine.submit(ty, params).is_ok(),
    );
    let (_db, stats) = engine
        .finish()
        .expect("pipeline stages must stay healthy in the smoke");
    let occupancy = profile_pipeline(&stats);

    let mut table = TextTable::new(&[
        "txns",
        "committed",
        "aborted",
        "bulks",
        "tps",
        "p50 (ms)",
        "p99 (ms)",
        "bottleneck",
    ]);
    table.row(vec![
        stats.transactions().to_string(),
        stats.committed.to_string(),
        stats.aborted.to_string(),
        stats.bulks().to_string(),
        format!("{:.0}", stats.throughput_tps()),
        format!("{:.3}", stats.p50_ms()),
        format!("{:.3}", stats.p99_ms()),
        occupancy.bottleneck().to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "offered {} txns ({} shed) at {:.0} tps",
        offered.submitted + offered.shed,
        offered.shed,
        offered.offered_tps()
    );

    // Hand-rolled JSON (the workspace serde is an offline shim).
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"pipeline\",\n  \"workload\": \"tm1\",\n  \
         \"transactions\": {},\n  \"committed\": {},\n  \"aborted\": {},\n  \"bulks\": {},\n  \
         \"throughput_tps\": {:.3},\n  \"p50_ms\": {:.6},\n  \"p99_ms\": {:.6},\n  \
         \"occupancy_admission\": {:.6},\n  \"occupancy_grouping\": {:.6},\n  \
         \"occupancy_execution\": {:.6},\n  \"occupancy_commit\": {:.6},\n  \
         \"bottleneck\": \"{}\"\n}}\n",
        stats.transactions(),
        stats.committed,
        stats.aborted,
        stats.bulks(),
        stats.throughput_tps(),
        stats.p50_ms(),
        stats.p99_ms(),
        occupancy.admission,
        occupancy.grouping,
        occupancy.execution,
        occupancy.commit,
        occupancy.bottleneck(),
    );
    match json_path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| panic!("cannot write pipeline JSON to {path}: {e}"));
            println!("pipeline metrics written to {path}");
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
