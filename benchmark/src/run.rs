//! One workload, end to end: set the engine up behind a loopback listener,
//! load it for a few timed windows, tear it down, check the outputs, and
//! turn what was observed from outside into metrics.

use crate::load::{drive, ticks_to_ms, touched_buffer, ConnResult, Pacing, Schedule, Stream};
use crate::metrics::PER_LAYER;
use crate::spec::{Spec, CONNECTIONS, MAX_WAIT_US, WARMUP_SECS, WINDOW_SECS};
use crate::stats::{median, percentile, process_cpu_secs, rss_bytes, Outcomes};
use crate::stepped;
use gputx_analytics::{sum_f64, AnalyticsSession, Predicate, ScanOptions};
use gputx_client::Client;
use gputx_core::config::StrategyChoice;
use gputx_core::{DecisionStats, EngineBuilder, PipelinedGpuTx};
use gputx_exec::{PipelineStats, Ticket};
use gputx_replication::{PrimaryHub, Replica};
use gputx_server::{socket_pair, Server, ServerStats};
use gputx_storage::catalog::TableId;
use gputx_storage::Database;
use gputx_txn::TxnTypeId;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

/// How long follower sync, catch-up and drains may take before a check
/// gives up and fails.
const WAIT: Duration = Duration::from_secs(60);
/// Set-ups timed per run: at least `MIN_SETUPS`, then more while they are
/// cheap, so a 50 ms set-up is not reported from three samples. The median
/// is reported and the last one serves.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const SCAN_EVERY: Duration = Duration::from_millis(100);

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Total measured seconds; split into `WINDOW_SECS` windows.
    pub seconds: u64,
    /// One 1 s window after a 0.2 s warm-up over shrunken inputs. Smoke only.
    pub quick: bool,
    /// Also run the stepped traced replay (and, on `tm1_wire_sat`, the
    /// in-process run) and write the trace file.
    pub trace: bool,
    /// Where WAL directories live for the length of a run.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub results: PathBuf,
}

#[derive(Debug)]
pub struct RunReport {
    pub metrics: Metrics,
    /// The values each end-to-end metric is the median of (one per window,
    /// or per set-up), so a comparison can tell a shift from noise.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check; empty means correct.
    pub check_failures: Vec<String>,
}

/// The timed part of a run: warm-up plus `windows` windows.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
}

impl Timing {
    pub fn of(opts: &RunOptions) -> Timing {
        if opts.quick {
            return Timing {
                warmup: Duration::from_millis(200),
                window: Duration::from_secs(1),
                windows: 1,
            };
        }
        let windows = (opts.seconds / WINDOW_SECS).max(1) as usize;
        Timing {
            warmup: Duration::from_secs_f64(WARMUP_SECS),
            window: Duration::from_secs_f64(opts.seconds as f64 / windows as f64),
            windows,
        }
    }

    fn schedule_from_now(&self) -> Schedule {
        Schedule {
            start: Instant::now(),
            warmup: self.warmup,
            window: self.window,
            windows: self.windows,
        }
    }
}

/// The commit consumers `tpcb_wire_full` attaches.
struct FullPath {
    dir: PathBuf,
    hub: PrimaryHub,
    replica: Replica,
    session: AnalyticsSession,
    /// The account-balance column the scanner thread sums.
    scan: (TableId, usize),
}

/// A served engine with its connected clients, ready for the first request.
struct Rig {
    engine: PipelinedGpuTx,
    server: Server,
    clients: Vec<Client>,
    streams: Vec<Stream>,
    type_names: Vec<String>,
    full: Option<FullPath>,
}

fn builder_for(spec: &Spec, db: Database, registry: gputx_txn::ProcedureRegistry) -> EngineBuilder {
    let builder = EngineBuilder::new(db, registry)
        .with_max_bulk_size(spec.max_bulk_size)
        .with_max_wait_us(MAX_WAIT_US);
    if spec.adaptive {
        builder.adaptive()
    } else {
        builder.with_strategy(StrategyChoice::ForceKset)
    }
}

/// Draw each connection's stream from `seed`. The engine only ever sees
/// these generated inputs.
pub fn draw_streams(
    bundle: &mut gputx_workloads::WorkloadBundle,
    seed: u64,
    len: usize,
) -> Vec<Stream> {
    bundle.reseed(seed);
    (0..CONNECTIONS).map(|_| bundle.generate(len)).collect()
}

/// Bundle build + stream draw + engine build (+ follower sync) + listen +
/// connect: everything `setup_s` covers.
fn setup(spec: &Spec, seed: u64, wal_dir: &Path) -> Result<Rig, String> {
    let mut bundle = spec.data.build();
    let streams = draw_streams(&mut bundle, seed, spec.stream_len);
    let type_names = (0..bundle.registry.num_types())
        .map(|t| bundle.registry.get(t as TxnTypeId).name.clone())
        .collect();
    let scan = spec.full_commit_path.then(|| {
        let account = bundle.db.table_id("account").expect("TPC-B has accounts");
        let balance = bundle.db.table(account).schema().column_index("a_balance");
        (account, balance.expect("accounts have balances"))
    });
    let mut builder = builder_for(spec, bundle.db, bundle.registry);
    let mut full = None;
    if let Some(scan) = scan {
        builder = builder.with_durability(wal_dir).replicate().analytics();
        let hub = builder.hub().expect("replicate() installs a hub");
        let session = builder
            .analytics_session()
            .expect("analytics() installs a session");
        let (server_end, follower_end) = socket_pair().map_err(|e| e.to_string())?;
        hub.attach(server_end).map_err(|e| e.to_string())?;
        let replica = Replica::start(follower_end).map_err(|e| e.to_string())?;
        if !replica.wait_synced(WAIT) {
            return Err("follower never finished its initial sync".into());
        }
        full = Some(FullPath {
            dir: wal_dir.to_path_buf(),
            hub,
            replica,
            session,
            scan,
        });
    }
    let engine = builder.build_pipelined();
    let server = Server::new(engine.handle());
    let addr = server.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rig {
        engine,
        server,
        clients,
        streams,
        type_names,
        full,
    })
}

fn setup_timed(spec: &Spec, seed: u64, wal_dir: &Path, secs: &mut Vec<f64>) -> Result<Rig, String> {
    let started = Instant::now();
    let rig = setup(spec, seed, wal_dir)?;
    secs.push(started.elapsed().as_secs_f64());
    Ok(rig)
}

/// What tearing a rig down leaves behind for the checks and the counters.
struct TornDown {
    db: Database,
    pipeline: PipelineStats,
    server: ServerStats,
    decisions: Option<DecisionStats>,
    full: Option<FullPath>,
}

fn teardown(rig: Rig) -> Result<TornDown, String> {
    // Closing the clients sends EOF; the server's responders drain what was
    // admitted, then the engine stops its stages.
    drop(rig.clients);
    rig.server.stop();
    let server = rig.server.stats();
    let decisions = rig.engine.decision_stats();
    let (db, pipeline) = rig
        .engine
        .finish()
        .map_err(|e| format!("pipeline did not stay healthy: {e:?}"))?;
    Ok(TornDown {
        db,
        pipeline,
        server,
        decisions,
        full: rig.full,
    })
}

fn discard(full: Option<FullPath>) {
    if let Some(mut full) = full {
        full.hub.stop();
        full.replica.stop();
        let _ = std::fs::remove_dir_all(&full.dir);
    }
}

/// What the scanner thread saw while the engine was loaded.
#[derive(Debug, Default)]
struct ScanLog {
    cut_us: Vec<f64>,
    scan_ms: Vec<f64>,
    chunks_rebuilt: u64,
}

/// Every [`SCAN_EVERY`]: cut a snapshot and sum the account balances over
/// it, the way an HTAP reader would.
fn scanner_loop(
    session: &AnalyticsSession,
    (account, balance): (TableId, usize),
    stop: &AtomicBool,
) -> ScanLog {
    let mut log = ScanLog::default();
    let mut rebuilt_before = session.stats().chunks_rebuilt;
    let mut due = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let snapshot = session.snapshot();
        let stats = session.stats();
        log.cut_us.push(stats.last_cut_us);
        log.chunks_rebuilt += stats.chunks_rebuilt - rebuilt_before;
        rebuilt_before = stats.chunks_rebuilt;
        let started = Instant::now();
        std::hint::black_box(sum_f64(
            &snapshot,
            account,
            balance,
            &Predicate::All,
            ScanOptions::sequential(),
        ));
        log.scan_ms.push(started.elapsed().as_secs_f64() * 1e3);
        due += SCAN_EVERY;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    log
}

/// Sum of one `Double` column over all rows, as `tpcb.rs`'s invariant test
/// computes it.
fn column_sum(db: &Database, table: &str, col: usize) -> f64 {
    let t = db.table_by_name(table);
    (0..t.num_rows() as u64).map(|r| t.get_f64(r, col)).sum()
}

/// Σ branch = Σ teller = Σ account = Σ history deltas. The unit test allows
/// 1e-6 of rounding over 2 000 transactions; the slack here grows with the
/// number of additions.
fn tpcb_balances(db: &Database) -> Result<(), String> {
    let branches = column_sum(db, "branch", 1);
    let tellers = column_sum(db, "teller", 2);
    let accounts = column_sum(db, "account", 2);
    let history = column_sum(db, "history", 3);
    let rows = db.table_by_name("history").num_rows() as f64;
    let slack = 1e-6 * (rows / 2_000.0).max(1.0);
    for (name, sum) in [
        ("teller", tellers),
        ("account", accounts),
        ("history", history),
    ] {
        if (branches - sum).abs() >= slack {
            return Err(format!(
                "TPC-B balance invariant: Σ branch {branches} vs Σ {name} {sum} (slack {slack})"
            ));
        }
    }
    Ok(())
}

/// Per-window pooled view over the connections' samples.
struct Windows<'a> {
    conns: &'a [ConnResult],
    window_secs: f64,
    windows: usize,
}

impl Windows<'_> {
    fn executed(&self, k: usize) -> u64 {
        self.conns.iter().map(|c| c.executed_in_window[k]).sum()
    }

    /// Window `k`'s latencies in milliseconds, ascending.
    fn latencies_ms(&self, k: usize) -> Vec<f64> {
        let mut pooled = Vec::new();
        for conn in self.conns {
            let skip: u64 = conn.executed_in_window[..k].iter().sum();
            let take = conn.executed_in_window[k];
            pooled.extend(
                conn.latency_ticks[skip as usize..(skip + take) as usize]
                    .iter()
                    .map(|&t| ticks_to_ms(t)),
            );
        }
        pooled.sort_by(f64::total_cmp);
        pooled
    }
}

/// What loading a rig for the timed windows observed from outside.
struct Loaded {
    conns: Vec<ConnResult>,
    scans: ScanLog,
    /// Process CPU seconds at each window boundary.
    cpu_at: Vec<f64>,
    rss_ready: f64,
    /// `VmRSS` at the end of the last window.
    rss_end: f64,
}

/// Sample-buffer entries reserved per connection and measured second on a
/// closed loop — about twice what `tm1_wire_sat` fills.
const CLOSED_LOOP_SAMPLES_PER_SEC: f64 = 200_000.0;

fn load(spec: &Spec, timing: &Timing, rig: &Rig) -> Loaded {
    let per_conn_rate = match spec.pacing {
        Pacing::Closed { .. } => CLOSED_LOOP_SAMPLES_PER_SEC,
        Pacing::Open { per_conn_rate } => per_conn_rate * 1.1,
    };
    let total_secs = timing.window.as_secs_f64() * timing.windows as f64;
    let buffers = (0..CONNECTIONS)
        .map(|_| touched_buffer((per_conn_rate * total_secs) as usize))
        .collect();

    let rss_ready = rss_bytes();
    let mut cpu_at = Vec::with_capacity(timing.windows + 1);
    let mut rss_end = rss_ready;
    let schedule = timing.schedule_from_now();
    let stop_scanner = AtomicBool::new(false);
    let (conns, scans) = std::thread::scope(|scope| {
        let scanner = rig.full.as_ref().map(|full| {
            let (session, scan, stop) = (&full.session, full.scan, &stop_scanner);
            scope.spawn(move || scanner_loop(session, scan, stop))
        });
        let conns = drive(
            &rig.clients,
            &rig.streams,
            rig.type_names.len(),
            spec.pacing,
            &schedule,
            buffers,
            &mut |k| {
                cpu_at.push(process_cpu_secs());
                if k == timing.windows {
                    rss_end = rss_bytes();
                }
            },
        );
        stop_scanner.store(true, Ordering::Release);
        let scans = scanner.map(|s| s.join().expect("scanner panicked"));
        (conns, scans.unwrap_or_default())
    });
    Loaded {
        conns,
        scans,
        cpu_at,
        rss_ready,
        rss_end,
    }
}

/// `tpcb_wire_full` after `finish()`: the recovered WAL, the follower and the
/// analytics snapshot must all equal the engine's final database, and the
/// balance invariant must hold. Fills in the commit-path counters on the way.
fn check_full_path(
    full: &FullPath,
    db: &Database,
    executed: f64,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let wal = full.dir.join(gputx_durability::manager::WAL_FILE);
    let wal_bytes = std::fs::metadata(wal).map_or(0.0, |meta| meta.len() as f64);
    m.insert("durability.wal_bytes_per_txn", wal_bytes / executed);
    let started = Instant::now();
    match gputx_durability::recover(&full.dir) {
        Ok(recovery) => {
            let micros = started.elapsed().as_secs_f64() * 1e6;
            m.insert("durability.recover_us_per_txn", micros / executed);
            if recovery.db != *db {
                failures.push("recovered WAL differs from the engine's final database".into());
            }
        }
        Err(e) => failures.push(format!("WAL recovery failed: {e}")),
    }
    if !full.replica.wait_applied(full.hub.next_lsn(), WAIT) {
        failures.push("follower never caught up with the hub".into());
    }
    match full.replica.snapshot_db() {
        Some(replicated) if replicated == *db => {}
        Some(_) => failures.push("follower differs from the engine's final database".into()),
        None => failures.push("follower holds no snapshot".into()),
    }
    if let Err(e) = full.session.snapshot().check_against(db) {
        failures.push(format!("analytics snapshot differs: {e}"));
    }
    if let Err(e) = tpcb_balances(db) {
        failures.push(e);
    }
    let replica = full.replica.stats();
    m.insert("replication.lag_p50_ms", replica.lag_p50_ns as f64 / 1e6);
    m.insert("replication.lag_p99_ms", replica.lag_p99_ns as f64 / 1e6);
    m.insert(
        "replication.records_shed",
        full.hub.stats().records_shed as f64,
    );
    m.insert(
        "analytics.apply_ns",
        full.session.stats().apply_us * 1e3 / executed,
    );
}

pub fn run_workload(spec: &Spec, opts: &RunOptions) -> Result<RunReport, String> {
    let spec = if opts.quick { spec.quick() } else { *spec };
    let timing = Timing::of(opts);
    std::fs::create_dir_all(&opts.scratch).map_err(|e| e.to_string())?;
    let wal_dir = |n: usize| {
        opts.scratch
            .join(format!("{}-{}-{n}", spec.name, std::process::id()))
    };

    // Set up several times; each but the last is torn down at once.
    let setting_up = Instant::now();
    let mut setup_secs = Vec::with_capacity(MAX_SETUPS);
    let mut rig = setup_timed(&spec, opts.seed, &wal_dir(0), &mut setup_secs)?;
    while setup_secs.len() < MIN_SETUPS
        || (setup_secs.len() < MAX_SETUPS && setting_up.elapsed() < SETUP_BUDGET)
    {
        discard(teardown(rig)?.full);
        let dir = wal_dir(setup_secs.len());
        rig = setup_timed(&spec, opts.seed, &dir, &mut setup_secs)?;
    }

    let Loaded {
        conns,
        scans,
        cpu_at,
        rss_ready,
        rss_end,
    } = load(&spec, &timing, &rig);
    let type_names = rig.type_names.clone();
    let torn = teardown(rig)?;

    // Every metric starts at 0: the ones a workload has no layer for stay there.
    let mut m: Metrics = PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();

    // ---- correctness -------------------------------------------------------
    let mut failures = Vec::new();
    let mut outcomes = Outcomes::default();
    for conn in &conns {
        outcomes.merge(&conn.outcomes);
    }
    if !outcomes.all_resolved() {
        failures.push(format!(
            "not every submit resolved exactly once: {outcomes:?}"
        ));
    }
    let unmatched: u64 = conns.iter().map(|c| c.unmatched_responses).sum();
    if unmatched != 0 {
        failures.push(format!("{unmatched} responses matched no request"));
    }
    if outcomes.executed() != torn.pipeline.committed + torn.pipeline.aborted {
        failures.push(format!(
            "clients saw {} executed replies, the pipeline executed {}",
            outcomes.executed(),
            torn.pipeline.committed + torn.pipeline.aborted
        ));
    }
    let executed = outcomes.executed().max(1) as f64;
    if let Some(full) = &torn.full {
        check_full_path(full, &torn.db, executed, &mut m, &mut failures);
    }
    discard(torn.full);

    // ---- end-to-end metrics ------------------------------------------------
    let w = Windows {
        conns: &conns,
        window_secs: timing.window.as_secs_f64(),
        windows: timing.windows,
    };
    let latencies: Vec<Vec<f64>> = (0..w.windows).map(|k| w.latencies_ms(k)).collect();
    let per_window = |f: &dyn Fn(usize) -> f64| (0..w.windows).map(f).collect::<Vec<f64>>();
    let mut samples = BTreeMap::new();
    samples.insert(
        "throughput_tps",
        per_window(&|k| w.executed(k) as f64 / w.window_secs),
    );
    samples.insert(
        "latency_p50_ms",
        per_window(&|k| percentile(&latencies[k], 50.0)),
    );
    samples.insert(
        "latency_p95_ms",
        per_window(&|k| percentile(&latencies[k], 95.0)),
    );
    samples.insert(
        "cpu_us_per_txn",
        per_window(&|k| (cpu_at[k + 1] - cpu_at[k]) * 1e6 / w.executed(k).max(1) as f64),
    );
    samples.insert("setup_s", setup_secs);
    samples.insert("rss_ready_mb", vec![rss_ready / (1024.0 * 1024.0)]);
    m.extend(samples.iter().map(|(name, values)| (*name, median(values))));

    // ---- per-layer metrics read from outside -------------------------------
    m.insert("rss_growth_bytes_per_txn", (rss_end - rss_ready) / executed);
    m.insert("failed_ratio", outcomes.failed_ratio());
    let sorted = |mut values: Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values
    };
    let all_latencies = sorted(latencies.into_iter().flatten().collect());
    m.insert("client.latency_p99_ms", percentile(&all_latencies, 99.0));
    let late = sorted(
        conns
            .iter()
            .flat_map(|c| c.late_ticks.iter().map(|&t| ticks_to_ms(t)))
            .collect(),
    );
    m.insert("client.generator_late_p95_ms", percentile(&late, 95.0));

    m.insert("server.requests", torn.server.requests as f64);
    m.insert("server.protocol_errors", torn.server.protocol_errors as f64);

    let p = &torn.pipeline;
    let txns = p.transactions().max(1) as f64;
    let bulks = p.bulks().max(1) as f64;
    for (name, busy_secs) in [
        ("exec.admission_busy_ns", p.stage_busy.admission_secs),
        ("exec.grouping_busy_ns", p.stage_busy.grouping_secs),
        ("exec.execution_busy_ns", p.stage_busy.execution_secs),
        ("exec.commit_busy_ns", p.stage_busy.commit_secs),
    ] {
        m.insert(name, busy_secs * 1e9 / txns);
    }
    m.insert("exec.bulk_size_mean", txns / bulks);
    m.insert(
        "exec.close_by_timer_ratio",
        p.closes.by_timer as f64 / bulks,
    );

    if let Some(d) = torn.decisions {
        let decided = d.total().max(1) as f64;
        m.insert("core.kset_share", d.kset as f64 / decided);
        m.insert("core.part_share", d.part as f64 / decided);
        m.insert("core.tpl_share", d.tpl as f64 / decided);
        m.insert("core.switches", d.switches as f64);
    }

    let cuts = scans.cut_us.len().max(1) as f64;
    m.insert(
        "analytics.cut_p50_us",
        percentile(&sorted(scans.cut_us), 50.0),
    );
    m.insert(
        "analytics.scan_p50_ms",
        percentile(&sorted(scans.scan_ms), 50.0),
    );
    m.insert(
        "analytics.chunks_rebuilt_per_cut",
        scans.chunks_rebuilt as f64 / cuts,
    );

    m.insert("workloads.abort_ratio", outcomes.aborted as f64 / executed);
    if let Some(ty) = type_names.iter().position(|n| n == "NEW_ORDER") {
        let commits: u64 = conns.iter().map(|c| c.committed_by_type[ty]).sum();
        let minutes = w.window_secs * w.windows as f64 / 60.0;
        m.insert("workloads.tpmc", commits as f64 / minutes);
    }

    // ---- the traced pass ---------------------------------------------------
    if opts.trace {
        if spec.name == "tm1_wire_sat" {
            let (tps, cpu_us) = run_in_process(&spec, opts.seed, &timing)?;
            m.insert("exec.inproc_throughput_tps", tps);
            m.insert("exec.inproc_cpu_us_per_txn", cpu_us);
            m.insert("server.wire_tax_ratio", 1.0 - m["throughput_tps"] / tps);
        }
        let traced = stepped::run(&spec, opts)?;
        failures.extend(traced.check_failures);
        for (name, value) in traced.metrics {
            // Where the loaded engine itself has the consumer attached, its
            // own counter stands; elsewhere the stepped replay's span does.
            let counted = matches!(name, "analytics.apply_ns" | "durability.wal_bytes_per_txn");
            if !(counted && spec.full_commit_path) {
                m.insert(name, value);
            }
        }
    }

    Ok(RunReport {
        metrics: m,
        samples,
        attempted: outcomes.submitted,
        failed: outcomes.failed(),
        check_failures: failures,
    })
}

/// The workload's streams through `SubmitHandle::submit` from one thread per
/// stream, no server and no client: what the engine does without the wire.
/// Returns (median window tps, median window CPU µs per transaction).
fn run_in_process(spec: &Spec, seed: u64, timing: &Timing) -> Result<(f64, f64), String> {
    let Pacing::Closed { in_flight } = spec.pacing else {
        return Err("the in-process run is a closed loop".into());
    };
    let mut bundle = spec.data.build();
    let streams = draw_streams(&mut bundle, seed, spec.stream_len);
    let engine = builder_for(spec, bundle.db, bundle.registry).build_pipelined();
    let schedule = timing.schedule_from_now();
    let mut cpu_at = Vec::with_capacity(timing.windows + 1);
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let handle = engine.handle();
                let schedule = &schedule;
                scope.spawn(move || {
                    let mut executed = vec![0u64; schedule.windows];
                    let mut window: VecDeque<Ticket> = VecDeque::with_capacity(in_flight);
                    let mut settle = |ticket: Ticket| {
                        if ticket.wait().is_ok() {
                            if let Some(k) = schedule.window_of(Instant::now()) {
                                executed[k] += 1;
                            }
                        }
                    };
                    for (ty, params) in stream.iter().cycle() {
                        if Instant::now() >= schedule.end() {
                            break;
                        }
                        if window.len() >= in_flight {
                            settle(window.pop_front().expect("window is full"));
                        }
                        match handle.submit(*ty, params.clone()) {
                            Ok(ticket) => window.push_back(ticket),
                            Err(_) => break,
                        }
                    }
                    window.into_iter().for_each(&mut settle);
                    executed
                })
            })
            .collect();
        schedule.at_each_boundary(|_| cpu_at.push(process_cpu_secs()));
        workers
            .into_iter()
            .map(|w| w.join().expect("in-process worker panicked"))
            .collect()
    });
    engine
        .finish()
        .map_err(|e| format!("in-process pipeline did not stay healthy: {e:?}"))?;
    let executed = |k: usize| per_thread.iter().map(|t| t[k]).sum::<u64>().max(1) as f64;
    let windows: Vec<usize> = (0..timing.windows).collect();
    let tps: Vec<f64> = windows
        .iter()
        .map(|&k| executed(k) / timing.window.as_secs_f64())
        .collect();
    let cpu: Vec<f64> = windows
        .iter()
        .map(|&k| (cpu_at[k + 1] - cpu_at[k]) * 1e6 / executed(k))
        .collect();
    Ok((median(&tps), median(&cpu)))
}
