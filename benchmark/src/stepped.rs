//! The traced pass: a stepped replay with a span around every layer.
//!
//! End-to-end numbers are always measured with no spans. Here the benchmark
//! draws a fixed stream from the same seed, replays it once, cut into bulks,
//! against one engine's worth of live state, and calls each
//! layer's public function itself, single-threaded, in the order
//! `GpuTxPlanner::plan` and `GpuTxRunner::run` call them — with a client and
//! a server codec step on either side and every commit consumer attached, so
//! each layer's cost per transaction is known for each workload's
//! transactions whether or not the workload's engine uses that layer.
//!
//! Under `adaptive()` the replay follows the selector the way the pipeline's
//! admission stage does: each decision's suggested bulk size caps the next
//! bulk.
//!
//! Wall-clock only; nothing here reads gpu-sim's simulated costs.

use crate::json::Json;
use crate::load::Txn;
use crate::run::{draw_streams, Metrics, RunOptions};
use crate::spec::Spec;
use crate::stats::median;
use gputx_analytics::AnalyticsSession;
use gputx_core::config::StrategyChoice;
use gputx_core::profiler::profile_bulk;
use gputx_core::{AdaptiveConfig, AdaptiveSelector, EngineBuilder, EngineConfig, StrategyKind};
use gputx_durability::{BulkLogRecord, Durability, FsyncPolicy, WriteCapture};
use gputx_exec::{run_txn_planned, ExecPolicy, Executor, ParallelExecutor, SerialExecutor};
use gputx_replication::{PrimaryHub, Replica};
use gputx_server::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, MAX_FRAME_LEN,
};
use gputx_server::socket_pair;
use gputx_storage::wire::WireWriter;
use gputx_storage::Database;
use gputx_txn::plan::{plan_kset_waves, plan_partition_groups, BulkPlan};
use gputx_txn::{AccessPlan, ProcedureRegistry, TxnId, TxnOutcome, TxnScratch, TxnSignature};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

/// The bulk span every layer span is a child of.
const BULK: &str = "bulk";

/// One span: a name, when it ran, and the span that caused it. Spans of one
/// bulk share its id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub bulk: u32,
    /// Index of the parent span; `None` for a bulk span.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's self time is its duration minus what its children cover. The
/// replay is single-threaded, so children never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.nanos());
        }
    }
    own
}

/// Total nanoseconds per span name.
fn totals(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0) += span.nanos();
    }
    by_name
}

/// Σ child spans ÷ Σ bulk spans: how much of each bulk the layer spans
/// account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let bulk: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::nanos)
        .sum();
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(Span::nanos)
        .sum();
    if bulk == 0 {
        0.0
    } else {
        children as f64 / bulk as f64
    }
}

/// Spans kept in memory. With `on == false` only bulk spans are recorded and
/// the steps run untimed.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
    open: u32,
    bulk: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            on,
            open: 0,
            bulk: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_bulk(&mut self, bulk: u32) {
        self.open = self.spans.len() as u32;
        self.bulk = bulk;
        let start_ns = self.now();
        self.spans.push(Span {
            name: BULK,
            bulk,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn close_bulk(&mut self) {
        let end_ns = self.now();
        self.spans[self.open as usize].end_ns = end_ns;
    }

    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            bulk: self.bulk,
            parent: Some(self.open),
            start_ns,
            end_ns,
        });
        out
    }
}

/// What one segment of the stream produced.
struct Segment {
    spans: Vec<Span>,
    txns: u64,
    kset_bulks: u64,
    waves: u64,
    access_entries: u64,
    request_bytes: u64,
}

impl Segment {
    /// Whole-bulk time per transaction, traced or bare.
    fn bulk_ns_per_txn(&self) -> f64 {
        self.ns_per_txn(BULK)
    }

    fn ns_per_txn(&self, name: &str) -> f64 {
        totals(&self.spans).get(name).copied().unwrap_or(0) as f64 / self.txns as f64
    }
}

/// Mirror of the pipelined runner's schedule replay, on the public executor.
fn run_plan(
    executor: &dyn Executor,
    db: &mut Database,
    registry: &ProcedureRegistry,
    bulk: &[TxnSignature],
    plan: &BulkPlan,
    access: Option<&AccessPlan>,
) -> Result<Vec<(TxnId, TxnOutcome)>, String> {
    let policy = ExecPolicy::functional();
    let by_id: HashMap<TxnId, &TxnSignature> = bulk.iter().map(|s| (s.id, s)).collect();
    let mut outcomes = Vec::with_capacity(bulk.len());
    match plan {
        BulkPlan::ConflictFreeWaves(waves) => {
            for wave in waves {
                let sigs: Vec<&TxnSignature> = wave.iter().map(|id| by_id[id]).collect();
                let executed = executor
                    .run_conflict_free(db, registry, &policy, &sigs, access)
                    .map_err(|e| e.to_string())?;
                outcomes.extend(executed.into_iter().map(|t| (t.id, t.outcome)));
            }
        }
        BulkPlan::DisjointGroups(groups) => {
            let refs: Vec<Vec<&TxnSignature>> = groups
                .iter()
                .map(|g| g.iter().map(|id| by_id[id]).collect())
                .collect();
            let executed = executor
                .run_groups(db, registry, &policy, &refs, access)
                .map_err(|e| e.to_string())?;
            outcomes.extend(executed.into_iter().flatten().map(|t| (t.id, t.outcome)));
        }
        BulkPlan::Serial => {
            let mut scratch = TxnScratch::default();
            for sig in bulk {
                let t = run_txn_planned(db, registry, &policy, sig, access, &mut scratch);
                outcomes.push((t.id, t.outcome));
            }
        }
    }
    db.apply_insert_buffers();
    outcomes.sort_by_key(|(id, _)| *id);
    Ok(outcomes)
}

fn engine_config(spec: &Spec) -> EngineConfig {
    EngineConfig::default().with_strategy(if spec.adaptive {
        StrategyChoice::Adaptive
    } else {
        StrategyChoice::ForceKset
    })
}

/// The live state a replay carries from bulk to bulk: the database, the
/// planner's frozen copy, and every commit consumer.
struct Replay<'a> {
    spec: &'a Spec,
    registry: &'a ProcedureRegistry,
    /// The planner's frozen copy, as `PipelinedGpuTx` keeps one.
    snapshot: &'a Database,
    config: EngineConfig,
    db: Database,
    selector: Option<AdaptiveSelector>,
    /// Close threshold of the next bulk: `max_bulk_size`, lowered by the
    /// adaptive selector's last suggestion.
    limit: usize,
    next_id: TxnId,
    /// Size of every bulk cut so far, for the one-shot reference.
    bulk_sizes: Vec<usize>,
    durability: Durability,
    hub: PrimaryHub,
    replica: Replica,
    session: AnalyticsSession,
}

impl<'a> Replay<'a> {
    fn new(
        spec: &'a Spec,
        seed_db: &'a Database,
        registry: &'a ProcedureRegistry,
        wal_dir: &Path,
    ) -> Result<Replay<'a>, String> {
        let io = |e: std::io::Error| e.to_string();
        let db = seed_db.clone();
        let config = engine_config(spec);
        let selector = spec.adaptive.then(|| {
            AdaptiveSelector::new(
                &config,
                AdaptiveConfig {
                    bulk_ceiling: spec.max_bulk_size,
                    ..AdaptiveConfig::default()
                },
            )
        });
        let durability = Durability::create(wal_dir, FsyncPolicy::PerBulk, &db).map_err(io)?;
        let hub = PrimaryHub::new(&db);
        let (server_end, follower_end) = socket_pair().map_err(io)?;
        hub.attach(server_end).map_err(io)?;
        let replica = Replica::start(follower_end).map_err(io)?;
        if !replica.wait_synced(Duration::from_secs(60)) {
            return Err("stepped replay: follower never synced".into());
        }
        let session = AnalyticsSession::new(&db);
        Ok(Replay {
            spec,
            registry,
            snapshot: seed_db,
            config,
            db,
            selector,
            limit: spec.max_bulk_size,
            next_id: 0,
            bulk_sizes: Vec::new(),
            durability,
            hub,
            replica,
            session,
        })
    }

    /// Replay `stream` bulk by bulk, each layer in pipeline order.
    fn segment(
        &mut self,
        stream: &[Txn],
        executor: &dyn Executor,
        traced: bool,
    ) -> Result<Segment, String> {
        let registry = self.registry;
        let snapshot = self.snapshot;
        let mut tracer = Tracer::new(traced);
        let mut seg = Segment {
            spans: Vec::new(),
            txns: 0,
            kset_bulks: 0,
            waves: 0,
            access_entries: 0,
            request_bytes: 0,
        };
        let mut request_wire: Vec<u8> = Vec::new();
        let mut response_wire: Vec<u8> = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(self.limit.min(rest.len()));
            rest = tail;
            // Load generation, outside the bulk: what the driver hands the
            // client.
            let first_id = self.next_id;
            let requests: Vec<Request> = chunk
                .iter()
                .enumerate()
                .map(|(i, (ty, params))| Request::Submit {
                    request_id: first_id + i as u64 + 1,
                    txn_type: *ty,
                    params: params.clone(),
                    no_wait: false,
                })
                .collect();
            request_wire.clear();
            response_wire.clear();

            tracer.open_bulk(self.bulk_sizes.len() as u32);
            tracer.step("client.encode_request", || {
                for request in &requests {
                    write_frame(&mut request_wire, &encode_request(request))
                        .expect("writing into a Vec cannot fail");
                }
            });
            let sigs: Vec<TxnSignature> = tracer.step("server.decode_request", || {
                let mut wire = Cursor::new(&request_wire[..]);
                let mut sigs = Vec::with_capacity(requests.len());
                while let Some(payload) = read_frame(&mut wire, MAX_FRAME_LEN).expect("own frames")
                {
                    match decode_request(&payload).expect("own requests") {
                        Request::Submit {
                            txn_type, params, ..
                        } => {
                            let id = first_id + sigs.len() as u64;
                            sigs.push(TxnSignature::new(id, txn_type, params));
                        }
                        other => unreachable!("only submits are encoded: {other:?}"),
                    }
                }
                sigs
            });
            self.next_id += sigs.len() as u64;

            let strategy = match self.selector.as_mut() {
                None => StrategyKind::Kset,
                Some(selector) => {
                    let decision = tracer.step("core.profile", || {
                        selector.decide(&profile_bulk(registry, snapshot, &sigs))
                    });
                    self.limit = decision
                        .suggested_bulk_size
                        .clamp(1, self.spec.max_bulk_size);
                    decision.strategy
                }
            };
            let plan = match strategy {
                StrategyKind::Kset => {
                    let ops: Vec<_> = tracer.step("txn.rwset", || {
                        sigs.iter()
                            .map(|sig| (sig.id, registry.read_write_set(sig, snapshot)))
                            .collect()
                    });
                    let waves = tracer.step("txn.rank", || plan_kset_waves(&ops));
                    seg.kset_bulks += 1;
                    seg.waves += waves.len() as u64;
                    BulkPlan::ConflictFreeWaves(waves)
                }
                StrategyKind::Part => {
                    let keys: Vec<(TxnId, Option<u64>)> = tracer.step("txn.rwset", || {
                        sigs.iter()
                            .map(|sig| (sig.id, registry.partition_key(sig)))
                            .collect()
                    });
                    let size = self.config.partition_size;
                    match tracer.step("txn.rank", || plan_partition_groups(&keys, size)) {
                        Some(groups) => BulkPlan::DisjointGroups(groups),
                        None => BulkPlan::Serial,
                    }
                }
                StrategyKind::Tpl => BulkPlan::Serial,
            };
            let mut access = tracer.step("txn.access_plan", || {
                AccessPlan::build(registry, snapshot, &sigs)
            });
            seg.access_entries += access.num_entries() as u64;
            let planned = !access.is_empty();
            let db = &mut self.db;
            tracer.step("txn.revalidate", || access.revalidate(db));

            let capture = tracer.step("durability.capture", || WriteCapture::begin(db));
            let outcomes = tracer.step("exec.run", || {
                run_plan(
                    executor,
                    db,
                    registry,
                    &sigs,
                    &plan,
                    planned.then_some(&access),
                )
            })?;
            let write_set = tracer.step("durability.capture", || capture.finish(db));
            let record = BulkLogRecord {
                lsn: self.durability.next_lsn(),
                write_set,
            };
            tracer.step("storage.record_encode", || {
                black_box(record.encode());
            });
            tracer
                .step("durability.wal_append", || {
                    self.durability.append_record(&record)
                })
                .map_err(|e| e.to_string())?;
            tracer.step("replication.publish", || self.hub.publish(&record));
            tracer.step("analytics.apply", || self.session.publish(&record));

            tracer.step("server.encode_response", || {
                for (request, (txn_id, outcome)) in requests.iter().zip(&outcomes) {
                    let request_id = request.request_id();
                    let response = match outcome {
                        TxnOutcome::Committed => Response::Committed {
                            request_id,
                            txn_id: *txn_id,
                        },
                        TxnOutcome::Aborted(_) => Response::Aborted {
                            request_id,
                            txn_id: *txn_id,
                        },
                    };
                    write_frame(&mut response_wire, &encode_response(&response))
                        .expect("writing into a Vec cannot fail");
                }
            });
            tracer.step("client.decode_response", || {
                let mut wire = Cursor::new(&response_wire[..]);
                while let Some(payload) = read_frame(&mut wire, MAX_FRAME_LEN).expect("own frames")
                {
                    black_box(decode_response(&payload).expect("own responses"));
                }
            });
            tracer.close_bulk();

            seg.txns += sigs.len() as u64;
            seg.request_bytes += request_wire.len() as u64;
            self.bulk_sizes.push(sigs.len());
        }
        seg.spans = tracer.spans;
        Ok(seg)
    }

    /// Stop the consumers and hand back the final database, the WAL size and
    /// the bulk boundaries.
    fn finish(mut self) -> (Database, u64, Vec<usize>) {
        let wal_bytes = self.durability.stats().wal_bytes;
        self.hub.stop();
        self.replica.stop();
        let dir = self.durability.dir().to_path_buf();
        drop(self.durability);
        let _ = std::fs::remove_dir_all(dir);
        (self.db, wal_bytes, self.bulk_sizes)
    }
}

/// The same stream through a one-shot `EngineBuilder::build()` engine, cut at
/// the same bulk boundaries: inserts become visible when their bulk commits,
/// so where a bulk ends is part of the result.
fn one_shot(
    spec: &Spec,
    seed_db: &Database,
    registry: &ProcedureRegistry,
    stream: &[Txn],
    bulk_sizes: &[usize],
) -> Database {
    let builder =
        EngineBuilder::new(seed_db.clone(), registry.clone()).with_bulk_size(spec.max_bulk_size);
    let mut engine = if spec.adaptive {
        builder.adaptive()
    } else {
        builder.with_strategy(StrategyChoice::ForceKset)
    }
    .build();
    let mut rest = stream;
    for &size in bulk_sizes {
        let (bulk, tail) = rest.split_at(size);
        rest = tail;
        for (ty, params) in bulk {
            engine.submit(*ty, params.clone());
        }
        engine.run_until_empty();
    }
    engine.db().clone()
}

pub struct Traced {
    pub metrics: Metrics,
    pub check_failures: Vec<String>,
}

/// How one segment of the stream is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Serial executor, a span around every step.
    Traced,
    /// Serial executor, only the per-bulk timer: what tracing costs.
    Bare,
    /// `ParallelExecutor::new(nproc)`, traced; only its `exec.run` is read.
    Parallel,
}

/// The stream is replayed once, as equal segments in these modes. Traced and
/// bare alternate so drift in the growing tables hits both alike; per-span
/// numbers are the median of the traced segments.
const SEGMENTS: [Mode; 7] = [
    Mode::Traced,
    Mode::Bare,
    Mode::Traced,
    Mode::Bare,
    Mode::Traced,
    Mode::Bare,
    Mode::Parallel,
];

pub fn run(spec: &Spec, opts: &RunOptions) -> Result<Traced, String> {
    let mut bundle = spec.data.build();
    // One stream, the first connection's draw.
    let stream = draw_streams(&mut bundle, opts.seed, spec.traced_len).swap_remove(0);
    let (seed_db, registry) = (bundle.db, bundle.registry);
    let wal_dir = opts
        .scratch
        .join(format!("{}-{}-stepped", spec.name, std::process::id()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_executor = ParallelExecutor::new(nproc);

    let clone_ms: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(seed_db.clone());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let mut replay = Replay::new(spec, &seed_db, &registry, &wal_dir)?;
    let per_segment = stream.len().div_ceil(SEGMENTS.len());
    let mut segments = Vec::with_capacity(SEGMENTS.len());
    for (mode, part) in SEGMENTS.iter().zip(stream.chunks(per_segment)) {
        let executor: &dyn Executor = match mode {
            Mode::Parallel => &parallel_executor,
            Mode::Traced | Mode::Bare => &SerialExecutor,
        };
        segments.push((*mode, replay.segment(part, executor, *mode != Mode::Bare)?));
    }
    let (final_db, wal_bytes, bulk_sizes) = replay.finish();

    let mut failures = Vec::new();
    if final_db != one_shot(spec, &seed_db, &registry, &stream, &bulk_sizes) {
        failures.push(
            "the stepped replay's final database differs from the one-shot engine's".to_string(),
        );
    }

    let of = |mode: Mode| {
        segments
            .iter()
            .filter(move |(m, _)| *m == mode)
            .map(|(_, s)| s)
    };
    let over_traced =
        |f: &dyn Fn(&Segment) -> f64| median(&of(Mode::Traced).map(f).collect::<Vec<_>>());
    let whole =
        |f: &dyn Fn(&Segment) -> u64| segments.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    let txns = whole(&|s| s.txns);
    let mut m = Metrics::new();
    for (metric, span) in [
        ("client.encode_request_ns", "client.encode_request"),
        ("server.decode_request_ns", "server.decode_request"),
        ("core.profile_ns", "core.profile"),
        ("txn.rwset_ns", "txn.rwset"),
        ("txn.rank_ns", "txn.rank"),
        ("txn.access_plan_ns", "txn.access_plan"),
        ("txn.revalidate_ns", "txn.revalidate"),
        ("durability.capture_ns", "durability.capture"),
        ("exec.run_ns", "exec.run"),
        ("storage.record_encode_ns", "storage.record_encode"),
        ("durability.wal_append_ns", "durability.wal_append"),
        ("replication.publish_ns", "replication.publish"),
        ("analytics.apply_ns", "analytics.apply"),
        ("server.encode_response_ns", "server.encode_response"),
        ("client.decode_response_ns", "client.decode_response"),
    ] {
        m.insert(metric, over_traced(&|s| s.ns_per_txn(span)));
    }
    m.insert(
        "exec.run_parallel_ns",
        median(
            &of(Mode::Parallel)
                .map(|s| s.ns_per_txn("exec.run"))
                .collect::<Vec<_>>(),
        ),
    );
    m.insert("server.request_bytes", whole(&|s| s.request_bytes) / txns);
    m.insert(
        "txn.waves_per_bulk",
        whole(&|s| s.waves) / whole(&|s| s.kset_bulks).max(1.0),
    );
    m.insert(
        "txn.access_entries_per_txn",
        whole(&|s| s.access_entries) / txns,
    );
    m.insert("durability.wal_bytes_per_txn", wal_bytes as f64 / txns);
    m.insert("storage.db_clone_ms", median(&clone_ms));
    let mut encoded = WireWriter::new();
    seed_db.encode_into(&mut encoded);
    m.insert(
        "storage.db_encoded_mb",
        encoded.len() as f64 / (1024.0 * 1024.0),
    );
    let cover = over_traced(&|s| coverage(&s.spans));
    m.insert("trace.coverage_ratio", cover);
    if cover < 0.95 {
        failures.push(format!(
            "layer spans cover only {cover:.3} of the bulk spans; the per-layer table would be lying"
        ));
    }
    m.insert(
        "trace.span_overhead_ns",
        over_traced(&Segment::bulk_ns_per_txn)
            - median(
                &of(Mode::Bare)
                    .map(Segment::bulk_ns_per_txn)
                    .collect::<Vec<_>>(),
            ),
    );

    write_trace(spec, opts, txns, &segments, &m)?;
    Ok(Traced {
        metrics: m,
        check_failures: failures,
    })
}

/// `trace-<workload>.json`: every span the replay recorded, with self times,
/// plus the per-layer numbers derived from them. Parent indices are per
/// segment, so the file keeps each segment's spans in their own array.
fn write_trace(
    spec: &Spec,
    opts: &RunOptions,
    txns: f64,
    segments: &[(Mode, Segment)],
    metrics: &Metrics,
) -> Result<(), String> {
    let segment_json = |(mode, segment): &(Mode, Segment)| {
        let own = self_times(&segment.spans);
        let spans = segment
            .spans
            .iter()
            .zip(&own)
            .map(|(span, &self_ns)| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("bulk", Json::Num(span.bulk as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("mode", Json::str(format!("{mode:?}").to_lowercase())),
            ("transactions", Json::Num(segment.txns as f64)),
            ("spans", Json::Arr(spans)),
        ])
    };
    let doc = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("transactions", Json::Num(txns)),
        (
            "per_layer",
            Json::obj(metrics.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "segments",
            Json::Arr(segments.iter().map(segment_json).collect()),
        ),
    ]);
    std::fs::create_dir_all(&opts.results).map_err(|e| e.to_string())?;
    let path = opts.results.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, doc.to_line()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            bulk: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(BULK, None, 0, 1_000),
            span("txn.rank", Some(0), 100, 400),
            span("exec.run", Some(0), 400, 900),
            span(BULK, None, 1_000, 1_500),
            span("exec.run", Some(3), 1_000, 1_500),
        ];
        assert_eq!(self_times(&spans), vec![200, 300, 500, 0, 500]);
        let by_name = totals(&spans);
        assert_eq!(by_name["exec.run"], 1_000);
        assert_eq!(by_name[BULK], 1_500);
        // 300 + 500 + 500 of 1500.
        assert!((coverage(&spans) - 1_300.0 / 1_500.0).abs() < 1e-12);
    }

    #[test]
    fn a_bare_tracer_records_only_bulk_spans() {
        let mut tracer = Tracer::new(false);
        tracer.open_bulk(7);
        assert_eq!(tracer.step("exec.run", || 41 + 1), 42);
        tracer.close_bulk();
        assert_eq!(tracer.spans.len(), 1);
        assert_eq!(tracer.spans[0].bulk, 7);
        assert!(tracer.spans[0].parent.is_none());

        let mut tracer = Tracer::new(true);
        tracer.open_bulk(0);
        tracer.step("exec.run", || ());
        tracer.close_bulk();
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
    }
}
