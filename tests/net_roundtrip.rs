//! End-to-end tests of the network front door (gputx-server + gputx-client).
//!
//! * **Wire == in-process** — a seeded TM1 / micro stream submitted through
//!   one wire connection (socket pair or loopback TCP) must commit the exact
//!   same final database state and per-transaction outcomes as submitting the
//!   same stream into `PipelinedGpuTx` directly. A single connection
//!   preserves submission order, so with size-based bulk boundaries the two
//!   runs are bit-identical.
//! * **Failure is data** — a malformed frame gets an `Error` response and a
//!   connection close (other connections unaffected); a client that vanishes
//!   mid-bulk loses only its responses, never its admitted transactions; a
//!   `no_wait` overload sheds with `QueueFull` and the committed state equals
//!   a serial replay of exactly the admitted subset.
//! * **Shutdown** — dropping the engine while wire submitters are live
//!   resolves their in-flight replies as `Disconnected` instead of hanging
//!   (the engine refuses new submits before it drains).
//! * **Codec fuzz** — arbitrary garbled/byte-chopped request streams yield
//!   clean per-connection errors, never a panic and never a committed
//!   partial request; the buffered frame reader fed 1..k bytes at a time
//!   gives the verdicts the unbuffered one does (proptest).
//! * **Batching** — the responder never holds a resolved response back for
//!   an unresolved one (flush before block), and a peer that dies under a
//!   burst still has every submit drained. The reader admits what it decoded
//!   before a read that can block, answers requests in request order (a
//!   Ping after submits, a `QueueFull` at its own position), and a peer that
//!   never reads stalls its reader at a bounded number of requests.
//! * **Lossless under concurrency** — two connections submitting from their
//!   own threads, each with a bounded window in flight, resolve every
//!   transaction exactly once.

use gputx_client::{Client, ClientConfig, Reply, TxnResult};
use gputx_core::config::StrategyChoice;
use gputx_core::{EngineBuilder, PipelineConfig, PipelinedGpuTx};
use gputx_exec::{BulkRunner, ExecError, PipelineOptions, PipelinedEngine};
use gputx_server::proto::{
    self, encode_request, read_frame, write_frame, FrameError, Request, Response,
};
use gputx_server::{socket_pair, Duplex, Server, ServerConfig};
use gputx_storage::wire::crc32;
use gputx_storage::{Database, Value};
use gputx_txn::{TxnId, TxnOutcome, TxnSignature, TxnTypeId};
use gputx_workloads::{MicroConfig, MicroWorkload, Tm1Config, WorkloadBundle};
use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const BULK: usize = 256;

fn tm1() -> WorkloadBundle {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    bundle.reseed(0xBEEF);
    bundle
}

fn micro() -> WorkloadBundle {
    let mut bundle = MicroWorkload::build(
        &MicroConfig::default()
            .with_tuples(512)
            .with_types(4)
            .with_skew(0.4),
    );
    bundle.reseed(0xF00D);
    bundle
}

/// Pipeline config with size-based bulk boundaries only (the huge deadline
/// never fires), so two runs over the same stream close identical bulks.
fn deterministic_config() -> PipelineConfig {
    PipelineConfig::default()
        .with_max_bulk_size(BULK)
        .with_max_wait_us(60_000_000)
}

fn engine_for(bundle: &WorkloadBundle, pipeline: PipelineConfig) -> PipelinedGpuTx {
    EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_pipeline(pipeline)
        .build_pipelined()
}

/// Reference: the same stream submitted in-process, no wire. Returns the
/// final database and each transaction's `(txn_id, committed?)`.
fn in_process_run(
    bundle: &WorkloadBundle,
    stream: &[(TxnTypeId, Vec<Value>)],
) -> (Database, Vec<(u64, bool)>) {
    let engine = engine_for(bundle, deterministic_config());
    let tickets: Vec<_> = stream
        .iter()
        .map(|(ty, params)| {
            engine
                .submit(*ty, params.clone())
                .expect("in-process submit")
        })
        .collect();
    // Close any trailing partial bulk now. Submission is synchronous, so the
    // flush lands after every transaction and the bulk boundaries stay
    // deterministic — the wait below never sits out the deadline.
    engine.flush().expect("flush");
    let outcomes = tickets
        .iter()
        .map(|t| {
            let (id, outcome) = t.wait().expect("pipeline stays healthy");
            (id, outcome.is_committed())
        })
        .collect();
    let (db, _stats) = engine.finish().expect("clean finish");
    (db, outcomes)
}

/// The same stream submitted through one wire connection.
fn wire_run(
    bundle: &WorkloadBundle,
    stream: &[(TxnTypeId, Vec<Value>)],
    connect: impl FnOnce(&Server) -> Client,
) -> (Database, Vec<(u64, bool)>) {
    let engine = engine_for(bundle, deterministic_config());
    let server = Server::new(engine.handle());
    let client = connect(&server);
    let replies: Vec<_> = stream
        .iter()
        .map(|(ty, params)| client.submit(*ty, params.clone()).expect("wire submit"))
        .collect();
    let outcomes = replies
        .iter()
        .map(|r| match r.wait().expect("reply resolves") {
            TxnResult::Committed(id) => (id, true),
            TxnResult::Aborted(id) => (id, false),
            other => panic!("unexpected wire resolution {other:?}"),
        })
        .collect();
    assert_eq!(client.unmatched_responses(), 0);
    drop(client);
    server.stop();
    let (db, _stats) = engine.finish().expect("clean finish");
    (db, outcomes)
}

fn assert_wire_matches_in_process(mut bundle: WorkloadBundle, n: usize, tcp: bool) {
    // An exact multiple of BULK: the final bulk closes by size on both sides,
    // so neither run sits out the (deliberately unreachable) deadline.
    assert_eq!(n % BULK, 0, "stream length must be a multiple of BULK");
    let stream = bundle.generate(n);
    let (db_ref, out_ref) = in_process_run(&bundle, &stream);
    let (db_wire, out_wire) = wire_run(&bundle, &stream, |server| {
        if tcp {
            let addr = server.listen("127.0.0.1:0").expect("bind loopback");
            Client::connect(addr).expect("connect")
        } else {
            let (server_end, client_end) = socket_pair().expect("socketpair");
            server.attach(server_end).expect("attach");
            Client::from_duplex(client_end).expect("client")
        }
    });
    assert_eq!(out_wire, out_ref, "per-transaction outcomes must match");
    assert!(
        db_wire == db_ref,
        "wire and in-process final database states must be bit-identical"
    );
    assert!(
        out_ref.iter().any(|(_, committed)| *committed),
        "the stream must commit something for the comparison to mean anything"
    );
}

#[test]
fn wire_tm1_matches_in_process_over_socket_pair() {
    assert_wire_matches_in_process(tm1(), 3 * BULK, false);
}

#[test]
fn wire_micro_matches_in_process_over_socket_pair() {
    assert_wire_matches_in_process(micro(), 2 * BULK, false);
}

#[test]
fn wire_tm1_matches_in_process_over_loopback_tcp() {
    assert_wire_matches_in_process(tm1(), 2 * BULK, true);
}

/// A malformed frame is answered with a connection-scoped `Error` response
/// and a close — while a well-formed connection to the same server keeps
/// working.
#[test]
fn malformed_frame_gets_error_response_then_close() {
    let bundle = tm1();
    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::new(engine.handle());

    // Raw connection: one clean frame, then a frame whose payload is garbled
    // after the CRC was computed (a corrupted-in-flight frame).
    let (server_end, mut raw) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let payload = encode_request(&Request::Ping { request_id: 9 });
    write_frame(&mut raw, &payload).expect("first frame is fine");
    let mut bad = Vec::new();
    bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bad.extend_from_slice(&crc32(&payload).to_le_bytes());
    let mut garbled = payload.clone();
    *garbled.last_mut().expect("non-empty payload") ^= 0xFF;
    bad.extend_from_slice(&garbled);
    raw.write_all(&bad).expect("write garbled frame");
    // First response: the Pong. Second: the connection-scoped Error.
    let pong = read_frame(&mut raw, proto::MAX_FRAME_LEN)
        .expect("read pong")
        .expect("pong present");
    assert_eq!(
        proto::decode_response(&pong).expect("pong decodes"),
        Response::Pong { request_id: 9 }
    );
    let err = read_frame(&mut raw, proto::MAX_FRAME_LEN)
        .expect("read error response")
        .expect("error present");
    match proto::decode_response(&err).expect("error decodes") {
        Response::Error { request_id: 0, .. } => {}
        other => panic!("expected connection-scoped Error, got {other:?}"),
    }
    // Then EOF: the server closed the bad connection.
    assert!(matches!(
        read_frame(&mut raw, proto::MAX_FRAME_LEN),
        Ok(None) | Err(FrameError::Io(_)) | Err(FrameError::Corrupt(_))
    ));

    // A fresh, well-formed connection still works.
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    client.ping().expect("healthy connection still served");
    drop(client);
    server.stop();
    assert_eq!(server.stats().protocol_errors, 1);
    engine.finish().expect("clean finish");
}

/// A client that disconnects mid-bulk (without ever reading responses) loses
/// only its responses: every transaction it submitted was admitted and
/// commits, bit-identical to an in-process run of the same stream.
#[test]
fn mid_bulk_disconnect_preserves_admitted_transactions() {
    let mut bundle = tm1();
    // 300 is deliberately not a multiple of BULK: the tail is mid-bulk when
    // the client vanishes.
    let stream = bundle.generate(300);
    let (db_ref, _) = in_process_run(&bundle, &stream);

    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    for (ty, params) in &stream {
        client.submit(*ty, params.clone()).expect("wire submit");
    }
    // Vanish without reading a single response. The socket-pair transport
    // delivers everything written before the close, then EOF.
    drop(client);
    // Once all 300 submits have returned, the flush closes the open tail
    // where `in_process_run`'s flush does, so the responders need not wait
    // out the 60 s `max_wait` before `stop` can join them.
    while server.stats().requests < 300 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    engine.flush().expect("flush the tail bulk");
    server.stop();
    let (db_wire, stats) = engine.finish().expect("clean finish");
    assert_eq!(
        stats.committed + stats.aborted,
        300,
        "every admitted transaction must still resolve"
    );
    assert!(
        db_wire == db_ref,
        "disconnect must not lose or duplicate admitted transactions"
    );
}

/// Overdrive a tiny admission queue with `no_wait` submits: some are shed
/// with `QueueFull`, and the final state equals a serial replay of exactly
/// the admitted (non-shed) subset, in submission order.
#[test]
fn queue_full_shedding_commits_exactly_the_admitted_subset() {
    // Micro is update-only, so the serial replay is insensitive to where the
    // engine's bulk boundaries fell.
    let mut bundle = MicroWorkload::build(
        &MicroConfig::default()
            .with_tuples(256)
            .with_types(4)
            .with_compute(8)
            .with_skew(0.5),
    );
    bundle.reseed(0xA11CE);
    let stream = bundle.generate(2_500);

    let engine = engine_for(
        &bundle,
        // The replay is boundary-insensitive, so a short deadline is fine —
        // it closes the final partial bulk without a long sit.
        PipelineConfig::default()
            .with_max_bulk_size(128)
            .with_max_wait_us(2_000)
            .with_queue_depth(1),
    );
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    let replies: Vec<_> = stream
        .iter()
        .map(|(ty, params)| {
            client
                .submit_nowait(*ty, params.clone())
                .expect("wire submit")
        })
        .collect();
    // The responses reveal the admitted subset, in submission order.
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for (reply, (ty, params)) in replies.iter().zip(&stream) {
        match reply.wait().expect("reply resolves") {
            TxnResult::Committed(_) | TxnResult::Aborted(_) => admitted.push((*ty, params.clone())),
            TxnResult::QueueFull => shed += 1,
            other => panic!("unexpected resolution {other:?}"),
        }
    }
    drop(client);
    server.stop();
    let (db_wire, _stats) = engine.finish().expect("clean finish");
    assert!(shed > 0, "the tiny queue must shed under overdrive");
    assert!(!admitted.is_empty(), "some transactions must get through");

    // Serial replay of exactly the admitted subset.
    let mut db_ref = bundle.db.clone();
    for (i, (ty, params)) in admitted.iter().enumerate() {
        let sig = TxnSignature::new(i as u64, *ty, params.clone());
        bundle.registry.execute(&sig, &mut db_ref);
    }
    db_ref.apply_insert_buffers();
    assert!(
        db_wire == db_ref,
        "committed state must be the admitted subset, nothing more or less"
    );
}

/// Dropping the engine while a wire connection is still submitting resolves
/// that connection's in-flight replies as `Disconnected` — promptly, instead
/// of blocking engine teardown on the remote submitter (the engine refuses
/// new submits before it drains, seen through the wire).
#[test]
fn engine_drop_with_live_wire_connection_resolves_disconnected() {
    let bundle = micro();
    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");

    let before = client
        .submit(0, vec![Value::Int(1)])
        .expect("submit while engine lives");
    // Tear the engine down mid-flight. `server` still holds a live
    // SubmitHandle until the end of this test, so `drop` returning at all is
    // the assertion: teardown does not wait for wire submitters to go away.
    drop(engine);
    // The pre-drop submit resolves (committed by the drain, or disconnected
    // if the gate closed first) — it must not hang.
    let first = before.wait().expect("pre-drop reply resolves");
    assert!(
        matches!(
            first,
            TxnResult::Committed(_) | TxnResult::Aborted(_) | TxnResult::Disconnected
        ),
        "unexpected pre-drop resolution {first:?}"
    );
    // Post-drop submits resolve as Disconnected — the wire stays responsive.
    let after = client
        .submit(0, vec![Value::Int(2)])
        .expect("the wire itself is still up");
    assert_eq!(
        after.wait().expect("post-drop reply"),
        TxnResult::Disconnected
    );
    client.ping().expect("connection still serves pings");
    drop(client);
    server.stop();
}

/// `attach()` on a stopped server is refused outright and the stream is
/// closed, so the would-be client sees EOF instead of a silent half-open
/// socket.
#[test]
fn attach_after_stop_is_refused() {
    let bundle = micro();
    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::new(engine.handle());
    server.stop();
    let (server_end, _client_end) = socket_pair().expect("socketpair");
    let err = server.attach(server_end).expect_err("attach after stop");
    assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);
}

/// `stop()` racing an in-flight `attach()` must never orphan a connection:
/// either the attach is refused (stream closed, client sees EOF) or it
/// registers in time for `stop()` to close and join it. Before the
/// stopping-gate in `attach_to`, `stop()` could drain the connection list
/// between `attach`'s thread spawns and its registration — leaving live
/// reader/responder threads whose client then hung forever.
#[test]
fn stop_racing_attach_never_orphans_the_client() {
    use std::io::Read;
    for _ in 0..32 {
        let bundle = micro();
        let engine = engine_for(&bundle, deterministic_config());
        let server = std::sync::Arc::new(Server::new(engine.handle()));
        let (server_end, client_end) = socket_pair().expect("socketpair");
        let attacher = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || server.attach(server_end))
        };
        let stopper = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || server.stop())
        };
        let attached = attacher.join().expect("attach thread");
        stopper.join().expect("stop thread");
        // Whatever the interleaving, the client end must reach EOF promptly;
        // a read that times out here is exactly the orphaned-connection bug.
        client_end
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut buf = [0u8; 1];
        match (&client_end).read(&mut buf) {
            Ok(0) => {} // clean EOF
            Ok(_) => panic!("server sent an unsolicited frame"),
            Err(e) => assert!(
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut,
                "client read timed out — connection orphaned (attach: {attached:?})"
            ),
        }
    }
}

/// Two plain clients over socket pairs, each submitting its own TM1 stream
/// from its own thread with a bounded number of requests in flight: every
/// reply resolves exactly once (to a distinct transaction id), no response
/// goes unmatched, and the engine resolves exactly what was submitted.
#[test]
fn two_clients_over_socket_pairs_are_lossless() {
    const IN_FLIGHT: usize = 32;
    let mut bundle = tm1();
    let streams: Vec<_> = (0..2).map(|_| bundle.generate(512)).collect();
    let submitted: usize = streams.iter().map(Vec::len).sum();
    let engine = engine_for(
        &bundle,
        PipelineConfig::default()
            .with_max_bulk_size(128)
            .with_max_wait_us(2_000),
    );
    let server = Server::new(engine.handle());
    let outcomes: Vec<(u64, bool)> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (server_end, client_end) = socket_pair().expect("socketpair");
                server.attach(server_end).expect("attach");
                let client = Client::from_duplex(client_end).expect("client");
                scope.spawn(move || {
                    let settle = |reply: Reply| match reply.wait().expect("reply resolves") {
                        TxnResult::Committed(id) => (id, true),
                        TxnResult::Aborted(id) => (id, false),
                        other => panic!("unexpected wire resolution {other:?}"),
                    };
                    let mut window = VecDeque::with_capacity(IN_FLIGHT);
                    let mut outcomes = Vec::with_capacity(stream.len());
                    for (ty, params) in stream {
                        if window.len() == IN_FLIGHT {
                            outcomes.push(settle(window.pop_front().expect("full window")));
                        }
                        window.push_back(client.submit(*ty, params.clone()).expect("wire submit"));
                    }
                    outcomes.extend(window.into_iter().map(settle));
                    assert_eq!(client.unmatched_responses(), 0);
                    outcomes
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    server.stop();
    let (_db, stats) = engine.finish().expect("clean finish");

    let ids: HashSet<u64> = outcomes.iter().map(|(id, _)| *id).collect();
    assert_eq!(outcomes.len(), submitted, "every submit resolves");
    assert_eq!(ids.len(), submitted, "no transaction resolves twice");
    let committed = outcomes.iter().filter(|(_, c)| *c).count() as u64;
    assert!(committed > 0, "the run must commit transactions");
    assert_eq!(committed, stats.committed, "client and engine agree");
    assert_eq!(stats.committed + stats.aborted, submitted as u64);
}

/// A transport whose `shutdown_both` is a no-op: models peers/transports
/// where close cannot unblock a reader stuck in `read`. The client's
/// Drop-join guarantee must then come from the read timeout + closing flag.
struct NoShutdown(std::os::unix::net::UnixStream);

impl std::io::Read for NoShutdown {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for NoShutdown {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Duplex for NoShutdown {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Duplex>> {
        Ok(Box::new(NoShutdown(self.0.try_clone()?)))
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
}

/// Regression: dropping a client whose server died without a FIN (and whose
/// transport cannot be shut down) must not hang. The reader polls the
/// closing flag on read timeouts, so `close`/`Drop` always join.
#[test]
fn client_drop_joins_even_without_fin_or_shutdown() {
    let (server_end, client_end) = socket_pair().expect("socketpair");
    let config = ClientConfig {
        read_timeout: Some(Duration::from_millis(50)),
        ..ClientConfig::default()
    };
    let client = Client::from_duplex_with(NoShutdown(client_end), config).expect("client");
    // The peer is silent and never closes; without the timeout the reader
    // would block in `read` forever and the no-op shutdown could not
    // unblock it. `server_end` stays open across the drop, so the join
    // returning at all is the assertion.
    drop(client);
    drop(server_end);
}

/// A reconnect-enabled client survives its connection being reset out from
/// under it: read-only pings retry onto a fresh connection, later submits
/// flow there, and nothing is ever retransmitted (unmatched stays 0).
#[test]
fn reconnecting_client_survives_connection_reset() {
    use std::sync::{Arc, Mutex};
    let mut bundle = tm1();
    let stream = bundle.generate(64);
    let engine = engine_for(
        &bundle,
        PipelineConfig::default()
            .with_max_bulk_size(8)
            .with_max_wait_us(500),
    );
    let server = Arc::new(Server::new(engine.handle()));
    // The connector stashes a handle to the latest client-side stream so the
    // test can yank the wire.
    let current: Arc<Mutex<Option<std::os::unix::net::UnixStream>>> = Arc::new(Mutex::new(None));
    let client = Client::with_connector(
        {
            let server = Arc::clone(&server);
            let current = Arc::clone(&current);
            move || {
                let (server_end, client_end) = socket_pair()?;
                server.attach(server_end)?;
                *current.lock().expect("stash lock") = Some(client_end.try_clone()?);
                Ok(Box::new(client_end) as Box<dyn Duplex>)
            }
        },
        ClientConfig {
            connect_timeout: None,
            read_timeout: Some(Duration::from_millis(25)),
            reconnect: Some(gputx_faults::BackoffPolicy::default()),
        },
    )
    .expect("initial connect");
    assert_eq!(client.reconnects(), 0);

    // Work flows on the first connection.
    let (ty0, params0) = stream[0].clone();
    let first = client.submit(ty0, params0).expect("pre-reset submit");
    client.ping().expect("pre-reset barrier");
    assert!(matches!(
        first.wait().expect("pre-reset reply"),
        TxnResult::Committed(_) | TxnResult::Aborted(_)
    ));

    // Yank the wire. The reset lands on a quiesced connection, so no
    // in-flight submit is ambiguous here.
    current
        .lock()
        .expect("stash lock")
        .as_ref()
        .expect("connected at least once")
        .shutdown(std::net::Shutdown::Both)
        .expect("reset");

    // Read-only ping heals across the outage.
    client.ping().expect("ping survives the reset");
    assert!(client.reconnects() >= 1, "a reconnect must have happened");

    // Submits commit on the fresh connection. Right after the reset a
    // submit can race the reader noticing EOF and resolve `Disconnected`
    // (ambiguous, never retransmitted) — later ones land.
    let mut committed = false;
    for (ty, params) in stream.iter().skip(1) {
        match client
            .submit(*ty, params.clone())
            .expect("post-reset submit")
            .wait()
            .expect("post-reset reply")
        {
            TxnResult::Committed(_) => {
                committed = true;
                break;
            }
            TxnResult::Aborted(_) | TxnResult::Disconnected => continue,
            other => panic!("unexpected post-reset resolution {other:?}"),
        }
    }
    assert!(committed, "a submit must commit after the reconnect");
    assert_eq!(client.unmatched_responses(), 0);
    drop(client);
    server.stop();
    engine.finish().expect("clean finish");
}

/// The wire `Health` request: unwired servers answer the canonical unwired
/// report; a server given the engine's health surface reports live WAL
/// state.
#[test]
fn health_report_served_over_wire() {
    let bundle = tm1();
    let dir = std::env::temp_dir().join(format!("gputx-net-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_durability(&dir)
        .with_pipeline(deterministic_config());
    let health = builder.health();
    let engine = builder.build_pipelined();
    let server = Server::new(engine.handle());

    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");

    // Nothing served yet: the canonical unwired report.
    let unwired = client.health().expect("health answered");
    assert_eq!(unwired, gputx_faults::HealthReport::unwired());

    server.serve_health(health);
    let report = client.health().expect("health answered");
    assert_eq!(report.wal, gputx_faults::WalState::Healthy);
    assert_eq!(report.heals, 0);
    assert_eq!(report.faults_injected, 0);

    drop(client);
    server.stop();
    engine.finish().expect("clean finish");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The connection cap answers the excess accept with a typed Error frame
/// (so the peer learns why) and frees capacity once a connection closes.
#[test]
fn connection_cap_refuses_excess_with_typed_error() {
    let bundle = tm1();
    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::with_config(
        engine.handle(),
        ServerConfig {
            max_connections: Some(1),
            idle_timeout: None,
        },
    );
    let (s1, c1) = socket_pair().expect("socketpair");
    server
        .attach(s1)
        .expect("first connection is under the cap");
    let (s2, mut c2) = socket_pair().expect("socketpair");
    let err = server
        .attach(s2)
        .expect_err("second connection is over the cap");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    // The refused peer got a typed Error frame, then EOF.
    let payload = read_frame(&mut c2, proto::MAX_FRAME_LEN)
        .expect("refusal frame")
        .expect("frame before close");
    match proto::decode_response(&payload).expect("server speaks the protocol") {
        Response::Error {
            request_id: 0,
            message,
        } => assert!(
            message.contains("capacity"),
            "unexpected refusal: {message}"
        ),
        other => panic!("expected a connection-scoped Error, got {other:?}"),
    }
    assert!(matches!(
        read_frame(&mut c2, proto::MAX_FRAME_LEN),
        Ok(None)
    ));
    assert_eq!(server.stats().refused, 1);

    // The under-cap connection still serves.
    let mut client = Client::from_duplex(c1).expect("client");
    client.ping().expect("under-cap connection serves");
    client.close();
    drop(client);

    // Capacity frees once the server notices the close; re-attach succeeds
    // within a bounded retry window.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let attached = loop {
        let (s3, c3) = socket_pair().expect("socketpair");
        match server.attach(s3) {
            Ok(()) => break Some(c3),
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("capacity never freed: {e}"),
        }
    };
    let client = Client::from_duplex(attached.expect("reattached")).expect("client");
    client.ping().expect("freed capacity serves");
    drop(client);
    server.stop();
    engine.finish().expect("clean finish");
}

/// The idle reaper closes connections that stop producing requests, and the
/// server keeps serving fresh ones.
#[test]
fn idle_reaper_closes_stale_connections() {
    let bundle = tm1();
    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::with_config(
        engine.handle(),
        ServerConfig {
            max_connections: None,
            idle_timeout: Some(Duration::from_millis(50)),
        },
    );
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    client.ping().expect("live connection serves");

    // Go idle; the reaper shuts the connection down.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().idle_reaped == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().idle_reaped, 1, "idle connection reaped");
    drop(client);

    // A fresh connection still serves.
    let (s2, c2) = socket_pair().expect("socketpair");
    server.attach(s2).expect("attach after reap");
    let client = Client::from_duplex(c2).expect("client");
    client.ping().expect("fresh connection after reap");
    drop(client);
    server.stop();
    engine.finish().expect("clean finish");
}

/// Flush before block: `[Ping, Submit A]` arrive in one write and A's bulk
/// cannot close (size 2, the deadline never fires), so the responder must
/// hand over the Pong before it parks on A's ticket. A second connection's
/// submit then fills the bulk and A's outcome follows.
#[test]
fn pong_is_not_held_back_for_a_pending_submit() {
    let mut bundle = tm1();
    let stream = bundle.generate(2);
    let engine = engine_for(
        &bundle,
        PipelineConfig::default()
            .with_max_bulk_size(2)
            .with_max_wait_us(60_000_000),
    );
    let server = Server::new(engine.handle());
    let (server_end, mut raw) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    // Watchdog only: a responder sitting on the Pong fails here, not hangs.
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    let mut bytes = Vec::new();
    write_frame(
        &mut bytes,
        &encode_request(&Request::Ping { request_id: 1 }),
    )
    .expect("vec write");
    write_frame(
        &mut bytes,
        &encode_request(&Request::Submit {
            request_id: 2,
            txn_type: stream[0].0,
            params: stream[0].1.clone(),
            no_wait: false,
        }),
    )
    .expect("vec write");
    raw.write_all(&bytes).expect("one write, two frames");

    let pong = read_frame(&mut raw, proto::MAX_FRAME_LEN)
        .expect("the Pong arrives while A's bulk is still open")
        .expect("pong present");
    assert_eq!(
        proto::decode_response(&pong).expect("pong decodes"),
        Response::Pong { request_id: 1 }
    );

    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    let filler = client
        .submit(stream[1].0, stream[1].1.clone())
        .expect("wire submit");
    filler.wait().expect("the second submit closes the bulk");
    let outcome = read_frame(&mut raw, proto::MAX_FRAME_LEN)
        .expect("read A's outcome")
        .expect("outcome present");
    match proto::decode_response(&outcome).expect("outcome decodes") {
        Response::Committed { request_id: 2, .. } | Response::Aborted { request_id: 2, .. } => {}
        other => panic!("expected A's outcome, got {other:?}"),
    }
    drop(client);
    drop(raw);
    server.stop();
    engine.finish().expect("clean finish");
}

/// A transport that reads fine but whose every write fails: a peer that is
/// gone by the time the first burst of responses is ready.
struct DeafPeer(std::os::unix::net::UnixStream);

impl std::io::Read for DeafPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for DeafPeer {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::BrokenPipe.into())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Duplex for DeafPeer {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Duplex>> {
        Ok(Box::new(DeafPeer(self.0.try_clone()?)))
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        self.0.shutdown(std::net::Shutdown::Both)
    }
}

/// A burst that fails to reach the peer is one write call and zero
/// responses, and the responder still drains every ticket behind it: the
/// connection only closes (EOF below) once the queue is empty, and every
/// admitted transaction commits.
#[test]
fn dead_peer_mid_burst_drains_every_ticket_and_counts_no_response() {
    let mut bundle = tm1();
    let stream = bundle.generate(BULK);
    let engine = engine_for(&bundle, deterministic_config());
    let server = Server::new(engine.handle());
    let (server_end, mut raw) = socket_pair().expect("socketpair");
    server.attach(DeafPeer(server_end)).expect("attach");
    for (i, (ty, params)) in stream.iter().enumerate() {
        let request = Request::Submit {
            request_id: i as u64 + 1,
            txn_type: *ty,
            params: params.clone(),
            no_wait: false,
        };
        write_frame(&mut raw, &encode_request(&request)).expect("write submit");
    }
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert!(
        matches!(read_frame(&mut raw, proto::MAX_FRAME_LEN), Ok(None)),
        "no response reaches the peer; the responder closes after draining"
    );
    server.stop();
    let stats = server.stats();
    assert_eq!(stats.requests, BULK as u64);
    assert_eq!(
        stats.response_writes, 1,
        "nothing is written after a failed write"
    );
    assert_eq!(stats.responses, 0, "the failed burst must not be counted");
    let (_db, pipeline) = engine.finish().expect("clean finish");
    assert_eq!(pipeline.committed + pipeline.aborted, BULK as u64);
}

/// Append a `Submit` frame to `bytes`.
fn submit_frame(bytes: &mut Vec<u8>, request_id: u64, (ty, params): &(TxnTypeId, Vec<Value>)) {
    let request = Request::Submit {
        request_id,
        txn_type: *ty,
        params: params.clone(),
        no_wait: false,
    };
    write_frame(bytes, &encode_request(&request)).expect("vec write");
}

/// Read and decode the next response; the socket's read timeout is the
/// watchdog.
fn next_response(raw: &mut std::os::unix::net::UnixStream) -> Response {
    let payload = read_frame(raw, proto::MAX_FRAME_LEN)
        .expect("a response arrives before the watchdog")
        .expect("response present");
    proto::decode_response(&payload).expect("server speaks the protocol")
}

/// A raw connection to `server` whose reads give up after 30 s, so a test
/// that would hang fails instead.
fn raw_connection(server: &Server) -> std::os::unix::net::UnixStream {
    let (server_end, raw) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    raw
}

/// Block until `cond` holds, failing after 30 s instead of hanging.
fn await_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn is_outcome(response: &Response, id: u64) -> bool {
    matches!(response,
        Response::Committed { request_id, .. } | Response::Aborted { request_id, .. }
            if *request_id == id)
}

/// `[Submit A, Submit B, Ping]` in one write: the Ping admits A and B before
/// its Pong is queued, so the Pong follows both outcomes.
#[test]
fn submits_then_ping_in_one_write_are_answered_in_order() {
    let mut bundle = tm1();
    let stream = bundle.generate(2);
    let engine = engine_for(
        &bundle,
        PipelineConfig::default()
            .with_max_bulk_size(2)
            .with_max_wait_us(60_000_000),
    );
    let server = Server::new(engine.handle());
    let mut raw = raw_connection(&server);
    let mut bytes = Vec::new();
    submit_frame(&mut bytes, 1, &stream[0]);
    submit_frame(&mut bytes, 2, &stream[1]);
    write_frame(
        &mut bytes,
        &encode_request(&Request::Ping { request_id: 3 }),
    )
    .expect("vec write");
    raw.write_all(&bytes).expect("one write, three frames");
    let a = next_response(&mut raw);
    let b = next_response(&mut raw);
    assert!(is_outcome(&a, 1), "A's outcome first, got {a:?}");
    assert!(is_outcome(&b, 2), "B's outcome second, got {b:?}");
    assert_eq!(next_response(&mut raw), Response::Pong { request_id: 3 });
    drop(raw);
    server.stop();
    engine.finish().expect("clean finish");
}

/// A gate that parks every caller of [`Gate::pass`] until it is opened.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn pass(&self) {
        let (open, cond) = &*self.0;
        let mut open = open.lock().expect("gate lock");
        while !*open {
            open = cond.wait(open).expect("gate lock");
        }
    }

    fn open(&self) {
        let (open, cond) = &*self.0;
        *open.lock().expect("gate lock") = true;
        cond.notify_all();
    }
}

/// Opens its gate when dropped, so a failing assert cannot leave a server
/// thread parked at the gate and hang the server's drop.
struct OpenOnDrop(Gate);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Commits every transaction, but announces each bulk and holds it at the
/// gate until the gate opens.
struct GatedRunner {
    gate: Gate,
    entered: std::sync::mpsc::Sender<()>,
}

impl BulkRunner for GatedRunner {
    type Output = ();
    fn run(&mut self, bulk: Vec<TxnSignature>) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError> {
        let _ = self.entered.send(());
        self.gate.pass();
        Ok(bulk.iter().map(|s| (s.id, TxnOutcome::Committed)).collect())
    }
    fn finish(self) {}
}

/// One write of no-wait submits against a held engine with a depth-2 queue:
/// the submits that find it full are answered `QueueFull` at their own
/// request positions, around the admitted ones and a Ping.
#[test]
fn queue_full_replies_keep_their_request_positions() {
    let gate = Gate::default();
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let engine = PipelinedEngine::new(
        GatedRunner {
            gate: gate.clone(),
            entered: entered_tx,
        },
        PipelineOptions {
            max_bulk_size: 1_000,
            max_wait: Duration::from_millis(1),
            queue_depth: 2,
        },
    );
    let server = Server::new(engine.handle());
    let _open_on_exit = OpenOnDrop(gate.clone());
    let mut raw = raw_connection(&server);
    let no_wait = |request_id| {
        let request = Request::Submit {
            request_id,
            txn_type: 0,
            params: vec![Value::Int(request_id as i64)],
            no_wait: true,
        };
        encode_request(&request)
    };
    // Request 1 runs alone in the first bulk, held at the gate.
    write_frame(&mut raw, &no_wait(1)).expect("write submit");
    entered
        .recv_timeout(Duration::from_secs(30))
        .expect("the first bulk reaches the gate");
    let mut bytes = Vec::new();
    for payload in [
        no_wait(2),
        no_wait(3),
        no_wait(4),
        encode_request(&Request::Ping { request_id: 5 }),
        no_wait(6),
    ] {
        write_frame(&mut bytes, &payload).expect("vec write");
    }
    raw.write_all(&bytes).expect("one write, five frames");
    await_until("the reader to handle all six requests", || {
        server.stats().requests == 6
    });
    gate.open();
    let expected = [
        Response::Committed {
            request_id: 1,
            txn_id: 0,
        },
        Response::Committed {
            request_id: 2,
            txn_id: 1,
        },
        Response::Committed {
            request_id: 3,
            txn_id: 2,
        },
        Response::QueueFull { request_id: 4 },
        Response::Pong { request_id: 5 },
        Response::QueueFull { request_id: 6 },
    ];
    for want in expected {
        assert_eq!(next_response(&mut raw), want);
    }
    drop(raw);
    server.stop();
    let (_, stats) = engine.finish().expect("clean finish");
    assert_eq!(stats.committed, 3);
}

/// After one write of `[Submit A][first half of Submit B]`, A is admitted
/// and answered while the rest of B is still withheld: the reader admits
/// once no *complete* frame is buffered, not only once the buffer is empty.
#[test]
fn partial_frame_does_not_hold_back_the_complete_one() {
    let mut bundle = tm1();
    let stream = bundle.generate(2);
    let engine = engine_for(
        &bundle,
        PipelineConfig::default()
            .with_max_bulk_size(1)
            .with_max_wait_us(60_000_000),
    );
    let server = Server::new(engine.handle());
    let mut raw = raw_connection(&server);
    let mut a = Vec::new();
    submit_frame(&mut a, 1, &stream[0]);
    let mut b = Vec::new();
    submit_frame(&mut b, 2, &stream[1]);
    let (b_head, b_tail) = b.split_at(b.len() / 2);
    raw.write_all(&[&a[..], b_head].concat())
        .expect("A and half of B in one write");
    let response = next_response(&mut raw);
    assert!(
        is_outcome(&response, 1),
        "A is answered with B half-sent, got {response:?}"
    );
    raw.write_all(b_tail).expect("the rest of B");
    let response = next_response(&mut raw);
    assert!(is_outcome(&response, 2), "then B, got {response:?}");
    drop(raw);
    server.stop();
    engine.finish().expect("clean finish");
}

/// A server-side transport whose writes park at a gate; once it opens,
/// every write fails, as to a peer that went away.
struct GatedWrites {
    inner: std::os::unix::net::UnixStream,
    gate: Gate,
}

impl std::io::Read for GatedWrites {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for GatedWrites {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        self.gate.pass();
        Err(std::io::ErrorKind::BrokenPipe.into())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Duplex for GatedWrites {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Duplex>> {
        Ok(Box::new(GatedWrites {
            inner: self.inner.try_clone()?,
            gate: self.gate.clone(),
        }))
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        self.inner.shutdown(std::net::Shutdown::Both)
    }
}

/// A peer that submits but never reads, while the responder's write is
/// stuck: the reader stops at exactly 1,024 requests whose responses are
/// unwritten, however many more the peer sent. Once writes fail instead,
/// the responder drains and every submit commits.
#[test]
fn peer_that_never_reads_stalls_its_reader_at_the_bound() {
    const BOUND: u64 = 1_024;
    const SENT: usize = 3_000;
    let mut bundle = tm1();
    let stream = bundle.generate(SENT);
    let engine = engine_for(
        &bundle,
        PipelineConfig::default()
            .with_max_bulk_size(BULK)
            .with_max_wait_us(1_000),
    );
    let server = Server::new(engine.handle());
    let gate = Gate::default();
    let _open_on_exit = OpenOnDrop(gate.clone());
    let (server_end, mut raw) = socket_pair().expect("socketpair");
    server
        .attach(GatedWrites {
            inner: server_end,
            gate: gate.clone(),
        })
        .expect("attach");
    let writer = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        for (i, txn) in stream.iter().enumerate() {
            submit_frame(&mut bytes, i as u64 + 1, txn);
        }
        // Blocks once the socket buffer is full and the reader has stalled.
        raw.write_all(&bytes)
            .expect("the server reads everything in the end");
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");
        raw
    });
    await_until("the reader to reach the bound", || {
        server.stats().requests >= BOUND
    });
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        server.stats().requests,
        BOUND,
        "the reader stalls at the bound"
    );
    assert_eq!(server.stats().responses, 0);
    gate.open();
    let raw = writer.join().expect("writer thread");
    await_until("the reader to handle every request", || {
        server.stats().requests == SENT as u64
    });
    server.stop();
    drop(raw);
    let (_db, stats) = engine.finish().expect("clean finish");
    assert_eq!(stats.committed + stats.aborted, SENT as u64);
}

mod codec_fuzz {
    use super::*;
    use proptest::prelude::*;

    /// splitmix64, locally seeded per case.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A `Read` that hands out 1..=k bytes per call, however many are asked
    /// for: a peer whose frames arrive in dribbles.
    struct Dribble<'a> {
        bytes: &'a [u8],
        state: u64,
        k: usize,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (1 + mix(&mut self.state) as usize % self.k)
                .min(buf.len())
                .min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every frame a reader yields, then how the stream ended: `None` for a
    /// clean EOF, the message for `Corrupt`.
    fn drain_frames(mut r: impl std::io::Read) -> (Vec<Vec<u8>>, Option<String>) {
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut r, proto::MAX_FRAME_LEN) {
                Ok(Some(payload)) => frames.push(payload),
                Ok(None) => return (frames, None),
                Err(FrameError::Corrupt(msg)) => return (frames, Some(msg)),
                Err(FrameError::Io(e)) => panic!("in-memory reads cannot fail: {e}"),
            }
        }
    }

    proptest! {
        /// Pure codec fuzz: feeding arbitrary bytes through the frame reader
        /// yields frames or clean errors — never a panic, and every decoded
        /// request round-trips.
        #[test]
        fn garbled_byte_streams_never_panic_the_codec(seed in 0u64..u64::MAX / 2, len in 0usize..4_096) {
            let mut state = seed;
            let bytes: Vec<u8> = (0..len).map(|_| mix(&mut state) as u8).collect();
            let mut cursor = &bytes[..];
            loop {
                match read_frame(&mut cursor, proto::MAX_FRAME_LEN) {
                    Ok(Some(payload)) => {
                        // Astronomically unlikely from random bytes, but if a
                        // frame survives the CRC it must decode or error
                        // cleanly.
                        let _ = proto::decode_request(&payload);
                    }
                    Ok(None) => break,
                    Err(FrameError::Corrupt(_)) | Err(FrameError::Io(_)) => break,
                }
            }
        }

        /// The buffered reader the server and client use, fed 1..=k bytes
        /// per socket read: the same frames come out as from the whole byte
        /// string read unbuffered, and the stream ends the same way — a CRC
        /// flip, an oversized length and a mid-frame EOF are still `Corrupt`
        /// after exactly the frames before them, a clean EOF is still
        /// `Ok(None)`.
        #[test]
        fn dribbled_reads_through_the_buffer_yield_the_same_frames(
            seed in 0u64..u64::MAX / 2,
            k in 1usize..96,
            damage in 0usize..4,
            capacity in 0usize..4,
        ) {
            let mut state = seed;
            let mut bundle = micro();
            bundle.reseed(seed);
            let payloads: Vec<Vec<u8>> = bundle
                .generate(12)
                .into_iter()
                .enumerate()
                .map(|(i, (txn_type, params))| encode_request(&Request::Submit {
                    request_id: i as u64 + 1,
                    txn_type,
                    params,
                    no_wait: false,
                }))
                .collect();
            let mut bytes = Vec::new();
            let mut frame_starts = Vec::new();
            for payload in &payloads {
                frame_starts.push(bytes.len());
                write_frame(&mut bytes, payload).expect("vec write");
            }
            // Damage frame `victim`; the frames before it must survive.
            let victim = mix(&mut state) as usize % payloads.len();
            let start = frame_starts[victim];
            match damage {
                0 => {}
                1 => bytes[start + proto::FRAME_HEADER_LEN] ^= 0x01,
                2 => bytes[start..start + 4]
                    .copy_from_slice(&(proto::MAX_FRAME_LEN + 1).to_le_bytes()),
                _ => bytes.truncate(start + 1 + mix(&mut state) as usize % (payloads[victim].len() + 7)),
            }
            let dribble = Dribble { bytes: &bytes, state, k };
            // Capacities below a frame's length force refills mid-frame; the
            // last is the size the server and client run with.
            let capacity = [1, 13, 100, 64 * 1024][capacity];
            let (frames, end) = drain_frames(std::io::BufReader::with_capacity(capacity, dribble));
            let (frames_ref, end_ref) = drain_frames(&bytes[..]);
            prop_assert_eq!(&frames, &frames_ref);
            prop_assert_eq!(&end, &end_ref);
            let intact = if damage == 0 { payloads.len() } else { victim };
            prop_assert_eq!(&frames[..], &payloads[..intact]);
            prop_assert_eq!(end.is_some(), damage != 0);
        }

        /// Server-level fuzz: a valid request stream chopped at an arbitrary
        /// byte yields responses for exactly the complete frames (plus at
        /// most one connection-scoped Error), never a panic, and never a
        /// committed partial request.
        #[test]
        fn chopped_request_streams_commit_only_complete_frames(seed in 0u64..u64::MAX / 2, frac in 0.0f64..1.0) {
            let mut state = seed;
            let mut bundle = micro();
            bundle.reseed(seed);
            let stream = bundle.generate(20);
            // Serialize 20 valid submit frames, note each frame's end offset.
            let mut wire_bytes = Vec::new();
            let mut frame_ends = Vec::new();
            for (i, (ty, params)) in stream.iter().enumerate() {
                let req = Request::Submit {
                    request_id: i as u64 + 1,
                    txn_type: *ty,
                    params: params.clone(),
                    no_wait: false,
                };
                write_frame(&mut wire_bytes, &encode_request(&req)).expect("vec write");
                frame_ends.push(wire_bytes.len());
            }
            // Chop anywhere; optionally garble one byte after the cut point
            // region to also exercise CRC rejection on the tail.
            let cut = ((wire_bytes.len() as f64) * frac) as usize;
            let mut sent = wire_bytes[..cut].to_vec();
            let garble = mix(&mut state) % 4 == 0 && !sent.is_empty();
            if garble {
                let at = (mix(&mut state) as usize) % sent.len();
                sent[at] ^= 0x55;
            }

            let engine = engine_for(&bundle, PipelineConfig::default()
                .with_max_bulk_size(8)
                .with_max_wait_us(500));
            let server = Server::new(engine.handle());
            let (server_end, mut raw) = socket_pair().expect("socketpair");
            server.attach(server_end).expect("attach");
            raw.write_all(&sent).expect("write chopped stream");
            raw.shutdown(std::net::Shutdown::Write).expect("half-close");
            // Read whatever comes back until the server closes.
            let mut resolved = Vec::new();
            let mut conn_errors = 0usize;
            while let Ok(Some(payload)) = read_frame(&mut raw, proto::MAX_FRAME_LEN) {
                match proto::decode_response(&payload).expect("server speaks the protocol") {
                    Response::Error { request_id: 0, .. } => conn_errors += 1,
                    Response::Committed { request_id, .. }
                    | Response::Aborted { request_id, .. }
                    | Response::Disconnected { request_id } => resolved.push(request_id),
                    other => panic!("unexpected response {other:?}"),
                }
            }
            server.stop();
            let (_db, stats) = engine.finish().expect("server never panics, engine stays healthy");
            // Responses are FIFO: resolved ids are exactly 1..=k for some
            // prefix k of the complete frames — never a partial frame, never
            // a hole, never more than one connection error.
            prop_assert!(conn_errors <= 1);
            let expect: Vec<u64> = (1..=resolved.len() as u64).collect();
            prop_assert_eq!(&resolved, &expect);
            let max_complete = frame_ends.iter().filter(|&&e| e <= cut).count();
            prop_assert!(resolved.len() <= max_complete);
            if !garble {
                // Nothing garbled: every complete frame was admitted.
                prop_assert_eq!(resolved.len(), max_complete);
                prop_assert_eq!(stats.committed + stats.aborted, max_complete as u64);
            } else {
                prop_assert!((stats.committed + stats.aborted) as usize <= max_complete);
            }
        }
    }
}
