//! # gputx-server — the network front door for the pipelined engine
//!
//! The streaming engine (`gputx_exec::PipelinedEngine`) ingests transactions
//! through in-process [`SubmitHandle`]s. This crate puts a real wire in front
//! of it: a [`Server`] accepts TCP connections (or in-process socket pairs,
//! for CI and offline runs) speaking the compact length-framed binary
//! protocol of [`proto`], forwards requests into the pipeline, and turns the
//! engine's results back into response frames — asynchronously, so one
//! connection multiplexes many in-flight submits while bulks form and commit
//! behind it.
//!
//! Each connection owns one [`ReplyQueue`]: the engine's execution thread
//! delivers that connection's results of a bulk as one run, under one lock,
//! in submission order. Per connection the server runs two threads:
//!
//! * a **reader** that parses frames and admits the submits among them into
//!   the pipeline as one batch under one lock, then hands the responder, in
//!   request order, the request ids of the admitted submits and the
//!   immediate responses (Pong, Health, QueueFull, …);
//! * a **responder** that pairs those ids FIFO with the results arriving in
//!   the reply queue and writes response frames. Because a single
//!   connection's submissions enter admission in frame order, its responses
//!   also come back in frame order — which is what makes a single-connection
//!   run bit-reproducible against an in-process run of the same stream.
//!
//! Both pay per *burst*, not per frame. The reader admits what it decoded
//! before any socket read that can block: once its buffer holds no complete
//! frame. The responder writes every ready response in one call, flushing
//! before it would block — so no response ever waits on a later one. A Ping
//! or Health request admits the submits before it first, so its answer stays
//! a barrier behind their outcomes.
//!
//! Failure is data, not a panic: a malformed frame gets a
//! [`proto::Response::Error`] and a connection close, an engine shutdown
//! resolves outstanding submits as `Disconnected`, and a peer that vanishes
//! mid-bulk simply stops receiving responses while its already-admitted
//! transactions commit normally (the responder drains its queue so the
//! pipeline never blocks on a dead connection).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod proto;

use gputx_exec::{PipelineError, ReplyQueue, Submission, SubmitHandle, TicketResult};
use gputx_txn::TxnOutcome;
use proto::{
    append_response_frame, decode_request, read_frame_into, write_frame, FrameError, Request,
    Response, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A bidirectional byte stream the server can serve: both halves of the
/// conversation need an independent handle (reader and responder run on
/// separate threads), and shutdown must reach the peer even while clones are
/// still alive.
///
/// Implemented for [`TcpStream`] and [`UnixStream`]; [`socket_pair`] builds
/// the in-process variant used by CI and the offline tests.
pub trait Duplex: Read + Write + Send + 'static {
    /// An independent handle to the same underlying socket.
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>>;
    /// Shut down both directions of the socket itself (not just this handle),
    /// so the peer observes EOF even while other clones are alive.
    fn shutdown_both(&self) -> io::Result<()>;
    /// Bound how long a blocked `read` may wait before failing with
    /// `WouldBlock`/`TimedOut`, letting a reader thread poll a shutdown flag
    /// instead of hanging forever on a peer that vanished without a FIN.
    /// The default is a no-op for transports without timeout support —
    /// callers must treat a timeout as *optional* and keep the shutdown
    /// path (`shutdown_both`) as the guaranteed unblocker.
    fn set_read_timeout(&self, _timeout: Option<std::time::Duration>) -> io::Result<()> {
        Ok(())
    }
}

impl Duplex for TcpStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

impl Duplex for UnixStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
}

impl Duplex for Box<dyn Duplex> {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        (**self).try_clone_box()
    }
    fn shutdown_both(&self) -> io::Result<()> {
        (**self).shutdown_both()
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        (**self).set_read_timeout(timeout)
    }
}

/// A [`Duplex`] that consults a deterministic
/// [`WireFaults`](gputx_faults::WireFaults) decision stream on every read
/// and write: writes may be silently dropped, corrupted (one byte flipped)
/// or delayed, reads delayed; either direction may tear the connection down
/// with a reset. Built by [`chaos_wrap`]; wraps any transport, so the same
/// chaos plane serves the client wire and replication follower streams.
///
/// A fault is drawn per *call*, and every sender hands `write` whole frames:
/// a client request or a replication message is one frame per call, a server
/// responder's call is a burst of whole response frames. So a `Drop` loses
/// whole frames, never part of one, and a `Corrupt` garbles exactly one frame
/// — whose CRC mismatch then closes the connection. On the read side the
/// buffered frame readers draw one decision per socket read, however many
/// frames it delivered.
pub struct ChaosDuplex {
    inner: Box<dyn Duplex>,
    faults: Arc<gputx_faults::WireFaults>,
}

/// Wrap `stream` so its I/O consults the given fault-decision stream.
/// Clones (reader/writer halves) share the stream's per-direction counters.
pub fn chaos_wrap<S: Duplex>(stream: S, faults: gputx_faults::WireFaults) -> ChaosDuplex {
    ChaosDuplex {
        inner: Box::new(stream),
        faults: Arc::new(faults),
    }
}

impl ChaosDuplex {
    fn reset(&self) -> io::Error {
        let _ = self.inner.shutdown_both();
        io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

impl Read for ChaosDuplex {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.faults.on_read() {
            Some(gputx_faults::WireFault::Delay(d)) => std::thread::sleep(d),
            Some(gputx_faults::WireFault::Reset) => return Err(self.reset()),
            _ => {}
        }
        self.inner.read(buf)
    }
}

impl Write for ChaosDuplex {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.faults.on_write() {
            // Report success without writing: callers write whole frames
            // per call, so this drops them cleanly.
            Some(gputx_faults::WireFault::Drop) => return Ok(buf.len()),
            Some(gputx_faults::WireFault::Corrupt) if !buf.is_empty() => {
                let mut garbled = buf.to_vec();
                let mid = garbled.len() / 2;
                garbled[mid] ^= 0xA5;
                return self.inner.write(&garbled);
            }
            Some(gputx_faults::WireFault::Delay(d)) => std::thread::sleep(d),
            Some(gputx_faults::WireFault::Reset) => return Err(self.reset()),
            _ => {}
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Duplex for ChaosDuplex {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(ChaosDuplex {
            inner: self.inner.try_clone_box()?,
            faults: Arc::clone(&self.faults),
        }))
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.inner.shutdown_both()
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

/// A connected in-process socket pair: attach one end to a [`Server`], hand
/// the other to a client. Same syscalls-and-frames path as TCP, no listener
/// and no network namespace — what the CI `net` job loops back over.
pub fn socket_pair() -> io::Result<(UnixStream, UnixStream)> {
    UnixStream::pair()
}

/// Monotonic counters describing server activity, snapshot via
/// [`Server::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections ever attached (accepted or [`Server::attach`]ed).
    pub connections: u64,
    /// Well-formed requests parsed off the wire, each counted once the
    /// reader has handled it (for a submit: once its batch was admitted).
    pub requests: u64,
    /// Response frames in bursts whose write succeeded (excludes
    /// drained-after-disconnect ones).
    pub responses: u64,
    /// Write calls issued by responders; `responses / response_writes` is
    /// the frames-per-write the coalescing achieves.
    pub response_writes: u64,
    /// Malformed frames / dirty disconnects (each also closes a connection).
    pub protocol_errors: u64,
    /// Connections refused at the [`ServerConfig::max_connections`] cap
    /// (each was answered with a typed `Error` frame before closing).
    pub refused: u64,
    /// Connections closed by the idle reaper
    /// ([`ServerConfig::idle_timeout`]).
    pub idle_reaped: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    response_writes: AtomicU64,
    protocol_errors: AtomicU64,
    refused: AtomicU64,
    idle_reaped: AtomicU64,
}

/// Hardening knobs for a [`Server`]. The default is fully open: no
/// connection cap, no idle reaping — the PR 6 behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerConfig {
    /// Most connections served concurrently; an excess accept is answered
    /// with a typed [`proto::Response::Error`] frame and closed (counted in
    /// [`ServerStats::refused`]). `None` = unlimited.
    pub max_connections: Option<usize>,
    /// Close connections that have not produced a complete request for this
    /// long (counted in [`ServerStats::idle_reaped`]). `None` = never.
    pub idle_timeout: Option<std::time::Duration>,
}

/// Capacity of a connection reader's buffer: one socket read takes in up to
/// this much of whatever the peer has sent.
const READ_BUF_LEN: usize = 64 * 1024;

/// A responder writes its burst once it holds this many bytes, ready or not
/// to block — a bound on the out-buffer, not a batching target.
const FLUSH_CAP: usize = 32 * 1024;

/// Most responses of one connection that its reader may have decoded but
/// its responder not yet written: a peer that submits but never reads stalls
/// its own reader here instead of buffering without bound.
const MAX_UNANSWERED: usize = 1024;

/// What the reader hands the responder, in request order.
enum Outgoing {
    /// A response that needs no pipeline result (Pong, QueueFull, …).
    Immediate(Response),
    /// An admitted submit, by request id: its result is the next one the
    /// connection's reply queue delivers.
    Pending(u64),
}

/// The reader → responder hand-over of one connection.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    /// The responder waits here for entries.
    ready: Condvar,
    /// The reader waits here for room.
    room: Condvar,
}

struct OutboxState {
    entries: Vec<Outgoing>,
    /// How many more requests the reader may take in: `MAX_UNANSWERED`
    /// less the ones it took whose response is not yet written.
    room: usize,
    /// The reader exited: no entry follows the ones queued.
    reader_done: bool,
    /// The responder exited: nothing will be written any more.
    responder_done: bool,
    /// A side waits on its condvar and no wake-up is on its way.
    reader_parked: bool,
    responder_parked: bool,
}

impl Default for OutboxState {
    fn default() -> Self {
        OutboxState {
            entries: Vec::new(),
            room: MAX_UNANSWERED,
            reader_done: false,
            responder_done: false,
            reader_parked: false,
            responder_parked: false,
        }
    }
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().expect("outbox poisoned")
    }

    /// Reader side: queue `out` (leaving it empty) for the responder.
    fn hand_over(&self, out: &mut Vec<Outgoing>) {
        if out.is_empty() {
            return;
        }
        let mut state = self.lock();
        state.entries.append(out);
        let wake = std::mem::take(&mut state.responder_parked);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Reader side: wait for room, then take all of it. 0 once the
    /// responder is gone.
    fn wait_room(&self) -> usize {
        let mut state = self.lock();
        while state.room == 0 && !state.responder_done {
            state.reader_parked = true;
            state = self.room.wait(state).expect("outbox poisoned");
        }
        std::mem::take(&mut state.room)
    }

    /// Responder side: swap the queued entries into the empty `into`;
    /// blocks while there are none unless `block` is false. False when
    /// there were none to take: not blocking, or the reader is done.
    fn take(&self, into: &mut Vec<Outgoing>, block: bool) -> bool {
        let mut state = self.lock();
        while state.entries.is_empty() {
            if !block || state.reader_done {
                return false;
            }
            state.responder_parked = true;
            state = self.ready.wait(state).expect("outbox poisoned");
        }
        std::mem::swap(into, &mut state.entries);
        true
    }

    /// Responder side: `n` more responses written (or dropped for a dead
    /// peer), so the reader may take in `n` more requests.
    fn answered(&self, n: usize) {
        let mut state = self.lock();
        state.room += n;
        let wake = std::mem::take(&mut state.reader_parked);
        drop(state);
        if wake {
            self.room.notify_one();
        }
    }

    fn close(&self, reader: bool) {
        let mut state = self.lock();
        if reader {
            state.reader_done = true;
        } else {
            state.responder_done = true;
        }
        drop(state);
        self.ready.notify_one();
        self.room.notify_one();
    }
}

/// One side's handle on the outbox; dropping it (the thread returned or
/// unwound) tells the other side it is gone, as dropping one end of a
/// channel does.
struct OutboxEnd {
    outbox: Arc<Outbox>,
    reader: bool,
}

impl std::ops::Deref for OutboxEnd {
    type Target = Outbox;
    fn deref(&self) -> &Outbox {
        &self.outbox
    }
}

impl Drop for OutboxEnd {
    fn drop(&mut self) {
        self.outbox.close(self.reader);
    }
}

/// A connection's two ends of the hand-over.
fn outbox() -> (OutboxEnd, OutboxEnd) {
    let outbox = Arc::new(Outbox::default());
    let reader = OutboxEnd {
        outbox: Arc::clone(&outbox),
        reader: true,
    };
    (
        reader,
        OutboxEnd {
            outbox,
            reader: false,
        },
    )
}

struct Connection {
    stream: Box<dyn Duplex>,
    reader: Option<JoinHandle<()>>,
    responder: Option<JoinHandle<()>>,
    /// Milliseconds since the server's start instant at the last complete
    /// request (or attach), for the idle reaper.
    last_activity_ms: Arc<AtomicU64>,
}

struct Shared {
    handle: SubmitHandle,
    max_frame_len: u32,
    stopping: AtomicBool,
    stats: StatCounters,
    conns: Mutex<Vec<Connection>>,
    config: ServerConfig,
    /// Health surface served to wire `Health` requests (None until
    /// [`Server::serve_health`]).
    health: Mutex<Option<gputx_faults::Health>>,
    /// Reaper clock origin.
    started: std::time::Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// The front door: owns the accept loop(s) and per-connection threads, and
/// forwards requests into a pipeline via a [`SubmitHandle`].
///
/// The server holds only a handle, never the engine itself — so the engine's
/// owner decides its lifetime, and an engine dropped while connections are
/// live resolves their in-flight submits as `Disconnected` instead of
/// deadlocking (see `SubmitHandle`'s contract).
///
/// ```no_run
/// use gputx_server::Server;
/// # fn demo(handle: gputx_exec::SubmitHandle) -> std::io::Result<()> {
/// let server = Server::new(handle);
/// let addr = server.listen("127.0.0.1:0")?;
/// println!("serving on {addr}");
/// // ... clients connect, submit, disconnect ...
/// server.stop();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    shared: Arc<Shared>,
    acceptors: Mutex<Vec<(SocketAddr, JoinHandle<()>)>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Create a server forwarding into the pipeline behind `handle`, with
    /// default (fully open) [`ServerConfig`].
    pub fn new(handle: SubmitHandle) -> Server {
        Self::with_config(handle, ServerConfig::default())
    }

    /// [`Server::new`] with hardening knobs: a connection cap and/or an
    /// idle-connection reaper.
    pub fn with_config(handle: SubmitHandle, config: ServerConfig) -> Server {
        let idle_timeout = config.idle_timeout;
        let shared = Arc::new(Shared {
            handle,
            max_frame_len: MAX_FRAME_LEN,
            stopping: AtomicBool::new(false),
            stats: StatCounters::default(),
            conns: Mutex::new(Vec::new()),
            config,
            health: Mutex::new(None),
            started: std::time::Instant::now(),
        });
        let reaper = idle_timeout.map(|timeout| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gputx-idle-reaper".into())
                .spawn(move || reaper_loop(&shared, timeout))
                .expect("spawn reaper thread")
        });
        Server {
            shared,
            acceptors: Mutex::new(Vec::new()),
            reaper: Mutex::new(reaper),
        }
    }

    /// Serve `health` to wire [`proto::Request::Health`] requests (take it
    /// from `EngineBuilder::health` / `PipelinedGpuTx::health`). Without
    /// this, Health requests answer with an
    /// [`unwired`](gputx_faults::HealthReport::unwired) report.
    pub fn serve_health(&self, health: gputx_faults::Health) {
        *self.shared.health.lock().expect("health lock poisoned") = Some(health);
    }

    /// Bind a TCP listener and start accepting connections on a background
    /// thread. Returns the bound address (use port `0` to let the OS pick).
    pub fn listen(&self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let accept = std::thread::Builder::new()
            .name(format!("gputx-accept-{}", local.port()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            let _ = s.set_nodelay(true);
                            if attach_to(&shared, s).is_err() {
                                // Clone failure: drop the connection, keep
                                // accepting.
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
            .expect("spawn accept thread");
        self.acceptors
            .lock()
            .expect("acceptor list poisoned")
            .push((local, accept));
        Ok(local)
    }

    /// Serve an already-connected stream (e.g. one end of [`socket_pair`]).
    pub fn attach<S: Duplex>(&self, stream: S) -> io::Result<()> {
        attach_to(&self.shared, stream)
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.shared.stats.connections.load(Ordering::Relaxed),
            requests: self.shared.stats.requests.load(Ordering::Relaxed),
            responses: self.shared.stats.responses.load(Ordering::Relaxed),
            response_writes: self.shared.stats.response_writes.load(Ordering::Relaxed),
            protocol_errors: self.shared.stats.protocol_errors.load(Ordering::Relaxed),
            refused: self.shared.stats.refused.load(Ordering::Relaxed),
            idle_reaped: self.shared.stats.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, close every live connection, and join all server
    /// threads. Idempotent; also run by `Drop`. It blocks until each
    /// connection's admitted submits resolve, which can take up to the
    /// engine's `max_wait` while their bulk is still open.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Wake each blocked `accept` with a throwaway connection, then join.
        let mut acceptors = self.acceptors.lock().expect("acceptor list poisoned");
        for (addr, _) in acceptors.iter() {
            let _ = TcpStream::connect(*addr);
        }
        for (_, handle) in acceptors.drain(..) {
            let _ = handle.join();
        }
        drop(acceptors);
        if let Some(reaper) = self.reaper.lock().expect("reaper lock poisoned").take() {
            let _ = reaper.join();
        }
        // Force readers to EOF, then join both per-connection threads. The
        // responders finish on their own: every admitted submit resolves
        // (engine alive → outcome, engine gone → Disconnected).
        let mut conns = self.shared.conns.lock().expect("connection list poisoned");
        for conn in conns.iter() {
            let _ = conn.stream.shutdown_both();
        }
        for conn in conns.iter_mut() {
            if let Some(h) = conn.reader.take() {
                let _ = h.join();
            }
            if let Some(h) = conn.responder.take() {
                let _ = h.join();
            }
        }
        conns.clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn attach_to<S: Duplex>(shared: &Arc<Shared>, stream: S) -> io::Result<()> {
    let read_half = stream.try_clone_box()?;
    let write_half = stream.try_clone_box()?;
    // Register under the connection-list lock, re-checking `stopping` inside
    // it: `stop()` stores the flag *before* taking this lock, so either we
    // see the flag and refuse, or `stop()` sees our entry and closes it.
    // Spawning first and pushing after (the old order) let a concurrent
    // `stop()` drain the list between the two — orphaning live threads whose
    // client then hung instead of resolving `Disconnected`.
    let mut conns = shared.conns.lock().expect("connection list poisoned");
    if shared.stopping.load(Ordering::Acquire) {
        let _ = stream.shutdown_both();
        return Err(io::Error::new(
            io::ErrorKind::NotConnected,
            "server is stopping",
        ));
    }
    // Connection cap: answer the excess accept with a typed Error frame so
    // the peer learns *why* instead of seeing a bare hangup, then close.
    if let Some(cap) = shared.config.max_connections {
        if conns.iter().filter(|c| conn_live(c)).count() >= cap {
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            let payload = proto::encode_response(&Response::Error {
                request_id: 0,
                message: format!("server at connection capacity ({cap})"),
            });
            let mut write_half = stream.try_clone_box()?;
            let _ = write_frame(&mut write_half, &payload);
            let _ = stream.shutdown_both();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "server at connection capacity",
            ));
        }
    }
    let conn_id = shared.stats.connections.fetch_add(1, Ordering::Relaxed) + 1;
    let (to_responder, from_reader) = outbox();
    let replies = ReplyQueue::new();
    let last_activity_ms = Arc::new(AtomicU64::new(shared.now_ms()));
    let reader = {
        let shared = Arc::clone(shared);
        let activity = Arc::clone(&last_activity_ms);
        let replies = replies.clone();
        std::thread::Builder::new()
            .name(format!("gputx-conn-{conn_id}-reader"))
            .spawn(move || reader_loop(&shared, read_half, &to_responder, &replies, &activity))
            .map_err(io::Error::other)?
    };
    let responder = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("gputx-conn-{conn_id}-responder"))
            .spawn(move || responder_loop(&shared.stats, write_half, &from_reader, &replies))
    };
    let responder = match responder {
        Ok(handle) => handle,
        Err(e) => {
            // The reader is already running with a socket clone and nothing
            // registered it: EOF it and join, or the thread leaks.
            let _ = stream.shutdown_both();
            let _ = reader.join();
            return Err(e);
        }
    };
    conns.push(Connection {
        stream: Box::new(stream),
        reader: Some(reader),
        responder: Some(responder),
        last_activity_ms,
    });
    Ok(())
}

/// True while either per-connection thread is still running.
fn conn_live(conn: &Connection) -> bool {
    let reader_done = conn.reader.as_ref().map_or(true, |h| h.is_finished());
    let responder_done = conn.responder.as_ref().map_or(true, |h| h.is_finished());
    !(reader_done && responder_done)
}

/// Periodically close connections idle past `timeout` and prune finished
/// ones from the registry (so a capped server frees slots without waiting
/// for `stop`). Joining finished threads here is cheap; the shutdown of an
/// idle socket unblocks its reader, which closes the outbox, which lets the
/// responder drain and exit.
fn reaper_loop(shared: &Shared, timeout: std::time::Duration) {
    let timeout_ms = timeout.as_millis().max(1) as u64;
    let tick = (timeout / 4).clamp(
        std::time::Duration::from_millis(5),
        std::time::Duration::from_millis(250),
    );
    while !shared.stopping.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now = shared.now_ms();
        let mut conns = shared.conns.lock().expect("connection list poisoned");
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        let mut kept = Vec::with_capacity(conns.len());
        for mut conn in conns.drain(..) {
            if !conn_live(&conn) {
                // Already closed on its own: reclaim the slot quietly.
                if let Some(h) = conn.reader.take() {
                    let _ = h.join();
                }
                if let Some(h) = conn.responder.take() {
                    let _ = h.join();
                }
                continue;
            }
            if now.saturating_sub(conn.last_activity_ms.load(Ordering::Relaxed)) > timeout_ms {
                shared.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                let _ = conn.stream.shutdown_both();
                if let Some(h) = conn.reader.take() {
                    let _ = h.join();
                }
                if let Some(h) = conn.responder.take() {
                    let _ = h.join();
                }
                continue;
            }
            kept.push(conn);
        }
        *conns = kept;
    }
}

/// Whether `buf` starts with a whole frame, or with a header whose length
/// is already refused: either way, reading the next frame cannot block.
fn frame_buffered(buf: &[u8], max_len: u32) -> bool {
    buf.len() >= FRAME_HEADER_LEN && {
        let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        len > max_len || buf.len() - FRAME_HEADER_LEN >= len as usize
    }
}

/// What the reader has decoded but not yet handed to the responder.
#[derive(Default)]
struct Decoded {
    /// Submits not yet admitted, with their request ids.
    submits: Vec<Submission>,
    request_ids: Vec<u64>,
    /// Entries for the responder, in request order, ending before the
    /// first submit not yet admitted.
    out: Vec<Outgoing>,
}

impl Decoded {
    /// Admit the pending submits as one batch; each becomes `Pending` or,
    /// if refused, its immediate answer, at its own position.
    fn admit(&mut self, shared: &Shared, replies: &ReplyQueue) {
        if self.submits.is_empty() {
            return;
        }
        let n = self.submits.len() as u64;
        let mut ids = self.request_ids.drain(..);
        let out = &mut self.out;
        shared
            .handle
            .submit_batch(replies, self.submits.drain(..), |admitted| {
                let request_id = ids.next().expect("one request id per submit");
                out.push(match admitted {
                    Ok(()) => Outgoing::Pending(request_id),
                    Err(e) => Outgoing::Immediate(response_for(request_id, Err(e))),
                });
            });
        // Counted once admitted: a caller that sees the count can flush and
        // know the transaction is in a closed bulk.
        shared.stats.requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Admit, then queue everything for the responder.
    fn hand_over(&mut self, shared: &Shared, replies: &ReplyQueue, outbox: &Outbox) {
        self.admit(shared, replies);
        outbox.hand_over(&mut self.out);
    }
}

/// Parse frames and feed the pipeline until EOF, a malformed frame, or a
/// transport error. Dropping `outbox` at the end is what lets the responder
/// finish draining and close the connection.
fn reader_loop(
    shared: &Shared,
    stream: Box<dyn Duplex>,
    outbox: &OutboxEnd,
    replies: &ReplyQueue,
    activity: &AtomicU64,
) {
    // One socket read delivers every frame the peer has sent so far;
    // `read_frame_into` then parses them out of the buffer, each into the
    // same payload buffer (never larger than `max_frame_len`).
    let mut stream = BufReader::with_capacity(READ_BUF_LEN, stream);
    let mut payload = Vec::new();
    let mut decoded = Decoded::default();
    // Requests this reader may still take in before its responder writes.
    let mut room = 0;
    let error = loop {
        // Admit before blocking: once no complete frame is buffered, the
        // next read may wait on the peer.
        if !frame_buffered(stream.buffer(), shared.max_frame_len) {
            decoded.hand_over(shared, replies, outbox);
        }
        if room == 0 {
            decoded.hand_over(shared, replies, outbox);
            room = outbox.wait_room();
            if room == 0 {
                // The responder is gone: the connection is being torn down.
                break None;
            }
        }
        match read_frame_into(&mut stream, shared.max_frame_len, &mut payload) {
            Ok(true) => {}
            // Clean EOF: the peer finished submitting and closed.
            Ok(false) => break None,
            Err(FrameError::Corrupt(message)) => break Some(message),
            Err(FrameError::Io(_)) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break None;
            }
        }
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => break Some(e.to_string()),
        };
        activity.store(shared.now_ms(), Ordering::Relaxed);
        room -= 1;
        let immediate = match request {
            Request::Submit {
                request_id,
                txn_type,
                params,
                no_wait,
            } => {
                decoded.request_ids.push(request_id);
                decoded.submits.push(Submission {
                    ty: txn_type,
                    params,
                    block: !no_wait,
                });
                continue;
            }
            Request::Ping { request_id } => Response::Pong { request_id },
            Request::Health { request_id } => {
                let report = shared
                    .health
                    .lock()
                    .expect("health lock poisoned")
                    .as_ref()
                    .map(|h| h.report())
                    .unwrap_or_else(gputx_faults::HealthReport::unwired);
                Response::Health { request_id, report }
            }
        };
        // The submits before a Ping or Health are admitted first, so its
        // answer follows their outcomes.
        decoded.admit(shared, replies);
        decoded.out.push(Outgoing::Immediate(immediate));
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    };
    decoded.admit(shared, replies);
    if let Some(message) = error {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        decoded.out.push(Outgoing::Immediate(Response::Error {
            request_id: 0,
            message,
        }));
    }
    outbox.hand_over(&mut decoded.out);
}

/// The response that answers `request_id` with a pipeline result.
fn response_for(request_id: u64, result: TicketResult) -> Response {
    match result {
        Ok((txn_id, TxnOutcome::Committed)) => Response::Committed { request_id, txn_id },
        Ok((txn_id, TxnOutcome::Aborted(_))) => Response::Aborted { request_id, txn_id },
        Err(PipelineError::QueueFull) => Response::QueueFull { request_id },
        Err(PipelineError::BulkFailed(message)) => Response::BulkFailed {
            request_id,
            message,
        },
        Err(PipelineError::ShutDown) | Err(PipelineError::Disconnected) => {
            Response::Disconnected { request_id }
        }
    }
}

/// What the responder has encoded but not yet written: whole response
/// frames, each encoded straight into `buf` and handed to the socket in one
/// `write_all`.
struct Burst<'a> {
    stream: Box<dyn Duplex>,
    stats: &'a StatCounters,
    outbox: &'a Outbox,
    buf: Vec<u8>,
    /// Responses since the last flush: encoded into `buf`, or dropped
    /// unencoded once the peer is gone.
    frames: u64,
    /// Cleared by the first failed write; later responses are dropped
    /// instead of encoded.
    peer_alive: bool,
}

impl Burst<'_> {
    fn push(&mut self, response: &Response) {
        self.frames += 1;
        if !self.peer_alive {
            return;
        }
        append_response_frame(&mut self.buf, response);
        if self.buf.len() >= FLUSH_CAP {
            self.flush();
        }
    }

    /// Write what is encoded, then give the reader room for every response
    /// since the last flush, written or dropped.
    fn flush(&mut self) {
        if self.frames == 0 {
            return;
        }
        if !self.buf.is_empty() {
            self.stats.response_writes.fetch_add(1, Ordering::Relaxed);
            let written = self.stream.write_all(&self.buf);
            if written.and_then(|()| self.stream.flush()).is_ok() {
                self.stats
                    .responses
                    .fetch_add(self.frames, Ordering::Relaxed);
            } else {
                self.peer_alive = false;
            }
            self.buf.clear();
        }
        self.outbox
            .answered(std::mem::take(&mut self.frames) as usize);
    }
}

/// Answer the reader's entries FIFO, pairing each `Pending` request id with
/// the next result of the reply queue, and write response frames, every
/// ready response in one write. The one batching rule is **flush before
/// block**: the loop never parks — on an empty outbox or an undelivered
/// result — holding unwritten bytes, so a response never waits on a later
/// one. If the peer stops accepting writes (disconnect mid-bulk), keep
/// *draining* without writing, so the pipeline's already-admitted
/// transactions resolve normally and nothing blocks on the dead connection.
fn responder_loop(
    stats: &StatCounters,
    stream: Box<dyn Duplex>,
    outbox: &OutboxEnd,
    replies: &ReplyQueue,
) {
    let mut burst = Burst {
        stream,
        stats,
        outbox,
        buf: Vec::with_capacity(FLUSH_CAP),
        frames: 0,
        peer_alive: true,
    };
    let mut entries = Vec::new();
    let mut results = VecDeque::new();
    loop {
        if !outbox.take(&mut entries, false) {
            burst.flush();
            if !outbox.take(&mut entries, true) {
                break;
            }
        }
        for entry in entries.drain(..) {
            let response = match entry {
                Outgoing::Immediate(response) => response,
                Outgoing::Pending(request_id) => {
                    if results.is_empty() && replies.take_ready(&mut results) == 0 {
                        burst.flush();
                        replies.wait_ready(&mut results);
                    }
                    let result = results.pop_front().expect("a result is ready");
                    response_for(request_id, result)
                }
            };
            burst.push(&response);
        }
    }
    burst.flush();
    // All responses written (or drained): signal EOF to the peer even though
    // the registry in `Shared::conns` still holds a handle to this socket.
    let _ = burst.stream.shutdown_both();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_exec::{BulkRunner, ExecError, PipelineOptions, PipelinedEngine};
    use gputx_txn::{TxnId, TxnSignature};
    use proto::{decode_response, encode_response, read_frame};

    #[derive(Default)]
    struct WriteLog {
        calls: usize,
        /// Bytes of each write call that succeeded.
        writes: Vec<Vec<u8>>,
    }

    /// A write-only transport double: records every `write` call; the first
    /// `ok_calls` succeed, every later one fails (a peer that went away).
    struct Recording {
        log: Arc<Mutex<WriteLog>>,
        ok_calls: usize,
    }

    impl Read for Recording {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut log = self.log.lock().expect("log lock");
            log.calls += 1;
            if log.calls > self.ok_calls {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            log.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Duplex for Recording {
        fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
            Ok(Box::new(Recording {
                log: Arc::clone(&self.log),
                ok_calls: self.ok_calls,
            }))
        }
        fn shutdown_both(&self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Commits every transaction.
    struct CommitAll;

    impl BulkRunner for CommitAll {
        type Output = ();
        fn run(&mut self, bulk: Vec<TxnSignature>) -> Result<Vec<(TxnId, TxnOutcome)>, ExecError> {
            Ok(bulk.iter().map(|s| (s.id, TxnOutcome::Committed)).collect())
        }
        fn finish(self) {}
    }

    /// A reply queue holding the committed results of `k` transactions,
    /// ids 0..k.
    fn prefilled_replies(k: u64) -> ReplyQueue {
        let engine = PipelinedEngine::new(CommitAll, PipelineOptions::default());
        let replies = ReplyQueue::new();
        let batch = (0..k).map(|_| Submission {
            ty: 0,
            params: Vec::new(),
            block: true,
        });
        engine
            .handle()
            .submit_batch(&replies, batch, |admitted| admitted.expect("admitted"));
        engine.finish().expect("clean finish");
        replies
    }

    /// Run a responder to completion over a reply queue pre-filled with `k`
    /// results, an outbox holding their request ids 1..=k and a closed
    /// reader end: nothing races, so what it writes is a function of
    /// `FLUSH_CAP` alone.
    fn respond_to_prefilled_queue(k: u64, ok_calls: usize) -> (WriteLog, StatCounters) {
        let replies = prefilled_replies(k);
        let (to_responder, from_reader) = outbox();
        let mut entries = (1..=k).map(Outgoing::Pending).collect();
        to_responder.hand_over(&mut entries);
        drop(to_responder);
        let log = Arc::new(Mutex::new(WriteLog::default()));
        let stream = Recording {
            log: Arc::clone(&log),
            ok_calls,
        };
        let stats = StatCounters::default();
        responder_loop(&stats, Box::new(stream), &from_reader, &replies);
        let log = std::mem::take(&mut *log.lock().expect("log lock"));
        (log, stats)
    }

    fn committed_frame_len() -> usize {
        FRAME_HEADER_LEN
            + encode_response(&Response::Committed {
                request_id: 1,
                txn_id: 0,
            })
            .len()
    }

    #[test]
    fn ready_responses_leave_in_cap_sized_bursts_of_whole_frames_in_order() {
        let frame = committed_frame_len();
        // A burst is the shortest run of whole frames reaching the cap.
        let frames_per_burst = FLUSH_CAP.div_ceil(frame) as u64;
        let k = 3 * frames_per_burst + 7;
        let (log, stats) = respond_to_prefilled_queue(k, usize::MAX);

        assert_eq!(log.calls as u64, k.div_ceil(frames_per_burst));
        assert_eq!(stats.response_writes.load(Ordering::Relaxed), 4);
        assert_eq!(stats.responses.load(Ordering::Relaxed), k);
        let (last, full) = log.writes.split_last().expect("four writes");
        for burst in full {
            assert!((FLUSH_CAP..FLUSH_CAP + frame).contains(&burst.len()));
        }
        assert_eq!(last.len(), 7 * frame);
        // Every write is whole frames, and together they are the K responses
        // in queue order.
        let mut next_id = 1;
        for burst in &log.writes {
            let mut cursor = &burst[..];
            while let Some(payload) = read_frame(&mut cursor, MAX_FRAME_LEN).expect("whole frame") {
                let response = decode_response(&payload).expect("well-formed response");
                assert_eq!(
                    response,
                    Response::Committed {
                        request_id: next_id,
                        txn_id: next_id - 1
                    }
                );
                next_id += 1;
            }
        }
        assert_eq!(next_id, k + 1);
    }

    #[test]
    fn failed_burst_is_not_counted_and_the_queue_still_drains() {
        let frames_per_burst = FLUSH_CAP.div_ceil(committed_frame_len()) as u64;
        // Three bursts' worth; the peer dies under the second write. The
        // responder returning at all is the drain: it ends only on an empty,
        // closed queue.
        let (log, stats) = respond_to_prefilled_queue(3 * frames_per_burst, 1);
        assert_eq!(log.calls, 2, "nothing is written after a failed write");
        assert_eq!(stats.response_writes.load(Ordering::Relaxed), 2);
        assert_eq!(
            stats.responses.load(Ordering::Relaxed),
            frames_per_burst,
            "only the burst that reached the peer counts"
        );
    }
}
