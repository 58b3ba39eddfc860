//! # gputx-client — pipelined, self-healing client for the GPUTx front door
//!
//! Counterpart of `gputx-server`: a [`Client`] owns one connection speaking
//! the length-framed binary protocol of `gputx_server::proto` and keeps many
//! submits in flight at once. [`Client::submit`] writes a frame and returns a
//! [`Reply`] immediately; a background reader thread demultiplexes response
//! frames back to their replies by `request_id`. That mirrors the pipeline's
//! own shape — transactions resolve asynchronously when their bulk commits,
//! so a client that waited for each reply before sending the next would
//! serialize the wire onto bulk-commit latency and never fill a bulk.
//!
//! ## Self-healing
//!
//! A client built with a [`ClientConfig`] carrying a reconnect
//! [`BackoffPolicy`](gputx_faults::BackoffPolicy) (and a connector, via
//! [`Client::connect_with`] or [`Client::with_connector`]) survives the
//! connection dying under it:
//!
//! - **Connect attempts** retry with jittered exponential backoff up to the
//!   policy's `max_retries` per outage.
//! - **Never-transmitted requests** — those that found the connection already
//!   dead — are written to the fresh connection; nothing was on the wire, so
//!   this cannot duplicate work.
//! - **Submits whose frame may have left the socket** (the write itself
//!   errored partway) are *never* retransmitted: the server may have executed
//!   them. Their reply resolves [`TxnResult::Disconnected`] so the caller
//!   decides — exactly the ambiguity a re-send would silently convert into a
//!   duplicate transaction.
//! - **Read-only round trips** ([`Client::ping`], [`Client::health`]) are
//!   idempotent and retried end-to-end across reconnects.
//!
//! Without a reconnect policy the client behaves as before: errors surface
//! as [`ClientError`] and pending replies fail with `ConnectionClosed`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use gputx_server::proto::{
    decode_response, encode_request, read_frame, write_frame, FrameError, Request, Response,
    MAX_FRAME_LEN,
};
use gputx_server::Duplex;
use gputx_storage::Value;
use gputx_txn::{TxnId, TxnTypeId};
use std::collections::HashMap;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the server resolved one request.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnResult {
    /// The transaction's bulk committed and the transaction committed.
    Committed(TxnId),
    /// The transaction's bulk committed but the procedure aborted.
    Aborted(TxnId),
    /// A no-wait submit was shed by a full admission queue.
    QueueFull,
    /// The bulk containing the transaction failed; the message says why.
    BulkFailed(String),
    /// The engine shut down before resolving the transaction — or, on a
    /// reconnecting client, the connection died after the frame may have
    /// reached the wire (the submit is *ambiguous*, not known-lost).
    Disconnected,
    /// Answer to a ping (only ever seen by [`Client::ping`]).
    Pong,
    /// Answer to a health probe (only ever seen by [`Client::health`]).
    Health(gputx_faults::HealthReport),
}

impl TxnResult {
    /// True iff the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnResult::Committed(_))
    }
}

/// Client-side failures (distinct from server-resolved [`TxnResult`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Writing the request (or reading responses) failed at the transport.
    Io(String),
    /// The connection closed before this request's response arrived. Carries
    /// the server's protocol-error message when one was received.
    ConnectionClosed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "transport error: {msg}"),
            ClientError::ConnectionClosed(msg) => write!(f, "connection closed: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

type ReplyResult = Result<TxnResult, ClientError>;

/// Connection behaviour knobs. [`Default`] reproduces the classic client:
/// blocking connect, no read timeout, no reconnection.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Bound on each TCP connect attempt (`None` = OS default, blocking).
    pub connect_timeout: Option<Duration>,
    /// Poll interval for the reader thread. With a timeout set the reader
    /// wakes periodically even if the peer vanished without a FIN, so
    /// `close`/`Drop` always join promptly and a dead peer is *detected*
    /// rather than waited on forever.
    pub read_timeout: Option<Duration>,
    /// When set, the client re-establishes dead connections with this
    /// jittered exponential backoff instead of surfacing hard errors.
    pub reconnect: Option<gputx_faults::BackoffPolicy>,
}

impl ClientConfig {
    /// A self-healing profile: 1s connect timeout, 100ms reader poll, and
    /// the default reconnect backoff (5ms..250ms, 10 retries per outage).
    pub fn resilient() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_millis(100)),
            reconnect: Some(gputx_faults::BackoffPolicy::default()),
        }
    }
}

#[derive(Debug)]
struct ReplySlot {
    slot: Mutex<Option<ReplyResult>>,
    cond: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn resolve(&self, result: ReplyResult) {
        let mut slot = self.slot.lock().expect("reply slot poisoned");
        if slot.is_none() {
            *slot = Some(result);
            self.cond.notify_all();
        }
    }
}

/// A future-style handle for one in-flight request: resolves when the
/// server's response frame arrives.
#[derive(Debug)]
pub struct Reply {
    slot: Arc<ReplySlot>,
    request_id: u64,
}

impl Reply {
    /// The client-assigned correlation id this reply is keyed on.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Block until the response arrives. Repeatable; later calls return
    /// immediately.
    pub fn wait(&self) -> ReplyResult {
        let mut slot = self.slot.slot.lock().expect("reply slot poisoned");
        while slot.is_none() {
            slot = self.slot.cond.wait(slot).expect("reply slot poisoned");
        }
        slot.clone().expect("checked above")
    }

    /// Non-blocking poll: `None` while the response is still in flight.
    pub fn try_get(&self) -> Option<ReplyResult> {
        self.slot.slot.lock().expect("reply slot poisoned").clone()
    }
}

#[derive(Debug)]
struct Demux {
    /// request_id → unresolved reply slot.
    pending: Mutex<HashMap<u64, Arc<ReplySlot>>>,
    /// Responses whose request_id matched no pending reply — must stay zero
    /// in a correct run (the soak asserts on it). Shared across reconnect
    /// generations so the count is per-client, not per-connection.
    unmatched: Arc<AtomicU64>,
    /// Connection-scoped server error (`request_id == 0`), reported to every
    /// reply left pending when the connection closes.
    conn_error: Mutex<Option<String>>,
    /// Set by the reader as it exits: the connection is unusable and a send
    /// must not write into it (nothing written there will ever be answered).
    dead: AtomicBool,
    /// How replies left pending at disconnect resolve: a reconnecting client
    /// resolves them `Ok(Disconnected)` (ambiguous outcome, caller decides);
    /// a classic client fails them `Err(ConnectionClosed)`.
    resolve_disconnected: bool,
}

impl Demux {
    fn new(unmatched: Arc<AtomicU64>, resolve_disconnected: bool) -> Arc<Demux> {
        Arc::new(Demux {
            pending: Mutex::new(HashMap::new()),
            unmatched,
            conn_error: Mutex::new(None),
            dead: AtomicBool::new(false),
            resolve_disconnected,
        })
    }
}

/// One reconnect generation: a stream, its writer handle, its demux and its
/// reader thread. Torn down as a unit when the connection dies.
struct Conn {
    writer: Mutex<Box<dyn Duplex>>,
    stream: Box<dyn Duplex>,
    demux: Arc<Demux>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(
        stream: Box<dyn Duplex>,
        config: &ClientConfig,
        closing: &Arc<AtomicBool>,
        unmatched: &Arc<AtomicU64>,
    ) -> io::Result<Conn> {
        stream.set_read_timeout(config.read_timeout)?;
        let read_half = stream.try_clone_box()?;
        let write_half = stream.try_clone_box()?;
        let demux = Demux::new(Arc::clone(unmatched), config.reconnect.is_some());
        let reader = {
            let demux = Arc::clone(&demux);
            let closing = Arc::clone(closing);
            std::thread::Builder::new()
                .name("gputx-client-reader".into())
                .spawn(move || reader_loop(read_half, &demux, &closing))
                .map_err(io::Error::other)?
        };
        Ok(Conn {
            writer: Mutex::new(write_half),
            stream,
            demux,
            reader: Some(reader),
        })
    }

    fn teardown(&mut self) {
        let _ = self.stream.shutdown_both();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.teardown();
    }
}

type Connector = Box<dyn Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync>;

/// How one send attempt ended, before retry policy is applied.
enum SendAttempt {
    Sent(Reply),
    /// No live connection and establishing one failed — nothing transmitted.
    ConnectFailed(String),
    /// The write itself errored: bytes may have reached the wire.
    WriteFailed {
        error: String,
        reply: Reply,
    },
}

/// One connection to a GPUTx server, usable from multiple threads.
///
/// ```no_run
/// use gputx_client::Client;
/// # fn demo() -> Result<(), Box<dyn std::error::Error>> {
/// let client = Client::connect("127.0.0.1:7878")?;
/// let reply = client.submit(0, vec![gputx_storage::Value::Int(42)])?;
/// // ... submit more while that one is in flight ...
/// println!("resolved: {:?}", reply.wait()?);
/// # Ok(())
/// # }
/// ```
pub struct Client {
    conn: Mutex<Option<Conn>>,
    connector: Option<Connector>,
    config: ClientConfig,
    next_id: AtomicU64,
    /// Raised by `close`/`Drop`; the reader polls it on read timeouts so it
    /// exits even when `shutdown_both` cannot unblock the transport.
    closing: Arc<AtomicBool>,
    reconnects: AtomicU64,
    unmatched: Arc<AtomicU64>,
}

impl Client {
    /// Connect over TCP (`TCP_NODELAY` set — frames are latency-sensitive).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect over TCP with explicit behaviour knobs. With
    /// `config.reconnect` set, the resolved addresses are remembered and the
    /// client transparently re-dials them when the connection dies.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let connect_timeout = config.connect_timeout;
        Client::with_connector(
            move || {
                let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address");
                for a in &addrs {
                    let attempt = match connect_timeout {
                        Some(t) => TcpStream::connect_timeout(a, t),
                        None => TcpStream::connect(a),
                    };
                    match attempt {
                        Ok(s) => {
                            s.set_nodelay(true)?;
                            return Ok(Box::new(s) as Box<dyn Duplex>);
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            },
            config,
        )
    }

    /// Wrap an already-connected stream (e.g. one end of
    /// `gputx_server::socket_pair`).
    pub fn from_duplex<S: Duplex>(stream: S) -> io::Result<Client> {
        Client::from_duplex_with(stream, ClientConfig::default())
    }

    /// Wrap an already-connected stream with explicit behaviour knobs.
    /// There is no connector, so a reconnect policy only changes how
    /// orphaned replies resolve ([`TxnResult::Disconnected`] instead of
    /// [`ClientError::ConnectionClosed`]); the stream itself cannot be
    /// re-established.
    pub fn from_duplex_with<S: Duplex>(stream: S, config: ClientConfig) -> io::Result<Client> {
        let closing = Arc::new(AtomicBool::new(false));
        let unmatched = Arc::new(AtomicU64::new(0));
        let conn = Conn::open(Box::new(stream), &config, &closing, &unmatched)?;
        Ok(Client {
            conn: Mutex::new(Some(conn)),
            connector: None,
            config,
            next_id: AtomicU64::new(1), // 0 is the server's "no request" id
            closing,
            reconnects: AtomicU64::new(0),
            unmatched,
        })
    }

    /// Build a client around a connector the client can call again whenever
    /// the connection dies (the self-healing transport used by the chaos
    /// soak). The first connection is established eagerly, with backoff if
    /// `config.reconnect` is set.
    pub fn with_connector<F>(connector: F, config: ClientConfig) -> io::Result<Client>
    where
        F: Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync + 'static,
    {
        let closing = Arc::new(AtomicBool::new(false));
        let unmatched = Arc::new(AtomicU64::new(0));
        let connector: Connector = Box::new(connector);
        let mut attempt = 0u32;
        let conn = loop {
            match connector().and_then(|s| Conn::open(s, &config, &closing, &unmatched)) {
                Ok(conn) => break conn,
                Err(e) => match config.reconnect {
                    Some(policy) if attempt < policy.max_retries => {
                        std::thread::sleep(policy.delay(attempt));
                        attempt += 1;
                    }
                    _ => return Err(e),
                },
            }
        };
        Ok(Client {
            conn: Mutex::new(Some(conn)),
            connector: Some(connector),
            config,
            next_id: AtomicU64::new(1),
            closing,
            reconnects: AtomicU64::new(0),
            unmatched,
        })
    }

    /// One attempt: ensure a live connection (re-dialing once if possible),
    /// register the reply slot, write the frame. Holds the connection lock
    /// for the duration — writers were already serialized per connection.
    fn send_once(&self, request: &Request) -> SendAttempt {
        let mut guard = self.conn.lock().expect("conn poisoned");
        let need_new = match guard.as_ref() {
            Some(c) => c.demux.dead.load(Ordering::Acquire),
            None => true,
        };
        if need_new {
            match &self.connector {
                Some(connector) => {
                    // Tear the old generation down first: its reader drains
                    // its own pending map, so nothing leaks across.
                    drop(guard.take());
                    match connector()
                        .and_then(|s| Conn::open(s, &self.config, &self.closing, &self.unmatched))
                    {
                        Ok(conn) => {
                            self.reconnects.fetch_add(1, Ordering::Relaxed);
                            *guard = Some(conn);
                        }
                        Err(e) => return SendAttempt::ConnectFailed(e.to_string()),
                    }
                }
                None => {
                    if guard.is_none() {
                        return SendAttempt::ConnectFailed("client closed".into());
                    }
                    // Fixed-stream client with a dead reader: fall through
                    // and let the write surface the transport error (classic
                    // behaviour).
                }
            }
        }
        let conn = guard.as_ref().expect("conn ensured above");
        let request_id = request.request_id();
        let slot = ReplySlot::new();
        // Register before writing: the response can race the write returning.
        conn.demux
            .pending
            .lock()
            .expect("pending map poisoned")
            .insert(request_id, Arc::clone(&slot));
        let payload = encode_request(request);
        let write = {
            let mut writer = conn.writer.lock().expect("writer poisoned");
            write_frame(&mut *writer, &payload)
        };
        let reply = Reply { slot, request_id };
        match write {
            Ok(()) => SendAttempt::Sent(reply),
            Err(e) => {
                conn.demux
                    .pending
                    .lock()
                    .expect("pending map poisoned")
                    .remove(&reply.request_id);
                // The frame may be partially on the wire: the connection can
                // no longer be trusted for framing. Kill it so the reader
                // exits and the next send re-dials.
                conn.demux.dead.store(true, Ordering::Release);
                let _ = conn.stream.shutdown_both();
                SendAttempt::WriteFailed {
                    error: e.to_string(),
                    reply,
                }
            }
        }
    }

    fn send(&self, request: &Request) -> Result<Reply, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.send_once(request) {
                SendAttempt::Sent(reply) => return Ok(reply),
                SendAttempt::ConnectFailed(e) => {
                    // Nothing was transmitted; retrying cannot duplicate.
                    match self.config.reconnect {
                        Some(policy) if attempt < policy.max_retries => {
                            std::thread::sleep(policy.delay(attempt));
                            attempt += 1;
                        }
                        _ => return Err(ClientError::Io(e)),
                    }
                }
                SendAttempt::WriteFailed { error, reply } => {
                    // The frame may have left the socket. Never retransmit:
                    // resolve the ambiguity to the caller instead.
                    if self.config.reconnect.is_some() {
                        reply.slot.resolve(Ok(TxnResult::Disconnected));
                        return Ok(reply);
                    }
                    return Err(ClientError::Io(error));
                }
            }
        }
    }

    /// Retry an idempotent (read-only) round trip across reconnects until it
    /// resolves to a real answer or the retry budget is spent.
    fn roundtrip_idempotent(
        &self,
        make: impl Fn(u64) -> Request,
    ) -> Result<TxnResult, ClientError> {
        let mut attempt = 0u32;
        loop {
            let request = make(self.next_id.fetch_add(1, Ordering::Relaxed));
            let outcome = match self.send(&request) {
                Ok(reply) => reply.wait(),
                Err(e) => Err(e),
            };
            let retryable = match &outcome {
                Ok(TxnResult::Disconnected) => true,
                Err(_) => self.config.reconnect.is_some(),
                Ok(_) => false,
            };
            match (retryable, self.config.reconnect) {
                (true, Some(policy)) if attempt < policy.max_retries => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                _ => return outcome,
            }
        }
    }

    /// Submit one transaction; blocks server-side if the admission queue is
    /// full (backpressure through the TCP window). Returns as soon as the
    /// frame is written — resolution comes through the [`Reply`].
    pub fn submit(&self, txn_type: TxnTypeId, params: Vec<Value>) -> Result<Reply, ClientError> {
        self.send(&Request::Submit {
            request_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            txn_type,
            params,
            no_wait: false,
        })
    }

    /// Submit with shedding: a full admission queue resolves the reply as
    /// [`TxnResult::QueueFull`] immediately instead of blocking (the
    /// open-loop policy).
    pub fn submit_nowait(
        &self,
        txn_type: TxnTypeId,
        params: Vec<Value>,
    ) -> Result<Reply, ClientError> {
        self.send(&Request::Submit {
            request_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            txn_type,
            params,
            no_wait: true,
        })
    }

    /// Round-trip a ping. Responses are FIFO per connection, so this returns
    /// only after every earlier submit on this connection has been answered —
    /// a commit barrier. Pings are read-only, so a reconnecting client
    /// retries them across connection deaths.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.roundtrip_idempotent(|request_id| Request::Ping { request_id })? {
            TxnResult::Pong => Ok(()),
            other => Err(ClientError::ConnectionClosed(format!(
                "ping answered with {other:?}"
            ))),
        }
    }

    /// Fetch the server's [`HealthReport`](gputx_faults::HealthReport) —
    /// WAL state, heal count, replication fan-out and lag, fault-plane
    /// activity. Read-only, so retried across reconnects like [`ping`].
    ///
    /// [`ping`]: Client::ping
    pub fn health(&self) -> Result<gputx_faults::HealthReport, ClientError> {
        match self.roundtrip_idempotent(|request_id| Request::Health { request_id })? {
            TxnResult::Health(report) => Ok(report),
            other => Err(ClientError::ConnectionClosed(format!(
                "health answered with {other:?}"
            ))),
        }
    }

    /// Responses that matched no pending request — zero in a correct run.
    /// Accumulated across reconnects.
    pub fn unmatched_responses(&self) -> u64 {
        self.unmatched.load(Ordering::Relaxed)
    }

    /// How many times the client re-established a dead connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Requests still awaiting a response on the current connection.
    pub fn in_flight(&self) -> usize {
        match self.conn.lock().expect("conn poisoned").as_ref() {
            Some(c) => c.demux.pending.lock().expect("pending map poisoned").len(),
            None => 0,
        }
    }

    /// Close the connection: signals EOF to the server (which finishes
    /// resolving whatever was admitted), fails any still-pending replies,
    /// and joins the reader. With a read timeout configured the join is
    /// bounded even if the transport cannot be shut down. Also run by
    /// `Drop`.
    pub fn close(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        drop(self.conn.lock().expect("conn poisoned").take());
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}

/// Capacity of the demux reader's buffer: one socket read takes in every
/// response frame the server's burst delivered, up to this much.
const READ_BUF_LEN: usize = 64 * 1024;

/// Tracks whether any bytes were consumed since the last frame boundary, so
/// a read timeout can be classified: mid-frame it is a stalled peer (fatal),
/// at a boundary it is mere idleness (poll the closing flag and wait on).
/// It counts bytes handed to `read_frame`, not bytes read off the socket:
/// the buffer reads ahead, so part of the next frame may already be in it
/// when the socket times out — still a mid-frame stall.
struct CountingReader {
    inner: BufReader<Box<dyn Duplex>>,
    consumed: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n as u64;
        Ok(n)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Demultiplex response frames to their replies until the connection ends,
/// then fail whatever is left pending.
fn reader_loop(stream: Box<dyn Duplex>, demux: &Demux, closing: &AtomicBool) {
    let mut reader = CountingReader {
        inner: BufReader::with_capacity(READ_BUF_LEN, stream),
        consumed: 0,
    };
    let close_reason = loop {
        reader.consumed = 0;
        let payload = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(p)) => p,
            Ok(None) => break None,
            // A timeout at a frame boundary is idleness, not failure: check
            // whether the client is closing and otherwise keep waiting. A
            // timeout *inside* a frame is a peer that stalled mid-message.
            Err(FrameError::Io(e)) if is_timeout(&e) && reader.consumed == 0 => {
                if closing.load(Ordering::SeqCst) {
                    break None;
                }
                continue;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                break Some("peer stalled mid-frame (read timed out)".into());
            }
            Err(FrameError::Corrupt(msg)) => break Some(msg),
            Err(FrameError::Io(e)) => break Some(e.to_string()),
        };
        let response = match decode_response(&payload) {
            Ok(r) => r,
            Err(e) => break Some(e.to_string()),
        };
        let (request_id, result) = match response {
            Response::Committed { request_id, txn_id } => {
                (request_id, TxnResult::Committed(txn_id))
            }
            Response::Aborted { request_id, txn_id } => (request_id, TxnResult::Aborted(txn_id)),
            Response::QueueFull { request_id } => (request_id, TxnResult::QueueFull),
            Response::BulkFailed {
                request_id,
                message,
            } => (request_id, TxnResult::BulkFailed(message)),
            Response::Disconnected { request_id } => (request_id, TxnResult::Disconnected),
            Response::Pong { request_id } => (request_id, TxnResult::Pong),
            Response::Health { request_id, report } => (request_id, TxnResult::Health(report)),
            Response::Error {
                request_id: 0,
                message,
            } => {
                // Connection-scoped protocol error: the server closes after
                // this; remember it so pending replies fail with the cause.
                *demux.conn_error.lock().expect("conn error poisoned") = Some(message);
                continue;
            }
            Response::Error {
                request_id,
                message,
            } => {
                let slot = demux
                    .pending
                    .lock()
                    .expect("pending map poisoned")
                    .remove(&request_id);
                match slot {
                    Some(s) => s.resolve(Err(ClientError::ConnectionClosed(message))),
                    None => {
                        demux.unmatched.fetch_add(1, Ordering::Relaxed);
                    }
                }
                continue;
            }
        };
        let slot = demux
            .pending
            .lock()
            .expect("pending map poisoned")
            .remove(&request_id);
        match slot {
            Some(s) => s.resolve(Ok(result)),
            None => {
                demux.unmatched.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    demux.dead.store(true, Ordering::Release);
    let reason = close_reason
        .or_else(|| {
            demux
                .conn_error
                .lock()
                .expect("conn error poisoned")
                .clone()
        })
        .unwrap_or_else(|| "connection closed by peer".into());
    let leftovers: Vec<Arc<ReplySlot>> = demux
        .pending
        .lock()
        .expect("pending map poisoned")
        .drain()
        .map(|(_, s)| s)
        .collect();
    for slot in leftovers {
        // On a reconnecting client an orphaned submit is an *ambiguous*
        // outcome (the server may still execute it), not a client error.
        let verdict = if demux.resolve_disconnected {
            Ok(TxnResult::Disconnected)
        } else {
            Err(ClientError::ConnectionClosed(reason.clone()))
        };
        slot.resolve(verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_server::proto::{append_frame, encode_response};
    use std::io::Write;
    use std::sync::mpsc::{channel, Receiver, Sender};

    type ReadStep = io::Result<Vec<u8>>;

    /// A transport double whose reads follow a script: each step is the
    /// bytes one socket read delivers, or the error it fails with; a closed
    /// script is EOF. Reads park on the script, so a test decides what has
    /// been submitted before the first byte arrives. Writes are swallowed.
    struct Scripted {
        script: Arc<Mutex<Receiver<ReadStep>>>,
        /// Delivered bytes the caller's buffer had no room for yet.
        leftover: Vec<u8>,
    }

    fn scripted() -> (Sender<ReadStep>, Scripted) {
        let (tx, rx) = channel();
        let stream = Scripted {
            script: Arc::new(Mutex::new(rx)),
            leftover: Vec::new(),
        };
        (tx, stream)
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.leftover.is_empty() {
                match self.script.lock().expect("script lock").recv() {
                    Ok(step) => self.leftover = step?,
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.leftover.len());
            buf[..n].copy_from_slice(&self.leftover[..n]);
            self.leftover.drain(..n);
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Duplex for Scripted {
        fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
            Ok(Box::new(Scripted {
                script: Arc::clone(&self.script),
                leftover: Vec::new(),
            }))
        }
        fn shutdown_both(&self) -> io::Result<()> {
            Ok(())
        }
    }

    fn committed_frame(request_id: u64, txn_id: TxnId) -> Vec<u8> {
        let mut frame = Vec::new();
        append_frame(
            &mut frame,
            &encode_response(&Response::Committed { request_id, txn_id }),
        );
        frame
    }

    fn timed_out() -> ReadStep {
        Err(io::ErrorKind::TimedOut.into())
    }

    /// One socket read delivers reply 1 and half of reply 2, then the socket
    /// times out. The half frame sits in the read-ahead buffer, not on the
    /// socket — it is still a peer that stalled mid-frame.
    #[test]
    fn timeout_with_half_a_frame_read_ahead_is_a_mid_frame_stall() {
        let (script, stream) = scripted();
        let client = Client::from_duplex(stream).expect("client");
        let first = client.submit(0, vec![]).expect("submit 1");
        let second = client.submit(0, vec![]).expect("submit 2");
        let mut bytes = committed_frame(first.request_id(), 10);
        let next = committed_frame(second.request_id(), 11);
        bytes.extend_from_slice(&next[..next.len() / 2]);
        script.send(Ok(bytes)).expect("reader is live");
        script.send(timed_out()).expect("reader is live");
        drop(script);
        assert_eq!(first.wait(), Ok(TxnResult::Committed(10)));
        assert_eq!(
            second.wait(),
            Err(ClientError::ConnectionClosed(
                "peer stalled mid-frame (read timed out)".into()
            ))
        );
    }

    /// One socket read delivers exactly reply 1, then the socket times out:
    /// a frame boundary, so the reader polls on and the connection still
    /// delivers reply 2 afterwards.
    #[test]
    fn timeout_at_a_frame_boundary_is_an_idle_poll() {
        let (script, stream) = scripted();
        let client = Client::from_duplex(stream).expect("client");
        let first = client.submit(0, vec![]).expect("submit 1");
        let second = client.submit(0, vec![]).expect("submit 2");
        script
            .send(Ok(committed_frame(first.request_id(), 10)))
            .expect("reader is live");
        script.send(timed_out()).expect("reader is live");
        assert_eq!(first.wait(), Ok(TxnResult::Committed(10)));
        script
            .send(Ok(committed_frame(second.request_id(), 11)))
            .expect("reader is live");
        assert_eq!(
            second.wait(),
            Ok(TxnResult::Committed(11)),
            "the connection must stay up through the idle timeout"
        );
        assert_eq!(client.unmatched_responses(), 0);
        // Closing the script is EOF, which lets `Drop` join the reader.
        drop(script);
    }
}
