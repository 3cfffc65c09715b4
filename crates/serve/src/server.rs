//! The concurrent cube server: a thread-per-connection TCP front end over
//! long-lived [`CubeSession`]s, with admission control, overload shedding,
//! per-connection fault isolation, and graceful drain.
//!
//! Design invariants the tests (and the chaos suite) hold the server to:
//!
//! * **Shed, don't degrade.** A query either gets an admission [`Permit`](crate::admission::Permit)
//!   (its memory estimate reserved, a running slot held) or a typed
//!   `Overloaded` / `ShuttingDown` frame. Admitted queries are never
//!   cancelled to make room for new ones.
//! * **Faults are per-connection.** A panicking worker, a protocol
//!   violation, a stalled peer or a mid-stream disconnect ends *that*
//!   query/connection — with a typed error frame when the socket still
//!   works — and never takes the process down or leaks the producer thread
//!   (dropping the [`CellStream`] cancels and joins it).
//! * **Shutdown drains.** [`Server::shutdown`] stops accepting, sheds the
//!   queue, lets in-flight queries finish inside the drain deadline, then
//!   cancels stragglers cooperatively and joins every thread it spawned.

use crate::admission::{AdmissionConfig, Gate, GateMetrics, ShapeHistory, Shed};
use crate::proto::{
    self, wire_status, CellBlock, DoneStats, ProtoError, QueryRequest, Request, Response,
    TableInfo, WireStatus,
};
use c_cubing::{CellStream, CubeSession, QueryHandle, StreamPoll};
use ccube_core::faults;
use ccube_core::fxhash::{FxHashMap, FxHasher};
use ccube_core::mask::DimMask;
use ccube_core::{CubeError, Table};
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that can keep a [`Server`] from starting.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, local_addr, ...).
    Io(std::io::Error),
    /// A served table was rejected by [`CubeSession::new`].
    Cube(CubeError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Cube(e) => write!(f, "table rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Server knobs. The defaults suit tests and small deployments; the bench
/// harness overrides admission to provoke shedding.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Engine worker threads for queries that do not ask for a count
    /// (`0` = let the session's planner pick the sequential path).
    pub default_threads: usize,
    /// Tick used while waiting for a request at a frame boundary; bounds
    /// how fast an idle connection notices server shutdown.
    pub idle_tick: Duration,
    /// Read timeout *inside* a frame: a peer that stalls mid-frame longer
    /// than this is treated as gone.
    pub frame_read_timeout: Duration,
    /// Write timeout per socket write (a flush of buffered reply frames is
    /// one write unless the peer's window is full): a reader that accepts
    /// nothing for this long (slow-consumer pathology) gets its query
    /// cancelled and the connection closed.
    pub write_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight queries before
    /// cancelling them.
    pub drain_deadline: Duration,
    /// Keepalive cadence on an idle reply stream: a query that produces no
    /// batch for this long gets a `Heartbeat` frame so the client can tell
    /// slow-query from dead-peer.
    pub heartbeat_interval: Duration,
    /// How often the watchdog scans active queries for stalled progress.
    pub watchdog_interval: Duration,
    /// How long a query's progress epoch may stay frozen before the
    /// watchdog reaps it with [`CubeError::Wedged`]. Effectively clamped up
    /// to `write_timeout + 2 × watchdog_interval` so a pump legitimately
    /// blocked on a slow-but-live client socket cannot be mistaken for a
    /// wedge.
    pub wedge_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            default_threads: 0,
            idle_tick: Duration::from_millis(20),
            frame_read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            heartbeat_interval: Duration::from_secs(1),
            watchdog_interval: Duration::from_millis(250),
            wedge_timeout: Duration::from_secs(10),
        }
    }
}

/// Point-in-time server counters (see [`Server::metrics`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerMetrics {
    /// Admission-gate counters.
    pub gate: GateMetrics,
    /// Accept-loop errors survived (the loop never dies of one).
    pub accept_errors: u64,
    /// Connection-handler panics contained (connection closed, process
    /// intact).
    pub panics_contained: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Queries currently admitted and running.
    pub active_queries: usize,
    /// Queries re-executed for a `Resume` request.
    pub resumed: u64,
    /// Queries reaped by the watchdog for frozen progress.
    pub reaped: u64,
    /// Heartbeat frames sent on idle reply streams.
    pub heartbeats: u64,
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Whether every in-flight query finished inside the drain deadline.
    pub drained: bool,
    /// Queries cancelled after the drain deadline expired.
    pub cancelled: usize,
}

struct ServedTable {
    name: String,
    session: Mutex<CubeSession>,
    /// Current row count; updated under the session lock, read lock-free by
    /// the `Tables` handler.
    rows: AtomicU64,
    dims: u32,
    /// Table version: starts at 1, bumped by every non-empty ingest. Bumps
    /// happen under the session lock, so a query planned under that lock
    /// observes version and table state atomically.
    version: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    tables: Vec<ServedTable>,
    gate: Gate,
    history: ShapeHistory,
    /// Stop flag: accept loop exits, idle connections close at next tick.
    stop: AtomicBool,
    /// Admitted, still-running queries — the drain loop watches and (past
    /// the deadline) cancels through these handles.
    active: Mutex<FxHashMap<u64, QueryHandle>>,
    query_seq: AtomicU64,
    accept_errors: AtomicU64,
    panics_contained: AtomicU64,
    connections: AtomicU64,
    resumed: AtomicU64,
    reaped: AtomicU64,
    heartbeats: AtomicU64,
}

impl Shared {
    fn find_table(&self, name: &str) -> Option<&ServedTable> {
        self.tables.iter().find(|t| t.name == name)
    }
}

/// Removes an in-flight query from the active registry on drop, so a panic
/// unwinding through the pump still deregisters it.
struct ActiveQuery<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> ActiveQuery<'a> {
    fn register(shared: &'a Shared, handle: QueryHandle) -> ActiveQuery<'a> {
        let id = shared.query_seq.fetch_add(1, Ordering::Relaxed);
        shared
            .active
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, handle);
        ActiveQuery { shared, id }
    }
}

impl Drop for ActiveQuery<'_> {
    fn drop(&mut self) {
        self.shared
            .active
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.id);
    }
}

/// A running cube server. Dropping it performs a full [`Server::shutdown`]
/// (ignoring the report), so tests cannot leak threads by accident.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Build sessions for `tables`, bind, and start accepting. Returns once
    /// the listener is live (`addr()` is connectable).
    pub fn start(tables: Vec<(String, Table)>, config: ServerConfig) -> Result<Server, ServeError> {
        let mut served = Vec::with_capacity(tables.len());
        for (name, table) in tables {
            let rows = table.rows() as u64;
            let dims = table.dims() as u32;
            let session = CubeSession::new(table).map_err(ServeError::Cube)?;
            served.push(ServedTable {
                name,
                session: Mutex::new(session),
                rows: AtomicU64::new(rows),
                dims,
                version: AtomicU64::new(1),
            });
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            gate: Gate::new(config.admission),
            config,
            tables: served,
            history: ShapeHistory::new(),
            stop: AtomicBool::new(false),
            active: Mutex::new(FxHashMap::default()),
            // Wire query ids start at 1 so 0 never names a live stream.
            query_seq: AtomicU64::new(1),
            accept_errors: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        // Chaos fault scopes are thread-local; carry the starter's scope
        // into the accept thread (and from there into each connection).
        let fault_scope = faults::current_scope();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("ccube-serve-accept".into())
                .spawn(move || {
                    let _chaos = fault_scope.as_ref().map(faults::FaultScope::install);
                    accept_loop(&listener, &shared, &conns);
                })
                .map_err(ServeError::Io)?
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccube-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .map_err(ServeError::Io)?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            watchdog: Some(watchdog),
            conns,
        })
    }

    /// The bound address (use after binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the server's counters.
    pub fn metrics(&self) -> ServerMetrics {
        ServerMetrics {
            gate: self.shared.gate.metrics(),
            accept_errors: self.shared.accept_errors.load(Ordering::Relaxed),
            panics_contained: self.shared.panics_contained.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
            active_queries: self
                .shared
                .active
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
            resumed: self.shared.resumed.load(Ordering::Relaxed),
            reaped: self.shared.reaped.load(Ordering::Relaxed),
            heartbeats: self.shared.heartbeats.load(Ordering::Relaxed),
        }
    }

    /// Drain and stop: stop accepting, shed the wait queue, give in-flight
    /// queries until the drain deadline, cancel the stragglers, then join
    /// every server thread. Idempotent through [`Drop`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.gate.start_drain();
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        let mut drained = true;
        let mut cancelled = 0;
        loop {
            let active = self
                .shared
                .active
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len();
            if active == 0 {
                break;
            }
            if Instant::now() >= deadline {
                // Cooperative cancellation: trip each straggler's token and
                // let its connection report `Cancelled`; the handler still
                // deregisters, so the join below stays bounded.
                let handles: Vec<QueryHandle> = self
                    .shared
                    .active
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .values()
                    .cloned()
                    .collect();
                cancelled = handles.len();
                drained = handles.is_empty();
                for h in &handles {
                    h.cancel();
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for c in conns {
            let _ = c.join();
        }
        ShutdownReport { drained, cancelled }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // An accept failure (injected or real: EMFILE, aborted handshake)
        // is survived, counted, and retried — the loop never dies of one.
        if faults::inject_io("serve.accept").is_err() {
            shared.accept_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let fault_scope = faults::current_scope();
                let handle = std::thread::Builder::new()
                    .name("ccube-serve-conn".into())
                    .spawn(move || {
                        let _chaos = fault_scope.as_ref().map(faults::FaultScope::install);
                        run_connection(stream, &conn_shared);
                    });
                match handle {
                    Ok(h) => {
                        let mut guard = conns.lock().unwrap_or_else(|p| p.into_inner());
                        // Reap finished handlers so the vec tracks live
                        // connections, not lifetime history.
                        guard.retain(|c| !c.is_finished());
                        guard.push(h);
                    }
                    Err(_) => {
                        shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Reap queries whose workers stopped making progress. Each scan compares
/// every active query's progress epoch to the last scan; an epoch frozen
/// for longer than the (clamped) wedge timeout gets its token tripped with
/// [`CubeError::Wedged`] — the query unwinds at the wire as a typed,
/// retryable error frame instead of hanging its connection forever.
///
/// False-reap guards: a healthy-but-back-pressured pump bumps the epoch
/// each time a socket write of its flush returns ([`Wire::flush`]), and one
/// such write either moves bytes or fails the connection within
/// `write_timeout`. Two scans must see the same epoch at least the timeout
/// apart, scans are `watchdog_interval` apart, and the effective timeout is
/// at least `write_timeout + 2 × watchdog_interval` — so a pump parked in
/// one slow socket write cannot freeze the epoch long enough to be reaped,
/// however many frames that flush carries.
fn watchdog_loop(shared: &Shared) {
    let interval = shared.config.watchdog_interval;
    let timeout = shared
        .config
        .wedge_timeout
        .max(shared.config.write_timeout + 2 * interval);
    let mut seen: FxHashMap<u64, (u64, Instant)> = FxHashMap::default();
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        let active: Vec<(u64, QueryHandle)> = shared
            .active
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(id, h)| (*id, h.clone()))
            .collect();
        let now = Instant::now();
        seen.retain(|id, _| active.iter().any(|(a, _)| a == id));
        for (id, handle) in active {
            let epoch = handle.progress();
            match seen.get_mut(&id) {
                None => {
                    seen.insert(id, (epoch, now));
                }
                Some((last, since)) => {
                    if *last != epoch {
                        *last = epoch;
                        *since = now;
                    } else if now.duration_since(*since) >= timeout
                        && !handle.is_tripped()
                        && handle.trip(CubeError::Wedged)
                    {
                        shared.reaped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Top-level connection wrapper: contains panics that escape the handler
/// (including injected ones), converts them into a best-effort `Internal`
/// error frame, and closes the connection. The process and every other
/// connection stay up.
fn run_connection(mut stream: TcpStream, shared: &Shared) {
    // Replies are written as whole flushes (see `Wire`), so Nagle has
    // nothing to coalesce — it would only park the tail of every
    // multi-write reply behind the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.idle_tick));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(&mut stream, shared)));
    if outcome.is_err() {
        shared.panics_contained.fetch_add(1, Ordering::Relaxed);
        // Frames the unwound handler had encoded but not written are gone
        // with its buffer; what the peer holds is still a valid prefix.
        let _ = Wire::new(&mut stream).send(&Response::Error {
            status: WireStatus::Internal,
            detail: "internal error; connection closed".to_string(),
        });
    }
}

/// The outgoing half of a connection: the socket, and the one buffer every
/// reply frame of the connection is encoded into. Frames are appended in
/// place (header and payload, no per-frame allocation) and leave together
/// in one [`Wire::flush`].
struct Wire<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
}

impl<'a> Wire<'a> {
    fn new(stream: &'a mut TcpStream) -> Wire<'a> {
        Wire {
            stream,
            buf: Vec::new(),
        }
    }

    /// Append one frame whose payload `body` encodes. The chaos suite's
    /// write fault is per *frame*, here, not per flush: an injected failure
    /// stands for this frame's write failing, so the frames encoded before
    /// it still go out first — "kill on the 9th frame" delivers eight.
    fn frame(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        if let Err(e) = faults::inject_io("serve.frame.write") {
            let _ = self.flush(|| {});
            return Err(e);
        }
        proto::put_frame(&mut self.buf, body);
        Ok(())
    }

    /// Write everything buffered, calling `wrote` after each socket write
    /// that moved bytes. Each such write is bounded by `write_timeout`; a
    /// failed one leaves the connection unusable (the buffer is dropped
    /// either way).
    fn flush(&mut self, mut wrote: impl FnMut()) -> std::io::Result<()> {
        let mut sent = 0;
        let result = loop {
            if sent == self.buf.len() {
                break Ok(());
            }
            match self.stream.write(&self.buf[sent..]) {
                Ok(0) => break Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    sent += n;
                    wrote();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.buf.clear();
        result
    }

    /// Encode `resp` and write it (with anything still buffered) now.
    fn send(&mut self, resp: &Response) -> std::io::Result<()> {
        self.frame(|out| proto::put_response(out, resp))?;
        self.flush(|| {})
    }
}

/// What a served request means for the connection.
enum Flow {
    /// Keep reading requests.
    Continue,
    /// Stop serving this connection (clean close or dead socket).
    Close,
}

fn serve_connection(stream: &mut TcpStream, shared: &Shared) {
    // One wire buffer for the connection's lifetime, reused by every reply.
    let mut wire = Wire::new(stream);
    loop {
        let payload = match read_request_frame(wire.stream, shared) {
            ReadOutcome::Frame(p) => p,
            ReadOutcome::Close => return,
            ReadOutcome::Malformed(e) => {
                // Framing itself is broken: no later frame boundary can be
                // trusted, so answer once and hang up.
                let _ = wire.send(&Response::Error {
                    status: WireStatus::Protocol,
                    detail: e.to_string(),
                });
                return;
            }
        };
        let flow = match proto::decode_request(&payload) {
            // The frame was well-delimited but its body is invalid;
            // framing is still sound, so answer and keep serving.
            Err(e) => answer(
                &mut wire,
                &Response::Error {
                    status: WireStatus::Protocol,
                    detail: e.to_string(),
                },
            ),
            Ok(Request::Ping) => answer(&mut wire, &Response::Pong),
            Ok(Request::Tables) => {
                let tables = shared
                    .tables
                    .iter()
                    .map(|t| TableInfo {
                        name: t.name.clone(),
                        rows: t.rows.load(Ordering::Relaxed),
                        dims: t.dims,
                        version: t.version.load(Ordering::Relaxed),
                    })
                    .collect();
                answer(&mut wire, &Response::TableList(tables))
            }
            Ok(Request::Query(q)) => serve_query(&mut wire, shared, &q, None),
            Ok(Request::Resume {
                query_id,
                next_seq,
                query,
            }) => {
                shared.resumed.fetch_add(1, Ordering::Relaxed);
                serve_query(&mut wire, shared, &query, Some((query_id, next_seq)))
            }
            Ok(Request::Ingest { table, rows }) => serve_ingest(&mut wire, shared, &table, &rows),
        };
        if matches!(flow, Flow::Close) {
            return;
        }
    }
}

enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean EOF, server stop, or a dead/stalled socket.
    Close,
    /// The peer sent an invalid frame header.
    Malformed(ProtoError),
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read one request frame. At the frame boundary the read ticks at
/// `idle_tick` so an idle connection notices `stop`; once the first header
/// byte arrives the peer must deliver the rest within `frame_read_timeout`
/// or be treated as stalled (mid-frame torn writes also land here).
fn read_request_frame(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    if faults::inject_io("serve.frame.read").is_err() {
        return ReadOutcome::Close;
    }
    let mut header = [0u8; 4];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return ReadOutcome::Close;
        }
        match stream.read(&mut header[..1]) {
            Ok(0) => return ReadOutcome::Close,
            Ok(_) => break,
            Err(e) if timed_out(&e) => continue,
            Err(_) => return ReadOutcome::Close,
        }
    }
    let deadline = Instant::now() + shared.config.frame_read_timeout;
    if read_exact_until(stream, &mut header[1..], deadline).is_err() {
        return ReadOutcome::Close;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return ReadOutcome::Malformed(ProtoError::EmptyFrame);
    }
    if len > proto::MAX_PAYLOAD {
        return ReadOutcome::Malformed(ProtoError::Oversized { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    match read_exact_until(stream, &mut payload, deadline) {
        Ok(()) => ReadOutcome::Frame(payload),
        Err(_) => ReadOutcome::Close,
    }
}

/// `read_exact` against a tick-granularity read timeout: keeps reading
/// through timeout ticks until `deadline`, so one slow-but-live peer is
/// fine while a stalled one is cut off.
fn read_exact_until(
    stream: &mut TcpStream,
    mut buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.read(buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if timed_out(&e) => {
                if Instant::now() >= deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Cells per `Batch` frame. Fixed, because resume-by-re-execution counts
/// frames: the same request must cut into the same frames on every run.
/// (64 cells × (dims×4 + 8) bytes is a few KiB, nowhere near
/// [`MAX_PAYLOAD`]; frames leave many to a write, see [`FLUSH_BYTES`].)
///
/// [`MAX_PAYLOAD`]: proto::MAX_PAYLOAD
const BATCH_CELLS: usize = 64;

/// A reply's buffered frames are written once they pass this size even if
/// the producer is still ahead of the socket — it bounds the wire buffer
/// and keeps the client decoding while the engine computes.
const FLUSH_BYTES: usize = 32 * 1024;

/// Cuts a query's batch stream into the wire's `BATCH_CELLS`-cell frames:
/// seq `0, 1, 2, …`, every frame full except the last. Whole frames are
/// emitted straight from the batch's slices; only a frame that straddles
/// two batches (or the stream's tail) is assembled in `held`.
/// Frames with `seq < skip` — the ones a resuming client already holds —
/// are counted, not emitted.
struct FrameCutter {
    skip: u64,
    /// Seq of the next frame.
    seq: u64,
    /// Cells framed so far, skipped frames included.
    cells: u64,
    /// The frame under assembly. Its cell width comes from the batches,
    /// not the table: projected queries emit over the kept dimensions only.
    held: CellBlock,
}

impl FrameCutter {
    fn new(skip: u64) -> FrameCutter {
        FrameCutter {
            skip,
            seq: 0,
            cells: 0,
            held: CellBlock::default(),
        }
    }

    /// Account for one frame of `cells` cells and return its seq.
    fn advance(&mut self, cells: usize) -> u64 {
        self.cells += cells as u64;
        self.seq += 1;
        self.seq - 1
    }

    /// Feed the next batch (`values` flattened `dims` wide); `emit` gets
    /// `(seq, dims, values, counts)` of every frame it completes.
    fn push<E>(
        &mut self,
        dims: usize,
        mut values: &[u32],
        mut counts: &[u64],
        emit: &mut impl FnMut(u64, u16, &[u32], &[u64]) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(values.len(), counts.len() * dims);
        self.held.dims = dims as u16;
        if !self.held.is_empty() {
            // Top up the frame the previous batch left open.
            let take = (BATCH_CELLS - self.held.len()).min(counts.len());
            self.held.values.extend_from_slice(&values[..take * dims]);
            self.held.counts.extend_from_slice(&counts[..take]);
            (values, counts) = (&values[take * dims..], &counts[take..]);
            if self.held.len() < BATCH_CELLS {
                return Ok(());
            }
            self.finish(emit)?;
        }
        let whole = counts.chunks_exact(BATCH_CELLS);
        let tail = counts.len() - whole.remainder().len();
        for (i, frame_counts) in whole.enumerate() {
            let seq = self.advance(BATCH_CELLS);
            if seq >= self.skip {
                let at = i * BATCH_CELLS * dims;
                emit(
                    seq,
                    self.held.dims,
                    &values[at..at + BATCH_CELLS * dims],
                    frame_counts,
                )?;
            }
        }
        self.held.values.extend_from_slice(&values[tail * dims..]);
        self.held.counts.extend_from_slice(&counts[tail..]);
        Ok(())
    }

    /// Frame the cells still held — the short last frame of a completed
    /// stream (a failed run's are dropped instead).
    fn finish<E>(
        &mut self,
        emit: &mut impl FnMut(u64, u16, &[u32], &[u64]) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.held.is_empty() {
            return Ok(());
        }
        let seq = self.advance(self.held.len());
        let emitted = if seq >= self.skip {
            emit(seq, self.held.dims, &self.held.values, &self.held.counts)
        } else {
            // Already delivered before the disconnect: recompute, don't
            // resend. Determinism makes the boundaries line up with the
            // interrupted stream's.
            Ok(())
        };
        self.held.values.clear();
        self.held.counts.clear();
        emitted
    }
}

/// One query's reply stream on its connection's [`Wire`]: tags the frames
/// and owns the flush rule. Frames go out
///
/// * when the producer has nothing ready (`pump`'s `Idle`: send what we
///   have, *then* wait) — so a lone first frame leaves at once;
/// * when the buffer passes [`FLUSH_BYTES`];
/// * before a `Heartbeat`, and together with the terminal `Done`/`Error`
///   frame.
struct Reply<'w, 's> {
    wire: &'w mut Wire<'s>,
    handle: QueryHandle,
    query_id: u64,
    version: u64,
    last_send: Instant,
}

impl Reply<'_, '_> {
    /// Write the buffered frames, if any. A write that moved bytes is
    /// progress even while the engine is back-pressured by this very
    /// socket, so each one bumps the watchdog's epoch.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.wire.buf.is_empty() {
            return Ok(());
        }
        let handle = &self.handle;
        self.wire.flush(|| handle.note_progress())?;
        self.last_send = Instant::now();
        Ok(())
    }

    /// Encode one `Batch` frame in place from borrowed cell slices.
    fn batch(
        &mut self,
        seq: u64,
        dims: u16,
        values: &[u32],
        counts: &[u64],
    ) -> std::io::Result<()> {
        let (query_id, version) = (self.query_id, self.version);
        self.wire
            .frame(|out| proto::put_batch(out, query_id, seq, version, dims, values, counts))?;
        if self.wire.buf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Drain `cells` into frames until the stream ends. An error means the
    /// socket is dead or stalled (or a chaos fault said so).
    fn pump(
        &mut self,
        cells: &mut CellStream,
        cutter: &mut FrameCutter,
        shared: &Shared,
    ) -> std::io::Result<()> {
        loop {
            // Keepalive covers both idle streams (slow query, back-pressure)
            // and the busy-but-silent skip phase of a resume.
            if self.last_send.elapsed() >= shared.config.heartbeat_interval {
                // Result frames first, as progress; the keepalive's own
                // write is not — a wedged query must still be reaped while
                // its stream idles on heartbeats.
                self.flush()?;
                self.wire.send(&Response::Heartbeat {
                    query_id: self.query_id,
                })?;
                self.last_send = Instant::now();
                shared.heartbeats.fetch_add(1, Ordering::Relaxed);
            }
            // With frames waiting, only take what the producer already has;
            // with none, there is nothing to delay by waiting a tick.
            let wait = if self.wire.buf.is_empty() {
                shared.config.idle_tick
            } else {
                Duration::ZERO
            };
            match cells.poll_batch(wait) {
                StreamPoll::Batch(batch) => cutter.push(
                    batch.dims(),
                    batch.values(),
                    batch.counts(),
                    &mut |seq, dims, values, counts| self.batch(seq, dims, values, counts),
                )?,
                StreamPoll::Idle => self.flush()?,
                StreamPoll::End => return Ok(()),
            }
        }
    }
}

/// The query's shape for memory-history purposes: everything that affects
/// how much the engine buffers, excluding the deadline (which affects how
/// long it runs, not how wide).
fn shape_hash(q: &QueryRequest) -> u64 {
    let mut h = FxHasher::default();
    q.table.hash(&mut h);
    q.min_sup.hash(&mut h);
    q.algorithm.hash(&mut h);
    q.closed.hash(&mut h);
    q.dims.hash(&mut h);
    q.selections.hash(&mut h);
    q.threads.hash(&mut h);
    h.finish()
}

/// Serve one query (or resume one). `resume` carries the wire id to echo
/// and the number of leading batches the client already holds; the run is
/// re-executed in full — determinism makes the replayed stream identical —
/// and the first `next_seq` batches are simply not written to the socket.
fn serve_query(
    wire: &mut Wire<'_>,
    shared: &Shared,
    q: &QueryRequest,
    resume: Option<(u64, u64)>,
) -> Flow {
    let started = Instant::now();
    let Some(table) = shared.find_table(&q.table) else {
        return answer(
            wire,
            &Response::Error {
                status: WireStatus::UnknownTable,
                detail: format!("table {:?} is not served", q.table),
            },
        );
    };

    // Admission: estimate from this shape's history, wait bounded by the
    // queue allowance and the query's own deadline, shed typed.
    let shape = shape_hash(q);
    let estimate = shared
        .history
        .estimate(shape, shared.gate.config().default_estimate);
    let deadline = (q.deadline_ms > 0).then(|| started + Duration::from_millis(q.deadline_ms));
    let permit = match shared.gate.admit(estimate, deadline) {
        Ok(p) => p,
        Err(Shed::Draining) => {
            return answer(
                wire,
                &Response::Error {
                    status: WireStatus::ShuttingDown,
                    detail: "server is draining".to_string(),
                },
            );
        }
        Err(Shed::QueueFull | Shed::Timeout) => {
            return answer(
                wire,
                &Response::Overloaded {
                    retry_after_ms: shared.gate.retry_after().as_millis() as u64,
                },
            );
        }
    };

    // Time spent queued counts against the query's deadline.
    let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if remaining.is_some_and(|r| r.is_zero()) {
        return answer(
            wire,
            &Response::Error {
                status: WireStatus::DeadlineExceeded,
                detail: CubeError::DeadlineExceeded.to_string(),
            },
        );
    }

    // Build the query and spawn its producer under the session lock;
    // `stream()` returns right after the spawn, so the lock is held only
    // for planning + thread start, and concurrent queries on the same
    // table pump their results in parallel.
    let (version, cells) = {
        let mut session = table.session.lock().unwrap_or_else(|p| p.into_inner());
        // Loaded under the same lock `serve_ingest` bumps under, so the
        // pin check is atomic with the snapshot the spawned run reads: a
        // resume that spans an ingest fails typed instead of splicing
        // batches from two different table states.
        let version = table.version.load(Ordering::Relaxed);
        if q.version != 0 && q.version != version {
            return answer(
                wire,
                &Response::Error {
                    status: WireStatus::VersionMismatch,
                    detail: format!(
                        "table {:?} is at version {version}, request pinned version {}; \
                         restart the query from seq 0",
                        q.table, q.version
                    ),
                },
            );
        }
        let mut query = session.query().min_sup(q.min_sup);
        if let Some(a) = q.algorithm {
            query = query.algorithm(a);
        }
        if let Some(c) = q.closed {
            query = query.closed(c);
        }
        if let Some(mask) = q.dims {
            query = query.dims(DimMask(mask));
        }
        for (dim, values) in &q.selections {
            query = query.dice(*dim as usize, values);
        }
        let threads = if q.threads > 0 {
            q.threads as usize
        } else {
            shared.config.default_threads
        };
        if threads > 0 {
            query = query.threads(threads);
        }
        query = query.memory_budget(permit.budget() as usize);
        if let Some(r) = remaining {
            query = query.deadline(r);
        }
        (version, query.stream())
    };
    let mut cells = match cells {
        Ok(c) => c,
        Err(e) => {
            // Builder misuse (bad dimension, zero min_sup, ...): typed
            // error before any thread was spawned.
            return answer(
                wire,
                &Response::Error {
                    status: wire_status(&e),
                    detail: e.to_string(),
                },
            );
        }
    };

    let active = ActiveQuery::register(shared, cells.handle());
    // The engine's batches are handed through as they are and cut into
    // frames in place (`FrameCutter`, `Reply`): no per-cell `Cell`, no
    // intermediate block, no per-frame buffer.
    let mut cutter = FrameCutter::new(resume.map_or(0, |(_, next_seq)| next_seq));
    let mut reply = Reply {
        wire,
        handle: cells.handle(),
        // A resumed stream echoes the id the client correlates by; a fresh
        // one is named by its registry id (ids start at 1, so 0 never
        // occurs).
        query_id: resume.map_or(active.id, |(id, _)| id),
        version,
        last_send: Instant::now(),
    };
    if reply.pump(&mut cells, &mut cutter, shared).is_err() {
        // Dead or stalled reader: dropping `cells` cancels the producing
        // run and joins its thread before we return.
        drop(cells);
        return Flow::Close;
    }
    match cells.finish() {
        Ok(stats) => {
            if cutter
                .finish(&mut |seq, dims, values, counts| reply.batch(seq, dims, values, counts))
                .is_err()
            {
                return Flow::Close;
            }
            let elapsed = started.elapsed();
            shared.history.record(shape, stats.peak_buffered_bytes);
            shared.gate.record_service(elapsed);
            answer(
                reply.wire,
                &Response::Done(DoneStats {
                    query_id: reply.query_id,
                    version,
                    // Whole-stream total (skipped batches included), so a
                    // resumed run's Done matches the uninterrupted run's.
                    cells: cutter.cells,
                    elapsed_micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                    peak_buffered_bytes: stats.peak_buffered_bytes,
                    tasks: stats.tasks,
                    fast_path: stats.fast_path,
                }),
            )
        }
        Err(e) => {
            // The run ended early (cancel/deadline/budget/worker panic):
            // the cutter's partial tail frame is dropped and the typed
            // error follows the whole frames already encoded. A budget trip
            // teaches the shape what it needed, so it ratchets instead of
            // failing the same way again.
            if let CubeError::BudgetExceeded { peak, .. } = e {
                shared.history.record(shape, peak as u64);
            }
            shared.gate.record_service(started.elapsed());
            answer(
                reply.wire,
                &Response::Error {
                    status: wire_status(&e),
                    detail: e.to_string(),
                },
            )
        }
    }
}

/// Append a batch of tuples to a served table. The whole ingest — append,
/// cached-artifact patching, materialized-cube maintenance, version bump —
/// runs under the session lock, so a concurrently planned query observes
/// either the old table at the old version or the new table at the new
/// one, never a half-applied state. On error nothing was appended and the
/// version is unchanged.
fn serve_ingest(wire: &mut Wire<'_>, shared: &Shared, name: &str, rows: &[u32]) -> Flow {
    let Some(table) = shared.find_table(name) else {
        return answer(
            wire,
            &Response::Error {
                status: WireStatus::UnknownTable,
                detail: format!("table {name:?} is not served"),
            },
        );
    };
    let outcome = {
        let mut session = table.session.lock().unwrap_or_else(|p| p.into_inner());
        session.ingest(rows).map(|stats| {
            if stats.rows > 0 {
                table.rows.fetch_add(stats.rows as u64, Ordering::Relaxed);
                table.version.fetch_add(1, Ordering::Relaxed);
            }
            (table.version.load(Ordering::Relaxed), stats.rows as u64)
        })
    };
    match outcome {
        Ok((version, rows)) => answer(wire, &Response::Ingested { version, rows }),
        Err(e) => answer(
            wire,
            &Response::Error {
                status: wire_status(&e),
                detail: e.to_string(),
            },
        ),
    }
}

/// Send a terminal response (together with any reply frames still
/// buffered); a failed write closes the connection.
fn answer(wire: &mut Wire<'_>, resp: &Response) -> Flow {
    match wire.send(resp) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(seq, dims, values, counts)` of one emitted frame.
    type Frame = (u64, u16, Vec<u32>, Vec<u64>);

    /// The cell-at-a-time cutter the reply loop used to be: collect cells
    /// into a block, frame it at `BATCH_CELLS`, frame the remainder at the
    /// end. Returns the frames from `skip` on and the whole-stream total.
    fn per_cell_frames(dims: usize, cells: &[(Vec<u32>, u64)], skip: u64) -> (Vec<Frame>, u64) {
        let mut frames = Vec::new();
        let (mut seq, mut total) = (0u64, 0u64);
        for block in cells.chunks(BATCH_CELLS) {
            total += block.len() as u64;
            if seq >= skip {
                frames.push((
                    seq,
                    dims as u16,
                    block.iter().flat_map(|(v, _)| v.iter().copied()).collect(),
                    block.iter().map(|&(_, c)| c).collect(),
                ));
            }
            seq += 1;
        }
        (frames, total)
    }

    proptest! {
        /// However the engine sizes its batches, the cutter gives exactly
        /// the per-cell cutter's frames, seqs and whole-stream total — for
        /// a fresh stream and for every resume point.
        #[test]
        fn frame_cutter_equals_the_per_cell_cutter(
            dims in 1usize..=5,
            sizes in proptest::collection::vec(0usize..7, 0..12),
            seed in any::<u64>(),
        ) {
            // Sizes around the frame boundary, plus the engine's own
            // (64 … 1024) and ones that leave a straddling frame open.
            const SIZES: [usize; 7] = [0, 1, 63, 64, 65, 200, 1000];
            let mut n = seed as u32;
            let batches: Vec<Vec<(Vec<u32>, u64)>> = sizes
                .iter()
                .map(|&s| {
                    (0..SIZES[s])
                        .map(|_| {
                            n = n.wrapping_add(1);
                            ((0..dims as u32).map(|d| n ^ d).collect(), u64::from(n) + 1)
                        })
                        .collect()
                })
                .collect();
            let flat: Vec<(Vec<u32>, u64)> = batches.iter().flatten().cloned().collect();
            let slices: Vec<(Vec<u32>, Vec<u64>)> = batches
                .iter()
                .map(|batch| {
                    (
                        batch.iter().flat_map(|(v, _)| v.iter().copied()).collect(),
                        batch.iter().map(|&(_, c)| c).collect(),
                    )
                })
                .collect();
            let frame_count = flat.len().div_ceil(BATCH_CELLS) as u64;
            for skip in 0..=frame_count + 1 {
                let (want, total) = per_cell_frames(dims, &flat, skip);
                let mut cutter = FrameCutter::new(skip);
                let mut got: Vec<Frame> = Vec::new();
                let mut emit = |seq, dims, values: &[u32], counts: &[u64]| {
                    got.push((seq, dims, values.to_vec(), counts.to_vec()));
                    Ok::<(), ()>(())
                };
                for (values, counts) in &slices {
                    cutter.push(dims, values, counts, &mut emit).unwrap();
                }
                cutter.finish(&mut emit).unwrap();
                prop_assert_eq!(cutter.cells, total);
                prop_assert_eq!(cutter.seq, frame_count);
                prop_assert_eq!(&got, &want, "skip {}", skip);
            }
        }
    }
}
