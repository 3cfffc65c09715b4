//! Clients for the `ccube-serve` wire protocol.
//!
//! [`Client`] is the small blocking primitive — one connection, explicit
//! frames, typed errors — used by the integration tests, the chaos suite
//! and the bench load generator. Every socket operation carries a timeout,
//! so a wedged server turns into a visible [`ClientError::Timeout`] instead
//! of a hung test.
//!
//! [`ResilientClient`] is the production surface built on top of it: a
//! [`RetryPolicy`] with jittered exponential backoff (honoring the server's
//! `Overloaded` retry hint), automatic reconnect + [`Request::Resume`] on a
//! mid-stream disconnect, and an overall per-query deadline that composes
//! with the server-side one. Calling code never sees a transport error
//! unless the policy is exhausted — a query either completes (each batch
//! delivered exactly once, in order, cell-for-cell identical to an
//! uninterrupted run) or fails with a typed, terminal error.

use crate::proto::{
    self, CellBlock, DoneStats, FrameRead, ProtoError, QueryRequest, Request, Response, TableInfo,
    WireStatus, RETRY_AFTER_MAX, RETRY_AFTER_MIN,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Everything that can end a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write) other than a timeout.
    Io(std::io::Error),
    /// A socket operation exceeded its configured timeout; the payload
    /// names the phase (`"connect"`, `"read"`, `"write"`).
    Timeout(&'static str),
    /// The server's bytes did not decode.
    Proto(ProtoError),
    /// The server closed the connection mid-exchange.
    Disconnected,
    /// The server answered with a frame this call did not expect.
    Unexpected(&'static str),
    /// The server reported a typed failure that retrying cannot fix
    /// (bad request, unknown table, deadline, budget).
    Server {
        /// Wire status classifying the failure.
        status: WireStatus,
        /// Server-side detail string.
        detail: String,
    },
    /// The retry policy ran out of attempts; `last` describes the final
    /// failure.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// Display of the last attempt's failure.
        last: String,
    },
    /// The overall client-side query deadline expired before the query
    /// completed (possibly mid-backoff).
    DeadlineExhausted,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout(phase) => write!(f, "{phase} timed out"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
            ClientError::Server { status, detail } => {
                write!(f, "server error ({status:?}): {detail}")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            ClientError::DeadlineExhausted => write!(f, "client-side query deadline exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// Classify an i/o error from `phase`: timeouts become the typed
/// [`ClientError::Timeout`], everything else stays [`ClientError::Io`].
fn io_error(phase: &'static str, e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            ClientError::Timeout(phase)
        }
        _ => ClientError::Io(e),
    }
}

/// Socket timeouts for a [`Client`] connection. Every phase is bounded:
/// an unreachable address, a wedged server, or a stalled write each fail
/// typed within their timeout instead of blocking forever.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read timeout. For mid-query reads this doubles as the dead-peer
    /// detector: the server heartbeats idle streams (default every 1 s),
    /// so a read that sees *nothing* for this long means the peer — not
    /// the query — is gone.
    pub read_timeout: Duration,
    /// Per-write timeout.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// How a query ended, as seen by the client. Every terminal frame maps
/// here — a healthy server never leaves a query without one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The full result streamed; `stats` carries the server's counters.
    Done(DoneStats),
    /// The server reported a typed failure.
    ServerError {
        /// Wire status classifying the failure.
        status: WireStatus,
        /// Server-side detail string.
        detail: String,
    },
    /// Admission control shed the query before it ran.
    Overloaded {
        /// Suggested back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// Capacity of a [`Client`]'s read buffer: a server flush (up to 32 KiB
/// of reply frames plus the frame that crossed the line) fits in one
/// `read`.
const READ_BUFFER: usize = 64 * 1024;

/// A blocking connection to a cube server.
pub struct Client {
    /// Frames are read through the buffer, so a burst of reply frames costs
    /// one `read` syscall, not three per frame; requests are written to
    /// the socket underneath it.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect with a 5 s connect timeout and 30 s read/write timeouts
    /// (generous enough for chaos stalls, finite enough to fail a wedged
    /// exchange visibly).
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        Client::connect_with(addr, Duration::from_secs(30))
    }

    /// Connect with explicit read/write timeouts.
    pub fn connect_with(addr: SocketAddr, io_timeout: Duration) -> Result<Client, ClientError> {
        Client::connect_config(
            addr,
            &ClientConfig {
                read_timeout: io_timeout,
                write_timeout: io_timeout,
                ..ClientConfig::default()
            },
        )
    }

    /// Connect with every timeout explicit.
    pub fn connect_config(addr: SocketAddr, config: &ClientConfig) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)
            .map_err(|e| io_error("connect", e))?;
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(config.write_timeout))
            .map_err(ClientError::Io)?;
        // A request is one small write that wants to leave now; Nagle
        // would hold it back behind the previous reply's delayed ACK.
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        Ok(Client {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
        })
    }

    /// The underlying stream (tests use it to misbehave on purpose). It
    /// bypasses the client's read buffer: bytes this connection's own calls
    /// have already buffered are not seen by reads on it, so drive a
    /// connection either raw or through the typed calls, not both at once.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.stream.get_mut()
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.send_raw(&proto::encode_request(req))
    }

    /// Send raw payload bytes as one frame (malformed-input tests).
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        proto::write_frame(self.stream.get_mut(), payload).map_err(|e| io_error("write", e))
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        match proto::read_frame(&mut self.stream).map_err(|e| io_error("read", e))? {
            FrameRead::Frame(payload) => Ok(proto::decode_response(&payload)?),
            FrameRead::Eof => Err(ClientError::Disconnected),
            FrameRead::Malformed(e) => Err(ClientError::Proto(e)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// List the served tables.
    pub fn tables(&mut self) -> Result<Vec<TableInfo>, ClientError> {
        self.send(&Request::Tables)?;
        match self.recv()? {
            Response::TableList(tables) => Ok(tables),
            _ => Err(ClientError::Unexpected("wanted TableList")),
        }
    }

    /// Append a batch of row-major encoded tuples to a served table.
    /// Returns `(version, rows)`: the table's version after the append and
    /// the number of tuples appended. A typed server failure (unknown
    /// table, bad row width, …) means nothing was appended.
    pub fn ingest(&mut self, table: &str, rows: &[u32]) -> Result<(u64, u64), ClientError> {
        self.send(&Request::Ingest {
            table: table.to_string(),
            rows: rows.to_vec(),
        })?;
        match self.recv()? {
            Response::Ingested { version, rows } => Ok((version, rows)),
            Response::Error { status, detail } => Err(ClientError::Server { status, detail }),
            _ => Err(ClientError::Unexpected("wanted Ingested")),
        }
    }

    /// Run a query, feeding every result block to `on_batch`, and return
    /// the terminal outcome. Heartbeat frames are consumed silently (each
    /// arriving frame resets the read timeout, which is the point of them).
    pub fn query_with(
        &mut self,
        req: &QueryRequest,
        on_batch: impl FnMut(&CellBlock),
    ) -> Result<QueryOutcome, ClientError> {
        self.send(&Request::Query(req.clone()))?;
        self.pump_reply(on_batch, |_| {})
    }

    /// Drain one query's reply stream. `on_meta` observes every batch's
    /// `(query_id, seq, version)` tag before `on_batch` sees the cells —
    /// the resilient client uses it to track its resume cursor and pin the
    /// table version across reconnects.
    fn pump_reply(
        &mut self,
        mut on_batch: impl FnMut(&CellBlock),
        mut on_meta: impl FnMut((u64, u64, u64)),
    ) -> Result<QueryOutcome, ClientError> {
        loop {
            match self.recv()? {
                Response::Batch {
                    query_id,
                    seq,
                    version,
                    block,
                } => {
                    on_meta((query_id, seq, version));
                    on_batch(&block);
                }
                Response::Heartbeat { .. } => {}
                Response::Done(stats) => return Ok(QueryOutcome::Done(stats)),
                Response::Error { status, detail } => {
                    return Ok(QueryOutcome::ServerError { status, detail })
                }
                Response::Overloaded { retry_after_ms } => {
                    return Ok(QueryOutcome::Overloaded { retry_after_ms })
                }
                Response::Pong | Response::TableList(_) | Response::Ingested { .. } => {
                    return Err(ClientError::Unexpected("wanted query frames"))
                }
            }
        }
    }

    /// Run a query, discarding cells; returns the outcome (load-generator
    /// path).
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryOutcome, ClientError> {
        self.query_with(req, |_| {})
    }

    /// Run a query and collect every `(cell values, count)` pair
    /// (correctness-test path).
    #[allow(clippy::type_complexity)]
    pub fn query_collect(
        &mut self,
        req: &QueryRequest,
    ) -> Result<(Vec<(Vec<u32>, u64)>, QueryOutcome), ClientError> {
        let mut cells = Vec::new();
        let outcome = self.query_with(req, |block| {
            for (cell, count) in block.iter() {
                cells.push((cell.to_vec(), count));
            }
        })?;
        Ok((cells, outcome))
    }
}

// ---------------------------------------------------------------------------
// Retry policy + resilient client
// ---------------------------------------------------------------------------

/// Backoff/retry knobs for [`ResilientClient`].
///
/// Waits are jittered exponential: attempt `n` sleeps a uniformly random
/// duration in `[backoff/2, backoff]` where `backoff = base_backoff × 2ⁿ`
/// capped at `max_backoff` — full-magnitude jitter decorrelates a fleet of
/// clients that all lost the same server. An `Overloaded` shed overrides
/// the exponential wait with the server's own `retry_after` hint (clamped
/// to the protocol band, then jittered the same way): the server knows its
/// queue depth, the client does not.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per query, first included (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff wait.
    pub max_backoff: Duration,
    /// Overall wall-clock budget per query across every attempt and every
    /// backoff, composed with the server-side `deadline_ms` (each attempt
    /// is sent with the remaining budget, whichever is tighter). `None` =
    /// retry until `max_attempts`.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(50),
            max_backoff: RETRY_AFTER_MAX,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff for the retry after attempt `attempt`
    /// (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Lifetime counters for one [`ResilientClient`] (see
/// [`ResilientClient::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Attempts beyond each query's first (reconnects, sheds, retryable
    /// server errors).
    pub retried: u64,
    /// `Resume` requests sent (mid-stream recoveries that skipped
    /// already-delivered batches).
    pub resumed: u64,
    /// `Overloaded` sheds honored with the server's retry hint.
    pub overloaded: u64,
}

/// What one attempt left behind, for the retry loop to act on.
enum AttemptEnd {
    Done(DoneStats),
    /// Retry after an optional server-suggested wait (milliseconds).
    Retry {
        hint_ms: Option<u64>,
        why: String,
    },
}

/// A self-healing query client: reconnects, resumes interrupted streams,
/// honors shed hints, and enforces an overall deadline. See the module
/// docs for the guarantees; see [`RetryPolicy`] for the knobs.
///
/// Batches are delivered to the caller exactly once and in order even
/// across reconnects: the client tracks the next expected sequence number
/// and resumes from it, and the server's deterministic re-execution
/// guarantees the resumed stream is cell-for-cell the one that was
/// interrupted.
pub struct ResilientClient {
    addr: SocketAddr,
    config: ClientConfig,
    policy: RetryPolicy,
    /// Kept across queries and across retryable *typed* errors (the
    /// connection is still framed); dropped on any transport failure.
    conn: Option<Client>,
    stats: ResilienceStats,
    /// xorshift64* state for backoff jitter — no RNG dependency needed.
    rng: u64,
}

impl ResilientClient {
    /// Default config and policy against `addr`.
    pub fn new(addr: SocketAddr) -> ResilientClient {
        ResilientClient::with(addr, ClientConfig::default(), RetryPolicy::default())
    }

    /// Explicit config and policy.
    pub fn with(addr: SocketAddr, config: ClientConfig, policy: RetryPolicy) -> ResilientClient {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(addr.port()).rotate_left(32)
            ^ 0x2545_F491_4F6C_DD1D;
        ResilientClient {
            addr,
            config,
            policy,
            conn: None,
            stats: ResilienceStats::default(),
            rng: seed | 1,
        }
    }

    /// Lifetime retry/resume counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Uniform jitter in `[d/2, d]`.
    fn jitter(&mut self, d: Duration) -> Duration {
        // xorshift64*; cheap, seeded per client, good enough to spread a
        // retry storm.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let frac =
            (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        d / 2 + d.mul_f64(frac / 2.0)
    }

    /// Run `req`, feeding every batch to `on_batch` exactly once and in
    /// order, retrying/resuming per the policy. Returns the server's final
    /// counters, or a terminal typed error once the policy is exhausted or
    /// the failure is not retryable.
    pub fn query_with(
        &mut self,
        req: &QueryRequest,
        mut on_batch: impl FnMut(&CellBlock),
    ) -> Result<DoneStats, ClientError> {
        let overall = self.policy.deadline.map(|d| Instant::now() + d);
        // Resume cursor: the id of the interrupted stream, the next batch
        // seq the caller has not yet seen, and the table version the
        // stream echoed (pinned on resume so the skip can never silently
        // span an ingest — the server answers `VersionMismatch` instead).
        let mut query_id = 0u64;
        let mut next_seq = 0u64;
        let mut version = 0u64;
        let mut attempt = 0u32;
        loop {
            // Compose deadlines: each attempt is sent with the tighter of
            // the request's own deadline and the remaining overall budget.
            let mut eff = req.clone();
            if let Some(end) = overall {
                let remaining = end.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ClientError::DeadlineExhausted);
                }
                let remaining_ms = remaining.as_millis().clamp(1, u64::MAX as u128) as u64;
                eff.deadline_ms = if eff.deadline_ms == 0 {
                    remaining_ms
                } else {
                    eff.deadline_ms.min(remaining_ms)
                };
            }
            let end = self.attempt(
                &eff,
                &mut query_id,
                &mut next_seq,
                &mut version,
                &mut on_batch,
            )?;
            let (hint_ms, why) = match end {
                AttemptEnd::Done(stats) => return Ok(stats),
                AttemptEnd::Retry { hint_ms, why } => (hint_ms, why),
            };
            attempt += 1;
            self.stats.retried += 1;
            if attempt >= self.policy.max_attempts.max(1) {
                return Err(ClientError::RetriesExhausted {
                    attempts: attempt,
                    last: why,
                });
            }
            // Back off: the server's shed hint (clamped to the protocol
            // band) beats the exponential schedule; both get jittered.
            let base = match hint_ms {
                Some(ms) => Duration::from_millis(ms).clamp(RETRY_AFTER_MIN, RETRY_AFTER_MAX),
                None => self.policy.backoff(attempt - 1),
            };
            let wait = self.jitter(base);
            if let Some(end) = overall {
                if Instant::now() + wait >= end {
                    return Err(ClientError::DeadlineExhausted);
                }
            }
            std::thread::sleep(wait);
        }
    }

    /// One attempt: (re)connect, send `Query` or `Resume` depending on the
    /// cursor, pump the reply. Advances the cursor as batches land so a
    /// failure mid-stream resumes precisely where the caller's view ends.
    fn attempt(
        &mut self,
        req: &QueryRequest,
        query_id: &mut u64,
        next_seq: &mut u64,
        version: &mut u64,
        on_batch: &mut impl FnMut(&CellBlock),
    ) -> Result<AttemptEnd, ClientError> {
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => match Client::connect_config(self.addr, &self.config) {
                Ok(c) => self.conn.insert(c),
                Err(e @ (ClientError::Io(_) | ClientError::Timeout(_))) => {
                    return Ok(AttemptEnd::Retry {
                        hint_ms: None,
                        why: e.to_string(),
                    })
                }
                Err(e) => return Err(e),
            },
        };
        let request = if *next_seq == 0 {
            Request::Query(req.clone())
        } else {
            self.stats.resumed += 1;
            let mut query = req.clone();
            // Pin the interrupted stream's table version: if an ingest
            // landed in between, the server rejects the resume typed
            // rather than splicing batches from two table states.
            query.version = *version;
            Request::Resume {
                query_id: *query_id,
                next_seq: *next_seq,
                query,
            }
        };
        let sent = conn.send(&request);
        let outcome = sent.and_then(|()| {
            let expected = *next_seq;
            let mut delivered = 0u64;
            let mut stream_id = *query_id;
            let mut stream_version = *version;
            let out = conn.pump_reply(
                |block| {
                    on_batch(block);
                    delivered += 1;
                },
                |(id, _seq, v)| {
                    stream_id = id;
                    stream_version = v;
                },
            );
            *next_seq = expected + delivered;
            *query_id = stream_id;
            *version = stream_version;
            out
        });
        match outcome {
            Ok(QueryOutcome::Done(stats)) => Ok(AttemptEnd::Done(stats)),
            Ok(QueryOutcome::Overloaded { retry_after_ms }) => {
                // Shed before running: connection still healthy, honor the
                // server's hint.
                self.stats.overloaded += 1;
                Ok(AttemptEnd::Retry {
                    hint_ms: Some(retry_after_ms),
                    why: format!("shed by admission control ({retry_after_ms} ms hint)"),
                })
            }
            Ok(QueryOutcome::ServerError { status, detail }) => {
                if status.retryable() {
                    // Typed mid-stream failure: the framing survived, so
                    // the connection is reusable for the retry.
                    Ok(AttemptEnd::Retry {
                        hint_ms: None,
                        why: format!("{status:?}: {detail}"),
                    })
                } else {
                    Err(ClientError::Server { status, detail })
                }
            }
            Err(
                e @ (ClientError::Io(_)
                | ClientError::Timeout(_)
                | ClientError::Disconnected
                | ClientError::Proto(_)),
            ) => {
                // Transport is gone (or unframed): reconnect next attempt
                // and resume from the cursor.
                self.conn = None;
                Ok(AttemptEnd::Retry {
                    hint_ms: None,
                    why: e.to_string(),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Run a query, discarding cells (load-generator path).
    pub fn query(&mut self, req: &QueryRequest) -> Result<DoneStats, ClientError> {
        self.query_with(req, |_| {})
    }

    /// Run a query and collect every `(cell values, count)` pair.
    #[allow(clippy::type_complexity)]
    pub fn query_collect(
        &mut self,
        req: &QueryRequest,
    ) -> Result<(Vec<(Vec<u32>, u64)>, DoneStats), ClientError> {
        let mut cells = Vec::new();
        let stats = self.query_with(req, |block| {
            for (cell, count) in block.iter() {
                cells.push((cell.to_vec(), count));
            }
        })?;
        Ok((cells, stats))
    }
}
