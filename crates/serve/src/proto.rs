//! Length-prefixed binary wire protocol for `ccube-serve`.
//!
//! A frame is `[u32 LE payload length][payload]`; the payload's first byte
//! is the opcode, the rest the body. Everything is little-endian and
//! bounds-checked: a malformed payload decodes to a typed [`ProtoError`]
//! (never a panic, never an unbounded allocation), and payloads above
//! [`MAX_PAYLOAD`] are rejected before any buffer is sized from them.
//!
//! ## Frames
//!
//! Client → server: [`Request::Query`] (opcode `0x01`), [`Request::Ping`]
//! (`0x02`), [`Request::Tables`] (`0x03`), [`Request::Resume`] (`0x04`),
//! [`Request::Ingest`] (`0x05`, append a tuple batch to a served table).
//!
//! Server → client: [`Response::Batch`] (`0x81`, a block of result cells
//! tagged with the server-assigned query id, a sequence number, and the
//! table version the stream is serving),
//! [`Response::Done`] (`0x82`, end-of-stream with run counters),
//! [`Response::Error`] (`0x83`, a typed [`WireStatus`] + detail),
//! [`Response::Overloaded`] (`0x84`, shed with a retry hint),
//! [`Response::Pong`] (`0x85`), [`Response::TableList`] (`0x86`),
//! [`Response::Heartbeat`] (`0x87`, liveness keepalive on idle streams),
//! [`Response::Ingested`] (`0x88`, ingest acknowledgement with the table's
//! new version).
//!
//! A query's reply is zero or more `Batch` frames (seq `0, 1, 2, …`,
//! interleaved with any number of `Heartbeat` frames) terminated by exactly
//! one of `Done` / `Error` / `Overloaded`. Cells use [`STAR`] (`u32::MAX`)
//! for `*` exactly as the in-process API does.
//!
//! ## Resumability
//!
//! The engine's output is deterministic and byte-identical for a given
//! request (the Lemma-3 / path-ordered-merge invariant), and the server
//! batches cells at a fixed size — so batch boundaries are deterministic
//! too, and a reply stream is resumable *by re-execution*: a client that
//! lost its connection after consuming batches `0..k` reconnects and sends
//! [`Request::Resume`] with `next_seq = k`; the server re-runs the same
//! request and skips the first `k` batches on the way out. No server-side
//! state survives the disconnect — the id in a `Resume` is echoed back so
//! the client can correlate, nothing more.
//!
//! ## Table versioning
//!
//! Resume-by-re-execution is only sound against the *same* table: an
//! [`Request::Ingest`] between the interrupted stream and the resume would
//! silently change the replayed cells and desynchronize the batch skip. So
//! every served table carries a monotonically increasing version (bumped by
//! each non-empty ingest), every `Batch`/`Done` frame echoes the version it
//! was computed against, and [`QueryRequest::version`] lets a request *pin*
//! one (`0` = current). A pinned request against any other version fails
//! typed with [`WireStatus::VersionMismatch`] — a resume that spans an
//! ingest is told the stream is unrecoverable instead of diverging.

use c_cubing::Algorithm;
use ccube_core::STAR;
use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on a frame's payload size (header excluded). Large results are
/// streamed as many `Batch` frames, so nothing legitimate comes close; a
/// length field above this is a protocol error, not an allocation request.
pub const MAX_PAYLOAD: usize = 8 * 1024 * 1024;

/// Floor for `Overloaded.retry_after_ms`: hints below this are pointless
/// (the queue cannot drain measurably faster) and invite retry storms.
/// Shared by the server's admission gate, the client's backoff, and tests.
pub const RETRY_AFTER_MIN: Duration = Duration::from_millis(25);

/// Ceiling for `Overloaded.retry_after_ms`: even a deeply backed-up server
/// should not push clients into multi-second blind waits — better to retry
/// and be re-shed with a fresh estimate.
pub const RETRY_AFTER_MAX: Duration = Duration::from_secs(5);

/// Typed decode/framing errors. Every way a malformed byte sequence can
/// fail lands on one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame (or a field inside it) ended before its declared length.
    Truncated,
    /// The frame header declared a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: u64,
    },
    /// Zero-length payload (every frame needs at least an opcode).
    EmptyFrame,
    /// The opcode byte is not one this side understands.
    UnknownOpcode(u8),
    /// Bytes left over after the body was fully decoded.
    Trailing {
        /// Number of undecoded bytes.
        extra: usize,
    },
    /// A field value is structurally invalid (named for diagnostics).
    BadValue(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized { len } => {
                write!(f, "payload of {len} bytes exceeds the {MAX_PAYLOAD} cap")
            }
            ProtoError::EmptyFrame => write!(f, "empty frame"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::Trailing { extra } => write!(f, "{extra} trailing bytes after body"),
            ProtoError::BadValue(what) => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Wire status codes carried by [`Response::Error`] — the taxonomy every
/// [`CubeError`](ccube_core::CubeError) (and every server-side condition)
/// maps onto. Stable `u16` values; unknown codes decode to [`WireStatus::Internal`]
/// so old clients degrade instead of erroring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum WireStatus {
    /// The query was cancelled (client disconnect or server drain).
    Cancelled = 1,
    /// The query exceeded its deadline.
    DeadlineExceeded = 2,
    /// The query tripped its per-query memory budget.
    BudgetExceeded = 3,
    /// A worker panicked; the panic was contained server-side.
    WorkerPanicked = 4,
    /// The request is malformed at the cube level (bad dimension, zero
    /// min_sup, empty projection, ...).
    BadRequest = 5,
    /// The named table is not served.
    UnknownTable = 6,
    /// The server is draining and accepts no new queries.
    ShuttingDown = 7,
    /// The peer violated the wire protocol.
    Protocol = 8,
    /// Unexpected server-side failure (catch-all containment).
    Internal = 9,
    /// The server watchdog reaped the query after its workers stopped
    /// making progress.
    Wedged = 10,
    /// The request pinned a table version the server no longer serves (an
    /// ingest moved the table on). Not retryable: the pinned stream cannot
    /// be reproduced — restart the query from seq 0 against the current
    /// version.
    VersionMismatch = 11,
}

impl WireStatus {
    fn from_u16(v: u16) -> WireStatus {
        match v {
            1 => WireStatus::Cancelled,
            2 => WireStatus::DeadlineExceeded,
            3 => WireStatus::BudgetExceeded,
            4 => WireStatus::WorkerPanicked,
            5 => WireStatus::BadRequest,
            6 => WireStatus::UnknownTable,
            7 => WireStatus::ShuttingDown,
            8 => WireStatus::Protocol,
            10 => WireStatus::Wedged,
            11 => WireStatus::VersionMismatch,
            _ => WireStatus::Internal,
        }
    }

    /// Whether a retry of the same request can plausibly succeed. Transient
    /// server-side conditions (a contained panic, a reaped wedge, a drain,
    /// a cancel) are retryable; verdicts about the request itself (bad
    /// request, unknown table, deadline, budget) are not — retrying would
    /// deterministically fail again.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            WireStatus::Cancelled
                | WireStatus::WorkerPanicked
                | WireStatus::ShuttingDown
                | WireStatus::Internal
                | WireStatus::Wedged
        )
    }
}

/// Map a cube-level error onto its wire status (the error-frame taxonomy
/// documented in ARCHITECTURE.md).
pub fn wire_status(err: &ccube_core::CubeError) -> WireStatus {
    use ccube_core::CubeError as E;
    match err {
        E::Cancelled => WireStatus::Cancelled,
        E::DeadlineExceeded => WireStatus::DeadlineExceeded,
        E::BudgetExceeded { .. } => WireStatus::BudgetExceeded,
        E::WorkerPanicked { .. } => WireStatus::WorkerPanicked,
        E::Wedged => WireStatus::Wedged,
        E::BadDimensionCount(_)
        | E::BadRowWidth { .. }
        | E::ValueOutOfRange { .. }
        | E::BadMeasureColumn { .. }
        | E::Parse(_)
        | E::CarriedDimensionView
        | E::DimensionOutOfRange { .. }
        | E::EmptyProjection
        | E::UnrepresentableValue { .. }
        | E::MaterializationUnavailable { .. }
        | E::ZeroMinSup => WireStatus::BadRequest,
    }
}

/// One cube query, as sent over the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryRequest {
    /// Name of the served table to query.
    pub table: String,
    /// Iceberg threshold (≥ 1).
    pub min_sup: u64,
    /// Explicit algorithm, or `None` for the server-side planner.
    pub algorithm: Option<Algorithm>,
    /// Closed cube (`Some(true)`), plain iceberg (`Some(false)`), or the
    /// algorithm/planner default (`None`).
    pub closed: Option<bool>,
    /// Projection mask over the table's dimensions (`None` = all).
    pub dims: Option<u64>,
    /// Dice selections: `(dimension, allowed values)` conjuncts.
    pub selections: Vec<(u32, Vec<u32>)>,
    /// Engine worker threads (`0` = server default).
    pub threads: u32,
    /// Query deadline in milliseconds (`0` = none).
    pub deadline_ms: u64,
    /// Table version this request pins (`0` = whatever is current). The
    /// server rejects any other version with [`WireStatus::VersionMismatch`];
    /// a resuming client pins the version its interrupted stream echoed so
    /// the skip can never silently span an ingest.
    pub version: u64,
}

impl QueryRequest {
    /// A full-cube request against `table` at `min_sup`, planner-chosen
    /// algorithm, server-default threads, no limits.
    pub fn new(table: impl Into<String>, min_sup: u64) -> QueryRequest {
        QueryRequest {
            table: table.into(),
            min_sup,
            algorithm: None,
            closed: None,
            dims: None,
            selections: Vec::new(),
            threads: 0,
            deadline_ms: 0,
            version: 0,
        }
    }
}

/// A block of result cells (one `Batch` frame). `dims`-wide cells stored
/// flattened, [`STAR`] marking `*`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellBlock {
    /// Cell width.
    pub dims: u16,
    /// Flattened cell values (`len = dims × counts.len()`).
    pub values: Vec<u32>,
    /// Per-cell aggregate counts.
    pub counts: Vec<u64>,
}

impl CellBlock {
    /// Number of cells in the block.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the block holds no cells.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(cell, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.values
            .chunks_exact(self.dims.max(1) as usize)
            .zip(self.counts.iter().copied())
    }

    /// Append one cell (debug-asserts the width).
    pub fn push(&mut self, cell: &[u32], count: u64) {
        debug_assert_eq!(cell.len(), self.dims as usize);
        self.values.extend_from_slice(cell);
        self.counts.push(count);
    }
}

/// End-of-stream counters carried by a `Done` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoneStats {
    /// Server-assigned query id of the reply stream this terminates.
    pub query_id: u64,
    /// Table version the stream was computed against.
    pub version: u64,
    /// Result cells streamed (across all `Batch` frames).
    pub cells: u64,
    /// Wall-clock service time in microseconds (admission to `Done`).
    pub elapsed_micros: u64,
    /// Engine peak buffered bytes (0 for sequential fast-path runs).
    pub peak_buffered_bytes: u64,
    /// Engine task count (1 on the sequential fast path).
    pub tasks: u64,
    /// Whether the run took the engine's sequential fast path.
    pub fast_path: bool,
}

/// Per-table metadata carried by a `TableList` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    /// Served table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Dimension count.
    pub dims: u32,
    /// Current table version (starts at 1, bumped by each non-empty
    /// ingest).
    pub version: u64,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a cube query; answered by `Batch*` + (`Done`|`Error`|`Overloaded`).
    Query(QueryRequest),
    /// Liveness probe; answered by `Pong`.
    Ping,
    /// List served tables; answered by `TableList`.
    Tables,
    /// Re-issue `query` after a lost connection, skipping the `next_seq`
    /// batches already delivered. `query` must be byte-identical to the
    /// original request — the server re-executes it deterministically and
    /// the skip is only sound if the replayed stream is the same stream.
    /// `query_id` is the id the original reply carried; the server echoes
    /// it in the resumed reply frames so the client can correlate, but
    /// keeps no state keyed by it.
    Resume {
        /// The server-assigned id from the interrupted reply stream.
        query_id: u64,
        /// Number of leading batches the client already has (first batch
        /// wanted is seq `next_seq`).
        next_seq: u64,
        /// The original request, verbatim (a resuming client additionally
        /// pins [`QueryRequest::version`] to the interrupted stream's).
        query: QueryRequest,
    },
    /// Append a batch of encoded tuples to a served table; answered by
    /// `Ingested` (or a typed `Error` — on error nothing was appended).
    Ingest {
        /// Name of the served table to append to.
        table: String,
        /// Row-major encoded tuples (`rows.len()` must be a multiple of the
        /// table's dimension count).
        rows: Vec<u32>,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A block of result cells, tagged for resumability.
    Batch {
        /// Server-assigned query id (echoed from a `Resume`).
        query_id: u64,
        /// Batch sequence number within the reply stream, starting at 0.
        /// Deterministic across re-executions of the same request.
        seq: u64,
        /// Table version the stream is serving; a client resuming this
        /// stream pins it in [`QueryRequest::version`].
        version: u64,
        /// The cells.
        block: CellBlock,
    },
    /// Successful end of a query's result stream.
    Done(DoneStats),
    /// The query (or the connection's last frame) failed; typed status.
    Error {
        /// The wire status classifying the failure.
        status: WireStatus,
        /// Human-readable detail (display of the underlying error).
        detail: String,
    },
    /// The query was shed by admission control before starting.
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Liveness answer.
    Pong,
    /// The served tables.
    TableList(Vec<TableInfo>),
    /// Keepalive on an idle reply stream: the query is alive but produced
    /// no batch within the heartbeat interval (slow query, back-pressure,
    /// or a resume still skipping already-delivered batches). Carries no
    /// data; clients use it to reset their dead-peer clock.
    Heartbeat {
        /// Server-assigned query id of the stream being kept alive.
        query_id: u64,
    },
    /// Acknowledgement of an `Ingest`: the batch is appended and every
    /// cached artifact (materialized cube included) is already current.
    Ingested {
        /// The table's version after the append (unchanged for an empty
        /// batch).
        version: u64,
        /// Tuples appended.
        rows: u64,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const OP_QUERY: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_TABLES: u8 = 0x03;
const OP_RESUME: u8 = 0x04;
const OP_INGEST: u8 = 0x05;
const OP_BATCH: u8 = 0x81;
const OP_DONE: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_OVERLOADED: u8 = 0x84;
const OP_PONG: u8 = 0x85;
const OP_TABLE_LIST: u8 = 0x86;
const OP_HEARTBEAT: u8 = 0x87;
const OP_INGESTED: u8 = 0x88;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `vs` little-endian in one pass: the byte range is sized once and
/// filled by `chunks_exact_mut`, which compiles to a block copy on
/// little-endian targets instead of a capacity check per value.
fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    let start = out.len();
    out.resize(start + vs.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// [`put_u32s`] for `u64`s.
fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    let start = out.len();
    out.resize(start + vs.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

/// Encode a [`QueryRequest`] body (shared by `Query` and `Resume`, which
/// must serialize the request identically for the resume skip to be sound).
fn put_query_body(out: &mut Vec<u8>, q: &QueryRequest) {
    put_str(out, &q.table);
    put_u64(out, q.min_sup);
    out.push(match q.algorithm {
        None => 0xFF,
        Some(a) => Algorithm::ALL.iter().position(|&x| x == a).unwrap_or(0) as u8,
    });
    out.push(match q.closed {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    match q.dims {
        None => out.push(0),
        Some(mask) => {
            out.push(1);
            put_u64(out, mask);
        }
    }
    put_u32(out, q.threads);
    put_u64(out, q.deadline_ms);
    put_u64(out, q.version);
    put_u16(out, q.selections.len().min(u16::MAX as usize) as u16);
    for (dim, values) in q.selections.iter().take(u16::MAX as usize) {
        put_u32(out, *dim);
        let values = &values[..values.len().min(u32::MAX as usize)];
        put_u32(out, values.len() as u32);
        put_u32s(out, values);
    }
}

/// Encode a request into a frame payload (opcode + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Ping => out.push(OP_PING),
        Request::Tables => out.push(OP_TABLES),
        Request::Query(q) => {
            out.push(OP_QUERY);
            put_query_body(&mut out, q);
        }
        Request::Resume {
            query_id,
            next_seq,
            query,
        } => {
            out.push(OP_RESUME);
            put_u64(&mut out, *query_id);
            put_u64(&mut out, *next_seq);
            put_query_body(&mut out, query);
        }
        Request::Ingest { table, rows } => {
            out.push(OP_INGEST);
            put_str(&mut out, table);
            let rows = &rows[..rows.len().min(u32::MAX as usize)];
            put_u32(&mut out, rows.len() as u32);
            put_u32s(&mut out, rows);
        }
    }
    out
}

/// Append a `Batch` payload (opcode + body) built from borrowed cell
/// slices — `values` flattened `dims` wide, one count per cell. This is the
/// one `Batch` encoder: [`encode_response`] calls it with a [`CellBlock`]'s
/// vectors, the server's reply loop with slices of the engine's batch.
pub(crate) fn put_batch(
    out: &mut Vec<u8>,
    query_id: u64,
    seq: u64,
    version: u64,
    dims: u16,
    values: &[u32],
    counts: &[u64],
) {
    debug_assert_eq!(values.len(), counts.len() * dims as usize);
    out.reserve(1 + 3 * 8 + 2 + 4 + values.len() * 4 + counts.len() * 8);
    out.push(OP_BATCH);
    put_u64(out, query_id);
    put_u64(out, seq);
    put_u64(out, version);
    put_u16(out, dims);
    put_u32(out, counts.len() as u32);
    put_u32s(out, values);
    put_u64s(out, counts);
}

/// Encode a response into a frame payload (opcode + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_response(&mut out, resp);
    out
}

/// Append `resp`'s payload (opcode + body) to `out`.
pub(crate) fn put_response(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Pong => out.push(OP_PONG),
        Response::Batch {
            query_id,
            seq,
            version,
            block,
        } => put_batch(
            out,
            *query_id,
            *seq,
            *version,
            block.dims,
            &block.values,
            &block.counts,
        ),
        Response::Done(d) => {
            out.push(OP_DONE);
            put_u64(out, d.query_id);
            put_u64(out, d.version);
            put_u64(out, d.cells);
            put_u64(out, d.elapsed_micros);
            put_u64(out, d.peak_buffered_bytes);
            put_u64(out, d.tasks);
            out.push(u8::from(d.fast_path));
        }
        Response::Error { status, detail } => {
            out.push(OP_ERROR);
            put_u16(out, *status as u16);
            put_str(out, detail);
        }
        Response::Overloaded { retry_after_ms } => {
            out.push(OP_OVERLOADED);
            put_u64(out, *retry_after_ms);
        }
        Response::TableList(tables) => {
            out.push(OP_TABLE_LIST);
            put_u16(out, tables.len().min(u16::MAX as usize) as u16);
            for t in tables.iter().take(u16::MAX as usize) {
                put_str(out, &t.name);
                put_u64(out, t.rows);
                put_u32(out, t.dims);
                put_u64(out, t.version);
            }
        }
        Response::Heartbeat { query_id } => {
            out.push(OP_HEARTBEAT);
            put_u64(out, *query_id);
        }
        Response::Ingested { version, rows } => {
            out.push(OP_INGESTED);
            put_u64(out, *version);
            put_u64(out, *rows);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `n` little-endian `u32`s: one bounds check for the whole range, then
    /// a `chunks_exact` conversion.
    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, ProtoError> {
        let bytes = self.take(n.checked_mul(4).ok_or(ProtoError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    /// [`Cursor::u32s`] for `u64`s.
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, ProtoError> {
        let bytes = self.take(n.checked_mul(8).ok_or(ProtoError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadValue("utf-8 string"))
    }

    /// Guard a count field against allocation bombs: the declared element
    /// count must fit in the bytes actually present.
    fn check_count(&self, count: usize, elt_size: usize) -> Result<(), ProtoError> {
        if count.saturating_mul(elt_size) > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Decode a [`QueryRequest`] body (shared by `Query` and `Resume`).
fn read_query_body(c: &mut Cursor<'_>) -> Result<QueryRequest, ProtoError> {
    let table = c.str()?;
    let min_sup = c.u64()?;
    let algorithm = match c.u8()? {
        0xFF => None,
        i if (i as usize) < Algorithm::ALL.len() => Some(Algorithm::ALL[i as usize]),
        _ => return Err(ProtoError::BadValue("algorithm")),
    };
    let closed = match c.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => return Err(ProtoError::BadValue("closed flag")),
    };
    let dims = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        _ => return Err(ProtoError::BadValue("dims tag")),
    };
    let threads = c.u32()?;
    let deadline_ms = c.u64()?;
    let version = c.u64()?;
    let n_sel = c.u16()? as usize;
    c.check_count(n_sel, 8)?;
    let mut selections = Vec::with_capacity(n_sel);
    for _ in 0..n_sel {
        let dim = c.u32()?;
        let n_val = c.u32()? as usize;
        selections.push((dim, c.u32s(n_val)?));
    }
    Ok(QueryRequest {
        table,
        min_sup,
        algorithm,
        closed,
        dims,
        selections,
        threads,
        deadline_ms,
        version,
    })
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8().map_err(|_| ProtoError::EmptyFrame)? {
        OP_PING => Request::Ping,
        OP_TABLES => Request::Tables,
        OP_QUERY => Request::Query(read_query_body(&mut c)?),
        OP_RESUME => {
            let query_id = c.u64()?;
            let next_seq = c.u64()?;
            let query = read_query_body(&mut c)?;
            Request::Resume {
                query_id,
                next_seq,
                query,
            }
        }
        OP_INGEST => {
            let table = c.str()?;
            let n = c.u32()? as usize;
            let rows = c.u32s(n)?;
            Request::Ingest { table, rows }
        }
        op => return Err(ProtoError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(req)
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8().map_err(|_| ProtoError::EmptyFrame)? {
        OP_PONG => Response::Pong,
        OP_BATCH => {
            let query_id = c.u64()?;
            let seq = c.u64()?;
            let version = c.u64()?;
            let dims = c.u16()?;
            let cells = c.u32()? as usize;
            // One size check for the whole block (before anything is
            // allocated from the declared count), then each array is one
            // byte range.
            c.check_count(cells, (dims as usize) * 4 + 8)?;
            let values = c.u32s(cells * dims as usize)?;
            let counts = c.u64s(cells)?;
            Response::Batch {
                query_id,
                seq,
                version,
                block: CellBlock {
                    dims,
                    values,
                    counts,
                },
            }
        }
        OP_DONE => Response::Done(DoneStats {
            query_id: c.u64()?,
            version: c.u64()?,
            cells: c.u64()?,
            elapsed_micros: c.u64()?,
            peak_buffered_bytes: c.u64()?,
            tasks: c.u64()?,
            fast_path: c.u8()? != 0,
        }),
        OP_ERROR => Response::Error {
            status: WireStatus::from_u16(c.u16()?),
            detail: c.str()?,
        },
        OP_OVERLOADED => Response::Overloaded {
            retry_after_ms: c.u64()?,
        },
        OP_TABLE_LIST => {
            let n = c.u16()? as usize;
            c.check_count(n, 2 + 8 + 4 + 8)?;
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                tables.push(TableInfo {
                    name: c.str()?,
                    rows: c.u64()?,
                    dims: c.u32()?,
                    version: c.u64()?,
                });
            }
            Response::TableList(tables)
        }
        OP_HEARTBEAT => Response::Heartbeat { query_id: c.u64()? },
        OP_INGESTED => Response::Ingested {
            version: c.u64()?,
            rows: c.u64()?,
        },
        op => return Err(ProtoError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Append one whole frame to `out`: a length header, then whatever payload
/// `body` appends (it must append at least an opcode). The server encodes
/// its reply frames through this, straight into the connection's wire
/// buffer; the bytes are those of [`write_frame`] over the same payload.
pub(crate) fn put_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - header - 4;
    debug_assert!(len > 0 && len <= MAX_PAYLOAD);
    out[header..header + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Write one frame (header + payload). The caller owns timeouts via the
/// stream's socket options.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_PAYLOAD);
    // One buffered write: header + payload in a single syscall keeps a
    // mid-frame write error from leaving a torn header behind small frames.
    // This is the request path (and the tests'); the server's replies are
    // framed in place by `put_frame` and leave many frames to a write.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Outcome of [`read_frame`].
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// The frame header declared an invalid length ([`ProtoError::Oversized`]
    /// / [`ProtoError::EmptyFrame`]); the connection should answer with a
    /// protocol error and close — no further frame boundary is trustable.
    Malformed(ProtoError),
}

/// Read one frame. Clean EOF before the first header byte is
/// [`FrameRead::Eof`]; EOF mid-frame is an `UnexpectedEof` i/o error;
/// invalid declared lengths surface as [`FrameRead::Malformed`] without
/// allocating. Read timeouts (including a stalled peer mid-frame) surface
/// as the stream's timeout error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<FrameRead> {
    let mut header = [0u8; 4];
    // First header byte distinguishes clean EOF from a torn frame.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    r.read_exact(&mut header[1..])?;
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Ok(FrameRead::Malformed(ProtoError::EmptyFrame));
    }
    if len > MAX_PAYLOAD {
        return Ok(FrameRead::Malformed(ProtoError::Oversized {
            len: len as u64,
        }));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Frame(payload))
}

/// The cell emission order is the server's; expose STAR for clients
/// reconstructing `Cell`s.
pub const WIRE_STAR: u32 = STAR;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `Batch` payload spelled out field by field, value by value — the
    /// layout the wire has always had, written without the bulk helpers.
    fn reference_batch_payload(
        (query_id, seq, version): (u64, u64, u64),
        dims: u16,
        values: &[u32],
        counts: &[u64],
    ) -> Vec<u8> {
        let mut out = vec![OP_BATCH];
        out.extend_from_slice(&query_id.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&dims.to_le_bytes());
        out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for c in counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    proptest! {
        /// The server's in-place frame encoder puts on the wire exactly
        /// what `write_frame(encode_response(Batch))` does, and both are
        /// the reference layout — also behind frames already buffered.
        #[test]
        fn in_place_batch_frames_equal_write_frame_of_encode_response(
            dims in 1u16..=16,
            cells in 0usize..=200,
            tags in (any::<u64>(), any::<u64>(), any::<u64>()),
            seed in any::<u64>(),
            buffered in 0usize..100,
        ) {
            let mut word = seed | 1;
            let mut next = move || {
                word ^= word << 13;
                word ^= word >> 7;
                word ^= word << 17;
                word
            };
            let values: Vec<u32> = (0..cells * dims as usize)
                .map(|_| if next() % 4 == 0 { STAR } else { next() as u32 })
                .collect();
            let counts: Vec<u64> = (0..cells).map(|_| next()).collect();
            let (query_id, seq, version) = tags;

            let payload = reference_batch_payload(tags, dims, &values, &counts);
            let block = CellBlock { dims, values: values.clone(), counts: counts.clone() };
            let encoded = encode_response(&Response::Batch { query_id, seq, version, block });
            prop_assert_eq!(&encoded, &payload);
            let mut framed = Vec::new();
            write_frame(&mut framed, &encoded).unwrap();

            let mut wire = vec![0xAB; buffered];
            put_frame(&mut wire, |out| {
                put_batch(out, query_id, seq, version, dims, &values, &counts)
            });
            prop_assert_eq!(&wire[..buffered], &vec![0xAB; buffered][..]);
            prop_assert_eq!(&wire[buffered..], &framed[..]);
        }
    }
}
