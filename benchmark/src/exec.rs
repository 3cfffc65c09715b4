//! One request through each surface of the program under test, timed from
//! the caller's side and reduced to a digest.
//!
//! Latency runs from the instant before the query is built to the last
//! cell (`run` returning, the stream ending, `Done` arriving). Spans are
//! recorded afterwards from the instants taken on the way, so a traced op
//! differs from an untraced one only by its `plan()` call.

use crate::api::{
    CountOnly, CubeQuery, CubeSession, DimMask, DoneStats, EngineConfig, EngineStats, QueryRequest,
    ResilientClient,
};
use crate::digest::{Digest, DigestSink};
use crate::ladder::{Req, TABLES};
use crate::trace::Recorder;
use std::hint::black_box;
use std::time::Instant;

/// What one op produced and what it cost its caller.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    /// `None` when the op errored (its detail is in `error`).
    pub digest: Option<Digest>,
    pub error: Option<String>,
    pub latency_ns: u64,
    /// Time to the first result cell / stream item / `Batch` frame; the
    /// whole latency when the result is empty.
    pub first_ns: u64,
    /// Engine counters (in-process engine-routed ops).
    pub engine: EngineStats,
    /// Server counters and `Batch` frames received (wire ops).
    pub done: Option<DoneStats>,
    pub batches: u64,
}

impl OpResult {
    pub fn cells(&self) -> u64 {
        self.digest.map_or(0, |d| d.cells)
    }
}

fn query<'s>(
    session: &'s mut CubeSession,
    req: &Req,
    engine: Option<EngineConfig>,
) -> CubeQuery<'s, CountOnly> {
    let mut q = session.query().min_sup(req.min_sup);
    if let Some(mask) = req.dims {
        q = q.dims(DimMask(mask));
    }
    for (dim, values) in &req.selections {
        q = q.dice(*dim, values);
    }
    if let Some(a) = req.algorithm {
        q = q.algorithm(a);
    }
    if let Some(cfg) = engine {
        q = q.engine(cfg);
    }
    if let Some(n) = req.threads {
        q = q.threads(n);
    }
    q
}

/// `CubeQuery::run` into a [`DigestSink`]: the batch caller of `cube_seq`
/// and the re-query of `ingest_requery`. `engine` overrides the engine
/// configuration (the always-sharded probe); workloads pass `None`.
pub fn run_sink(
    session: &mut CubeSession,
    req: &Req,
    engine: Option<EngineConfig>,
    rec: &mut Recorder,
    op: u64,
) -> OpResult {
    let t0 = Instant::now();
    let q = query(session, req, engine);
    if rec.enabled() {
        black_box(q.plan());
    }
    let t_run = Instant::now();
    let mut sink = DigestSink::new(t0);
    let outcome = q.run(&mut sink);
    let t_end = Instant::now();
    let root = rec.add(0, op, "harness.op", t0, t_end);
    rec.add(root, op, "session.plan", t0, t_run);
    rec.add(root, op, "algo.run", t_run, t_end);
    let latency_ns = (t_end - t0).as_nanos() as u64;
    OpResult {
        digest: outcome.is_ok().then_some(sink.digest),
        error: outcome.as_ref().err().map(ToString::to_string),
        latency_ns,
        first_ns: sink.first_ns.unwrap_or(latency_ns),
        engine: outcome.unwrap_or_default(),
        ..OpResult::default()
    }
}

/// `CubeQuery::stream` drained by the caller: the analyst of
/// `session_par` and the in-process twin of a wire request.
pub fn run_stream(session: &mut CubeSession, req: &Req, rec: &mut Recorder, op: u64) -> OpResult {
    let t0 = Instant::now();
    let q = query(session, req, None);
    if rec.enabled() {
        black_box(q.plan());
    }
    let t_run = Instant::now();
    let mut digest = Digest::default();
    let mut t_first = None;
    let outcome = q.stream().and_then(|mut stream| {
        for (cell, count, ()) in stream.by_ref() {
            t_first.get_or_insert_with(Instant::now);
            digest.add(cell.values(), count);
        }
        stream.finish()
    });
    let t_end = Instant::now();
    let root = rec.add(0, op, "harness.op", t0, t_end);
    rec.add(root, op, "session.plan", t0, t_run);
    rec.add(root, op, "session.stream", t_run, t_end);
    OpResult {
        digest: outcome.is_ok().then_some(digest),
        error: outcome.as_ref().err().map(ToString::to_string),
        latency_ns: (t_end - t0).as_nanos() as u64,
        first_ns: (t_first.unwrap_or(t_end) - t0).as_nanos() as u64,
        engine: outcome.unwrap_or_default(),
        ..OpResult::default()
    }
}

/// The request over TCP through a [`ResilientClient`], every block folded
/// into the digest. `send` cannot be told apart from the wait for the
/// first frame from outside the client, so `serve.first_batch` covers
/// both.
pub fn run_wire(client: &mut ResilientClient, req: &Req, rec: &mut Recorder, op: u64) -> OpResult {
    let wire = QueryRequest {
        algorithm: req.algorithm,
        dims: req.dims,
        selections: req
            .selections
            .iter()
            .map(|(d, values)| (*d as u32, values.clone()))
            .collect(),
        threads: req.threads.unwrap_or(0) as u32,
        ..QueryRequest::new(TABLES[req.table], req.min_sup)
    };
    let mut digest = Digest::default();
    let mut t_first = None;
    let mut batches = 0;
    let t0 = Instant::now();
    let outcome = client.query_with(&wire, |block| {
        t_first.get_or_insert_with(Instant::now);
        batches += 1;
        digest.add_block(block);
    });
    let t_end = Instant::now();
    let first = t_first.unwrap_or(t_end);
    let root = rec.add(0, op, "harness.op", t0, t_end);
    rec.add(root, op, "serve.first_batch", t0, first);
    rec.add(root, op, "serve.drain", first, t_end);
    // `Done` repeats the cell total; a stream that lost or repeated a
    // batch on the way is a failed op even if the hash happened to agree.
    let complete = outcome
        .as_ref()
        .is_ok_and(|done| done.cells == digest.cells);
    OpResult {
        digest: complete.then_some(digest),
        error: match &outcome {
            Ok(done) if !complete => Some(format!(
                "Done says {} cells, {} streamed",
                done.cells, digest.cells
            )),
            Ok(_) => None,
            Err(e) => Some(e.to_string()),
        },
        latency_ns: (t_end - t0).as_nanos() as u64,
        first_ns: (first - t0).as_nanos() as u64,
        done: outcome.ok(),
        batches,
        ..OpResult::default()
    }
}
