//! `ingest_requery`: writes beside reads on one session. One in-process
//! caller works on `sparse`, materialized at `min_sup` 8 during set-up;
//! each cycle appends 0.5 % fresh rows, serves the closed cube from the
//! materialization and re-queries it through the planner at two
//! thresholds. `ccube-delta` and the session's artifact patching work here
//! and nowhere else: a change that makes ingest cheaper by invalidating
//! instead of patching moves the ingests one way and the re-queries the
//! other, and both are timed in the same loop.
//!
//! A round changes its table, so every round starts from a fresh set-up
//! and replays the same seeded batches: digests depend on the cycle, not
//! on how many rounds fit into the run.

use crate::api::CubeSession;
use crate::digest::DigestSink;
use crate::exec::{run_sink, OpResult};
use crate::ladder::{self, row_major, sparse_batches, Req, MIN_SUP, SPARSE};
use crate::oracle::{references, Rows};
use crate::trace::Recorder;
use crate::workload::{finished, Ingest, Log, OpSpec, Opts, Verdict, Workload};
use std::time::{Duration, Instant};

pub const CLASSES: [&str; 2] = ["materialized", "requery"];
/// Cycles per round; the table grows by 12 % over a round.
pub const CYCLES: usize = 24;
/// The second threshold the cube is re-queried at.
const HIGH_MIN_SUP: u64 = 64;

pub struct IngestRequery {
    opts: Opts,
    session: Option<CubeSession>,
    /// The session has absorbed batches since it was opened.
    dirty: bool,
    batches: Vec<Vec<u32>>,
}

impl IngestRequery {
    pub fn new(opts: &Opts) -> IngestRequery {
        IngestRequery {
            opts: opts.clone(),
            session: None,
            dirty: false,
            // 0.5 % of the table per batch.
            batches: sparse_batches(CYCLES, opts.rows / 200, opts.seed),
        }
    }
}

/// Set-up: generate, open the session, materialize.
fn open(opts: &Opts) -> CubeSession {
    let mut session =
        CubeSession::new(ladder::generate(SPARSE, opts.rows, opts.seed)).expect("ladder table");
    session.materialize(MIN_SUP).expect("min_sup is positive");
    session
}

/// `query_materialized` at `min_sup`, timed and digested like any op.
fn serve_materialized(
    session: &CubeSession,
    min_sup: u64,
    rec: &mut Recorder,
    op: u64,
) -> OpResult {
    let t0 = Instant::now();
    let mut sink = DigestSink::new(t0);
    let outcome = session.query_materialized(min_sup, &mut sink);
    let t_end = Instant::now();
    let root = rec.add(0, op, "harness.op", t0, t_end);
    rec.add(root, op, "delta.serve", t0, t_end);
    let latency_ns = (t_end - t0).as_nanos() as u64;
    OpResult {
        digest: outcome.is_ok().then_some(sink.digest),
        error: outcome.err().map(|e| e.to_string()),
        latency_ns,
        first_ns: sink.first_ns.unwrap_or(latency_ns),
        ..OpResult::default()
    }
}

/// `CubeSession::ingest`, timed.
fn ingest(session: &mut CubeSession, batch: &[u32], rec: &mut Recorder, op: u64) -> Ingest {
    let t0 = Instant::now();
    let stats = session.ingest(batch).expect("generated rows are valid");
    let t_end = Instant::now();
    let root = rec.add(0, op, "harness.op", t0, t_end);
    rec.add(root, op, "delta.ingest", t0, t_end);
    Ingest {
        latency_ns: (t_end - t0).as_nanos() as u64,
        stats,
    }
}

/// One round's cycles on `session`, filed under the round `log` has in
/// progress. Each cycle ingests a batch, serves the closed cube from the
/// materialization and re-queries it through the planner at both
/// thresholds. A session that was never materialized (the probes' twin)
/// skips the serve and keeps the rest, so its ingests meet the same caches.
pub fn cycles(session: &mut CubeSession, batches: &[Vec<u32>], log: &mut Log, rec: &mut Recorder) {
    for (cycle, batch) in batches.iter().enumerate() {
        let op_id = (log.checks.len() + log.ingests.len()) as u64 + 1;
        log.ingests.push(ingest(session, batch, rec, op_id));
        let at = Req {
            version: cycle + 1,
            ..Req::full(SPARSE)
        };
        if session.materialized().is_some() {
            let spec = OpSpec {
                class: 0,
                req: at.clone(),
                // Its first cell is one map entry away.
                bulk: false,
            };
            let result = serve_materialized(session, MIN_SUP, rec, op_id + 1);
            log.push(&spec, result);
        }
        for (i, min_sup) in [MIN_SUP, HIGH_MIN_SUP].into_iter().enumerate() {
            let spec = OpSpec {
                class: 1,
                req: Req {
                    min_sup,
                    threads: Some(1),
                    ..at.clone()
                },
                bulk: true,
            };
            let result = run_sink(session, &spec.req, None, rec, op_id + 2 + i as u64);
            log.push(&spec, result);
        }
    }
}

impl Workload for IngestRequery {
    fn classes(&self) -> Vec<String> {
        CLASSES.map(String::from).to_vec()
    }

    fn construct(&mut self) {
        self.session = Some(open(&self.opts));
        self.dirty = false;
    }

    fn timed(&mut self, budget: Option<Duration>, trace: bool, epoch: Instant) -> Log {
        let mut log = Log::default();
        let mut rec = Recorder::new(epoch, 0, 1 << 14);
        let started = Instant::now();
        loop {
            if self.dirty {
                let t0 = Instant::now();
                self.construct();
                log.construct_s.push(t0.elapsed().as_secs_f64());
            }
            self.dirty = true;
            let session = self.session.as_mut().expect("constructed");
            let traced = trace && log.rounds.len() % 2 == 1;
            rec.set_enabled(traced);
            log.begin_round(traced);
            let round_start = Instant::now();
            cycles(session, &self.batches, &mut log, &mut rec);
            log.end_round(round_start.elapsed().as_secs_f64());
            if finished(&log, started, budget, trace) {
                break;
            }
        }
        log.spans = rec.into_spans();
        log
    }

    /// Every op of every cycle is checked against the naive cuber over the
    /// rows the table held at that cycle: the base rows plus the batches
    /// so far, put together by hand.
    fn verify(&mut self, log: &Log) -> Verdict {
        let base = ladder::generate(SPARSE, self.opts.rows, self.opts.seed);
        let mut values = row_major(&base);
        for batch in &self.batches {
            values.extend_from_slice(batch);
        }
        let (dims, batch_len) = (base.dims(), self.batches[0].len());
        let rows_for = |req: &Req| Rows {
            values: &values[..base.rows() * dims + req.version * batch_len],
            dims,
        };
        let mut verdict = Verdict::default();
        verdict.check_all(
            &log.checks,
            &references(rows_for, log.checks.iter().map(|c| &c.req)),
        );
        verdict
    }
}
