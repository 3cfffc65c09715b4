//! What the four workloads share: the op log, the closed loop that fills
//! it, and the end-to-end numbers read off it.

use crate::api::IngestStats;
use crate::digest::Digest;
use crate::exec::OpResult;
use crate::ladder::{self, row_major, Req, TABLES};
use crate::oracle::{references, Rows};
use crate::stats::{class_at, median, percentile, quantile, ClassAt, Rng};
use crate::trace::{Recorder, Span};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How a run is sized and seeded (from the command line).
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// The timed phase runs whole rounds until this much time has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Rows per ladder table.
    pub rows: usize,
    /// Construct once, run one round: correctness only.
    pub quick: bool,
    /// Flip a bit in one op's digest before verification: the oracle's
    /// self-test, which must make the run fail.
    pub corrupt: bool,
}

/// One op of a round: the request and the class its latency is filed
/// under.
#[derive(Clone, Debug)]
pub struct OpSpec {
    pub class: usize,
    pub req: Req,
    /// The answer is many blocks long, so waiting for its first block is
    /// a different thing from waiting for all of it: the op counts towards
    /// `first_batch_p50_ms`. A slice or a drill answers in one block or
    /// two, and a serve from the materialization has nothing to wait for.
    pub bulk: bool,
}

/// One timed query op as its caller saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub class: usize,
    pub latency_ns: u64,
    /// Time to the first result, for [`OpSpec::bulk`] ops.
    pub first_ns: Option<u64>,
}

/// One op's answer, kept for verification after the timed phase.
#[derive(Clone, Debug)]
pub struct Check {
    pub req: Req,
    pub digest: Option<Digest>,
    pub error: Option<String>,
}

/// One timed `CubeSession::ingest` and what it reported doing.
#[derive(Clone, Copy, Debug)]
pub struct Ingest {
    pub latency_ns: u64,
    pub stats: IngestStats,
}

/// Where among the rounds of a run, ordered from fastest to slowest, a
/// timing is read.
pub const FASTER_QUARTILE: f64 = 0.25;

/// One caller's pass over its op list.
pub struct Round {
    pub traced: bool,
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    pub cells: u64,
}

/// Everything the timed phase leaves behind.
///
/// The box this runs on changes speed by a quarter for seconds at a time,
/// and its slow spells are longer and more frequent than its fast ones.
/// So every timing is taken per round, and reported as the quartile of the
/// rounds on the faster side ([`FASTER_QUARTILE`]): the rounds do identical
/// work, and that quartile sits in the box's usual state unless slow
/// spells cover three quarters of the run or fast ones a quarter.
#[derive(Default)]
pub struct Log {
    pub rounds: Vec<Round>,
    pub checks: Vec<Check>,
    /// The ingests of every round (`ingest_requery` only).
    pub ingests: Vec<Ingest>,
    /// Set-ups made inside the timed phase (a workload whose rounds
    /// change its state starts each from a fresh one).
    pub construct_s: Vec<f64>,
    /// Ops and result cells of one round of every caller: fixed by the
    /// seed, so they must repeat exactly from run to run.
    pub round_ops: u64,
    pub round_cells: u64,
    /// Concurrent closed-loop callers folded into this log, less one.
    pub extra_callers: u32,
    pub spans: Vec<Span>,
}

impl Log {
    pub fn begin_round(&mut self, traced: bool) {
        self.rounds.push(Round {
            traced,
            wall_s: 0.0,
            samples: Vec::new(),
            cells: 0,
        });
    }

    /// File an op under the round in progress.
    pub fn push(&mut self, spec: &OpSpec, result: OpResult) {
        let round = self.rounds.last_mut().expect("a round is in progress");
        round.samples.push(Sample {
            class: spec.class,
            latency_ns: result.latency_ns,
            first_ns: spec.bulk.then_some(result.first_ns),
        });
        round.cells += result.cells();
        self.checks.push(Check {
            req: spec.req.clone(),
            digest: result.digest,
            error: result.error,
        });
    }

    pub fn end_round(&mut self, wall_s: f64) {
        let round = self.rounds.last_mut().expect("a round is in progress");
        round.wall_s = wall_s;
        if self.rounds.len() == 1 {
            let round = &self.rounds[0];
            (self.round_ops, self.round_cells) = (round.samples.len() as u64, round.cells);
        }
    }

    /// Fold another concurrent caller's log into this one.
    pub fn merge(&mut self, other: Log) {
        self.rounds.extend(other.rounds);
        self.checks.extend(other.checks);
        self.spans.extend(other.spans);
        self.round_ops += other.round_ops;
        self.round_cells += other.round_cells;
        self.extra_callers += 1 + other.extra_callers;
    }

    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flat_map(|r| &r.samples)
    }

    pub fn ops(&self) -> usize {
        self.samples().count()
    }

    /// The `q`-quantile over the rounds `keep` lets through of `of(round)`.
    fn over_rounds(
        &self,
        q: f64,
        keep: impl Fn(&Round) -> bool,
        of: impl Fn(&Round) -> f64,
    ) -> f64 {
        quantile(
            &mut self
                .rounds
                .iter()
                .filter(|r| keep(r))
                .map(of)
                .collect::<Vec<_>>(),
            q,
        )
    }

    /// The faster-quartile round's rate, times the callers running such
    /// rounds side by side.
    fn rate(&self, keep: impl Fn(&Round) -> bool, count: impl Fn(&Round) -> u64) -> f64 {
        let per_caller =
            self.over_rounds(1.0 - FASTER_QUARTILE, keep, |r| count(r) as f64 / r.wall_s);
        f64::from(1 + self.extra_callers) * per_caller
    }

    pub fn ops_per_s(&self) -> f64 {
        self.rate(|_| true, |r| r.samples.len() as u64)
    }

    pub fn cells_per_s(&self) -> f64 {
        self.rate(|_| true, |r| r.cells)
    }

    /// Traced ÷ untraced ops per second (trace mode alternates rounds).
    pub fn trace_overhead_ratio(&self) -> f64 {
        let ops = |r: &Round| r.samples.len() as u64;
        self.rate(|r| r.traced, ops) / self.rate(|r| !r.traced, ops)
    }

    /// Faster quartile over rounds of the round's `p`-th percentile
    /// latency.
    pub fn latency_ms(&self, p: f64) -> f64 {
        self.over_rounds(
            FASTER_QUARTILE,
            |_| true,
            |r| {
                percentile(
                    &mut r
                        .samples
                        .iter()
                        .map(|s| s.latency_ns as f64 / 1e6)
                        .collect::<Vec<_>>(),
                    p,
                )
            },
        )
    }

    /// Faster quartile over rounds of the round's median time to first
    /// result.
    pub fn first_p50_ms(&self) -> f64 {
        self.over_rounds(
            FASTER_QUARTILE,
            |_| true,
            |r| {
                median(
                    &mut r
                        .samples
                        .iter()
                        .filter_map(|s| s.first_ns)
                        .map(|n| n as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            },
        )
    }

    /// The `p`-th percentile `CubeSession::ingest` latency of all rounds.
    pub fn ingest_ms(&self, p: f64) -> f64 {
        let mut v: Vec<f64> = self
            .ingests
            .iter()
            .map(|i| i.latency_ns as f64 / 1e6)
            .collect();
        percentile(&mut v, p)
    }

    /// The class the `p`-th percentile op of all rounds belongs to.
    /// Classes that share a name in `names` count as one.
    pub fn class_at(&self, p: f64, names: &[String]) -> ClassAt {
        let by_name = |class: usize| {
            names
                .iter()
                .position(|n| *n == names[class])
                .expect("own name")
        };
        let mut v: Vec<(f64, usize)> = self
            .samples()
            .map(|s| (s.latency_ns as f64, by_name(s.class)))
            .collect();
        class_at(&mut v, p)
    }
}

/// Whether a timed phase that began at `started` may stop after the round
/// that just ended: the budget is spent (`None`: one round, the warm-up),
/// and a traced run has rounds of both kinds.
pub fn finished(log: &Log, started: Instant, budget: Option<Duration>, trace: bool) -> bool {
    let enough = budget.is_none_or(|b| started.elapsed() >= b);
    enough && (!trace || budget.is_none() || log.rounds.len() >= 2)
}

/// Run `ops` as one caller's closed loop: whole rounds, each in a fresh
/// seeded order, until `budget` has passed (`None`: exactly one round, the
/// warm-up). In trace mode odd rounds are recorded and even ones are not,
/// so one run holds both sides of the tracing-overhead comparison.
pub fn closed_loop(
    ops: &[OpSpec],
    mut exec: impl FnMut(&OpSpec, &mut Recorder, u64) -> OpResult,
    rng: &mut Rng,
    budget: Option<Duration>,
    trace: bool,
    mut rec: Recorder,
) -> Log {
    let mut log = Log::default();
    let mut order: Vec<usize> = (0..ops.len()).collect();
    let started = Instant::now();
    loop {
        let traced = trace && log.rounds.len() % 2 == 1;
        rec.set_enabled(traced);
        rng.shuffle(&mut order);
        log.begin_round(traced);
        let round_start = Instant::now();
        for &i in &order {
            let result = exec(&ops[i], &mut rec, log.checks.len() as u64 + 1);
            log.push(&ops[i], result);
        }
        log.end_round(round_start.elapsed().as_secs_f64());
        if finished(&log, started, budget, trace) {
            break;
        }
    }
    log.spans = rec.into_spans();
    log
}

/// The outcome of checking a log against the oracle.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub details: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, detail: String) {
        self.failed += 1;
        if self.details.len() < 8 {
            self.details.push(detail);
        }
    }

    /// Check every logged op against `references` (keyed by
    /// [`Req::answer_key`]).
    pub fn check_all(&mut self, checks: &[Check], references: &HashMap<Req, Digest>) {
        for check in checks {
            self.attempted += 1;
            let want = references[&check.req.answer_key()];
            match (&check.digest, &check.error) {
                (Some(got), _) if *got == want => {}
                (Some(got), _) => {
                    self.fail(format!("{:?}: got {got:?}, oracle {want:?}", check.req))
                }
                (None, error) => self.fail(format!(
                    "{:?}: {}",
                    check.req,
                    error.as_deref().unwrap_or("no result")
                )),
            }
        }
    }
}

/// Check a log whose requests all query unchanged ladder tables: the
/// tables are generated again from the seed, so nothing the timed phase
/// held is trusted.
pub fn verify_on_ladder(log: &Log, opts: &Opts) -> Verdict {
    let ladder: Vec<(Vec<u32>, usize)> = (0..TABLES.len())
        .map(|i| {
            let table = ladder::generate(i, opts.rows, opts.seed);
            (row_major(&table), table.dims())
        })
        .collect();
    let rows_for = |req: &Req| {
        let (values, dims) = &ladder[req.table];
        Rows {
            values,
            dims: *dims,
        }
    };
    let mut verdict = Verdict::default();
    verdict.check_all(
        &log.checks,
        &references(rows_for, log.checks.iter().map(|c| &c.req)),
    );
    verdict
}

/// A workload as the runner drives it.
pub trait Workload {
    /// Latency classes, indexed by [`OpSpec::class`].
    fn classes(&self) -> Vec<String>;
    /// Build the state the ops run against, from the seed alone: tables,
    /// sessions, server, materialization. Timed by the runner as set-up.
    fn construct(&mut self);
    /// Run rounds for `budget` (`None`: one untimed warm-up round).
    fn timed(&mut self, budget: Option<Duration>, trace: bool, epoch: Instant) -> Log;
    /// Check the log against the oracle.
    fn verify(&mut self, log: &Log) -> Verdict;
}
