//! `session_par`: an analyst drilling down. One in-process caller queries
//! sessions over `skew1` and `weather` with the planner choosing the
//! algorithm, `threads(2)`, consumed through `stream()`. The planner, the
//! session caches (the partition behind `slice_lead`), the sharded engine
//! path (split, steal, ordered merge) and `CellStream` all work here and
//! are idle in `cube_seq`; the same algorithms run under both, so an
//! engine gain that costs the sequential fast path shows.

use crate::api::CubeSession;
use crate::exec::run_stream;
use crate::ladder::{self, ranked_values, Req, SKEW1, TABLES, WEATHER};
use crate::stats::Rng;
use crate::trace::Recorder;
use crate::workload::{closed_loop, verify_on_ladder, Log, OpSpec, Opts, Verdict, Workload};
use std::time::{Duration, Instant};

/// Both kinds of slice report as one latency class: they differ by one
/// column scan, far less than slices differ among themselves, so a
/// percentile among them is "in the slices", not in one kind.
pub const CLASSES: [&str; 4] = ["full", "slice_*", "slice_*", "project"];
const THREADS: usize = 2;
/// Ops of each class per table per round: 20 % / 40 % / 25 % / 15 % of 20,
/// so the median op is a slice and the 90th percentile op a `full`, each
/// ten or more percentile points inside its class.
const PER_TABLE: [usize; 4] = [4, 8, 5, 3];
/// Slices skip the eight hottest values: below them the Zipf curve is
/// flat enough that the slices of one class select similar shares of the
/// table, which keeps the class's latencies, and the percentile that lands
/// among them, in a narrow band.
const SLICE_FROM_RANK: usize = 8;
/// `project` keeps five of the eight dimensions at a higher threshold.
const PROJECT_MASK: u64 = 0b1_1111;
const PROJECT_MIN_SUP: u64 = 32;

pub struct SessionPar {
    opts: Opts,
    ops: Vec<OpSpec>,
    /// By ladder index; only the two queried tables are open.
    sessions: Vec<Option<CubeSession>>,
    rng: Rng,
}

impl SessionPar {
    pub fn new(opts: &Opts) -> SessionPar {
        SessionPar {
            opts: opts.clone(),
            ops: Vec::new(),
            sessions: Vec::new(),
            rng: Rng::new(opts.seed, "session_par.order"),
        }
    }
}

/// The round over one session: slices select frequent values of the
/// session's sharding dimension (the cached-partition fast path) and of
/// the first other dimension (a column scan), one value per op.
pub fn round_for(table: usize, session: &CubeSession) -> Vec<OpSpec> {
    let lead = session.sharding_ordering().permutation(session.table())[0];
    let other = usize::from(lead == 0);
    let base = Req {
        threads: Some(THREADS),
        ..Req::full(table)
    };
    let slice = |dim: usize, v: u32| Req {
        selections: vec![(dim, vec![v])],
        ..base.clone()
    };
    let project = Req {
        dims: Some(PROJECT_MASK),
        min_sup: PROJECT_MIN_SUP,
        ..base.clone()
    };
    let mut reqs = vec![vec![base.clone(); PER_TABLE[0]]];
    reqs.push(
        ranked_values(session.table(), lead, SLICE_FROM_RANK, PER_TABLE[1])
            .into_iter()
            .map(|v| slice(lead, v))
            .collect(),
    );
    reqs.push(
        ranked_values(session.table(), other, SLICE_FROM_RANK, PER_TABLE[2])
            .into_iter()
            .map(|v| slice(other, v))
            .collect(),
    );
    reqs.push(vec![project; PER_TABLE[3]]);
    reqs.into_iter()
        .enumerate()
        .flat_map(|(class, reqs)| {
            // `full` is the class whose answers are many blocks long, but
            // only on `weather` does its first item say something about
            // the code: the ordered merge releases nothing before the
            // first shard in value order is done, and on `skew1` which of
            // eight statistically identical dimensions the session shards
            // by is a tie broken by sampling noise, that is by the seed
            // (first item after 50 ms under one seed, 110 ms under
            // another). `weather` shards by the same dimension always.
            let bulk = class == 0 && table == WEATHER;
            reqs.into_iter().map(move |req| OpSpec { class, req, bulk })
        })
        .collect()
}

impl Workload for SessionPar {
    fn classes(&self) -> Vec<String> {
        CLASSES.map(String::from).to_vec()
    }

    fn construct(&mut self) {
        self.sessions = (0..TABLES.len())
            .map(|i| {
                [SKEW1, WEATHER].contains(&i).then(|| {
                    CubeSession::new(ladder::generate(i, self.opts.rows, self.opts.seed))
                        .expect("ladder table")
                })
            })
            .collect();
        self.ops = [SKEW1, WEATHER]
            .into_iter()
            .flat_map(|i| round_for(i, self.sessions[i].as_ref().expect("open")))
            .collect();
    }

    fn timed(&mut self, budget: Option<Duration>, trace: bool, epoch: Instant) -> Log {
        let sessions = &mut self.sessions;
        closed_loop(
            &self.ops,
            |op, rec, id| {
                run_stream(
                    sessions[op.req.table].as_mut().expect("open"),
                    &op.req,
                    rec,
                    id,
                )
            },
            &mut self.rng,
            budget,
            trace,
            Recorder::new(epoch, 0, 1 << 14),
        )
    }

    fn verify(&mut self, log: &Log) -> Verdict {
        verify_on_ladder(log, &self.opts)
    }
}
