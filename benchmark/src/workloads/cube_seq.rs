//! `cube_seq`: the paper's batch setting. One in-process caller runs every
//! algorithm over every ladder table with an explicit algorithm and
//! `threads(1)`, so the algorithms and the `ccube-core` kernels do
//! essentially all the work: the engine takes its sequential fast path and
//! planner, serve and delta do nothing. A kernel or recursion change must
//! show here; a serve or planner change must not.

use crate::api::{Algorithm, CubeSession};
use crate::exec::run_sink;
use crate::ladder::{self, Req, TABLES};
use crate::stats::Rng;
use crate::trace::Recorder;
use crate::workload::{closed_loop, verify_on_ladder, Log, OpSpec, Opts, Verdict, Workload};
use std::time::{Duration, Instant};

pub struct CubeSeq {
    opts: Opts,
    ops: Vec<OpSpec>,
    sessions: Vec<CubeSession>,
    rng: Rng,
}

/// One round: eight algorithms × four tables, one latency class each.
pub fn round() -> Vec<OpSpec> {
    let mut ops = Vec::new();
    for table in 0..TABLES.len() {
        for a in Algorithm::ALL {
            ops.push(OpSpec {
                class: ops.len(),
                req: Req {
                    algorithm: Some(a),
                    threads: Some(1),
                    ..Req::full(table)
                },
                bulk: true,
            });
        }
    }
    ops
}

impl CubeSeq {
    pub fn new(opts: &Opts) -> CubeSeq {
        CubeSeq {
            opts: opts.clone(),
            ops: round(),
            sessions: Vec::new(),
            rng: Rng::new(opts.seed, "cube_seq.order"),
        }
    }
}

impl Workload for CubeSeq {
    fn classes(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|op| {
                format!(
                    "{}/{}",
                    op.req.algorithm.expect("explicit").name(),
                    TABLES[op.req.table]
                )
            })
            .collect()
    }

    fn construct(&mut self) {
        self.sessions = (0..TABLES.len())
            .map(|i| {
                CubeSession::new(ladder::generate(i, self.opts.rows, self.opts.seed))
                    .expect("ladder table")
            })
            .collect();
    }

    fn timed(&mut self, budget: Option<Duration>, trace: bool, epoch: Instant) -> Log {
        let sessions = &mut self.sessions;
        closed_loop(
            &self.ops,
            |op, rec, id| run_sink(&mut sessions[op.req.table], &op.req, None, rec, id),
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
