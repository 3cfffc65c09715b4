//! `serve_mix`: dashboards over TCP. A default-configured `Server` serves
//! `skew1` and `weather` on loopback to two closed-loop `ResilientClient`s
//! (one per CPU of the reference box). This is the only workload where
//! `ccube-serve` works: admission, per-query thread spawn, frame encode,
//! socket writes, client decode. `drill` answers are tens to hundreds of
//! cells, so per-request cost dominates them; `export` streams the whole
//! closed cube in 64-cell frames, so per-cell cost dominates it. The
//! 64-client fleets of BENCH_serve measure the scheduler and stay out.

use crate::api::{ResilientClient, Server, ServerConfig, Table};
use crate::exec::run_wire;
use crate::ladder::{self, covering_values, Req, SKEW1, TABLES, WEATHER};
use crate::stats::Rng;
use crate::trace::Recorder;
use crate::workload::{closed_loop, verify_on_ladder, Log, OpSpec, Opts, Verdict, Workload};
use std::time::{Duration, Instant};

pub const CLASSES: [&str; 3] = ["drill", "page", "export"];
pub const CLIENTS: usize = 2;
/// Ops of each class per client per round: 60 % / 20 % / 20 % of 20, so
/// the median op is a `drill` and the 90th percentile op an `export`,
/// each ten percentile points inside its class.
const PER_CLIENT: [usize; 3] = [12, 4, 4];
const DRILL_MIN_SUP: u64 = 32;
/// Every `drill` keeps about this share of its table, along one dimension
/// or two: the class's ops then cost about the same, and a percentile that
/// lands among them sits on level ground.
const DRILL_SHARE: f64 = 0.1;
/// `page` projects onto four dimensions.
const PAGE_DIMS: usize = 4;
const PAGE_MIN_SUP: u64 = 4;

pub struct ServeMix {
    opts: Opts,
    server: Option<Server>,
    clients: Vec<Client>,
}

struct Client {
    conn: ResilientClient,
    ops: Vec<OpSpec>,
    rng: Rng,
}

impl ServeMix {
    pub fn new(opts: &Opts) -> ServeMix {
        ServeMix {
            opts: opts.clone(),
            server: None,
            clients: Vec::new(),
        }
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("constructed")
    }
}

/// One client's round, alternating between the two served tables. The
/// shapes are fixed; the seed reaches them through the tables' contents
/// only, so another seed asks for the same shares of the data. `drill`
/// dices one or two dimensions down to their most frequent values; `page`
/// keeps four adjacent dimensions; `export` is the full cube.
pub fn round_for(client: usize, tables: &[(usize, &Table)]) -> Vec<OpSpec> {
    let mut ops = Vec::new();
    for (class, &n) in PER_CLIENT.iter().enumerate() {
        for k in 0..n {
            let (index, table) = tables[(client + k) % tables.len()];
            // Walk the dimensions so the round touches all of them.
            let dim = |step: usize| (client * 3 + k + step) % table.dims();
            let req = match class {
                0 => Req {
                    min_sup: DRILL_MIN_SUP,
                    selections: match k % 2 {
                        0 => vec![(dim(0), covering_values(table, dim(0), DRILL_SHARE))],
                        _ => [dim(0), dim(3)]
                            .map(|d| (d, covering_values(table, d, DRILL_SHARE.sqrt())))
                            .to_vec(),
                    },
                    ..Req::full(index)
                },
                1 => Req {
                    dims: Some((0..PAGE_DIMS).map(|j| 1u64 << dim(j)).sum()),
                    min_sup: PAGE_MIN_SUP,
                    ..Req::full(index)
                },
                // Always the larger closed cube of the two, so the class is
                // one request and the percentile inside it sits on a plateau.
                _ => Req::full(SKEW1),
            };
            ops.push(OpSpec {
                class,
                req,
                bulk: class == 2,
            });
        }
    }
    ops
}

impl Workload for ServeMix {
    fn classes(&self) -> Vec<String> {
        CLASSES.map(String::from).to_vec()
    }

    fn construct(&mut self) {
        // The old server must be gone before its successor binds state of
        // its own: shutdown joins every server thread.
        self.clients.clear();
        drop(self.server.take());
        let tables: Vec<(usize, Table)> = [SKEW1, WEATHER]
            .into_iter()
            .map(|i| (i, ladder::generate(i, self.opts.rows, self.opts.seed)))
            .collect();
        let by_ref: Vec<(usize, &Table)> = tables.iter().map(|(i, t)| (*i, t)).collect();
        let rounds: Vec<Vec<OpSpec>> = (0..CLIENTS).map(|c| round_for(c, &by_ref)).collect();
        let served = tables
            .into_iter()
            .map(|(i, t)| (TABLES[i].to_string(), t))
            .collect();
        let server = Server::start(served, ServerConfig::default()).expect("bind loopback");
        self.clients = rounds
            .into_iter()
            .enumerate()
            .map(|(c, ops)| Client {
                conn: ResilientClient::new(server.addr()),
                ops,
                rng: Rng::new(self.opts.seed, &format!("serve_mix.order.{c}")),
            })
            .collect();
        self.server = Some(server);
    }

    fn timed(&mut self, budget: Option<Duration>, trace: bool, epoch: Instant) -> Log {
        let logs: Vec<Log> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(lane, client)| {
                    scope.spawn(move || {
                        let Client { conn, ops, rng } = client;
                        closed_loop(
                            ops,
                            |op, rec, id| run_wire(conn, &op.req, rec, id),
                            rng,
                            budget,
                            trace,
                            Recorder::new(epoch, lane as u64, 1 << 14),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut logs = logs.into_iter();
        let mut log = logs.next().expect("at least one client");
        logs.for_each(|other| log.merge(other));
        log
    }

    fn verify(&mut self, log: &Log) -> Verdict {
        verify_on_ladder(log, &self.opts)
    }
}
