//! The per-layer probe suite of the traced run.
//!
//! Every probe times calls into one layer's public API from outside; none
//! needs the program instrumented. The suite is the same whichever
//! workload is being traced (the driver wants every per-layer metric from
//! every traced run), is built from the workloads' own rounds, and runs
//! after the timed phase so it cannot disturb it.

use crate::api::{
    decode_response, encode_response, Algorithm, CellBlock, Client, ClosedInfo, CubeSession,
    EngineConfig, Partitioner, ResilientClient, Response, Table, TableBuilder, TupleId, ViewArena,
};
use crate::exec::{run_sink, run_stream, run_wire, OpResult};
use crate::ladder::{
    self, row_major, sparse_batches, Req, MIN_SUP, SKEW1, SPARSE, TABLES, WEATHER,
};
use crate::stats::{geomean, median, percentile};
use crate::trace::Recorder;
use crate::workload::{Log, OpSpec, Opts};
use crate::workloads::{cube_seq, ingest_requery, serve_mix, session_par};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// `(metric name, value)` pairs, in the order probed.
pub type Found = Vec<(String, f64)>;

/// Run every probe. `rec` collects the probes' spans next to the
/// workload's.
pub fn suite(opts: &Opts, rec: &mut Recorder) -> Found {
    let mut found = Found::new();
    rec.set_enabled(true);
    core(opts, rec, &mut found);
    let algo = algo_pass(opts, rec, &mut found);
    engine(opts, &algo, rec, &mut found);
    session(opts, rec, &mut found);
    delta(opts, rec, &mut found);
    serve(opts, rec, &mut found);
    found
}

fn put(found: &mut Found, name: impl Into<String>, value: f64) {
    found.push((name.into(), value));
}

/// Median wall time of `run` over `reps` calls, in nanoseconds, with a
/// span around the whole probe.
fn median_ns(rec: &mut Recorder, name: &'static str, reps: usize, mut run: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    rec.add(0, 0, name, start, Instant::now());
    median(&mut samples)
}

const MICRO_REPS: usize = 15;

/// `ccube-core` kernels on the packed-row leg (`skew1`, all-u8) and the
/// wide-lane leg (`sparse`, u16 columns, no packed mirror).
fn core(opts: &Opts, rec: &mut Recorder, found: &mut Found) {
    for (leg, index) in [("packed", SKEW1), ("wide", SPARSE)] {
        let table = ladder::generate(index, opts.rows, opts.seed);
        let (rows, dims) = (table.rows(), table.dims());
        let per_tuple = |ns: f64| ns / rows as f64;
        let values = row_major(&table);

        let ns = median_ns(rec, "core.table_build", MICRO_REPS, || {
            let mut builder = TableBuilder::new(dims).reserve(rows);
            for row in values.chunks_exact(dims) {
                builder.push_row(row);
            }
            black_box(builder.build().expect("ladder rows are valid").rows());
        });
        put(
            found,
            format!("core.table_build_ns_per_tuple.{leg}"),
            per_tuple(ns),
        );

        // Both passes sort the identity order by dimension 1; the copy
        // that restores it is part of every sample on both legs.
        let identity = table.all_tids();
        let mut tids = identity.clone();
        let mut groups = Vec::new();
        let mut partitioner = Partitioner::new();
        let ns = median_ns(rec, "core.partition", MICRO_REPS, || {
            tids.copy_from_slice(&identity);
            groups.clear();
            partitioner.partition_col(table.col(1), table.card(1), &mut tids, &mut groups);
            black_box(groups.len());
        });
        put(
            found,
            format!("core.partition_ns_per_tuple.{leg}"),
            per_tuple(ns),
        );

        let ns = median_ns(rec, "core.sort_pass", MICRO_REPS, || {
            tids.copy_from_slice(&identity);
            partitioner.sort_pass(table.col(1), table.card(1), &mut tids);
            black_box(tids[0]);
        });
        put(
            found,
            format!("core.sort_pass_ns_per_tuple.{leg}"),
            per_tuple(ns),
        );

        // Gather every other tuple, all dimensions, into a recycled arena:
        // what a slice pays to materialize its subtable.
        let half: Vec<TupleId> = identity.iter().copied().step_by(2).collect();
        let dim_order: Vec<usize> = (0..dims).collect();
        let mut arena = ViewArena::new();
        let ns = median_ns(rec, "core.view_gather", MICRO_REPS, || {
            let view = table.view_in(&mut arena, &half, &dim_order, dims);
            black_box(view.rows());
            arena.reclaim(view);
        });
        put(
            found,
            format!("core.view_gather_ns_per_tuple.{leg}"),
            ns / half.len() as f64,
        );

        // The closedness fold over every group of the dimension-0
        // partition: each tuple is folded exactly once.
        let (by_first, first_groups) = table.shard_by_dim(0);
        let ns = median_ns(rec, "core.for_group", MICRO_REPS, || {
            for g in &first_groups {
                black_box(ClosedInfo::for_group(&table, &by_first[g.range()]));
            }
        });
        put(
            found,
            format!("core.for_group_ns_per_tuple.{leg}"),
            per_tuple(ns),
        );
    }
}

/// Best-of-two time and the cell count of every (algorithm, table) pair.
struct AlgoPass {
    sessions: Vec<CubeSession>,
    /// Indexed like [`cube_seq::round`]: table-major, algorithm-minor.
    ops: Vec<OpSpec>,
    seconds: Vec<f64>,
    cells: Vec<u64>,
}

impl AlgoPass {
    fn at(&self, a: Algorithm, table: usize) -> usize {
        self.ops
            .iter()
            .position(|op| op.req.algorithm == Some(a) && op.req.table == table)
            .expect("every pair is in the round")
    }
}

fn best_of_two(mut run: impl FnMut() -> OpResult) -> OpResult {
    let (a, b) = (run(), run());
    if a.latency_ns <= b.latency_ns {
        a
    } else {
        b
    }
}

/// One `cube_seq` round, each op twice: the algorithms' busy seconds, the
/// paper's Section 5.4 closedness overhead, and the planner's regret.
fn algo_pass(opts: &Opts, rec: &mut Recorder, found: &mut Found) -> AlgoPass {
    let mut sessions: Vec<CubeSession> = (0..TABLES.len())
        .map(|i| CubeSession::new(ladder::generate(i, opts.rows, opts.seed)).expect("ladder table"))
        .collect();
    let ops = cube_seq::round();
    let results: Vec<OpResult> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            best_of_two(|| run_sink(&mut sessions[op.req.table], &op.req, None, rec, i as u64))
        })
        .collect();
    let pass = AlgoPass {
        sessions,
        ops,
        seconds: results.iter().map(|r| r.latency_ns as f64 / 1e9).collect(),
        cells: results.iter().map(OpResult::cells).collect(),
    };
    let over_ladder = |a: Algorithm| (0..TABLES.len()).map(move |t| (a, t));
    let key = |a: Algorithm| a.name().to_lowercase().replace(['(', ')', '-'], "");
    for a in Algorithm::ALL {
        let busy: f64 = over_ladder(a)
            .map(|(a, t)| pass.seconds[pass.at(a, t)])
            .sum();
        put(found, format!("algo.{}.s", key(a)), busy);
    }
    for (family, host, closed) in [
        ("mm", Algorithm::Mm, Algorithm::CCubingMm),
        ("star", Algorithm::Star, Algorithm::CCubingStar),
        (
            "stararray",
            Algorithm::StarArray,
            Algorithm::CCubingStarArray,
        ),
    ] {
        let ratios: Vec<f64> = (0..TABLES.len())
            .map(|t| pass.seconds[pass.at(closed, t)] / pass.seconds[pass.at(host, t)])
            .collect();
        put(
            found,
            format!("algo.closed_overhead.{family}"),
            geomean(&ratios),
        );
    }
    let total = |a: Algorithm| {
        over_ladder(a)
            .map(|(a, t)| pass.cells[pass.at(a, t)])
            .sum::<u64>() as f64
    };
    put(
        found,
        "algo.closed_ratio",
        total(Algorithm::QcDfs) / total(Algorithm::Buc),
    );
    let ns_per_cell: Vec<f64> = pass
        .seconds
        .iter()
        .zip(&pass.cells)
        .map(|(s, &c)| s * 1e9 / c as f64)
        .collect();
    put(found, "algo.ns_per_cell", geomean(&ns_per_cell));

    // Planner-chosen ÷ best of the four closed algorithms, per table.
    let closed: Vec<Algorithm> = Algorithm::ALL
        .into_iter()
        .filter(|a| a.is_closed())
        .collect();
    let regrets: Vec<f64> = (0..TABLES.len())
        .map(|t| {
            let chosen = pass.sessions[t].recommend(MIN_SUP);
            let best = closed
                .iter()
                .map(|&a| pass.seconds[pass.at(a, t)])
                .fold(f64::INFINITY, f64::min);
            pass.seconds[pass.at(chosen, t)] / best
        })
        .collect();
    put(found, "session.planner_regret", geomean(&regrets));
    put(
        found,
        "session.planner_regret_max",
        regrets.iter().copied().fold(0.0, f64::max),
    );
    pass
}

/// The sharded path against the sequential fast path on `skew1`, and the
/// counters of the run `session_par` calls `full`.
fn engine(opts: &Opts, algo: &AlgoPass, rec: &mut Recorder, found: &mut Found) {
    let mut session =
        CubeSession::new(ladder::generate(SKEW1, opts.rows, opts.seed)).expect("ladder table");
    let parallel = std::thread::available_parallelism().map_or(1, usize::from) >= 2;
    let (mut sharded, mut speedup) = (Vec::new(), Vec::new());
    for a in Algorithm::ALL {
        let fast = algo.seconds[algo.at(a, SKEW1)];
        let req = |threads| Req {
            algorithm: Some(a),
            threads: Some(threads),
            ..Req::full(SKEW1)
        };
        let always = Some(EngineConfig::with_threads(1).always_sharded());
        let one = best_of_two(|| run_sink(&mut session, &req(1), always, rec, 0));
        sharded.push(one.latency_ns as f64 / 1e9 / fast);
        if parallel {
            let two = best_of_two(|| run_sink(&mut session, &req(2), None, rec, 0));
            speedup.push(fast / (two.latency_ns as f64 / 1e9));
        }
    }
    put(found, "engine.shard_overhead_1t", geomean(&sharded));
    // A speed-up measured on one CPU says nothing; it is left out, not
    // reported as 1.0.
    if parallel {
        put(found, "engine.par_speedup_2t", geomean(&speedup));
    }
    let full = Req {
        threads: Some(2),
        ..Req::full(SKEW1)
    };
    let stats = run_sink(&mut session, &full, None, rec, 0).engine;
    put(found, "engine.tasks", stats.tasks as f64);
    put(found, "engine.splits", stats.splits as f64);
    put(found, "engine.steals", stats.steals as f64);
    put(
        found,
        "engine.tuples_per_task",
        opts.rows as f64 / stats.tasks.max(1) as f64,
    );
    put(
        found,
        "engine.peak_buffered_bytes",
        stats.peak_buffered_bytes as f64,
    );
}

fn latency_ms<'a>(results: impl IntoIterator<Item = &'a OpResult>) -> f64 {
    median(
        &mut results
            .into_iter()
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Session-layer costs on `skew1` and `weather`: opening, planning,
/// slicing, and what `stream()` adds over `run()`.
fn session(opts: &Opts, rec: &mut Recorder, found: &mut Found) {
    let table = ladder::generate(SKEW1, opts.rows, opts.seed);
    let ns = median_ns(rec, "session.new", 5, || {
        black_box(CubeSession::new(table.clone()).expect("ladder table"));
    });
    put(found, "session.new_ms", ns / 1e6);

    let mut sessions: Vec<(usize, CubeSession)> = [SKEW1, WEATHER]
        .into_iter()
        .map(|i| {
            (
                i,
                CubeSession::new(ladder::generate(i, opts.rows, opts.seed)).expect("ladder table"),
            )
        })
        .collect();
    let planned = &mut sessions[0].1;
    let ns = median_ns(rec, "session.plan", 201, || {
        black_box(planned.query().min_sup(MIN_SUP).threads(2).plan());
    });
    put(found, "session.plan_us", ns / 1e3);

    let (mut lead, mut other, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for (index, session) in &mut sessions {
        let ops = session_par::round_for(*index, session);
        let results: Vec<(usize, OpResult)> = ops
            .iter()
            .map(|op| (op.class, run_stream(session, &op.req, rec, 0)))
            .collect();
        let of_class = |class: usize| {
            results
                .iter()
                .filter(move |(c, _)| *c == class)
                .map(|(_, r)| r)
        };
        lead.extend(of_class(1).cloned());
        other.extend(of_class(2).cloned());
        // The same `full` request through both terminals.
        let full = &ops[0].req;
        let streamed = latency_ms(of_class(0));
        let pushed: Vec<OpResult> = (0..3)
            .map(|_| run_sink(session, full, None, rec, 0))
            .collect();
        overhead.push(streamed / latency_ms(&pushed));
    }
    put(found, "session.stream_overhead_ratio", geomean(&overhead));
    put(found, "session.slice_lead_ms", latency_ms(&lead));
    put(found, "session.slice_other_ms", latency_ms(&other));
}

/// Rounds of `ingest_requery` replayed on freshly materialized sessions:
/// 240 ingests, so that 24 lie beyond `ingest_p90_ms`.
const INGEST_ROUNDS: usize = 10;
/// Rounds on the never-materialized twin; only a median is read off them.
const TWIN_ROUNDS: usize = 3;

/// `ingest_requery` rounds on materialized sessions beside the same rounds
/// on a twin that was never materialized: what the materialization costs to
/// build, to patch and to serve, and whether the patched session still
/// beats a cold one.
fn delta(opts: &Opts, rec: &mut Recorder, found: &mut Found) {
    let fresh =
        || CubeSession::new(ladder::generate(SPARSE, opts.rows, opts.seed)).expect("ladder table");
    let batches = sparse_batches(ingest_requery::CYCLES, opts.rows / 200, opts.seed);
    let replay = |session: &mut CubeSession, log: &mut Log, rec: &mut Recorder| {
        log.begin_round(true);
        let t0 = Instant::now();
        ingest_requery::cycles(session, &batches, log, rec);
        log.end_round(t0.elapsed().as_secs_f64());
    };

    let mut log = Log::default();
    let mut build_ms = Vec::new();
    let mut last = None;
    for _ in 0..INGEST_ROUNDS {
        let mut session = fresh();
        let t0 = Instant::now();
        let build = session.materialize(MIN_SUP).expect("min_sup is positive");
        let built = Instant::now();
        rec.add(0, 0, "delta.build", t0, built);
        build_ms.push((built - t0).as_secs_f64() * 1e3);
        replay(&mut session, &mut log, rec);
        last = Some((build, session));
    }
    let (build, session) = last.expect("at least one round");
    let mut twin_log = Log::default();
    let mut last_twin = None;
    for _ in 0..TWIN_ROUNDS {
        let mut twin = fresh();
        replay(&mut twin, &mut twin_log, rec);
        last_twin = Some(twin);
    }
    let mut twin = last_twin.expect("at least one round");

    put(found, "delta.build_ms", median(&mut build_ms));
    put(found, "ingest_p50_ms", log.ingest_ms(50.0));
    put(found, "ingest_p90_ms", log.ingest_ms(90.0));
    put(found, "session.ingest_ms", twin_log.ingest_ms(50.0));
    put(
        found,
        "delta.patch_ms",
        log.ingest_ms(50.0) - twin_log.ingest_ms(50.0),
    );
    let ingests = log.ingests.len() as f64;
    let (mut rows, mut rechecked, mut added) = (0u64, 0u64, 0u64);
    for ingest in &log.ingests {
        let patch = ingest
            .stats
            .materialization
            .expect("session is materialized");
        rows += ingest.stats.rows as u64;
        rechecked += patch.groups_rechecked;
        added += patch.cells_added;
    }
    put(
        found,
        "delta.groups_rechecked_per_row",
        rechecked as f64 / rows as f64,
    );
    put(
        found,
        "delta.prune_ratio",
        rechecked as f64 / ingests / build.groups_rechecked as f64,
    );
    put(found, "delta.cells_added_per_batch", added as f64 / ingests);
    // A log files an op's sample and its check in the same order.
    let (serve_ns, served) = log
        .samples()
        .zip(&log.checks)
        .filter(|(sample, _)| sample.class == 0)
        .fold((0u64, 0u64), |(ns, cells), (sample, check)| {
            (
                ns + sample.latency_ns,
                cells + check.digest.map_or(0, |d| d.cells),
            )
        });
    put(
        found,
        "delta.serve_ns_per_cell",
        serve_ns as f64 / served as f64,
    );
    put(
        found,
        "delta.cells",
        session.materialized().expect("materialized").len() as f64,
    );

    // The twin's patched artifacts against a session opened cold over the
    // same rows; the cold side pays `CubeSession::new` as well.
    let requery = Req {
        threads: Some(1),
        ..Req::full(SPARSE)
    };
    let patched: Vec<OpResult> = (0..3)
        .map(|_| run_sink(&mut twin, &requery, None, rec, 0))
        .collect();
    let grown = twin.table().clone();
    let mut cold: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut opened = CubeSession::new(grown.clone()).expect("ladder table");
            black_box(run_sink(&mut opened, &requery, None, rec, 0).cells());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put(
        found,
        "session.requery_vs_cold_ratio",
        latency_ms(&patched) / median(&mut cold),
    );
    let cache = twin.cache_stats();
    put(
        found,
        "session.partition_builds",
        f64::from(cache.partition_builds),
    );
    put(found, "session.pool_builds", f64::from(cache.pool_builds));
    put(
        found,
        "session.artifacts_patched",
        f64::from(cache.artifacts_patched),
    );
}

/// Rounds each probe client measures on each route; replies come in 4 ms
/// steps (delayed ACKs), so a median needs a few rounds to settle on the
/// step the workload's own median sits on.
const MEASURED_PASSES: usize = 3;

/// `Threads:` of `/proc/self/status` (0 where there is no procfs).
fn thread_count() -> u64 {
    crate::runner::proc_status("Threads:").unwrap_or(0)
}

/// One `serve_mix` round per client over the wire, then the same requests
/// on in-process twin sessions under the same concurrency: the difference
/// is the serving layer's own time.
fn serve(opts: &Opts, rec: &mut Recorder, found: &mut Found) {
    let mut workload = serve_mix::ServeMix::new(opts);
    crate::workload::Workload::construct(&mut workload);
    let server = workload.server();
    let addr = server.addr();
    let tables: Vec<(usize, Table)> = [SKEW1, WEATHER]
        .into_iter()
        .map(|i| (i, ladder::generate(i, opts.rows, opts.seed)))
        .collect();
    let by_ref: Vec<(usize, &Table)> = tables.iter().map(|(i, t)| (*i, t)).collect();

    let barrier = Barrier::new(serve_mix::CLIENTS);
    let sampling = AtomicBool::new(true);
    let threads_peak = AtomicU64::new(0);
    let epoch = rec.epoch();
    struct Side {
        wire: Vec<OpResult>,
        twin: Vec<OpResult>,
        retried: u64,
        resumed: u64,
        spans: Vec<crate::trace::Span>,
    }
    let sides: Vec<Side> = std::thread::scope(|scope| {
        // Server-side threads live only while a query is in flight, so
        // they are counted from beside the clients, not between ops.
        scope.spawn(|| {
            while sampling.load(Ordering::Relaxed) {
                threads_peak.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let handles: Vec<_> = (0..serve_mix::CLIENTS)
            .map(|c| {
                let (barrier, by_ref, tables) = (&barrier, &by_ref, &tables);
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, 8 + c as u64, 1 << 10);
                    let ops = serve_mix::round_for(c, by_ref);
                    let mut conn = ResilientClient::new(addr);
                    let mut twins: Vec<Option<CubeSession>> =
                        (0..TABLES.len()).map(|_| None).collect();
                    for (i, table) in tables {
                        twins[*i] = Some(CubeSession::new(table.clone()).expect("ladder table"));
                    }
                    let mut pass = |wire: bool, rec: &mut Recorder| -> Vec<OpResult> {
                        barrier.wait();
                        ops.iter()
                            .map(|op| {
                                if wire {
                                    run_wire(&mut conn, &op.req, rec, 0)
                                } else {
                                    run_stream(
                                        twins[op.req.table].as_mut().expect("served"),
                                        &op.req,
                                        rec,
                                        0,
                                    )
                                }
                            })
                            .collect()
                    };
                    // Warm both routes, then measure each with every
                    // client on the same route at the same time.
                    pass(true, &mut rec);
                    pass(false, &mut rec);
                    rec.set_enabled(true);
                    let (mut wire, mut twin) = (Vec::new(), Vec::new());
                    for _ in 0..MEASURED_PASSES {
                        wire.extend(pass(true, &mut rec));
                        twin.extend(pass(false, &mut rec));
                    }
                    let stats = conn.stats();
                    Side {
                        wire,
                        twin,
                        retried: stats.retried,
                        resumed: stats.resumed,
                        spans: rec.into_spans(),
                    }
                })
            })
            .collect();
        let sides = handles
            .into_iter()
            .map(|h| h.join().expect("probe client panicked"))
            .collect();
        sampling.store(false, Ordering::Relaxed);
        sides
    });
    let wire: Vec<&OpResult> = sides.iter().flat_map(|s| &s.wire).collect();
    let twin: Vec<&OpResult> = sides.iter().flat_map(|s| &s.twin).collect();
    let first_ms = |results: &[&OpResult]| {
        median(
            &mut results
                .iter()
                .map(|r| r.first_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    put(found, "serve.twin_p50_ms", latency_ms(twin.iter().copied()));
    put(
        found,
        "serve.wire_overhead_ms",
        latency_ms(wire.iter().copied()) - latency_ms(twin.iter().copied()),
    );
    put(
        found,
        "serve.first_batch_overhead_ms",
        first_ms(&wire) - first_ms(&twin),
    );
    let mut elapsed: Vec<f64> = wire
        .iter()
        .filter_map(|r| r.done)
        .map(|d| d.elapsed_micros as f64 / 1e3)
        .collect();
    put(found, "serve.server_elapsed_p50_ms", median(&mut elapsed));
    let mut latencies: Vec<f64> = wire.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
    put(
        found,
        "serve.client_p99_ms",
        percentile(&mut latencies, 99.0),
    );
    put(
        found,
        "serve.batches_per_op",
        wire.iter().map(|r| r.batches).sum::<u64>() as f64 / wire.len() as f64,
    );
    put(
        found,
        "serve.retried",
        sides.iter().map(|s| s.retried).sum::<u64>() as f64,
    );
    put(
        found,
        "serve.resumed",
        sides.iter().map(|s| s.resumed).sum::<u64>() as f64,
    );
    put(
        found,
        "serve.threads_peak",
        threads_peak.load(Ordering::Relaxed) as f64,
    );
    let gate = server.metrics().gate;
    put(found, "serve.gate_admitted", gate.admitted as f64);
    put(
        found,
        "serve.gate_shed",
        (gate.shed_queue_full + gate.shed_timeout + gate.shed_draining) as f64,
    );
    for side in sides {
        rec.absorb(side.spans);
    }

    let mut connects = Vec::new();
    let ns = median_ns(rec, "serve.connect", 21, || {
        connects.push(Client::connect(addr).expect("loopback connect"));
    });
    put(found, "serve.connect_us", ns / 1e3);
    let conn = connects.last_mut().expect("connected");
    let ns = median_ns(rec, "serve.ping", 201, || conn.ping().expect("pong"));
    put(found, "serve.ping_rtt_us", ns / 1e3);

    // The codec on a 1024-cell batch of real rows.
    const CELLS: usize = 1024;
    let skew1 = &tables[0].1;
    let mut block = CellBlock {
        dims: skew1.dims() as u16,
        ..CellBlock::default()
    };
    for t in 0..CELLS as TupleId {
        block.push(&skew1.row(t), u64::from(t) + MIN_SUP);
    }
    let batch = Response::Batch {
        query_id: 1,
        seq: 0,
        version: 1,
        block,
    };
    let mut frame = Vec::new();
    let ns = median_ns(rec, "serve.encode", 31, || frame = encode_response(&batch));
    put(found, "serve.encode_ns_per_cell", ns / CELLS as f64);
    put(
        found,
        "serve.bytes_per_cell",
        frame.len() as f64 / CELLS as f64,
    );
    let ns = median_ns(rec, "serve.decode", 31, || {
        black_box(decode_response(&frame).expect("own encoding decodes"));
    });
    put(found, "serve.decode_ns_per_cell", ns / CELLS as f64);
}
