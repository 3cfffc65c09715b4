//! Chaos-under-load: injected faults at the wire sites and in the engine
//! while dozens of concurrent clients hammer the server. The server may
//! shed, fail queries, or drop individual connections — but only in typed
//! ways: every query ends in `Done`/`Overloaded`/`Error` or a visible
//! disconnect, no client ever hangs, and after shutdown no thread is
//! leaked.
//!
//! Compiled only under `--cfg ccube_chaos` and armed only when the
//! `CCUBE_CHAOS` environment variable is `1`:
//!
//! ```text
//! RUSTFLAGS="--cfg ccube_chaos" CCUBE_CHAOS=1 \
//!     cargo test -p ccube-serve --test chaos
//! ```

#![cfg(ccube_chaos)]

use c_cubing::prelude::*;
use ccube_core::faults::{FaultAction, FaultPlan, FaultScope};
use ccube_serve::{
    AdmissionConfig, Client, ClientConfig, ClientError, QueryOutcome, QueryRequest,
    ResilientClient, RetryPolicy, Server, ServerConfig, WireStatus,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const CLIENTS: usize = 64;
const QUERIES_PER_CLIENT: usize = 2;

/// Thread-leak accounting is process-global (one test's live server would
/// be another's leak), so the tests in this file must not overlap each
/// other (they may still overlap other test binaries, which have their own
/// processes).
static SERIAL: Mutex<()> = Mutex::new(());

fn armed() -> bool {
    std::env::var("CCUBE_CHAOS").is_ok_and(|v| v == "1")
}

/// Names of this process's live threads that belong to the serving stack
/// (Linux). Every thread the stack spawns is named `ccube-…` (accept,
/// watchdog, connection, stream producer and engine workers); the
/// test harness's own threads come and go between tests — the next test's
/// thread is spawned, and parks on [`SERIAL`], while this one still runs —
/// so a bare thread count is not comparable to any baseline.
fn stack_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("ccube-"))
        .collect();
    names.sort();
    names
}

/// After shutdown none of the stack's threads may be alive. Detached OS
/// teardown can lag the `join` by a moment, so poll briefly before
/// declaring a leak.
fn assert_no_leaked_threads(context: &str) {
    let mut alive = Vec::new();
    for _ in 0..200 {
        alive = stack_threads();
        if alive.is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{context}: threads still alive after shutdown — leak: {alive:?}");
}

fn chaos_table() -> Table {
    SyntheticSpec::uniform(800, 4, 6, 1.0, 11).generate()
}

fn chaos_server() -> Server {
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 4,
            max_queued: 8,
            max_queue_wait: Duration::from_millis(250),
            ..AdmissionConfig::default()
        },
        drain_deadline: Duration::from_secs(3),
        ..ServerConfig::default()
    };
    Server::start(vec![("synth".to_string(), chaos_table())], config).expect("server starts")
}

#[derive(Default)]
struct Tally {
    done: AtomicU64,
    overloaded: AtomicU64,
    typed_errors: AtomicU64,
    disconnects: AtomicU64,
}

/// Run `CLIENTS` concurrent clients against `server`, classifying every
/// query outcome. Panics on the two forbidden outcomes: a wedged exchange
/// (client i/o timeout) or an untyped frame.
fn hammer(server: &Server, tally: &Tally) {
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let tally = &*tally;
            scope.spawn(move || {
                // A wedged server turns into a visible TimedOut here.
                let mut client = match Client::connect_with(addr, Duration::from_secs(10)) {
                    Ok(client) => client,
                    Err(_) => {
                        // Accept-fault window: connection refused/reset is a
                        // visible, typed-at-the-socket outcome.
                        tally.disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                for q in 0..QUERIES_PER_CLIENT {
                    // Mix shapes: sequential and engine-parallel queries.
                    let mut req = QueryRequest::new("synth", 1 + ((c + q) % 3) as u64);
                    if c % 2 == 0 {
                        req.threads = 2;
                    }
                    match client.query(&req) {
                        Ok(QueryOutcome::Done(_)) => {
                            tally.done.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(QueryOutcome::Overloaded { .. }) => {
                            tally.overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(QueryOutcome::ServerError { status, detail }) => {
                            assert!(
                                matches!(
                                    status,
                                    WireStatus::Cancelled
                                        | WireStatus::DeadlineExceeded
                                        | WireStatus::BudgetExceeded
                                        | WireStatus::WorkerPanicked
                                        | WireStatus::ShuttingDown
                                        | WireStatus::Internal
                                        | WireStatus::Wedged
                                ),
                                "untyped failure {status:?}: {detail}"
                            );
                            tally.typed_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Timeout(phase)) => {
                            panic!("client {c} query {q} wedged: {phase} timed out");
                        }
                        Err(_) => {
                            // Connection-layer fault killed this connection;
                            // that's an allowed, visible outcome — stop using
                            // the dead connection.
                            tally.disconnects.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// The chaos matrix: one injected fault per scenario, firing while the
/// 64-client load is in flight. Covers the wire sites (accept failure,
/// mid-stream write error, stalled reads) and engine faults surfacing as
/// typed frames (worker panic, budget, deadline).
#[test]
fn chaos_under_load_sheds_typed_and_leaks_nothing() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scenarios: &[(&str, FaultAction, u64)] = &[
        ("serve.accept", FaultAction::IoError, 0),
        ("serve.frame.write", FaultAction::IoError, 5),
        ("serve.frame.read", FaultAction::IoError, 5),
        ("serve.frame.read", FaultAction::Stall, 3),
        ("engine.task.start", FaultAction::Panic, 2),
        ("engine.task.start", FaultAction::Budget, 2),
        ("engine.seed", FaultAction::Deadline, 1),
        ("sink.channel.send", FaultAction::Panic, 4),
    ];
    for &(site, action, after) in scenarios {
        let context = format!("{site}/{action:?}");
        let scope = FaultScope::arm(FaultPlan {
            site,
            action,
            after,
        });
        let tally = Tally::default();
        {
            // The server inherits the installed scope (start → accept →
            // connection → engine workers), so the fault fires somewhere
            // inside the serving stack while the load runs.
            let _armed = scope.install();
            let server = chaos_server();
            hammer(&server, &tally);
            // The real survival criterion: after the chaotic load (every
            // client joined), a fresh connection is served normally.
            let mut probe = Client::connect_with(server.addr(), Duration::from_secs(10))
                .expect("probe connect");
            let outcome = probe.query(&QueryRequest::new("synth", 3)).unwrap();
            assert!(
                matches!(outcome, QueryOutcome::Done(_)),
                "{context}: post-chaos probe got {outcome:?}"
            );
            drop(probe);
            let report = server.shutdown();
            assert!(
                report.drained || report.cancelled > 0,
                "{context}: shutdown neither drained nor cancelled"
            );
        }
        let done = tally.done.load(Ordering::Relaxed);
        let disconnects = tally.disconnects.load(Ordering::Relaxed);
        // Progress under chaos (shedding is expected at this load, a dead
        // server is not), and the single injected fault can only have cost
        // a few connections, never a broad outage.
        assert!(done >= 1, "{context}: no query ever completed");
        assert!(
            disconnects <= 8,
            "{context}: {disconnects} dropped connections from one fault"
        );
        assert_no_leaked_threads(&context);
    }
}

/// Worker panics bubbling up as typed `WorkerPanicked` frames, not as dead
/// connections: inject a panic into the engine under a single query and
/// check the exact status. (The matrix above covers panics under load;
/// this pins the wire taxonomy.)
#[test]
fn injected_worker_panic_is_a_typed_frame() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // `sink.channel.send` sits on every streamed run's output path (fast
    // path included), so the panic is guaranteed to fire mid-run.
    let scope = FaultScope::arm(FaultPlan {
        site: "sink.channel.send",
        action: FaultAction::Panic,
        after: 0,
    });
    {
        let _armed = scope.install();
        let server = chaos_server();
        let mut client = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        let outcome = client.query(&req).expect("typed frame, not a dead socket");
        match outcome {
            QueryOutcome::ServerError {
                status: WireStatus::WorkerPanicked,
                ..
            } => {}
            other => panic!("wanted WorkerPanicked, got {other:?}"),
        }
        // The panic was contained: the same connection keeps serving.
        let outcome = client.query(&QueryRequest::new("synth", 2)).unwrap();
        assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads("worker panic");
}

/// A stalled slow reader (never drains its socket) must not wedge the
/// server: the write timeout cuts the connection off, the query is
/// cancelled, and other clients stay unaffected.
#[test]
fn stalled_slow_reader_is_cut_off_and_query_cancelled() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    {
        let config = ServerConfig {
            write_timeout: Duration::from_millis(200),
            drain_deadline: Duration::from_secs(3),
            ..ServerConfig::default()
        };
        let server = Server::start(vec![("synth".to_string(), chaos_table())], config)
            .expect("server starts");

        // A "reader" that sends a big query and then never reads: the
        // server's socket buffer fills, its writes time out, and the
        // connection (plus its producing query) is torn down.
        let mut stalled = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        stalled
            .send_raw(&ccube_serve::proto::encode_request(
                &ccube_serve::Request::Query(req),
            ))
            .unwrap();

        // Meanwhile other clients are served normally.
        let mut client = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        for _ in 0..3 {
            let outcome = client.query(&QueryRequest::new("synth", 2)).unwrap();
            assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
        }

        // The stalled connection's query must deregister (cancelled), not
        // hold its admission slot forever.
        let mut active = usize::MAX;
        for _ in 0..300 {
            active = server.metrics().active_queries;
            if active == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(active, 0, "stalled reader's query never deregistered");
        drop(stalled);
        server.shutdown();
    }
    assert_no_leaked_threads("stalled reader");
}

// ---------------------------------------------------------------------------
// Resilience: resume, watchdog, and the recovering fleet
// ---------------------------------------------------------------------------

/// A connection killed mid-stream (injected write error on the 9th server
/// frame) must be invisible to a [`ResilientClient`] caller: the client
/// reconnects, resumes from its cursor, and the stitched stream is
/// cell-for-cell the full result — each cell delivered exactly once.
#[test]
fn mid_stream_connection_kill_is_recovered_by_resume() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    // Ground truth from an in-process run of the same query.
    let mut expected = Vec::new();
    {
        let mut session = CubeSession::new(chaos_table()).unwrap();
        let mut sink = FnSink(|cell: &[u32], count: u64, _acc: &()| {
            expected.push((cell.to_vec(), count));
        });
        session
            .query()
            .min_sup(1)
            .threads(2)
            .run(&mut sink)
            .unwrap();
    }
    expected.sort();

    let scope = FaultScope::arm(FaultPlan {
        site: "serve.frame.write",
        action: FaultAction::IoError,
        after: 8,
    });
    {
        let _armed = scope.install();
        let server = chaos_server();
        let mut client = ResilientClient::new(server.addr());
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        let mut got = Vec::new();
        let stats = client
            .query_with(&req, |block| {
                for (cell, count) in block.iter() {
                    got.push((cell.to_vec(), count));
                }
            })
            .expect("query completes across the kill");
        assert_eq!(stats.cells as usize, got.len());
        let cstats = client.stats();
        assert!(
            cstats.retried >= 1 && cstats.resumed >= 1,
            "the kill never forced a resume: {cstats:?}"
        );
        assert!(server.metrics().resumed >= 1, "server saw no Resume");
        got.sort();
        assert_eq!(got, expected, "stitched stream is not the full result");
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads("mid-stream kill");
}

/// A worker wedged inside the engine (blocked, no progress-epoch advance)
/// must be reaped by the watchdog as a typed, retryable `Wedged` frame —
/// with heartbeats keeping the stream visibly alive while it is stuck —
/// and the resilient client completes the query on its retry.
#[test]
fn wedged_worker_is_reaped_and_the_query_completes_via_retry() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // `sink.channel.send` sits on every streamed run's output path (fast
    // path included) and flushes every 1024 cells; the table below yields
    // ~3.3k cells, so the second visit lands mid-run with over a thousand
    // cells — and their lifecycle checkpoints — still ahead. The blocked
    // producer stops reaching those checkpoints and its progress epoch
    // freezes — exactly what the watchdog looks for; the reap's trip then
    // both unblocks the wedge and aborts the run at the next checkpoint,
    // surfacing as a retryable `Wedged` error frame.
    let scope = FaultScope::arm(FaultPlan {
        site: "sink.channel.send",
        action: FaultAction::Wedge,
        after: 1,
    });
    {
        let _armed = scope.install();
        let config = ServerConfig {
            heartbeat_interval: Duration::from_millis(50),
            watchdog_interval: Duration::from_millis(25),
            wedge_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(250),
            drain_deadline: Duration::from_secs(3),
            ..ServerConfig::default()
        };
        let table = SyntheticSpec::uniform(4000, 4, 8, 1.0, 11).generate();
        let server =
            Server::start(vec![("synth".to_string(), table)], config).expect("server starts");
        let mut client = ResilientClient::new(server.addr());
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        let stats = client
            .query(&req)
            .expect("query completes once the wedge is reaped");
        assert!(stats.cells > 0);
        assert!(
            client.stats().retried >= 1,
            "the reap must have cost an attempt: {:?}",
            client.stats()
        );
        let metrics = server.metrics();
        assert!(metrics.reaped >= 1, "watchdog never reaped the wedge");
        assert!(
            metrics.heartbeats >= 1,
            "no heartbeat while the stream was wedged"
        );
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads("wedged worker");
}

/// Flush-on-idle: reply frames leave when the producer has nothing more
/// ready — not when a later frame, the size threshold or a heartbeat
/// happens to push them out. The producer is parked (wedged) right after
/// handing over its first 64-cell batch, so that batch is one lone frame in
/// the wire buffer: it must reach the client before the first heartbeat is
/// even due, and the heartbeats must still follow while the stream idles.
#[test]
fn first_frame_leaves_while_the_producer_is_parked() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scope = FaultScope::arm(FaultPlan {
        site: "sink.channel.send",
        action: FaultAction::Wedge,
        after: 1,
    });
    {
        let _armed = scope.install();
        let heartbeat_interval = Duration::from_millis(500);
        let config = ServerConfig {
            heartbeat_interval,
            watchdog_interval: Duration::from_millis(25),
            wedge_timeout: Duration::from_millis(1500),
            write_timeout: Duration::from_millis(250),
            drain_deadline: Duration::from_secs(3),
            ..ServerConfig::default()
        };
        let table = SyntheticSpec::uniform(4000, 4, 8, 1.0, 11).generate();
        let server =
            Server::start(vec![("synth".to_string(), table)], config).expect("server starts");
        let mut client = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        let started = std::time::Instant::now();
        client
            .send_raw(&ccube_serve::proto::encode_request(
                &ccube_serve::Request::Query(QueryRequest::new("synth", 1)),
            ))
            .unwrap();
        let mut next = || -> ccube_serve::Response {
            match ccube_serve::proto::read_frame(client.stream_mut()).expect("read frame") {
                ccube_serve::proto::FrameRead::Frame(payload) => {
                    ccube_serve::proto::decode_response(&payload).expect("well-formed response")
                }
                _ => panic!("reply ended without a terminal frame"),
            }
        };
        match next() {
            ccube_serve::Response::Batch { seq: 0, block, .. } => assert_eq!(block.len(), 64),
            other => panic!("wanted the first Batch, got {other:?}"),
        }
        let arrived = started.elapsed();
        assert!(
            arrived < heartbeat_interval,
            "first frame took {arrived:?}: it waited for the heartbeat's flush"
        );
        assert!(
            matches!(next(), ccube_serve::Response::Heartbeat { .. }),
            "a parked producer's stream must idle on heartbeats"
        );
        // The reap unparks the producer and the stream ends typed.
        loop {
            match next() {
                ccube_serve::Response::Heartbeat { .. } | ccube_serve::Response::Batch { .. } => {}
                ccube_serve::Response::Error { status, .. } => {
                    assert_eq!(status, WireStatus::Wedged);
                    break;
                }
                other => panic!("wanted Wedged, got {other:?}"),
            }
        }
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads("parked producer");
}

/// The resilience gate: 64 resilient clients under injected chaos — a
/// mid-stream write kill, a worker panic, a wedged worker — and every
/// single query must complete, with zero unrecovered failures and zero
/// leaked threads. This is the scenario `exp -- serve` re-runs nightly
/// under `CCUBE_ASSERT_RESILIENCE=1`.
#[test]
fn resilient_fleet_recovers_every_query_under_chaos() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scenarios: &[(&str, FaultAction, u64)] = &[
        ("serve.frame.write", FaultAction::IoError, 10),
        ("sink.channel.send", FaultAction::Panic, 6),
        ("sink.channel.send", FaultAction::Wedge, 4),
    ];
    for &(site, action, after) in scenarios {
        let context = format!("{site}/{action:?}");
        let scope = FaultScope::arm(FaultPlan {
            site,
            action,
            after,
        });
        {
            let _armed = scope.install();
            let config = ServerConfig {
                admission: AdmissionConfig {
                    max_concurrent: 4,
                    max_queued: 8,
                    max_queue_wait: Duration::from_millis(250),
                    ..AdmissionConfig::default()
                },
                watchdog_interval: Duration::from_millis(25),
                wedge_timeout: Duration::from_millis(300),
                write_timeout: Duration::from_millis(500),
                drain_deadline: Duration::from_secs(3),
                ..ServerConfig::default()
            };
            let server = Server::start(vec![("synth".to_string(), chaos_table())], config)
                .expect("server starts");
            let addr = server.addr();
            let failures = AtomicU64::new(0);
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let failures = &failures;
                    s.spawn(move || {
                        let policy = RetryPolicy {
                            max_attempts: 20,
                            base_backoff: Duration::from_millis(10),
                            ..RetryPolicy::default()
                        };
                        let mut client =
                            ResilientClient::with(addr, ClientConfig::default(), policy);
                        for q in 0..QUERIES_PER_CLIENT {
                            let mut req = QueryRequest::new("synth", 1 + ((c + q) % 3) as u64);
                            if c % 2 == 0 {
                                req.threads = 2;
                            }
                            if let Err(e) = client.query(&req) {
                                eprintln!("client {c} query {q} unrecovered: {e}");
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                failures.load(Ordering::Relaxed),
                0,
                "{context}: unrecovered failures in the resilient fleet"
            );
            server.shutdown();
        }
        assert_no_leaked_threads(&context);
    }
}
